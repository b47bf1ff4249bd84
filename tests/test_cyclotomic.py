import random

import pytest

from fermat_homology.cyclotomic import (
    CyclotomicInt,
    conjugate,
    norm,
    verify_cyclotomic_identities,
)
from fermat_homology.errors import ModulusMismatch
from oracles import float_norm


def test_zeta_times_its_inverse_power():
    for p in (3, 5, 7):
        z = CyclotomicInt.zeta(p)
        assert z * CyclotomicInt.zeta(p, p - 1) == CyclotomicInt.one(p)
        power = CyclotomicInt.one(p)
        for k in range(1, p + 1):
            power = power * z
            assert power == CyclotomicInt.zeta(p, k)


def test_product_of_two_factors_at_p3():
    one = CyclotomicInt.one(3)
    product = (one - CyclotomicInt.zeta(3)) * (one - CyclotomicInt.zeta(3, 2))
    assert product == CyclotomicInt.integer(3, 3)


def test_norm_values():
    for p in (3, 5, 7, 11, 13):
        assert norm(CyclotomicInt.one(p) - CyclotomicInt.zeta(p)) == p
        assert norm(CyclotomicInt.zeta(p)) == 1
    assert norm(CyclotomicInt.integer(5, 0)) == 0


def test_norm_of_unit_times_generator():
    for p in (5, 7, 11):
        one = CyclotomicInt.one(p)
        half_inv = pow(2, p - 2, p)
        for a in range(2, (p + 1) // 2):
            exponent = ((1 - a) * half_inv) % p
            value = norm(CyclotomicInt.zeta(p, exponent) * (one - CyclotomicInt.zeta(p, a)))
            assert abs(value) == p


def test_norm_is_multiplicative():
    rng = random.Random(7)
    for p in (5, 7):
        for _ in range(10):
            a = CyclotomicInt(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
            b = CyclotomicInt(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
            assert norm(a * b) == norm(a) * norm(b)


def test_norm_against_float_oracle():
    rng = random.Random(11)
    for p in (5, 7, 11):
        for _ in range(5):
            a = CyclotomicInt(p, tuple(rng.randrange(-3, 4) for _ in range(p - 1)))
            exact = norm(a)
            approx = float_norm(p, a.coeffs)
            assert abs(approx.imag) < 1e-6
            assert abs(approx.real - exact) < 1e-4 * max(1, abs(exact))


def test_conjugation_is_a_ring_map():
    rng = random.Random(3)
    p = 7
    for _ in range(10):
        a = CyclotomicInt(p, tuple(rng.randrange(-2, 3) for _ in range(p - 1)))
        b = CyclotomicInt(p, tuple(rng.randrange(-2, 3) for _ in range(p - 1)))
        for i in (2, 3, 5):
            assert conjugate(a * b, i) == conjugate(a, i) * conjugate(b, i)
            assert conjugate(a + b, i) == conjugate(a, i) + conjugate(b, i)


def test_half_product_square_at_p3():
    # (1 - zeta)^2 reduces to -3 zeta
    one = CyclotomicInt.one(3)
    b = one - CyclotomicInt.zeta(3)
    assert b * b == -(CyclotomicInt.integer(3, 3) * CyclotomicInt.zeta(3))


def test_identity_reports_pass():
    for p in (3, 5, 7, 11, 13):
        report = verify_cyclotomic_identities(p)
        assert report.all_pass, (p, report.to_json())


def test_report_respects_bound():
    with pytest.raises(ValueError):
        verify_cyclotomic_identities(29)


def test_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        CyclotomicInt.one(3) * CyclotomicInt.one(5)
