import random

import pytest

from fermat_homology.cyclotomic import CyclotomicInt
from fermat_homology.galois_kummer import (
    KummerCoordinates,
    PsiVector,
    coordinate_sum,
    group_elements,
    psi_from_kummer,
)


def test_generator_images():
    assert psi_from_kummer(KummerCoordinates(3, (1, 0))).entries == (0, 1)
    assert psi_from_kummer(KummerCoordinates(3, (0, 1))).entries == (1, 1)


def test_zero_maps_to_zero():
    for p in (3, 5, 7):
        width = (p + 1) // 2
        assert psi_from_kummer(KummerCoordinates(p, (0,) * width)).entries == (0,) * (p - 1)


def test_group_enumeration():
    elements = group_elements(3)
    assert len(elements) == 9
    assert elements[0].c == (0, 0)
    assert KummerCoordinates(3, (1, 0)) in elements
    assert KummerCoordinates(3, (0, 1)) in elements
    assert [e.c for e in elements] == sorted(e.c for e in elements)
    assert len(group_elements(5)) == 125


def test_additivity_exhaustive_p3():
    for g in group_elements(3):
        for h in group_elements(3):
            assert psi_from_kummer(g + h) == psi_from_kummer(g) + psi_from_kummer(h)


def test_additivity_sampled_p5():
    rng = random.Random(17)
    elements = group_elements(5)
    for _ in range(50):
        g, h = rng.choice(elements), rng.choice(elements)
        assert psi_from_kummer(g + h) == psi_from_kummer(g) + psi_from_kummer(h)


def test_mirror_entries_differ_by_multiples_of_c0():
    for p in (3, 5, 7):
        for k in group_elements(p) if p == 3 else random.Random(p).sample(group_elements(p), 40):
            psi = psi_from_kummer(k)
            for i in range(1, (p - 1) // 2 + 1):
                assert psi.entries[p - i - 1] == (psi.entries[i - 1] + i * k.c[0]) % p


def test_coordinate_sum_of_zero():
    assert coordinate_sum(PsiVector(3, (0, 0))) == 0


def test_coordinate_sum_of_first_generator():
    # p factors as -zeta (1 - zeta^{-1})^2 in the degree-3 cyclotomic ring,
    # so the exponent sum for (c0, c1) = (1, 0) must be c0 + 2 c1 = 1.
    one = CyclotomicInt.one(3)
    z = CyclotomicInt.zeta(3)
    z_inv = CyclotomicInt.zeta(3, -1)
    factorization = -(z * (one - z_inv) * (one - z_inv))
    assert factorization == CyclotomicInt.integer(3, 3)
    psi = psi_from_kummer(KummerCoordinates(3, (1, 0)))
    assert coordinate_sum(psi) == 1


def test_coordinate_sum_linear_form():
    for p in (3, 5, 7):
        for k in group_elements(p):
            expected = (2 * sum(k.c[1:]) + k.c[0] * ((p * p - 1) // 8)) % p
            assert coordinate_sum(psi_from_kummer(k)) == expected


def test_validation_errors():
    with pytest.raises(ValueError):
        KummerCoordinates(4, (0, 0))
    with pytest.raises(ValueError):
        KummerCoordinates(3, (0, 0, 0))
    with pytest.raises(ValueError):
        PsiVector(3, (1,))
    for p, entries in ((4, (1, 2, 3)), (9, tuple(range(8))), (1, ()), (2, (1,))):
        with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
            PsiVector(p, entries)


def test_json_round_trip():
    k = KummerCoordinates(3, (1, 2))
    assert KummerCoordinates.from_json(k.to_json()) == k
