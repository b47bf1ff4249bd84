import itertools

import pytest

from fermat_homology.bsigma import (
    b_map_analysis,
    bsigma,
    bsigma_p3,
    bsigma_p3_from_psi,
    gamma_oracle_p3,
    in_augmentation_ideal,
    prime_field_image,
    verify_bsigma,
)
from fermat_homology.errors import UnsupportedExponent
from fermat_homology.galois_kummer import KummerCoordinates, psi_from_kummer
from fermat_homology.group_ring import GroupRingElement, augmentation, d_prime, dlog
from fermat_homology.scalars import GF27


def eps(k):
    exps = [0, 0]
    exps[k] = 1
    return GroupRingElement.monomial(3, 1, tuple(exps))


def test_identity_coordinates_give_one():
    assert bsigma_p3(0, 0) == GroupRingElement.one(3, 1)


def test_first_generator_factors():
    one = GroupRingElement.one(3, 1)
    e, f = eps(0), eps(1)
    expected = one - (e + f) * (one - e) * (one - f)
    assert bsigma_p3(1, 0) == expected


def test_second_generator_expansion():
    one = GroupRingElement.one(3, 1)
    e, f = eps(0), eps(1)
    expected = one + (e + f) - (e * e + e * f + f * f) + e * e * f * f
    assert bsigma_p3(0, 1) == expected


def test_parametrizations_agree():
    for c1 in range(3):
        for c2 in range(3):
            assert bsigma_p3_from_psi(c1, c2) == bsigma_p3((c2 - c1) % 3, c1)


def test_only_exponent_three_supported():
    with pytest.raises(UnsupportedExponent):
        bsigma(5, (0, 0, 0))


def test_structural_report_passes_for_all_pairs():
    for c0 in range(3):
        for c1 in range(3):
            report = verify_bsigma(bsigma_p3(c0, c1))
            assert report.all_pass, (c0, c1, report)


def test_structural_report_on_degenerate_inputs():
    assert verify_bsigma(GroupRingElement.one(3, 1)).all_pass
    report = verify_bsigma(eps(0))
    assert not report.symmetric


def test_augmentation_ideal_membership_is_sharp():
    one = GroupRingElement.one(3, 1)
    e, f = eps(0), eps(1)
    assert in_augmentation_ideal((one - e) * (one - f))
    assert not in_augmentation_ideal(e)


def test_gamma_oracle_root_count_and_zero_case():
    roots = gamma_oracle_p3(0, 0)
    assert len(roots) == 3
    assert sorted(GF27.to_prime_int(alpha) for alpha, _ in roots) == [0, 1, 2]


def test_gamma_oracle_returns_every_root_of_the_cubic():
    """The closed-form roots against a scan of all 27 elements of F_27:
    the roots of alpha^3 - alpha + c^3, c = c_1 + c_2, in scan order."""
    scan = [tuple(reversed(t)) for t in itertools.product(range(3), repeat=3)]
    for c1 in range(3):
        for c2 in range(3):
            c = GF27.lift_int(c1 + c2)
            c_cubed = GF27.mul(GF27.mul(c, c), c)
            roots = [
                a
                for a in scan
                if GF27.add(GF27.sub(GF27.mul(GF27.mul(a, a), a), a), c_cubed) == GF27.zero
            ]
            assert [alpha for alpha, _ in gamma_oracle_p3(c1, c2)] == roots


def test_gamma_oracle_matches_closed_form_everywhere():
    for c1 in range(3):
        for c2 in range(3):
            expected = bsigma_p3_from_psi(c1, c2)
            for alpha, gamma in gamma_oracle_p3(c1, c2):
                collapsed = prime_field_image(d_prime(gamma))
                assert collapsed is not None, (c1, c2, alpha)
                assert collapsed == expected


def test_gamma_coefficient_sum_is_one():
    for c1 in range(3):
        for c2 in range(3):
            for _, gamma in gamma_oracle_p3(c1, c2):
                assert augmentation(gamma) == GF27.one


def test_dlog_of_gamma_represents_the_coset():
    for c1 in range(3):
        for c2 in range(3):
            kummer = KummerCoordinates(3, ((c2 - c1) % 3, c1))
            psi = psi_from_kummer(kummer)
            assert psi.entries == (c1, c2)
            psi_elt = GroupRingElement.from_dict(
                3,
                0,
                {(1,): GF27.lift_int(c1), (2,): GF27.lift_int(c2)},
                ring=GF27,
            )
            for alpha, gamma in gamma_oracle_p3(c1, c2):
                difference = dlog(gamma).components[0] - psi_elt
                constant = GroupRingElement.from_dict(3, 0, {(0,): alpha}, ring=GF27)
                assert difference == constant


def test_multiplicativity_over_all_pairs():
    for a0 in range(3):
        for a1 in range(3):
            for b0 in range(3):
                for b1 in range(3):
                    assert bsigma_p3(a0, a1) * bsigma_p3(b0, b1) == bsigma_p3(
                        a0 + b0, a1 + b1
                    )


def test_every_value_has_order_dividing_three():
    one = GroupRingElement.one(3, 1)
    for c0 in range(3):
        for c1 in range(3):
            assert bsigma_p3(c0, c1) ** 3 == one


def test_b_map_linear_structure():
    report = b_map_analysis()
    assert report.image_dim == 4
    assert report.kernel_dim == 5
    assert all(report.relations)
    assert report.image_shape_matches
    assert report.all_pass
