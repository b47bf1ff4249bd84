import itertools
import random

import pytest

from fermat_homology import fp_linalg as fl
from fermat_homology.bsigma import (
    b_map_analysis,
    bsigma_p3,
    gamma_oracle_p3,
    prime_field_image,
    verify_bsigma,
)
from fermat_homology.galois_kummer import KummerCoordinates, group_elements, psi_from_kummer
from fermat_homology.group_ring import (
    GroupRingElement,
    augmentation,
    d_prime,
    d_prime_prime,
    dlog,
    ideal_span,
    swap_w,
)
from fermat_homology.homology import RelativeClass, boundary_delta
from fermat_homology.scalars import GF27, Zmod
from oracles import convolution


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
    """The gamma route from psi coordinates gives the closed form at the
    Kummer coordinates, through the package's Kummer-to-psi map, which
    reaches every psi vector."""
    elements = group_elements(3)
    psis = sorted(psi_from_kummer(g).entries for g in elements)
    assert psis == list(itertools.product(range(3), repeat=2))
    for g in elements:
        for alpha, gamma in gamma_oracle_p3(*psi_from_kummer(g).entries):
            assert prime_field_image(d_prime(gamma)) == bsigma_p3(*g.c), (g.c, alpha)


def test_structural_report_passes_for_all_pairs():
    for c0 in range(3):
        for c1 in range(3):
            report = verify_bsigma(bsigma_p3(c0, c1))
            assert report.all_pass, (c0, c1, report)


@pytest.mark.parametrize("c0, c1", itertools.product(range(3), repeat=2))
def test_an_unreduced_table_is_the_same_unit(c0, c1):
    """B(c0, c1) rebuilt from its table with any one entry moved by +3 or
    -3, off the diagonal too, is the same element with the same report."""
    b = bsigma_p3(c0, c1)
    report = verify_bsigma(b).to_json()
    for k in range(9):
        for shift in (3, -3):
            table = list(b.coeffs)
            table[k] += shift
            u = GroupRingElement(3, 1, Zmod(3), tuple(table))
            assert u == b and hash(u) == hash(b), (k, shift)
            assert u.is_symmetric() == b.is_symmetric()
            assert verify_bsigma(u).to_json() == report, (k, shift)


def test_structural_report_on_degenerate_inputs():
    assert verify_bsigma(GroupRingElement.one(3, 1)).all_pass
    report = verify_bsigma(eps(0))
    assert not report.symmetric


def in_augmentation_ideal(x):
    """Membership of x in (1 - e_0)(1 - e_1) Lambda_1 over Z/n, the test
    ``verify_bsigma`` makes on B - 1: a zero boundary."""
    return boundary_delta(RelativeClass(x)).is_zero()


def test_augmentation_ideal_membership_is_sharp():
    one = GroupRingElement.one(3, 1)
    e, f = eps(0), eps(1)
    assert in_augmentation_ideal((one - e) * (one - f))
    assert not in_augmentation_ideal(e)


def corner(n):
    """(1 - e_0)(1 - e_1) as a {(i, j): c} dict."""
    return {(0, 0): 1, (1, 0): n - 1, (0, 1): n - 1, (1, 1): 1}


def element(n, coeffs):
    """The element of Lambda_1 over Z/n made from the given table, which
    may be unreduced."""
    return GroupRingElement(n, 1, Zmod(n), tuple(coeffs))


def times_corner(n, z):
    """The table of (1 - e_0)(1 - e_1) z, by the convolution oracle."""
    cells = list(itertools.product(range(n), repeat=2))
    product = convolution(n, Zmod(n), corner(n), dict(zip(cells, z)))
    return tuple(product.get(cell, 0) for cell in cells)


@pytest.mark.parametrize("n, ideal_size", [(2, 2), (3, 81)])
def test_augmentation_ideal_membership_by_exhaustion(n, ideal_size):
    """Every element of Lambda_1 over Z/n, against the set of all
    products (1 - e_0)(1 - e_1) z."""
    tables = list(itertools.product(range(n), repeat=n * n))
    ideal = {times_corner(n, z) for z in tables}
    assert len(ideal) == ideal_size
    assert [in_augmentation_ideal(element(n, x)) for x in tables] == [
        x in ideal for x in tables
    ]


@pytest.mark.parametrize("n", (4, 6))
def test_augmentation_ideal_at_composite_n(n):
    rng = random.Random(f"composite/{n}")
    for _ in range(50):
        z = [rng.randrange(-n, 2 * n) for _ in range(n * n)]
        assert in_augmentation_ideal(element(n, times_corner(n, z)))
    assert not in_augmentation_ideal(GroupRingElement.one(n, 1))


def ideal_path(n):
    """The replaced membership test: reduction against the RREF basis of
    the ideal, which needs prime n."""
    one = GroupRingElement.one(n, 1)
    e0 = GroupRingElement.monomial(n, 1, (1, 0))
    e1 = GroupRingElement.monomial(n, 1, (0, 1))
    basis = ideal_span([(one - e0) * (one - e1)])
    return lambda x: fl.in_span(n, basis, [x.coeffs])[0]


@pytest.mark.parametrize("p", (5, 7, 11))
def test_augmentation_ideal_matches_the_elimination_path(p):
    rng = random.Random(f"ideal-path/{p}")
    in_ideal = ideal_path(p)
    members = [times_corner(p, [rng.randrange(p) for _ in range(p * p)]) for _ in range(20)]
    others = [[rng.randrange(-p, 2 * p) for _ in range(p * p)] for _ in range(20)]
    # a member plus a constant: zero sums off row and column 0, not in the ideal
    shifted = [(x[0] + rng.randrange(1, p),) + x[1:] for x in members[:10]]
    results = []
    for x in members + others + shifted:
        results.append(in_augmentation_ideal(element(p, x)))
        assert results[-1] == in_ideal(element(p, x)), x
    assert results[:20] == [True] * 20 and not any(results[40:])


def reference_report(b, in_ideal):
    """``verify_bsigma(b).to_json()`` with the row and column sums read off
    the grid and the ideal test by elimination."""
    n, grid = b.n, b.grid()
    sums_ok = all(sum(grid[i]) % n == 0 for i in range(1, n)) and all(
        sum(grid[i][j] for i in range(n)) % n == 0 for j in range(1, n)
    )
    try:
        d_second_ok = d_prime_prime(b) == GroupRingElement.one(n, 2)
    except ValueError:
        d_second_ok = False
    flags = {
        "symmetric": b == swap_w(b),
        "zero_row_col_sums": sums_ok,
        "augmentation_ideal": in_ideal(b - GroupRingElement.one(n, 1)),
        "d_second_trivial": d_second_ok,
    }
    return {**flags, "all_pass": all(flags.values())}


def unreduced(rng, n, table):
    """The same residues, each entry moved by a random multiple of n."""
    return [x + n * rng.randrange(-2, 3) for x in table]


def verification_cases(rng, n, count, units):
    """Random tables; ones in 1 + ideal, or off it by a constant; and
    ``units`` symmetric units d'(g) with eps(g) = 1, all unreduced."""
    for k in range(count):
        if k < units:
            g = [rng.randrange(n) for _ in range(n)]
            g[0] = (1 - sum(g[1:])) % n
            unit = d_prime(GroupRingElement(n, 0, Zmod(n), tuple(g)))
            yield element(n, unreduced(rng, n, unit.coeffs))
        elif k % 2:
            yield element(n, [rng.randrange(-2 * n, 3 * n) for _ in range(n * n)])
        else:
            table = list(times_corner(n, [rng.randrange(n) for _ in range(n * n)]))
            # 1 plus an ideal element, or that off the ideal by a constant
            table[0] += 1 + rng.choice([0, 0, rng.randrange(n)])
            yield element(n, unreduced(rng, n, table))


@pytest.mark.parametrize("n, units", [(3, 20), (5, 10), (7, 3)])
def test_verify_bsigma_matches_the_grid_reference(n, units):
    rng = random.Random(f"verify/{n}")
    in_ideal = ideal_path(n)
    seen = set()
    for b in verification_cases(rng, n, 400, units):
        report = verify_bsigma(b).to_json()
        assert report == reference_report(b, in_ideal), b
        seen.update(report.items())
    # every flag came out both ways
    assert len(seen) == 10


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
            c = GF27.reduce(c1 + c2)
            c_cubed = GF27.mul(GF27.mul(c, c), c)
            roots = [
                a
                for a in scan
                if GF27.add(GF27.sub(GF27.mul(GF27.mul(a, a), a), a), c_cubed) == GF27.zero
            ]
            assert [alpha for alpha, _ in gamma_oracle_p3(c1, c2)] == roots


def test_gamma_oracle_matches_closed_form_everywhere():
    expected = {psi_from_kummer(g).entries: bsigma_p3(*g.c) for g in group_elements(3)}
    for c1 in range(3):
        for c2 in range(3):
            for alpha, gamma in gamma_oracle_p3(c1, c2):
                collapsed = prime_field_image(d_prime(gamma))
                assert collapsed is not None, (c1, c2, alpha)
                assert collapsed == expected[c1, c2]
    with pytest.raises(ValueError, match=r"^an extension-field element is required, got Zmod\(n=3\)$"):
        prime_field_image(bsigma_p3(1, 0))


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
                {(1,): GF27.reduce(c1), (2,): GF27.reduce(c2)},
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
