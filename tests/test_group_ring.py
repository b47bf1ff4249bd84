import itertools
import random

import pytest

from fermat_homology.bsigma import bsigma_p3, gamma_oracle_p3, prime_field_image
from fermat_homology.errors import ArityMismatch, NotAUnit, NotSymmetric
from fermat_homology.galois_kummer import KummerCoordinates, psi_from_kummer
from fermat_homology.group_ring import (
    DifferentialElement,
    GroupRingElement,
    _product_rows,
    augmentation,
    d_prime,
    d_prime_prime,
    dlog,
    ideal_span,
    invert,
    multiplication_matrix,
    swap_w,
)
from fermat_homology.scalars import GF27, Zmod
from oracles import convolution, row_times


def eps(n, m, k):
    exps = [0] * (m + 1)
    exps[k] = 1
    return GroupRingElement.monomial(n, m, tuple(exps))


def random_unit(rng, n, m=0):
    import itertools

    exponents = list(itertools.product(range(n), repeat=m + 1))
    while True:
        coeffs = {exps: rng.randrange(n) for exps in exponents}
        g = GroupRingElement.from_dict(n, m, coeffs)
        if augmentation(g) % n != 0:
            return g


def test_monomial_inverse_pairs():
    for n in (3, 5):
        e0 = eps(n, 0, 0)
        assert e0 * e0 ** (n - 1) == GroupRingElement.one(n, 0)


def test_b_product_matches_closed_form_both_ways():
    b_sigma = bsigma_p3(1, 0)
    b_tau = bsigma_p3(0, 1)
    by_convolution = b_sigma * b_tau
    assert by_convolution == bsigma_p3(1, 1)
    # the gamma route, from the psi vector of the Kummer coordinates (1, 1)
    for _, gamma in gamma_oracle_p3(*psi_from_kummer(KummerCoordinates(3, (1, 1))).entries):
        assert by_convolution == prime_field_image(d_prime(gamma))


def test_b_tau_has_order_three():
    b_tau = bsigma_p3(0, 1)
    assert b_tau * b_tau * b_tau == GroupRingElement.one(3, 1)


def test_invert_basics():
    one = GroupRingElement.one(3, 0)
    assert invert(one) == one
    e0 = eps(3, 0, 0)
    assert invert(e0) == e0 * e0


def test_invert_rejects_non_units():
    with pytest.raises(NotAUnit):
        invert(GroupRingElement.zero(3, 0))
    with pytest.raises(NotAUnit):
        invert(GroupRingElement.one(3, 0) - eps(3, 0, 0))


def test_gamma_inverse_closed_form():
    for c1 in range(3):
        for c2 in range(3):
            for _, gamma in gamma_oracle_p3(c1, c2):
                d1, d2 = gamma.coeffs[1], gamma.coeffs[2]
                diff = GF27.sub(d2, d1)
                diff_sq = GF27.mul(diff, diff)
                formula = GroupRingElement.from_dict(
                    3,
                    0,
                    {
                        (0,): GF27.add(
                            GF27.add(GF27.one, GF27.add(d1, d2)), diff_sq
                        ),
                        (1,): GF27.sub(diff_sq, d1),
                        (2,): GF27.sub(diff_sq, d2),
                    },
                    ring=GF27,
                )
                assert invert(gamma) == formula


def test_augmentation_values():
    assert augmentation(GroupRingElement.one(3, 1)) == 1
    assert augmentation(bsigma_p3(1, 0)) == 1
    one = GroupRingElement.one(3, 1)
    e0, e1 = eps(3, 1, 0), eps(3, 1, 1)
    assert augmentation((one - e0) * (one - e1)) == 0


def test_augmentation_is_multiplicative():
    rng = random.Random(5)
    for _ in range(20):
        a = GroupRingElement.from_dict(
            3, 1, {(i, j): rng.randrange(3) for i in range(3) for j in range(3)}
        )
        b = GroupRingElement.from_dict(
            3, 1, {(i, j): rng.randrange(3) for i in range(3) for j in range(3)}
        )
        assert augmentation(a * b) == (augmentation(a) * augmentation(b)) % 3


def test_swap_examples():
    e0, e1 = eps(3, 1, 0), eps(3, 1, 1)
    assert swap_w(e0) == e1
    assert swap_w(bsigma_p3(1, 0)) == bsigma_p3(1, 0)
    assert swap_w(e0 * e0 * e1) == e0 * e1 * e1
    with pytest.raises(ArityMismatch):
        swap_w(eps(3, 0, 0))


def test_d_prime_kills_the_generator():
    assert d_prime(eps(3, 0, 0)) == GroupRingElement.one(3, 1)
    assert d_prime(GroupRingElement.one(3, 0)) == GroupRingElement.one(3, 1)


def test_d_prime_of_gamma_is_b():
    for _, gamma in gamma_oracle_p3(0, 1):
        image = d_prime(gamma)
        grid = image.grid()
        collapsed = GroupRingElement.from_dict(
            3,
            1,
            {
                (i, j): grid[i][j][0]
                for i in range(3)
                for j in range(3)
            },
        )
        assert all(
            all(x == 0 for x in grid[i][j][1:])
            for i in range(3)
            for j in range(3)
        )
        assert collapsed == bsigma_p3(1, 0)


def test_d_second_trivial_on_one_and_b():
    one2 = GroupRingElement.one(3, 2)
    assert d_prime_prime(GroupRingElement.one(3, 1)) == one2
    assert d_prime_prime(bsigma_p3(1, 0)) == one2


def test_d_second_requires_symmetry():
    with pytest.raises(NotSymmetric):
        d_prime_prime(eps(3, 1, 0))


def test_cocycle_identity_on_random_units():
    rng = random.Random(12345)
    for n, count in ((3, 50), (5, 50), (7, 8)):
        one2 = GroupRingElement.one(n, 2)
        for _ in range(count):
            g = random_unit(rng, n)
            image = d_prime(g)
            assert swap_w(image) == image
            assert d_prime_prime(image) == one2


def test_dlog_examples():
    e0 = eps(3, 0, 0)
    result = dlog(e0)
    assert result.components[0] == GroupRingElement.one(3, 0)
    constant = GroupRingElement.from_dict(3, 0, {(0,): 2})
    assert dlog(constant).is_zero()


def test_dlog_is_a_homomorphism():
    rng = random.Random(99)
    for _ in range(10):
        u, v = random_unit(rng, 5), random_unit(rng, 5)
        assert dlog(u * v) == dlog(u) + dlog(v)


def test_dlog_kernel_is_constants_for_prime_exponent():
    # exhaustive over the 18 units of the n=3 one-variable ring
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if (a + b + c) % 3 == 0:
                    continue
                u = GroupRingElement.from_dict(3, 0, {(0,): a, (1,): b, (2,): c})
                assert dlog(u).is_zero() == (b == 0 and c == 0)


def test_dlog_kernel_is_larger_for_composite_exponent():
    u = GroupRingElement.from_dict(6, 0, {(2,): 3, (3,): 2})
    assert dlog(u).is_zero()


def test_differential_component_count_enforced():
    with pytest.raises(ArityMismatch):
        DifferentialElement(3, 1, GroupRingElement.one(3, 1).ring, ())


def test_mixed_arity_rejected():
    with pytest.raises(ArityMismatch):
        eps(3, 0, 0) * eps(3, 1, 0)
    for m in (-1, -2):
        with pytest.raises(ArityMismatch, match=f"^m must be at least 0, got {m}$"):
            GroupRingElement.one(3, m)
    x = GroupRingElement.monomial(3, 1, (1, 2))
    for k in (-1, 2):
        with pytest.raises(ArityMismatch, match="^k must be a variable 0..1, got "):
            x.derivative(k)
    for targets in (((0,), (-1,)), ((0,), (5,))):
        with pytest.raises(ArityMismatch, match="^targets must be variables 0..1, got "):
            x.substitute(1, targets)
    for grid in ([[1, 2]], [[1, 2, 0]] * 4, [[1, 2, 0, 5]] * 3, [[1, 2, 0]] * 2 + [[1]]):
        with pytest.raises(ArityMismatch, match="^expected 3 rows of 3 coefficients$"):
            GroupRingElement.from_grid(3, grid)


@pytest.mark.parametrize(
    "first, second",
    [((3, 1), (5, 1)), ((5, 1), (3, 1)), ((3, 1), (3, 0)), ((3, 0), (3, 1))],
    ids=["n3-n5", "n5-n3", "m1-m0", "m0-m1"],
)
def test_ideal_span_rejects_generators_of_different_rings(first, second):
    generators = [GroupRingElement.one(*first), GroupRingElement.one(*second)]
    with pytest.raises(ArityMismatch):
        ideal_span(generators)


RINGS = {"Z/3": Zmod(3), "Z/4": Zmod(4), "Z/5": Zmod(5), "F_27": GF27}


@pytest.mark.parametrize("name", ("Z/3", "Z/4", "F_27"))
@pytest.mark.parametrize("m", (0, 1, 2))
def test_a_table_of_the_wrong_length_is_rejected(name, m):
    ring = RINGS[name]
    n = ring.char or ring.n
    size = n ** (m + 1)
    for length in sorted({0, 1, n, size - 1, size + 1, n * size} - {size}):
        message = f"^expected {size} coefficients, got {length}$"
        with pytest.raises(ArityMismatch, match=message):
            GroupRingElement(n, m, ring, (ring.one,) * length)


@pytest.mark.parametrize("name", ("Z/4", "Z/5", "F_27"))
@pytest.mark.parametrize("m", (0, 1, 2))
def test_negation_and_derivative_of_unreduced_tables_are_cellwise(name, m):
    """-x and the coefficient of dlog e_k against k * c taken cell by cell
    over plain integers: on the cell over Z/n, on each coordinate over F_27."""
    ring = RINGS[name]
    n = ring.char or ring.n
    exps = list(itertools.product(range(n), repeat=m + 1))
    rng = random.Random(f"cellwise/{name}/{m}")

    def times(k, c):
        return tuple(k * x % n for x in c) if ring == GF27 else k * c % n

    for _ in range(5):
        if ring == GF27:
            table = [tuple(rng.randrange(-2 * n, 2 * n) for _ in range(3)) for _ in exps]
        else:
            table = [rng.randrange(-2 * n, 2 * n) for _ in exps]
        x = GroupRingElement(n, m, ring, tuple(table))
        assert (-x).coeffs == tuple(times(-1, c) for c in table)
        for k in range(m + 1):
            derivative = tuple(times(e[k], c) for e, c in zip(exps, table))
            assert x.derivative(k).coeffs == derivative, k


def test_multiplication_matrix_row_action():
    rng = random.Random(21)
    a = bsigma_p3(2, 1)
    matrix = multiplication_matrix(a)
    for _ in range(10):
        x = GroupRingElement.from_dict(
            3, 1, {(i, j): rng.randrange(3) for i in range(3) for j in range(3)}
        )
        assert row_times(x.coeffs, matrix) == (a * x).coeffs


def test_json_round_trip():
    b = bsigma_p3(1, 2)
    assert GroupRingElement.from_json(b.to_json()) == b


def oracle_product(n, arity, ring, a, b):
    """Product of two coefficient tables (e_0 varying slowest) by the oracle."""
    exps = list(itertools.product(range(n), repeat=arity))
    out = convolution(n, ring, dict(zip(exps, a)), dict(zip(exps, b)))
    return tuple(out.get(e, ring.zero) for e in exps)


def ring_id(ring):
    """A test id: Zmod(n) by its modulus alone, GF27 by its repr."""
    return f"Zmod({ring.n})" if isinstance(ring, Zmod) else repr(ring)


def random_table(rng, ring, size):
    if ring == GF27:
        return tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(size))
    return tuple(rng.randrange(ring.n) for _ in range(size))


@pytest.mark.parametrize("ring", [*(Zmod(n) for n in range(2, 8)), GF27], ids=ring_id)
def test_swap_transposes_the_grid(ring):
    n = 3 if ring == GF27 else ring.n
    rng = random.Random(f"swap/{ring!r}")
    for _ in range(5):
        a = GroupRingElement(n, 1, ring, random_table(rng, ring, n * n))
        assert swap_w(a).grid() == [list(column) for column in zip(*a.grid())]


@pytest.mark.parametrize("n", (3, 4, 5, 6, 7))
@pytest.mark.parametrize("arity", (1, 2, 3))
def test_product_matches_the_convolution_oracle_over_zmod(n, arity):
    rng = random.Random(f"zmod/{n}/{arity}")
    ring = Zmod(n)
    for _ in range(3 if arity < 3 else 1):
        a, b = (random_table(rng, ring, n**arity) for _ in range(2))
        x = GroupRingElement(n, arity - 1, ring, a)
        y = GroupRingElement(n, arity - 1, ring, b)
        assert (x * y).coeffs == oracle_product(n, arity, ring, a, b)


@pytest.mark.parametrize("arity", (1, 2))
def test_product_matches_the_convolution_oracle_over_f27(arity):
    rng = random.Random(f"f27/{arity}")
    for _ in range(5):
        a, b = (random_table(rng, GF27, 3**arity) for _ in range(2))
        x = GroupRingElement(3, arity - 1, GF27, a)
        y = GroupRingElement(3, arity - 1, GF27, b)
        assert (x * y).coeffs == oracle_product(3, arity, GF27, a, b)


def unreduced_table(rng, ring, size):
    if ring == GF27:
        return tuple(tuple(rng.randrange(-6, 6) for _ in range(3)) for _ in range(size))
    return tuple(rng.randrange(-3 * ring.n, 3 * ring.n) for _ in range(size))


@pytest.mark.parametrize("ring", (Zmod(4), Zmod(5), GF27), ids=ring_id)
@pytest.mark.parametrize("arity", (1, 2))
def test_product_of_unreduced_tables_matches_the_convolution_oracle(ring, arity):
    n = 3 if ring == GF27 else ring.n
    rng = random.Random(f"unreduced/{ring!r}/{arity}")
    one = GroupRingElement.one(n, arity - 1, ring)
    for _ in range(3):
        a, b = (unreduced_table(rng, ring, n**arity) for _ in range(2))
        x = GroupRingElement(n, arity - 1, ring, a)
        y = GroupRingElement(n, arity - 1, ring, b)
        assert (x * y).coeffs == oracle_product(n, arity, ring, a, b)
        # a product by the one still normalizes the unreduced table
        assert (one * y).coeffs == oracle_product(n, arity, ring, one.coeffs, b)


def test_powers_match_repeated_oracle_products():
    rng = random.Random(8)
    ring = Zmod(5)
    u = GroupRingElement(5, 1, ring, random_table(rng, ring, 25))
    expected = GroupRingElement.one(5, 1).coeffs
    for k in range(9):
        assert (u**k).coeffs == expected
        expected = oracle_product(5, 2, ring, expected, u.coeffs)


@pytest.mark.parametrize("ring", (Zmod(5), GF27), ids=ring_id)
def test_powers_of_unreduced_tables_match_repeated_oracle_products(ring):
    n = 3 if ring == GF27 else ring.n
    table = unreduced_table(random.Random(f"unreduced-powers/{ring!r}"), ring, n * n)
    u = GroupRingElement(n, 1, ring, table)
    expected = GroupRingElement.one(n, 1, ring).coeffs
    for k in range(5):
        # the table is reduced when u is made, so even u ** 1 comes back reduced
        assert (u**k).coeffs == expected
        expected = oracle_product(n, 2, ring, expected, table)


@pytest.mark.parametrize("n,arity", [(3, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_multiplication_matrix_rows_are_monomial_products(n, arity):
    rng = random.Random(f"rows/{n}/{arity}")
    ring = Zmod(n)
    a = GroupRingElement(n, arity - 1, ring, random_table(rng, ring, n**arity))
    matrix = multiplication_matrix(a)
    for k in range(n**arity):
        e_k = [0] * n**arity
        e_k[k] = 1
        monomial = GroupRingElement(n, arity - 1, ring, tuple(e_k))
        assert matrix.entries[k] == (monomial * a).coeffs
        assert matrix.entries[k] == oracle_product(n, arity, ring, e_k, a.coeffs)


def test_invert_rejects_exactly_the_augmentation_ideal():
    # exhaustive over the 27 elements of Z/3[e]/(e^3 - 1)
    ring = Zmod(3)
    one = GroupRingElement.one(3, 0).coeffs
    for table in itertools.product(range(3), repeat=3):
        u = GroupRingElement(3, 0, ring, table)
        if sum(table) % 3 == 0:
            with pytest.raises(NotAUnit):
                invert(u)
        else:
            assert oracle_product(3, 1, ring, table, invert(u).coeffs) == one


def test_invert_over_z2_where_the_scalar_exponent_is_zero():
    # q = n = 2 makes eps(u)^(q-2) an empty power: the scale is the one
    ring = Zmod(2)
    tables = list(itertools.product(range(2), repeat=4))
    one = GroupRingElement.one(2, 1).coeffs
    for table in tables:
        u = GroupRingElement(2, 1, ring, table)
        inverses = [v for v in tables if oracle_product(2, 2, ring, table, v) == one]
        if sum(table) % 2 == 0:
            assert inverses == []
            with pytest.raises(NotAUnit):
                invert(u)
        else:
            assert [invert(u).coeffs] == inverses


@pytest.mark.parametrize("n", (5, 7))
def test_invert_on_random_elements_of_prime_exponent(n):
    rng = random.Random(f"invert/{n}")
    ring = Zmod(n)
    one = GroupRingElement.one(n, 1).coeffs
    for _ in range(10):
        table = list(random_table(rng, ring, n * n))
        if rng.random() < 0.3:
            table[0] = (table[0] - sum(table)) % n
        u = GroupRingElement(n, 1, ring, tuple(table))
        if sum(table) % n == 0:
            with pytest.raises(NotAUnit):
                invert(u)
        else:
            assert oracle_product(n, 2, ring, table, invert(u).coeffs) == one


def test_an_unreduced_f27_table_is_the_same_unit():
    """A gamma element with one coordinate of one entry moved by 3 equals
    its reduced form, hashes alike and has the same inverse."""
    gamma = gamma_oracle_p3(1, 2)[0][1]
    inverse = invert(gamma)
    for k in range(3):
        for i in range(3):
            entry = list(gamma.coeffs[k])
            entry[i] += 3
            table = gamma.coeffs[:k] + (tuple(entry),) + gamma.coeffs[k + 1 :]
            u = GroupRingElement(3, 0, GF27, table)
            assert u == gamma and hash(u) == hash(gamma), (k, i)
            assert invert(u) == inverse


@pytest.mark.parametrize("arity", (1, 2, 3))
def test_unit_times_inverse_is_one_over_f27(arity):
    rng = random.Random(f"f27-invert/{arity}")
    one = GroupRingElement.one(3, arity - 1, GF27)
    for trial in range(5 if arity < 3 else 2):
        table = list(random_table(rng, GF27, 3**arity))
        rest = GF27.zero
        for c in table[1:]:
            rest = GF27.add(rest, c)
        if trial == 0:
            # augmentation zero: not a unit
            table[0] = GF27.sub(GF27.zero, rest)
            with pytest.raises(NotAUnit):
                invert(GroupRingElement(3, arity - 1, GF27, tuple(table)))
            continue
        if GF27.add(table[0], rest) == GF27.zero:
            table[0] = GF27.add(table[0], GF27.one)
        u = GroupRingElement(3, arity - 1, GF27, tuple(table))
        inverse = invert(u)
        assert u * inverse == one
        assert oracle_product(3, arity, GF27, table, inverse.coeffs) == one.coeffs


def test_cycle_detection_inverts_over_composite_moduli():
    rng = random.Random(4)
    for n in (4, 6, 9):
        ring = Zmod(n)
        one = GroupRingElement.one(n, 1).coeffs
        found = 0
        while found < 3:
            table = random_table(rng, ring, n * n)
            try:
                inverse = invert(GroupRingElement(n, 1, ring, table))
            except NotAUnit:
                continue
            found += 1
            assert oracle_product(n, 2, ring, table, inverse.coeffs) == one


@pytest.mark.parametrize("n,arity", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2)])
def test_product_rows_hold_one_nonzero_per_term(n, arity):
    rng = random.Random(f"product-rows/{n}/{arity}")
    ring = Zmod(n)
    for density in (0.0, 0.2, 1.0):
        table = [rng.randrange(1, n) if rng.random() < density else 0 for _ in range(n**arity)]
        b = GroupRingElement(n, arity - 1, ring, tuple(table))
        rows = _product_rows(b)
        assert len(rows) == n**arity
        for k, row in enumerate(rows):
            assert len(row) == len(b.support())
            assert 0 not in row.values()
            e_k = GroupRingElement(n, arity - 1, ring, tuple(int(i == k) for i in range(n**arity)))
            assert row == {j: c for j, c in enumerate((b * e_k).coeffs) if c}
