"""Products in F_{p^k} against long division by the modulus."""

import functools
import itertools
import operator
import random

import pytest

from fermat_homology import fp_linalg
from fermat_homology.group_ring import GroupRingElement
from fermat_homology.scalars import GF27, PrimeExtensionField, Zmod, _power
from oracles import long_division_product

# Irreducible moduli; the last two have a nonzero t^(k-1) term, so folding
# the top degree feeds the next one down and the order of the folds matters.
FIELDS = {
    "F_5^5": PrimeExtensionField(5, (4, 4, 0, 0, 0, 1)),  # t^5 - t - 1
    "F_2^4": PrimeExtensionField(2, (1, 0, 0, 1, 1)),  # t^4 + t^3 + 1
    "F_7^2": PrimeExtensionField(7, (3, 1, 1)),  # t^2 + t + 3
}


def test_zmod_computes_on_integers_and_reduces_once():
    """add, sub and mul return a representative; reduce the canonical one."""
    ring = Zmod(5)
    assert (ring.add(3, 4), ring.sub(3, 4), ring.mul(3, 4)) == (7, -1, 12)
    assert [ring.reduce(c) for c in (7, -1, 12, 5, True)] == [2, 4, 2, 0, 1]
    for bad in (0.5, 2.0, "2"):
        with pytest.raises(TypeError):
            ring.reduce(bad)


@pytest.mark.parametrize("name", ["GF27", *sorted(FIELDS)])
def test_reduce_reads_ints_as_multiples_of_one_and_tuples_coordinatewise(name):
    field = FIELDS.get(name, GF27)
    p, k = field.p, field.degree
    for c in range(-2 * p, 2 * p + 1):
        assert field.reduce(c) == (c % p,) + (0,) * (k - 1), c
    rng = random.Random(f"reduce/{name}")
    for _ in range(200):
        a = tuple(rng.randrange(-2 * p, 2 * p + 1) for _ in range(k))
        assert field.reduce(a) == tuple(x % p for x in a), a


def test_every_product_in_f27_matches_long_division():
    elements = list(itertools.product(range(3), repeat=3))
    for a, b in itertools.product(elements, repeat=2):
        assert GF27.mul(a, b) == long_division_product(3, GF27.modulus, a, b), (a, b)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_random_products_match_long_division(name):
    field = FIELDS[name]
    p, k = field.p, field.degree
    rng = random.Random(f"fq/{name}")
    for trial in range(2000):
        # every fourth pair has unreduced coefficients, as group-ring tables may
        low, high = (-p, 2 * p) if trial % 4 == 0 else (0, p)
        a, b = (tuple(rng.randrange(low, high) for _ in range(k)) for _ in range(2))
        assert field.mul(a, b) == long_division_product(p, field.modulus, a, b), (a, b)


@pytest.mark.parametrize(
    "p, modulus, message",
    [
        (3, (), "modulus must have degree at least 1, got ()"),
        (3, (1,), "modulus must have degree at least 1, got (1,)"),
        # t^3: t * t^2 would be 0
        (3, (0, 0, 0, 1), "modulus (0, 0, 0, 1) is reducible over F_3"),
        (3, (1, 0, 0, 1), "modulus (1, 0, 0, 1) is reducible over F_3"),  # (t + 1)^3
        (2, (1, 0, 1), "modulus (1, 0, 1) is reducible over F_2"),  # (t + 1)^2
        # (t^2 + 2)(t^2 + 3): no root, so only a quadratic factor shows it
        (5, (1, 0, 0, 0, 1), "modulus (1, 0, 0, 0, 1) is reducible over F_5"),
    ],
)
def test_the_modulus_must_be_irreducible_of_degree_at_least_one(p, modulus, message):
    with pytest.raises(ValueError) as info:
        PrimeExtensionField(p, modulus)
    assert str(info.value) == message


@pytest.mark.parametrize("a", [(1, 2), (1, 2, 0, 1)])
def test_reduce_rejects_a_tuple_of_the_wrong_length(a):
    with pytest.raises(ValueError, match=f"^expected 3 coordinates, got {len(a)}$"):
        GF27.reduce(a)
    with pytest.raises(ValueError, match=f"^expected 3 coordinates, got {len(a)}$"):
        GroupRingElement(3, 0, GF27, (a, GF27.zero, GF27.zero))



@pytest.mark.parametrize("b", [(1, 2), (1, 2, 0, 1)])
def test_add_and_sub_reject_operands_of_different_lengths(b):
    """Zipped without a check, (1, 2, 0) + (1, 2) would be cut short to (2, 1)."""
    for op in (GF27.add, GF27.sub):
        with pytest.raises(ValueError):
            op((1, 2, 0), b)
        with pytest.raises(ValueError):
            op(b, (1, 2, 0))


def test_elements_over_z_mod_n_share_one_ring():
    elements = [GroupRingElement.monomial(7, 1, (i, 0)) for i in range(7)]
    assert all(a.ring is elements[0].ring for a in elements)
    assert GroupRingElement.one(7, 0).ring == Zmod(7)
    with pytest.raises(TypeError):
        GroupRingElement.one(7.0, 0)


def power_cases():
    """(x, mul, one) for an int, a group-ring element and sparse matrix rows."""
    rng = random.Random("powers")
    u = GroupRingElement(5, 1, Zmod(5), tuple(rng.randrange(5) for _ in range(25)))
    rows = fp_linalg._sparse(5, [[rng.randrange(5) for _ in range(4)] for _ in range(4)])
    return [
        (3, operator.mul, 1),
        (u, operator.mul, GroupRingElement.one(5, 1)),
        (rows, functools.partial(fp_linalg._matmul, 5), [{i: 1} for i in range(4)]),
    ]


@pytest.mark.parametrize("k", range(18))
def test_power_squares_once_per_bit_and_never_multiplies_by_one(k):
    for x, mul, one in power_cases():
        calls = {"square": 0, "other": 0}

        def counted(a, b):
            assert a is not one and b is not one
            calls["square" if a is b else "other"] += 1
            return mul(a, b)

        assert _power(x, k, counted, one) == functools.reduce(mul, [x] * k, one)
        squares, others = k.bit_length() - 1, bin(k).count("1") - 1
        assert calls == {"square": max(squares, 0), "other": max(others, 0)}
