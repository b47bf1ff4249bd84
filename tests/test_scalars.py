"""Products in F_{p^k} against long division by the modulus."""

import itertools
import random

import pytest

from fermat_homology.scalars import GF27, PrimeExtensionField, Zmod
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
