"""Coefficient domains for group-ring arithmetic.

Two domains are supported: the residue ring Z/n (elements are plain ints)
and a prime-power extension field F_{p^k} given by a fixed monic
irreducible modulus (elements are coefficient tuples of length k, low
degree first).  Both expose the same four operations, ``add``, ``sub``,
``mul`` and ``reduce``, with ``zero``, ``one``, ``is_field``, ``char`` and
``size``, so the group ring can stay agnostic about which one it is
working over.  ``add``, ``sub`` and ``mul`` return *a* representative:
over Z/n they are the integer operations, so ``Zmod(5).mul(3, 4)`` is 12.
Only ``reduce`` promises the canonical form that elements compare in; it
reads integers through ``operator.index`` (a float raises ``TypeError``)
and an int c as the multiple c * 1 of the unit.  Both rings are ``frozen``
records, and each constructor checks its modulus.
"""

from __future__ import annotations

import functools
import itertools
import operator

from ._value import frozen


def is_prime(n: int) -> bool:
    n = operator.index(n)  # a float such as 3.0 raises TypeError
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_odd_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")


def _power(x, k: int, mul, one):
    """x^k for k >= 0 by repeated squaring under ``mul``; k = 0 gives
    ``one``.  Field scalars, group-ring elements and sparse matrices all
    take their powers here.  The result starts at the power of x for k's
    lowest set bit, so ``one`` is never multiplied in: bit_length(k) - 1
    squarings and popcount(k) - 1 other products."""
    if not k:
        return one
    while not k & 1:
        x = mul(x, x)
        k >>= 1
    result = x
    while k := k >> 1:
        x = mul(x, x)
        if k & 1:
            result = mul(result, x)
    return result


@frozen
class Zmod:
    """The ring Z/n acting on plain integers; only ``reduce`` reduces."""

    n: int

    add = operator.add
    sub = operator.sub
    mul = operator.mul
    zero = 0
    one = 1

    def __post_init__(self) -> None:
        n = self.n
        is_field = is_prime(n)  # reads n through operator.index
        if n < 2:
            raise ValueError(f"modulus must be at least 2, got {n}")
        object.__setattr__(self, "is_field", is_field)
        object.__setattr__(self, "char", n if is_field else None)
        object.__setattr__(self, "size", n)

    def reduce(self, a: int) -> int:
        return operator.index(a) % self.n


@functools.lru_cache(maxsize=None, typed=True)
def _zmod(n: int) -> Zmod:
    """The one ``Zmod(n)`` of the package; typed, so 3.0 is not read as 3
    and still raises."""
    return Zmod(n)


@frozen
class PrimeExtensionField:
    """F_{p^k} as F_p[t] modulo a fixed monic irreducible polynomial.

    ``modulus`` lists the coefficients of the monic modulus from the
    constant term up, so ``(2, 2, 0, 1)`` over p=3 is t^3 - t - 1.
    Elements are length-k tuples of residues, low degree first.  A modulus
    of degree k < 1, or with a monic factor of degree 1 to k // 2 (found
    by trial division), is rejected.
    """

    p: int
    modulus: tuple[int, ...]

    is_field = True

    def __post_init__(self) -> None:
        p = self.p
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        modulus = tuple(operator.index(c) % p for c in self.modulus)
        k = len(modulus) - 1
        if k < 1:
            raise ValueError(f"modulus must have degree at least 1, got {self.modulus}")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        for d in range(1, k // 2 + 1):
            for low in itertools.product(range(p), repeat=d):
                if not any(_remainder(p, modulus, low + (1,))):
                    raise ValueError(f"modulus {self.modulus} is reducible over F_{p}")
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "degree", k)
        object.__setattr__(self, "zero", (0,) * k)
        object.__setattr__(self, "one", (1,) + (0,) * (k - 1))
        object.__setattr__(self, "char", p)
        object.__setattr__(self, "size", p**k)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b, strict=True))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b, strict=True))

    def mul(self, a, b):
        prod = [0] * (2 * self.degree - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _remainder(self.p, prod, self.modulus)

    def reduce(self, a):
        """The canonical form of a coefficient tuple of length k, or of the
        int a * 1."""
        if isinstance(a, int):
            return (a % self.p,) + self.zero[1:]
        if len(a) != self.degree:
            raise ValueError(f"expected {self.degree} coordinates, got {len(a)}")
        return tuple(operator.index(x) % self.p for x in a)

    def to_prime_int(self, a):
        """The prime-field value of a reduced ``a``, or None if a is not in F_p."""
        return None if any(a[1:]) else a[0]


def _remainder(p: int, f, g) -> tuple[int, ...]:
    """f mod the monic g over F_p, both low degree first.  Each top term
    c t^d = c t^(d-k) (t^k - g) modulo g, from the top down."""
    r = list(f)
    k = len(g) - 1
    for d in range(len(r) - 1, k - 1, -1):
        c = r[d] % p
        if c:
            for i in range(k):
                r[d - k + i] -= c * g[i]
    return tuple(c % p for c in r[:k])


# F_27 = F_3[t]/(t^3 - t - 1), large enough to split x^3 - x + c for c in F_3.
GF27 = PrimeExtensionField(3, (2, 2, 0, 1))
