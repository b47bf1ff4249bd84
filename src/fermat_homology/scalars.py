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
and an int c as the multiple c * 1 of the unit.
"""

from __future__ import annotations

import operator


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _power(x, k: int, mul, one):
    """x^k for k >= 0 by repeated squaring under ``mul``; k = 0 gives
    ``one``.  Field scalars, group-ring elements and sparse matrices all
    take their powers here."""
    result = one
    while k:
        if k & 1:
            result = mul(result, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return result


class Zmod:
    """The ring Z/n acting on plain integers; only ``reduce`` reduces."""

    add = operator.add
    sub = operator.sub
    mul = operator.mul

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError(f"modulus must be at least 2, got {n}")
        self.n = n
        self.zero = 0
        self.one = 1
        self.is_field = is_prime(n)
        self.char = n if self.is_field else None
        self.size = n

    def reduce(self, a: int) -> int:
        return operator.index(a) % self.n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Zmod) and other.n == self.n

    def __hash__(self) -> int:
        return hash(("Zmod", self.n))

    def __repr__(self) -> str:
        return f"Zmod({self.n})"


class PrimeExtensionField:
    """F_{p^k} as F_p[t] modulo a fixed monic irreducible polynomial.

    ``modulus`` lists the coefficients of the monic modulus from the
    constant term up, so ``(2, 2, 0, 1)`` over p=3 is t^3 - t - 1.
    Elements are length-k tuples of residues, low degree first.
    """

    def __init__(self, p: int, modulus: tuple[int, ...]) -> None:
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if modulus[-1] % p != 1:
            raise ValueError("modulus must be monic")
        self.p = p
        self.degree = len(modulus) - 1
        self.modulus = tuple(c % p for c in modulus)
        self.zero = (0,) * self.degree
        self.one = (1,) + (0,) * (self.degree - 1)
        self.is_field = True
        self.char = p
        self.size = p ** self.degree

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        k, p, modulus = self.degree, self.p, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        # c t^d = c t^(d-k) (t^k - f) modulo the modulus f, from the top down
        for d in range(2 * k - 2, k - 1, -1):
            c = prod[d] % p
            if c:
                for i in range(k):
                    prod[d - k + i] -= c * modulus[i]
        return tuple(c % p for c in prod[:k])

    def reduce(self, a):
        """The canonical form of a coefficient tuple, or of the int a * 1."""
        if isinstance(a, int):
            return (a % self.p,) + self.zero[1:]
        return tuple(operator.index(x) % self.p for x in a)

    def to_prime_int(self, a):
        """The prime-field value of a reduced ``a``, or None if a is not in F_p."""
        return None if any(a[1:]) else a[0]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrimeExtensionField)
            and other.p == self.p
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("PrimeExtensionField", self.p, self.modulus))

    def __repr__(self) -> str:
        return f"PrimeExtensionField(p={self.p}, modulus={self.modulus})"


# F_27 = F_3[t]/(t^3 - t - 1), large enough to split x^3 - x + c for c in F_3.
GF27 = PrimeExtensionField(3, (2, 2, 0, 1))
