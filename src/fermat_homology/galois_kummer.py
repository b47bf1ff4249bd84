"""Coordinates on Gal(L/K) for L the splitting field of 1 - (1 - x^p)^p.

A group element is identified by its Kummer exponents along the basis
zeta, 1 - zeta^{-1}, ..., 1 - zeta^{-(p-1)/2} of the Kummer subgroup, and
the linear map below converts those coordinates into the vector of
exponents kappa(1 - zeta^{-i}) for i = 1, ..., p-1.  No number-field
arithmetic happens here: the coordinate model presumes the Kummer
generators are independent, which holds whenever p does not divide the
plus-part class number.
"""

from __future__ import annotations

import itertools
from operator import index

from ._value import frozen
from .scalars import is_prime


@frozen
class KummerCoordinates:
    """Element of Gal(L/K) as a tuple (c_0, ..., c_{(p-1)/2}) mod p."""

    p: int
    c: tuple[int, ...]

    def __post_init__(self):
        # the count first: trial division of a huge p would not return
        if self.p > 2 and len(self.c) != (self.p + 1) // 2:
            raise ValueError(
                f"expected {(self.p + 1) // 2} coordinates, got {len(self.c)}"
            )
        if not is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        object.__setattr__(self, "c", tuple(index(x) % self.p for x in self.c))

    def __add__(self, other: "KummerCoordinates") -> "KummerCoordinates":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        return KummerCoordinates(self.p, tuple(a + b for a, b in zip(self.c, other.c)))

    def to_json(self) -> dict:
        return {"p": self.p, "c": list(self.c)}

    @classmethod
    def from_json(cls, data: dict) -> "KummerCoordinates":
        return cls(data["p"], tuple(data["c"]))


@frozen
class PsiVector:
    """The p-1 coefficients (c_1, ..., c_{p-1}) of a class in the
    differential module modulo the constant line."""

    p: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} entries, got {len(self.entries)}")
        object.__setattr__(self, "entries", tuple(index(x) % self.p for x in self.entries))

    def __add__(self, other: "PsiVector") -> "PsiVector":
        if self.p != other.p:
            raise ValueError("mismatched primes")
        return PsiVector(self.p, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def to_json(self) -> dict:
        return {"p": self.p, "entries": list(self.entries)}


def psi_from_kummer(k: KummerCoordinates) -> PsiVector:
    """(c_0, ..., c_{(p-1)/2}) -> (c_1, ..., c_{(p-1)/2}, c_{(p-1)/2} +
    ((p-1)/2) c_0, ..., c_2 + 2 c_0, c_1 + c_0).

    Entry i is kappa(1 - zeta^{-i}); for i past the halfway point it is
    c_{p-i} + (p-i) c_0 because kappa(1-zeta^{-i}) = kappa(1-zeta^{i}) - i c_0.
    """
    p = k.p
    half = (p - 1) // 2
    entries = [k.c[i] for i in range(1, half + 1)]
    for i in range(half + 1, p):
        entries.append(k.c[p - i] + (p - i) * k.c[0])
    return PsiVector(p, tuple(entries))


def coordinate_sum(psi: PsiVector) -> int:
    """Sum of the entries mod p; the Kummer exponent of p itself."""
    return sum(psi.entries) % psi.p


def group_elements(p: int) -> list[KummerCoordinates]:
    """All p**((p+1)/2) coordinate tuples in lexicographic order."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    width = (p + 1) // 2
    return [
        KummerCoordinates(p, tup)
        for tup in itertools.product(range(p), repeat=width)
    ]
