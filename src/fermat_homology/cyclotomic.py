"""Exact arithmetic in Z[zeta_p] and the multiplicative identities used to
pin down the splitting field of 1 - (1 - x^p)^p.

Elements are residues modulo the p-th cyclotomic polynomial, stored as
integer coefficient tuples of degree below p-1 with arbitrary precision.
Everything is verified by multiplication only: unit statements are
certified through norms, never through division.
"""

from __future__ import annotations

from operator import index

from ._value import frozen
from .errors import ModulusMismatch
from .scalars import _check_odd_prime


def _reduce(p: int, full: list[int]) -> tuple[int, ...]:
    """Canonical representative from exponent coefficients 0..p-1, using
    zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})."""
    top = full[p - 1]
    return tuple(full[k] - top for k in range(p - 1))


@frozen
class CyclotomicInt:
    """Element of Z[x]/(1 + x + ... + x^{p-1}) with integer coefficients."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        # the count first: trial division of a huge p would not return
        if len(self.coeffs) != self.p - 1:
            raise ValueError(f"expected {self.p - 1} coefficients")
        _check_odd_prime(self.p)
        object.__setattr__(self, "coeffs", tuple(map(index, self.coeffs)))

    @classmethod
    def integer(cls, p: int, c: int) -> "CyclotomicInt":
        return cls(p, (c,) + (0,) * (p - 2))

    @classmethod
    def one(cls, p: int) -> "CyclotomicInt":
        return cls.integer(p, 1)

    @classmethod
    def zeta(cls, p: int, k: int = 1) -> "CyclotomicInt":
        full = [0] * p
        full[k % p] = 1
        return cls(p, _reduce(p, full))

    def _check(self, other: "CyclotomicInt") -> None:
        if self.p != other.p:
            raise ModulusMismatch(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        return CyclotomicInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CyclotomicInt":
        return CyclotomicInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CyclotomicInt") -> "CyclotomicInt":
        self._check(other)
        p = self.p
        full = [0] * p
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        full[(i + j) % p] += a * b
        return CyclotomicInt(p, _reduce(p, full))

    def is_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])


def conjugate(a: CyclotomicInt, i: int) -> CyclotomicInt:
    """The automorphism zeta -> zeta^i applied to a; i must be prime to p."""
    p = a.p
    if i % p == 0:
        raise ValueError("conjugation index must be prime to p")
    full = [0] * p
    for k, c in enumerate(a.coeffs):
        full[(k * i) % p] += c
    return CyclotomicInt(p, _reduce(p, full))


def norm(a: CyclotomicInt) -> int:
    """Product of all conjugates; always a rational integer."""
    total = CyclotomicInt.one(a.p)
    for i in range(1, a.p):
        total = total * conjugate(a, i)
    if not total.is_integer():
        raise AssertionError("norm computation did not land in the integers")
    return total.coeffs[0]


@frozen
class IdentityReport:
    """Checks of the multiplicative identities among 1 - zeta^i."""

    p: int
    product_is_p: bool
    reflections: tuple[bool, ...]
    reflection_product_consistent: bool
    b_square: bool
    unit_norms: tuple[bool, ...]

    @property
    def all_pass(self) -> bool:
        return (
            self.product_is_p
            and all(self.reflections)
            and self.reflection_product_consistent
            and self.b_square
            and all(self.unit_norms)
        )

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "product_is_p": self.product_is_p,
            "reflections": list(self.reflections),
            "reflection_product_consistent": self.reflection_product_consistent,
            "b_square": self.b_square,
            "unit_norms": list(self.unit_norms),
            "all_pass": self.all_pass,
        }


MAX_P = 23


def verify_cyclotomic_identities(p: int) -> IdentityReport:
    """Verify, by multiplication only:

    (i)   the product of 1 - zeta^i over i = 1..p-1 equals p;
    (ii)  1 - zeta^i = -zeta^i (1 - zeta^{-i}) for each i;
    (iii) b^2 = (-1)^{(p-1)/2} zeta^{(p-1)(p+1)/8} p for b the product of
          1 - zeta^i over the first half of the exponents;
    (iv)  the half-range cyclotomic units have norm of absolute value one,
          certified by norm(zeta^{(1-a)/2} (1 - zeta^a)) = +-p.
    """
    if p > MAX_P:
        raise ValueError(f"p={p} exceeds the configured bound {MAX_P}")
    one = CyclotomicInt.one(p)
    p_elt = CyclotomicInt.integer(p, p)

    reflections = []
    product, rhs_prod = one, one
    for i in range(1, p):
        lhs = one - CyclotomicInt.zeta(p, i)
        rhs = -(CyclotomicInt.zeta(p, i) * (one - CyclotomicInt.zeta(p, -i)))
        reflections.append(lhs == rhs)
        product = product * lhs
        rhs_prod = rhs_prod * rhs
    product_ok = product == p_elt
    reflection_consistent = product == rhs_prod

    half = (p - 1) // 2
    b = one
    for i in range(1, half + 1):
        b = b * (one - CyclotomicInt.zeta(p, i))
    j8 = ((p - 1) * (p + 1) // 8) % p
    sign = -1 if half % 2 else 1
    rhs = CyclotomicInt.zeta(p, j8) * p_elt
    if sign < 0:
        rhs = -rhs
    b_square_ok = b * b == rhs

    half_inv = pow(2, p - 2, p)
    unit_norms = []
    for a in range(2, (p + 1) // 2):
        exponent = ((1 - a) * half_inv) % p
        value = norm(CyclotomicInt.zeta(p, exponent) * (one - CyclotomicInt.zeta(p, a)))
        unit_norms.append(abs(value) == p)

    return IdentityReport(
        p=p,
        product_is_p=product_ok,
        reflections=tuple(reflections),
        reflection_product_consistent=reflection_consistent,
        b_square=b_square_ok,
        unit_norms=tuple(unit_norms),
    )
