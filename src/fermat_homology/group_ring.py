"""Arithmetic in the group ring of (Z/n)^(m+1) and its differential module.

An element of Lambda_m = A[e_0, ..., e_m] / (e_0^n - 1, ..., e_m^n - 1) is
stored as a dense coefficient table indexed by packed exponent tuples
(big-endian: the exponent of e_0 varies slowest).  Coefficients live in
Z/n by default; a prime-power extension field can be supplied instead,
which is how the gamma-element computations work at finite precision
inside an algebraic closure of Z/p.  The table is reduced entry by entry
(``ring.reduce``) when an element is made, and only then: the operations
below hand the constructor the raw sums and products of ``ring.add`` and
``ring.mul`` (plain integers over Z/n), so each cell is reduced once and
each value has one table.  Equality, hashing and the zero tests compare
entries with ``ring.zero``.

A monomial permutes the monomial basis, so multiplying by e^s rotates the
table: along each axis k, every block of n runs of length n^(m-k) turns by
s_k runs.  A product is the sum of such rotations of one factor, scaled by
the coefficients of the other, and the matrix of x -> a*x has the
rotations of a as its rows.  Over a field of characteristic n = p the
Frobenius map gives u^p = eps(u)^p for the augmentation eps, so u is a unit
exactly when eps(u) != 0, with inverse eps(u)^(-p) u^(p-1).

Beyond ring arithmetic this module provides the coboundary-style maps
d_prime : Lambda_0^x -> (Lambda_1^x)^w and d_prime_prime into Lambda_2^x,
the swap involution w, the augmentation, and the logarithmic derivative
dlog into the free module of differentials on the generators dlog e_i.
"""

from __future__ import annotations

import operator
from itertools import product

from ._value import frozen
from .errors import ArityMismatch, NotAUnit, NotSymmetric
from .fp_linalg import FpMatrix, kernel_basis, row_space_basis
from .scalars import Zmod, _power, _zmod


def _pack(n: int, exps: tuple[int, ...]) -> int:
    idx = 0
    for e in exps:
        idx = idx * n + (e % n)
    return idx


def _size(n: int, m: int) -> int:
    """n^(m+1), the length of a table of Lambda_m; m < 0 has no table."""
    if m < 0:
        raise ArityMismatch(f"m must be at least 0, got {m}")
    return n ** (m + 1)


def _shift(coeffs, n: int, exps) -> tuple:
    """The table of e^exps * a, given the table of a: one rotation per axis."""
    size = block = len(coeffs)
    for s in exps:
        run = block // n
        cut = block - (s % n) * run
        if cut < block:
            out = []
            for start in range(0, size, block):
                out += coeffs[start + cut : start + block]
                out += coeffs[start : start + cut]
            coeffs = out
        block = run
    return tuple(coeffs)


@frozen
class GroupRingElement:
    """Element of Lambda_m over Z/n (or an extension field of Z/p)."""

    n: int
    m: int
    ring: object
    coeffs: tuple

    def __post_init__(self):
        size = _size(self.n, self.m)
        if len(self.coeffs) != size:
            raise ArityMismatch(f"expected {size} coefficients, got {len(self.coeffs)}")
        object.__setattr__(self, "coeffs", tuple(map(self.ring.reduce, self.coeffs)))

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int, m: int, ring=None) -> "GroupRingElement":
        return cls.from_dict(n, m, {}, ring=ring)

    @classmethod
    def one(cls, n: int, m: int, ring=None) -> "GroupRingElement":
        return cls.monomial(n, m, (0,) * (m + 1), ring=ring)

    @classmethod
    def monomial(cls, n, m, exps, ring=None) -> "GroupRingElement":
        return cls.from_dict(n, m, {tuple(exps): 1}, ring=ring)

    @classmethod
    def from_dict(cls, n, m, coeffs, ring=None) -> "GroupRingElement":
        ring = ring if ring is not None else _zmod(n)
        table = [ring.zero] * _size(n, m)
        for exps, c in coeffs.items():
            if len(exps) != m + 1:
                raise ArityMismatch(f"expected {m + 1} exponents, got {len(exps)}")
            idx = _pack(n, tuple(exps))
            table[idx] = ring.add(table[idx], ring.reduce(c))
        return cls(n, m, ring, tuple(table))

    @classmethod
    def from_grid(cls, n, rows) -> "GroupRingElement":
        """Two-variable element over Z/n from an n x n table; rows index e_0 powers."""
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ArityMismatch(f"expected {n} rows of {n} coefficients")
        return cls.from_dict(n, 1, {(i, j): rows[i][j] for i in range(n) for j in range(n)})

    # -- basic structure ----------------------------------------------

    def grid(self) -> list[list]:
        if self.m != 1:
            raise ArityMismatch("grids are defined for two-variable elements")
        n = self.n
        return [list(self.coeffs[i * n : (i + 1) * n]) for i in range(n)]

    def support(self):
        zero = self.ring.zero
        exps = product(range(self.n), repeat=self.m + 1)
        return [(e, c) for e, c in zip(exps, self.coeffs) if c != zero]

    def is_zero(self) -> bool:
        return self.coeffs.count(self.ring.zero) == len(self.coeffs)

    def _check_compatible(self, other: "GroupRingElement") -> None:
        if (self.n, self.m, self.ring) != (other.n, other.m, other.ring):
            a, b = (f"n={x.n}, m={x.m}" for x in (self, other))
            if self.ring != other.ring:
                a, b = f"{a}, ring={self.ring!r}", f"{b}, ring={other.ring!r}"
            raise ArityMismatch(f"incompatible elements: ({a}) vs ({b})")

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        ring = self.ring
        return GroupRingElement(
            self.n,
            self.m,
            ring,
            tuple(ring.add(a, b) for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        return self + -other

    def __neg__(self) -> "GroupRingElement":
        return self.scale(-1)

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        self._check_compatible(other)
        n, ring = self.n, self.ring
        add, mul = ring.add, ring.mul
        out = None
        for exps, c in self.support():
            turned = _shift(other.coeffs, n, exps)
            if out is None:
                out = [mul(c, y) for y in turned]
            else:
                out = [add(x, mul(c, y)) for x, y in zip(out, turned)]
        if out is None:
            out = [ring.zero] * len(other.coeffs)
        return GroupRingElement(n, self.m, ring, tuple(out))

    def scale(self, c) -> "GroupRingElement":
        ring = self.ring
        value = ring.reduce(c)
        return GroupRingElement(
            self.n, self.m, ring, tuple(ring.mul(value, a) for a in self.coeffs)
        )

    def __pow__(self, k: int) -> "GroupRingElement":
        if k < 0:
            raise ValueError("negative powers go through invert()")
        return _power(self, k, operator.mul, GroupRingElement.one(self.n, self.m, self.ring))

    # -- structural maps ----------------------------------------------

    def substitute(self, new_m: int, targets) -> "GroupRingElement":
        """Re-index variables: old variable k maps to the product of the
        new variables listed in targets[k]."""
        if len(targets) != self.m + 1:
            raise ArityMismatch("one target list per variable is required")
        if not all(0 <= v <= new_m for target in targets for v in target):
            raise ArityMismatch(f"targets must be variables 0..{new_m}, got {targets}")
        n = self.n
        ring = self.ring
        out = [ring.zero] * _size(n, new_m)
        for exps, c in zip(product(range(n), repeat=self.m + 1), self.coeffs):
            if c == ring.zero:
                continue
            new_exps = [0] * (new_m + 1)
            for k, e in enumerate(exps):
                for v in targets[k]:
                    new_exps[v] = (new_exps[v] + e) % n
            idx = _pack(n, tuple(new_exps))
            out[idx] = ring.add(out[idx], c)
        return GroupRingElement(n, new_m, ring, tuple(out))

    def derivative(self, k: int) -> "GroupRingElement":
        """Coefficient of dlog e_k in the canonical derivation d."""
        if not 0 <= k <= self.m:
            raise ArityMismatch(f"k must be a variable 0..{self.m}, got {k}")
        ring = self.ring
        out = [
            ring.mul(ring.reduce(exps[k]), c)
            for exps, c in zip(product(range(self.n), repeat=self.m + 1), self.coeffs)
        ]
        return GroupRingElement(self.n, self.m, ring, tuple(out))

    def is_symmetric(self) -> bool:
        return self.m == 1 and self == swap_w(self)

    # -- serialization -------------------------------------------------

    def to_json(self) -> dict:
        if not isinstance(self.ring, Zmod):
            raise TypeError("JSON serialization targets Z/n coefficients")
        coeffs = {}
        for exps, c in self.support():
            key = "(" + ",".join(str(e) for e in exps) + ")"
            coeffs[key] = c
        return {"n": self.n, "m": self.m, "coeffs": coeffs}

    @classmethod
    def from_json(cls, data: dict) -> "GroupRingElement":
        coeffs = {}
        for key, c in data["coeffs"].items():
            exps = tuple(int(part) for part in key.strip("()").split(",") if part != "")
            coeffs[exps] = c
        return cls.from_dict(data["n"], data["m"], coeffs)


@frozen
class DifferentialElement:
    """Element of the free Lambda_m-module on dlog e_0, ..., dlog e_m."""

    n: int
    m: int
    ring: object
    components: tuple[GroupRingElement, ...]

    def __post_init__(self):
        if len(self.components) != self.m + 1:
            raise ArityMismatch("one component per generator dlog e_i is required")

    def __add__(self, other: "DifferentialElement") -> "DifferentialElement":
        return DifferentialElement(
            self.n,
            self.m,
            self.ring,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)


# -- public operations ------------------------------------------------


def augmentation(a: GroupRingElement):
    """Sum of all coefficients, reduced: a homomorphism onto the base ring."""
    total = a.ring.zero
    for c in a.coeffs:
        total = a.ring.add(total, c)
    return a.ring.reduce(total)


def swap_w(a: GroupRingElement) -> GroupRingElement:
    """The involution swapping the two variables of Lambda_1."""
    if a.m != 1:
        raise ArityMismatch("swap is defined on two-variable elements")
    return a.substitute(1, ((1,), (0,)))


def invert(u: GroupRingElement) -> GroupRingElement:
    """Multiplicative inverse; raises NotAUnit when none exists.

    Over a field of q elements and characteristic n, u^n = eps(u)^n: u is a
    unit exactly when eps(u) != 0, and then u^(-1) = eps(u)^(-n) u^(n-1),
    with eps(u)^(-1) = eps(u)^(q-2).  Over any other coefficient ring units
    still have finite order, so the inverse is the power preceding the first
    return to 1, and cycle detection rejects non-units.
    """
    ring, n = u.ring, u.n
    if ring.is_field and ring.char == n:
        eps = augmentation(u)
        if eps == ring.zero:
            raise NotAUnit("element is not invertible")
        return (u ** (n - 1)).scale(_power(eps, n * (ring.size - 2), ring.mul, ring.one))
    one = GroupRingElement.one(n, u.m, ring)
    seen = set()
    prev, cur = one, u
    while True:
        if cur == one:
            return prev
        if cur.coeffs in seen:
            raise NotAUnit("element is not invertible")
        seen.add(cur.coeffs)
        prev, cur = cur, cur * u


def d_prime(g: GroupRingElement) -> GroupRingElement:
    """g(e_0) g(e_1) / g(e_0 e_1), landing in the symmetric units of Lambda_1."""
    if g.m != 0:
        raise ArityMismatch("d_prime takes a one-variable element")
    a = g.substitute(1, ((0,),))
    b = g.substitute(1, ((1,),))
    c = g.substitute(1, ((0, 1),))
    return a * b * invert(c)


def d_prime_prime(f: GroupRingElement) -> GroupRingElement:
    """F(e_1, e_0 e_2) F(e_0, e_2) / (F(e_0, e_1 e_2) F(e_1, e_2))."""
    if f.m != 1:
        raise ArityMismatch("d_prime_prime takes a two-variable element")
    if not f.is_symmetric():
        raise NotSymmetric("d_prime_prime is defined on symmetric units")
    t1 = f.substitute(2, ((1,), (0, 2)))
    t2 = f.substitute(2, ((0,), (2,)))
    t3 = f.substitute(2, ((0,), (1, 2)))
    t4 = f.substitute(2, ((1,), (2,)))
    return t1 * t2 * invert(t3 * t4)


def dlog(u: GroupRingElement) -> DifferentialElement:
    """Logarithmic derivative u^{-1} du of a unit."""
    inv = invert(u)
    components = tuple(inv * u.derivative(k) for k in range(u.m + 1))
    return DifferentialElement(u.n, u.m, u.ring, components)


def multiplication_matrix(a: GroupRingElement) -> FpMatrix:
    """Matrix of x -> a*x in the monomial basis, rows holding images.

    Requires prime n with plain Z/n coefficients so the result is a matrix
    over a field.
    """
    if not isinstance(a.ring, Zmod) or not a.ring.is_field:
        raise ValueError("multiplication matrices require prime-field coefficients")
    rows = [_shift(a.coeffs, a.n, exps) for exps in product(range(a.n), repeat=a.m + 1)]
    return FpMatrix.from_rows(a.n, rows)


def annihilator(h: GroupRingElement) -> list[tuple[int, ...]]:
    """Basis of {x : h*x = 0} inside the group ring, for prime n: the left
    kernel of the multiplication matrix."""
    return kernel_basis(multiplication_matrix(h))


def ideal_span(generators: list[GroupRingElement]) -> list[tuple[int, ...]]:
    """Canonical basis of the ideal generated by the given elements.

    Raises ArityMismatch unless all generators share one exponent, arity
    and ring.
    """
    if not generators:
        return []
    rows = []
    for g in generators:
        generators[0]._check_compatible(g)
        rows.extend(multiplication_matrix(g).entries)
    return row_space_basis(generators[0].n, rows)
