"""Exact linear algebra over a prime field Z/p.

Matrices are immutable row-major tables of residues.  Canonical bases are
produced by reduced row echelon form with pivots ordered left to right, so
every computation is deterministic across runs.  Elimination and products
touch only the nonzero entries of a row, so the sparse matrices of the
cohomology complexes stay cheap.  Elimination expects entries already
reduced into [0, p).  ``solve_many`` answers a batch of right-hand sides
with one elimination of the augmented matrix.  Maps written as matrices
follow the row convention used throughout the package: row k of a matrix
holds the coordinates of the image of the k-th basis vector, and vectors
act on the left (v -> v @ M).  The kernel/image helpers below are plain
column-convention linear algebra ({v : Mv = 0}, column span); callers that
work with row-acting maps pass the transpose.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ContainmentViolation, NotSquare
from .scalars import is_prime

Vector = tuple[int, ...]


@dataclass(frozen=True)
class FpMatrix:
    """Dense matrix over Z/p with every entry reduced into [0, p)."""

    p: int
    rows: int
    cols: int
    entries: tuple[Vector, ...]

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        table = tuple(tuple([int(x) % p for x in row]) for row in rows)
        nrows = len(table)
        ncols = len(table[0]) if nrows else 0
        if any(len(row) != ncols for row in table):
            raise ValueError("ragged rows")
        return cls(p, nrows, ncols, table)

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls.from_rows(p, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls.from_rows(p, [[0] * cols for _ in range(rows)])

    def transpose(self) -> "FpMatrix":
        rows = [
            [self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)
        ]
        return FpMatrix(self.p, self.cols, self.rows, tuple(tuple(r) for r in rows))

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        p = self.p
        cols = other.cols
        supports = [[(j, x) for j, x in enumerate(row) if x] for row in other.entries]
        out = []
        for row in self.entries:
            acc = [0] * cols
            for a, support in zip(row, supports):
                if a:
                    for j, x in support:
                        acc[j] += a * x
            out.append(tuple([x % p for x in acc]))
        return FpMatrix(p, self.rows, cols, tuple(out))

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        if (self.p, self.rows, self.cols) != (other.p, other.rows, other.cols):
            raise ValueError("incompatible shapes for matrix sum")
        p = self.p
        entries = tuple(
            tuple([(a + b) % p for a, b in zip(ra, rb)])
            for ra, rb in zip(self.entries, other.entries)
        )
        return FpMatrix(p, self.rows, self.cols, entries)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        return self + other.scale(-1)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix.from_rows(self.p, [[c * x for x in row] for row in self.entries])

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def apply_row(self, v: Vector) -> Vector:
        """v @ M for a row vector v (the row-convention action)."""
        if len(v) != self.rows:
            raise ValueError("vector length does not match row count")
        p = self.p
        acc = [0] * self.cols
        for k, a in enumerate(v):
            if a % p:
                row = self.entries[k]
                for j in range(self.cols):
                    acc[j] += a * row[j]
        return tuple(x % p for x in acc)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(row) for row in self.entries],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FpMatrix":
        m = cls.from_rows(data["p"], data["entries"])
        if (m.rows, m.cols) != (data["rows"], data["cols"]):
            raise ValueError("entry table does not match declared shape")
        return m


def _rref(p: int, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns).

    Entries must already lie in [0, p).  Each elimination step updates only
    the columns where the normalized pivot row is nonzero.
    """
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        sel = -1
        for i in range(r, nrows):
            if rows[i][col]:
                sel = i
                break
        if sel < 0:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        inv = pow(prow[col], p - 2, p)
        if inv != 1:
            prow = rows[r] = [(x * inv) % p for x in prow]
        support = [(j, x) for j, x in enumerate(prow) if x]
        for i in range(nrows):
            row = rows[i]
            c = row[col]
            if c and i != r:
                for j, x in support:
                    row[j] = (row[j] - c * x) % p
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def row_space_basis(p: int, vectors) -> list[Vector]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    rows = [[x % p for x in v] for v in vectors]
    if not rows:
        return []
    reduced, pivots = _rref(p, rows)
    return [tuple(reduced[i]) for i in range(len(pivots))]


def reduce_vector(p: int, v: Vector, basis: list[Vector], pivots: list[int]) -> Vector:
    """Reduce v against an RREF basis; zero iff v lies in the span."""
    out = [x % p for x in v]
    for row, col in zip(basis, pivots):
        c = out[col]
        if c:
            out = [(x - c * y) % p for x, y in zip(out, row)]
    return tuple(out)


def pivot_columns(basis: list[Vector]) -> list[int]:
    pivots = []
    for row in basis:
        for j, x in enumerate(row):
            if x:
                pivots.append(j)
                break
    return pivots


def rank(m: FpMatrix) -> int:
    return len(row_space_basis(m.p, m.entries))


def kernel_basis(m: FpMatrix) -> list[Vector]:
    """Canonical basis of {v : M v = 0} (column convention)."""
    p = m.p
    rows = [list(r) for r in m.entries]
    if not rows:
        return [tuple(1 if i == j else 0 for j in range(m.cols)) for i in range(m.cols)]
    reduced, pivots = _rref(p, rows)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vectors = []
    for f in free_cols:
        v = [0] * m.cols
        v[f] = 1
        for i, col in enumerate(pivots):
            v[col] = (-reduced[i][f]) % p
        vectors.append(v)
    return row_space_basis(p, vectors)


def image_basis(m: FpMatrix) -> list[Vector]:
    """Canonical basis of the column span of M."""
    return row_space_basis(m.p, zip(*m.entries)) if m.rows else []


def solve_many(m: FpMatrix, bs) -> list[Vector | None]:
    """For each b in ``bs``, one solution x of M x = b, or None when that
    system is inconsistent.

    One elimination of [M | b_1 ... b_k] serves every right-hand side.  Free
    coordinates are set to zero, which makes the answers deterministic.
    """
    p = m.p
    bs = [[int(x) % p for x in b] for b in bs]
    if any(len(b) != m.rows for b in bs):
        raise ValueError("right-hand side length does not match row count")
    if not m.rows:
        return [() for _ in bs]
    rows = [list(r) + [b[i] for b in bs] for i, r in enumerate(m.entries)]
    reduced, pivots = _rref(p, rows)
    rank = sum(1 for col in pivots if col < m.cols)
    out: list[Vector | None] = []
    for col in range(m.cols, m.cols + len(bs)):
        if any(reduced[i][col] for i in range(rank, m.rows)):
            out.append(None)
            continue
        x = [0] * m.cols
        for i in range(rank):
            x[pivots[i]] = reduced[i][col]
        out.append(tuple(x))
    return out


def solve(m: FpMatrix, b: Vector) -> Vector | None:
    """One solution x of M x = b, or None when the system is inconsistent."""
    return solve_many(m, [b])[0]


@dataclass(frozen=True)
class SubquotientReport:
    """Kernel, image and coset-representative bases of a subquotient."""

    ambient_dim: int
    kernel_basis: tuple[Vector, ...]
    image_basis: tuple[Vector, ...]
    coset_basis: tuple[Vector, ...]

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

    @property
    def image_dim(self) -> int:
        return len(self.image_basis)

    @property
    def dim(self) -> int:
        return len(self.coset_basis)

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "kernel_dim": self.kernel_dim,
            "image_dim": self.image_dim,
            "dim": self.dim,
            "kernel_basis": [list(v) for v in self.kernel_basis],
            "image_basis": [list(v) for v in self.image_basis],
            "coset_basis": [list(v) for v in self.coset_basis],
        }


def subquotient(kernel_gens, image_gens, *, p: int, ambient_dim: int) -> SubquotientReport:
    """Canonical bases for span(kernel_gens) / span(image_gens).

    Raises ContainmentViolation unless span(image_gens) lies inside
    span(kernel_gens); inputs violating that signal a broken complex.
    """
    kernel = row_space_basis(p, kernel_gens)
    image = row_space_basis(p, image_gens)
    kpiv = pivot_columns(kernel)
    for v in image:
        if any(reduce_vector(p, v, kernel, kpiv)):
            raise ContainmentViolation("image generators do not lie in the kernel span")
    ipiv = pivot_columns(image)
    residues = []
    for v in kernel:
        red = reduce_vector(p, v, image, ipiv)
        if any(red):
            residues.append(red)
    coset = row_space_basis(p, residues)
    if len(coset) != len(kernel) - len(image):
        raise AssertionError("coset dimension mismatch")
    return SubquotientReport(
        ambient_dim=ambient_dim,
        kernel_basis=tuple(kernel),
        image_basis=tuple(image),
        coset_basis=tuple(coset),
    )


def exterior_square(m: FpMatrix) -> FpMatrix:
    """Second exterior power of a square matrix.

    Rows and columns are indexed by ordered pairs (i < j) in lexicographic
    order; the ((i,j),(k,l)) entry is M[i,k]M[j,l] - M[i,l]M[j,k].
    """
    if m.rows != m.cols:
        raise NotSquare(f"exterior square needs a square matrix, got {m.rows}x{m.cols}")
    pairs = list(itertools.combinations(range(m.rows), 2))
    e = m.entries
    out = []
    for i, j in pairs:
        out.append(
            [e[i][k] * e[j][l] - e[i][l] * e[j][k] for k, l in pairs]
        )
    return FpMatrix.from_rows(m.p, out)
