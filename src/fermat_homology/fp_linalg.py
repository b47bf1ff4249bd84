"""Exact linear algebra over a prime field Z/p.

Matrices are immutable row-major tables of residues.  Canonical bases are
produced by reduced row echelon form with pivots ordered left to right, so
every computation is deterministic across runs.

Underneath, a row is sparse: a ``{column: residue}`` dict that holds no
zero, so the work follows the nonzeros rather than rows x columns (the
differentials of the cohomology complexes are almost empty).  ``_rref`` is
the one elimination: each incoming row is reduced against the pivot rows
kept so far, which stay fully reduced, and the result is the unique RREF
as sparse pivot rows in pivot order.  It takes the rows by decreasing
leading column, so a new pivot lands left of the earlier ones, where no
earlier pivot row can hold it, unless rows share a leading column; only
then is the new pivot cleared from earlier rows (back-substitution).  The
public functions take and return dense tuples and convert at their
boundary with one scan of their input; ``cohomology`` keeps its rows
sparse from the action matrices to the bases it reports, and
``homology.action_matrix`` hands the sparse rows of its system straight
to ``_solve``, the sparse core of ``solve_many``.

``solve_many`` answers a batch of right-hand sides with one elimination of
the augmented matrix.  Kernels need one elimination too: the columns are
scanned right to left, and the free-column vectors of that elimination
are already the canonical (RREF) kernel basis.  Matrix powers use
repeated squaring.  Maps written as matrices follow the row convention
used throughout the package: row k of a matrix holds the coordinates of
the image of the k-th basis vector, and vectors act on the left
(v -> v @ M).  ``kernel_basis`` is plain column-convention linear
algebra ({v : Mv = 0}); callers with row-acting maps pass the transpose,
or their sparse rows to ``_left_kernel``, which gathers the columns from
the nonzeros.  A column span is ``row_space_basis(p, zip(*M.entries))``.
"""

from __future__ import annotations

import itertools

from ._value import frozen
from .errors import ContainmentViolation, NotSquare
from .scalars import is_prime

Vector = tuple[int, ...]
SparseRow = dict[int, int]


@frozen
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
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        rows = tuple(tuple([1 if i == j else 0 for j in range(n)]) for i in range(n))
        return cls(p, n, n, rows)

    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")
        return cls(p, rows, cols, ((0,) * cols,) * rows)

    def transpose(self) -> "FpMatrix":
        entries = tuple(zip(*self.entries)) if self.rows else ((),) * self.cols
        return FpMatrix(self.p, self.cols, self.rows, entries)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        if self.p != other.p or self.cols != other.rows:
            raise ValueError("incompatible shapes for matrix product")
        p = self.p
        rows = _matmul(p, _sparse(p, self.entries), _sparse(p, other.entries))
        return FpMatrix(p, self.rows, other.cols, _dense(rows, other.cols))

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
        p = self.p
        c %= p
        entries = tuple(tuple([(c * x) % p for x in row]) for row in self.entries)
        return FpMatrix(p, self.rows, self.cols, entries)

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
        cols = data["cols"]
        if not m.rows and isinstance(cols, int) and cols >= 0:
            # an empty entry table cannot carry the column count itself
            m = cls(m.p, 0, cols, ())
        if (m.rows, m.cols) != (data["rows"], cols):
            raise ValueError("entry table does not match declared shape")
        return m


def _sparse(p: int, vectors) -> list[SparseRow]:
    """Sparse rows of dense vectors, each entry reduced into [0, p)."""
    return [{j: y for j, x in enumerate(v) if (y := x % p)} for v in vectors]


def _dense(rows, n: int) -> tuple[Vector, ...]:
    """Dense vectors of length n from sparse rows."""
    out = []
    for row in rows:
        v = [0] * n
        for j, x in row.items():
            v[j] = x
        out.append(tuple(v))
    return tuple(out)


def _subtract(p: int, target: SparseRow, c: int, row: SparseRow) -> None:
    """target -= c * row in place, for c in [1, p), dropping the zeros."""
    for j, x in row.items():
        y = (target.get(j, 0) - c * x) % p
        if y:
            target[j] = y
        else:
            del target[j]


def _reduce(p: int, row: SparseRow, basis: dict[int, SparseRow]) -> SparseRow:
    """A copy of ``row`` reduced against fully reduced pivot rows.

    ``basis`` maps each pivot column to its row, which is 1 there and 0 at
    every other pivot column.  Subtracting one pivot row therefore leaves
    the row unchanged at the other pivot columns, and one pass over the
    row's own pivot columns clears them all.
    """
    out = dict(row)
    for col in [col for col in row if col in basis]:
        _subtract(p, out, out[col], basis[col])
    return out


def _rref(p: int, rows) -> tuple[list[SparseRow], list[int]]:
    """Reduced row echelon form of sparse rows with entries in [1, p).

    Returns the nonzero rows of the RREF in pivot order and their pivot
    columns; the input rows are left unchanged.  The nonempty rows are
    taken by decreasing leading column, and each is reduced against the
    pivot rows kept so far; if anything survives it is normalized at its
    leading column.  A pivot row is zero left of its pivot, so only the
    earlier pivot rows whose pivot lies left of that column can hold it,
    and it is cleared from those, which keeps them fully reduced.  In this
    order every pivot so far lies at or right of an incoming row's leading
    column, so unless that column is already a pivot the row keeps it as
    its lead, left of every pivot, and no row is scanned at all.  The RREF
    is unique, so the order changes only the work, never the result.
    """
    basis: dict[int, SparseRow] = {}
    first = None  # the leftmost pivot column so far
    for row in sorted((row for row in rows if row), key=min, reverse=True):
        row = _reduce(p, row, basis)
        if not row:
            continue
        lead = min(row)
        inv = pow(row[lead], p - 2, p)
        if inv != 1:
            row = {j: x * inv % p for j, x in row.items()}
        if first is None or lead < first:
            first = lead
        else:
            for col, other in basis.items():
                if col < lead and lead in other:
                    _subtract(p, other, other[lead], row)
        basis[lead] = row
    pivots = sorted(basis)
    return [basis[col] for col in pivots], pivots


def _matmul(p: int, a: list[SparseRow], b: list[SparseRow]) -> list[SparseRow]:
    """The product of two matrices given as sparse rows."""
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: y for j, v in acc.items() if (y := v % p)})
    return out


def _power(p: int, rows: list[SparseRow], k: int) -> list[SparseRow]:
    """M^k for a square M given as sparse rows and k >= 0, by repeated squaring."""
    result = None
    square = rows
    while True:
        if k & 1:
            result = square if result is None else _matmul(p, result, square)
        k >>= 1
        if not k:
            break
        square = _matmul(p, square, square)
    return [{i: 1} for i in range(len(rows))] if result is None else result


def _kernel(p: int, n: int, reversed_rows) -> list[SparseRow]:
    """Canonical basis of {v in F_p^n : r . v = 0 for every row r}.

    Each row comes with its columns reversed (entry j stored at n - 1 - j),
    so the elimination chooses pivots from the right.  Each reduced row is
    then nonzero only at its pivot and at free columns left of it, so the
    vector of free column f, e_f - sum_i r_i[f] e_{pivot_i}, has its leading
    1 at f and vanishes at every other free column.  Listed by increasing
    f, these vectors are already the RREF basis of the kernel.
    """
    reduced, pivots = _rref(p, reversed_rows)
    vectors = {f: {n - 1 - f: 1} for f in range(n - 1, -1, -1)}
    for col in pivots:
        del vectors[col]
    for row, col in zip(reduced, pivots):
        for f, x in row.items():
            if f != col:
                vectors[f][n - 1 - col] = p - x
    return list(vectors.values())


def _left_kernel(p: int, rows: list[SparseRow]) -> list[SparseRow]:
    """Canonical basis of {v : v @ D = 0} for the map D given by its sparse
    rows (the row convention); its columns are gathered from the nonzeros."""
    n = len(rows)
    columns: dict[int, SparseRow] = {}
    for i, row in enumerate(rows):
        for j, x in row.items():
            columns.setdefault(j, {})[n - 1 - i] = x
    return _kernel(p, n, columns.values())


def row_space_basis(p: int, vectors) -> list[Vector]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    vectors = list(vectors)
    if not vectors:
        return []
    return list(_dense(_rref(p, _sparse(p, vectors))[0], len(vectors[0])))


def reduce_vector(p: int, v: Vector, basis: list[Vector], pivots: list[int]) -> Vector:
    """Reduce v against an RREF basis; zero iff v lies in the span."""
    rows = dict(zip(pivots, _sparse(p, basis)))
    return _dense([_reduce(p, _sparse(p, [v])[0], rows)], len(v))[0]


def pivot_columns(basis: list[Vector]) -> list[int]:
    pivots = []
    for row in basis:
        for j, x in enumerate(row):
            if x:
                pivots.append(j)
                break
    return pivots


def rank(m: FpMatrix) -> int:
    return len(_rref(m.p, _sparse(m.p, m.entries))[1])


def kernel_basis(m: FpMatrix) -> list[Vector]:
    """Canonical basis of {v : M v = 0} (column convention), from one
    elimination of M with its columns reversed (see ``_kernel``)."""
    n = m.cols
    rows = [{n - 1 - j: x for j, x in enumerate(row) if x} for row in m.entries]
    return list(_dense(_kernel(m.p, n, rows), n))


def _solve(p: int, cols: int, rows, k: int) -> list[SparseRow | None]:
    """Sparse solutions of M x = b_t for t < k, from the sparse rows of
    [M | b_0 ... b_(k-1)]: columns j < ``cols`` hold M and column cols + t
    holds b_t.  One elimination serves every right-hand side; free
    coordinates are zero and an inconsistent system gives None.
    """
    reduced, pivots = _rref(p, rows)
    solutions: list[SparseRow] = [{} for _ in range(k)]
    inconsistent: set[int] = set()
    for row, col in zip(reduced, pivots):
        if col >= cols:
            inconsistent.update(row)
            continue
        for j, x in row.items():
            if j >= cols:
                solutions[j - cols][col] = x
    return [None if cols + t in inconsistent else x for t, x in enumerate(solutions)]


def solve_many(m: FpMatrix, bs) -> list[Vector | None]:
    """For each b in ``bs``, one solution x of M x = b, or None when that
    system is inconsistent.

    One elimination of [M | b_1 ... b_k] serves every right-hand side.  Free
    coordinates are set to zero, which makes the answers deterministic.  A
    system is inconsistent when its column is nonzero in a reduced row that
    vanishes on M.
    """
    p, cols = m.p, m.cols
    bs = [[int(x) % p for x in b] for b in bs]
    if any(len(b) != m.rows for b in bs):
        raise ValueError("right-hand side length does not match row count")
    rows = _sparse(p, m.entries)
    for k, b in enumerate(bs, start=cols):
        for i, x in enumerate(b):
            if x:
                rows[i][k] = x
    return [
        None if x is None else _dense([x], cols)[0] for x in _solve(p, cols, rows, len(bs))
    ]


@frozen
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


def _subquotient(
    p: int, ambient_dim: int, kernel: list[SparseRow], image: list[SparseRow]
) -> SubquotientReport:
    """Report for span(kernel) / span(image), both given as sparse RREF
    bases, which are used as they are.

    Raises ContainmentViolation unless the image lies inside the kernel span.
    """
    kernel_rows = {min(row): row for row in kernel}
    if any(_reduce(p, row, kernel_rows) for row in image):
        raise ContainmentViolation("image generators do not lie in the kernel span")
    # with no image, the kernel basis is its own canonical coset basis
    coset = kernel
    if image:
        image_rows = {min(row): row for row in image}
        residues = [r for r in (_reduce(p, row, image_rows) for row in kernel) if r]
        coset = _rref(p, residues)[0] if residues else []
    if len(coset) != len(kernel) - len(image):
        raise AssertionError("coset dimension mismatch")
    return SubquotientReport(
        ambient_dim=ambient_dim,
        kernel_basis=_dense(kernel, ambient_dim),
        image_basis=_dense(image, ambient_dim),
        coset_basis=_dense(coset, ambient_dim),
    )


def subquotient(kernel_gens, image_gens, *, p: int, ambient_dim: int) -> SubquotientReport:
    """Canonical bases for span(kernel_gens) / span(image_gens), both sets
    of vectors of length ``ambient_dim``.

    Raises ContainmentViolation unless span(image_gens) lies inside
    span(kernel_gens); inputs violating that signal a broken complex.
    """
    kernel_gens, image_gens = list(kernel_gens), list(image_gens)
    if any(len(v) != ambient_dim for v in kernel_gens + image_gens):
        raise ValueError("generator length does not match ambient_dim")
    kernel = _rref(p, _sparse(p, kernel_gens))[0]
    image = _rref(p, _sparse(p, image_gens))[0]
    return _subquotient(p, ambient_dim, kernel, image)


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
