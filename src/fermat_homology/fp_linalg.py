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
to ``_solve``.

``_solve`` serves ``action_matrix``: it answers a batch of right-hand
sides with one elimination of the augmented matrix.  Kernels need one
elimination too, in one routine, ``_left_kernel``: the columns of a
row-acting map are gathered from its nonzeros and scanned right to left,
and the free-row vectors of that elimination are already the canonical
(RREF) kernel basis; a left kernel known to contain a given subspace
eliminates only the rows off that subspace's pivots.  Maps written as
matrices follow the row convention used throughout the package: row k of
a matrix holds the coordinates of the image of the k-th basis vector,
vectors act on the left (v -> v @ M), and ``kernel_basis`` is the kernel
of that map, {v : v @ M = 0}.
"""

from __future__ import annotations

import itertools
from operator import index

from ._value import frozen
from .errors import NotSquare
from .scalars import is_prime

Vector = tuple[int, ...]
SparseRow = dict[int, int]


@frozen
class FpMatrix:
    """Dense matrix over Z/p, a checked record: the constructor checks that
    p is prime, then the shape, and trusts the entries; ``from_rows``
    reduces them.  Arithmetic works on sparse rows (``_matmul``)."""

    p: int
    rows: int
    cols: int
    entries: tuple[Vector, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"modulus must be prime, got {self.p}")
        if len(self.entries) != self.rows or any(len(row) != self.cols for row in self.entries):
            raise ValueError(f"entries are not {self.rows} rows of {self.cols}")

    @classmethod
    def from_rows(cls, p: int, rows) -> "FpMatrix":
        if not is_prime(p):  # before the entries are reduced mod p
            raise ValueError(f"modulus must be prime, got {p}")
        # index, not int: a float or a string entry raises TypeError
        table = tuple(tuple([index(x) % p for x in row]) for row in rows)
        return cls(p, len(table), len(table[0]) if table else 0, table)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)


def _sparse(p: int, vectors) -> list[SparseRow]:
    """Sparse rows of dense vectors, each entry reduced into [0, p)."""
    return [{j: y for j, x in enumerate(v) if x and (y := x % p)} for v in vectors]


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


def _left_kernel(
    p: int, rows: list[SparseRow], known: list[SparseRow] = ()
) -> list[SparseRow]:
    """Canonical basis of {v : v @ D = 0} for the map D given by its sparse
    rows (the row convention), from one elimination of its columns.

    Each column is gathered from the nonzeros with its entries reversed
    (row i stored at n - 1 - i), so the elimination chooses pivots from the
    right.  Each reduced column is then nonzero only at its pivot row and
    at free rows before it, so the vector of free row i,
    e_i - sum_c r_c[i] e_(pivot row of c), has its leading 1 at i and
    vanishes at every other free row.  Listed by increasing i, these
    vectors are already the RREF basis of the kernel.

    ``known`` is the sparse RREF basis of a subspace already known to lie
    in the kernel, such as the image of the previous differential; empty,
    the whole kernel is eliminated.  With P the pivot columns of ``known``,
    the kernel is span(known) + W, where W is the left kernel of the rows
    of D whose index is not in P: a kernel vector reduced against ``known``
    is zero on P and so lies in W, while a nonzero vector of span(known) is
    not zero on P.  Only those rows are eliminated.  The RREF rows of W are
    zero on P, so clearing W's pivots from the rows of ``known`` leaves
    them reduced at P and zero left of their pivots, and the two lists
    merged by pivot are the canonical RREF of the kernel.
    """
    n = len(rows)
    seed = {min(row): row for row in known}
    columns: dict[int, SparseRow] = {}
    for i, row in enumerate(rows):
        if i not in seed:
            for j, x in row.items():
                columns.setdefault(j, {})[n - 1 - i] = x
    reduced, pivots = _rref(p, columns.values())
    pivot_rows = {n - 1 - col for col in pivots}
    # the skipped rows would come back as the unit vectors of P
    free = {i: {i: 1} for i in range(n) if i not in pivot_rows and i not in seed}
    for column, col in zip(reduced, pivots):
        for f, x in column.items():
            if f != col:
                free[n - 1 - f][n - 1 - col] = p - x
    basis = {col: _reduce(p, row, free) for col, row in seed.items()}
    basis.update(free)
    return [basis[col] for col in sorted(basis)]


def row_space_basis(p: int, vectors) -> list[Vector]:
    """Canonical (RREF) basis of the span of the given row vectors."""
    vectors = list(vectors)
    if not vectors:
        return []
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors of different lengths")
    return list(_dense(_rref(p, _sparse(p, vectors))[0], len(vectors[0])))


def in_span(p: int, basis: list[Vector], vectors) -> list[bool]:
    """Whether each vector lies in the span of an RREF basis."""
    vectors = list(vectors)
    if len({len(v) for v in (*basis, *vectors)}) > 1:
        raise ValueError("vectors of different lengths")
    rows = {min(row): row for row in _sparse(p, basis)}
    return [not _reduce(p, row, rows) for row in _sparse(p, vectors)]


def rank(m: FpMatrix) -> int:
    return len(_rref(m.p, _sparse(m.p, m.entries))[1])


def kernel_basis(m: FpMatrix) -> list[Vector]:
    """Canonical basis of {v : v @ M = 0}, from one elimination of M's
    columns (see ``_left_kernel``)."""
    return list(_dense(_left_kernel(m.p, _sparse(m.p, m.entries)), m.rows))


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
    bases, which are used as they are; the image must lie in the kernel
    span, which ``cohomology.h_groups`` checks.

    The coset basis is the RREF of the kernel rows reduced against the
    image, and it needs no reduction: the leading column of an image
    vector is that of a kernel vector, so the image's pivots are kernel
    pivots, and a kernel row whose pivot is not an image pivot is zero on
    every image pivot (an RREF row is zero at the other pivots).  Such a
    row is its own residue, and those rows are as many as the dimension of
    the residues' span, so they are its RREF basis.
    """
    image_pivots = {min(row) for row in image}
    coset = [row for row in kernel if min(row) not in image_pivots]
    if len(coset) != len(kernel) - len(image):
        raise AssertionError("coset dimension mismatch")
    return SubquotientReport(
        ambient_dim=ambient_dim,
        kernel_basis=_dense(kernel, ambient_dim),
        image_basis=_dense(image, ambient_dim),
        coset_basis=_dense(coset, ambient_dim),
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
