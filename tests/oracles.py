"""Independent oracles used by the tests.

Nothing here calls the elimination routines of the package for the
quantity it checks: ranks come from brute-force span enumeration, the
cohomology cross-check comes from the standard inhomogeneous cochain
complex of the group, built from scratch, degree-1 coboundaries come
from products in the group ring or with S1, read straight from the raw
reference tables, group-ring products come from the double sum over
pairs of group elements, products in F_p[t]/(f) come from long division
by f, and row-vector products and reductions against an RREF basis are
plain sums over the rows.  A subquotient's cosets come from reducing
each kernel vector against the image, not from the package's rule that
keeps the kernel rows off the image pivots.

Six oracles use nothing of the package at all.  ``matrix_product``
multiplies lists of rows entry by entry, ``unit_rows`` writes the
identity out and ``matrix_combination`` sums multiples of lists of rows
(``times``, ``identity``, ``combination`` and ``one_minus`` apply them to
``FpMatrix`` values and only pack the result).  ``dense_complex``
writes the total complex of a module out over plain lists, block by
block, by the bidegree rule, with S = 1 - sigma and the norm U = 1 +
sigma + ... + sigma^(p-1) taken as a sum of powers, not as S^(p-1).
``solve`` is plain Gauss-Jordan elimination of one system [M | b], and
``bar_cohomology_trivial`` takes the ranks of its cochain differentials
from the same elimination over plain lists.
"""

from __future__ import annotations

import cmath
import itertools
import re

from fermat_homology.fp_linalg import FpMatrix, SubquotientReport, row_space_basis
from fermat_homology.scalars import Zmod


def span_size(p: int, vectors) -> int:
    """Cardinality of the F_p-span, by closure (no elimination)."""
    vectors = [tuple(x % p for x in v) for v in vectors]
    width = len(vectors[0]) if vectors else 0
    span = {(0,) * width}
    for v in vectors:
        additions = set()
        for w in span:
            for c in range(1, p):
                additions.add(tuple((a + c * b) % p for a, b in zip(w, v)))
        span |= additions
    return len(span)


def closure_rank(p: int, vectors) -> int:
    size = span_size(p, vectors)
    r = 0
    while p**r < size:
        r += 1
    assert p**r == size
    return r


def row_times(v, m) -> tuple[int, ...]:
    """v @ M for an FpMatrix M, as the plain sum of v[k] times row k."""
    assert len(v) == m.rows, "vector length does not match row count"
    acc = [0] * m.cols
    for a, row in zip(v, m.entries):
        acc = [x + a * y for x, y in zip(acc, row)]
    return tuple(x % m.p for x in acc)


def rref_residue(p: int, v, basis) -> tuple[int, ...]:
    """v - sum v[q_i] b_i for an RREF basis b_i with pivot columns q_i,
    which is zero exactly when v lies in the span."""
    out = list(v)
    for b in basis:
        c = v[next(j for j, x in enumerate(b) if x)]
        out = [x - c * y for x, y in zip(out, b)]
    return tuple(x % p for x in out)


def residue_subquotient(p: int, ambient_dim: int, kernel, image):
    """span(kernel) / span(image) for RREF bases, by reduction: each kernel
    vector is reduced against the image basis, and the cosets are the RREF
    of the nonzero residues."""
    assert not any(any(rref_residue(p, v, kernel)) for v in image)
    residues = [rref_residue(p, v, image) for v in kernel]
    cosets = row_space_basis(p, [r for r in residues if any(r)])
    return SubquotientReport(ambient_dim, tuple(kernel), tuple(image), tuple(cosets))


def bar_cohomology_trivial(p: int) -> tuple[int, int]:
    """H^1 and H^2 of (Z/p)^2 with trivial one-dimensional coefficients,
    from the inhomogeneous cochain complex of the group itself."""
    group = list(itertools.product(range(p), repeat=2))
    index = {g: i for i, g in enumerate(group)}
    order = len(group)

    def mul(a, b):
        return ((a[0] + b[0]) % p, (a[1] + b[1]) % p)

    rows = []
    for g, h in itertools.product(group, repeat=2):
        row = [0] * order
        row[index[h]] += 1
        row[index[mul(g, h)]] -= 1
        row[index[g]] += 1
        rows.append([x % p for x in row])
    # z1 = dim {f : d1 f = 0}, f a function on the group
    z1 = order - len(_eliminate(p, rows, order))
    h1 = z1  # trivial action makes every degree-0 coboundary vanish

    rows = []
    for g, h, k in itertools.product(group, repeat=3):
        row = [0] * (order * order)
        pos = lambda a, b: index[a] * order + index[b]
        row[pos(h, k)] += 1
        row[pos(mul(g, h), k)] -= 1
        row[pos(g, mul(h, k))] += 1
        row[pos(g, h)] -= 1
        rows.append([x % p for x in row])
    z2 = order * order - len(_eliminate(p, rows, order * order))
    h2 = z2 - (order - z1)
    return h1, h2


def convolution(n: int, ring, x: dict, y: dict) -> dict:
    """x * y in ring[(Z/n)^k] as the double sum over pairs of group
    elements; elements are {exponent tuple: coefficient} dicts."""
    out: dict = {}
    for a, c in x.items():
        for b, d in y.items():
            key = tuple((s + t) % n for s, t in zip(a, b))
            out[key] = ring.add(out.get(key, ring.zero), ring.mul(c, d))
    return {key: ring.reduce(c) for key, c in out.items()}


def long_division_product(p: int, modulus, a, b) -> tuple[int, ...]:
    """a * b in F_p[t]/(modulus), for a monic modulus listed from the
    constant term up: the schoolbook product, then long division by the
    modulus, one leading term at a time."""
    assert modulus[-1] % p == 1, "the modulus must be monic"
    k = len(modulus) - 1
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] = (product[i + j] + x * y) % p
    while len(product) > k:
        lead = product.pop()
        shift = len(product) - k
        for i, c in enumerate(modulus[:-1]):
            product[shift + i] = (product[shift + i] - lead * c) % p
    return tuple(product + [0] * (k - len(product)))


def float_norm(p: int, coeffs) -> complex:
    """Product of the complex embeddings; floating-point norm oracle."""
    product = 1.0 + 0j
    for i in range(1, p):
        root = cmath.exp(2j * cmath.pi * i / p)
        product *= sum(c * root**k for k, c in enumerate(coeffs))
    return product


_TERM_RE = re.compile(r"([+-]?)([^+-]+)")
_MONOMIAL_RE = re.compile(r"1|(?:[ef](?:\^\d+)?)+")


def _ring_element(expr: str, p: int) -> dict:
    """'1 - e^2f + ef^2' as {(i, j): c} in Z/p[e,f]/(e^p - 1, f^p - 1);
    only unit coefficients occur in the tables' B strings and basis order."""
    element: dict = {}
    for sign, body in _TERM_RE.findall(expr.replace(" ", "")):
        assert _MONOMIAL_RE.fullmatch(body), body
        exps = {"e": 0, "f": 0}
        for var, power in re.findall(r"([ef])(?:\^(\d+))?", body):
            exps[var] += int(power or 1)
        key = (exps["e"] % p, exps["f"] % p)
        element[key] = (element.get(key, 0) + (-1 if sign == "-" else 1)) % p
    return element


def _lambda1_actions(raw):
    """sigma and tau on Lambda_1: multiplication by the listed B strings,
    on coordinates in the listed basis order."""
    p = raw["p"]
    order = [next(iter(_ring_element(m, p))) for m in raw["basis_order"]]

    def by(multiplier):
        def act(v):
            product = convolution(p, Zmod(p), dict(zip(order, v)), multiplier)
            return [product.get(m, 0) for m in order]

        return act

    return by(_ring_element(raw["B_sigma"], p)), by(_ring_element(raw["B_tau"], p))


def _h1u_actions(raw):
    """sigma and tau on H1(U): v -> v - v S1 with the listed S1, and the
    identity, since T1 = 0."""
    s1 = raw["S1"]

    def sigma(v):
        return [x - sum(v[k] * s1[k][j] for k in range(len(v))) for j, x in enumerate(v)]

    return sigma, list


def degree_one_coboundary(raw, key: str, vector) -> tuple[int, ...]:
    """Coboundary of the degree-1 cochain (a, b) of a listed vector:
    (a N_sigma, a (1 - tau) - b (1 - sigma), b N_tau), with N the norm
    1 + g + ... + g^(p-1) and the actions taken from the raw tables for the
    module of the list `key` (Lambda_1 or H1(U))."""
    p = raw["p"]
    sigma, tau = _lambda1_actions(raw) if key.endswith("_lambda1") else _h1u_actions(raw)
    half = len(vector) // 2
    a, b = list(vector[:half]), list(vector[half:])

    def norm(act, v):
        total, power = list(v), list(v)
        for _ in range(p - 1):
            power = act(power)
            total = [x + y for x, y in zip(total, power)]
        return total

    middle = [(x - y) - (z - w) for x, y, z, w in zip(a, tau(a), b, sigma(b))]
    return tuple(c % p for c in norm(sigma, a) + middle + norm(tau, b))


def matrix_product(p: int, a, b) -> list[list[int]]:
    """a b for matrices given as lists of rows, entry by entry."""
    return [
        [sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(len(b[0]))]
        for row in a
    ]


def unit_rows(n: int) -> list[list[int]]:
    """The n x n identity matrix as a list of rows."""
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matrix_combination(p: int, terms) -> list[list[int]]:
    """The sum of c a over (c, a) pairs of an integer and a matrix given as
    a list of rows, entry by entry."""
    (_, first), *_ = terms
    total = [[0] * len(row) for row in first]
    for c, a in terms:
        assert [len(row) for row in a] == [len(row) for row in first], "incompatible shapes"
        total = [[x + c * y for x, y in zip(r, q)] for r, q in zip(total, a)]
    return [[x % p for x in row] for row in total]


def times(a: FpMatrix, b: FpMatrix) -> FpMatrix:
    """a b for two matrices over Z/p, by ``matrix_product``;
    ``FpMatrix.from_rows`` only packs the result."""
    assert a.p == b.p and a.cols == b.rows, "incompatible shapes for matrix product"
    return FpMatrix.from_rows(a.p, matrix_product(a.p, a.entries, b.entries))


def identity(p: int, n: int) -> FpMatrix:
    """The n x n identity over Z/p, from ``unit_rows``."""
    return FpMatrix.from_rows(p, unit_rows(n))


def combination(*terms) -> FpMatrix:
    """The sum of c a over (c, a) pairs of an integer and a matrix over Z/p,
    by ``matrix_combination``; ``FpMatrix.from_rows`` only packs it."""
    p = terms[0][1].p
    assert all(a.p == p for _, a in terms), "matrices over different moduli"
    return FpMatrix.from_rows(p, matrix_combination(p, [(c, a.entries) for c, a in terms]))


def one_minus(a: FpMatrix) -> FpMatrix:
    """1 - a for a square matrix over Z/p, by ``combination``."""
    return combination((1, identity(a.p, a.rows)), (-1, a))


def dense_complex(mod, top: int = 2) -> list[list[list[int]]]:
    """d^0, ..., d^top of the total complex of a module with actions
    ``mod.act_sigma`` and ``mod.act_tau`` over Z/``mod.p``, as lists of rows.

    Degree k has one copy of the module for each bidegree (i, j) with
    i + j = k, block j of k + 1.  Block (i, j) maps to (i + 1, j) by
    (-1)^j S for even i and (-1)^j U for odd i, and to (i, j + 1) by T for
    even j and V for odd j, where S = 1 - sigma, T = 1 - tau and U, V are
    the sums of the p powers of sigma and tau (Brown, GTM 87).
    """
    p, n = mod.p, mod.dim
    ident = unit_rows(n)

    def norm(act):
        total = power = ident
        for _ in range(p - 1):
            power = matrix_product(p, power, act)
            total = matrix_combination(p, [(1, total), (1, power)])
        return total

    sigma, tau = mod.act_sigma.entries, mod.act_tau.entries
    s, t = (matrix_combination(p, [(1, ident), (-1, act)]) for act in (sigma, tau))
    u, v = norm(sigma), norm(tau)
    maps = []
    for k in range(top + 1):
        d = [[0] * ((k + 2) * n) for _ in range((k + 1) * n)]
        for j in range(k + 1):
            down = u if (k - j) % 2 else s
            right = v if j % 2 else t
            sign = -1 if j % 2 else 1
            for a in range(n):
                for b in range(n):
                    d[j * n + a][j * n + b] = sign * down[a][b] % p
                    d[j * n + a][(j + 1) * n + b] = right[a][b]
        maps.append(d)
    return maps


def solve(p: int, rows, cols: int, b) -> tuple[int, ...] | None:
    """The solution x of M x = b whose free coordinates are zero, or None
    when the system is inconsistent, for M given by its rows (``cols``
    columns): Gauss-Jordan elimination of [M | b], column by column."""
    assert len(b) == len(rows), "right-hand side length does not match row count"
    aug = [list(row) + [y] for row, y in zip(rows, b)]
    pivots = _eliminate(p, aug, cols)
    if any(row[-1] for row in aug[len(pivots) :]):
        return None
    x = [0] * cols
    for row, c in zip(aug, pivots):
        x[c] = row[-1]
    return tuple(x)


def _eliminate(p: int, table, cols: int) -> list[int]:
    """Gauss-Jordan elimination of the first ``cols`` columns of a table
    of rows, in place: the entries are reduced mod p, the pivot rows come
    first, and their pivot columns are returned."""
    table[:] = [[x % p for x in row] for row in table]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        found = next((i for i in range(r, len(table)) if table[i][c]), None)
        if found is None:
            continue
        table[r], table[found] = table[found], table[r]
        # rows r and below are zero left of c, so only columns c on change
        pivot = table[r]
        inv = pow(pivot[c], p - 2, p)
        pivot[c:] = [x * inv % p for x in pivot[c:]]
        for i, row in enumerate(table):
            if i != r and row[c]:
                f = row[c]
                row[c:] = [(x - f * y) % p for x, y in zip(row[c:], pivot[c:])]
        pivots.append(c)
    return pivots
