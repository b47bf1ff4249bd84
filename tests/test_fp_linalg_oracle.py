"""Differential checks of fp_linalg against sympy's DomainMatrix over GF(p).

sympy shares no code with the package and is not one of its dependencies,
so this module is skipped when sympy is absent.
"""

import random

import pytest

from fermat_homology import fp_linalg as fl
from fermat_homology.cohomology import module
from oracles import dense_complex, solve
from test_cohomology import b_pair, natural_pair
from test_fp_linalg import solve_sparse

sympy_matrices = pytest.importorskip("sympy.polys.matrices")
GF = pytest.importorskip("sympy").GF

PRIMES = (3, 5, 7, 11, 13)
SHAPES = ((1, 1), (4, 9), (9, 4), (20, 20), (35, 50), (60, 80))
DENSITIES = {"dense": 1.0, "sparse": 0.02}


def random_rows(rng, p, rows, cols, density):
    return [
        [rng.randrange(1, p) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def domain_matrix(p, rows, cols):
    field = GF(p)
    return sympy_matrices.DomainMatrix(
        [[field(x) for x in row] for row in rows], (len(rows), cols), field
    )


def oracle_rref_rows(p, rows, cols):
    """Nonzero rows of the reduced row echelon form, as residue tuples."""
    if not rows:
        return []
    reduced, pivots = domain_matrix(p, rows, cols).rref()
    table = [tuple(int(x) % p for x in row) for row in reduced.to_list()]
    return table[: len(pivots)]


def oracle_null_rows(p, rows, cols):
    """A basis of the right null space {v : M v = 0}, as residue lists."""
    null = domain_matrix(p, rows, cols).nullspace().to_list()
    return [[int(x) % p for x in v] for v in null]


def cases():
    for p in PRIMES:
        for name, density in DENSITIES.items():
            for rows, cols in SHAPES:
                yield pytest.param(p, rows, cols, density, id=f"p{p}-{name}-{rows}x{cols}")


@pytest.mark.parametrize("p, rows, cols, density", cases())
def test_rank_kernel_image_and_row_space_match_sympy(p, rows, cols, density):
    rng = random.Random(f"{p}/{rows}x{cols}/{density}")
    table = random_rows(rng, p, rows, cols, density)
    m = fl.FpMatrix.from_rows(p, table)
    row_space = oracle_rref_rows(p, table, cols)

    assert fl.row_space_basis(p, table) == row_space
    assert fl.rank(m) == len(row_space)
    transpose = [list(col) for col in zip(*table)]
    kernel = fl.kernel_basis(m)
    assert len(kernel) == rows - len(row_space)
    assert kernel == oracle_rref_rows(p, oracle_null_rows(p, transpose, rows), rows)
    assert fl.row_space_basis(p, zip(*m.entries)) == oracle_rref_rows(p, transpose, rows)


@pytest.mark.parametrize("p, rows, cols, density", cases())
def test_solve_many_matches_solve_column_by_column(p, rows, cols, density):
    """``solve_sparse`` on many right-hand sides at once against one at a
    time, sympy's left null space and the Gauss-Jordan oracle."""
    rng = random.Random(f"solve/{p}/{rows}x{cols}/{density}")
    table = random_rows(rng, p, rows, cols, density)
    consistent = []
    for _ in range(3):
        x = [rng.randrange(p) for _ in range(cols)]
        consistent.append([sum(a * b for a, b in zip(row, x)) % p for row in table])
    arbitrary = [[rng.randrange(-p, 2 * p) for _ in range(rows)] for _ in range(3)]
    bs = consistent + arbitrary
    # M x = b is solvable exactly when b is orthogonal to the left null space
    left_null = oracle_null_rows(p, [list(col) for col in zip(*table)], rows)

    solutions = solve_sparse(p, table, cols, bs)
    assert solutions == [solve_sparse(p, table, cols, [b])[0] for b in bs]
    assert solutions == [solve(p, table, cols, b) for b in bs]
    for b, x in zip(bs, solutions):
        solvable = all(sum(y * v for y, v in zip(w, b)) % p == 0 for w in left_null)
        assert (x is not None) == solvable
        if x is not None:
            assert [sum(a * c for a, c in zip(row, x)) % p for row in table] == [
                v % p for v in b
            ]
    assert all(x is not None for x in solutions[: len(consistent)])
    # the seeded arbitrary right-hand sides reach the inconsistent branch
    assert any(x is None for x in solutions) == bool(left_null)


def test_coordinates_flag_an_inconsistent_column_among_consistent_ones():
    m = [[1, 2], [2, 4]]
    bs = [(1, 1), (3, 1), (0, 1)]
    assert solve_sparse(5, m, 2, bs) == [None, (3, 0), None]
    assert [solve(5, m, 2, b) for b in bs] == [None, (3, 0), None]
    assert solve_sparse(5, m, 2, []) == []


@pytest.mark.parametrize("p", PRIMES)
def test_row_space_basis_accepts_negative_and_unreduced_entries(p):
    rng = random.Random(f"unreduced/{p}")
    table = [[rng.randrange(-3 * p, 3 * p) for _ in range(12)] for _ in range(8)]
    reduced = [[x % p for x in row] for row in table]
    assert fl.row_space_basis(p, table) == fl.row_space_basis(p, reduced)
    assert fl.row_space_basis(p, table) == oracle_rref_rows(p, reduced, 12)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_rref_does_not_depend_on_row_order(p):
    rng = random.Random(f"order/{p}")
    for density in (1.0, 0.3, 0.05):
        table = random_rows(rng, p, 10, 14, density)
        # empty rows, duplicates and a multiple of a row besides the random ones
        table += [[0] * 14, [0] * 14, table[0], table[3], [2 * x % p for x in table[5]]]
        expected = oracle_rref_rows(p, table, 14)
        for _ in range(5):
            rng.shuffle(table)
            assert fl.row_space_basis(p, table) == expected
            reduced, pivots = fl._rref(p, fl._sparse(p, table))
            assert list(fl._dense(reduced, 14)) == expected
            assert pivots == [next(j for j, x in enumerate(row) if x) for row in expected]


def test_complex_differentials_match_sympy():
    modules = [
        module("lambda1", *b_pair()),
        module("h1u", *natural_pair(5)),
        module("lambda1", *natural_pair(5)),
    ]
    complexes = [
        [fl.FpMatrix.from_rows(mod.p, d) for d in dense_complex(mod)] for mod in modules
    ]
    assert [z.rows for _, _, z in complexes] == [27, 48, 75]
    for mod, differentials in zip(modules, complexes):
        p = mod.p
        for d in differentials:
            acting = [list(col) for col in zip(*d.entries)]
            null = oracle_null_rows(p, acting, d.rows)
            assert fl.kernel_basis(d) == oracle_rref_rows(p, null, d.rows)
            rows = [list(row) for row in d.entries]
            image = oracle_rref_rows(p, rows, d.cols)
            assert fl.row_space_basis(p, d.entries) == image
