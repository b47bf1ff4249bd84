import random

import pytest

from fermat_homology import fp_linalg as fl
from fermat_homology.cohomology import h_groups, module, validate_basis
from fermat_homology.errors import NotSquare
from fermat_homology.reference_tables import load_tables
from oracles import closure_rank, dense_complex, identity, rref_residue, solve, times
from test_cohomology import b_pair


def lambda1_complex():
    """X, Y, Z of the group ring's complex, from the dense oracle."""
    return [fl.FpMatrix.from_rows(3, d) for d in dense_complex(module("lambda1", *b_pair()))]


def solve_sparse(p, table, cols, bs):
    """``fl._solve`` on the sparse rows of [M | b_0 ... b_(k-1)] for M given
    by its rows, with the solutions densified."""
    rows = fl._sparse(p, table)
    for k, b in enumerate(bs, start=cols):
        assert len(b) == len(rows)
        for i, x in enumerate(b):
            if x % p:
                rows[i][k] = x % p
    solutions = fl._solve(p, cols, rows, len(bs))
    return [None if x is None else fl._dense([x], cols)[0] for x in solutions]


def subquotient(p, ambient_dim, kernel_gens, image_gens):
    """``fl._subquotient`` on the sparse RREF bases of the two spans."""
    kernel = fl._sparse(p, fl.row_space_basis(p, kernel_gens))
    image = fl._sparse(p, fl.row_space_basis(p, image_gens))
    return fl._subquotient(p, ambient_dim, kernel, image)


def random_matrix(rng, p, rows, cols):
    return fl.FpMatrix.from_rows(
        p, [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    )


def test_kernel_of_zero_matrix_is_standard_basis():
    m = fl.FpMatrix.from_rows(3, [[0] * 9] * 9)
    basis = fl.kernel_basis(m)
    assert basis == [
        tuple(1 if i == j else 0 for j in range(9)) for i in range(9)
    ]


@pytest.mark.parametrize("p", (2, 3, 5))
def test_kernel_of_a_matrix_without_rows_is_every_unit_vector(p):
    # v -> v @ M with no rows or no columns is the zero map, so its kernel
    # is the whole domain F_p^rows: every unit vector, none when rows = 0
    for cols in (0, 1, 4):
        assert fl.kernel_basis(fl.FpMatrix(p, 0, cols, ())) == []
    for rows in (0, 1, 3):
        m = fl.FpMatrix.from_rows(p, [[]] * rows)
        assert (m.rows, m.cols) == (rows, 0)
        assert fl.kernel_basis(m) == [
            tuple(int(i == j) for j in range(rows)) for i in range(rows)
        ]


def test_kernel_dimension_of_listed_s_matrix():
    s = load_tables().s_matrix()
    # independent oracle: rank by brute-force span enumeration
    assert closure_rank(3, s.entries) == 4
    assert len(fl.kernel_basis(s)) == 5


def test_kernel_of_degree_one_map_has_dimension_13():
    _, y, _ = lambda1_complex()
    assert len(fl.kernel_basis(y)) == 13


def test_image_of_identity():
    m = identity(3, 4)
    assert fl.row_space_basis(3, zip(*m.entries)) == [
        tuple(1 if i == j else 0 for j in range(4)) for i in range(4)
    ]


def test_image_of_degree_zero_map_has_dimension_4():
    x, _, _ = lambda1_complex()
    assert len(fl.row_space_basis(3, x.entries)) == 4


def test_restricted_block_matrix_has_rank_one():
    s1 = load_tables().s1_matrix()
    x1 = fl.FpMatrix.from_rows(3, [list(row) + [0] * 4 for row in s1.entries])
    columns = list(zip(*x1.entries))
    assert closure_rank(3, columns) == 1
    assert len(fl.row_space_basis(3, zip(*x1.entries))) == 1


def test_subquotient_trivial_when_kernel_equals_image():
    vectors = [(1, 0, 0), (0, 1, 0)]
    report = subquotient(3, 3, vectors, vectors)
    assert report.coset_basis == ()
    assert report.kernel_dim == report.image_dim == 2


def test_subquotient_dimensions_of_the_complex():
    x, y, z = lambda1_complex()
    h1 = subquotient(3, 18, fl.kernel_basis(y), x.entries)
    assert h1.dim == 9
    h2 = subquotient(3, 27, fl.kernel_basis(z), y.entries)
    assert h2.dim == 13


def test_subquotient_coset_vectors_independent_modulo_image():
    rng = random.Random(41)
    for _ in range(20):
        kernel = [tuple(rng.randrange(3) for _ in range(8)) for _ in range(5)]
        image = []
        for _ in range(3):
            combo = [0] * 8
            for v in kernel:
                c = rng.randrange(3)
                combo = [(a + c * b) % 3 for a, b in zip(combo, v)]
            image.append(tuple(combo))
        report = subquotient(3, 8, kernel, image)
        assert report.dim == report.kernel_dim - report.image_dim
        joint = fl.row_space_basis(3, list(report.image_basis) + list(report.coset_basis))
        assert len(joint) == report.image_dim + report.dim



def test_subquotient_cosets_are_the_rref_of_the_residues():
    """The coset rule against reduction: each kernel vector reduced
    against the image, then the RREF of the residues."""
    for p in (2, 3, 5, 7, 11, 13):
        rng = random.Random(f"residues/{p}")
        for _ in range(10):
            kernel = [
                tuple(rng.randrange(p) for _ in range(9)) for _ in range(rng.randrange(1, 7))
            ]
            image = []
            for _ in range(rng.randrange(5)):
                coeffs = [rng.randrange(p) for _ in kernel]
                image.append(
                    tuple(sum(c * v[j] for c, v in zip(coeffs, kernel)) % p for j in range(9))
                )
            report = subquotient(p, 9, kernel, image)
            residues = [rref_residue(p, v, report.image_basis) for v in kernel]
            assert report.coset_basis == tuple(
                fl.row_space_basis(p, [r for r in residues if any(r)])
            )


SEEDED_SHAPES = ((0, 0), (0, 4), (1, 1), (1, 4), (4, 1), (6, 6), (12, 7), (20, 30), (30, 12))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_left_kernel_seeded_with_part_of_the_kernel_returns_the_unseeded_basis(p):
    """Seeded with the RREF of the zero subspace, of a random subspace or
    of the whole left kernel, ``_left_kernel`` returns the unseeded basis."""
    rng = random.Random(f"seeded-left-kernel/{p}")
    for rows, cols in SEEDED_SHAPES:
        for density in (0.0, 0.15, 0.6):
            matrix = [
                {j: rng.randrange(1, p) for j in range(cols) if rng.random() < density}
                for _ in range(rows)
            ]
            if rows:
                matrix[rng.randrange(rows)] = {}
            kernel = fl._left_kernel(p, matrix)
            assert not any(fl._matmul(p, kernel, matrix))
            combos = []
            for _ in range(rng.randrange(1, len(kernel)) if len(kernel) > 1 else 0):
                combo = {}
                for row in kernel:
                    c = rng.randrange(p)
                    for j, x in row.items():
                        combo[j] = (combo.get(j, 0) + c * x) % p
                combos.append({j: x for j, x in combo.items() if x})
            for seed in ([], fl._rref(p, combos)[0], kernel):
                before = [dict(row) for row in seed]
                assert fl._left_kernel(p, matrix, seed) == kernel
                assert seed == before


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_in_span_matches_the_rref_residue_oracle(p):
    rng = random.Random(f"in-span/{p}")
    width, outside = 6, 0
    for count in range(5):  # count 0 is the empty basis
        gens = [[rng.randrange(p) for _ in range(width)] for _ in range(count)]
        basis = fl.row_space_basis(p, gens)
        combinations = []
        for _ in range(5):
            cs = [rng.randrange(p) for _ in gens]
            combinations.append(
                tuple(sum(c * g[j] for c, g in zip(cs, gens)) for j in range(width))
            )
        randoms = [tuple(rng.randrange(-p, 2 * p) for _ in range(width)) for _ in range(5)]
        vectors = combinations + randoms + [(0,) * width]
        expected = [not any(rref_residue(p, v, basis)) for v in vectors]
        assert expected[:5] == [True] * 5 and expected[-1]
        assert fl.in_span(p, basis, vectors) == expected
        outside += expected.count(False)
    assert outside


def test_rank_nullity_on_random_matrices():
    rng = random.Random(7)
    for p in (2, 3, 5):
        for _ in range(10):
            m = random_matrix(rng, p, rng.randrange(1, 7), rng.randrange(1, 7))
            assert len(fl.kernel_basis(m)) + fl.rank(m) == m.rows


def test_exterior_square_of_identity():
    assert fl.exterior_square(identity(3, 4)) == identity(3, 6)


def test_exterior_square_of_listed_s1_is_zero():
    assert fl.exterior_square(load_tables().s1_matrix()).is_zero()


def test_exterior_square_of_diagonal():
    m = fl.FpMatrix.from_rows(3, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    expected = fl.FpMatrix.from_rows(
        3,
        [
            [2, 0, 0, 0, 0, 0],
            [0, 2, 0, 0, 0, 0],
            [0, 0, 2, 0, 0, 0],
            [0, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0, 1],
        ],
    )
    assert fl.exterior_square(m) == expected


def test_exterior_square_is_multiplicative():
    rng = random.Random(11)
    for _ in range(10):
        a = random_matrix(rng, 3, 4, 4)
        b = random_matrix(rng, 3, 4, 4)
        square = fl.exterior_square
        assert square(times(a, b)) == times(square(a), square(b))


def test_exterior_square_requires_square():
    with pytest.raises(NotSquare):
        fl.exterior_square(fl.FpMatrix.from_rows(3, [[0] * 3] * 2))


def test_solve_round_trip():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(rng, 5, rng.randrange(1, 6), rng.randrange(1, 6))
        x = [rng.randrange(5) for _ in range(m.cols)]
        b = tuple(sum(m.entries[i][j] * x[j] for j in range(m.cols)) % 5 for i in range(m.rows))
        sol = solve_sparse(5, m.entries, m.cols, [b])[0]
        assert sol is not None
        assert sol == solve(5, m.entries, m.cols, b)
        check = tuple(
            sum(m.entries[i][j] * sol[j] for j in range(m.cols)) % 5 for i in range(m.rows)
        )
        assert check == b
    assert solve_sparse(3, [[0, 0], [0, 0]], 2, [(1, 0)])[0] is None
    assert solve(3, [[0, 0], [0, 0]], 2, (1, 0)) is None


def test_rref_clears_a_new_pivot_from_an_earlier_pivot_row():
    # both rows lead at column 0; the second reduces to a row leading at
    # column 1, right of the first pivot, whose row must then be cleared there
    rows = [(1, 1, 0), (1, 0, 1)]
    expected = [(1, 0, 1), (0, 1, 4)]
    assert fl.row_space_basis(5, rows) == expected
    assert fl.row_space_basis(5, rows[::-1]) == expected
    reduced, pivots = fl._rref(5, fl._sparse(5, rows))
    assert reduced == [{0: 1, 2: 1}, {1: 1, 2: 4}] and pivots == [0, 1]


def test_results_are_deterministic():
    s = load_tables().s_matrix()
    assert fl.kernel_basis(s) == fl.kernel_basis(s)
    assert fl.row_space_basis(3, zip(*s.entries)) == fl.row_space_basis(
        3, zip(*s.entries)
    )


@pytest.mark.parametrize("p", (0, 4))
def test_from_rows_checks_the_modulus_before_reducing(p):
    with pytest.raises(ValueError, match=f"^modulus must be prime, got {p}$"):
        fl.FpMatrix.from_rows(p, [[2, 0], [0, 1]])


@pytest.mark.parametrize("row", ([1.5, 2.9], ["2", True]))
def test_from_rows_rejects_non_integer_entries(row):
    with pytest.raises(TypeError):
        fl.FpMatrix.from_rows(3, [row])


def test_vectors_of_mixed_length_raise_value_error():
    with pytest.raises(ValueError, match="^vectors of different lengths$"):
        fl.in_span(3, [(1, 0, 0)], [(1,)])
    with pytest.raises(ValueError, match="^vectors of different lengths$"):
        fl.in_span(3, [], [(1, 0), (1,)])
    with pytest.raises(ValueError, match="^vectors of different lengths$"):
        fl.row_space_basis(3, [(1, 0), (0, 1, 1)])
    # validate_basis checks the lengths first, with its own message
    with pytest.raises(ValueError, match="^vector length does not match row count$"):
        validate_basis([(1,) * 9], h_groups(module("lambda1", *b_pair())), 1)


def test_zero_row_matrices_keep_their_column_count():
    empty = fl.FpMatrix(3, 0, 4, ())
    assert (empty.rows, empty.cols, empty.entries) == (0, 4, ())
    assert fl.FpMatrix(3, 2, 3, ((0,) * 3,) * 2) == fl.FpMatrix.from_rows(3, [[0] * 3] * 2)


def test_solve_many_on_a_matrix_without_rows():
    assert solve_sparse(5, [], 3, [(), ()]) == [(0, 0, 0), (0, 0, 0)]
    assert solve_sparse(5, [], 3, [()])[0] == (0, 0, 0)
    assert solve(5, [], 3, ()) == (0, 0, 0)
