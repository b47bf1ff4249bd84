import random

import pytest

from fermat_homology import fp_linalg as fl
from fermat_homology.bsigma import bsigma_p3
from fermat_homology.errors import ArityMismatch, NotInvariant
from fermat_homology.group_ring import GroupRingElement
from fermat_homology.homology import (
    RelativeClass,
    action_matrix,
    boundary_delta,
    h1U_basis,
    h1X_subquotient,
    stab_basis,
)
from fermat_homology.reference_tables import load_tables
from fermat_homology.scalars import GF27, Zmod
from oracles import combination, identity, one_minus, residue_subquotient, solve, times


def monomial_class(n, i, j):
    return RelativeClass(GroupRingElement.monomial(n, 1, (i, j)))


def in_h1u(rc):
    return boundary_delta(rc).is_zero()


def shift_invariant(rc):
    """a_{i+1, j+1} = a_{ij}: the class is fixed by the shift e_0 e_1."""
    return GroupRingElement.monomial(rc.w.n, 1, (1, 1)) * rc.w == rc.w


def test_boundary_of_generator():
    d = boundary_delta(RelativeClass(GroupRingElement.one(3, 1)))
    assert d.r == GroupRingElement.one(3, 0)
    assert d.q == -GroupRingElement.one(3, 0)


def test_boundary_of_shifted_generator():
    d = boundary_delta(monomial_class(3, 1, 0))
    assert d.r == GroupRingElement.monomial(3, 0, (1,))
    assert d.q == -GroupRingElement.one(3, 0)


def test_boundary_kills_the_corner_product():
    n = 4
    one = GroupRingElement.one(n, 1)
    e0 = GroupRingElement.monomial(n, 1, (1, 0))
    e1 = GroupRingElement.monomial(n, 1, (0, 1))
    w = RelativeClass((one - e0) * (one - e1))
    assert boundary_delta(w).is_zero()


def test_membership_examples():
    assert not in_h1u(RelativeClass(GroupRingElement.one(3, 1)))
    v1 = load_tables().v_classes()[0]
    assert in_h1u(v1)
    assert not shift_invariant(h1U_basis(3)[0])


def test_kernel_basis_ranks():
    for n in range(3, 9):
        basis = h1U_basis(n)
        assert len(basis) == (n - 1) ** 2
        assert all(in_h1u(rc) for rc in basis)


def test_pinned_order_matches_listed_classes():
    listed = [rc.w.coeffs for rc in load_tables().v_classes()]
    assert [rc.w.coeffs for rc in h1U_basis(3)] == listed


def test_stabilizer_basis():
    for n in range(3, 9):
        basis = stab_basis(n)
        assert len(basis) == n - 1
        for rc in basis:
            assert in_h1u(rc)
            assert shift_invariant(rc)


def test_stabilizer_contains_diagonal_difference():
    # (1 + ef + e^2f^2) - (f + ef^2 + e^2)
    w = GroupRingElement.from_dict(
        3, 1, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (0, 1): -1, (1, 2): -1, (2, 0): -1}
    )
    vectors = [rc.w.coeffs for rc in stab_basis(3)]
    joint = fl.row_space_basis(3, vectors + [w.coeffs])
    assert len(joint) == len(fl.row_space_basis(3, vectors))


def test_shifts_preserve_kernel_and_stabilizer():
    for n in (3, 4, 5):
        e0 = GroupRingElement.monomial(n, 1, (1, 0))
        e1 = GroupRingElement.monomial(n, 1, (0, 1))
        for rc in h1U_basis(n):
            assert in_h1u(RelativeClass(e0 * rc.w))
            assert in_h1u(RelativeClass(e1 * rc.w))
        for rc in stab_basis(n):
            shifted = RelativeClass((e0 * e1) * rc.w)
            assert in_h1u(shifted) and shift_invariant(shifted)


def test_projective_quotient_dimensions():
    for n in range(3, 9):
        report = h1X_subquotient(n)
        assert report.dim == (n - 1) * (n - 2)
        assert report.kernel_dim == (n - 1) ** 2
        assert report.image_dim == n - 1


def test_quotient_representatives_certificate():
    """The stabilizer basis written in kernel coordinates touches the
    eliminated representatives through an identity block, so the retained
    representatives form a quotient basis over Z/n for every n."""
    for n in range(3, 9):
        basis = h1U_basis(n)
        if n == 3:
            order = [(0, 0), (1, 0), (0, 1), (1, 1)]
        else:
            order = [(i, j) for i in range(n - 1) for j in range(n - 1)]
        position = {pair: idx for idx, pair in enumerate(order)}
        for d, rc in enumerate(stab_basis(n)):
            grid = rc.w.grid()
            coords = [grid[i][j] for i, j in order]
            rebuilt = GroupRingElement.zero(n, 1)
            for c, member in zip(coords, basis):
                rebuilt = rebuilt + member.w.scale(c)
            assert rebuilt == rc.w
            eliminated = [coords[position[(i, 0)]] for i in range(n - 1)]
            assert eliminated == [1 if i == d else 0 for i in range(n - 1)]


def test_quotient_agrees_with_field_subquotient_for_primes():
    for n in (3, 5, 7):
        mine = h1X_subquotient(n)
        field = residue_subquotient(
            n,
            n * n,
            fl.row_space_basis(n, [rc.w.coeffs for rc in h1U_basis(n)]),
            fl.row_space_basis(n, [rc.w.coeffs for rc in stab_basis(n)]),
        )
        assert mine.dim == field.dim
        joint = fl.row_space_basis(
            n, list(field.image_basis) + list(mine.coset_basis)
        )
        assert len(joint) == field.image_dim + mine.dim


def test_boundary_image_rank():
    for n in range(3, 9):
        # explicit free generators of the image with unitriangular pivots
        u = [
            boundary_delta(monomial_class(n, i, 0)) for i in range(n)
        ]  # (e0^i, -1)
        w = []
        for j in range(1, n):
            one = boundary_delta(RelativeClass(GroupRingElement.one(n, 1)))
            shifted = boundary_delta(monomial_class(n, 0, j))
            w.append(
                (
                    one.r - shifted.r,
                    one.q - shifted.q,
                )
            )
        # every generator of the image is an explicit combination u_i - w_j
        for i in range(n):
            for j in range(1, n):
                d = boundary_delta(monomial_class(n, i, j))
                combo_r = u[i].r - w[j - 1][0]
                combo_q = u[i].q - w[j - 1][1]
                assert (d.r, d.q) == (combo_r, combo_q)
        # unitriangular pivot pattern makes the 2n-1 generators a free basis
        for i in range(n):
            vec = tuple(u[i].r.coeffs) + tuple(u[i].q.coeffs)
            assert vec[i] == 1
            assert all(vec[k] == 0 for k in range(n) if k != i)
        for j in range(1, n):
            vec = tuple(w[j - 1][0].coeffs) + tuple(w[j - 1][1].coeffs)
            assert all(vec[k] == 0 for k in range(n))
            assert vec[n + j] % n == 1
            assert all(vec[n + k] == 0 for k in range(1, n) if k != j)


def test_boundary_image_rank_prime_cross_check():
    for n in (3, 5, 7):
        rows = [
            tuple(boundary_delta(monomial_class(n, i, j)).r.coeffs)
            + tuple(boundary_delta(monomial_class(n, i, j)).q.coeffs)
            for i in range(n)
            for j in range(n)
        ]
        assert fl.rank(fl.FpMatrix.from_rows(n, rows)) == 2 * n - 1
        assert (n - 1) ** 2 + (2 * n - 1) == n * n


def test_identity_action_matrix():
    basis = h1U_basis(3)
    assert action_matrix(GroupRingElement.one(3, 1), basis) == identity(3, 4)


def test_action_matrices_match_listed_blocks():
    tables = load_tables()
    basis = h1U_basis(3)
    s1 = one_minus(action_matrix(bsigma_p3(1, 0), basis))
    t1 = one_minus(action_matrix(bsigma_p3(0, 1), basis))
    assert s1 == tables.s1_matrix()
    assert t1.is_zero()


def test_every_b_preserves_the_kernel():
    basis = h1U_basis(3)
    for c0 in range(3):
        for c1 in range(3):
            action_matrix(bsigma_p3(c0, c1), basis)


def test_action_matrix_rejects_non_invariant_span():
    with pytest.raises(NotInvariant):
        action_matrix(bsigma_p3(1, 0), [h1U_basis(3)[0]])


@pytest.mark.parametrize(
    "w",
    [GroupRingElement.one(2, 1), GroupRingElement.one(5, 1), GroupRingElement.one(3, 1, GF27)],
    ids=("exponent-2", "exponent-5", "f27"),
)
def test_action_matrix_checks_the_modulo_classes(w):
    with pytest.raises(ArityMismatch):
        action_matrix(bsigma_p3(1, 0), h1U_basis(3), modulo=[RelativeClass(w)])


def test_action_matrix_over_an_extension_field_is_rejected():
    w = GroupRingElement.one(3, 1, GF27)
    with pytest.raises(ValueError, match=r"^action matrices are defined over Z/3, got "):
        action_matrix(w, [RelativeClass(w)])


def test_norm_identity_on_the_kernel():
    basis = h1U_basis(3)
    a = action_matrix(bsigma_p3(1, 0), basis)
    assert combination((1, identity(3, 4)), (1, a), (1, times(a, a))).is_zero()


def test_quotient_action_is_well_defined():
    rng = random.Random(3)
    report = h1X_subquotient(3)
    reps = [
        RelativeClass(GroupRingElement(3, 1, Zmod(3), tuple(v)))
        for v in report.coset_basis
    ]
    stab = stab_basis(3)
    base = action_matrix(bsigma_p3(1, 0), reps, modulo=stab)
    for _ in range(10):
        perturbed = [
            RelativeClass(rc.w + stab[rng.randrange(2)].w.scale(rng.randrange(3)))
            for rc in reps
        ]
        assert action_matrix(bsigma_p3(1, 0), perturbed, modulo=stab) == base


def action_matrix_one_solve_per_vector(b, basis, modulo=None):
    """Reference action matrix: one Gauss-Jordan solve (the oracle) for
    each basis vector's image."""
    n = b.n
    columns = [rc.w.coeffs for rc in basis] + [rc.w.coeffs for rc in modulo or []]
    system = list(zip(*columns))
    rows = []
    for rc in basis:
        x = solve(n, system, len(columns), (b * rc.w).coeffs)
        assert x is not None
        rows.append(x[: len(basis)])
    return fl.FpMatrix.from_rows(n, rows)


def natural_generators(n):
    return [
        GroupRingElement.monomial(n, 1, (1, 0)),
        GroupRingElement.monomial(n, 1, (0, 1)),
        GroupRingElement.monomial(n, 1, (2, 1)),
    ]


@pytest.mark.parametrize("n", [5, 7, 11])
def test_batched_action_matrix_matches_one_solve_per_vector_on_h1u(n):
    basis = h1U_basis(n)
    for b in natural_generators(n):
        assert action_matrix(b, basis) == action_matrix_one_solve_per_vector(b, basis)


def test_batched_action_matrix_matches_one_solve_per_vector_on_h1x():
    for n in (5, 11):
        reps = [
            RelativeClass(GroupRingElement(n, 1, Zmod(n), tuple(v)))
            for v in h1X_subquotient(n).coset_basis
        ]
        stab = stab_basis(n)
        for b in natural_generators(n):
            expected = action_matrix_one_solve_per_vector(b, reps, modulo=stab)
            assert action_matrix(b, reps, modulo=stab) == expected


def test_batched_action_matrix_rejects_an_image_outside_the_span():
    # the span of all corner classes but the last is not e_0-invariant
    basis = h1U_basis(5)[:-1]
    with pytest.raises(NotInvariant):
        action_matrix(GroupRingElement.monomial(5, 1, (1, 0)), basis)


def non_monomial_generators(n):
    rng = random.Random(f"non-monomial/{n}")
    dense = {(i, j): rng.randrange(n) for i in range(n) for j in range(n)}
    sparse = {(0, 0): 2, (1, 0): 1, (2, 3): n - 1, (1, 1): 3}
    # a table with entries >= n and negative ones, stored without reduction
    unreduced = [rng.choice([0, n, -n, n + 1, 3 * n - 2, -1]) for _ in range(n * n)]
    return [GroupRingElement.from_dict(n, 1, c) for c in (dense, sparse)] + [
        GroupRingElement(n, 1, Zmod(n), tuple(unreduced))
    ]


@pytest.mark.parametrize("n", [5, 7])
def test_action_matrix_of_a_non_monomial_element_on_h1u(n):
    basis = h1U_basis(n)
    for b in non_monomial_generators(n):
        assert action_matrix(b, basis) == action_matrix_one_solve_per_vector(b, basis)


@pytest.mark.parametrize("n", [5, 7])
def test_action_matrix_of_a_non_monomial_element_on_h1x(n):
    reps = [
        RelativeClass(GroupRingElement(n, 1, Zmod(n), tuple(v)))
        for v in h1X_subquotient(n).coset_basis
    ]
    stab = stab_basis(n)
    for b in non_monomial_generators(n):
        expected = action_matrix_one_solve_per_vector(b, reps, modulo=stab)
        assert action_matrix(b, reps, modulo=stab) == expected


@pytest.mark.parametrize("basis", [h1U_basis(4), []])
def test_action_matrix_rejects_a_composite_modulus(basis):
    with pytest.raises(ValueError, match=r"^modulus must be prime, got 4$"):
        action_matrix(GroupRingElement.monomial(4, 1, (1, 0)), basis)


def test_action_matrix_on_an_empty_basis_is_zero_by_zero():
    b = GroupRingElement.monomial(5, 1, (1, 0))
    empty = fl.FpMatrix(5, 0, 0, ())
    assert action_matrix(b, []) == empty
    assert action_matrix(b, [], modulo=stab_basis(5)) == empty


@pytest.mark.parametrize(
    "b, message",
    [
        (GroupRingElement.monomial(5, 0, (1,)), "(n=5, m=0) vs (n=5, m=1)"),
        (GroupRingElement.monomial(5, 2, (1, 0, 0)), "(n=5, m=2) vs (n=5, m=1)"),
        (
            GroupRingElement.monomial(3, 1, (1, 0), ring=GF27),
            "(n=3, m=1, ring=PrimeExtensionField(p=3, modulus=(2, 2, 0, 1))) vs "
            "(n=3, m=1, ring=Zmod(n=3))",
        ),
    ],
)
def test_action_matrix_rejects_an_incompatible_element(b, message):
    with pytest.raises(ArityMismatch) as info:
        action_matrix(b, h1U_basis(b.n))
    assert str(info.value) == f"incompatible elements: {message}"
    # no class is acted on, so an empty basis still gives the 0 x 0 matrix
    assert action_matrix(b, []) == fl.FpMatrix(b.n, 0, 0, ())
