import copy
import itertools
import random
import re
import types

import pytest

from fermat_homology import cohomology
from fermat_homology import fp_linalg as fl
from fermat_homology.bsigma import bsigma_p3
from fermat_homology.cohomology import (
    CohomologyGroups,
    GModule,
    _differential,
    _one_minus,
    h_groups,
    module,
    validate_basis,
    wedge_module,
)
from fermat_homology.errors import ArityMismatch, ContainmentViolation, InvalidAction
from fermat_homology.group_ring import (
    GroupRingElement,
    annihilator,
    ideal_span,
    multiplication_matrix,
)
from fermat_homology.homology import (
    RelativeClass,
    action_matrix,
    h1U_basis,
    h1X_subquotient,
    stab_basis,
)
from fermat_homology.reference_tables import (
    ReferenceTables,
    load_tables,
    parse_element,
    parse_v_combination,
)
from fermat_homology.scalars import Zmod
from oracles import (
    bar_cohomology_trivial,
    closure_rank,
    combination,
    degree_one_coboundary,
    dense_complex,
    identity,
    matrix_combination,
    matrix_product,
    one_minus,
    row_times,
    residue_subquotient,
    rref_residue,
    solve,
    times,
    unit_rows,
)


KINDS = ("lambda1", "h1u", "h1x")


def b_pair():
    """sigma and tau as the paper lets them act at p = 3, through their B
    multipliers."""
    return bsigma_p3(1, 0), bsigma_p3(0, 1)


def natural_pair(p):
    """e_0 and e_1, the multipliers of the natural action."""
    return GroupRingElement.monomial(p, 1, (1, 0)), GroupRingElement.monomial(p, 1, (0, 1))


def paper_modules():
    """The four modules of the paper at p = 3: the three kinds under B, and
    the wedge module."""
    return [*(module(kind, *b_pair()) for kind in KINDS), wedge_module()]


def package_complex(mod, top=2):
    """d^0, ..., d^top of the package's complex: ``_differential``
    densified into matrices."""
    p, dim = mod.p, mod.dim
    shapes = [((k + 1) * dim, (k + 2) * dim) for k in range(top + 1)]
    return [
        fl.FpMatrix(p, rows, cols, fl._dense(_differential(mod, k), cols))
        for k, (rows, cols) in enumerate(shapes)
    ]


def trivial_module(p, dim):
    ident = identity(p, dim)
    return GModule(p, dim, ident, ident)


def random_commuting_module(rng, p=3, dim=6):
    """Random order-p commuting pair: conjugates of I + N and a polynomial
    in N for a three-block strictly upper triangular nilpotent N (two
    blocks for p = 2, so that N^2 = 0 and I + N has order 2)."""
    cut1, cut2 = (dim // 3, 2 * dim // 3) if p > 2 else (dim // 2, dim)
    block = lambda i: 0 if i < cut1 else (1 if i < cut2 else 2)
    nil = [
        [rng.randrange(p) if block(j) > block(i) else 0 for j in range(dim)]
        for i in range(dim)
    ]
    n_mat = fl.FpMatrix.from_rows(p, nil)
    ident = identity(p, dim)
    act_a = combination((1, ident), (1, n_mat))
    act_b = combination(
        (1, ident), (rng.randrange(p), n_mat), (rng.randrange(p), times(n_mat, n_mat))
    )
    return random_conjugate(rng, GModule(p, dim, act_a, act_b))


def random_conjugate(rng, mod):
    """The module in a random basis: both actions conjugated by one random
    invertible matrix."""
    p, dim = mod.p, mod.dim
    while True:
        cand = fl.FpMatrix.from_rows(
            p, [[rng.randrange(p) for _ in range(dim)] for _ in range(dim)]
        )
        if fl.rank(cand) == dim:
            break
    inverse_cols = [
        solve(p, cand.entries, dim, [int(i == j) for i in range(dim)]) for j in range(dim)
    ]
    cand_inv = fl.FpMatrix.from_rows(p, list(zip(*inverse_cols)))
    return GModule(
        p,
        dim,
        times(times(cand_inv, mod.act_sigma), cand),
        times(times(cand_inv, mod.act_tau), cand),
    )


def test_gmodule_rejects_non_commuting_actions():
    a = fl.FpMatrix.from_rows(3, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    b = fl.FpMatrix.from_rows(3, [[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    with pytest.raises(InvalidAction):
        GModule(3, 3, a, b)


def test_gmodule_rejects_wrong_order():
    a = fl.FpMatrix.from_rows(3, [[2]])
    with pytest.raises(InvalidAction):
        GModule(3, 1, a, identity(3, 1))


@pytest.mark.parametrize("p", (0, 1, 4, 9))
def test_gmodule_over_a_non_prime_modulus_is_rejected(p):
    """No matrix over Z/p exists for p not prime, and matrices over another
    modulus are the wrong actions."""
    with pytest.raises(ValueError, match=f"^modulus must be prime, got {p}$"):
        GModule(p, 1, fl.FpMatrix(p, 1, 1, ((1,),)), fl.FpMatrix(p, 1, 1, ((1,),)))
    ident = identity(3, 1)
    with pytest.raises(InvalidAction, match="^sigma action has the wrong shape or modulus$"):
        GModule(p, 1, ident, ident)


def test_gmodule_reads_p_as_an_integer():
    """p = 3.0 equals the actions' p = 3, so it is read through
    operator.index before the two are compared."""
    ident = identity(3, 1)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        GModule(3.0, 1, ident, ident)


@pytest.mark.parametrize("sigma", [((1, 4), (0, 1)), ((4, 3), (3, 4)), ((-2, 1), (0, 7))])
def test_gmodule_reduces_the_entries_of_a_raw_matrix(sigma):
    """FpMatrix's constructor keeps the entries it is given; the module
    made from them has the blocks and the cohomology of the reduced one."""
    ident = identity(3, 2)
    raw = GModule(3, 2, fl.FpMatrix(3, 2, 2, sigma), ident)
    reduced = GModule(3, 2, fl.FpMatrix.from_rows(3, sigma), ident)
    assert raw.blocks == reduced.blocks
    assert all(0 <= x < 3 for block in raw.blocks for row in block.entries for x in row)
    assert h_groups(raw) == h_groups(reduced)


SHIFT_UP = [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
SHIFT_DOWN = [[1, 0, 0], [1, 1, 0], [0, 1, 1]]
SWAP = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]
SINGULAR = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("p", (5, 7))
@pytest.mark.parametrize(
    "sigma, tau, message",
    [
        (SWAP, None, "sigma action does not have order dividing p"),
        (None, SWAP, "tau action does not have order dividing p"),
        ([[2, 0, 0], [0, 2, 0], [0, 0, 2]], None, "sigma action does not have order dividing p"),
        (None, [[1, 0, 0], [0, 2, 0], [0, 0, 1]], "tau action does not have order dividing p"),
        (SINGULAR, None, "sigma action is not invertible"),
        (None, SINGULAR, "tau action is not invertible"),
        (SHIFT_UP, SHIFT_DOWN, "the two actions do not commute"),
    ],
)
def test_gmodule_rejections_at_larger_primes(p, sigma, tau, message):
    sigma, tau = (
        identity(p, 3) if rows is None else fl.FpMatrix.from_rows(p, rows)
        for rows in (sigma, tau)
    )
    with pytest.raises(InvalidAction, match=f"^{message}$"):
        GModule(p, 3, sigma, tau)


def jordan_block(p, size):
    """The unipotent Jordan block I + N of the given size."""
    return fl.FpMatrix.from_rows(
        p, [[1 if j in (i, i + 1) else 0 for j in range(size)] for i in range(size)]
    )


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_order_check_at_its_boundary(p):
    """(J - 1)^p = 0 for the Jordan block J of size p, so J has order p and
    a nonzero norm (J - 1)^(p-1); at size p + 1, J has order p^2."""
    block = jordan_block(p, p)
    mod = GModule(p, p, block, identity(p, p))
    _, y, _ = package_complex(mod)
    assert any(any(row[:p]) for row in y.entries[:p])
    big = jordan_block(p, p + 1)
    ident = identity(p, p + 1)
    with pytest.raises(InvalidAction, match="^sigma action does not have order dividing p$"):
        GModule(p, p + 1, big, ident)
    with pytest.raises(InvalidAction, match="^tau action does not have order dividing p$"):
        GModule(p, p + 1, ident, big)
    singular = fl.FpMatrix.from_rows(p, block.entries[:-1] + ((0,) * p,))
    with pytest.raises(InvalidAction, match="^sigma action is not invertible$"):
        GModule(p, p, singular, identity(p, p))


def reference_h_groups(mod):
    """The cohomology as a composition of the public dense functions on
    the matrices of the oracle `dense_complex`, with the cosets taken by
    reduction."""
    p, dim = mod.p, mod.dim
    x, y, z = (fl.FpMatrix.from_rows(p, d) for d in dense_complex(mod))
    invariants = tuple(fl.kernel_basis(x))
    h0 = fl.SubquotientReport(dim, invariants, (), invariants)
    h1 = residue_subquotient(
        p, 2 * dim, fl.kernel_basis(y), fl.row_space_basis(p, x.entries)
    )
    h2 = residue_subquotient(
        p, 3 * dim, fl.kernel_basis(z), fl.row_space_basis(p, y.entries)
    )
    return CohomologyGroups(p, h0, h1, h2)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_h_groups_matches_the_public_functions_on_random_modules(p):
    rng = random.Random(f"reference/{p}")
    for dim in range(1, 13):
        mod = random_commuting_module(rng, p=p, dim=dim)
        assert h_groups(mod) == reference_h_groups(mod)


def test_h_groups_matches_the_public_functions_on_the_paper_modules():
    for mod in paper_modules():
        assert h_groups(mod) == reference_h_groups(mod)


def test_h_groups_records_the_prime_of_the_module():
    for mod in paper_modules():
        assert h_groups(mod).p == mod.p == 3
    mod = random_commuting_module(random.Random("record-p/5"), p=5)
    assert h_groups(mod).p == 5


@pytest.mark.parametrize("p", (3, 5, 7))
def test_validate_basis_reads_the_prime_from_the_groups(p):
    """The plain sum of two kernel vectors has entries up to 2(p - 1), so
    it is a cocycle only when read modulo the p of the groups."""
    rng = random.Random(f"wrap/{p}")
    mod = module("lambda1", *b_pair()) if p == 3 else random_commuting_module(rng, p=p)
    groups = h_groups(mod)
    pairs = itertools.combinations(groups.h1.kernel_basis, 2)
    sums = [tuple(x + y for x, y in zip(u, v)) for u, v in pairs]
    wrapping = [v for v in sums if max(v) >= p]
    assert wrapping
    assert validate_basis(wrapping, groups, 1).memberships == (True,) * len(wrapping)


def assert_differential_matches_the_dense_oracle(mod, top=4):
    dim = mod.dim
    for k, d in enumerate(dense_complex(mod, top)):
        assert [list(row) for row in fl._dense(_differential(mod, k), (k + 2) * dim)] == d
        assert len(d) == (k + 1) * dim


def test_differential_matches_the_dense_oracle_on_the_paper_modules():
    for mod in paper_modules():
        assert_differential_matches_the_dense_oracle(mod)


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_differential_matches_the_dense_oracle_on_random_modules(p):
    rng = random.Random(f"dense-oracle/{p}")
    for dim in (1, 3, 6):
        assert_differential_matches_the_dense_oracle(random_commuting_module(rng, p=p, dim=dim))


def package_names(func, seen=()):
    """The names of the package that ``func`` or a function it calls reads
    from its module's globals."""
    found, codes = set(), [func.__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in code.co_names:
            value = func.__globals__.get(name)
            if isinstance(value, types.FunctionType) and value not in seen:
                found |= package_names(value, (*seen, func))
            elif value is not None and "fermat_homology" in (
                getattr(value, "__module__", None) or getattr(value, "__name__", "")
            ):
                found.add(name)
    return found


def test_the_dense_oracles_use_nothing_of_the_package():
    assert package_names(dense_complex) == package_names(solve) == set()
    assert package_names(matrix_product) == package_names(matrix_combination) == set()
    assert package_names(unit_rows) == set()
    assert package_names(bar_cohomology_trivial) == set()
    # the walk does see a package name where one is read
    assert package_names(random_commuting_module) >= {"fl", "GModule"}


def broken_differential(degree):
    """``_differential`` with 1 added to column 0 of one row of d^degree,
    a row whose index is a nonzero column of d^(degree-1), so that
    d^(degree-1) d^degree != 0."""

    def differential(mod, k):
        d = _differential(mod, k)
        if k == degree:
            i = min(j for row in _differential(mod, k - 1) for j in row)
            value = (d[i].get(0, 0) + 1) % mod.p
            if value:
                d[i][0] = value
            else:
                del d[i][0]
        return d

    return differential


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize(
    "build",
    (
        lambda: module("lambda1", *b_pair()),
        lambda: module("h1u", *b_pair()),
        lambda: module("h1u", *natural_pair(5)),
        lambda: module("h1u", *natural_pair(13)),
    ),
    ids=("lambda1", "h1u", "h1u-natural-5", "h1u-natural-13"),
)
def test_a_broken_complex_raises_containment_violation(monkeypatch, build, degree):
    mod = build()
    differential = broken_differential(degree)
    product = fl._matmul(mod.p, differential(mod, degree - 1), differential(mod, degree))
    assert any(product)
    monkeypatch.setattr(cohomology, "_differential", differential)
    message = "^image generators do not lie in the kernel span$"
    with pytest.raises(ContainmentViolation, match=message):
        h_groups(mod)
    with pytest.raises(ContainmentViolation, match=message):
        validate_basis([], h_groups(mod), degree)

@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_norm_equals_the_sum_of_powers(p):
    """The norm blocks U (top left of Y) and V (bottom right) are the sums
    1 + a + ... + a^(p-1) of the two actions, and ``GModule.blocks`` hands
    out 1 - sigma, 1 - tau and those two sums."""
    mod = random_commuting_module(random.Random(f"norm/{p}"), p=p)
    dim = mod.dim
    _, y, _ = package_complex(mod)
    blocks = (
        [row[:dim] for row in y.entries[:dim]],
        [row[2 * dim :] for row in y.entries[dim:]],
    )
    norms = []
    for act, block in zip((mod.act_sigma, mod.act_tau), blocks):
        total = power = unit_rows(dim)
        for _ in range(p - 1):
            power = matrix_product(p, power, act.entries)
            total = matrix_combination(p, [(1, total), (1, power)])
        assert [list(row) for row in block] == total
        norms.append(fl.FpMatrix.from_rows(p, total))
    assert mod.blocks == (one_minus(mod.act_sigma), one_minus(mod.act_tau), *norms)


@pytest.mark.parametrize("n", (0, 1, 4, 9))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 11))
def test_one_minus_is_the_sparse_form_of_the_dense_oracle(p, n):
    """Entries from [-2p, 3p), unreduced and negative, and every other
    diagonal entry congruent to 1, so that 1 - a_ii vanishes there and
    must be left out of its row, not stored as 0."""
    rng = random.Random(f"one-minus/{p}/{n}")
    entries = [[rng.randrange(-2 * p, 3 * p) for _ in range(n)] for _ in range(n)]
    for i in range(0, n, 2):
        entries[i][i] = 1 + p * rng.randrange(-2, 3)
    act = fl.FpMatrix(p, n, n, tuple(map(tuple, entries)))
    expected = [{j: x for j, x in enumerate(row) if x} for row in one_minus(act).entries]
    assert _one_minus(act) == expected
    assert all(i not in row for i, row in enumerate(expected) if i % 2 == 0)


def test_trivial_module_complex_is_zero():
    x, y, z = package_complex(trivial_module(3, 1))
    assert x.is_zero() and y.is_zero() and z.is_zero()


def test_group_ring_blocks_match_listed_matrices():
    tables = load_tables()
    x, y, z = package_complex(module("lambda1", *b_pair()))
    s, t = tables.s_matrix(), tables.t_matrix()
    assert [list(row[:9]) for row in x.entries] == [list(r) for r in s.entries]
    assert [list(row[9:]) for row in x.entries] == [list(r) for r in t.entries]
    # norm blocks inside Y: all-ones for sigma, zero for tau
    assert [list(row[:9]) for row in y.entries[:9]] == [[1] * 9] * 9
    assert [list(row[18:]) for row in y.entries[9:]] == [[0] * 9] * 9
    # middle column of Y carries T then -S
    assert [list(row[9:18]) for row in y.entries[:9]] == [list(r) for r in t.entries]
    assert [list(row[9:18]) for row in y.entries[9:]] == [
        [(-v) % 3 for v in r] for r in s.entries
    ]
    assert z.rows == 27 and z.cols == 36


def test_affine_homology_blocks():
    tables = load_tables()
    x, y, _ = package_complex(module("h1u", *b_pair()))
    assert [list(row[:4]) for row in x.entries] == [list(r) for r in tables.s1_matrix().entries]
    assert [list(row[4:]) for row in x.entries] == [[0] * 4] * 4
    assert all(all(v == 0 for v in row[:4]) for row in y.entries[:4])


def test_complex_property_on_random_modules():
    rng = random.Random(2024)
    for _ in range(20):
        mod = random_commuting_module(rng)
        x, y, z = package_complex(mod)
        assert times(x, y).is_zero()
        assert times(y, z).is_zero()


TOP_DEGREE = 4


def dims_up_to(mod, top=TOP_DEGREE):
    """dim H^k for k <= top, straight from the differentials: d^k leaves
    M^(k+1), so dim H^k = (k+1) dim M - rank d^k - rank d^(k-1)."""
    ranks = [len(fl._rref(mod.p, _differential(mod, k))[0]) for k in range(top + 1)]
    return tuple(
        (k + 1) * mod.dim - ranks[k] - (ranks[k - 1] if k else 0) for k in range(top + 1)
    )


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_differentials_compose_to_zero_beyond_degree_two(p):
    rng = random.Random(f"differentials/{p}")
    for dim in (1, 4, 7):
        mod = random_commuting_module(rng, p=p, dim=dim)
        maps = [_differential(mod, k) for k in range(TOP_DEGREE + 2)]
        for k, d in enumerate(maps):
            assert len(d) == (k + 1) * dim
            assert all(0 <= col < (k + 2) * dim for row in d for col in row)
        for k in range(TOP_DEGREE + 1):
            assert not any(fl._matmul(p, maps[k], maps[k + 1]))


@pytest.mark.parametrize("p", (2, 3, 5, 7, 11, 13))
def test_trivial_module_follows_kunneth_beyond_degree_two(p):
    assert dims_up_to(trivial_module(p, 1)) == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("p", (3, 5, 7, 11, 13))
def test_natural_action_beyond_degree_two(p):
    assert dims_up_to(module("h1u", *natural_pair(p))) == (1, 2, 3, 4, 5)
    assert dims_up_to(module("h1x", *natural_pair(p))) == (1, 2, 3, 4, 5)
    assert dims_up_to(module("lambda1", *natural_pair(p))) == (1, 0, 0, 0, 0)


@pytest.mark.parametrize("p", (5, 7))
def test_cohomology_does_not_depend_on_the_basis(p):
    """H1(U) under the natural action in a random basis, where the action
    matrices have dense rows, has the cohomology of the natural basis."""
    natural = module("h1u", *natural_pair(p))
    conjugated = random_conjugate(random.Random(f"basis/{p}"), natural)
    assert conjugated != natural
    assert h_groups(conjugated).dims() == h_groups(natural).dims() == (1, 2, 3)


def test_paper_modules_beyond_degree_two():
    assert dims_up_to(module("lambda1", *b_pair())) == (5, 9, 13, 17, 21)
    assert dims_up_to(module("h1u", *b_pair())) == (3, 6, 9, 12, 15)


def test_module_under_b_gives_the_paper_actions():
    """Lambda_1 acted on by 1 - S and 1 - T of the tables, H1(U) by 1 - S1
    and the identity, and H1(X) by the identity twice."""
    tables = load_tables()
    lambda1, h1u, h1x = (module(kind, *b_pair()) for kind in KINDS)
    assert one_minus(lambda1.act_sigma) == tables.s_matrix()
    assert one_minus(lambda1.act_tau) == tables.t_matrix()
    assert h1u.act_sigma.entries == ((2, 1, 1, 1), (2, 0, 2, 2), (2, 2, 0, 2), (1, 1, 1, 2))
    assert h1u.act_tau == identity(3, 4)
    assert h1x.act_sigma == h1x.act_tau == identity(3, 2)


@pytest.mark.parametrize("p", (3, 5, 7))
def test_module_under_the_natural_action_multiplies_by_e0_and_e1(p):
    e0, e1 = natural_pair(p)
    basis = h1U_basis(p)
    lambda1 = GModule(p, p * p, multiplication_matrix(e0), multiplication_matrix(e1))
    h1u = GModule(p, len(basis), action_matrix(e0, basis), action_matrix(e1, basis))
    assert module("lambda1", e0, e1) == lambda1
    assert module("h1u", e0, e1) == h1u


@pytest.mark.parametrize(
    "p, pair", ((3, b_pair()), (5, natural_pair(5)), (7, natural_pair(7))), ids=("B-3", "e-5", "e-7")
)
def test_h1x_module_acts_on_the_printed_coset_basis(p, pair):
    """The classes re-wrapped from the coset vectors that
    ``h1X_subquotient`` prints, acted on modulo ``stab_basis``."""
    cosets = [
        RelativeClass(GroupRingElement(p, 1, Zmod(p), tuple(v)))
        for v in h1X_subquotient(p).coset_basis
    ]
    actions = [action_matrix(b, cosets, modulo=stab_basis(p)) for b in pair]
    assert module("h1x", *pair) == GModule(p, len(cosets), *actions)


@pytest.mark.parametrize(
    "kinds, sigma, tau, error, match",
    (
        (("wedge", "h1y"), *b_pair(), ValueError, "^unknown module"),
        (KINDS, *[GroupRingElement.monomial(3, 0, (1,))] * 2, ArityMismatch, "two-variable"),
        (KINDS, *[GroupRingElement.monomial(3, 2, (1, 0, 0))] * 2, ArityMismatch, "two-variable"),
        (KINDS, bsigma_p3(1, 0), natural_pair(5)[1], ArityMismatch, "^incompatible"),
    ),
    ids=("unknown-kind", "one-variable", "three-variable", "p-3-and-5"),
)
def test_module_rejects_its_inputs(kinds, sigma, tau, error, match):
    """Over Lambda_0 at p = 3, multiplication would give a 3-dimensional
    module without an error, so the arity is checked before any action."""
    for kind in kinds:
        with pytest.raises(error, match=match):
            module(kind, sigma, tau)


def test_dimensions_for_the_standard_modules():
    assert h_groups(module("lambda1", *b_pair())).dims() == (5, 9, 13)
    assert h_groups(module("h1u", *b_pair())).dims() == (3, 6, 9)
    assert h_groups(wedge_module()).dims() == (6, 12, 18)
    assert h_groups(module("h1x", *b_pair())).dims() == (2, 4, 6)


def test_invariants_of_the_group_ring_by_exhaustion():
    # independent count of simultaneous solutions of vS = 0 and vT = 0
    tables = load_tables()
    s, t = tables.s_matrix(), tables.t_matrix()
    count = 0
    for v in itertools.product(range(3), repeat=9):
        if not any(row_times(v, s)) and not any(row_times(v, t)):
            count += 1
    assert count == 3**5
    assert h_groups(module("lambda1", *b_pair())).h0.dim == 5


def test_trivial_module_matches_bar_complex_oracle():
    groups = h_groups(trivial_module(3, 1))
    assert groups.dims() == (1, 2, 3)
    assert bar_cohomology_trivial(3) == (2, 3)


def test_free_module_has_no_higher_cohomology():
    group = list(itertools.product(range(3), repeat=2))
    index = {g: i for i, g in enumerate(group)}

    def translation(shift):
        rows = []
        for g in group:
            target = ((g[0] + shift[0]) % 3, (g[1] + shift[1]) % 3)
            rows.append([1 if j == index[target] else 0 for j in range(9)])
        return fl.FpMatrix.from_rows(3, rows)

    mod = GModule(3, 9, translation((1, 0)), translation((0, 1)))
    groups = h_groups(mod)
    assert groups.h1.dim == 0
    assert groups.h2.dim == 0
    assert groups.h0.dim == 1


def test_annihilator_dimensions():
    one = GroupRingElement.one(3, 1)
    b_sigma, b_tau = bsigma_p3(1, 0), bsigma_p3(0, 1)
    assert len(annihilator(one + b_tau + b_tau * b_tau)) == 9
    assert len(annihilator(one + b_sigma + b_sigma * b_sigma)) == 8
    assert len(annihilator(one - b_sigma)) == 5
    # the kernel of the second-generator block, cross-checked against both
    # the listed matrix and its ideal description
    t_matrix = load_tables().t_matrix()
    expected_dim = 9 - closure_rank(3, t_matrix.entries)
    ann = annihilator(one - b_tau)
    assert expected_dim == 7
    assert len(ann) == expected_dim
    assert ann == fl.kernel_basis(t_matrix)


def test_annihilators_match_ideal_descriptions():
    one = GroupRingElement.one(3, 1)
    e = GroupRingElement.monomial(3, 1, (1, 0))
    f = GroupRingElement.monomial(3, 1, (0, 1))
    assert annihilator(one - bsigma_p3(1, 0)) == ideal_span(
        [one + e + e * e, one + f + f * f]
    )
    assert annihilator(one - bsigma_p3(0, 1)) == ideal_span([e - f, one + f + f * f])


def test_listed_bases_for_the_group_ring_validate():
    """The printed degree-1 list fails at its misprinted entry 2 only; with
    the recorded reading substituted it validates."""
    tables = load_tables()
    groups = h_groups(module("lambda1", *b_pair()))
    printed = validate_basis(tables.vectors("h1_lambda1"), groups, 1)
    assert printed.memberships == (True, False) + (True,) * 7
    degree_one = validate_basis(tables.read_vectors("h1_lambda1"), groups, 1)
    assert degree_one.all_pass
    assert degree_one.expected_dim == 9
    degree_two = validate_basis(tables.vectors("h2_lambda1"), groups, 2)
    assert degree_two.all_pass
    assert degree_two.expected_dim == 13


def test_misprint_reading_is_a_cocycle():
    [finding] = load_tables().findings("h1_lambda1")
    _, y, _ = package_complex(module("lambda1", *b_pair()))
    assert not any(row_times(finding.reading, y))


def test_listed_degree_one_affine_basis_status():
    """Documents the two source entries whose coboundaries are nonzero,
    that they are the recorded findings, and that the recorded
    sign-corrected readings give a valid basis."""
    tables = load_tables()
    groups = h_groups(module("h1u", *b_pair()))
    val = validate_basis(tables.vectors("h1_h1u"), groups, 1)
    assert val.memberships == (True, True, True, True, False, False)
    assert [f.index for f in tables.findings("h1_h1u")] == [4, 5]
    assert validate_basis(tables.read_vectors("h1_h1u"), groups, 1).all_pass


def test_listed_degree_two_affine_basis_validates():
    tables = load_tables()
    assert validate_basis(tables.vectors("h2_h1u"), h_groups(module("h1u", *b_pair())), 2).all_pass


def test_listed_kernel_and_image_vectors_status():
    """The 13 kernel vectors are all cocycles; of the four listed image
    vectors three lie in the transpose-convention image and one lies in
    neither candidate space."""
    tables = load_tables()
    x, y, _ = package_complex(module("lambda1", *b_pair()))
    for v in tables.vectors("kernel_y_lambda1"):
        assert not any(row_times(v, y))
    image = fl.row_space_basis(3, x.entries)
    listed = tables.vectors("image_x_lambda1")
    assert [not any(rref_residue(3, v, image)) for v in listed] == [False, False, False, False]
    stack = fl.FpMatrix.from_rows(
        3, list(tables.s_matrix().entries) + list(tables.t_matrix().entries)
    )
    transpose_image = fl.row_space_basis(3, zip(*stack.entries))
    in_transpose = [not any(rref_residue(3, v, transpose_image)) for v in listed]
    assert in_transpose == [True, False, True, True]
    assert len(image) == 4


def test_degree_one_coboundary_oracle_matches_the_complex():
    """The table-driven oracle and Y of the package's complex agree on every
    listed degree-1 vector, every recorded reading and random cochains."""
    tables = load_tables()
    rng = random.Random(31)
    for key, mod in (
        ("kernel_y_lambda1", module("lambda1", *b_pair())),
        ("image_x_lambda1", module("lambda1", *b_pair())),
        ("h1_lambda1", module("lambda1", *b_pair())),
        ("h1_h1u", module("h1u", *b_pair())),
    ):
        _, y, _ = package_complex(mod)
        vectors = tables.vectors(key) + tables.read_vectors(key)
        vectors += [tuple(rng.randrange(3) for _ in range(2 * mod.dim)) for _ in range(50)]
        for v in vectors:
            assert degree_one_coboundary(tables.raw, key, v) == row_times(v, y)


def test_recorded_findings_match_the_printed_lists():
    tables = load_tables()
    # a new finding must be a conscious change, never a way to hide a
    # regression of the program
    assert [(f.key, f.index, f.reading is None) for f in tables.findings()] == [
        ("image_x_lambda1", 1, True),
        ("h1_h1u", 4, False),
        ("h1_h1u", 5, False),
        ("h1_lambda1", 1, False),
    ]
    raw = copy.deepcopy(tables.raw)
    raw["findings"][1]["printed"] = ["0", "v2 + v4"]
    with pytest.raises(ValueError):
        ReferenceTables(raw).findings()


def test_a_list_corrected_in_place_no_longer_matches_its_finding():
    raw = copy.deepcopy(load_tables().raw)
    raw["h1_lambda1"][1] = ["ef^2 - e^2f", "0"]
    with pytest.raises(ValueError, match="does not match the printed entry"):
        ReferenceTables(raw).findings("h1_lambda1")


@pytest.mark.parametrize("expr", ["x1", "e + y", "2w", "v1"])
def test_a_monomial_expression_with_an_unknown_symbol_is_rejected(expr):
    with pytest.raises(ValueError, match="^unexpected symbol in monomial expression: "):
        parse_element(expr)


@pytest.mark.parametrize("expr, term", [("v5", "v5"), ("v1 + 2w", "+2w"), ("v1 - v12", "-v12")])
def test_a_bad_v_term_is_rejected_whole(expr, term):
    with pytest.raises(ValueError, match=f"^cannot parse v-combination term: {re.escape(term)}$"):
        parse_v_combination(expr)


@pytest.mark.parametrize(
    "parse, expr",
    [
        (parse_element, "e--f"),
        (parse_element, "e-"),
        (parse_element, "-"),
        (parse_element, "e+-f"),
        (parse_v_combination, "v1--v2"),
        (parse_v_combination, "v1-"),
    ],
)
def test_a_sign_with_nothing_after_it_is_rejected(parse, expr):
    with pytest.raises(ValueError, match=f"^sign with no term after it in: {re.escape(expr)}$"):
        parse(expr)


def test_monomial_expressions_parse_factor_by_factor():
    e, f = (GroupRingElement.monomial(3, 1, exps) for exps in ((1, 0), (0, 1)))
    one = GroupRingElement.one(3, 1)
    assert parse_element("1 - ef + 2e^2f2") == one - e * f + (e * e * f * f).scale(2)
    assert parse_element("e^4 f") == e * f


def test_results_are_deterministic():
    first = h_groups(module("lambda1", *b_pair()))
    second = h_groups(module("lambda1", *b_pair()))
    assert first == second
