"""End-to-end reproduction scorecard against the checked-in reference tables.

The scorecard is one table, ``CHECKS``, of rows in printed order.  Each
row has a stable id (``c01`` to ``c11`` after the acceptance criterion it
belongs to, then a slug, as in ``c08.h1-lambda1``), its printed name and a
function of the run's shared inputs, a ``RunInputs``, which builds each
input once, on first use: the tables, the coefficient modules with their
cohomology, the structural reports and the gamma preimages.  Callers
select rows by id: ``run_reproduction`` runs every row,
``cohomology --validate-paper`` the ``c08`` rows, and
``bsigma --verify-all`` reads the structural reports off the inputs and
runs ``c03.gamma-closed-form`` and the ``c04`` rows.

Every row compares a computed object with its transcribed counterpart and
reports pass/fail; nothing raises.  Two rows are expected to fail on the
present tables: the listed image basis in degree zero (three of its four
vectors lie in the transpose-convention image and one lies in no candidate
space) and two entries of the listed degree-1 basis for affine-homology
coefficients (their coboundaries are nonzero; the sign-corrected variants
validate).  The rows report those facts rather than silently repairing the
tables; the tables record the failing entries as findings, and the
affine-homology row reads its sign-corrected variants from there.  The
group-ring degree-1 row reads a misprint's reading there and flags it.
"""

from __future__ import annotations

from collections.abc import Callable
from functools import cached_property

from . import fp_linalg
from ._value import frozen
from .bsigma import (
    BMapReport,
    VerificationReport,
    b_map_analysis,
    bsigma_p3,
    gamma_oracle_p3,
    prime_field_image,
    verify_bsigma,
)
from .cohomology import (
    CohomologyGroups,
    GModule,
    h_groups,
    module,
    validate_basis,
    wedge_module,
)
from .cyclotomic import verify_cyclotomic_identities
from .fp_linalg import FpMatrix
from .galois_kummer import KummerCoordinates, group_elements, psi_from_kummer
from .group_ring import (
    GroupRingElement,
    annihilator,
    augmentation,
    d_prime,
    dlog,
    ideal_span,
)
from .homology import (
    RelativeClass,
    boundary_delta,
    h1U_basis,
    h1X_subquotient,
    stab_basis,
)
from .reference_tables import ReferenceTables, load_tables
from .scalars import GF27


@frozen
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    flag: str = ""


class RunInputs:
    """The inputs that several rows share, each built once per run, on
    first use, so a run builds only what its rows read."""

    @cached_property
    def tables(self) -> ReferenceTables:
        return load_tables()

    @cached_property
    def lambda1(self) -> GModule:
        return module("lambda1", bsigma_p3(1, 0), bsigma_p3(0, 1))

    @cached_property
    def h1u(self) -> GModule:
        return module("h1u", bsigma_p3(1, 0), bsigma_p3(0, 1))

    @cached_property
    def lambda1_groups(self) -> CohomologyGroups:
        return h_groups(self.lambda1)

    @cached_property
    def h1u_groups(self) -> CohomologyGroups:
        return h_groups(self.h1u)

    @cached_property
    def wedge_groups(self) -> CohomologyGroups:
        return h_groups(wedge_module())

    @cached_property
    def structural(self) -> dict[tuple[int, int], VerificationReport]:
        """``verify_bsigma`` at the nine coordinate pairs (c0, c1), in order."""
        return {
            (c0, c1): verify_bsigma(bsigma_p3(c0, c1)) for c0 in range(3) for c1 in range(3)
        }

    @cached_property
    def b_map(self) -> BMapReport:
        return b_map_analysis()

    @cached_property
    def gammas(self) -> list[tuple[int, int, object, GroupRingElement]]:
        """The 27 gamma preimages over F_27 as (c1, c2, alpha, gamma)."""
        return [
            (c1, c2, alpha, gamma)
            for c1 in range(3)
            for c2 in range(3)
            for alpha, gamma in gamma_oracle_p3(c1, c2)
        ]


@frozen
class Check:
    """One scorecard row.  ``compute`` returns whether the row passes, or
    the tuple (passed, detail) or (passed, detail, flag)."""

    id: str
    name: str
    compute: Callable[[RunInputs], bool | tuple]


def _gamma_closed_form(run: RunInputs) -> bool:
    expected = {psi_from_kummer(g).entries: bsigma_p3(*g.c) for g in group_elements(3)}
    return all(
        prime_field_image(d_prime(gamma)) == expected[c1, c2] for c1, c2, _, gamma in run.gammas
    )


def _gamma_dlog_coset(run: RunInputs) -> bool:
    """dlog of each preimage is psi = c1 e + c2 e^2 plus the constant alpha."""
    return all(
        dlog(gamma).components[0]
        == GroupRingElement.from_dict(
            3, 0, {(0,): alpha, (1,): GF27.reduce(c1), (2,): GF27.reduce(c2)}, ring=GF27
        )
        for c1, c2, alpha, gamma in run.gammas
    )


def _boundary_rank(run: RunInputs) -> bool:
    for n in (3, 5, 7):
        rows = [
            boundary_delta(RelativeClass(GroupRingElement.monomial(n, 1, (i, j))))
            for i in range(n)
            for j in range(n)
        ]
        matrix = FpMatrix.from_rows(n, [tuple(d.r.coeffs) + tuple(d.q.coeffs) for d in rows])
        if fp_linalg.rank(matrix) != 2 * n - 1:
            return False
    return True


def _boundary_of_generator(run: RunInputs) -> bool:
    generator = boundary_delta(RelativeClass(GroupRingElement.one(3, 1)))
    one = GroupRingElement.one(3, 0)
    return generator.r == one and generator.q == -one


def _norm_blocks(run: RunInputs) -> bool:
    _, _, u, v = run.lambda1.blocks
    return u == FpMatrix.from_rows(3, [[1] * 9] * 9) and v.is_zero()


def _restricted_blocks(run: RunInputs) -> bool:
    s1, t1, u1, v1 = run.h1u.blocks
    return s1 == run.tables.s1_matrix() and all(m.is_zero() for m in (t1, u1, v1))


def _listed_kernel(run: RunInputs) -> bool:
    vectors = run.tables.vectors("kernel_y_lambda1")
    kernel = run.lambda1_groups.h1.kernel_basis
    return len(vectors) == 13 and all(fp_linalg.in_span(3, kernel, vectors))


def _listed_image(run: RunInputs) -> tuple[bool, str]:
    tables = run.tables
    listed = tables.vectors("image_x_lambda1")
    in_image = fp_linalg.in_span(3, run.lambda1_groups.h1.image_basis, listed)
    stack = tables.s_matrix().entries + tables.t_matrix().entries
    in_transpose = fp_linalg.in_span(3, fp_linalg.row_space_basis(3, zip(*stack)), listed)
    return all(in_image), (
        f"membership in computed image: {in_image}; "
        f"membership in the transpose-convention image: {in_transpose}"
    )


def _listed_h1_lambda1(run: RunInputs) -> tuple[bool, str, str]:
    tables = run.tables
    [finding] = tables.findings("h1_lambda1")
    val = validate_basis(tables.read_vectors("h1_lambda1"), run.lambda1_groups, 1)
    return val.all_pass, "", finding.reason


def _listed_h1_h1u(run: RunInputs) -> tuple[bool, str]:
    val = validate_basis(run.tables.vectors("h1_h1u"), run.h1u_groups, 1)
    corrected = validate_basis(run.tables.read_vectors("h1_h1u"), run.h1u_groups, 1)
    failing = [i + 1 for i, ok in enumerate(val.memberships) if not ok]
    return val.all_pass, (
        f"entries {failing} have nonzero coboundary; replacing the "
        f"differences by the sums v2+v4, v3+v4 yields a valid basis: "
        f"{corrected.all_pass}"
    )


def _norm(b: GroupRingElement) -> GroupRingElement:
    return GroupRingElement.one(3, 1) + b + b * b


def _one_e_f() -> list[GroupRingElement]:
    """1, e and f in (Z/3)[e, f]."""
    return [GroupRingElement.monomial(3, 1, exps) for exps in ((0, 0), (1, 0), (0, 1))]


def _annihilator_sigma(run: RunInputs) -> bool:
    one, e, f = _one_e_f()
    ann = annihilator(one - bsigma_p3(1, 0))
    return len(ann) == 5 and ann == ideal_span([one + e + e * e, one + f + f * f])


def _annihilator_tau(run: RunInputs) -> tuple[bool, str]:
    one, e, f = _one_e_f()
    ann = annihilator(one - bsigma_p3(0, 1))
    ker_t = fp_linalg.kernel_basis(run.tables.t_matrix())
    return (
        ann == ideal_span([e - f, one + f + f * f]) and ann == ker_t,
        f"common dimension {len(ann)}",
    )


def _kummer_generators(run: RunInputs) -> bool:
    sigma = psi_from_kummer(KummerCoordinates(3, (1, 0)))
    tau = psi_from_kummer(KummerCoordinates(3, (0, 1)))
    return sigma.entries == (0, 1) and tau.entries == (1, 1)


CHECKS = (
    Check("c01.b-sigma", "B at (1,0) equals the listed expansion",
          lambda run: bsigma_p3(1, 0) == run.tables.b_sigma()),
    Check("c01.b-tau", "B at (0,1) equals the listed expansion",
          lambda run: bsigma_p3(0, 1) == run.tables.b_tau()),
    Check("c01.b-identity", "B at (0,0) is the identity",
          lambda run: bsigma_p3(0, 0) == GroupRingElement.one(3, 1)),
    Check("c02.structural", "structural facts hold for all nine coordinate pairs",
          lambda run: all(r.all_pass for r in run.structural.values())),
    Check("c03.gamma-closed-form", "every gamma preimage maps to the closed form",
          _gamma_closed_form),
    Check("c03.gamma-sum-one", "every gamma preimage has coefficient sum one",
          lambda run: all(augmentation(g) == GF27.one for *_, g in run.gammas)),
    Check("c03.gamma-dlog-coset",
          "dlog of every gamma preimage represents its class modulo the constant line",
          _gamma_dlog_coset),
    Check("c04.image-dim", "B-map image has dimension 4",
          lambda run: run.b_map.image_dim == 4),
    Check("c04.kernel-dim", "B-map kernel has dimension 5",
          lambda run: run.b_map.kernel_dim == 5),
    Check("c04.relations", "the five listed kernel relations hold",
          lambda run: all(run.b_map.relations)),
    Check("c04.image-shape", "B-map image is the symmetric zero-lower-row-sum space",
          lambda run: run.b_map.image_shape_matches),
    Check("c05.affine-rank", "affine homology rank is (n-1)^2 for n=3..8",
          lambda run: all(len(h1U_basis(n)) == (n - 1) ** 2 for n in range(3, 9))),
    Check("c05.stab-rank", "stabilizer rank is n-1 for n=3..8",
          lambda run: all(len(stab_basis(n)) == n - 1 for n in range(3, 9))),
    Check("c05.projective-rank", "projective homology rank is (n-1)(n-2) for n=3..8",
          lambda run: all(h1X_subquotient(n).dim == (n - 1) * (n - 2) for n in range(3, 9))),
    Check("c05.boundary-rank", "boundary image rank is 2n-1 for n in {3,5,7}",
          _boundary_rank),
    Check("c05.kernel-basis", "the n=3 kernel basis equals the four listed classes in order",
          lambda run: run.tables.v_classes() == h1U_basis(3)),
    Check("c05.boundary-generator", "boundary of the generator is (1, -1)",
          _boundary_of_generator),
    Check("c06.s-matrix", "matrix of 1 - B(1,0) equals the listed S",
          lambda run: run.lambda1.blocks[0] == run.tables.s_matrix()),
    Check("c06.t-matrix", "matrix of 1 - B(0,1) equals the listed T",
          lambda run: run.lambda1.blocks[1] == run.tables.t_matrix()),
    Check("c06.norm-blocks", "norm blocks: all-ones for sigma, zero for tau",
          _norm_blocks),
    Check("c06.restricted", "restricted matrices: S1 matches, T1 = U1 = V1 = 0",
          _restricted_blocks),
    Check("c06.wedge-s1", "exterior square of S1 is the zero matrix",
          lambda run: fp_linalg.exterior_square(run.tables.s1_matrix()).is_zero()),
    Check("c07.lambda1", "group-ring coefficients: H1 = 9 and H2 = 13",
          lambda run: run.lambda1_groups.dims()[1:] == (9, 13)),
    Check("c07.h1u", "affine homology coefficients: H1 = 6 and H2 = 9",
          lambda run: run.h1u_groups.dims()[1:] == (6, 9)),
    Check("c07.wedge", "wedge coefficients: H1 = 12 and H2 = 18",
          lambda run: run.wedge_groups.dims()[1:] == (12, 18)),
    Check("c08.kernel-lambda1", "listed degree-1 kernel basis: 13 vectors, all cocycles",
          _listed_kernel),
    Check("c08.image-lambda1", "listed image basis spans the computed image",
          _listed_image),
    Check("c08.h1-lambda1", "listed degree-1 basis over the group ring validates",
          _listed_h1_lambda1),
    Check("c08.h2-lambda1", "listed degree-2 basis over the group ring validates",
          lambda run: validate_basis(
              run.tables.vectors("h2_lambda1"), run.lambda1_groups, 2).all_pass),
    Check("c08.h1-h1u", "listed degree-1 basis over affine homology validates",
          _listed_h1_h1u),
    Check("c08.h2-h1u", "listed degree-2 basis over affine homology validates",
          lambda run: validate_basis(run.tables.vectors("h2_h1u"), run.h1u_groups, 2).all_pass),
    Check("c09.tau-norm", "annihilator of the tau norm is everything",
          lambda run: len(annihilator(_norm(bsigma_p3(0, 1)))) == 9),
    Check("c09.sigma-norm", "annihilator of the sigma norm is the sum-zero hyperplane",
          lambda run: len(annihilator(_norm(bsigma_p3(1, 0)))) == 8),
    Check("c09.ann-sigma",
          "annihilator of 1 - B(1,0) equals the ideal (1+e+e^2, 1+f+f^2) of dim 5",
          _annihilator_sigma),
    Check("c09.ann-tau", "annihilator of 1 - B(0,1) equals the ideal (e-f, 1+f+f^2) and ker T",
          _annihilator_tau),
    Check("c10.kummer-generators", "the generators map to (0,1) and (1,1)",
          _kummer_generators),
    Check("c11.cyclotomic", "multiplicative identities hold for p in {3,5,7,11,13}",
          lambda run: all(
              verify_cyclotomic_identities(p).all_pass for p in (3, 5, 7, 11, 13))),
)
CHECK_IDS = tuple(check.id for check in CHECKS)
_BY_ID = dict(zip(CHECK_IDS, CHECKS))


def run_checks(ids, run: RunInputs | None = None) -> list[CheckResult]:
    """The rows with the given ids, in that order, all on the inputs ``run``
    (fresh ones by default)."""
    run = RunInputs() if run is None else run
    results = []
    for check_id in ids:
        check = _BY_ID[check_id]
        outcome = check.compute(run)
        if not isinstance(outcome, tuple):
            outcome = (outcome,)
        results.append(CheckResult(check.name, *outcome))
    return results


def run_reproduction() -> list[CheckResult]:
    """Every row of the scorecard, in order."""
    return run_checks(CHECK_IDS)


def format_results(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name}"
        if r.flag:
            line += f"  [flagged: {r.flag}]"
        if r.detail:
            line += f"  ({r.detail})"
        lines.append(line)
    total = len(results)
    passed = sum(r.passed for r in results)
    lines.append(f"{passed}/{total} checks passed")
    return "\n".join(lines)
