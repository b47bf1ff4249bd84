"""Group cohomology of (Z/p)^2 with coefficients in a finite module.

A module is described by the two commuting action matrices of the chosen
generators sigma and tau.  The periodic resolutions of the two cyclic
factors tensor into a double complex, and its total complex (Brown,
*Cohomology of Groups*, GTM 87) has M^(k+1) in degree k: one copy of the
module for each bidegree (i, j) with i + j = k, listed by decreasing i,
so (i, j) is block j.  With the blocks S = 1 - sigma, T = 1 - tau and
the norms U, V of sigma and tau, the differential d^k follows one rule:

    (i, j) -> (i+1, j)  is  (-1)^j S  for even i,  (-1)^j U  for odd i;
    (i, j) -> (i, j+1)  is  T         for even j,  V         for odd j.

Degree 0 gives d^0 = [S T], for instance, and H^k = ker d^k / im d^(k-1),
with im d^(-1) empty.  The row convention holds: a cochain is a row vector
acted on from the right.  All computations are exact over Z/p.

The norm of sigma is 1 + sigma + ... + sigma^(p-1) = (sigma - 1)^(p-1),
because (x^p - 1)/(x - 1) = (x - 1)^(p-1) in F_p[x]; as p - 1 is even for
odd p (and -1 = 1 for p = 2), that is U = S^(p-1).  For the same reason
sigma^p - 1 = (sigma - 1)^p = -S^p, so sigma has order dividing p exactly
when U S = 0.  ``GModule`` validation therefore computes the blocks
S, T, U, V once, as sparse rows (see ``fp_linalg``), and uses them for its
own checks; every differential is built from those blocks, and
``h_groups`` keeps its rows sparse through every kernel, image and
subquotient, so only the reported bases become dense.
"""

from __future__ import annotations

from . import fp_linalg
from ._value import frozen
from .bsigma import bsigma_p3
from .errors import InvalidAction
from .fp_linalg import FpMatrix, SparseRow, SubquotientReport
from .group_ring import GroupRingElement, multiplication_matrix
from .homology import RelativeClass, action_matrix, h1U_basis, h1X_subquotient, stab_basis
from .scalars import Zmod


@frozen
class GModule:
    """Finite Z/p-module with commuting order-p actions of two generators."""

    p: int
    dim: int
    act_sigma: FpMatrix
    act_tau: FpMatrix

    def __post_init__(self):
        p = self.p
        blocks = []
        for name, act in (("sigma", self.act_sigma), ("tau", self.act_tau)):
            if act.p != p or act.rows != self.dim or act.cols != self.dim:
                raise InvalidAction(f"{name} action has the wrong shape or modulus")
            s = _one_minus(act)
            norm = fp_linalg._power(p, s, p - 1)
            if any(fp_linalg._matmul(p, norm, s)):
                if fp_linalg.rank(act) != self.dim:
                    raise InvalidAction(f"{name} action is not invertible")
                raise InvalidAction(f"{name} action does not have order dividing p")
            blocks.append((s, norm))
        (s, u), (t, v) = blocks
        if fp_linalg._matmul(p, s, t) != fp_linalg._matmul(p, t, s):
            raise InvalidAction("the two actions do not commute")
        # (S, T, U, V) as sparse rows; not a field, so outside init, eq and repr
        object.__setattr__(self, "_blocks", (s, t, u, v))


def _one_minus(act: FpMatrix) -> list[SparseRow]:
    """1 - act as sparse rows."""
    p = act.p
    rows = []
    for i, entries in enumerate(act.entries):
        row = {j: p - x for j, x in enumerate(entries) if x}
        diagonal = (1 - entries[i]) % p
        if diagonal:
            row[i] = diagonal
        else:
            del row[i]
        rows.append(row)
    return rows


def _differential(mod: GModule, k: int) -> list[SparseRow]:
    """d^k : M^(k+1) -> M^(k+2) as sparse rows, by the bidegree rule."""
    p, dim = mod.p, mod.dim
    s, t, u, v = mod._blocks
    rows = []
    for j in range(k + 1):
        vertical = u if (k - j) % 2 else s
        if j % 2:
            vertical = [{c: p - x for c, x in row.items()} for row in vertical]
        horizontal = v if j % 2 else t
        left, right = j * dim, (j + 1) * dim
        for a, b in zip(vertical, horizontal):
            row = {left + c: x for c, x in a.items()}
            for c, x in b.items():
                row[right + c] = x
            rows.append(row)
    return rows


def build_complex(mod: GModule) -> tuple[FpMatrix, FpMatrix, FpMatrix]:
    """The three cochain maps M -> M^2 -> M^3 -> M^4 as row-acting matrices."""
    p, dim = mod.p, mod.dim
    return tuple(
        FpMatrix(p, (k + 1) * dim, n, fp_linalg._dense(_differential(mod, k), n))
        for k, n in enumerate((2 * dim, 3 * dim, 4 * dim))
    )


@frozen
class CohomologyGroups:
    h0: SubquotientReport
    h1: SubquotientReport
    h2: SubquotientReport

    def dims(self) -> tuple[int, int, int]:
        return (self.h0.dim, self.h1.dim, self.h2.dim)

    def to_json(self) -> dict:
        return {"h0": self.h0.to_json(), "h1": self.h1.to_json(), "h2": self.h2.to_json()}


def h_groups(mod: GModule) -> CohomologyGroups:
    """H^0, H^1, H^2 of the module as subquotient reports: H^k is
    ker d^k / im d^(k-1), where im d^(-1) is empty."""
    p, dim = mod.p, mod.dim
    reports, image = [], []
    for k in range(3):
        d = _differential(mod, k)
        kernel = fp_linalg._left_kernel(p, d)
        reports.append(fp_linalg._subquotient(p, (k + 1) * dim, kernel, image))
        if k < 2:  # im d^2 would only serve H^3
            image = fp_linalg._rref(p, d)[0]
    return CohomologyGroups(*reports)


def annihilator(h: GroupRingElement) -> list[tuple[int, ...]]:
    """Basis of {x : h*x = 0} inside the group ring, for prime n."""
    matrix = multiplication_matrix(h)
    rows = fp_linalg._sparse(matrix.p, matrix.entries)
    return list(fp_linalg._dense(fp_linalg._left_kernel(matrix.p, rows), matrix.rows))


def ideal_span(generators: list[GroupRingElement]) -> list[tuple[int, ...]]:
    """Canonical basis of the ideal generated by the given elements."""
    if not generators:
        return []
    rows = []
    for g in generators:
        rows.extend(multiplication_matrix(g).entries)
    return fp_linalg.row_space_basis(generators[0].n, rows)


@frozen
class BasisValidation:
    """Outcome of checking a listed basis against a computed subquotient."""

    memberships: tuple[bool, ...]
    independent_mod_image: bool
    count_matches: bool
    expected_dim: int

    @property
    def all_pass(self) -> bool:
        return all(self.memberships) and self.independent_mod_image and self.count_matches

    def to_json(self) -> dict:
        return {
            "memberships": list(self.memberships),
            "independent_mod_image": self.independent_mod_image,
            "count_matches": self.count_matches,
            "expected_dim": self.expected_dim,
            "all_pass": self.all_pass,
        }


def validate_basis(vectors, mod: GModule, degree: int) -> BasisValidation:
    """Check listed vectors: each in the degree's kernel, jointly independent
    modulo the incoming image, and as many as the computed dimension."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    p = mod.p
    outgoing, incoming = _differential(mod, degree), _differential(mod, degree - 1)
    if any(len(v) != len(outgoing) for v in vectors):
        raise ValueError("vector length does not match row count")
    listed = fp_linalg._sparse(p, vectors)
    memberships = tuple(not row for row in fp_linalg._matmul(p, listed, outgoing))
    image = fp_linalg._rref(p, incoming)[0]
    joint = fp_linalg._rref(p, image + listed)[0]
    independent = len(joint) == len(image) + len(listed)
    expected = len(fp_linalg._left_kernel(p, outgoing)) - len(image)
    return BasisValidation(
        memberships=memberships,
        independent_mod_image=independent,
        count_matches=len(vectors) == expected,
        expected_dim=expected,
    )


# -- module builders for the exponent-3 coefficients --------------------


def trivial_module(p: int, dim: int) -> GModule:
    ident = FpMatrix.identity(p, dim)
    return GModule(p, dim, ident, ident)


def lambda1_module() -> GModule:
    """The group ring Lambda_1 itself, with the generators acting through
    their B multipliers."""
    return GModule(
        3,
        9,
        multiplication_matrix(bsigma_p3(1, 0)),
        multiplication_matrix(bsigma_p3(0, 1)),
    )


def h1u_module() -> GModule:
    """Homology of the affine curve in the pinned four-element basis."""
    basis = h1U_basis(3)
    return GModule(
        3,
        4,
        action_matrix(bsigma_p3(1, 0), basis),
        action_matrix(bsigma_p3(0, 1), basis),
    )


def h1x_module() -> GModule:
    """Homology of the projective curve on the canonical coset basis."""
    report = h1X_subquotient(3)
    reps = [
        RelativeClass(GroupRingElement(3, 1, Zmod(3), tuple(v)))
        for v in report.coset_basis
    ]
    stab = stab_basis(3)
    return GModule(
        3,
        len(reps),
        action_matrix(bsigma_p3(1, 0), reps, modulo=stab),
        action_matrix(bsigma_p3(0, 1), reps, modulo=stab),
    )


def wedge_module() -> GModule:
    """The six-dimensional module of the paper's wedge row.

    Its generators act by 1 - L(1 - sigma) and 1 - L(1 - tau), where L is
    the exterior square of a block of the affine homology.  Both squares
    vanish (the sigma block has rank one, the tau block is zero), so both
    actions are the 6 x 6 identity and the dimensions (6, 12, 18) hold by
    construction.  The functorial module, with actions L(sigma) and
    L(tau), is a different one.
    """
    base = h1u_module()
    ident4 = FpMatrix.identity(3, 4)
    ident6 = FpMatrix.identity(3, 6)
    s_wedge = fp_linalg.exterior_square(ident4 - base.act_sigma)
    t_wedge = fp_linalg.exterior_square(ident4 - base.act_tau)
    return GModule(3, 6, ident6 - s_wedge, ident6 - t_wedge)
