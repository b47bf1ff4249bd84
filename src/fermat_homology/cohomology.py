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
own checks.  Every differential is built from those blocks, and every
other reader (the scorecard's block rows, ``wedge_module``) gets the same
blocks, dense, from ``GModule.blocks``.  ``h_groups`` keeps its rows
sparse through every kernel, image and subquotient, so only the reported
bases become dense.

``h_groups`` starts each elimination from the basis the previous step
produced.  Write I for the RREF basis of
im d^(k-1), K for that of ker d^k, and P(X) for the pivot columns of X.

1. Kernel: I lies in K, so K = span(I) + W, where W is the left kernel of
   the rows of d^k whose index is not in P(I); only those rows are
   eliminated, and W's pivots cleared from the rows of I give K
   (``fp_linalg._left_kernel``).
2. Image: the row of K with pivot q writes row q of d^k as a combination
   of the rows whose index is not in P(K), so im d^k is the RREF of those
   rows alone, and they are independent.
3. Coset: P(I) lies in P(K), and a row of K whose pivot is not in P(I) is
   zero on P(I), so those rows are the canonical coset basis of H^k
   (``fp_linalg._subquotient``).

Step 1 takes I ⊆ K on trust, so before I seeds a kernel the rows of
d^(k-1) it was eliminated from must map to zero under d^k; they span
im d^(k-1), and otherwise ``ContainmentViolation`` is raised.
"""

from __future__ import annotations

import functools
import operator

from . import fp_linalg
from ._value import frozen
from .bsigma import bsigma_p3
from .errors import ArityMismatch, ContainmentViolation, InvalidAction
from .fp_linalg import FpMatrix, SparseRow, SubquotientReport
from .group_ring import GroupRingElement, multiplication_matrix
from .homology import RelativeClass, action_matrix, h1U_basis, h1X_subquotient, stab_basis
from .scalars import _power, _zmod


@frozen
class GModule:
    """Finite Z/p-module with commuting order-p actions of two generators."""

    p: int
    dim: int
    act_sigma: FpMatrix
    act_tau: FpMatrix

    def __post_init__(self):
        p = operator.index(self.p)  # a float p would match a matrix's int p
        matmul = functools.partial(fp_linalg._matmul, p)
        identity = [{i: 1} for i in range(self.dim)]
        blocks = []
        for name, act in (("sigma", self.act_sigma), ("tau", self.act_tau)):
            if act.p != p or act.rows != self.dim or act.cols != self.dim:
                raise InvalidAction(f"{name} action has the wrong shape or modulus")
            s = _one_minus(act)
            norm = _power(s, p - 1, matmul, identity)
            if any(matmul(norm, s)):
                if fp_linalg.rank(act) != self.dim:
                    raise InvalidAction(f"{name} action is not invertible")
                raise InvalidAction(f"{name} action does not have order dividing p")
            blocks.append((s, norm))
        (s, u), (t, v) = blocks
        if matmul(s, t) != matmul(t, s):
            raise InvalidAction("the two actions do not commute")
        # (S, T, U, V) as sparse rows; not a field, so outside init, eq and repr
        object.__setattr__(self, "_blocks", (s, t, u, v))

    @property
    def blocks(self) -> tuple[FpMatrix, FpMatrix, FpMatrix, FpMatrix]:
        """The blocks (S, T, U, V) the differentials are built from, dense."""
        return tuple(FpMatrix(self.p, self.dim, self.dim, fp_linalg._dense(b, self.dim))
                     for b in self._blocks)


def _one_minus(act: FpMatrix) -> list[SparseRow]:
    """1 - act as sparse rows, each entry reduced as it is read."""
    p = act.p
    rows = []
    for i, entries in enumerate(act.entries):
        row = {j: y for j, x in enumerate(entries) if x and (y := -x % p)}
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


@frozen
class CohomologyGroups:
    """H^0, H^1 and H^2 of a module over Z/p, with the p they were computed over."""

    p: int
    h0: SubquotientReport
    h1: SubquotientReport
    h2: SubquotientReport

    def dims(self) -> tuple[int, int, int]:
        return (self.h0.dim, self.h1.dim, self.h2.dim)

    def to_json(self) -> dict:
        return {"h0": self.h0.to_json(), "h1": self.h1.to_json(), "h2": self.h2.to_json()}


def h_groups(mod: GModule) -> CohomologyGroups:
    """H^0, H^1, H^2 of the module as subquotient reports: H^k is
    ker d^k / im d^(k-1), where im d^(-1) is empty.  Each kernel is seeded
    with the previous image, and each image eliminates only the rows of
    its differential off the kernel's pivots (see the module docstring)."""
    p, dim = mod.p, mod.dim
    reports, generators, image = [], [], []
    for k in range(3):
        d = _differential(mod, k)
        # the image seeds the kernel only if its generators map to zero
        if any(fp_linalg._matmul(p, generators, d)):
            raise ContainmentViolation("image generators do not lie in the kernel span")
        kernel = fp_linalg._left_kernel(p, d, image)
        reports.append(fp_linalg._subquotient(p, (k + 1) * dim, kernel, image))
        if k < 2:  # im d^2 would only serve H^3
            pivots = {min(row) for row in kernel}
            generators = [row for i, row in enumerate(d) if i not in pivots]
            image = fp_linalg._rref(p, generators)[0]
    return CohomologyGroups(p, *reports)


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


def validate_basis(vectors, groups: CohomologyGroups, degree: int) -> BasisValidation:
    """Check listed vectors against H^degree of ``groups``, over the Z/p
    the groups were computed over: each in the kernel, jointly independent
    modulo the image, and as many as the dimension.  Nothing is eliminated
    again but the listed vectors together with the image."""
    if degree not in (1, 2):
        raise ValueError("degree must be 1 or 2")
    p, report = groups.p, groups.h1 if degree == 1 else groups.h2
    if any(len(v) != report.ambient_dim for v in vectors):
        raise ValueError("vector length does not match row count")
    image = fp_linalg._sparse(p, report.image_basis)
    joint = fp_linalg._rref(p, image + fp_linalg._sparse(p, vectors))[0]
    return BasisValidation(
        memberships=tuple(fp_linalg.in_span(p, report.kernel_basis, vectors)),
        independent_mod_image=len(joint) == len(image) + len(vectors),
        count_matches=len(vectors) == report.dim,
        expected_dim=report.dim,
    )


# -- module builders ------------------------------------------------------


def module(kind: str, sigma: GroupRingElement, tau: GroupRingElement) -> GModule:
    """The module ``kind`` over Z/p, p = sigma.n, with the generators acting
    by multiplication by the two-variable elements sigma and tau: the group
    ring Lambda_1 itself ("lambda1"), the affine homology on ``h1U_basis``
    ("h1u"), or the projective homology on the coset basis of
    ``h1X_subquotient`` modulo ``stab_basis`` ("h1x").  The paper's modules
    take the B multipliers ``bsigma_p3(1, 0)`` and ``bsigma_p3(0, 1)``; the
    natural action takes e_0 and e_1."""
    p = sigma.n
    if sigma.m != 1:
        raise ArityMismatch(f"multipliers are two-variable elements, got m={sigma.m}")
    sigma._check_compatible(tau)
    if kind == "lambda1":
        act = multiplication_matrix
    elif kind == "h1u":
        act = functools.partial(action_matrix, basis=h1U_basis(p))
    elif kind == "h1x":
        reps = [
            RelativeClass(GroupRingElement(p, 1, _zmod(p), v))
            for v in h1X_subquotient(p).coset_basis
        ]
        act = functools.partial(action_matrix, basis=reps, modulo=stab_basis(p))
    else:
        raise ValueError(f"unknown module {kind!r}; expected lambda1, h1u or h1x")
    act_sigma = act(sigma)
    return GModule(p, act_sigma.rows, act_sigma, act(tau))


def wedge_module() -> GModule:
    """The six-dimensional module of the paper's wedge row.

    Its generators act by 1 - L(1 - sigma) and 1 - L(1 - tau), where L is
    the exterior square of a block of the affine homology.  Both squares
    vanish (the sigma block has rank one, the tau block is zero), so both
    actions are the 6 x 6 identity and the dimensions (6, 12, 18) hold by
    construction.  The functorial module, with actions L(sigma) and
    L(tau), is a different one.
    """
    actions = [
        FpMatrix(3, 6, 6, fp_linalg._dense(_one_minus(fp_linalg.exterior_square(b)), 6))
        for b in module("h1u", bsigma_p3(1, 0), bsigma_p3(0, 1)).blocks[:2]
    ]
    return GModule(3, 6, *actions)
