"""Group cohomology of (Z/p)^2 with coefficients in a finite module.

A module is described by the two commuting action matrices of the chosen
generators.  The periodic resolution of each cyclic factor tensors into a
double complex whose total complex yields cochain maps X, Y, Z between
powers of the module; H^0, H^1, H^2 are then kernels modulo images.  The
blocks are S = 1 - sigma, T = 1 - tau and the norms U, V, arranged as

    X = [S T],   Y = [[U, T, 0], [0, -S, V]],
    Z = [[S, T, 0, 0], [0, -U, V, 0], [0, 0, S, T]],

with the row convention: a cochain is a row vector acted on from the
right.  All computations are exact over Z/p.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import fp_linalg
from .bsigma import bsigma_p3
from .errors import InvalidAction
from .fp_linalg import FpMatrix, SubquotientReport
from .group_ring import GroupRingElement, multiplication_matrix
from .homology import RelativeClass, action_matrix, h1U_basis, h1X_subquotient, stab_basis
from .scalars import Zmod


@dataclass(frozen=True)
class GModule:
    """Finite Z/p-module with commuting order-p actions of two generators."""

    p: int
    dim: int
    act_sigma: FpMatrix
    act_tau: FpMatrix

    def __post_init__(self):
        for name, act in (("sigma", self.act_sigma), ("tau", self.act_tau)):
            if act.p != self.p or act.rows != self.dim or act.cols != self.dim:
                raise InvalidAction(f"{name} action has the wrong shape or modulus")
            if fp_linalg.rank(act) != self.dim:
                raise InvalidAction(f"{name} action is not invertible")
            if act.power(self.p) != FpMatrix.identity(self.p, self.dim):
                raise InvalidAction(f"{name} action does not have order dividing p")
        left = self.act_sigma @ self.act_tau
        right = self.act_tau @ self.act_sigma
        if left != right:
            raise InvalidAction("the two actions do not commute")


def _norm(act: FpMatrix) -> FpMatrix:
    """1 + a + ... + a^(p-1), computed as (1 - a)^(p-1).

    The two agree for every square matrix a over F_p, because
    (x^p - 1)/(x - 1) = (x - 1)^(p-1) in F_p[x] and p - 1 is even for odd
    p (for p = 2, -1 = 1).
    """
    return (FpMatrix.identity(act.p, act.rows) - act).power(act.p - 1)


def _assemble(p: int, layout, dim: int) -> FpMatrix:
    """Stack a grid of dim x dim blocks (None meaning zero)."""
    rows = []
    for block_row in layout:
        for i in range(dim):
            row: list[int] = []
            for block in block_row:
                if block is None:
                    row.extend([0] * dim)
                else:
                    row.extend(block.entries[i])
            rows.append(tuple(row))
    return FpMatrix(p, len(rows), len(layout[0]) * dim, tuple(rows))


def build_complex(mod: GModule) -> tuple[FpMatrix, FpMatrix, FpMatrix]:
    """The three cochain maps M -> M^2 -> M^3 -> M^4 as row-acting matrices."""
    p, dim = mod.p, mod.dim
    ident = FpMatrix.identity(p, dim)
    s = ident - mod.act_sigma
    t = ident - mod.act_tau
    u = _norm(mod.act_sigma)
    v = _norm(mod.act_tau)
    x = _assemble(p, [[s, t]], dim)
    y = _assemble(p, [[u, t, None], [None, s.scale(-1), v]], dim)
    z = _assemble(
        p,
        [
            [s, t, None, None],
            [None, u.scale(-1), v, None],
            [None, None, s, t],
        ],
        dim,
    )
    return x, y, z


def _map_kernel(m: FpMatrix) -> list[tuple[int, ...]]:
    return fp_linalg.kernel_basis(m.transpose())


def _map_image(m: FpMatrix) -> list[tuple[int, ...]]:
    return fp_linalg.row_space_basis(m.p, m.entries)


@dataclass(frozen=True)
class CohomologyGroups:
    h0: SubquotientReport
    h1: SubquotientReport
    h2: SubquotientReport

    def dims(self) -> tuple[int, int, int]:
        return (self.h0.dim, self.h1.dim, self.h2.dim)

    def to_json(self) -> dict:
        return {"h0": self.h0.to_json(), "h1": self.h1.to_json(), "h2": self.h2.to_json()}


def h_groups(mod: GModule) -> CohomologyGroups:
    """H^0, H^1, H^2 of the module as subquotient reports."""
    x, y, z = build_complex(mod)
    invariants = _map_kernel(x)
    h0 = SubquotientReport(
        ambient_dim=mod.dim,
        kernel_basis=tuple(invariants),
        image_basis=(),
        coset_basis=tuple(invariants),
    )
    h1 = fp_linalg.subquotient(
        _map_kernel(y), _map_image(x), p=mod.p, ambient_dim=2 * mod.dim
    )
    h2 = fp_linalg.subquotient(
        _map_kernel(z), _map_image(y), p=mod.p, ambient_dim=3 * mod.dim
    )
    return CohomologyGroups(h0, h1, h2)


def annihilator(h: GroupRingElement) -> list[tuple[int, ...]]:
    """Basis of {x : h*x = 0} inside the group ring, for prime n."""
    matrix = multiplication_matrix(h)
    return _map_kernel(matrix)


def ideal_span(generators: list[GroupRingElement]) -> list[tuple[int, ...]]:
    """Canonical basis of the ideal generated by the given elements."""
    if not generators:
        return []
    rows = []
    for g in generators:
        rows.extend(multiplication_matrix(g).entries)
    return fp_linalg.row_space_basis(generators[0].n, rows)


@dataclass(frozen=True)
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
    x, y, z = build_complex(mod)
    if degree == 1:
        outgoing, incoming = y, x
    elif degree == 2:
        outgoing, incoming = z, y
    else:
        raise ValueError("degree must be 1 or 2")
    memberships = tuple(
        not any(outgoing.apply_row(tuple(v))) for v in vectors
    )
    image = _map_image(incoming)
    image_dim = len(image)
    joint = fp_linalg.row_space_basis(mod.p, list(image) + [tuple(v) for v in vectors])
    independent = len(joint) == image_dim + len(vectors)
    kernel_dim = len(_map_kernel(outgoing))
    expected = kernel_dim - image_dim
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
    """Second exterior power of the affine homology.

    The generator blocks are taken to be the exterior squares of the
    corresponding blocks on the four-dimensional module; both squares
    vanish (the sigma block has rank one), so the resulting actions are
    trivial on the six wedge coordinates.
    """
    base = h1u_module()
    ident4 = FpMatrix.identity(3, 4)
    ident6 = FpMatrix.identity(3, 6)
    s_wedge = fp_linalg.exterior_square(ident4 - base.act_sigma)
    t_wedge = fp_linalg.exterior_square(ident4 - base.act_tau)
    return GModule(3, 6, ident6 - s_wedge, ident6 - t_wedge)
