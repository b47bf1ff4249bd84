"""Reconstruction of the Galois multiplier B on relative homology for p=3.

For exponent 3 the closed form takes an element of Gal(L/K), given by
Kummer coordinates (c_0, c_1), to the symmetric unit B of Lambda_1 acting
on the generator of relative homology.  An independent oracle recovers
the same unit through the gamma element: over F_27 every solution alpha
of alpha^3 - alpha + c^3 = 0 yields a preimage Gamma with d_prime(Gamma)
collapsing to B on the prime field.

Structural checks (symmetry, zero row and column sums, membership of
B - 1 in the augmentation ideal, triviality under d_prime_prime) are
reported as data rather than raised, so callers can print scorecards.
"""

from __future__ import annotations

from . import fp_linalg
from ._value import frozen
from .errors import NotAUnit, NotSymmetric
from .galois_kummer import group_elements
from .group_ring import GroupRingElement, d_prime_prime
from .homology import RelativeClass, boundary_delta
from .scalars import GF27, Zmod, _zmod


def bsigma_p3(c0: int, c1: int) -> GroupRingElement:
    """The unit B of (Z/3)[e_0, e_1] attached to Kummer coordinates (c_0, c_1).

    The three independent coefficients are b_00 = 1 + c_0 - c_0^2,
    b_01 = c_1 - c_0^2 and b_11 = -c_1 - c_0^2; the rest follow from the
    symmetry b_ij = b_ji together with row sums (1, 0, 0).
    """
    b00 = 1 + c0 - c0 * c0
    b01 = c1 - c0 * c0
    b11 = -c1 - c0 * c0
    b02 = 1 - b00 - b01
    b12 = -b01 - b11
    b22 = -b02 - b12
    grid = [
        [b00, b01, b02],
        [b01, b11, b12],
        [b02, b12, b22],
    ]
    return GroupRingElement.from_grid(3, grid)


def gamma_oracle_p3(c1: int, c2: int) -> list[tuple[tuple, GroupRingElement]]:
    """All gamma elements over F_27 mapping under d_prime to the B of the
    group element whose psi vector (``psi_from_kummer``) is (c_1, c_2).

    Returns the three pairs (alpha, Gamma) with alpha a root of
    alpha^3 - alpha + c^3 = 0, c = c_1 + c_2, and
    Gamma = d_0 + d_1 e_0 + d_2 e_0^2 where d_1 = c_1 - alpha - (c+alpha)^2,
    d_2 = -c_2 + alpha - (c+alpha)^2 and d_0 is forced by d_0+d_1+d_2 = 1.
    The roots are taken in closed form: in GF27, t^3 = t + 1, so
    alpha = a + b t + d t^2 has alpha^3 - alpha = b + d + 2d t, and with
    c^3 = c in F_3 the roots are alpha = a - c t for a = 0, 1, 2.
    """
    ring = GF27
    c1f = ring.reduce(c1)
    c2f = ring.reduce(c2)
    cf = ring.add(c1f, c2f)
    results = []
    for a in range(3):
        alpha = (a, -(c1 + c2) % 3, 0)
        shift = ring.add(cf, alpha)
        shift_sq = ring.mul(shift, shift)
        d1 = ring.sub(ring.sub(c1f, alpha), shift_sq)
        d2 = ring.sub(ring.sub(alpha, c2f), shift_sq)
        d0 = ring.sub(ring.sub(ring.one, d1), d2)
        gamma = GroupRingElement.from_dict(
            3, 0, {(0,): d0, (1,): d1, (2,): d2}, ring=ring
        )
        results.append((alpha, gamma))
    return results


def prime_field_image(a: GroupRingElement) -> GroupRingElement | None:
    """Rewrite an extension-field element over Z/p when every coefficient
    lies in the prime field; None otherwise."""
    if isinstance(a.ring, Zmod):
        raise ValueError(f"an extension-field element is required, got {a.ring!r}")
    values = []
    for c in a.coeffs:
        v = a.ring.to_prime_int(c)
        if v is None:
            return None
        values.append(v)
    return GroupRingElement(a.n, a.m, _zmod(a.ring.char), tuple(values))


@frozen
class VerificationReport:
    """Outcome of the four structural checks on a candidate B."""

    symmetric: bool
    zero_row_col_sums: bool
    augmentation_ideal: bool
    d_second_trivial: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.symmetric
            and self.zero_row_col_sums
            and self.augmentation_ideal
            and self.d_second_trivial
        )

    def to_json(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "zero_row_col_sums": self.zero_row_col_sums,
            "augmentation_ideal": self.augmentation_ideal,
            "d_second_trivial": self.d_second_trivial,
            "all_pass": self.all_pass,
        }


def verify_bsigma(b: GroupRingElement) -> VerificationReport:
    """Run the structural facts on an element of Lambda_1 over Z/n, n prime."""
    x = b - GroupRingElement.one(b.n, 1)
    # B and B - 1 differ only at 1, so entries 1..n-1 of the boundary of
    # B - 1 are the sums of B's rows and columns 1..n-1
    delta = boundary_delta(RelativeClass(x))
    sums_ok = not any(delta.r.coeffs[1:] + delta.q.coeffs[1:])
    try:
        d_second_ok = d_prime_prime(b) == GroupRingElement.one(b.n, 2)
    except (NotSymmetric, NotAUnit):
        d_second_ok = False
    # B - 1 lies in (1 - e_0)(1 - e_1) Lambda_1 exactly when its boundary
    # vanishes: the augmentation ideal of Z/n[e] is (1 - e) Z/n[e], a direct
    # summand, so ker(e_0 -> 1) and ker(e_1 -> 1) meet in its tensor square
    return VerificationReport(b.is_symmetric(), sums_ok, delta.is_zero(), d_second_ok)


# The published kernel relations for the linear map sending a group element
# to its B value, written as (coefficient, (c_0, c_1)) pairs.
B_MAP_RELATIONS: tuple[tuple[tuple[tuple[int, tuple[int, int]], ...], str], ...] = (
    (((1, (0, 2)), (1, (0, 1)), (1, (0, 0))), "B[tau^2] + B[tau] + B[1]"),
    (
        ((1, (2, 1)), (-1, (2, 0)), (-1, (0, 1)), (1, (0, 0))),
        "B[sigma^2 tau] - B[sigma^2] - B[tau] + B[1]",
    ),
    (
        ((1, (1, 1)), (-1, (1, 0)), (-1, (0, 1)), (1, (0, 0))),
        "B[sigma tau] - B[sigma] - B[tau] + B[1]",
    ),
    (
        ((1, (2, 2)), (-1, (2, 0)), (-1, (0, 2)), (1, (0, 0))),
        "B[sigma^2 tau^2] - B[sigma^2] - B[tau^2] + B[1]",
    ),
    (
        ((1, (1, 2)), (-1, (1, 0)), (-1, (0, 2)), (1, (0, 0))),
        "B[sigma tau^2] - B[sigma] - B[tau^2] + B[1]",
    ),
)


@frozen
class BMapReport:
    """Linear structure of the map from the group algebra into Lambda_1."""

    image_dim: int
    kernel_dim: int
    relations: tuple[bool, ...]
    relation_names: tuple[str, ...]
    image_shape_matches: bool

    def to_json(self) -> dict:
        return {
            "image_dim": self.image_dim,
            "kernel_dim": self.kernel_dim,
            "relations": dict(zip(self.relation_names, self.relations)),
            "image_shape_matches": self.image_shape_matches,
        }


def _image_shape_basis() -> list[tuple[int, ...]]:
    """Basis of the symmetric elements whose last two rows sum to zero."""
    shapes = [
        {(0, 0): 1},
        {(1, 0): 1, (0, 1): 1, (2, 1): -1, (1, 2): -1, (2, 2): 1},
        {(2, 0): 1, (0, 2): 1, (2, 2): -1},
        {(1, 1): 1, (2, 1): -1, (1, 2): -1, (2, 2): 1},
    ]
    return [GroupRingElement.from_dict(3, 1, s).coeffs for s in shapes]


def b_map_analysis() -> BMapReport:
    """Rank, nullity, kernel relations and image shape of g -> B(g)."""
    elements = group_elements(3)
    rows = [bsigma_p3(*g.c).coeffs for g in elements]
    matrix = fp_linalg.FpMatrix.from_rows(3, rows)
    image_span = fp_linalg.row_space_basis(3, matrix.entries)
    kernel_dim = len(fp_linalg.kernel_basis(matrix))
    zero = GroupRingElement.zero(3, 1)
    relation_flags = []
    relation_names = []
    for terms, name in B_MAP_RELATIONS:
        total = zero
        for coeff, coords in terms:
            total = total + bsigma_p3(*coords).scale(coeff)
        relation_flags.append(total.is_zero())
        relation_names.append(name)
    shape_span = fp_linalg.row_space_basis(3, _image_shape_basis())
    shape_ok = image_span == shape_span
    return BMapReport(
        image_dim=len(image_span),
        kernel_dim=kernel_dim,
        relations=tuple(relation_flags),
        relation_names=tuple(relation_names),
        image_shape_matches=shape_ok,
    )
