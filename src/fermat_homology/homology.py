"""Homology of the affine and projective Fermat curve as modules.

Classes in the relative homology of the affine curve against its axis
points are elements W of Lambda_1 acting on the distinguished generator.
The boundary map lands in two copies of Lambda_0 (one per axis); its
kernel is cut out by vanishing row and column sums, the projective curve
quotients that kernel by the shift-invariant classes, and multiplication
by a group-ring element gives the action matrices on any invariant basis.
The image b*W of each class is W times the sparse rows of x -> b*x
(``group_ring._product_rows``), so no group-ring product is formed.

Everything here works over Z/n for any n >= 3: the bases are explicit
monomial combinations, so no field elimination is needed to produce them.
"""

from __future__ import annotations

from . import fp_linalg
from ._value import frozen
from .errors import NotInvariant
from .group_ring import GroupRingElement, _product_rows
from .scalars import _zmod, is_prime


@frozen
class RelativeClass:
    """Element W of Lambda_1, representing the class W * beta."""

    w: GroupRingElement

    def __post_init__(self):
        if self.w.m != 1:
            raise ValueError("relative classes are two-variable elements")


@frozen
class BoundaryClass:
    """Element of Lambda_0 + Lambda_0; first the x-axis points, then y."""

    r: GroupRingElement
    q: GroupRingElement

    def is_zero(self) -> bool:
        return self.r.is_zero() and self.q.is_zero()


def boundary_delta(rc: RelativeClass) -> BoundaryClass:
    """Boundary of W * beta: sum a_ij (e_0^i + 0) - sum a_ij (0 + e_1^j)."""
    n = rc.w.n
    grid = rc.w.grid()
    r = GroupRingElement.from_dict(n, 0, {(i,): sum(grid[i]) for i in range(n)})
    q = GroupRingElement.from_dict(
        n, 0, {(j,): -sum(grid[i][j] for i in range(n)) for j in range(n)}
    )
    return BoundaryClass(r, q)


def _corner_class(n: int, i: int, j: int) -> RelativeClass:
    """(e_0^i - e_0^{n-1})(e_1^j - e_1^{n-1})."""
    w = GroupRingElement.from_dict(
        n,
        1,
        {
            (i, j): 1,
            (i, n - 1): -1,
            (n - 1, j): -1,
            (n - 1, n - 1): 1,
        },
    )
    return RelativeClass(w)


def h1U_basis(n: int) -> list[RelativeClass]:
    """Basis of the kernel of the boundary map, of size (n-1)^2.

    The basis vectors are the products (e_0^i - e_0^{n-1})(e_1^j - e_1^{n-1})
    for 0 <= i, j <= n-2, which is the reduced echelon basis in the monomial
    coordinate order.  For n = 3 the four vectors are listed in the pinned
    order (0,0), (1,0), (0,1), (1,1) so action matrices come out in the
    published form.
    """
    if n < 3:
        raise ValueError(f"exponent must be at least 3, got {n}")
    if n == 3:
        order = [(0, 0), (1, 0), (0, 1), (1, 1)]
    else:
        order = [(i, j) for i in range(n - 1) for j in range(n - 1)]
    return [_corner_class(n, i, j) for i, j in order]


def stab_basis(n: int) -> list[RelativeClass]:
    """Basis of the shift-invariant part of the kernel, of size n-1.

    A shift-invariant class is constant on the diagonals i - j = d; with
    zero row sums the diagonal values must sum to zero, so the differences
    D_d - D_{n-1} for d = 0, ..., n-2 form a basis.
    """
    if n < 3:
        raise ValueError(f"exponent must be at least 3, got {n}")
    out = []
    for d in range(n - 1):
        coeffs: dict[tuple[int, int], int] = {}
        for i in range(n):
            coeffs[(i, (i - d) % n)] = 1
            coeffs[(i, (i + 1) % n)] = coeffs.get((i, (i + 1) % n), 0) - 1
        out.append(RelativeClass(GroupRingElement.from_dict(n, 1, coeffs)))
    return out


def _h1X_classes(n: int) -> list[RelativeClass]:
    """Coset representatives of the projective homology: the corner
    classes (i, j) with j >= 1, in (i, j) order.

    Eliminating the j = 0 corner classes against the n-1 stabilizer
    relations (each has unit coefficient there) shows these (n-1)(n-2)
    classes form a basis of the quotient over Z/n for every n.
    """
    return [_corner_class(n, i, j) for i in range(n - 1) for j in range(1, n - 1)]


def h1X_subquotient(n: int) -> fp_linalg.SubquotientReport:
    """Homology of the projective curve as kernel mod shift-invariants:
    ``h1U_basis`` modulo ``stab_basis``, with the coefficient vectors of
    ``_h1X_classes`` as coset basis."""
    return fp_linalg.SubquotientReport(
        ambient_dim=n * n,
        kernel_basis=tuple(rc.w.coeffs for rc in h1U_basis(n)),
        image_basis=tuple(rc.w.coeffs for rc in stab_basis(n)),
        coset_basis=tuple(rc.w.coeffs for rc in _h1X_classes(n)),
    )


def action_matrix(
    b: GroupRingElement,
    basis: list[RelativeClass],
    modulo: list[RelativeClass] | None = None,
) -> fp_linalg.FpMatrix:
    """Matrix of W -> b*W on the span of ``basis``; rows hold images.

    With ``modulo`` the images are reduced against those extra vectors
    first, giving the induced map on the quotient.  Raises NotInvariant
    when an image leaves the allowed span, and ArityMismatch when a basis
    or modulo class differs from b in exponent, arity or ring.  Requires
    prime n and, when there is a class to act on, coefficients in Z/n.

    Each image b*W is the product of W with the rows of
    ``_product_rows(b)``, and ``fp_linalg._coordinates`` writes every image
    in the basis and modulo vectors at once, on the first independent ones
    (a class listed twice takes its coordinate on the first copy); the
    basis part of an image's coordinates is its row of the matrix.
    """
    n, size = b.n, len(basis)
    if not is_prime(n):
        raise ValueError(f"modulus must be prime, got {n}")
    classes = [*basis, *(modulo or [])]
    for rc in classes:
        b._check_compatible(rc.w)
    if classes and b.ring != _zmod(n):
        raise ValueError(f"action matrices are defined over Z/{n}, got {b.ring!r}")
    vectors = fp_linalg._sparse(n, [rc.w.coeffs for rc in classes])
    images = fp_linalg._matmul(n, vectors[:size], _product_rows(b))
    solutions = fp_linalg._coordinates(n, images, vectors)
    if any(x is None for x in solutions):
        raise NotInvariant("multiplication left the span of the basis")
    keep = [{j: x for j, x in sol.items() if j < size} for sol in solutions]
    return fp_linalg.FpMatrix(n, size, size, fp_linalg._dense(keep, size))
