"""Exception types shared across the package."""


class ArityMismatch(ValueError):
    """Operands or tables do not fit one group ring's exponent and arity."""


class ModulusMismatch(ValueError):
    """Cyclotomic operands have different prime moduli."""


class NotAUnit(ValueError):
    """Inversion was requested for a non-invertible element."""


class NotSymmetric(ValueError):
    """An operation required a symmetric two-variable element."""


class NotSquare(ValueError):
    """An operation required a square matrix."""


class ContainmentViolation(ValueError):
    """The image of one differential does not lie in the kernel of the next."""


class InvalidAction(ValueError):
    """Group-module action matrices fail invertibility, commutation or order."""


class NotInvariant(ValueError):
    """Multiplication left the span of the supplied basis."""
