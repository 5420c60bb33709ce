"""Exception types shared across the package."""


class HurwitzError(Exception):
    """Base class for all artifact-specific failures."""


class BudgetExceeded(HurwitzError):
    """A computation was refused because it falls outside the configured budget."""


class NonzeroRemainder(HurwitzError):
    """An exact division left a remainder; upstream assembly is inconsistent."""


class NotVanishing(HurwitzError):
    """A polynomial expected to vanish at y_i = 1 does not."""


class NotSymmetric(HurwitzError):
    """A polynomial expected to be symmetric is not."""


class InconsistentSystem(HurwitzError):
    """An interpolation system has no solution or is underdetermined."""


class RouteDisagreement(HurwitzError):
    """Two independent computation routes produced different answers."""


class ResidualNonzero(HurwitzError):
    """A solved polynomial fails its defining equation."""


class CertificationError(HurwitzError, ArithmeticError):
    """A certification check failed: symmetry, vanishing, degree bounds,
    a table checksum, an oracle mass or integrality check, or a count
    that does not scale to an integer."""
