"""Exception hierarchy shared across the package."""


class StarkSpecError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StarkSpecError):
    """Argument outside the supported domain (NaN, out-of-range, ...)."""


class ValidationError(StarkSpecError):
    """Invalid construction parameters (potential family, config, ...)."""


class NumericError(StarkSpecError):
    """A numerical procedure failed to converge or lost accuracy."""


class BracketError(NumericError):
    """Root bracketing failed; usually neighboring-eigenvalue interference."""


class DegeneracyError(NumericError):
    """psi_dot vanished at a root; impossible at a true eigenvalue."""


class TruncationError(NumericError):
    """Computational domain too small for the requested accuracy."""


class InsufficientDataError(StarkSpecError):
    """Not enough usable points for a statistical fit."""
