"""Exception types shared across the library."""


class ZetafreeError(Exception):
    """Base class for all library-specific errors."""


class RatioOutOfRangeError(ZetafreeError):
    """b1/b0 outside the bracket window (1, 3) of the shape equation."""


class NonnegativityError(ZetafreeError):
    """Polynomial failed the nonnegativity check required by the objective."""


class DegreeOverflowError(ZetafreeError):
    """Expansion would exceed the configured maximum cosine degree."""


class DomainError(ZetafreeError):
    """Argument outside the window where the evaluator is valid."""


class CapacityError(ZetafreeError):
    """Requested accuracy needs a sieve larger than the configured cap."""


class NoFeasiblePointError(ZetafreeError):
    """Every optimization start was rejected by the feasibility checks."""
