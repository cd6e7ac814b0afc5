"""Exception and result types shared across the package."""

from dataclasses import dataclass, field


@dataclass
class Approximation:
    """A computed value with an a-posteriori error estimate.

    Every route returns one: ``method`` names the route and
    ``diagnostics`` holds its counters.
    """

    value: float | complex
    est_error: float
    method: str
    diagnostics: dict = field(default_factory=dict)


class LevyKernelError(Exception):
    """Base class for all numerical-evaluation errors raised here."""


class StripViolation(LevyKernelError):
    """Contour abscissa or Mellin argument outside its strip of validity."""


class NoDecay(LevyKernelError):
    """Integrand fails the sampled decay check along the contour."""


class NonConvergent(LevyKernelError):
    """Successive refinements did not reach the requested tolerance."""


class ParityError(LevyKernelError):
    """Leading-term formula requested in the wrong parity regime of beta."""


class DomainError(LevyKernelError):
    """Operation called outside its mathematical domain of validity."""
