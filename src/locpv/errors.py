"""Exception hierarchy shared by all locpv modules.

Every error that can escape the public API derives from LocpvError, and the
class name doubles as the stable machine-parseable token the CLI prints on
stderr (``error: <ClassName>``).
"""


class LocpvError(Exception):
    """Base class for all locpv domain errors."""

    @property
    def token(self) -> str:
        return type(self).__name__


class OutOfDomain(LocpvError):
    """Query point lies outside a sampled field's grid, its domain."""


class StencilClipped(OutOfDomain):
    """A sampled grid axis is too short for a derivative's stencil, so no point
    of the grid has that derivative."""


class OrderTooHigh(LocpvError):
    """Requested derivative/PV order exceeds the field's supported maximum."""


class NotOscillatory(LocpvError):
    """Too few zero crossings for local-wavelength estimation."""


class SeedOffAttribute(LocpvError):
    """Tracking seed does not lie on the requested attribute set."""


class SingularSeed(LocpvError):
    """Tracking seed sits on a masked (singular) point of the velocity field."""


class NoBracket(LocpvError):
    """Root bracketing for seed search found no sign change."""


class DegenerateTrajectory(LocpvError):
    """Trajectory spans zero time; no average velocity exists."""


class DegenerateDenominator(LocpvError):
    """A closed-form velocity expression hit an exact pole."""


class PoleOnPath(LocpvError):
    """Transit-time integrand has a pole inside the requested interval."""


class NonpositiveLogArgument(LocpvError):
    """Logarithm argument in the global first-order relation is not positive."""


class QuadratureLimit(LocpvError):
    """An adaptive quadrature met no error bound within its interval limit."""


class DegenerateInterval(LocpvError):
    """Zero-length spatial interval where a finite one is required."""


class CFLViolation(LocpvError):
    """Explicit scheme stability bound max(a)*dt/dx <= 1 violated."""


class NonfiniteBlowup(LocpvError):
    """Simulated field exceeded the runaway guard magnitude or turned non-finite."""
