"""Exception types shared across the toolkit.

Class names match the error tokens used in operation contracts; every message
names the quantity or operation that failed so CLI reports stay diagnosable.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-raised errors."""


class NonFinite(ToolkitError):
    """Input contains NaN or infinite entries."""


class AmbientMismatch(ToolkitError):
    """Vector indices or dimension are incompatible with the operator."""


class NotConcave(ToolkitError):
    """Operation requires a concave operator."""


class UnsupportedRegime(ToolkitError):
    """Operator representation not supported by this operation."""


class OneInSpectrum(ToolkitError):
    """Cayley transform undefined: 1 lies in the spectrum at tolerance."""


class OutsideDisc(ToolkitError):
    """Evaluation point lies outside the model's convergence disc."""


class TailNotConvergent(ToolkitError):
    """Series tail cannot be brought below tolerance within the term cap."""


class ZeroConstantTerm(ToolkitError):
    """Series inversion requires a nonzero constant term."""


class ZeroOnBoundary(ToolkitError):
    """Blaschke zero must lie strictly inside the unit disc."""


class SymbolSingularAtOrigin(ToolkitError):
    """Symbol takes the value 1 at the origin; (phi+1)/(phi-1) undefined."""


class TruncationTooSmall(ToolkitError):
    """Requested truncation order cannot resolve the computation."""
