"""Exception hierarchy shared by all photsub modules."""


class PhotsubError(Exception):
    """Base class for all package-specific errors."""


class CutoffTooSmall(PhotsubError):
    """Requested Fock cutoff cannot hold the state within the tail-mass contract."""


class NullState(PhotsubError):
    """An operation annihilated the state (norm below the null threshold)."""


class ModeMismatch(PhotsubError):
    """Two states with incompatible mode counts were combined."""


class MemoryBoundExceeded(PhotsubError):
    """A multimode tensor would exceed the configured amplitude budget."""


class MomentOrderMissing(PhotsubError):
    """A moment table was queried with a key outside it: of the wrong arity,
    or past a truncated table's order."""


class PrecisionInsufficient(PhotsubError):
    """Cancellation consumed too many digits for the working precision."""


class ZeroMeanPhoton(PhotsubError):
    """A statistic with a mean-photon denominator was requested on a dark field."""


class Singular(PhotsubError):
    """The uncertainty denominator (a phase derivative) vanished at the working point."""


class OutOfRange(PhotsubError):
    """A target value lies outside the range of the map being inverted."""


class UnsupportedOrder(PhotsubError):
    """No closed form is available for this subtraction order."""


class NonPositiveQfi(PhotsubError):
    """Cramer-Rao bound requested for a non-positive Fisher information."""


class ConfigInvalid(PhotsubError):
    """A sweep configuration failed validation; message carries field diagnostics."""


class UnknownPreset(PhotsubError):
    """No figure preset registered under the requested name."""
