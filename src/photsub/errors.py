"""Exception hierarchy shared by all photsub modules, and the input contract: one
table of the values every public entry point accepts, else ValueError."""

from math import inf
from operator import index
from sys import float_info


class PhotsubError(Exception):
    """Base class for all package-specific errors."""


class CutoffTooSmall(PhotsubError):
    """Requested Fock cutoff cannot hold the state within the tail-mass contract."""


class NullState(PhotsubError):
    """An operation annihilated the state (norm below the null threshold)."""


class MemoryBoundExceeded(PhotsubError):
    """A multimode tensor would exceed the configured amplitude budget."""


class MomentOrderMissing(PhotsubError):
    """A moment table was queried with a key outside it: of the wrong arity,
    or past a truncated table's order."""


class PrecisionInsufficient(PhotsubError):
    """A figure's certified ball spans more than one float at the working precision."""


class ZeroMeanPhoton(PhotsubError):
    """A statistic with a mean-photon denominator was requested on a dark field."""


class Singular(PhotsubError):
    """An uncertainty's denominator vanished at the working point."""


class OutOfRange(PhotsubError):
    """A target outside the range of the map being inverted, or a value past floats."""


class NonPositiveQfi(PhotsubError):
    """Cramer-Rao bound requested for a non-positive Fisher information."""


class ConfigInvalid(PhotsubError):
    """A sweep configuration failed validation; message carries field diagnostics."""


class UnknownPreset(PhotsubError):
    """No figure preset registered under the requested name."""


# The input contract.  Its integer kinds are capped: subtraction order (one
# SPATSV uncertainty point takes 0.76 s at m = 200 and 3.3 s at m = 300 on a
# Xeon core, as m^3.7) and Fock levels (the oracle's amplitude budget).  No
# kind sets working digits: the engine picks its own (:func:`photsub.moments.retried`).
MAX_ORDER = 200
MAX_AMPLITUDES = 30_000_000
_MAX = float_info.max  # a finite real lies within it either side

#: parameter name -> its kind: (lo, hi, what a value must be, whether it is
#: an integer, whether None passes), a number in [lo, hi]
PARAMETERS = {
    **dict.fromkeys(("lam", "mu", "r"), (0.0, _MAX, "finite and >= 0", False, False)),
    **dict.fromkeys(("eta", "tau", "one_minus_tau"), (0.0, 1.0, "in [0, 1]", False, False)),
    **dict.fromkeys(("phi", "psi", "target_lam"), (-_MAX, _MAX, "finite", False, False)),
    "fq": (-inf, inf, "a real number", False, False),
    "m": (0, MAX_ORDER, "a nonnegative integer", True, False),
    **dict.fromkeys(("cutoff", "quantum_cutoff"),
                    (0, MAX_AMPLITUDES, "None or a nonnegative integer", True, True)),
    "n_max": (0, MAX_AMPLITUDES, "a nonnegative integer", True, False),
}


def problem(name: str, value) -> str | None:
    """None if ``value`` lies in parameter ``name``'s kind, else what it must
    be; nan, a str and anything else not ordered against floats lie outside."""
    lo, hi, want, integer, none = PARAMETERS[name]
    if value is None:
        return None if none else want
    try:  # an integer kind reads the value's __index__, as a sequence index does
        inside = lo <= (index(value) if integer else value) <= hi
    except (TypeError, ArithmeticError):  # a str, a float for an integer; a Decimal sNaN
        return want
    return None if inside else f"an integer <= {hi}" if integer and value > hi else want


def check(**values) -> None:
    """ValueError naming the first of ``values`` outside its parameter's kind."""
    for name, value in values.items():
        if want := problem(name, value):
            raise ValueError(f"{name} must be {want}, got {value!r}")


def check_type(name: str, value, kind) -> None:
    """ValueError unless ``value`` is a ``kind``, a type or a tuple of them: a scene
    of the other scheme."""
    if not isinstance(value, kind):
        want = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ValueError(f"{name} must be a {want}, got {type(value).__name__}")
