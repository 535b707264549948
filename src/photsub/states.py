"""Photon-subtracted squeezed state constructors and closed-form properties.

Builds PASSV (photon-annihilated single-mode squeezed vacuum) and SPATSV
(symmetrically photon-annihilated two-mode squeezed vacuum) states, their
finite seed-superposition representations, the mean-photon maps and the
energy-balancing solver used in fixed-total-energy comparisons.  The
constructors build Fock-space states, which only the oracle reads, so they
import :mod:`photsub.fock` (and numpy) when called: a sweep never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, inf, isfinite, isnan, sqrt
from numbers import Integral
from typing import TYPE_CHECKING

from .errors import OutOfRange
from .moments import at_float_digits, bogoliubov_vacuum_moment_1m, bogoliubov_vacuum_moment_2m

if TYPE_CHECKING:
    from .fock import FockState1, TwoModeDiagonalState


@dataclass(frozen=True)
class _SubtractionSpec:
    """Pre-subtraction energy, subtraction order and squeezing angle."""

    lam: float  # mean photons (per mode for a pair) before subtraction, sinh^2 r
    m: int = 0  # number of subtracted photons (from each mode of a pair)
    chi: float = 0.0  # squeezing angle

    def __post_init__(self):
        if not isfinite(self.lam) or self.lam < 0:
            raise ValueError("lam must be finite and >= 0")
        if not isinstance(self.m, Integral) or self.m < 0:
            raise ValueError("m must be a nonnegative integer")
        if not isfinite(self.chi):
            raise ValueError("chi must be finite")

    @property
    def r(self) -> float:
        import numpy as np

        return float(np.arcsinh(np.sqrt(self.lam)))


@dataclass(frozen=True)
class PassvSpec(_SubtractionSpec):
    """Single-mode subtraction spec: pre-subtraction energy, order, angle."""


@dataclass(frozen=True)
class SpatsvSpec(_SubtractionSpec):
    """Two-mode symmetric subtraction spec."""


@at_float_digits
def passv(spec: PassvSpec, cutoff: int | None = None) -> FockState1:
    """PASSV state: m-fold photon subtraction from squeezed vacuum.

    ``cutoff`` bounds the squeezed vacuum before subtraction; by default it
    is the smallest that leaves the subtracted state a tail below
    ``fock.TAIL_TOL``.
    """
    from . import fock

    if cutoff is None:
        moment = float(bogoliubov_vacuum_moment_1m(spec.m, spec.m, spec.lam).real)
        cutoff = fock.subtracted_cutoff(fock.squeezed_weights(spec.r), spec.m, 1, moment)
    ssv = fock.squeezed_vacuum(spec.r, spec.chi, cutoff)
    state, _ = fock.subtract_photons(ssv, spec.m)
    return state


@at_float_digits
def spatsv(spec: SpatsvSpec, cutoff: int | None = None) -> TwoModeDiagonalState:
    """SPATSV state: symmetric m-fold subtraction from two-mode squeezed vacuum.

    ``cutoff`` bounds the TSV before subtraction; the default is sized on
    the subtracted state, as in :func:`passv`.
    """
    from . import fock

    if cutoff is None:
        moment = bogoliubov_vacuum_moment_2m(spec.m, spec.m, spec.m, spec.m, spec.lam)
        weights = fock.two_mode_squeezed_weights(spec.lam)
        cutoff = fock.subtracted_cutoff(weights, spec.m, 2, float(moment.real))
    tsv = fock.two_mode_squeezed_vacuum(spec.lam, spec.chi, cutoff)
    state, _ = fock.subtract_photons(tsv, spec.m)
    return state


def passv_seed(spec: PassvSpec) -> FockState1:
    """Seed superposition whose squeezing reproduces the PASSV state.

    Components |m - 2l>, l = 0..floor(m/2), with weights
    (1/(l! sqrt((m-2l)!))) * (e^{-i chi} sqrt((1+lam)/lam) / 2)^l.
    """
    import numpy as np

    from .fock import FockState1

    m, lam, chi = spec.m, spec.lam, spec.chi
    if m == 0:
        return FockState1(np.array([1.0 + 0j]))
    if lam == 0:
        raise OutOfRange("seed representation is singular at lam = 0 for m > 0")
    amps = np.zeros(m + 1, dtype=complex)
    z = np.exp(-1j * chi) * 0.5 * sqrt((1.0 + lam) / lam)
    for l in range(m // 2 + 1):
        amps[m - 2 * l] = z**l / (factorial(l) * sqrt(factorial(m - 2 * l)))
    return FockState1(amps).normalized()


def spatsv_seed(spec: SpatsvSpec) -> TwoModeDiagonalState:
    """Seed superposition sum_k C^m_k |k,k> whose two-mode squeezing gives SPATSV.

    C^m_k is binomial-weighted: C(m,k) (lam/(1+lam))^{k/2} e^{i chi k}, with
    overall normalization sqrt((1+lam)^m / P_m(2 lam + 1)).
    """
    import numpy as np

    from .fock import TwoModeDiagonalState

    m, lam, chi = spec.m, spec.lam, spec.chi
    amps = np.zeros(m + 1, dtype=complex)
    ratio = sqrt(lam / (1.0 + lam)) if lam > 0 else 0.0
    for k in range(m + 1):
        amps[k] = comb(m, k) * ratio**k * np.exp(1j * chi * k)
    return TwoModeDiagonalState(amps).normalized()


# ---------------------------------------------------------------------------
# Mean photon numbers
# ---------------------------------------------------------------------------


@at_float_digits
def passv_mean_photons(lam: float, m: int) -> float:
    """Mean photon number of the m-subtracted squeezed vacuum.

    Closed forms for m <= 3 while lam^2 stays a finite float; otherwise the
    ratio of the squeezed vacuum's factorial moments
    <a^dag^(m+1) a^(m+1)> / <a^dag^m a^m>.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if m == 0:
        return lam
    if lam < 1e150:
        if m == 1:
            return 3.0 * lam + 1.0
        if m == 2:
            return 3.0 * lam * (3.0 + 5.0 * lam) / (1.0 + 3.0 * lam)
        if m == 3:
            return (3.0 + 30.0 * lam + 35.0 * lam**2) / (3.0 + 5.0 * lam)
        if lam == 0:
            # the subtracted state degenerates to |0> (even m) or |1> (odd m)
            return float(m % 2)
    num = bogoliubov_vacuum_moment_1m(m + 1, m + 1, lam)
    den = bogoliubov_vacuum_moment_1m(m, m, lam)
    return float((num / den).real)


@at_float_digits
def spatsv_mean_photons(lam: float, m: int) -> float:
    """Mean photons per mode of the symmetrically m-subtracted TSV."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if m == 0:
        return lam
    if lam == 0:
        return 0.0
    num = bogoliubov_vacuum_moment_2m(m + 1, m + 1, m, m, lam)
    den = bogoliubov_vacuum_moment_2m(m, m, m, m, lam)
    return float((num / den).real)


def balance_energy(target_lam: float, m: int, kind: str = "single") -> float:
    """Invert the mean-photon map: find lam0 with mean(lam0, m) = target_lam.

    ``kind`` selects the single-mode (PASSV) or two-mode (SPATSV) map.  The
    maps are monotone in lam: the root is bracketed by doubling from
    [0, max(target, 1)] and found by :func:`brentq`, the package's own port
    of Brent's method, which reuses the two bracket values.  Raises
    OutOfRange when the target lies below the map's infimum (odd-m PASSV has
    mean >= 1 for every lam).  Roots are memoised by (target, m, kind), so a
    sweep whose points share a target solves it once.
    """
    return _balance_root(target_lam, m, kind)


@lru_cache(maxsize=16)
def _balance_root(target_lam: float, m: int, kind: str) -> float:
    if kind == "single":
        mean = lambda lam: passv_mean_photons(lam, m)
    elif kind == "two_mode":
        mean = lambda lam: spatsv_mean_photons(lam, m)
    else:
        raise ValueError("kind must be 'single' or 'two_mode'")
    if m == 0:
        if target_lam < 0:
            raise OutOfRange("target energy must be >= 0")
        return float(target_lam)
    lo = 0.0
    f_lo = mean(lo) - target_lam
    if abs(f_lo) < 1e-14:
        return lo
    if f_lo > 0:
        raise OutOfRange(
            f"target {target_lam} below the infimum {mean(lo)} of the m={m} map"
        )
    hi = max(target_lam, 1.0)
    while (f_hi := mean(hi) - target_lam) < 0:
        hi *= 2.0
        if hi > 1e12:
            raise OutOfRange("target energy unreachable")
    root = brentq(
        lambda lam: mean(lam) - target_lam, lo, hi, fa=f_lo, fb=f_hi, xtol=1e-15, rtol=1e-14
    )
    return float(root)


def _reject_nan(fx: float, x: float) -> float:
    if isnan(fx):
        raise ValueError(f"the function value at x={x} is NaN")
    return fx


def _brent_step(xpre, xcur, xblk, fpre, fcur, fblk) -> float:
    """Secant (xpre = xblk) or inverse quadratic step from xcur; inf where
    it would divide by zero, which makes the caller bisect as C does."""
    try:
        if xpre == xblk:
            return -fcur * (xcur - xpre) / (fcur - fpre)
        dpre = (fpre - fcur) / (xpre - xcur)
        dblk = (fblk - fcur) / (xblk - xcur)
        return -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
    except ZeroDivisionError:
        return inf


def brentq(f, a, b, *, fa, fb, xtol, rtol, maxiter=100):
    """Root of f in the bracket [a, b] by Brent's method.

    Step for step the algorithm of scipy's ``brentq.c`` (bracket swap,
    secant or inverse quadratic step, bisection fallback, tolerance
    2 delta = xtol + rtol |x|), so it returns the same float.  ``fa`` and
    ``fb`` are f(a) and f(b), which the caller has from bracketing.  Raises
    ValueError when f(a) and f(b) have the same sign or f returns NaN, and
    RuntimeError when ``maxiter`` iterations do not converge.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = _reject_nan(fa, a), _reject_nan(fb, b)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if (
            abs(spre) > delta
            and abs(fcur) < abs(fpre)
            and 2 * abs(stry := _brent_step(xpre, xcur, xblk, fpre, fcur, fblk))
            < min(abs(spre), 3 * abs(sbis) - delta)
        ):
            spre, scur = scur, stry  # a good short step
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _reject_nan(f(xcur), xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations")
