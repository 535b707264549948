"""Photon-subtracted squeezed state specs and their exact properties.

A spec names a PASSV (photon-annihilated single-mode squeezed vacuum) or a
SPATSV (symmetrically photon-annihilated two-mode squeezed vacuum) state by
its pre-subtraction energy and subtraction order.  Its mode
count, 1 or 2, is the one key of its scheme: it picks the exact moment table,
the mean-photon map (a ratio of integer polynomials in lam, evaluated exactly
and rounded once) and the map that the energy balancing of fixed-total-energy
comparisons inverts, whose root is the float nearest the exact one.  All of
it is exact arithmetic on Python integers: the spec's truncated Fock state,
which only the oracle reads, is built by :func:`photsub.fock.subtracted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from math import asinh, sqrt
from struct import pack, unpack

from . import moments
from .errors import OutOfRange, check
from .moments import MomentTable, _binary, _horner, _lam_free, _vacuum_entry, ratio


@dataclass(frozen=True)
class _SubtractionSpec:
    """Pre-subtraction energy and subtraction order of ``modes`` modes."""

    lam: float  # mean photons (per mode for a pair) before subtraction, sinh^2 r
    m: int = 0  # number of subtracted photons (from each mode of a pair)

    def __post_init__(self):
        check(lam=self.lam, m=self.m)

    @property
    def r(self) -> float:
        return asinh(sqrt(self.lam))

    def table(self) -> MomentTable:
        """The exact moments of the subtracted state over its modes (:mod:`photsub.moments`)."""
        return MomentTable(range(self.modes), _vacuum_entry, self.lam, self.m)

    @property
    def mean_photons(self) -> float:
        """Mean photons (per mode for a pair), correctly rounded: <a^dag^(m+1) a^(m+1)> /
        <a^dag^m a^m> of the parent, a ratio of integer polynomials (3 lam + 1 for a
        PASSV at m = 1) evaluated exactly at lam."""
        return ratio(*_at(_mean_photon_map(self.modes, self.m), *_binary(self.lam)))


@dataclass(frozen=True)
class PassvSpec(_SubtractionSpec):
    """Single-mode subtraction spec: pre-subtraction energy and order."""

    modes = 1


@dataclass(frozen=True)
class SpatsvSpec(_SubtractionSpec):
    """Two-mode symmetric subtraction spec."""

    modes = 2


# ---------------------------------------------------------------------------
# Mean photon numbers and energy balancing
# ---------------------------------------------------------------------------

#: mode count -> the key of the first mode's photon number, in one mode or a pair
_PHOTON_KEYS = {1: (1, 1), 2: (1, 1, 0, 0)}


@cache
def _mean_photon_map(modes: int, m: int) -> tuple:
    """(P, Q), the integer coefficients (lowest power first, one length) of the
    mean-photon map P(lam)/Q(lam): the lam-free vacuum entries
    (:func:`photsub.moments._lam_free`) of m + 1 and of m photons from the
    first mode, m from any second, padded to one length, their common power of
    lam divided out: P(0)/Q(0) is the lam = 0 limit (m mod 2 for PASSV, 0 for SPATSV)."""
    key = _PHOTON_KEYS[modes]
    p, q = (list(_lam_free(_vacuum_entry, m, k)[0]) for k in (key, (0,) * len(key)))
    q += [0] * (len(p) - len(q))
    while not (p[0] or q[0]):
        del p[0], q[0]
    return tuple(p), tuple(q)


def _at(pq: tuple, n: int, shift: int) -> tuple:
    """P and Q at lam = n 2^-shift, both times 2^(shift deg P) (:func:`_horner`)."""
    return _horner(pq[0], n, shift), _horner(pq[1], n, shift)


def balance_energy(target_lam: float, m: int, modes: int) -> float:
    """Invert the mean-photon map of a spec of ``modes`` modes: the float lam0
    nearest the root of mean(lam0, m) = target_lam, correctly rounded
    (:func:`_nearest_root`).

    Raises ValueError for a target of inf or nan or a mode count other than 1
    (PASSV) or 2 (SPATSV), and OutOfRange for a target below the map's value
    at lam = 0 (odd-m PASSV has mean >= 1 for every lam).  Roots are memoised
    by (target, m, modes): a sweep solves a shared one once.
    """
    check(target_lam=target_lam, m=m)
    if modes not in _PHOTON_KEYS:
        raise ValueError(f"unknown mode count {modes!r}, want 1 or 2")
    return _balance_root(target_lam, m, modes)


@lru_cache(maxsize=moments.MEMO_SIZE)
def _balance_root(target_lam: float, m: int, modes: int) -> float:
    pq, target = _mean_photon_map(modes, m), float(target_lam)
    tn, td = target.as_integer_ratio()
    (p0, *_), (q0, *_) = pq
    if td * p0 > tn * q0:
        raise OutOfRange(f"target {target_lam} below the infimum {p0 / q0} of the m={m} map")
    return 0.0 if td * p0 == tn * q0 else _nearest_root(pq, target)


def _nearest_root(pq: tuple, target: float) -> float:
    """The float nearest the root of the increasing P/Q = target > P(0)/Q(0).

    Float Newton steps from the map's asymptote c1 lam + c0 (the asymptote
    alone where a huge target overflows P), then one step on the exact
    residual, estimate it.  The answer is the least float bit pattern whose
    upper midpoint has td P >= tn Q, target = tn/td (a root on a midpoint
    rounds down), found by four neighbour steps from the estimate, else by
    bisecting [0, max(target, 1)], which brackets the root as P - lam Q has
    no negative coefficient, in at most 63 steps."""
    tn, td = target.as_integer_ratio()

    def residual(n: int, shift: int) -> tuple:
        """td hq (P/Q - target) and td hq at lam = n 2^-shift, exactly."""
        hp, hq = _at(pq, n, shift) if shift >= 0 else _at(pq, n << -shift, 0)
        return td * hp - tn * hq, td * hq

    def reaches(k: int) -> bool:
        exp = k >> 52
        mantissa = (k & (1 << 52) - 1) | (1 << 52 if exp else 0)
        return residual(2 * mantissa + 1, 1076 - max(exp, 1))[0] >= 0

    p, q = ([c / pq[1][-2] for c in poly] for poly in pq)  # Q's leading coefficient 1
    slope, cap = p[-1], max(target, 1.0)
    x = max((target - p[-2] + slope * (q[-3] if len(q) > 2 else 0.0)) / slope, 0.0)
    for _ in range(40):
        f = df = g = dg = 0.0
        for a, b in zip(reversed(p), reversed(q)):
            df, f, dg, g = df * x + f, f * x + a, dg * x + g, g * x + b
        if not (gradient := (df - f / g * dg) / g) > 0:  # (P/Q)' = (P' - (P/Q) Q')/Q
            break
        slope, last = gradient, x
        x = min(max(x - (f / g - target) / slope, 0.0), cap)
        if abs(x - last) <= 1e-15 * x:
            break
    num, den = residual(*_binary(x))
    bits = lambda x: unpack("<q", pack("<d", x))[0]  # orders the floats >= 0
    lo, hi = -1, bits(cap)
    k, steps = min(max(bits(x - num / den / slope), 0), hi), 0
    while hi - lo > 1:
        k = k if steps < 4 else (lo + hi) // 2
        if reaches(k):
            hi, k = k, k - 1
        else:
            lo, k = k, k + 1
        steps += 1
    return unpack("<d", pack("<q", hi))[0]
