"""Photon-subtracted squeezed state constructors and exact properties.

Builds PASSV (photon-annihilated single-mode squeezed vacuum) and SPATSV
(symmetrically photon-annihilated two-mode squeezed vacuum) states, their
finite seed-superposition representations, the mean-photon maps (ratios of
integer polynomials in lam, evaluated exactly and rounded once) and the
energy balancing of fixed-total-energy comparisons, whose root is the float
nearest the exact one.  The constructors build Fock-space states, which
only the oracle reads, so they import :mod:`photsub.fock` (and numpy) when
called: a sweep never does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, sqrt
from struct import pack, unpack
from typing import TYPE_CHECKING

from .errors import NullState, OutOfRange, check
from .moments import (
    _binary, _horner, _vacuum_entry, passv_moment_table, ratio, spatsv_moment_table)

if TYPE_CHECKING:
    from .fock import FockState1, TwoModeDiagonalState


@dataclass(frozen=True)
class _SubtractionSpec:
    """Pre-subtraction energy, subtraction order and squeezing angle."""

    lam: float  # mean photons (per mode for a pair) before subtraction, sinh^2 r
    m: int = 0  # number of subtracted photons (from each mode of a pair)
    chi: float = 0.0  # squeezing angle

    def __post_init__(self):
        check(lam=self.lam, m=self.m, chi=self.chi)

    @property
    def r(self) -> float:
        import numpy as np

        return float(np.arcsinh(np.sqrt(float(self.lam))))


@dataclass(frozen=True)
class PassvSpec(_SubtractionSpec):
    """Single-mode subtraction spec: pre-subtraction energy, order, angle."""


@dataclass(frozen=True)
class SpatsvSpec(_SubtractionSpec):
    """Two-mode symmetric subtraction spec."""


def passv(spec: PassvSpec, cutoff: int | None = None) -> FockState1:
    """PASSV state: m-fold photon subtraction from squeezed vacuum.

    ``cutoff`` bounds the squeezed vacuum before subtraction and is checked
    against its tail.  By default it is the least that leaves the subtracted
    state a tail below ``fock.TAIL_TOL``, plus ``fock.CUTOFF_MARGIN``.
    """
    return _subtracted(spec, cutoff, 1)


def spatsv(spec: SpatsvSpec, cutoff: int | None = None) -> TwoModeDiagonalState:
    """SPATSV state: symmetric m-fold subtraction from two-mode squeezed vacuum.

    ``cutoff`` bounds the TSV before subtraction; the default is sized on
    the subtracted state, as in :func:`passv`.
    """
    return _subtracted(spec, cutoff, 2)


def _subtracted(spec: _SubtractionSpec, cutoff, power):
    """a^m on each of the ``power`` modes of the squeezed vacuum (1) or TSV (2).

    The default cutoff comes from filling the subtracted state: its level n
    is the parent's amplitude at n + m, times ((n + m)!/n!)^(power/2), over
    the square root of the norm of the state's own moment table.  The fill
    takes chi = 0, which leaves every level's mass as it is, so the cutoff
    depends on lam and m alone.
    """
    from . import fock

    check(cutoff=cutoff)
    m = spec.m
    build, amplitude, squeezing, moment_table = (
        (fock.squeezed_vacuum, fock._squeezed, spec.r, passv_moment_table) if power == 1 else
        (fock.two_mode_squeezed_vacuum, fock._two_mode_squeezed, spec.lam, spatsv_moment_table))
    if cutoff is None:
        table = moment_table(spec.lam, m)
        moment = ratio(table.norm, 1, -table.shift * table.norm_degree)
        if moment <= 0.0:  # a nonzero norm can underflow
            raise NullState("photon subtraction annihilated the state")
        parent, scale = amplitude(squeezing, 0.0), 1.0 / sqrt(moment)
        filled = fock._filled(lambda n: parent(n + m) * fock._falling(n, m, power) * scale,
                              mean=spec.lam)  # below the subtracted state's mean
        cutoff = len(filled) - 1 + m
    return fock.subtract_photons(build(squeezing, spec.chi, cutoff), m)[0]


def passv_seed(spec: PassvSpec) -> FockState1:
    """Seed superposition whose squeezing reproduces the PASSV state.

    Components |m - 2l>, l = 0..floor(m/2), with weights z^l/(l! sqrt((m-2l)!)),
    z = e^{-i chi} sqrt((1+lam)/lam)/2, over |z|^floor(m/2) so that none
    overflows as lam -> 0, where the seed tends to |m mod 2>.
    """
    import numpy as np

    from .fock import FockState1

    m, lam, chi = spec.m, spec.lam, spec.chi
    if m == 0:
        return FockState1(np.array([1.0 + 0j]))
    if lam == 0:
        raise OutOfRange("seed representation is singular at lam = 0 for m > 0")
    amps = np.zeros(m + 1, dtype=complex)
    r = 2.0 * sqrt(lam / (1.0 + lam))  # 1/|z|
    for l in range(m // 2 + 1):
        amps[m - 2 * l] = np.exp(-1j * chi * l) * r ** (m // 2 - l) / (
            factorial(l) * sqrt(factorial(m - 2 * l)))
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
# Mean photon numbers and energy balancing
# ---------------------------------------------------------------------------

#: (kind, m) -> (P, Q), the integer coefficients (lowest power first, one
#: length) of the mean-photon map P(lam)/Q(lam); a sweep uses a few orders
_MAPS = {}


def _mean_photon_map(kind: str, m: int) -> tuple:
    """(P, Q): the lam-free vacuum entries (:func:`photsub.moments._vacuum_entry`)
    of m + 1 and of m photons from the first mode, m from any second, padded
    to one length, their common power of lam divided out: P(0)/Q(0) is the
    lam = 0 limit (m mod 2 for PASSV, 0 for SPATSV)."""
    if (kind, m) not in _MAPS:
        if kind not in ("single", "two_mode"):
            raise ValueError(f"unknown mean-photon map kind {kind!r}")
        key = (1, 1) if kind == "single" else (1, 1, 0, 0)
        p, q = (_vacuum_entry(m, k)[1] for k in (key, (0,) * len(key)))
        q += [0] * (len(p) - len(q))
        while not (p[0] or q[0]):
            del p[0], q[0]
        _MAPS[kind, m] = (tuple(p), tuple(q))
    return _MAPS[kind, m]


def _at(pq: tuple, n: int, shift: int) -> tuple:
    """P and Q at lam = n 2^-shift, both times 2^(shift deg P) (:func:`_horner`)."""
    return _horner(pq[0], n, shift), _horner(pq[1], n, shift)


def _mean_photons(kind: str, lam: float, m: int) -> float:
    check(lam=lam, m=m)
    return ratio(*_at(_mean_photon_map(kind, m), *_binary(lam)))


def passv_mean_photons(lam: float, m: int) -> float:
    """Mean photon number of the m-subtracted squeezed vacuum, correctly rounded:
    <a^dag^(m+1) a^(m+1)> / <a^dag^m a^m> of the squeezed vacuum, a ratio of
    integer polynomials (3 lam + 1 for m = 1) evaluated exactly at lam."""
    return _mean_photons("single", lam, m)


def spatsv_mean_photons(lam: float, m: int) -> float:
    """Mean photons per mode of the symmetrically m-subtracted TSV, correctly rounded."""
    return _mean_photons("two_mode", lam, m)


def balance_energy(target_lam: float, m: int, kind: str = "single") -> float:
    """Invert the mean-photon map: the float lam0 nearest the root of
    mean(lam0, m) = target_lam, correctly rounded (:func:`_nearest_root`).

    ``kind`` selects the single-mode (PASSV) or two-mode (SPATSV) map.
    Raises ValueError for a target of inf or nan, and OutOfRange for one below
    the map's value at lam = 0 (odd-m PASSV has mean >= 1 for every lam).
    Roots are memoised by (target, m, kind): a sweep solves a shared one once.
    """
    check(target_lam=target_lam, m=m)
    return _balance_root(target_lam, m, kind)


@lru_cache(maxsize=16)
def _balance_root(target_lam: float, m: int, kind: str) -> float:
    pq, target = _mean_photon_map(kind, m), float(target_lam)
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
