"""Moment tables for input subsystems and scalar field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are either filled eagerly by
direct Fock summation over a truncated state, or lazily, for the
squeezed-state families, from closed-form Wick pairing sums over the
Gaussian (squeezed or two-mode squeezed) vacuum, cutoff-free and at the
working mpmath precision.
"""

from __future__ import annotations

from math import factorial

import mpmath as mp
import numpy as np
from scipy.special import gammaln

from .errors import MomentOrderMissing, NullState, ZeroMeanPhoton
from .fock import FockState1, TwoModeDiagonalState


class MomentTable:
    """Map from moment index tuples to expectation values for one subsystem."""

    def __init__(self, modes, max_order, entries=None, compute=None):
        self.modes = tuple(modes)
        self.max_order = int(max_order)
        self._entries = dict(entries) if entries else {}
        self._compute = compute

    def entry(self, key):
        if len(key) != 2 * len(self.modes):
            raise MomentOrderMissing(
                f"key {key} does not match arity {len(self.modes)}"
            )
        if sum(key) > self.max_order:
            raise MomentOrderMissing(
                f"order {sum(key)} beyond table max_order {self.max_order}"
            )
        if key in self._entries:
            return self._entries[key]
        if self._compute is None:
            raise MomentOrderMissing(f"entry {key} not present in eager table")
        val = self._compute(key)
        self._entries[key] = val
        return val


def vacuum_table(modes) -> MomentTable:
    """All moments vanish except the identity."""
    modes = tuple(modes)

    def compute(key):
        return 1.0 if not any(key) else 0.0

    return MomentTable(modes, max_order=10**6, compute=compute)


def coherent_table(alpha, mode=0, max_order=10**6) -> MomentTable:
    """Coherent-eigenstate moments: <a^dag^p a^q> = conj(alpha)^p alpha^q."""

    def compute(key):
        p, q = key
        return _conj(alpha) ** p * alpha**q

    return MomentTable((mode,), max_order, compute=compute)


def _conj(x):
    return x.conjugate() if hasattr(x, "conjugate") else complex(x).conjugate()


# ---------------------------------------------------------------------------
# Direct Fock summation (truncated states, float precision)
# ---------------------------------------------------------------------------


def table_from_state(state, max_order: int = 4, modes=None) -> MomentTable:
    """Moments by direct Fock summation over a truncated state.

    The photon-number phase selection rule of |n,n>-supported states is
    enforced exactly (entries with p - q != r - s are identically zero).
    """
    if isinstance(state, FockState1):
        modes = (0,) if modes is None else tuple(modes)
        amps = state.amplitudes
        entries = {}
        for p in range(max_order + 1):
            for q in range(max_order + 1 - p):
                entries[(p, q)] = _single_mode_moment(amps, p, q)
        return MomentTable(modes, max_order, entries)
    if isinstance(state, TwoModeDiagonalState):
        modes = (0, 1) if modes is None else tuple(modes)
        d = state.diag_amplitudes
        entries = {}
        for p in range(max_order + 1):
            for q in range(max_order + 1 - p):
                for r in range(max_order + 1 - p - q):
                    for s in range(max_order + 1 - p - q - r):
                        if p - q != r - s:
                            entries[(p, q, r, s)] = 0.0
                        else:
                            entries[(p, q, r, s)] = _diag_two_mode_moment(d, p, q, r, s)
        return MomentTable(modes, max_order, entries)
    raise TypeError(f"unsupported state type {type(state)!r}")


def _ladder_factor(n, down, up):
    """sqrt(n!/(n-down)!) * sqrt((n-down+up)!/(n-down)!) for vector n."""
    n = np.asarray(n, dtype=float)
    return np.exp(
        0.5 * (gammaln(n + 1) - gammaln(n - down + 1))
        + 0.5 * (gammaln(n - down + up + 1) - gammaln(n - down + 1))
    )


def _single_mode_moment(amps, p, q):
    n = np.arange(q, len(amps))
    m = n - q + p
    keep = m < len(amps)
    n, m = n[keep], m[keep]
    if len(n) == 0:
        return 0.0
    fac = _ladder_factor(n, q, p)
    return complex(np.sum(np.conj(amps[m]) * amps[n] * fac))


def _diag_two_mode_moment(d, p, q, r, s):
    n = np.arange(max(q, s), len(d))
    m = n - q + p
    keep = m < len(d)
    n, m = n[keep], m[keep]
    if len(n) == 0:
        return 0.0
    fac = _ladder_factor(n, q, p) * _ladder_factor(n, s, r)
    return complex(np.sum(np.conj(d[m]) * d[n] * fac))


def apply_loss(table: MomentTable, eta: float) -> MomentTable:
    """Bernoulli thinning: entry scaled by eta^{(sum of exponents)/2}.

    Composition law apply_loss(eta1) o apply_loss(eta2) = apply_loss(eta1*eta2)
    holds exactly.  This is the package's one implementation of loss: the
    read-out engine applies it to the interferometer inputs.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1:
        return table

    factors = {0: 1}

    def compute(key):
        total = sum(key)
        if total not in factors:
            factors[total] = eta ** (total / 2)
        return factors[total] * table.entry(key)

    return MomentTable(table.modes, table.max_order, compute=compute)


# ---------------------------------------------------------------------------
# Scalar statistics
# ---------------------------------------------------------------------------


def quadrature_variance(table: MomentTable, theta: float = 0.0) -> float:
    """Var(X_theta) with X_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt 2.

    Evaluated in mpmath at the working precision: for strong squeezing <n>
    and Re<a^2 e^{-2i theta}> nearly cancel, so build the table and call
    this with guard digits set.
    """
    if len(table.modes) != 1:
        raise MomentOrderMissing("quadrature_variance needs a single-mode table")
    e = mp.expj(-theta)
    mean = mp.sqrt(2) * mp.re(e * table.entry((0, 1)))
    second = mp.re(e * e * table.entry((0, 2)) + table.entry((1, 1))) + mp.mpf(0.5)
    return float(second - mean**2)


def quadrature_difference_variance(table: MomentTable, chi: float = 0.0) -> float:
    """Var(X_{1,chi} - X_{2,chi}) / 2, normalized so vacuum sits at 0.5.

    Values below 0.5 signal non-classical amplitude correlation.
    """
    if len(table.modes) != 2:
        raise MomentOrderMissing("quadrature_difference_variance needs a mode pair")
    e = np.exp(-1j * chi)

    def ent(k):
        return complex(table.entry(k))

    mean1 = (e * ent((0, 1, 0, 0)) + np.conj(e * ent((0, 1, 0, 0)))) / np.sqrt(2.0)
    mean2 = (e * ent((0, 0, 0, 1)) + np.conj(e * ent((0, 0, 0, 1)))) / np.sqrt(2.0)
    x1sq = (
        e * e * ent((0, 2, 0, 0))
        + np.conj(e * e * ent((0, 2, 0, 0)))
        + 2.0 * ent((1, 1, 0, 0))
        + 1.0
    ) / 2.0
    x2sq = (
        e * e * ent((0, 0, 0, 2))
        + np.conj(e * e * ent((0, 0, 0, 2)))
        + 2.0 * ent((0, 0, 1, 1))
        + 1.0
    ) / 2.0
    cross = (
        e * e * ent((0, 1, 0, 1))
        + np.conj(e * e * ent((0, 1, 0, 1)))
        + ent((1, 0, 0, 1))
        + ent((0, 1, 1, 0))
    ) / 2.0
    var = x1sq + x2sq - 2.0 * cross - (mean1 - mean2) ** 2
    return float(var.real) / 2.0


def mandel_q(table: MomentTable) -> float:
    """Mandel Q = (Var N - <N>)/<N> of the table's first mode.

    Negative is sub-Poissonian.
    """
    rest = (0, 0) * (len(table.modes) - 1)
    n = complex(table.entry((1, 1) + rest)).real
    if n <= 0.0:
        raise ZeroMeanPhoton("Mandel Q undefined for zero mean photon number")
    a2 = complex(table.entry((2, 2) + rest)).real
    return (a2 - n * n) / n


def joint_photon_distribution(state: TwoModeDiagonalState) -> np.ndarray:
    """P(j, k) matrix; diagonal-only support for |n,n> states."""
    p = np.abs(state.diag_amplitudes) ** 2
    p = p / p.sum()
    return np.diag(p)


# ---------------------------------------------------------------------------
# Exact Gaussian-vacuum moments (cutoff-free, mpmath precision)
# ---------------------------------------------------------------------------


def bogoliubov_vacuum_moment_1m(p: int, q: int, lam, chi: float = 0.0):
    """<a^dag^p a^q> on a squeezed vacuum with mean photons lam, exactly.

    The state is Gaussian, so the moment is a Wick pairing sum of the
    contractions <a^dag a> = lam and <a a> = sqrt(lam (1 + lam)) e^{i chi}.
    With k (a^dag, a) pairs, the other a^dag pair among themselves (i of
    those pairs) and so do the other a (j pairs), in
    p! q! / (k! i! j! 2^(i+j)) ways.  Every term is a nonnegative real times
    the common phase e^{i chi (q - p)/2}, so the sum cannot cancel.
    """
    if (p - q) % 2 != 0:
        return mp.mpc(0)
    lam = mp.mpf(lam)
    g = mp.sqrt(lam * (1 + lam))
    total = mp.mpf(0)
    for k in range(p % 2, min(p, q) + 1, 2):
        i, j = (p - k) // 2, (q - k) // 2
        pairings = factorial(p) * factorial(q) // (
            factorial(k) * factorial(i) * factorial(j) * 2 ** (i + j)
        )
        total += pairings * lam**k * g ** (i + j)
    return total * mp.exp(mp.mpc(0, chi)) ** ((q - p) // 2)


def bogoliubov_vacuum_moment_2m(p: int, q: int, r: int, s: int, lam, chi: float = 0.0):
    """<a1^dag^p a1^q a2^dag^r a2^s> on a TSV with mean photons/mode lam.

    A Wick pairing sum of <a_j^dag a_j> = lam and <a1 a2> =
    sqrt(lam (1 + lam)) e^{i chi} over k, the number of (a1^dag, a1) pairs:
    the other a1^dag pair with a2^dag, the other a1 with a2, and the
    r - p + k (a2^dag, a2) left pair among themselves, in
    p! q! r! s! / (k! (p-k)! (q-k)! (r-p+k)!) ways.  Every term is a
    nonnegative real times the common phase e^{i chi (q - p)}.
    """
    if p - q != r - s:
        return mp.mpc(0)
    lam = mp.mpf(lam)
    g = mp.sqrt(lam * (1 + lam))
    total = mp.mpf(0)
    for k in range(max(0, p - r), min(p, q) + 1):
        pairings = factorial(p) * factorial(q) * factorial(r) * factorial(s) // (
            factorial(k) * factorial(p - k) * factorial(q - k) * factorial(r - p + k)
        )
        total += pairings * lam ** (2 * k + r - p) * g ** (p + q - 2 * k)
    return total * mp.exp(mp.mpc(0, chi)) ** (q - p)


def passv_moment_table(lam, m: int, max_order: int = 8, chi: float = 0.0, mode=0) -> MomentTable:
    """Exact PASSV moments <a^dag^p a^q> at working mpmath precision.

    The subtraction is folded in algebraically:
    <a^dag^p a^q>_PASSV = <a^dag^{p+m} a^{q+m}>_SSV / <a^dag^m a^m>_SSV.
    """
    if m > 0 and lam == 0:
        raise NullState("photon subtraction annihilates the vacuum")
    norm = bogoliubov_vacuum_moment_1m(m, m, lam, chi) if m else mp.mpf(1)

    def compute(key):
        p, q = key
        if (p - q) % 2 != 0:
            return mp.mpc(0)
        return bogoliubov_vacuum_moment_1m(p + m, q + m, lam, chi) / norm

    return MomentTable((mode,), max_order, compute=compute)


def spatsv_moment_table(
    lam, m: int, max_order: int = 16, chi: float = 0.0, modes=(0, 1)
) -> MomentTable:
    """Exact SPATSV moments <a1^dag^p a1^q a2^dag^r a2^s>, lazily computed."""
    if m > 0 and lam == 0:
        raise NullState("photon subtraction annihilates the vacuum")
    norm = bogoliubov_vacuum_moment_2m(m, m, m, m, lam, chi) if m else mp.mpf(1)

    def compute(key):
        p, q, r, s = key
        if p - q != r - s:
            return mp.mpc(0)
        return bogoliubov_vacuum_moment_2m(p + m, q + m, r + m, s + m, lam, chi) / norm

    return MomentTable(tuple(modes), max_order, compute=compute)
