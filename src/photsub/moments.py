"""Moment tables for input subsystems and scalar field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are either filled eagerly by
direct Fock summation over a truncated state, or lazily from exact
Bogoliubov-transformed vacuum words (cutoff-free, arbitrary precision via
mpmath) for the squeezed-state families.
"""

from __future__ import annotations

from math import comb

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

    def compute(key):
        total = sum(key)
        if total == 0:
            return table.entry(key)
        return eta ** (total / 2) * table.entry(key)

    return MomentTable(table.modes, table.max_order, compute=compute)


# ---------------------------------------------------------------------------
# Scalar statistics
# ---------------------------------------------------------------------------


def quadrature_variance(table: MomentTable, theta: float = 0.0) -> float:
    """Var(X_theta) with X_theta = (a e^{-i theta} + a^dag e^{i theta})/sqrt 2."""
    if len(table.modes) != 1:
        raise MomentOrderMissing("quadrature_variance needs a single-mode table")
    e = np.exp(-1j * theta)
    a = complex(table.entry((0, 1)))
    aa = complex(table.entry((0, 2)))
    n = complex(table.entry((1, 1)))
    mean = (e * a + np.conj(e * a)) / np.sqrt(2.0)
    second = (e * e * aa + np.conj(e * e * aa) + 2.0 * n + 1.0) / 2.0
    return float((second - mean**2).real)


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
# Exact Bogoliubov-vacuum moments (cutoff-free, mpmath precision)
# ---------------------------------------------------------------------------


def _apply_word_1m(word, dim):
    """Apply a sequence of (c_a, c_adag) single-mode factors to |0>.

    Each factor is c_a * a + c_adag * a^dag; returns the final amplitude of
    |0> as an mpmath complex.
    """
    state = {0: mp.mpc(1)}
    for c_a, c_adag in reversed(word):
        new = {}
        for n, amp in state.items():
            if c_a != 0 and n >= 1:
                new[n - 1] = new.get(n - 1, mp.mpc(0)) + c_a * mp.sqrt(n) * amp
            if c_adag != 0 and n + 1 <= dim:
                new[n + 1] = new.get(n + 1, mp.mpc(0)) + c_adag * mp.sqrt(n + 1) * amp
        state = new
        if not state:
            return mp.mpc(0)
    return state.get(0, mp.mpc(0))


def bogoliubov_vacuum_moment_1m(p: int, q: int, lam, chi: float = 0.0):
    """<a^dag^p a^q> on a squeezed vacuum with mean photons lam, exactly.

    Uses S^dag a S = cosh(r) a + e^{i chi} sinh(r) a^dag with
    cosh r = sqrt(1 + lam), sinh r = sqrt(lam).
    """
    if (p - q) % 2 != 0:
        return mp.mpc(0)
    lam = mp.mpf(lam)
    c = mp.sqrt(1 + lam)
    s = mp.sqrt(lam)
    ph = mp.exp(mp.mpc(0, chi)) if chi else mp.mpc(1)
    # transformed a: (c, s e^{i chi}); transformed a^dag: (s e^{-i chi}, c)
    word = [(s * _mp_conj(ph), c)] * p + [(c, s * ph)] * q
    return _apply_word_1m(word, p + q + 1)


def _mp_conj(z):
    return mp.mpc(z).conjugate()


def _apply_word_2m(word, dim):
    """Two-mode analogue; factors are (c_a1, c_a1dag, c_a2, c_a2dag)."""
    state = {(0, 0): mp.mpc(1)}
    for c1, c1d, c2, c2d in reversed(word):
        new = {}
        for (n1, n2), amp in state.items():
            if c1 != 0 and n1 >= 1:
                k = (n1 - 1, n2)
                new[k] = new.get(k, mp.mpc(0)) + c1 * mp.sqrt(n1) * amp
            if c1d != 0 and n1 + 1 <= dim:
                k = (n1 + 1, n2)
                new[k] = new.get(k, mp.mpc(0)) + c1d * mp.sqrt(n1 + 1) * amp
            if c2 != 0 and n2 >= 1:
                k = (n1, n2 - 1)
                new[k] = new.get(k, mp.mpc(0)) + c2 * mp.sqrt(n2) * amp
            if c2d != 0 and n2 + 1 <= dim:
                k = (n1, n2 + 1)
                new[k] = new.get(k, mp.mpc(0)) + c2d * mp.sqrt(n2 + 1) * amp
        state = new
        if not state:
            return mp.mpc(0)
    return state.get((0, 0), mp.mpc(0))


def bogoliubov_vacuum_moment_2m(p: int, q: int, r: int, s: int, lam, chi: float = 0.0):
    """<a1^dag^p a1^q a2^dag^r a2^s> on a TSV with mean photons/mode lam.

    Uses S^dag a1 S = cosh(rho) a1 + e^{i chi} sinh(rho) a2^dag and the
    mode-swapped counterpart.
    """
    if p - q != r - s:
        return mp.mpc(0)
    lam = mp.mpf(lam)
    c = mp.sqrt(1 + lam)
    sh = mp.sqrt(lam)
    ph = mp.exp(mp.mpc(0, chi)) if chi else mp.mpc(1)
    phc = _mp_conj(ph)
    a1 = (c, 0, 0, sh * ph)
    a1d = (0, c, sh * phc, 0)
    a2 = (0, sh * ph, c, 0)
    a2d = (sh * phc, 0, 0, c)
    word = [a1d] * p + [a2d] * r + [a1] * q + [a2] * s
    dim = p + q + r + s + 1
    return _apply_word_2m(word, dim)


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
