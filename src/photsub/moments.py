"""Moment tables for input subsystems and scalar field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are filled lazily, entry by
entry, at the working mpmath precision and without a Fock cutoff: the
squeezed-state families from closed-form Wick pairing sums over the
Gaussian (squeezed or two-mode squeezed) vacuum, and the finite SPATSV
seeds from finite sums over their m + 1 amplitudes.
"""

from __future__ import annotations

from math import comb, factorial

import mpmath as mp

from .errors import (
    MomentOrderMissing,
    NullState,
    PrecisionInsufficient,
    ZeroMeanPhoton,
)


class MomentTable:
    """Map from moment index tuples to expectation values for one subsystem.

    ``compute(key)`` fills an entry on first request; entries are cached.
    Entries fill at the ambient precision, or at ``dps`` working digits once
    it is set: a table reused across calls fills at the digits it was built
    for, whatever the caller's.
    """

    def __init__(self, modes, max_order, compute):
        self.modes = tuple(modes)
        self.max_order = int(max_order)
        self.dps = None
        self._entries = {}
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
        if key not in self._entries:
            if self.dps is None:
                self._entries[key] = self._compute(key)
            else:
                with mp.workdps(self.dps):
                    self._entries[key] = self._compute(key)
        return self._entries[key]


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


def require_digits(size, scale, what: str) -> None:
    """Raise PrecisionInsufficient unless ``size`` keeps 8 working digits.

    ``scale`` is the magnitude of the largest single term a result was
    summed from, the size it may have cancelled from; ``size`` is the
    magnitude the result is read against.  This is the package's one
    digits-lost rule: the read-out engine and the quadrature variances
    apply it at the working precision.
    """
    if abs(size) < mp.mpf(10) ** (8 - mp.mp.dps) * scale:
        raise PrecisionInsufficient(
            f"{what} cancels from {float(scale):.3g} to {float(size):.3g}: "
            f"fewer than 8 of {mp.mp.dps} digits survive"
        )


def quadrature_variance(table: MomentTable, coeffs) -> float:
    """Var X of the quadrature X = sum_t (c_t a_t + conj(c_t) a_t^dag)/sqrt 2.

    ``coeffs`` holds one c_t per mode of ``table``: (e^{-i theta},) gives
    X_theta of one mode, and e^{-i chi/2} (1, -1)/sqrt 2 the squeezed
    difference quadrature of a pair whose <a1 a2> carries e^{i chi},
    normalized so vacuum sits at 0.5.  Normal ordering
    gives <X^2> = Re sum c_s c_t <a_s a_t> + sum conj(c_s) c_t <a_s^dag a_t>
    + sum |c_t|^2 / 2.  For strong squeezing the terms nearly cancel, so
    build the table and call this with guard digits set.  Fewer than 8
    working digits surviving between the largest single product and |Var X|
    raise PrecisionInsufficient.
    """
    if len(coeffs) != len(table.modes):
        raise MomentOrderMissing(f"{len(coeffs)} coefficients for {len(table.modes)} modes")
    zero = [0] * (2 * len(coeffs))

    def entry(*slots):
        key = list(zero)
        for slot in slots:
            key[slot] += 1
        return table.entry(tuple(key))

    mean = mp.sqrt(2) * mp.re(mp.fsum(c * entry(2 * t + 1) for t, c in enumerate(coeffs)))
    vacuum = mp.fsum(abs(c) ** 2 for c in coeffs) / 2
    products = []
    for s, cs in enumerate(coeffs):
        for t, ct in enumerate(coeffs):
            products.append(cs * ct * entry(2 * s + 1, 2 * t + 1))
            products.append(mp.conj(cs) * ct * entry(2 * s, 2 * t + 1))
    var = mp.re(mp.fsum(products)) + vacuum - mean**2
    scale = max(abs(x) for x in products + [vacuum, mean**2])
    require_digits(var, scale, "quadrature variance")
    return float(var)


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


def joint_photon_distribution(lam, m: int, n_max: int) -> mp.matrix:
    """SPATSV photon-number distribution P(j, k), j, k <= n_max, exactly.

    Only |k,k> is populated.  The two-mode squeezed vacuum has
    P(n, n) = (1 - t) t^n with t = lam/(1 + lam), and (a1 a2)^m maps
    |k+m, k+m> to ((k+m)!/k!) |k,k>, so
    P(k, k) = (1 - t) t^(k+m) ((k+m)!/k!)^2 / <(a1^dag a2^dag)^m (a1 a2)^m>.
    """
    if m > 0 and lam == 0:
        raise NullState("photon subtraction annihilates the vacuum")
    lam = mp.mpf(lam)
    t = lam / (1 + lam)
    norm = mp.re(bogoliubov_vacuum_moment_2m(m, m, m, m, lam))
    out = mp.matrix(n_max + 1, n_max + 1)
    for k in range(n_max + 1):
        ladder = factorial(k + m) // factorial(k)
        out[k, k] = (1 - t) * t ** (k + m) * ladder**2 / norm
    return out


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
        return bogoliubov_vacuum_moment_2m(p + m, q + m, r + m, s + m, lam, chi) / norm

    return MomentTable(tuple(modes), max_order, compute=compute)


def spatsv_seed_moment_table(
    lam, m: int, max_order: int = 4, chi: float = 0.0
) -> MomentTable:
    """Exact moments of the SPATSV seed sum_k C(m,k) t^{k/2} e^{i chi k} |k,k>.

    t = lam/(1 + lam).  The seed has m + 1 amplitudes, so each moment
    <a1^dag^p a1^q a2^dag^r a2^s> (with d = p - q = r - s) is the finite sum
    e^{-i chi d} sum_n C(m,n+d) C(m,n) t^{n+d/2} n!(n+d)!/((n-q)!(n-s)!)
    over the norm sum_k C(m,k)^2 t^k.
    """
    lam = mp.mpf(lam)
    t = lam / (1 + lam)
    rt = mp.sqrt(t)
    norm = mp.fsum(comb(m, k) ** 2 * t**k for k in range(m + 1))

    def compute(key):
        p, q, r, s = key
        d = p - q
        if d != r - s:
            return mp.mpc(0)
        total = mp.mpf(0)
        for n in range(max(q, s), min(m, m - d) + 1):
            ladder = factorial(n) * factorial(n + d) // (
                factorial(n - q) * factorial(n - s)
            )
            total += comb(m, n + d) * comb(m, n) * ladder * rt ** (2 * n + d)
        return total / norm * mp.expj(-chi * d)

    return MomentTable((0, 1), max_order, compute=compute)
