"""Moment tables for input subsystems, certified sums and field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are filled lazily, entry by
entry, at the working mpmath precision and without a Fock cutoff: the
squeezed-state families from closed-form Wick pairing sums over the
Gaussian (squeezed or two-mode squeezed) vacuum, and the finite SPATSV
seeds from finite sums over their m + 1 amplitudes.

Sums that may cancel are certified (:func:`certified_sum`), and detection
loss has one law, :func:`thin`, through which the read-out engine
(:mod:`photsub.opalg`), :func:`quadrature_variance` and :func:`mandel_q`
scale such sums of lossless moments.
"""

from __future__ import annotations

from math import comb, factorial

import mpmath as mp

from .errors import MomentOrderMissing, NullState, PrecisionInsufficient, ZeroMeanPhoton


class MomentTable:
    """Map from moment index tuples to expectation values for one subsystem.

    ``compute(key)`` fills an entry on first request, at the ambient
    precision; entries are cached.
    """

    def __init__(self, modes, max_order, compute):
        self.modes = tuple(modes)
        self.max_order = int(max_order)
        self._entries = {}
        self._compute = compute

    def entry(self, key):
        if len(key) != 2 * len(self.modes):
            raise MomentOrderMissing(f"key {key} does not match arity {len(self.modes)}")
        if sum(key) > self.max_order:
            raise MomentOrderMissing(f"order {sum(key)} beyond table max_order {self.max_order}")
        if key not in self._entries:
            self._entries[key] = self._compute(key)
        return self._entries[key]


# ---------------------------------------------------------------------------
# Scalar statistics
# ---------------------------------------------------------------------------


#: guard digits over the working ones at which certified sums take their
#: inputs: mpmath's own rounding of an input then stays below one unit in
#: the last place of the working precision, which :func:`fixed` counts
GUARD_DIGITS = 10


def fixed(x, bits: int, ulps: int = 4) -> tuple:
    """``x`` as a block floating-point number (re, im, exp, size, ulps).

    That is (re + i im) 2^exp with integer parts of at most ``bits`` bits,
    |x|^2 < 2^size and a relative error of at most ulps 2^-bits: the
    truncation errs by less than 2 sqrt 2 units, and the input by one.
    """
    if not hasattr(x, "_mpc_") and not hasattr(x, "_mpf_"):
        with mp.workprec(53):  # a Python or numpy number, exact in binary
            x = mp.mpc(x)
    parts = getattr(x, "_mpc_", None) or (x._mpf_, (0, 0, 0, 0))  # not rounded to mp.prec
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in parts]
    exp = max((exp + man.bit_length() for man, exp in parts if man), default=0) - bits
    re, im = (man << (e - exp) if e >= exp else man >> (exp - e) for man, e in parts)
    return re, im, exp, (re * re + im * im).bit_length() + 2 * exp, ulps


def fixed_mul(x: tuple, y: tuple, bits: int) -> tuple:
    """The product of two :func:`fixed` numbers, truncated to ``bits`` bits."""
    a, b, ex, _, ux = x
    c, d, ey, _, uy = y
    re, im, exp, ulps = a * c - b * d, a * d + b * c, ex + ey, ux + uy + 1
    shift = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if shift > 0:
        re, im, exp, ulps = re >> shift, im >> shift, exp + shift, ulps + 3
    return re, im, exp, (re * re + im * im).bit_length() + 2 * exp, ulps


ONE = (1, 0, 0, 1, 0)  # the number 1 as a fixed number, exactly


class Bounded:
    """A real ``man`` 2^``exp`` known to within ``err`` 2^``exp``.

    Sums, squares and integer or float (binary, so exact) multiples are
    exact, so combining certified sums loses nothing of their bounds.
    """

    __slots__ = ("man", "err", "exp")

    def __init__(self, man: int, err: int, exp: int):
        self.man, self.err, self.exp = man, err, exp

    def __add__(self, other):
        if isinstance(other, int):  # the 0 that sum() starts from
            return self
        exp = min(self.exp, other.exp)
        a, b = self.exp - exp, other.exp - exp
        return Bounded((self.man << a) + (other.man << b), (self.err << a) + (other.err << b), exp)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -1 * other

    def __rmul__(self, factor):
        num, den = factor.as_integer_ratio()
        return Bounded(num * self.man, abs(num) * self.err, self.exp + 1 - den.bit_length())

    def squared(self):
        return Bounded(self.man**2, (2 * abs(self.man) + self.err) * self.err, 2 * self.exp)

    value = property(lambda self: mp.mpf((self.man, self.exp)))
    error = property(lambda self: mp.mpf((self.err, self.exp)))


def certified_sum(pairs, bits: int) -> Bounded:
    """Re sum x y over pairs of :func:`fixed` numbers, with a certified error.

    Each product is formed exactly and truncated once, keeping ``bits`` bits
    of the largest (block floating point).  The error is the standard
    summation bound: each term's ``ulps``, scaled by its size against the
    largest, plus a unit for its truncation, in units of 2^-bits of the
    largest.  This is the package's one error bound.
    """
    rows = [
        (a * c - b * d, ex + ey, sx + sy, ux + uy + 1)
        for (a, b, ex, sx, ux), (c, d, ey, sy, uy) in pairs
        if (a or b) and (c or d)
    ]
    top = max((row[2] for row in rows), default=0)
    exp = (top + 1) // 2 - bits
    man = err = 0
    for re, e, size, ulps in rows:
        man += re >> (exp - e) if e <= exp else re << (e - exp)
        err += (ulps >> ((top - size) // 2)) + 2
    return Bounded(man, err, exp)


def thin(x: Bounded, eta: float, n: int) -> Bounded:
    """``x``, a sum of normal-ordered moments (or products of them) of 2n
    ladder operators each, detected with efficiency ``eta``: eta^n x.

    Loss, a beamsplitter to vacuum, scales each ladder operator by sqrt(eta)
    (Bernoulli thinning: eta1 then eta2 is eta1 eta2).  A binary eta
    multiplies exactly, so ``x`` keeps its bound.  This is the one loss law.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    for _ in range(n if eta != 1 else 0):
        x = eta * x
    return x


def _read(table: MomentTable, bits: int, *slots) -> tuple:
    """The entry of ``table`` whose key counts ``slots``, as a :func:`fixed`
    number, filled at guard digits."""
    key = [0] * (2 * len(table.modes))
    for slot in slots:
        key[slot] += 1
    with mp.workdps(mp.mp.dps + GUARD_DIGITS):
        return fixed(table.entry(tuple(key)), bits)


def require_digits(x: Bounded, what: str, size=None) -> None:
    """Raise PrecisionInsufficient unless the error of ``x`` certifies 8 digits.

    The digits are those of |x|, or of ``size`` where ``x`` is read against
    another magnitude.  This is the package's one digits-lost rule.
    """
    size = abs(x.value) if size is None else size
    if x.error > size * mp.mpf("1e-8"):
        raise PrecisionInsufficient(
            f"{what}: {float(size):.3g} known only to within {float(x.error):.3g}, "
            f"fewer than 8 of {mp.mp.dps} working digits"
        )


def quadrature_variance(table: MomentTable, coeffs, eta: float = 1.0) -> float:
    """Var X of the quadrature X = sum_t (c_t a_t + conj(c_t) a_t^dag)/sqrt 2.

    ``coeffs`` holds one c_t per mode of ``table``: (e^{-i theta},) gives
    X_theta of one mode, and e^{-i chi/2} (1, -1)/sqrt 2 the squeezed
    difference quadrature of a pair whose <a1 a2> carries e^{i chi},
    normalized so vacuum sits at 0.5; ``eta`` is the detection efficiency.
    Normal ordering gives Var X = eta S + sum |c_t|^2 / 2, with
    S = Re sum c_s c_t <a_s a_t> + sum conj(c_s) c_t <a_s^dag a_t>
    - 2 (Re sum c_t <a_t>)^2 over the lossless table.  For strong squeezing
    the terms nearly cancel: they are summed by :func:`certified_sum` at the
    working precision, over entries filled at guard digits, and 8 digits of
    Var X must be certified.
    """
    if len(coeffs) != len(table.modes):
        raise MomentOrderMissing(f"{len(coeffs)} coefficients for {len(table.modes)} modes")
    bits = mp.mp.prec
    # a few roundings at the working precision formed each coefficient
    coeffs = [fixed(c, bits, ulps=8) for c in coeffs]
    conj = [(re, -im, exp, size, ulps) for re, im, exp, size, ulps in coeffs]

    # <X> = sqrt 2 Re sum c_t <a_t>, so <X>^2 = 2 (Re sum c_t <a_t>)^2
    mean = certified_sum(((c, _read(table, bits, 2 * t + 1)) for t, c in enumerate(coeffs)), bits)
    pairs = []
    for s, cs in enumerate(coeffs):
        for t, ct in enumerate(coeffs):
            pairs.append((fixed_mul(cs, ct, bits), _read(table, bits, 2 * s + 1, 2 * t + 1)))
            pairs.append((fixed_mul(conj[s], ct, bits), _read(table, bits, 2 * s, 2 * t + 1)))
    vacuum = certified_sum(zip(coeffs, conj), bits)
    spread = certified_sum(pairs, bits) - 2 * mean.squared()
    var = thin(spread, eta, 1) + 0.5 * vacuum
    require_digits(var, "quadrature variance")
    return float(var.value)


def mandel_q(table: MomentTable, eta: float = 1.0) -> float:
    """Mandel Q = (Var N - <N>)/<N> of the table's first mode.

    Negative is sub-Poissonian.  With ``eta`` the detection efficiency and
    F_k = <a^dag^k a^k> of the lossless table, <N> = eta F_1 and
    Var N - <N> = eta^2 (F_2 - F_1^2), so Q thins to eta Q.  The F_k are
    read as :func:`quadrature_variance` reads its entries, and 8 digits of
    Var N must be certified against the larger of |Var N| and <N>, so an
    exact Q = 0 stays certified.
    """
    bits = mp.mp.prec
    f1, f2 = (certified_sum([(ONE, _read(table, bits, *(0, 1) * k))], bits) for k in (1, 2))
    mean = thin(f1, eta, 1)
    if mean.value <= 0:
        raise ZeroMeanPhoton("Mandel Q undefined for zero mean photon number")
    excess = thin(f2 - f1.squared(), eta, 2)
    var = excess + mean
    require_digits(var, "photon-number variance", size=max(abs(var.value), mean.value))
    return float(excess.value / mean.value)


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
