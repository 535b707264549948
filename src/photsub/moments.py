"""Moment tables for input subsystems, certified sums and field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are filled lazily, entry by
entry, at the mpmath precision they are built at and without a Fock
cutoff.  The finite SPATSV seeds are finite sums over their m + 1
amplitudes.  The subtracted squeezed-state families are Wick pairing sums
over the Gaussian (squeezed or two-mode squeezed) vacuum, integer terms
(count, a, b) summed as count lam^a g^b times a power of e^{i chi}: as
g^2 = lam (1 + lam), g^(b mod 2) times an integer polynomial in lam, which
:func:`_horner` evaluates exactly, for the mean-photon maps of
:mod:`photsub.states` too.  A key the selection rule zeroes is an exact 0.

Sums that may cancel are certified (:func:`certified_sum`), and detection
loss has one law, :func:`thin`, through which the read-out engine
(:mod:`photsub.opalg`), :func:`quadrature_variance` and :func:`mandel_q`
scale such sums of lossless moments.
"""

from __future__ import annotations

from math import comb, factorial, isfinite, isqrt

import mpmath as mp

from .errors import MomentOrderMissing, NullState, PrecisionInsufficient, ZeroMeanPhoton


class MomentTable:
    """Map from moment index tuples to expectation values for one subsystem.

    ``compute(key)`` fills an entry on first request, at the precision the
    table was built at; entries are cached.
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

    def fixed(self, key, bits: int) -> tuple:
        """Entry ``key`` as a :func:`fixed` number, in integers if the fill can."""
        fill = getattr(self._compute, "fixed", None)
        return fill(key, bits) if fill else fixed(self.entry(key), bits)


# ---------------------------------------------------------------------------
# Scalar statistics
# ---------------------------------------------------------------------------


#: runs a map with float results (mean photons, a phase, a distribution) at
#: mpmath's default 15 digits, whatever the caller's ambient precision
at_float_digits = mp.workdps(15)

#: guard digits over the working ones of a table that a certified sum reads
#: through mpmath (:func:`_read`, or :meth:`MomentTable.fixed` without an
#: integer fill), so that an entry errs by far less than the unit that
#: :func:`fixed` allows it: a Wick-filled entry errs by 1.03 units 2^-prec at
#: most (:class:`_WickFill`), and ten digits are 33 bits.  The integer fill
#: itself counts its roundings in ``ulps``.
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


def fixed_from(re: int, im: int, exp: int, bits: int, ulps: int) -> tuple:
    """(re + i im) 2^exp, of relative error ulps 2^-bits, as a :func:`fixed`
    number: truncated to ``bits`` bits where longer, which adds 3 ulps."""
    shift = max(abs(re).bit_length(), abs(im).bit_length()) - bits
    if shift > 0:
        re, im, exp, ulps = re >> shift, im >> shift, exp + shift, ulps + 3
    return re, im, exp, (re * re + im * im).bit_length() + 2 * exp, ulps


def fixed_mul(x: tuple, y: tuple, bits: int) -> tuple:
    """The product of two :func:`fixed` numbers, truncated to ``bits`` bits."""
    a, b, ex, _, ux = x
    c, d, ey, _, uy = y
    return fixed_from(a * c - b * d, a * d + b * c, ex + ey, bits, ux + uy + 1)


class Phases(dict):
    """(turns, prec) -> (c, s, e, ulps): cos and sin of ``x`` turns as (c, s)
    2^e, rounded to nearest at prec bits (ulps 1) unless exact (ulps 0)."""

    def __init__(self, x: float):
        self.x = float(x)

    def __missing__(self, key):
        lib, (turns, prec) = mp.libmp, key
        if not (turns and self.x):
            return self.setdefault(key, (1, 0, 0, 0))
        angle = lib.mpf_mul(lib.from_float(self.x), lib.from_int(turns))  # exact
        (cs, cm, ce, _), (ss, sm, se, _) = lib.mpf_cos_sin(angle, prec, "n")
        e = min(ce, se)
        c, s = (-cm if cs else cm) << ce - e, (-sm if ss else sm) << se - e
        return self.setdefault(key, (c, s, e, 1))


def fixed_conj(x: tuple) -> tuple:
    """The conjugate of a :func:`fixed` number, exactly."""
    re, im, exp, size, ulps = x
    return re, -im, exp, size, ulps


def fixed_times(x: tuple, k, halvings: int = 0) -> tuple:
    """A :func:`fixed` number times k 2^-halvings, exactly, for a Gaussian
    integer ``k``: an int, or a complex with integer parts such as -2j."""
    re, im, exp, _, ulps = x
    kr, ki = int(k.real), int(k.imag)
    re, im, exp = re * kr - im * ki, re * ki + im * kr, exp - halvings
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
    (Bernoulli thinning: eta1 then eta2 is eta1 eta2).  A binary eta, num
    2^-shift, multiplies exactly, in one step by num^n 2^(-n shift), so ``x``
    keeps its bound.  This is the one loss law.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    num, den = eta.as_integer_ratio()
    return Bounded(num**n * x.man, num**n * x.err, x.exp - n * (den.bit_length() - 1))


def _read(table: MomentTable, bits: int, *slots) -> tuple:
    """The entry of ``table`` whose key counts ``slots``, as a :func:`fixed`
    number: tables read here are built at guard digits."""
    key = [0] * (2 * len(table.modes))
    for slot in slots:
        key[slot] += 1
    return fixed(table.entry(tuple(key)), bits)


def require_digits(x: Bounded, what: str, size=None) -> None:
    """Raise PrecisionInsufficient unless the error of ``x`` certifies 8 digits.

    The digits are those of |x|, or of ``size`` where ``x`` is read against
    another magnitude.  This is the package's one digits-lost rule.
    """
    size = abs(x.value) if size is None else size
    if x.error > size * mp.mpf("1e-8"):
        raise PrecisionInsufficient(
            f"{what}: {mp.nstr(size, 3)} known only to within {mp.nstr(x.error, 3)}, "
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
    working precision, over the entries of a table built at guard digits,
    and 8 digits of Var X must be certified.
    """
    if len(coeffs) != len(table.modes):
        raise MomentOrderMissing(f"{len(coeffs)} coefficients for {len(table.modes)} modes")
    bits = mp.mp.prec
    # a few roundings at the working precision formed each coefficient
    coeffs = [fixed(c, bits, ulps=8) for c in coeffs]
    conj = [fixed_conj(c) for c in coeffs]

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


@at_float_digits
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


def _wick_terms_1m(p: int, q: int) -> tuple:
    """<a^dag^p a^q> on a squeezed vacuum as integer Wick terms.

    The state is Gaussian, so the moment is a Wick pairing sum of the
    contractions <a^dag a> = lam and <a a> = g e^{i chi}, g = sqrt(lam (1 + lam)).
    With k (a^dag, a) pairs, the other a^dag pair among themselves (i of
    those pairs) and so do the other a (j pairs), in
    p! q! / (k! i! j! 2^(i+j)) ways.  Returns (turns, [(count, a, b)]) with
    the moment e^{i chi turns} sum count lam^a g^b: every term is a
    nonnegative real times the common phase, so the sum cannot cancel.  The
    list is empty where the selection rule (p - q odd) makes the moment 0.
    """
    if (p - q) % 2 != 0:
        return 0, []
    terms = []
    for k in range(p % 2, min(p, q) + 1, 2):
        i, j = (p - k) // 2, (q - k) // 2
        count = factorial(p) * factorial(q) // (
            factorial(k) * factorial(i) * factorial(j) * 2 ** (i + j)
        )
        terms.append((count, k, i + j))
    return (q - p) // 2, terms


def _wick_terms_2m(p: int, q: int, r: int, s: int) -> tuple:
    """<a1^dag^p a1^q a2^dag^r a2^s> on a TSV as integer Wick terms.

    A Wick pairing sum of <a_j^dag a_j> = lam and <a1 a2> = g e^{i chi} over
    k, the number of (a1^dag, a1) pairs: the other a1^dag pair with a2^dag,
    the other a1 with a2, and the r - p + k (a2^dag, a2) left pair among
    themselves, in p! q! r! s! / (k! (p-k)! (q-k)! (r-p+k)!) ways.  Returns
    (turns, [(count, a, b)]) as :func:`_wick_terms_1m` does; the list is
    empty where p - q != r - s.
    """
    if p - q != r - s:
        return 0, []
    terms = []
    for k in range(max(0, p - r), min(p, q) + 1):
        count = factorial(p) * factorial(q) * factorial(r) * factorial(s) // (
            factorial(k) * factorial(p - k) * factorial(q - k) * factorial(r - p + k)
        )
        terms.append((count, 2 * k + r - p, p + q - 2 * k))
    return q - p, terms


def _polynomial(terms: list) -> list:
    """The Wick sum of ``terms``, whose b share one parity, over g^(b mod 2),
    as integer coefficients in lam (lowest power first): g^2 = lam (1 + lam)."""
    poly = [0] * (max(a + b // 2 * 2 for _, a, b in terms) + 1)
    for count, a, b in terms:
        for j in range(b // 2 + 1):
            poly[a + b // 2 + j] += count * comb(b // 2, j)
    return poly


def _horner(poly: list, n: int, shift: int) -> int:
    """``poly`` at lam = n 2^-shift, times 2^(shift (len(poly) - 1)), exactly
    (homogeneous Horner): the package's one evaluation of a Wick sum."""
    h = s = 0
    for c in reversed(poly):
        h, s = h * n + (c << s), s + shift
    return h


def _binary(lam) -> tuple:
    """(n, shift) with lam, read as a float, = n 2^-shift; ValueError unless
    lam is finite and >= 0."""
    lam = float(lam)
    if not (0 <= lam and isfinite(lam)):
        raise ValueError("lam must be finite and >= 0")
    n, d = lam.as_integer_ratio()
    return n, d.bit_length() - 1


_ENTRIES = {}  # (Wick terms, key) -> lam-free (turns, polynomial, g parity, degree)


class _WickFill:
    """``compute`` of a table of a squeezed vacuum less m photons from each
    of its ``arity`` modes: key k reads the vacuum moment of k + m over the
    norm, the moment of m, with the vacuum moments as integer Wick terms.

    An entry is P(lam)/Q(lam) g^(b mod 2) e^{i chi turns}, P, Q and g^2
    exact integers: :meth:`fixed` forms it in integers, and a call rounds
    that, or the ratio alone, once to the precision the table was built at.
    A key the selection rule zeroes is an exact 0, with no arithmetic.
    """

    def __init__(self, wick_terms, lam, m: int, chi, arity: int):
        self.wick_terms, self.m, self.prec = wick_terms, m, mp.mp.prec
        self.n, self.shift = _binary(lam)
        if m > 0 and not self.n:
            raise NullState("photon subtraction annihilates the vacuum")
        _, norm, _, self.norm_degree = self._entry((0,) * 2 * arity)
        self.norm, self.phases = _horner(norm, self.n, self.shift), Phases(chi)
        self.g2 = self.n * (self.n + (1 << self.shift))  # g^2 2^(2 shift)

    def _entry(self, key: tuple) -> tuple:
        key = (self.wick_terms,) + tuple(k + self.m for k in key)
        if key not in _ENTRIES:
            turns, terms = key[0](*key[1:])
            poly = _polynomial(terms) if terms else None
            _ENTRIES[key] = turns, poly, terms and terms[0][2] % 2, len(poly or ()) - 1
        return _ENTRIES[key]

    def __call__(self, key: tuple):
        turns, poly, odd, degree = self._entry(key)
        lib, prec = mp.libmp, self.prec
        if poly is None or odd or turns and self.phases.x:  # 1.03 units 2^-prec at most
            re, im, exp, _, _ = self.fixed(key, prec + 8)
            return mp.make_mpc(tuple(lib.from_man_exp(x, exp, prec, "n") for x in (re, im)))
        num = _horner(poly, self.n, self.shift) << self.shift * self.norm_degree
        ratio = lib.from_rational(num, self.norm << self.shift * degree, prec, "n")
        return mp.make_mpc((ratio, lib.fzero))

    def fixed(self, key: tuple, bits: int) -> tuple:
        """The entry ``key`` as a :func:`fixed` number, in integers alone: the
        ratio floor(P 2^k / Q) and g, an isqrt, have bits + 1 bits or more and
        err by under half a unit 2^-bits each, the phase by under a quarter."""
        turns, poly, odd, degree = self._entry(key)
        if poly is None:
            return 0, 0, 0, 0, 0
        num = _horner(poly, self.n, self.shift)
        k = bits + 2 + self.norm.bit_length() - num.bit_length()
        man = (num << k) // self.norm if k >= 0 else num // (self.norm << -k)
        exp = self.shift * (self.norm_degree - degree) - k
        if odd:  # an exact 0 at lam = 0
            t = max(0, bits + 2 - self.g2.bit_length() // 2)
            man, exp = man * isqrt(self.g2 << 2 * t), exp - self.shift - t
        c, s, e, ulps = self.phases[turns, max(self.prec, bits + 2)]
        return fixed_from(man * c, man * s, exp + e, bits, 1 + odd + ulps)


def bogoliubov_vacuum_moment_1m(p: int, q: int, lam, chi: float = 0.0):
    """<a^dag^p a^q> on a squeezed vacuum with mean photons lam, exactly
    (the Wick sum of :func:`_wick_terms_1m`), at the ambient precision."""
    return _WickFill(_wick_terms_1m, lam, 0, chi, 1)((p, q))


def bogoliubov_vacuum_moment_2m(p: int, q: int, r: int, s: int, lam, chi: float = 0.0):
    """<a1^dag^p a1^q a2^dag^r a2^s> on a TSV with mean photons/mode lam,
    exactly (the Wick sum of :func:`_wick_terms_2m`), at the ambient precision."""
    return _WickFill(_wick_terms_2m, lam, 0, chi, 2)((p, q, r, s))


def passv_moment_table(lam, m: int, max_order: int = 8, chi: float = 0.0, mode=0) -> MomentTable:
    """Exact PASSV moments <a^dag^p a^q>, lazily computed at the precision
    the table is built at: <a^dag^{p+m} a^{q+m}>_SSV / <a^dag^m a^m>_SSV."""
    return MomentTable((mode,), max_order, _WickFill(_wick_terms_1m, lam, m, chi, 1))


def spatsv_moment_table(
    lam, m: int, max_order: int = 16, chi: float = 0.0, modes=(0, 1)
) -> MomentTable:
    """Exact SPATSV moments <a1^dag^p a1^q a2^dag^r a2^s>, lazily computed at
    the precision the table is built at."""
    return MomentTable(modes, max_order, _WickFill(_wick_terms_2m, lam, m, chi, 2))


def spatsv_seed_moment_table(
    lam, m: int, max_order: int = 4, chi: float = 0.0
) -> MomentTable:
    """Exact moments of the SPATSV seed sum_k C(m,k) t^{k/2} e^{i chi k} |k,k>.

    t = lam/(1 + lam).  The seed has m + 1 amplitudes, so each moment
    <a1^dag^p a1^q a2^dag^r a2^s> (with d = p - q = r - s) is the finite sum
    e^{-i chi d} sum_n C(m,n+d) C(m,n) t^{n+d/2} n!(n+d)!/((n-q)!(n-s)!)
    over the norm sum_k C(m,k)^2 t^k, at the precision the table is built at.
    """
    _binary(lam)  # ValueError unless lam is finite and >= 0
    prec, lam = mp.mp.prec, mp.mpf(lam)
    t = lam / (1 + lam)
    rt = mp.sqrt(t)
    norm = mp.fsum(comb(m, k) ** 2 * t**k for k in range(m + 1))

    def compute(key):
        p, q, r, s = key
        d = p - q
        if d != r - s:
            return mp.mpc(0)
        with mp.workprec(prec):
            total = mp.mpf(0)
            for n in range(max(q, s), min(m, m - d) + 1):
                ladder = factorial(n) * factorial(n + d) // (
                    factorial(n - q) * factorial(n - s)
                )
                total += comb(m, n + d) * comb(m, n) * ladder * rt ** (2 * n + d)
            return total / norm * mp.expj(-chi * d)

    return MomentTable((0, 1), max_order, compute=compute)
