"""Moment tables for input subsystems, certified sums and field statistics.

A :class:`MomentTable` maps normally-ordered moment indices to expectation
values for one subsystem, a subtracted state's (built by its spec,
:mod:`photsub.states`) or a SPATSV seed's: ``(p, q)`` for a single mode meaning
``<a^dag^p a^q>``, or ``(p, q, r, s)`` for a mode pair meaning
``<a1^dag^p a1^q a2^dag^r a2^s>``.  Tables are filled lazily, entry by
entry, in Python integers at the bits a reader asks for, without a Fock
cutoff.  An entry is P(lam)/Q(lam) g^(b mod 2) e^{i chi turns}, P and Q
integer polynomials and g^2 = lam (1 + lam): Wick pairing sums over the
Gaussian (squeezed or two-mode squeezed) vacuum, integer terms (count, a, b)
summed as count lam^a g^b, or the finite sums of the SPATSV seeds.
This module alone turns Wick terms into polynomials: the mean-photon maps
of :mod:`photsub.states` read these lam-free entries (:func:`_lam_free`,
one per process), and :func:`_horner` evaluates each exactly; a key the
selection rule zeroes is an exact 0, and phases come from one integer
cosine and sine (:func:`cos_sin`).

Every number has one error model, an absolute radius: a fixed number
(re, im, err, exp) is the ball of midpoint (re + i im) 2^exp and radius
err 2^exp, and a :class:`Bounded` the real ball :func:`certified_sum`
makes of their products, so a sum that cancels keeps its radius.
Detection loss has one law, :func:`thin`, through which the read-out
engine (:mod:`photsub.opalg`) and the quadrature metrics, two entries each,
scale such sums of lossless moments.  Precision is a ``bits`` argument, and
a ball is a float only where it rounds to one (:func:`rounded`, :func:`retried`).
"""

from __future__ import annotations

from functools import cache, wraps
from inspect import signature
from math import comb, factorial, inf, isqrt

from .errors import MomentOrderMissing, NullState, PrecisionInsufficient, check

START_DIGITS = 30  # the working digits of a figure's first attempt
MAX_DIGITS = 1000  # of its last (:func:`retried`)
#: entries of each per-point, per-family or per-coherent-state memo (an LRU,
#: the last one the displacements every family at one (mu, psi, bits) reads):
#: a sweep runs every order (at most 5 in a preset) at one axis value before
#: the next, so this holds the orders of the last few points and stays flat
#: for a long-lived caller; a process-constant table is an unbounded cache of
#: finite keys
MEMO_SIZE = 16

# ---------------------------------------------------------------------------
# Fixed-point numbers and certified sums
# ---------------------------------------------------------------------------


def digits_to_bits(digits: int) -> int:
    """The working bits of ``digits`` decimal digits: round((digits + 1) log2 10)."""
    return max(1, round((digits + 1) * 3.3219280948873626))


def ratio(num: int, den: int, exp: int = 0) -> float:
    """num/den 2^exp, den >= 0, correctly rounded (int / int), +-inf past floats or at 0."""
    try:
        return (num << exp) / den if exp >= 0 else num / (den << -exp)
    except (OverflowError, ZeroDivisionError):
        return inf if num > 0 else -inf


def man_exp(x) -> tuple:
    """(man, exp), man odd or 0, with x = man 2^exp exactly: x a Python or
    numpy int or float (binary, so exact)."""
    n, d = (x if isinstance(x, int) else float(x)).as_integer_ratio()
    if not n:
        return 0, 0
    zeros = (n & -n).bit_length() - 1
    return n >> zeros, zeros + 1 - d.bit_length()


def fixed_from(re: int, im: int, err: int, exp: int, bits: int) -> tuple:
    """(re + i im) 2^exp within err 2^exp as a fixed number (re, im, err, exp), a
    ball whose radius is absolute, in units of 2^exp, as in :class:`Bounded`:
    integer parts longer than ``bits`` bits are truncated to it (block floating
    point), adding 2 units if it drops a nonzero bit, so an exact number stays exact."""
    shift = max(re.bit_length(), im.bit_length()) - bits
    if shift > 0:
        lost = 2 * bool((re | im) & (1 << shift) - 1)
        return re >> shift, im >> shift, lost - (-err >> shift), exp + shift
    return re, im, err, exp


def fixed_mul(x: tuple, y: tuple, bits: int) -> tuple:
    """The product of two fixed numbers, truncated to ``bits`` bits: its radius
    |x| r_y + |y| r_x + r_x r_y, each |re + i im| bounded by |re| + |im|."""
    a, b, rx, ex = x
    c, d, ry, ey = y
    err = (abs(a) + abs(b)) * ry + (abs(c) + abs(d) + ry) * rx
    return fixed_from(a * c - b * d, a * d + b * c, err, ex + ey, bits)


@cache
def _pi(bits: int) -> int:
    """pi 2^bits to within 2, from pi/4 = 4 atan(1/5) - atan(1/239): each
    series term floors once, and the guard bits hold those floors."""
    guard = bits.bit_length() + 8

    def atan(x: int) -> int:  # atan(1/x) 2^(bits + guard)
        total, term, k = 0, (1 << bits + guard) // x, 1
        while term:
            total, term, k = total + (-1) ** (k // 2) * (term // k), term // (x * x), k + 2
        return total

    return (16 * atan(5) - 4 * atan(239)) >> guard


def _trim(man: int, exp: int, bits: int) -> tuple:  # to ``bits`` bits, toward 0
    shift = max(0, abs(man).bit_length() - bits)
    return (man >> shift if man >= 0 else -(-man >> shift)), exp + shift


def cos_sin(n: int, shift: int, bits: int) -> tuple:
    """cos and sin of the angle n 2^-shift as ((c, ec), (s, es)): c 2^ec and
    s 2^es, each within one ulp, 2^-bits of its own size, or exact at 0.

    r, the angle less its nearest multiple k of pi/2, keeps bits + 25 bits, pi
    (:func:`_pi`) having as many as k and r's nearness to 0 take.  cos r and
    sin(r)/r, both over 0.7, sum at bits + 24 bits, where the 4 units each
    term may err cost under 1/8 ulp; each is truncated to bits + 4, 1/8 more.
    """
    if not n:
        return (1, 0), (0, 0)
    size, work = abs(n), bits + 24
    scale = max(shift, work + max(0, size.bit_length() - shift) + 4)
    while True:
        scale = -(-scale // 32) * 32  # pi at few distinct precisions
        quarter = _pi(scale - 1)  # pi/2 2^scale
        angle = size << (scale - shift)
        k = (2 * angle + quarter) // (2 * quarter)
        r = angle - k * quarter  # r 2^scale within 2k
        if not k or abs(r).bit_length() >= k.bit_length() + work + 3:
            break
        scale += k.bit_length() + work + 4 - abs(r).bit_length()
    r2 = r * r >> (2 * scale - work)
    term = c = s = 1 << work
    j = 1
    while term:  # term = (-r^2)^j/(2j)!, and that over 2j + 1 for sin(r)/r
        term = -(term * r2 >> work) // ((2 * j - 1) * (2 * j))
        c, s, j = c + term, s + term // (2 * j + 1), j + 1
    cos, sin = (c, -work), (r * s, -scale - work)
    for _ in range(k % 4):  # cos(x + pi/2) = -sin x, sin(x + pi/2) = cos x
        cos, sin = (-sin[0], sin[1]), cos
    if n < 0:
        sin = (-sin[0], sin[1])
    return _trim(*cos, bits + 4), _trim(*sin, bits + 4)


class Phases(dict):
    """(turns, bits) -> e^{i turns x} as a fixed number: cos and sin (:func:`cos_sin`)
    at the larger's unit, within 2^-bits plus that unit of the unit phase, or
    exactly 1, radius 0, where turns or x is 0."""

    def __init__(self, x: float):
        self.n, d = float(x).as_integer_ratio()
        self.shift = d.bit_length() - 1

    def __missing__(self, key):
        turns, bits = key
        if not (turns and self.n):
            return self.setdefault(key, ONE)
        (c, ec), (s, es) = cos_sin(self.n * abs(turns), self.shift, bits)
        e, radius = max(ec, es), (1 << max(0, -bits - max(ec, es))) + 1
        for sign in (1, -1):  # cos_sin(-n) is exactly (cos, -sin): one call serves both
            self[sign * abs(turns), bits] = c >> e - ec, sign * s >> e - es, radius, e
        return self[key]


def fixed_times(x: tuple, k, halvings: int = 0) -> tuple:
    """A fixed number times k 2^-halvings, exactly, its radius times |Re k| + |Im k|,
    for a Gaussian integer ``k``: an int, or a complex with integer parts such as -2j."""
    re, im, err, exp = x
    kr, ki = int(k.real), int(k.imag)
    return re * kr - im * ki, re * ki + im * kr, err * (abs(kr) + abs(ki)), exp - halvings


ONE, ZERO = (1, 0, 0, 0), (0, 0, 0, 0)  # the numbers 1 and 0 as fixed numbers, exactly


class Bounded:
    """A real ``man`` 2^``exp`` known to within ``err`` 2^``exp``.

    Sums, squares and integer or float (binary, so exact) multiples are
    exact, so combining certified sums loses nothing of their bounds.
    ``value`` is the float the whole ball rounds to (:func:`rounded`).
    """

    __slots__ = ("man", "err", "exp")

    def __init__(self, man: int, err: int, exp: int):
        self.man, self.err, self.exp = man, err, exp

    def __add__(self, other):
        if isinstance(other, int):  # exactly; the 0 that sum() starts from leaves self as is
            return Bounded(other, 0, 0) + self if other else self
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

    value = property(lambda self: rounded(self))


def rounded(*factors: Bounded, over: Bounded = Bounded(1, 0, 0)) -> float:
    """The product of ``factors`` over |``over``|, correctly rounded: the one
    float (0.0 for -0.0) it gives at every corner of the balls, an end
    man -+ err of each, by :func:`ratio`, where an end of |``over``| at or
    below 0 reads as infinite.  Each end moves the quotient one way, and so
    does rounding to nearest, so the corners bound every value of the balls;
    two floats raise PrecisionInsufficient.  This is the one precision rule."""
    exp, nums, size = -over.exp, {1}, abs(over.man)
    for b in factors:  # the product's ends
        exp, nums = exp + b.exp, {n * end for n in nums for end in (b.man - b.err, b.man + b.err)}
    values = {ratio(n, max(den, 0), exp) for n in nums for den in {size - over.err, size + over.err}}
    if len(values) > 1:
        raise PrecisionInsufficient(f"certified only between {min(values)} and {max(values)}")
    return values.pop() + 0.0


def retried(figure):
    """The public figure ``evaluate(cfg)`` of ``figure(cfg, digits)``: at
    START_DIGITS and twice as many while it raises PrecisionInsufficient, the
    last attempt at MAX_DIGITS (Ziv's strategy, A. Ziv, ACM TOMS 17(3), 1991).
    This is the one choice of working digits; ``evaluate.__wrapped__`` is
    ``figure``, at the digits its caller gives."""

    @wraps(figure)
    def evaluate(cfg):
        digits = START_DIGITS
        while 2 * digits <= MAX_DIGITS:
            try:
                return figure(cfg, digits)
            except PrecisionInsufficient:
                digits *= 2
        return figure(cfg, MAX_DIGITS)

    figure_signature = signature(figure)
    evaluate.__signature__ = figure_signature.replace(
        parameters=tuple(figure_signature.parameters.values())[:1])
    return evaluate


def certified_sum(pairs, bits: int) -> Bounded:
    """Re sum x y over pairs of fixed numbers (:func:`fixed_from`), as a Bounded.

    Each product carries the radius of :func:`fixed_mul`, also where its
    midpoint is 0; the products are summed exactly at the least exponent,
    and the sum is truncated once to ``bits`` bits (block floating point),
    which adds a unit if a nonzero bit drops.  This is the package's one point sum.
    """
    man = err = low = 0
    for (a, b, rx, ex), (c, d, ry, ey) in pairs:
        if (a or b or rx) and (c or d or ry):
            e = ex + ey
            if e < low:
                man, err, low = man << low - e, err << low - e, e
            man += a * c - b * d << e - low
            err += (abs(a) + abs(b)) * ry + (abs(c) + abs(d) + ry) * rx << e - low
    shift = max(man.bit_length(), err.bit_length()) - bits
    if shift > 0:
        lost = bool(man & (1 << shift) - 1)
        man, err, low = man >> shift, lost - (-err >> shift), low + shift
    return Bounded(man, err, low)


def thin(x: Bounded, eta: float) -> Bounded:
    """``x``, a sum of normal-ordered moments of two ladder operators each,
    detected with efficiency ``eta``: eta x, exact for a binary eta, so ``x``
    keeps its bound.  Loss, a beamsplitter to vacuum, scales each ladder
    operator by sqrt(eta) (Bernoulli thinning).  This is the one loss law."""
    check(eta=eta)
    num, den = eta.as_integer_ratio()
    return Bounded(num * x.man, num * x.err, x.exp - (den.bit_length() - 1))


def joint_photon_distribution(lam, m: int, n_max: int) -> dict:
    """SPATSV photon-number distribution {(k, k): P(k, k)}, k <= n_max
    (P(j, k) = 0 for j != k), each entry correctly rounded.

    The two-mode squeezed vacuum has P(n, n) = (1 - t) t^n, t = lam/(1 + lam),
    and (a1 a2)^m maps |k+m, k+m> to ((k+m)!/k!) |k,k>, so
    P(k, k) = (1 - t) t^(k+m) ((k+m)!/k!)^2 / Q(lam), Q the norm
    <(a1^dag a2^dag)^m (a1 a2)^m>, a polynomial of degree d.  At lam = n 2^-s
    that is n^(k+m) ((k+m)!/k!)^2 2^(s (d+1)) / ((2^s + n)^(k+m+1) Q^), Q^ the
    norm of the SPATSV table (which raises NullState where it is 0): one int / int.
    """
    check(n_max=n_max)
    table = MomentTable((0, 1), _vacuum_entry, lam, m, 0.0)
    return {(k, k): ratio(table.n ** (k + m) * (factorial(k + m) // factorial(k)) ** 2,
                          ((1 << table.shift) + table.n) ** (k + m + 1) * table.norm,
                          table.shift * (table.norm_degree + 1)) for k in range(n_max + 1)}


# ---------------------------------------------------------------------------
# Exact Gaussian-vacuum moments (cutoff-free, in integers)
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
    """(n, shift) with lam, a finite float or a number read as one, = n 2^-shift."""
    n, d = float(lam).as_integer_ratio()
    return n, d.bit_length() - 1


def _vacuum_entry(m: int, key: tuple) -> tuple:
    """(turns, P or None, g parity) of the vacuum moment of key + m: of the
    squeezed vacuum for a one-mode key, of the TSV for a two-mode one."""
    wick_terms = _wick_terms_1m if len(key) == 2 else _wick_terms_2m
    turns, terms = wick_terms(*(k + m for k in key))
    return turns, _polynomial(terms) if terms else None, terms and terms[0][2] % 2


def _seed_entry(m: int, key: tuple) -> tuple:
    """(turns, P or None, g parity) of a SPATSV seed moment, d = p - q:
    e^{-i chi d} sum_n C(m,n+d) C(m,n) n!(n+d)!/((n-q)!(n-s)!) t^(e/2),
    e = 2n + d, over sum_k C(m,k)^2 t^k (the P of key 0).  As t = lam/(1 + lam)
    and sqrt t = g/(1 + lam), a term times (1 + lam)^(m+1) is
    lam^(e//2) (1 + lam)^(m + 1 - ceil(e/2)) g^(e mod 2)."""
    p, q, r, s = key
    d = p - q
    poly = [0] * (m + 2)
    for n in range(max(q, s), min(m, m - d) + 1) if d == r - s else ():
        weight = comb(m, n + d) * comb(m, n) * factorial(n) * factorial(n + d) // (
            factorial(n - q) * factorial(n - s))
        e = 2 * n + d
        for j in range(m + 2 - (e + 1) // 2):
            poly[e // 2 + j] += weight * comb(m + 1 - (e + 1) // 2, j)
    return -d, poly if any(poly) else None, d % 2


@cache
def _lam_free(source, m: int, key: tuple) -> tuple:
    """(turns, P or None, g parity, degree of P) of ``source(m, key)``, P a
    tuple: every table of that source and order shares it."""
    turns, poly, odd = source(m, key)
    return turns, poly and tuple(poly), odd if poly else 0, len(poly or ()) - 1


class MomentTable:
    """Exact moments of one subsystem over ``modes``, any order: entry
    ``key`` is P(lam)/Q(lam) g^(b mod 2) e^{i chi turns} for the lam-free
    (turns, P, g parity) of ``source(m, key)``, Q the P of the zero key and
    g^2 = lam (1 + lam), formed lazily in integers at the bits a reader asks
    for (:meth:`fixed`).  A zeroed key is an exact 0, with no arithmetic; a
    zero norm raises NullState, and lam, m or chi outside the input contract
    ValueError, before any entry."""

    def __init__(self, modes, source, lam, m: int, chi):
        check(lam=lam, m=m, chi=chi)
        self.modes, self.source, self.m = tuple(modes), source, m
        self.n, self.shift = _binary(lam)
        _, norm, _, self.norm_degree = _lam_free(source, m, (0,) * 2 * len(self.modes))
        self.norm, self.phases = _horner(norm, self.n, self.shift), Phases(chi)
        if not self.norm:
            raise NullState("photon subtraction annihilates the vacuum")
        self.g2 = self.n * (self.n + (1 << self.shift))  # g^2 2^(2 shift)
        self._roots = {}  # bits -> g 2^(shift + t) as (isqrt, 1 if inexact, t)

    def fixed(self, key: tuple, bits: int) -> tuple:
        """The entry ``key`` as a :func:`fixed_from` number, in integers alone: the
        ratio floor(P 2^k / Q) and g, an isqrt taken once per bits, each of bits + 1
        bits or more and within a unit, 0 where exact, times the phase (:class:`Phases`)."""
        if len(key) != 2 * len(self.modes):
            raise MomentOrderMissing(f"key {key} does not match arity {len(self.modes)}")
        turns, poly, odd, degree = _lam_free(self.source, self.m, key)
        if poly is None:
            return ZERO
        num = _horner(poly, self.n, self.shift)
        k = bits + 2 + self.norm.bit_length() - num.bit_length()
        man, rest = divmod(num << k, self.norm) if k >= 0 else divmod(num, self.norm << -k)
        err, exp = int(rest > 0), self.shift * (self.norm_degree - degree) - k
        if odd:  # an exact 0 at lam = 0
            if bits not in self._roots:  # one isqrt per bits
                t = max(0, bits + 2 - self.g2.bit_length() // 2)
                g = isqrt(self.g2 << 2 * t)
                self._roots[bits] = g, int(g * g < self.g2 << 2 * t), t
            g, off, t = self._roots[bits]
            man, err, exp = man * g, man * off + (g + off) * err, exp - self.shift - t
        phase = self.phases[turns, bits + 2]  # times ONE is a truncation alone
        return fixed_from(man, 0, err, exp, bits) if phase is ONE else fixed_mul(
            (man, 0, err, exp), phase, bits)

    def entry(self, key) -> complex:
        """Entry ``key`` as a complex float, for inspection."""
        re, im, _, exp = self.fixed(key, 64)
        return complex(ratio(re, 1, exp), ratio(im, 1, exp))


def spatsv_seed_moment_table(lam, m: int, chi: float = 0.0) -> MomentTable:
    """Exact moments of the SPATSV seed sum_k C(m,k) t^{k/2} e^{i chi k} |k,k>,
    t = lam/(1 + lam): the seed has m + 1 amplitudes, so each moment is a
    finite sum (:func:`_seed_entry`), filled in integers as the Wick tables are."""
    return MomentTable((0, 1), _seed_entry, lam, m, chi)
