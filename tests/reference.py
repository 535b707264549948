"""Reference implementations used only by the tests.

Production code reads every moment from the exact, lazily filled tables in
:mod:`photsub.moments`.  The float Fock-space routines here are independent
ways to the same numbers: moments by direct summation over a truncated
state, normalised coherent states, the seed superpositions of number
states whose squeezing gives each subtracted state (:func:`passv_seed`,
:func:`spatsv_seed`), squeeze operators applied as matrix exponentials,
overlaps and fidelities, passive two-mode maps as dense plane
matrices, the oracle's lossless output as one amplitude tensor, and
detection loss as beamsplitters to vacuum ancillas or binomial thinning.
The tests check the exact engine, the state constructor, the oracle's
output planes and Gram matrices and its thinning against them, and the
photon-number block recursion that builds the output tensor against the
dense plane matrices.  The Wick pairing sums formed entry by entry from
scratch (:func:`vacuum_moment_1m`, :func:`subtracted_table`) are the
reference for the exact-polynomial fill of the production tables.  A whole
moment table thinned entry by entry (:func:`apply_loss`) is the reference
for the loss law :func:`photsub.moments.thin`, and the variance of any
linear quadrature over a table (:func:`quadrature_variance`, on complex
numbers made fixed by :func:`complex_fixed` and summed by the reference's
own complex sum, :func:`complex_sum`) the reference for the two-entry
quadrature metrics of :mod:`photsub.experiments`.  The dark-fringe U as a closed
form in three SPATSV entries (:func:`dark_fringe_uncertainty`) checks the
port engine's Var C and mixed derivative at phi = 0, and the paper's
asymptotic laws, each one expression in the order m <= 4
(:func:`nrf_asymptotic`, :func:`correlated_uncertainty_asymptotic`), are
the limits the engine's NRF and U approach.  The port folds formed
row by row (:func:`row_folds`), each entry, phase and product afresh, as
complex rows, are the reference for the flat fold plans of :mod:`photsub.opalg`,
whose real rows are the part Re(kappa G) of them a point reads.  The
precision rule read at every corner of the balls
(:func:`rounded_at_every_corner`) is the reference for the four corners
:func:`photsub.moments.rounded` reads.  The general normal-ordered
operator algebra at the end (:class:`OperatorPolynomial`, :func:`multiply`,
:func:`contract`), with :class:`Jet` phase derivatives, is the reference
the port-moment kernel of :mod:`photsub.opalg` and its analytic
derivatives are checked against.
"""

import cmath
from fractions import Fraction
from math import comb, factorial, isqrt, lgamma, log, prod, sqrt

import mpmath as mp
import numpy as np
from scipy.sparse import diags
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln

from photsub import fock, moments, opalg
from photsub.errors import (
    CutoffTooSmall, MomentOrderMissing, OutOfRange, PhotsubError, PrecisionInsufficient, Singular,
    check)
from photsub.fock import CUTOFF_MARGIN, TAIL_TOL, FockState1, TwoModeDiagonalState


# ---------------------------------------------------------------------------
# Jets: truncated Taylor coefficients in up to two independent variables
# ---------------------------------------------------------------------------


class Jet:
    """Value plus d/dx1, d/dx2 and d^2/dx1 dx2 of an analytic expression.

    Multiplication implements the bilinear product rule, so any arithmetic
    expression built from jets carries its mixed second derivative exactly
    (no finite differencing).
    """

    __slots__ = ("f", "d1", "d2", "d12")

    def __init__(self, f, d1=0, d2=0, d12=0):
        self.f = f
        self.d1 = d1
        self.d2 = d2
        self.d12 = d12

    @staticmethod
    def lift(x):
        return x if isinstance(x, Jet) else Jet(x)

    def __add__(self, other):
        o = Jet.lift(other)
        return Jet(self.f + o.f, self.d1 + o.d1, self.d2 + o.d2, self.d12 + o.d12)

    __radd__ = __add__

    def __sub__(self, other):
        o = Jet.lift(other)
        return Jet(self.f - o.f, self.d1 - o.d1, self.d2 - o.d2, self.d12 - o.d12)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.f * o, self.d1 * o, self.d2 * o, self.d12 * o)
        return Jet(
            self.f * o.f,
            self.f * o.d1 + self.d1 * o.f,
            self.f * o.d2 + self.d2 * o.f,
            self.f * o.d12 + self.d12 * o.f + self.d1 * o.d2 + self.d2 * o.d1,
        )

    __rmul__ = __mul__

    def conjugate(self):
        return Jet(
            _conj(self.f), _conj(self.d1), _conj(self.d2), _conj(self.d12)
        )

    def __repr__(self):
        return f"Jet({self.f}, d1={self.d1}, d2={self.d2}, d12={self.d12})"


def _conj(x):
    if isinstance(x, Jet):
        return x.conjugate()
    return x.conjugate() if hasattr(x, "conjugate") else complex(x).conjugate()


def _abs_value(x):
    """Magnitude of the value part, as a float (for cancellation tracking)."""
    if isinstance(x, Jet):
        x = x.f
    try:
        return abs(complex(x))
    except (TypeError, OverflowError):
        return float(abs(x))


def _is_zero(x) -> bool:
    if isinstance(x, Jet):
        return _is_zero(x.f) and _is_zero(x.d1) and _is_zero(x.d2) and _is_zero(x.d12)
    return not x


def _accumulate(into: dict, key, c, largest: float) -> None:
    """Add ``c`` at ``key``, keeping the largest product summed there."""
    if key in into:
        old, old_largest = into[key]
        into[key] = (old + c, max(old_largest, largest))
    else:
        into[key] = (c, largest)


class ReferenceTable:
    """A moment table of given numbers, ``compute(key)``, with the interface
    of :class:`photsub.moments.MomentTable`: its entries as numbers
    (``entry``) for the algebra here, as real fixed-point numbers for the
    engine, and as complex ones for the quadrature (:func:`complex_entry`)."""

    def __init__(self, modes, max_order, compute):
        self.modes, self.max_order, self._compute = tuple(modes), int(max_order), compute

    def entry(self, key):
        if len(key) != 2 * len(self.modes) or sum(key) > self.max_order:
            raise MomentOrderMissing(f"key {key} outside the table")
        return self._compute(key)

    def fixed(self, key, bits: int) -> tuple:
        """A real entry as the engine reads one, a real fixed number."""
        value = self.entry(key)
        if value.imag:
            raise ValueError(f"entry {key} is not real: {value}")
        return fixed_exact(value.real, bits)


def entry(table, key):
    """Entry ``key`` of a reference table, or of a production table read at
    mpmath's ambient precision and eight guard bits."""
    if isinstance(table, ReferenceTable):
        return table.entry(key)
    return fixed_value(table.fixed(key, mp.mp.prec + 8))


def complex_entry(table, key, bits: int) -> tuple:
    """Entry ``key`` as a complex fixed number (:func:`complex_fixed`): a
    reference table's as it is, a production table's real entry with an
    exact 0 imaginary part."""
    if isinstance(table, ReferenceTable):
        return complex_fixed(table.entry(key), bits)
    return table.fixed(key, bits), moments.ZERO


def vacuum_table(modes) -> ReferenceTable:
    """All moments vanish except the identity."""

    def compute(key):
        return 1.0 if not any(key) else 0.0

    return ReferenceTable(modes, max_order=10**6, compute=compute)


def coherent_table(alpha, mode=0, max_order=10**6) -> ReferenceTable:
    """Coherent-eigenstate moments: <a^dag^p a^q> = conj(alpha)^p alpha^q."""

    def compute(key):
        p, q = key
        return _conj(alpha) ** p * alpha**q

    return ReferenceTable((mode,), max_order, compute=compute)


def apply_loss(table, eta, mode=None) -> ReferenceTable:
    """Bernoulli thinning: each entry scaled by eta^{(sum of exponents)/2}.

    The reference thinning, entry by entry at the entry's precision, that
    the production law :func:`photsub.moments.thin` is checked against.
    ``mode`` relabels a one-mode table's mode for :func:`contract`.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    if eta == 1 and mode is None:
        return table

    factors = {0: 1}

    def compute(key):
        total = sum(key)
        if total not in factors:
            factors[total] = eta ** (total / 2)
        return factors[total] * entry(table, key)

    # a production table has no order bound
    modes = table.modes if mode is None else (mode,)
    return ReferenceTable(modes, getattr(table, "max_order", 10**6), compute=compute)


# ---------------------------------------------------------------------------
# Per-entry Wick sums: each moment formed from scratch
# ---------------------------------------------------------------------------


def vacuum_moment_1m(p: int, q: int, lam):
    """<a^dag^p a^q> on a squeezed vacuum with mean photons lam.

    The Wick pairing sum of <a^dag a> = lam and <a a> = sqrt(lam (1 + lam)),
    with k (a^dag, a) pairs and the other a^dag (i pairs) and a (j pairs)
    paired among themselves, in p! q! / (k! i! j! 2^(i+j)) ways, each entry
    formed from scratch (sqrt, factorials and powers).
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
    return total


def vacuum_moment_2m(p: int, q: int, r: int, s: int, lam):
    """<a1^dag^p a1^q a2^dag^r a2^s> on a TSV with mean photons/mode lam.

    The Wick pairing sum over k, the number of (a1^dag, a1) pairs, in
    p! q! r! s! / (k! (p-k)! (q-k)! (r-p+k)!) ways, formed from scratch.
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
    return total


def subtracted_table(modes, lam, m: int, max_order: int) -> ReferenceTable:
    """The moments of a squeezed vacuum (one mode) or TSV (two) less m
    photons from each mode, entry by entry: key k reads the vacuum moment of
    k + m over the norm, the moment of m, each summed on its own."""
    vacuum_moment = vacuum_moment_1m if len(modes) == 1 else vacuum_moment_2m
    norm = vacuum_moment(*[m] * 2 * len(modes), lam) if m else mp.mpf(1)
    return ReferenceTable(
        modes, max_order, lambda key: vacuum_moment(*(k + m for k in key), lam) / norm
    )


def mean_photons_exact(modes: int, lam, m: int) -> Fraction:
    """The mean-photon map of the m-subtracted PASSV (``modes`` 1) or
    SPATSV (2) at the rational ``lam``, exactly.

    The ratio of the diagonal Wick pairing sums of m + 1 and of m photons
    from each mode, formed from scratch; on the diagonal g appears squared,
    g^2 = lam (1 + lam).  Undefined (0/0) at lam = 0 for m > 0.
    """
    lam = Fraction(lam)
    g2 = lam * (1 + lam)

    def single(p):
        return sum(Fraction(factorial(p) ** 2, factorial(k) * factorial((p - k) // 2) ** 2
                            * 4 ** ((p - k) // 2)) * lam**k * g2 ** ((p - k) // 2)
                   for k in range(p % 2, p + 1, 2))

    def pair(p, r):
        return sum(Fraction(factorial(p) ** 2 * factorial(r) ** 2,
                            factorial(k) * factorial(p - k) ** 2 * factorial(r - p + k))
                   * lam ** (2 * k + r - p) * g2 ** (p - k)
                   for k in range(max(0, p - r), p + 1))

    if modes == 1:
        return single(m + 1) / single(m)
    return pair(m + 1, m) / pair(m, m)


def man_exp_exact(x) -> tuple:
    """(man, exp) with x = man 2^exp exactly, as :func:`photsub.moments.man_exp`
    gives it, for an mpmath real too, read from its own mantissa."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        return -man if sign else man, exp
    return moments.man_exp(x)


def fixed(x, bits: int, err: int = 0) -> tuple:
    """The real ``x`` as a fixed number (man, err, exp) of :mod:`photsub.moments`.

    That is man 2^exp with a mantissa of ``bits`` bits, known to within
    ``err`` units 2^exp, and one more where it was truncated (by under a
    unit).  ``x`` is read exactly (:func:`photsub.moments.man_exp`).
    """
    man, e = moments.man_exp(x)
    exp = e + man.bit_length() - bits if man else -bits
    if e >= exp:
        return man << (e - exp), err, exp
    return man >> (exp - e), err + bool(man & ((1 << (exp - e)) - 1)), exp


def fixed_exact(x, bits: int, err: int = 0) -> tuple:
    """:func:`fixed` of the exact value of the real ``x``, an mpmath or Python
    number: its mantissa, read there as the integer :func:`fixed` reads exactly."""
    man, exp = man_exp_exact(x)
    return moments.fixed_times(fixed(man, bits, err), 1, -exp)


def complex_fixed(x, bits: int, err: int = 0) -> tuple:
    """``x``, an mpmath or Python number, real or complex, as a complex fixed
    number: the pair (re, im) of the :func:`fixed_exact` numbers of its parts,
    a complex ball as two real ones."""
    return fixed_exact(x.real, bits, err), fixed_exact(x.imag, bits, err)


def _negated(x: tuple) -> tuple:
    return moments.fixed_times(x, -1)


def _added(x: tuple, y: tuple, bits: int) -> tuple:
    """x + y of two real fixed numbers, exactly at the lesser exponent, then
    truncated to ``bits`` bits."""
    low = min(x[2], y[2])
    return moments.fixed_from((x[0] << x[2] - low) + (y[0] << y[2] - low),
                              (x[1] << x[2] - low) + (y[1] << y[2] - low), low, bits)


def complex_mul(x: tuple, y: tuple, bits: int) -> tuple:
    """x y of two complex fixed numbers: (ac - bd, ad + bc) of the real products
    of their parts (:func:`photsub.moments.fixed_mul`)."""
    (a, b), (c, d) = x, y
    mul = moments.fixed_mul
    return (_added(mul(a, c, bits), _negated(mul(b, d, bits)), bits),
            _added(mul(a, d, bits), mul(b, c, bits), bits))


def complex_sum(pairs, bits: int) -> moments.Bounded:
    """Re sum x y over pairs of complex fixed numbers, as a Bounded: each
    Re(xy) = ac + (-b) d is two real pairs of :func:`photsub.moments.certified_sum`."""
    real = []
    for (a, b), (c, d) in pairs:
        real += [(a, c), (_negated(b), d)]
    return moments.certified_sum(real, bits)


def port_coefficients(table, mu, psi: float, bits: int) -> opalg.PortCoefficients:
    """The :class:`photsub.opalg.PortCoefficients` of a family whose mean
    photons ``mu`` may be an mpmath real past a float's 53 bits, read exactly."""
    coefficients = opalg.PortCoefficients(table, 0.0, psi, bits)
    coefficients.displacements = opalg._displacements(man_exp_exact(mu), psi, coefficients.bits)
    return coefficients


def row_phase(phases: moments.Phases, turns: int, bits: int) -> tuple:
    """e^{i turns x} of ``phases`` (its x = n 2^-shift) as :class:`photsub.moments.Phases`
    gives it, its cosine and sine as two real fixed numbers, from one
    :func:`photsub.moments.cos_sin` of n turns, of either sign: each part within
    2^-bits, its radius that in its own units, or one unit where they are coarser."""
    if not (turns and phases.n):
        return moments.ONE, moments.ZERO
    parts = moments.cos_sin(phases.n * turns, phases.shift, bits)
    return tuple((man, 1 << max(0, -bits - e), e) for man, e in parts)


def row_entry(table: moments.MomentTable, key: tuple, bits: int) -> tuple:
    """The entry ``key`` of ``table`` as :meth:`photsub.moments.MomentTable.fixed`
    gives it, formed afresh: floor(P 2^k / Q), then g an isqrt."""
    poly, odd, degree = moments._lam_free(table.source, table.m, key)
    if poly is None:
        return moments.ZERO
    num = moments._horner(poly, table.n, table.shift)
    k = bits + 2 + table.norm.bit_length() - num.bit_length()
    man, rest = divmod(num << k, table.norm) if k >= 0 else divmod(num, table.norm << -k)
    err, exp = int(rest > 0), table.shift * (table.norm_degree - degree) - k
    if odd:
        t = max(0, bits + 2 - table.g2.bit_length() // 2)
        g = isqrt(table.g2 << 2 * t)
        off = int(g * g < table.g2 << 2 * t)
        man, err, exp = man * g, man * off + (g + off) * err, exp - table.shift - t
    return moments.fixed_from(man, err, exp, bits)


def _row_sum(summands):
    """sum w h of real fixed numbers h, exactly, at the least exponent of the
    summands that are not an exact 0; ZERO where the sum is an exact 0."""
    terms = [(w, h) for w, h in summands if h[0] or h[1]]
    low = min((h[2] for _, h in terms), default=0)
    man = err = 0
    for w, (x, r, e) in terms:
        man, err = man + (w * x << e - low), err + (abs(w) * r << e - low)
    return (man, err, low) if man or err else moments.ZERO


#: each derivative's factor on its folded rows, i/2 per phase slope: (k, halvings)
_ROW_FACTORS = {None: (1, 0), "slope": (1j, 1), "mixed": (-1, 2)}


def unit_times(x: tuple, unit, halvings: int = 0) -> tuple:
    """The complex fixed number ``x`` times a Gaussian unit 2^-halvings, exactly."""
    (re, im), unit = x, complex(unit)
    if unit.imag:
        re, im = _negated(im), re
    if unit.real < 0 or unit.imag < 0:
        re, im = _negated(re), _negated(im)
    return tuple(moments.fixed_times(part, 1, halvings) for part in (re, im))


def row_folds(family: opalg.PortCoefficients, reads) -> dict:
    """{(weights, turn, derivative): [(n, k, G(n, k))]} of ``family`` for each
    read, complex, by the per-row loop over :func:`photsub.opalg._rows`: each
    displacement-entry product formed afresh (once per call) from the
    family's table, mu and psi, a complex times a real fixed number, each
    part of each row summed by :func:`_row_sum`, and every row times its
    derivative's factor, 1 included; a row is kept where either part is not
    an exact 0.  The reference the flat fold plans are checked against, part
    for part."""
    bits, (man, exp), products, out = family.bits, family.displacements.mu, {}, {}
    for weights, turn, derivative in reads:
        rows = []
        for (n, k), row in opalg._rows(family.single, weights, turn, derivative).items():
            summands = []
            for key, m, m2, w in row:
                if (key, m, m2) not in products:
                    power = (m + m2) // 2
                    phase = row_phase(family.displacements.phases, m2 - m, bits + 2)
                    entry = row_entry(family.table, key, bits)
                    products[key, m, m2] = tuple(moments.fixed_mul(moments.fixed_from(
                        *moments.fixed_times(part, man**power, -exp * power), bits), entry, bits)
                        for part in phase)
                summands.append((w, products[key, m, m2]))
            g = tuple(_row_sum((w, h[part]) for w, h in summands) for part in (0, 1))
            if g != (moments.ZERO, moments.ZERO):
                rows.append((n, k, unit_times(g, *_ROW_FACTORS[derivative])))
        out[weights, turn, derivative] = rows
    return out


def dark_fringe_uncertainty(table, eta):
    """The correlated scheme's normalized uncertainty U at phi = 0 from three
    entries of its SPATSV ``table``, at mpmath's precision, reading no port
    fold.  Each port then holds one mode of the pair alone, so the difference
    D of the detected counts is a difference of two binomial thinnings of
    one n: with p = eta (1 - eta), E D^2 = 2p<n> and
    E D^4 = 2p(1 - 6p)<n> + 12p^2<n^2>, and
    U = sqrt(E D^4 - (E D^2)^2)/(eta |<a0 a1>|), with <n> the entry
    (1, 1, 0, 0), <n^2> (2, 2, 0, 0) + (1, 1, 0, 0) and <a0 a1> (0, 1, 0, 1)."""
    n = mp.re(entry(table, (1, 1, 0, 0)))
    n2 = mp.re(entry(table, (2, 2, 0, 0))) + n
    pair = abs(entry(table, (0, 1, 0, 1)))
    eta = mp.mpf(eta)
    p = eta * (1 - eta)
    return mp.sqrt(2 * p * (1 - 6 * p) * n + 12 * p**2 * n2 - 4 * p**2 * n**2) / (eta * pair)


# ---------------------------------------------------------------------------
# The paper's asymptotic closed forms
# ---------------------------------------------------------------------------

SQRT2 = sqrt(2.0)


def _check_closed_form(m, **values) -> None:
    """ValueError unless m is one of the paper's orders 0..4, then :func:`check`."""
    if m not in range(5):
        raise ValueError(f"closed forms cover m = 0..4, got m={m}")
    check(**values)


def nrf_asymptotic(m: int, tau: float, lam: float) -> float:
    """Small-energy noise reduction factor 1 - 2(m+1) tau (sqrt(lam) - (m+1) lam),
    m = 0..4, to O(lam^(3/2))."""
    _check_closed_form(m, tau=tau, lam=lam)
    return 1.0 - 2 * (m + 1) * tau * (sqrt(lam) - (m + 1) * lam)


CORRELATED_REGIMES = (
    "low_lambda_bright",
    "high_lambda_bright",
    "dark_fringe_low_lambda",
    "dark_fringe_high_lambda",
)


def correlated_uncertainty_asymptotic(
    regime: str, m: int, *, lam: float = 0.0, tau: float = 1.0, eta: float = 1.0
) -> float:
    """Closed-form normalized uncertainty in the four asymptotic regimes, m = 0..4.

    ``low_lambda_bright``: bright coherent beam, weak squeezing,
    sqrt(2) [1 - eta tau (2(m+1) sqrt(lam) + lam (3/4 m(m+1) eta tau - 2(m+1)^2))]
    to O(lam^(3/2)).  ``high_lambda_bright``: bright beam, strong squeezing
    (order-independent).  ``dark_fringe_low_lambda`` /
    ``dark_fringe_high_lambda``: quantum-light-dominated read-out near
    phi = 0, limited by detection efficiency only; the high-lambda limit is
    2 sqrt((4m + 5)/(2m + 1)) (1 - eta).  The two forms that divide by lam
    or eta are Singular where it is 0.
    """
    _check_closed_form(m, lam=lam, tau=tau, eta=eta)
    if regime == "low_lambda_bright":
        te = tau * eta
        inner = 2 * (m + 1) * sqrt(lam) + lam * (0.75 * m * (m + 1) * te - 2 * (m + 1) ** 2)
        return SQRT2 * (1.0 - te * inner)
    if regime == "high_lambda_bright":
        if lam <= 0:
            raise Singular("high_lambda_bright diverges at lam = 0")
        return SQRT2 * (1.0 - tau * eta - tau * eta / (4.0 * lam))
    if regime == "dark_fringe_low_lambda":
        if eta <= 0:
            raise Singular("dark_fringe_low_lambda diverges at eta = 0")
        return SQRT2 * sqrt((1.0 - eta) / eta)
    if regime == "dark_fringe_high_lambda":
        return 2.0 * sqrt((4 * m + 5) / (2 * m + 1)) * (1.0 - eta)
    raise ValueError(f"unknown regime {regime!r}; expected one of {CORRELATED_REGIMES}")


def fixed_value(x: tuple):
    """The midpoint of a :func:`photsub.moments.fixed_from` number, exactly."""
    man, _, exp = x
    return mp.mpf((man, exp))


def bounded(x) -> moments.Bounded:
    """The real ``x`` as a one-term certified sum at the working precision."""
    bits = mp.mp.prec
    return moments.certified_sum([(moments.ONE, fixed_exact(x, bits))], bits)


def rounded_at_every_corner(*factors: moments.Bounded,
                            over: moments.Bounded = moments.Bounded(1, 0, 0)) -> float:
    """:func:`photsub.moments.rounded` by its first rule: the quotient read at
    every corner of the balls, each end of each factor with each end of
    |``over``|, rather than at the numerator's extremes alone."""
    exp, nums, size = -over.exp, {1}, abs(over.man)
    for b in factors:
        exp, nums = exp + b.exp, {n * end for n in nums for end in (b.man - b.err, b.man + b.err)}
    values = {moments.ratio(n, max(den, 0), exp)
              for n in nums for den in {size - over.err, size + over.err}}
    if len(values) > 1:
        raise PrecisionInsufficient(f"certified only between {min(values)} and {max(values)}")
    return values.pop() + 0.0


def thinned(x: moments.Bounded, eta, n: int) -> moments.Bounded:
    """eta^n ``x``, a sum of moments of 2n ladder operators each: ``x``
    thinned n times by the production law :func:`photsub.moments.thin`."""
    for _ in range(n):
        x = moments.thin(x, eta)
    return x


def quadrature_variance(table, coeffs, eta: float = 1.0,
                        bits: int = moments.digits_to_bits(35)) -> float:
    """Var X of the quadrature X = sum_t (c_t a_t + conj(c_t) a_t^dag)/sqrt 2.

    The general bilinear form, independent of the two-entry closed form the
    quadrature metrics of :mod:`photsub.experiments` read.  ``coeffs`` holds
    one c_t per mode of ``table``, a number or a :func:`complex_fixed` number: (-1j,)
    gives X_theta of one mode at theta = pi/2, and (1, -1)/sqrt 2 the
    squeezed difference quadrature of a pair, normalized so vacuum sits at
    0.5; ``eta`` is the detection
    efficiency.  Normal ordering gives Var X = eta S + sum |c_t|^2 / 2, with
    S = Re sum c_s c_t <a_s a_t> + sum conj(c_s) c_t <a_s^dag a_t>
    - 2 (Re sum c_t <a_t>)^2 over the lossless table, every mean and pair
    read from the table.  For strong squeezing the terms nearly cancel: they
    are summed by :func:`complex_sum` at ``bits`` working
    bits, and Var X must round to one float (``Bounded.value``).
    """
    arity = len(table.modes)
    if len(coeffs) != arity:
        raise MomentOrderMissing(f"{len(coeffs)} coefficients for {arity} modes")
    # a few roundings at the working precision formed a coefficient given as a
    # number, read exactly (an mpmath one too)
    coeffs = [c if isinstance(c, tuple) else complex_fixed(c, bits, err=8) for c in coeffs]
    conj = [(re, _negated(im)) for re, im in coeffs]

    def read(*slots):  # the entry that counts a_t^dag in slot 2t, a_t in slot 2t + 1
        return complex_entry(table, tuple(slots.count(i) for i in range(2 * arity)), bits)

    # <X> = sqrt 2 Re sum c_t <a_t>, so <X>^2 = 2 (Re sum c_t <a_t>)^2
    mean = complex_sum(((c, read(2 * t + 1)) for t, c in enumerate(coeffs)), bits)
    pairs = []
    for s, cs in enumerate(coeffs):
        for t, ct in enumerate(coeffs):
            pairs.append((complex_mul(cs, ct, bits), read(2 * s + 1, 2 * t + 1)))
            pairs.append((complex_mul(conj[s], ct, bits), read(2 * s, 2 * t + 1)))
    vacuum = complex_sum(zip(coeffs, conj), bits)
    spread = complex_sum(pairs, bits) - 2 * mean.squared()
    return (moments.thin(spread, eta) + 0.5 * vacuum).value


def legendre_p(m: int, x):
    """Legendre polynomial P_m(x) by the three-term recurrence (complex ok)."""
    if m < 0 or int(m) != m:
        raise ValueError("m must be a nonnegative integer")
    if m == 0:
        return 1.0 + 0 * x
    p_prev, p = 1.0 + 0 * x, x
    for k in range(1, m):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def passv_norm_squared(lam: float, m: int) -> float:
    """<SSV| a^dag^m a^m |SSV> = m! (-i sqrt(lam))^m P_m(i sqrt(lam))."""
    val = factorial(m) * (-1j * sqrt(lam)) ** m * legendre_p(m, 1j * sqrt(lam))
    return float(val.real)


def spatsv_norm_squared(lam: float, m: int) -> float:
    """<TSV| (a1^dag a2^dag)^m (a1 a2)^m |TSV> = (m!)^2 lam^m P_m(2 lam + 1)."""
    return float(factorial(m) ** 2 * lam**m * legendre_p(m, 2.0 * lam + 1.0))


def mean_photons(state: FockState1) -> float:
    """Mean photon number of a single-mode Fock-basis state."""
    p = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(len(p)), p))


def mean_photons_per_mode(state: TwoModeDiagonalState) -> float:
    p = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(len(p)), p))


def overlap(a, b) -> complex:
    """Inner product <a|b>, reconciling cutoffs by zero-padding."""
    if isinstance(a, FockState1) and isinstance(b, FockState1):
        va, vb = a.amplitudes, b.amplitudes
    elif isinstance(a, TwoModeDiagonalState) and isinstance(b, TwoModeDiagonalState):
        va, vb = a.amplitudes, b.amplitudes
    else:
        raise TypeError(f"cannot overlap {type(a).__name__} with {type(b).__name__}")
    n = max(len(va), len(vb))
    pa = np.zeros(n, dtype=complex)
    pb = np.zeros(n, dtype=complex)
    pa[: len(va)] = va
    pb[: len(vb)] = vb
    return complex(np.vdot(pa, pb))


def fidelity(a, b) -> float:
    return abs(overlap(a, b)) ** 2


# ---------------------------------------------------------------------------
# Squeeze-operator application (for seed-representation equivalence checks)
# ---------------------------------------------------------------------------


def _evolve(gen, amplitudes, cutoff, name):
    """exp(gen) applied to the zero-padded amplitudes, with a tail check."""
    vec = np.zeros(cutoff + 1, dtype=complex)
    vec[: len(amplitudes)] = amplitudes
    out = expm_multiply(gen, vec)
    tail = np.sum(np.abs(out[-CUTOFF_MARGIN:]) ** 2)
    if tail > TAIL_TOL:
        raise CutoffTooSmall(f"{name} cutoff {cutoff} too small (tail {tail:.2e})")
    return out


def squeeze_apply(state: FockState1, r: float, cutoff: int | None = None) -> FockState1:
    """Apply S(r) = exp(r (a^dag^2 - a^2)/2)."""
    if cutoff is None:
        base = fock.squeezed_vacuum(r).cutoff
        cutoff = max(2 * (base + state.cutoff + 10), 4 * state.cutoff + 20)
    a = diags(np.sqrt(np.arange(1, cutoff + 1)), 1, format="csr", dtype=complex)
    adag = a.T.tocsr()
    gen = 0.5 * r * (adag @ adag - a @ a)
    out = _evolve(gen, state.amplitudes, cutoff, "squeeze_apply")
    return FockState1(out).normalized()


def two_mode_squeeze_apply(
    state: TwoModeDiagonalState, r: float, cutoff: int | None = None
) -> TwoModeDiagonalState:
    """Apply S_12 = exp(r (a1^dag a2^dag - a1 a2)) within the |n,n> subspace."""
    if cutoff is None:
        base = fock.two_mode_squeezed_vacuum(np.sinh(r) ** 2).cutoff
        cutoff = max(2 * (base + state.cutoff + 10), 4 * state.cutoff + 20)
    # On |n,n>: a1^dag a2^dag |n,n> = (n+1)|n+1,n+1>, a1 a2 |n,n> = n |n-1,n-1>
    n = np.arange(1, cutoff + 1)
    kplus = diags(n, -1, format="csr", dtype=complex)
    kminus = diags(n, 1, format="csr", dtype=complex)
    gen = r * (kplus - kminus)
    out = _evolve(gen, state.amplitudes, cutoff, "two_mode_squeeze_apply")
    return TwoModeDiagonalState(out).normalized()


# ---------------------------------------------------------------------------
# Moments by direct Fock summation (truncated states, float precision)
# ---------------------------------------------------------------------------


def table_from_state(state, max_order: int = 4, modes=None) -> ReferenceTable:
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
        return ReferenceTable(modes, max_order, compute=entries.__getitem__)
    if isinstance(state, TwoModeDiagonalState):
        modes = (0, 1) if modes is None else tuple(modes)
        d = state.amplitudes
        entries = {}
        for p in range(max_order + 1):
            for q in range(max_order + 1 - p):
                for r in range(max_order + 1 - p - q):
                    for s in range(max_order + 1 - p - q - r):
                        if p - q != r - s:
                            entries[(p, q, r, s)] = 0.0
                        else:
                            entries[(p, q, r, s)] = _diag_two_mode_moment(d, p, q, r, s)
        return ReferenceTable(modes, max_order, compute=entries.__getitem__)
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


def two_mode_unitary_matrix(u2: np.ndarray, c1: int, c2: int) -> np.ndarray:
    """Fock-space matrix of the passive 2x2 map a_out = u2 . a_in.

    Returns M with shape ((c1+1)(c2+1), (c1+1)(c2+1)); photon number beyond
    the cutoffs is silently truncated (callers must keep headroom).
    """
    d1, d2 = c1 + 1, c2 + 1
    mat = np.zeros((d1 * d2, d1 * d2), dtype=complex)
    # U a1^dag U^dag = u2[0,0] a1^dag + u2[0,1]... derived from a_out = u2 a_in:
    # U a_k^dag U^dag = sum_i u2[i,k] a_i^dag
    A = (u2[0, 0], u2[1, 0])  # image of a1^dag
    B = (u2[0, 1], u2[1, 1])  # image of a2^dag
    lg = gammaln(np.arange(c1 + c2 + 2) + 1.0)
    dmax = max(d1, d2)
    # binomial-weighted power ladders, vectorized over the expansion indices
    with np.errstate(divide="ignore", invalid="ignore"):
        pow_a0 = _safe_powers(A[0], dmax)
        pow_a1 = _safe_powers(A[1], dmax)
        pow_b0 = _safe_powers(B[0], dmax)
        pow_b1 = _safe_powers(B[1], dmax)
    for m in range(d1):
        j = np.arange(m + 1)
        wa = np.exp(lg[m] - lg[j] - lg[m - j]) * pow_a0[j] * pow_a1[m - j]
        for n in range(d2):
            col = m * d2 + n
            k = np.arange(n + 1)
            wb = np.exp(lg[n] - lg[k] - lg[n - k]) * pow_b0[k] * pow_b1[n - k]
            # (A)^m (B)^n |0,0> / sqrt(m! n!)
            p1 = j[:, None] + k[None, :]
            p2 = m + n - p1
            coef = wa[:, None] * wb[None, :]
            coef = coef * np.exp(0.5 * (lg[p1] + lg[p2] - lg[m] - lg[n]))
            valid = (p1 < d1) & (p2 < d2)
            np.add.at(
                mat[:, col], (p1[valid] * d2 + p2[valid]).ravel(), coef[valid].ravel()
            )
    return mat


def _safe_powers(base: complex, count: int) -> np.ndarray:
    """[base^0 .. base^(count-1)] with the 0^0 = 1 convention."""
    out = np.ones(count, dtype=complex)
    for i in range(1, count):
        out[i] = out[i - 1] * base
    return out


def apply_dense_two_mode_unitary(amps: np.ndarray, i: int, j: int, u2: np.ndarray) -> np.ndarray:
    """Apply u2 to tensor axes i and j through the dense plane matrix."""
    d1, d2 = amps.shape[i], amps.shape[j]
    mat = two_mode_unitary_matrix(u2, d1 - 1, d2 - 1)
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    out = moved.reshape(-1, d1 * d2) @ mat.T
    return np.moveaxis(out.reshape(*moved.shape), (-2, -1), (i, j))


# ---------------------------------------------------------------------------
# The oracle's lossless output as one amplitude tensor, and detection loss by
# explicit vacuum ancillas (check the oracle's plane stack and its thinning)
# ---------------------------------------------------------------------------


def photon_blocks(u2: np.ndarray, d1: int, d2: int):
    """Yield ``(lo, G)`` for each photon number n = 0 .. d1 + d2 - 2 of a d1 x d2 plane.

    G[p - lo, k - lo] = <p, n-p|U|k, n-k> for the passive map a_out = u2 . a_in,
    over the rows and columns from lo = max(0, n - d2 + 1) to min(n, d1 - 1)
    that fit the plane.  As U a_k^dag U^dag = u2[:, k] . a^dag, block n
    follows from n-1 by

        U|k, n-k> = (sqrt(k) u2[:, 0].a^dag U|k-1, n-k> + sqrt(n-k) u2[:, 1].a^dag U|k, n-k-1>) / n,

    a step of operator norm <= 1, so rounding errors add up instead of growing
    with n.
    """
    sq = np.sqrt(np.arange(d1 + d2, dtype=float))
    # block n-1 at prev[p + 1, k + 1], zero elsewhere
    prev = np.zeros((d1 + 1, d1 + 1), dtype=complex)
    prev[1, 1] = 1.0
    yield 0, prev[1:2, 1:2].copy()
    for n in range(1, d1 + d2 - 1):
        lo, hi = max(0, n - d2 + 1), min(n, d1 - 1)
        p = np.arange(lo, hi + 1)
        at, up = slice(lo, hi + 1), slice(lo + 1, hi + 2)  # p - 1 and p of block n-1
        a1, a2 = sq[p][:, None], sq[n - p][:, None]  # sqrt(p), sqrt(n - p) by row
        block = sq[p] * (u2[0, 0] * a1 * prev[at, at] + u2[1, 0] * a2 * prev[up, at])
        block += sq[n - p] * (u2[0, 1] * a1 * prev[at, up] + u2[1, 1] * a2 * prev[up, up])
        block /= n
        prev = np.zeros_like(prev)
        prev[up, up] = block
        yield lo, block


def apply_on_axes(amps: np.ndarray, i: int, j: int, u2: np.ndarray) -> np.ndarray:
    """Apply u2 to tensor axes i and j one full photon-number block at a time.

    Each anti-diagonal |k, n-k> of the (i, j) plane goes through the square
    block n of :func:`photon_blocks`, for every n.
    """
    moved = np.moveaxis(amps, (i, j), (-2, -1))
    d1, d2 = moved.shape[-2:]
    flat = moved.reshape(-1, d1 * d2)
    out = np.zeros(flat.shape, dtype=complex)
    step = max(d2 - 1, 1)
    for n, (lo, block) in enumerate(photon_blocks(u2, d1, d2)):
        start = lo * d2 + n - lo
        diag = slice(start, start + (len(block) - 1) * step + 1, step)
        out[:, diag] = flat[:, diag] @ block.T
    return np.moveaxis(out.reshape(moved.shape), (-2, -1), (i, j))


def _coherent(alpha: complex):
    """n -> <n|alpha> = e^{-|alpha|^2/2} alpha^n / sqrt(n!), in log space."""
    if alpha == 0:
        return lambda n: complex(n == 0)
    log_r = log(abs(alpha))
    theta = cmath.phase(alpha)
    mu = abs(alpha) ** 2
    return lambda n: cmath.exp(complex(n * log_r - mu / 2 - lgamma(n + 1) / 2, n * theta))


def coherent_state(alpha: complex, cutoff: int | None = None) -> FockState1:
    """Coherent state |alpha>, amplitudes e^{-|a|^2/2} a^n / sqrt(n!), sized
    by the oracle's own filler."""
    return FockState1(fock._filled(_coherent(alpha), cutoff)).normalized()


def passv_seed(spec) -> FockState1:
    """Seed superposition whose squeezing reproduces the PASSV state of ``spec``.

    Components |m - 2l>, l = 0..floor(m/2), with weights z^l/(l! sqrt((m-2l)!)),
    z = sqrt((1+lam)/lam)/2, over z^floor(m/2)/floor(m/2)!, so that none
    overflows as lam -> 0, where the seed tends to |m mod 2>, nor underflows.
    """
    m, lam = spec.m, spec.lam
    if m == 0:
        return FockState1(np.array([1.0 + 0j]))
    if lam == 0:
        raise OutOfRange("seed representation is singular at lam = 0 for m > 0")
    # ((n + k)!/n!)^(modes/2)
    falling = lambda n, k, modes: fock._lowered(lambda _: 1.0, k, modes)(n)
    amps = np.zeros(m + 1, dtype=complex)
    r = 2.0 * sqrt(lam / (1.0 + lam))  # 1/z
    for l in range(m // 2 + 1):
        amps[m - 2 * l] = r ** (m // 2 - l) * (
            falling(l, m // 2 - l, 2) / falling(0, m - 2 * l, 1))  # floor(m/2)!/l!/sqrt((m - 2l)!)
    return FockState1(amps).normalized()


def spatsv_seed(spec) -> TwoModeDiagonalState:
    """Seed superposition sum_k C^m_k |k,k> whose two-mode squeezing gives the SPATSV
    state of ``spec``.

    C^m_k is binomial-weighted: C(m,k) (lam/(1+lam))^{k/2}, with
    overall normalization sqrt((1+lam)^m / P_m(2 lam + 1)).
    """
    m, lam = spec.m, spec.lam
    amps = np.zeros(m + 1, dtype=complex)
    ratio = sqrt(lam / (1.0 + lam)) if lam > 0 else 0.0
    for k in range(m + 1):
        amps[k] = comb(m, k) * ratio**k
    return TwoModeDiagonalState(amps).normalized()


def log_factorials(size: int) -> np.ndarray:
    """log k! for k < size, the table the oracle's helpers read."""
    return np.array([lgamma(k + 1) for k in range(size)])


def binomial_thinning(p: np.ndarray, eta: float, axis: int) -> np.ndarray:
    """Bernoulli-thin a photon-number distribution along one axis.

    Equivalent to a beamsplitter of transmission eta to a vacuum ancilla
    followed by marginalization over the ancilla outcome (valid because only
    photon-number observables are read out after the loss): count n keeps k
    with probability C(n, k) eta^k (1 - eta)^(n - k), the oracle's own
    thinning matrix.
    """
    moved = np.moveaxis(p, axis, -1) @ fock._thinning(log_factorials(p.shape[axis]), eta).T
    return np.moveaxis(moved, -1, axis)


def oracle_output(cfg, cutoff=None) -> np.ndarray:
    """Lossless output amplitudes of the oracle's scene ``cfg`` (a ``SingleMziConfig``
    or ``CorrelatedConfig``, its spec's state filled at ``cutoff`` as the oracle
    fills it); axes 0 and 1 are read out.

    Every mode is padded to the joint photon capacity of its MZI, and the
    coherent port holds the coherent state's exact amplitudes over that
    whole padded axis, neither truncated at its own cutoff nor renormalised.
    One MZI gives the (coherent, quantum) plane.  Twin MZIs give the 4-D
    tensor over (quantum 1, quantum 2, coherent 1, coherent 2), filled with
    sum_n d_n |n, n> beside two coherent states; MZI k mixes axes 2 + k and
    k, and its read-out port is the quantum axis.
    """
    alpha = np.sqrt(cfg.mu) * np.exp(1j * cfg.psi)
    q, u2 = fock.subtracted(cfg.quantum, cutoff), fock.mzi_unitary(cfg.phi)
    d = q.amplitudes
    dim = len(coherent_state(alpha).amplitudes) + len(d) - 1
    coh = np.array([_coherent(alpha)(n) for n in range(dim)])
    if isinstance(q, FockState1):
        fock._check_memory((dim, dim))
        return apply_on_axes(np.outer(coh, np.pad(d, (0, dim - len(d)))), 0, 1, u2)
    shape = (dim,) * 4
    fock._check_memory(shape)
    amps = np.zeros(shape, dtype=complex)
    for n in range(len(d)):
        amps[n, n] = d[n] * np.outer(coh, coh)
    return apply_on_axes(apply_on_axes(amps, 2, 0, u2), 3, 1, u2)


def readout_joint(amps: np.ndarray, eta: float) -> np.ndarray:
    """Joint counts of axes 0 and 1 of an output tensor, binomially thinned."""
    probs = np.abs(amps) ** 2
    joint = probs.sum(axis=tuple(range(2, probs.ndim)))
    if eta < 1.0:
        joint = binomial_thinning(joint, eta, axis=0)
        joint = binomial_thinning(joint, eta, axis=1)
    return joint


def loss_unitary(eta: float) -> np.ndarray:
    """Beamsplitter of transmission eta between a mode and its vacuum ancilla."""
    t = np.sqrt(eta)
    r = np.sqrt(1.0 - eta)
    return np.array([[t, r], [-r, t]])


def ancilla_joint(cfg, cutoff=None) -> np.ndarray:
    """Read-out joint of the oracle's scene ``cfg``, loss by beamsplitters to vacuum ancillas.

    Each read-out axis of :func:`oracle_output` meets its own vacuum ancilla
    at transmission ``cfg.eta``; ancillas and idle ports are then summed
    out.  :func:`photsub.fock.oracle_interferometer` reaches the same joint
    by binomial thinning.
    """
    amps = oracle_output(cfg, cutoff)
    probs = np.abs(amps) ** 2
    # trim negligible occupations first so the tensor with its two ancilla
    # axes stays within the amplitude budget
    keep = _axis_cutoffs(probs, tail=1e-12)
    nd = len(keep)
    shape = (*keep, keep[0], keep[1])
    fock._check_memory(shape)
    big = np.zeros(shape, dtype=complex)
    big[..., 0, 0] = amps[tuple(slice(c) for c in keep)]
    bs = loss_unitary(cfg.eta)
    big = apply_on_axes(apply_on_axes(big, 0, nd, bs), 1, nd + 1, bs)
    probs2 = (np.abs(big) ** 2).sum(axis=tuple(range(2, nd + 2)))
    joint = np.zeros(probs.shape[:2])
    joint[: probs2.shape[0], : probs2.shape[1]] = probs2
    return joint


def _axis_cutoffs(probs: np.ndarray, tail: float) -> list:
    """Per-axis dimensions that drop at most ``tail`` of each marginal's mass.

    Read-out axes 0 and 1 carry moments up to fourth order, so there the
    trim is judged by the share of <(N+1)^4> it removes.
    """
    keep = []
    for ax in range(probs.ndim):
        marg = probs.sum(axis=tuple(k for k in range(probs.ndim) if k != ax))
        if ax < 2:
            marg = marg * (1.0 + np.arange(len(marg))) ** 4
        beyond = np.cumsum(marg[::-1])[::-1]  # beyond[c]: weight of levels >= c
        keep.append(max(1, int(np.count_nonzero(beyond > tail * beyond[0]))))
    return keep


# ---------------------------------------------------------------------------
# General normal-ordered operator algebra: the reference for the port-moment
# kernel of photsub.opalg (a polynomial of ladder monomials, its products,
# and its expectation through a linear mode map over moment tables)
# ---------------------------------------------------------------------------


class DegreeBoundExceeded(PhotsubError):
    """An operator product exceeded the total-degree cap."""


DEFAULT_DEGREE_CAP = 16
_EXP_BITS = 16
_EXP_MASK = (1 << _EXP_BITS) - 1


def mono(*triples) -> tuple:
    """Build a canonical monomial from (mode, p, q) triples."""
    items = [(int(m), int(p), int(q)) for m, p, q in triples if p or q]
    items.sort()
    modes = [m for m, _, _ in items]
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode in monomial")
    return tuple(items)


def mono_degree(monomial) -> int:
    return sum(p + q for _, p, q in monomial)


def _mono_mul(m1, m2):
    """Product of two normal-ordered monomials as [(int weight, monomial)]."""
    per_mode = {}
    for m, p, q in m1:
        per_mode[m] = [p, q, 0, 0]
    for m, p, q in m2:
        if m in per_mode:
            per_mode[m][2] = p
            per_mode[m][3] = q
        else:
            per_mode[m] = [0, 0, p, q]
    terms = [(1, [])]
    for m in sorted(per_mode):
        p1, q1, p2, q2 = per_mode[m]
        options = []
        for k in range(min(q1, p2) + 1):
            w = comb(q1, k) * comb(p2, k) * factorial(k)
            p, q = p1 + p2 - k, q1 + q2 - k
            options.append((w, (m, p, q) if (p or q) else None))
        new_terms = []
        for w0, acc in terms:
            for w, triple in options:
                entry = acc if triple is None else acc + [triple]
                new_terms.append((w0 * w, entry))
        terms = new_terms
    return [(w, tuple(acc)) for w, acc in terms]


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------


class OperatorPolynomial:
    """Complex-weighted sum of normally-ordered ladder monomials."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def identity(coeff=1):
        return OperatorPolynomial({(): coeff})

    @staticmethod
    def ladder(mode: int, dagger: bool = False, coeff=1):
        key = mono((mode, 1, 0)) if dagger else mono((mode, 0, 1))
        return OperatorPolynomial({key: coeff})

    @staticmethod
    def number(mode: int, coeff=1):
        return OperatorPolynomial({mono((mode, 1, 1)): coeff})

    def copy(self):
        return OperatorPolynomial(self.terms)

    def degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def modes(self) -> set:
        out = set()
        for m in self.terms:
            out.update(mode for mode, _, _ in m)
        return out

    def _add_term(self, key, coeff):
        if key in self.terms:
            self.terms[key] = self.terms[key] + coeff
        else:
            self.terms[key] = coeff

    def __add__(self, other):
        out = self.copy()
        for k, c in _as_poly(other).terms.items():
            out._add_term(k, c)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (_as_poly(other) * -1)

    def __rsub__(self, other):
        return _as_poly(other) + (self * -1)

    def __neg__(self):
        return self * -1

    def scaled(self, factor):
        return OperatorPolynomial({k: factor * c for k, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorPolynomial):
            return multiply(self, other)
        return self.scaled(other)

    def __rmul__(self, other):
        if isinstance(other, OperatorPolynomial):
            return multiply(other, self)
        return self.scaled(other)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        parts = [f"{c!r}*{m}" for m, c in sorted(self.terms.items())]
        return "OperatorPolynomial(" + " + ".join(parts[:8]) + (" ..." if len(parts) > 8 else "") + ")"


def _as_poly(x):
    if isinstance(x, OperatorPolynomial):
        return x
    return OperatorPolynomial.identity(x)


def multiply(a: OperatorPolynomial, b: OperatorPolynomial) -> OperatorPolynomial:
    """Normal-ordered product of two polynomials, of degree at most DEFAULT_DEGREE_CAP."""
    max_deg = a.degree() + b.degree()
    if max_deg > DEFAULT_DEGREE_CAP:
        raise DegreeBoundExceeded(
            f"product degree {max_deg} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    out = OperatorPolynomial()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            c = c1 * c2
            for w, key in _mono_mul(m1, m2):
                out._add_term(key, c if w == 1 else w * c)
    return out


def power(a: OperatorPolynomial, n: int) -> OperatorPolynomial:
    out = OperatorPolynomial.identity(1)
    for _ in range(n):
        out = multiply(out, a)
    return out



def contract(poly: OperatorPolynomial, images: dict, tables) -> tuple:
    """(expectation, scale) of ``poly`` after a_j -> sum_t c_jt a_t + beta_j.

    ``images`` maps each mode of ``poly`` to ``(coeffs, beta)``, with
    ``coeffs`` a dict target mode -> c_jt.  ``tables`` describe a product
    state: each exposes ``modes`` (tuple of mode ids, together covering every
    target mode once) and is read by :func:`entry`, a key concatenating
    (p, q) pairs in the table's mode order.  The map must preserve commutators.

    An a^dag image holds only creation operators and scalars and an a image
    only annihilation operators and scalars, so the image of a
    normally-ordered monomial is normally ordered as it expands: each
    ``(image)^n`` is expanded once per call, its products go straight to
    moment keys, and a key whose moment vanishes is skipped before any
    coefficient arithmetic.

    ``scale`` is the magnitude of the largest single product (coefficient
    times moments, before products sharing a key are summed), as a float: the
    size the result may have cancelled from, which a caller sets against the
    working precision to count the digits lost.
    """
    tables = list(tables)
    slot = {}
    spans = []
    for t in tables:
        lo = 2 * len(slot)
        for mode in t.modes:
            slot[mode] = len(slot)
        spans.append((t, lo, 2 * len(slot)))
    # a key is the exponent vector (p, q per target mode) packed into one
    # int, _EXP_BITS bits per exponent, so that multiplying monomials is adding
    width = 2 * len(slot)
    powers = {}
    found = {}

    def expansion(mode, dagger, n):
        """[(exponents, coefficient, largest product)] of an image's n-th power."""
        if (mode, dagger, n) not in powers:
            coeffs, beta = images[mode]
            base = [(1 << _EXP_BITS * (2 * slot[t] + (not dagger)), c) for t, c in coeffs.items()]
            if not _is_zero(beta):
                base.append((0, beta))
            base = [(w, _conj(b) if dagger else b) for w, b in base]
            base = [(w, b, _abs_value(b)) for w, b in base]
            out = {0: (1, 1.0)}
            for _ in range(n):
                grown = {}
                for v, (a, ma) in out.items():
                    for w, b, mb in base:
                        _accumulate(grown, v + w, a * b, ma * mb)
                out = grown
            powers[mode, dagger, n] = [(v, a, ma) for v, (a, ma) in out.items()]
        return powers[mode, dagger, n]

    def moment(key):
        """(per-table moments, |their product|), or None when one vanishes."""
        if key not in found:
            exps = [key >> _EXP_BITS * i & _EXP_MASK for i in range(width)]
            # a table whose modes the key leaves alone contributes <1> = 1
            entries = [entry(t, tuple(exps[lo:hi])) for t, lo, hi in spans if any(exps[lo:hi])]
            vanishes = any(_is_zero(e) for e in entries)
            found[key] = None if vanishes else (entries, prod(map(_abs_value, entries)))
        return found[key]

    coeffs = {}
    largest = 0.0
    for m, c in poly.terms.items():
        blocks = [expansion(mode, True, p) for mode, p, _ in m if p]
        blocks += [expansion(mode, False, q) for mode, _, q in m if q]
        partial = {0: (c, _abs_value(c))}
        for n, block in enumerate(blocks, 1):
            grown = {}
            for v, (a, ma) in partial.items():
                for w, b, mb in block:
                    key = v + w
                    if n < len(blocks) or moment(key) is not None:
                        _accumulate(grown, key, a * b, ma * mb)
            partial = grown
        for key, (a, ma) in partial.items():
            hit = moment(key)
            if hit is not None:
                largest = max(largest, ma * hit[1])
                coeffs[key] = coeffs[key] + a if key in coeffs else a
    total = 0
    for key, c in coeffs.items():
        value = c
        for e in found[key][0]:
            value = value * e
        total = value + total
    return total, largest
