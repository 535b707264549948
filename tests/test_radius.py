"""The radius arithmetic of the fixed numbers of :mod:`photsub.moments`
against exact Fractions.

A fixed number (re, im, err, exp) is the ball of midpoint (re + i im) 2^exp
and radius err 2^exp.  For :func:`~photsub.moments.fixed_from`,
:func:`~photsub.moments.fixed_mul`, :func:`~photsub.moments.fixed_times`,
:func:`photsub.opalg._exact_sum` and :func:`~photsub.moments.certified_sum`,
every exact value the inputs' balls hold maps into the result's ball, and
exact inputs that fit the bits keep radius 0: also where a sum cancels to
an exact 0, for terms whose midpoint is 0 but whose radius is not, and for
mantissas of a few bits.
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from photsub import moments, opalg

SHORT = st.integers(-8, 8)
MANTISSAS = st.one_of(SHORT, st.integers(-(2**300), 2**300))
RADII = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**80))
EXPONENTS = st.integers(-400, 400)
BITS = st.integers(4, 200)


@st.composite
def balls(draw, mantissas=MANTISSAS, radii=RADII, exponents=EXPONENTS):
    """A fixed number and an exact complex value in its ball: the midpoint
    moved by at most the radius in the l1 norm, so in modulus too, the
    ball's edge included."""
    x = draw(mantissas), draw(mantissas), draw(radii), draw(exponents)
    n = draw(st.integers(1, 16))
    a = draw(st.integers(-n, n))
    b = draw(st.integers(abs(a) - n, n - abs(a)))
    unit = Fraction(2) ** x[3]
    return x, ((x[0] + Fraction(a * x[2], n)) * unit, (x[1] + Fraction(b * x[2], n)) * unit)


def _holds(x: tuple, value: tuple) -> bool:
    """The ball ``x`` holds the complex ``value``, a pair of Fractions."""
    re, im, err, exp = x
    unit = Fraction(2) ** exp
    dr, di = value[0] - re * unit, value[1] - im * unit
    return dr * dr + di * di <= (err * unit) ** 2


def _times(u: tuple, v: tuple) -> tuple:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _fits(re: int, im: int, bits: int) -> bool:
    return max(abs(re), abs(im)).bit_length() <= bits


def _real_sum_within(got: moments.Bounded, want: Fraction) -> bool:
    unit = Fraction(2) ** got.exp
    return abs(want - got.man * unit) <= got.err * unit


@given(balls(), BITS)
def test_fixed_from_keeps_every_value_of_its_ball(ball, bits):
    x, value = ball
    got = moments.fixed_from(*x, bits)
    assert _holds(got, value)
    if _fits(x[0], x[1], bits):
        assert got == x  # nothing truncated: an exact number stays exact
    else:
        assert got[2] <= 2 - (-x[2] >> (got[3] - x[3]))


@given(balls(), balls(), BITS)
def test_fixed_mul_holds_every_product(first, second, bits):
    (x, u), (y, v) = first, second
    got = moments.fixed_mul(x, y, bits)
    assert _holds(got, _times(u, v))
    if not (x[2] or y[2]) and _fits(x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0], bits):
        assert got[2] == 0


@given(balls(), st.integers(-5, 5), st.integers(-5, 5), st.integers(-10, 10))
def test_fixed_times_is_exact(ball, kr, ki, halvings):
    x, value = ball
    got = moments.fixed_times(x, complex(kr, ki) if ki else kr, halvings)
    scale = Fraction(2) ** -halvings
    assert _holds(got, _times(value, (kr * scale, ki * scale)))
    assert got[2] == x[2] * (abs(kr) + abs(ki))


@given(st.lists(st.tuples(st.integers(-9, 9), balls()), max_size=6))
def test_exact_sum_holds_every_sum(summands):
    got = opalg._exact_sum([(w, x) for w, (x, _) in summands])
    want = (sum(w * value[0] for w, (_, value) in summands),
            sum(w * value[1] for w, (_, value) in summands))
    if got is None:  # an exact 0: every summand that counts is exact
        assert want == (0, 0) and all(not (w and x[2]) for w, (x, _) in summands)
    else:
        assert _holds(got, want)
        assert got[2] == sum(abs(w) * x[2] << (x[3] - got[3]) for w, (x, _) in summands)


@given(balls(), st.integers(1, 9))
def test_a_cancelled_sum_keeps_its_radii(ball, w):
    x, _ = ball
    got = opalg._exact_sum([(w, x), (-w, x)])
    assert got == ((0, 0, 2 * w * x[2], x[3]) if x[2] else None)


@given(st.lists(st.tuples(balls(), balls()), max_size=5), BITS)
def test_certified_sum_holds_every_real_sum(pairs, bits):
    got = moments.certified_sum([(x, y) for (x, _), (y, _) in pairs], bits)
    assert _real_sum_within(got, sum(_times(u, v)[0] for (_, u), (_, v) in pairs))


@given(st.lists(st.tuples(balls(SHORT, st.just(0), st.integers(-3, 3)),
                          balls(SHORT, st.just(0), st.integers(-3, 3))), max_size=5),
       st.integers(20, 200))
def test_short_exact_terms_sum_exactly(pairs, bits):
    # mantissas of a few bits fit the unit the sum keeps: no truncation, and
    # terms that cancel give an exact 0
    got = moments.certified_sum([(x, y) for (x, _), (y, _) in pairs], bits)
    want = sum(_times(u, v)[0] for (_, u), (_, v) in pairs)
    assert got.err == 0 and got.man * Fraction(2) ** got.exp == want


@given(balls(), st.integers(1, 2**40), EXPONENTS, BITS, st.sampled_from((1, -1)))
def test_a_zero_midpoint_adds_its_radius(ball, err, exp, bits, side):
    # a term 0 +- err 2^exp times y: certified_sum counts it, so both edges
    # of its ball lie within the sum
    y, v = ball
    zero = (0, 0, err, exp)
    edge = (side * err * Fraction(2) ** exp, Fraction(0))
    got = moments.certified_sum([(zero, y), (y, moments.ONE)], bits)
    assert _real_sum_within(got, _times(edge, v)[0] + v[0])
    if y[:3] != (0, 0, 0):
        assert got.err > 0
