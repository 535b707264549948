"""The radius arithmetic of the fixed numbers of :mod:`photsub.moments`
against exact Fractions.

A fixed number (man, err, exp) is the real ball of midpoint man 2^exp and
radius err 2^exp.  For :func:`~photsub.moments.fixed_from`,
:func:`~photsub.moments.fixed_mul`, :func:`~photsub.moments.fixed_times`,
:func:`photsub.opalg._exact_sum`, :func:`~photsub.moments.certified_sum`,
a :class:`~photsub.moments.Bounded` plus or minus an integer and its square, every
exact value the inputs' balls hold maps into the result's ball, and
exact inputs that fit the bits keep radius 0: also where a sum cancels to
an exact 0, for terms whose midpoint is 0 but whose radius is not, and for
mantissas of a few bits.  The complex sum of the reference
(:func:`reference.complex_sum`, two real pairs per complex one) holds every
complex product's real part alike.
"""

from fractions import Fraction

from hypothesis import example, given
from hypothesis import strategies as st

from photsub import moments, opalg
from photsub.states import SpatsvSpec
from reference import complex_sum

SHORT = st.integers(-8, 8)
MANTISSAS = st.one_of(SHORT, st.integers(-(2**300), 2**300))
RADII = st.one_of(st.just(0), st.integers(0, 3), st.integers(0, 2**80))
EXPONENTS = st.integers(-400, 400)
BITS = st.integers(4, 200)


@st.composite
def balls(draw, mantissas=MANTISSAS, radii=RADII, exponents=EXPONENTS):
    """A fixed number and an exact value in its ball: the midpoint moved by
    at most the radius, the ball's edge included."""
    x = draw(mantissas), draw(radii), draw(exponents)
    n = draw(st.integers(1, 16))
    a = draw(st.integers(-n, n))
    return x, (x[0] + Fraction(a * x[1], n)) * Fraction(2) ** x[2]


@st.composite
def complex_balls(draw, mantissas=MANTISSAS, radii=RADII, exponents=EXPONENTS):
    """A complex fixed number of the reference, a pair of real balls, and an
    exact complex value in it, a pair of Fractions."""
    (re, u), (im, v) = (draw(balls(mantissas, radii, exponents)) for _ in range(2))
    return (re, im), (u, v)


def _holds(x: tuple, value: Fraction) -> bool:
    """The ball ``x`` holds ``value``."""
    man, err, exp = x
    unit = Fraction(2) ** exp
    return abs(value - man * unit) <= err * unit


def _real_sum_within(got: moments.Bounded, want: Fraction) -> bool:
    return _holds((got.man, got.err, got.exp), want)


@given(balls(), BITS)
def test_fixed_from_keeps_every_value_of_its_ball(ball, bits):
    x, value = ball
    got = moments.fixed_from(*x, bits)
    assert _holds(got, value)
    if x[0].bit_length() <= bits:
        assert got == x  # nothing truncated: an exact number stays exact
    else:
        assert got[1] <= 1 - (-x[1] >> (got[2] - x[2]))


def test_a_truncation_that_drops_only_zero_bits_keeps_a_number_exact():
    # 1/2 read at 156 bits once carried 2 units of radius, and a certified
    # sum one; a dropped nonzero bit still adds one
    man, err, exp = SpatsvSpec(0.5, 0).table().fixed((1, 1, 0, 0), 156)
    assert (man * Fraction(2) ** exp, err) == (Fraction(1, 2), 0)
    for lost in (0, 1):
        assert moments.fixed_from((3 << 50) + lost, 0, -7, 8) == (3 << 6, lost, 37)
        one = moments.certified_sum([(moments.ONE, ((1 << 100) + lost, 0, 0))], 10)
        assert (one.man, one.err, one.exp) == (1 << 9, lost, 91)


@given(balls(), balls(), BITS)
def test_fixed_mul_holds_every_product(first, second, bits):
    (x, u), (y, v) = first, second
    got = moments.fixed_mul(x, y, bits)
    assert _holds(got, u * v)
    if not (x[1] or y[1]) and (x[0] * y[0]).bit_length() <= bits:
        assert got[1] == 0


@given(balls(), st.integers(-5, 5), st.integers(-10, 10))
def test_fixed_times_is_exact(ball, k, halvings):
    x, value = ball
    got = moments.fixed_times(x, k, halvings)
    assert _holds(got, value * k * Fraction(2) ** -halvings)
    assert got[1] == x[1] * abs(k)


@given(st.lists(st.tuples(st.integers(-9, 9), balls()), max_size=6), st.integers(0, 3))
def test_exact_sum_holds_every_sum(summands, halvings):
    got = opalg._exact_sum([(w, x) for w, (x, _) in summands], halvings)
    want = sum(w * value for w, (_, value) in summands) * Fraction(2) ** -halvings
    if got is None:  # an exact 0: every summand that counts is exact
        assert want == 0 and all(not (w and x[1]) for w, (x, _) in summands)
    else:
        assert _holds(got, want)
        # an exact 0 summand counts for nothing, nor does its exponent
        assert got[1] == sum(abs(w) * x[1] << (x[2] - halvings - got[2])
                             for w, (x, _) in summands if x[0] or x[1])


@given(balls(), st.integers(1, 9))
def test_a_cancelled_sum_keeps_its_radii(ball, w):
    x, _ = ball
    got = opalg._exact_sum([(w, x), (-w, x)])
    assert got == ((0, 2 * w * x[1], x[2]) if x[1] else None)


@given(st.lists(st.tuples(balls(), balls()), max_size=5), BITS)
def test_certified_sum_holds_every_real_sum(pairs, bits):
    got = moments.certified_sum([(x, y) for (x, _), (y, _) in pairs], bits)
    assert _real_sum_within(got, sum(u * v for (_, u), (_, v) in pairs))


@given(st.lists(st.tuples(complex_balls(), complex_balls()), max_size=4), BITS)
def test_the_reference_complex_sum_holds_every_real_part(pairs, bits):
    got = complex_sum([(x, y) for (x, _), (y, _) in pairs], bits)
    want = sum(u[0] * v[0] - u[1] * v[1] for (_, u), (_, v) in pairs)
    assert _real_sum_within(got, want)


@given(st.lists(st.tuples(balls(SHORT, st.just(0), st.integers(-3, 3)),
                          balls(SHORT, st.just(0), st.integers(-3, 3))), max_size=5),
       st.integers(20, 200))
def test_short_exact_terms_sum_exactly(pairs, bits):
    # mantissas of a few bits fit the unit the sum keeps: no truncation, and
    # terms that cancel give an exact 0
    got = moments.certified_sum([(x, y) for (x, _), (y, _) in pairs], bits)
    want = sum(u * v for (_, u), (_, v) in pairs)
    assert got.err == 0 and got.man * Fraction(2) ** got.exp == want


@given(balls(), st.integers(1, 2**40), EXPONENTS, BITS, st.sampled_from((1, -1)))
def test_a_zero_midpoint_adds_its_radius(ball, err, exp, bits, side):
    # a term 0 +- err 2^exp times y: certified_sum counts it, so both edges
    # of its ball lie within the sum
    y, v = ball
    zero = (0, err, exp)
    edge = side * err * Fraction(2) ** exp
    got = moments.certified_sum([(zero, y), (y, moments.ONE)], bits)
    assert _real_sum_within(got, edge * v + v)
    if y != (0, 0, y[2]):
        assert got.err > 0


@given(MANTISSAS, RADII, EXPONENTS, st.one_of(SHORT, st.integers(-(2**70), 2**70)))
@example(1, 0, 0, 1)
def test_a_bounded_plus_an_integer_is_exact(man, err, exp, k):
    # k moves the midpoint by exactly k and keeps the radius, on either
    # side; 0, where sum() starts, gives back the ball itself
    x = moments.Bounded(man, err, exp)
    unit = Fraction(2) ** exp
    for got, want in ((x + k, man * unit + k), (k + x, man * unit + k), (x - k, man * unit - k)):
        scale = Fraction(2) ** got.exp
        assert (got.man * scale, got.err * scale) == (want, err * unit)
    assert x + 0 is x and 0 + x is x and sum([x]) is x
    if (man, err, exp) == (1, 0, 0):
        assert ((x + k).value, (x - k).value) == (float(1 + k), float(1 - k))


@given(MANTISSAS, RADII, EXPONENTS, st.fractions(-1, 1))
@example(1, 1, 0, Fraction(1))
def test_a_bounded_squared_holds_every_square(man, err, exp, t):
    # x = (man + t err) 2^exp is any value of the ball, its edges included;
    # the square's ball must hold x^2, also where the ball straddles 0, as
    # a variance subtracts the squared mean there
    x = (man + t * err) * Fraction(2) ** exp
    assert _real_sum_within(moments.Bounded(man, err, exp).squared(), x * x)
