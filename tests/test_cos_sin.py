"""The integer cosine and sine (:func:`photsub.moments.cos_sin`), Machin's pi
and the phases built on them, against mpmath at twice the bits.

Every cosine and sine lies within its one counted ulp of its own size, also
at tiny angles, near multiples of pi/2 (where the reduction cancels), at
turns up to 16 of phases up to 1e6 and at 53 to 1000 bits; each phase and
each Mach-Zehnder port entry lies within the radius it carries.
"""

import random
from math import pi

import mpmath as mp
import pytest

from photsub import metrology, moments
from reference import fixed_value, row_phase

BITS = (53, 54, 64, 100, 257, 600, 1000)
#: near multiples of pi/2 sit the float multiples of pi/2 and pi - 1e-9
ANGLES = (0.0, 1e-300, -1e-300, 1e-10, -0.7, 1.0, pi / 2, pi, 3 * pi / 2, 2 * pi,
          -pi / 2, pi - 1e-9, 1e6, -123456.789, 5e5 + 0.25)


def _angle(n: int, shift: int):
    return mp.mpf(n) / mp.mpf(2) ** shift


def _assert_within_one_ulp(part: tuple, want, bits: int, what) -> None:
    man, exp = part
    if want == 0:
        assert man == 0, what
        return
    assert abs(man).bit_length() <= bits + 4, what
    assert abs(mp.mpf(man) * mp.mpf(2) ** exp - want) <= mp.mpf(2) ** -bits * abs(want), what


def _check(n: int, shift: int, bits: int) -> None:
    cos, sin = moments.cos_sin(n, shift, bits)
    with mp.workprec(2 * bits + 64):
        angle = _angle(n, shift)
        _assert_within_one_ulp(cos, mp.cos(angle), bits, ("cos", n, shift, bits))
        _assert_within_one_ulp(sin, mp.sin(angle), bits, ("sin", n, shift, bits))


@pytest.mark.parametrize("bits", BITS)
def test_cos_sin_of_edge_angles_lie_within_one_ulp(bits):
    for x in ANGLES:
        n, d = x.as_integer_ratio()
        _check(n, d.bit_length() - 1, bits)


@pytest.mark.parametrize("seed", range(4))
def test_cos_sin_of_turns_of_a_phase_lie_within_one_ulp(seed):
    rng = random.Random(seed)
    for _ in range(150):
        psi = rng.choice((rng.uniform(-1e6, 1e6), rng.uniform(-4.0, 4.0),
                          rng.choice((pi / 2, pi, pi / 4)) * rng.randrange(1, 9)))
        turns, bits = rng.randrange(-16, 17), rng.randrange(53, 1001)
        n, d = psi.as_integer_ratio()
        _check(n * turns, d.bit_length() - 1, bits)


def test_machin_pi_lies_within_two_units():
    for bits in (2, 31, 53, 64, 100, 255, 256, 1000, 2048):
        with mp.workprec(bits + 64):
            assert abs(moments._pi(bits) - mp.pi * mp.mpf(2) ** bits) < 2, bits


@pytest.mark.parametrize("bits", (53, 130, 400))
def test_phases_lie_within_their_radius(bits):
    # within 2^-bits of the unit phase plus a unit of the smaller part's
    # truncation, or exactly 1, radius 0, at turns 0 or x 0
    for x in ANGLES:
        phases = moments.Phases(x)
        for turns in range(-16, 17):
            c, s, err, e = phases[turns, bits]
            assert (err == 0) == (not (turns and x)), (x, turns)
            with mp.workprec(2 * bits + 64):
                want = mp.expj(mp.mpf(x) * turns)
                got = mp.mpc(c, s) * mp.mpf(2) ** e
                radius = err * mp.mpf(2) ** e
                assert abs(got - want) <= radius, (x, turns, bits)
                assert radius <= mp.mpf(2) ** -bits + mp.mpf(2) ** (e + 1), (x, turns, bits)


@pytest.mark.parametrize("bits", (60, 266, 700))
def test_mzi_entries_lie_within_their_radius(bits):
    # x = cos^2(phi/2), y = sin^2(phi/2) and z = i cos sin each to their own
    # relative accuracy, where one of cos and sin nearly vanishes too; the
    # entries at phi = 0 are exact
    for phi in (1e-9, 1e-300, 0.7, pi / 2, pi - 1e-9, pi, 2 * pi - 1e-6, -2.5, 1e6):
        entries = metrology._mzi_entries(phi, bits)
        with mp.workprec(2 * bits + 64):
            c, s = mp.cos(mp.mpf(phi) / 2), mp.sin(mp.mpf(phi) / 2)
            for got, want in zip(entries, (c * c, s * s, mp.mpc(0, c * s))):
                radius = got[2] * mp.mpf(2) ** got[3]
                assert abs(fixed_value(got) - want) <= radius, (phi, bits)
                assert radius <= 10 * mp.mpf(2) ** -bits * abs(want), (phi, bits)
    assert metrology._mzi_entries(0.0, bits) == (moments.ONE, moments.ZERO, moments.ZERO)


def test_a_negative_turn_reads_the_cosine_and_sine_of_the_positive_one(monkeypatch):
    # cos_sin(-n) is exactly (cos, -sin), so Phases forms -t from +t's one call,
    # the sine negated before its shift: every tuple as one call of n t gives it
    calls, cos_sin = [], moments.cos_sin
    monkeypatch.setattr(moments, "cos_sin", lambda *a: calls.append(a) or cos_sin(*a))
    rng = random.Random(20)
    for x in [-0.7, 1.0, pi / 2] + [rng.uniform(-10, 10) for _ in range(40)]:
        bits = rng.randrange(64, 501)
        for first in (1, -1):  # either sign read first
            phases, calls[:] = moments.Phases(x), []
            turns = [sign * t for t in range(1, 9) for sign in (first, -first)]
            got = [phases[t, bits] for t in turns]
            assert len(calls) == 8
            assert got == [row_phase(phases, t, bits) for t in turns], (x, bits)
