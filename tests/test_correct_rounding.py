"""The one precision rule: every ``ok`` row is the exact value correctly
rounded, at fixed working digits and at the default.

A figure's certified ball must round to one float, else the row is flagged
``precision``; the default doubles its working digits until the ball rounds.
Fixed digits d pin the default's first and last attempt to d (the
``pin_digits`` fixture), so a sweep runs at d alone.
The check runs every metric of both schemes, one case a scene, over a seeded
sample of the scenes lam in {0.05, 2, 30}, m in {0, 2}, phi in {1e-8, 1e-4,
0.7, 3}, mu in {0, 18, 1e4, 1e12, 1e16}, eta in {0.98, 1}, and over the twin-beam
scene at lam = 30, m = 2, phi = 1e-8, mu = 1e4, eta = 1 where 16 digits
once printed U_norm 6.21087705512e-08 as ``ok`` (the value is 7.11e-10).
The rule reads four corners of the balls; a property test checks it against
every corner (:func:`reference.rounded_at_every_corner`).
"""

import dataclasses
import itertools
import random
from math import pi

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import reference
from photsub import moments
from photsub.errors import PrecisionInsufficient
from photsub.experiments import CORRELATED_METRICS, SINGLE_METRICS, SweepConfig, run_sweep

_GRID = dict(lam=(0.05, 2.0, 30.0), m=(0, 2), phi=(1e-8, 1e-4, 0.7, 3.0),
             mu=(0.0, 18.0, 1e4, 1e12, 1e16), eta=(0.98, 1.0))
_TWIN_BEAMS = dict(lam=30.0, m=2, phi=1e-8, mu=1e4, eta=1.0)


_SCENES = [_TWIN_BEAMS] + [dict(zip(_GRID, p)) for p in random.Random(41).sample(
    list(itertools.product(*_GRID.values())), 24)]
_SCENE_IDS = [",".join(f"{key}={value:g}" for key, value in scene.items()) for scene in _SCENES]


def _sweep(scheme: str, scene: dict) -> SweepConfig:
    metrics = SINGLE_METRICS if scheme == "single" else CORRELATED_METRICS
    return SweepConfig(scheme=scheme, axis="phi", values=(scene["phi"],), m_list=(scene["m"],),
                       metrics=metrics, lam=scene["lam"], mu=scene["mu"], psi=pi / 2,
                       eta=scene["eta"])


def _rows(pin_digits, sweep, digits) -> tuple:
    """The sweep's rows at ``digits`` working digits alone, None for the default."""
    pin_digits(digits)
    return run_sweep(sweep).rows


@pytest.mark.parametrize("scene", _SCENES, ids=_SCENE_IDS)
@pytest.mark.parametrize("scheme", ["single", "correlated"])
def test_every_ok_row_is_the_150_digit_value_correctly_rounded(scheme, scene, pin_digits):
    cap = moments.MAX_DIGITS
    sweep = _sweep(scheme, scene)
    # an exact zero whose ball still straddles 0.0's rounding interval at
    # 150 digits (the twin beams' nrf at mu = 0, m >= 1) is read at the cap
    want = [ref if ref.flag != "precision" else
            _rows(pin_digits, dataclasses.replace(sweep, metrics=(ref.metric,)), cap)[0]
            for ref in _rows(pin_digits, sweep, 150)]
    for digits in (None, *range(16, 31)):
        for row, ref in zip(_rows(pin_digits, sweep, digits), want):
            if row.flag == "ok":
                assert (ref.flag, ref.value) == ("ok", row.value), (digits, row)
            else:
                assert row.flag in ("precision", ref.flag), (digits, row)


def test_the_twin_beam_scene_prints_its_150_digit_values_at_the_default_and_120_digits(
        pin_digits):
    sweep = dataclasses.replace(_sweep("correlated", _TWIN_BEAMS), metrics=("U_norm", "nrf"))
    for digits in (None, 120):
        pin_digits(digits)
        csv = run_sweep(sweep).to_csv().splitlines()
        assert csv[-2:] == ["1e-08,2,U_norm,7.11095104599e-10,ok",
                            "1e-08,2,nrf,3.84254732626e-17,ok"], digits


def test_the_twin_beam_scene_flags_both_figures_at_30_digits_alone(pin_digits):
    # the default's first attempt does not round: only its doubling prints
    # the rows above, and without it run_sweep maps PrecisionInsufficient
    # to the precision flag
    sweep = dataclasses.replace(_sweep("correlated", _TWIN_BEAMS), metrics=("U_norm", "nrf"))
    assert [(row.metric, row.value, row.flag) for row in _rows(pin_digits, sweep, 30)] == [
        ("U_norm", None, "precision"), ("nrf", None, "precision")]


_ENDS = st.one_of(st.integers(-8, 8), st.integers(-(2**120), 2**120))


@st.composite
def _balls(draw):
    """A Bounded whose ends may straddle 0, meet at 0 or be a point."""
    return moments.Bounded(draw(_ENDS), draw(st.one_of(st.integers(0, 3), st.integers(0, 2**100))),
                           draw(st.integers(-300, 300)))


def _outcome(rule, factors, over) -> tuple:
    try:
        return "value", rule(*factors, over=over)
    except PrecisionInsufficient as exc:
        return "raised", str(exc)


@given(st.lists(_balls(), max_size=3), _balls())
@example([moments.Bounded(3, 1, 0), moments.Bounded(-5, 7, 0)], moments.Bounded(2, 2, 0))
@example([moments.Bounded(1, 0, 0)], moments.Bounded(0, 0, 0))
def test_four_corners_round_as_every_corner(factors, over):
    # the least and greatest numerator ends over both divisor ends give the
    # float, or the PrecisionInsufficient message, that every corner gives:
    # the quotient is monotone in the numerator, its infinities too
    assert _outcome(moments.rounded, factors, over) == _outcome(
        reference.rounded_at_every_corner, factors, over)
