"""The subtracted-state constructor, closed forms, seeds and energy balancing."""

from fractions import Fraction
from math import factorial, inf, nextafter

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from photsub import fock, moments, states
from photsub.errors import CutoffTooSmall, NullState, OutOfRange
from photsub.experiments import SweepConfig, main, run_sweep
from photsub.states import PassvSpec, SpatsvSpec
from reference import (
    coherent_state,
    fidelity,
    legendre_p,
    mean_photons,
    mean_photons_per_mode,
    passv_norm_squared,
    spatsv_norm_squared,
    squeeze_apply,
    two_mode_squeeze_apply,
)


def test_legendre_recurrence_values():
    # P_2(x) = (3x^2 - 1)/2, P_3(x) = (5x^3 - 3x)/2
    x = 0.37
    assert abs(legendre_p(2, x) - 0.5 * (3 * x**2 - 1)) < 1e-14
    assert abs(legendre_p(3, x) - 0.5 * (5 * x**3 - 3 * x)) < 1e-14


@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_single_mode_norm_squared_matches_factorial_moment(lam, m):
    # the moment the default cutoff reads: the PASSV table's norm, one int / int
    direct = _table_norm(PassvSpec(lam, m).table())
    assert abs(passv_norm_squared(lam, m) - direct) < 1e-10 * max(1.0, direct)


def _table_norm(table) -> float:
    return moments.ratio(table.norm, 1, -table.shift * table.norm_degree)


@pytest.mark.parametrize("lam", [0.2, 1.0, 5.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5, 6])
def test_two_mode_norm_squared_matches_factorial_moment(lam, m):
    direct = _table_norm(SpatsvSpec(lam, m).table())
    assert abs(spatsv_norm_squared(lam, m) - direct) < 1e-10 * max(1.0, direct)


def test_two_mode_norm_squared_m1_closed_form():
    lam = 0.7
    assert abs(spatsv_norm_squared(lam, 1) - lam * (2 * lam + 1)) < 1e-12


@pytest.mark.parametrize("m,expected", [
    (0, lambda lam: lam),
    (1, lambda lam: 3 * lam + 1),
    (2, lambda lam: 3 * lam * (3 + 5 * lam) / (1 + 3 * lam)),
    (3, lambda lam: (3 + 30 * lam + 35 * lam**2) / (3 + 5 * lam)),
])
def test_single_mode_mean_photons_closed_forms_vs_fock(m, expected):
    lam = 0.8
    val = PassvSpec(lam, m).mean_photons
    assert abs(val - expected(lam)) < 1e-12
    numeric = mean_photons(fock.subtracted(PassvSpec(lam, m), cutoff=300))
    assert abs(val - numeric) < 1e-9


def test_single_mode_mean_photons_m4_vs_fock():
    lam = 0.6
    val = PassvSpec(lam, 4).mean_photons
    numeric = mean_photons(fock.subtracted(PassvSpec(lam, 4), cutoff=400))
    assert abs(val - numeric) < 1e-8


def test_single_mode_mean_photons_at_zero_energy():
    # a^m on vacuum-limit squeezed vacuum leaves |0> (even m) or |1> (odd m)
    assert PassvSpec(0.0, 4).mean_photons == 0.0
    assert PassvSpec(0.0, 5).mean_photons == 1.0


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_two_mode_mean_photons_vs_fock(m):
    lam = 0.5
    val = SpatsvSpec(lam, m).mean_photons
    numeric = mean_photons_per_mode(fock.subtracted(SpatsvSpec(lam, m), cutoff=300))
    assert abs(val - numeric) < 1e-9


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_single_seed_squeezes_to_subtracted_state(m):
    lam = 1.3
    spec = PassvSpec(lam, m)
    seed = reference.passv_seed(spec)
    padded = np.zeros(300, dtype=complex)
    padded[: len(seed.amplitudes)] = seed.amplitudes
    squeezed = squeeze_apply(fock.FockState1(padded), spec.r)
    target = fock.subtracted(spec, cutoff=300)
    assert fidelity(squeezed, target) > 1 - 1e-12


@pytest.mark.parametrize("m", [1, 2, 3])
def test_two_mode_seed_squeezes_to_subtracted_state(m):
    lam = 0.9
    spec = SpatsvSpec(lam, m)
    seed = reference.spatsv_seed(spec)
    padded = np.zeros(200, dtype=complex)
    padded[: len(seed.amplitudes)] = seed.amplitudes
    squeezed = two_mode_squeeze_apply(fock.TwoModeDiagonalState(padded), spec.r)
    target = fock.subtracted(spec, cutoff=200)
    assert fidelity(squeezed, target) > 1 - 1e-12


def test_two_mode_seed_m1_amplitudes():
    # at lam = 1 the single-subtraction seed is sqrt(2/3)|0,0> + sqrt(1/3)|1,1>
    seed = reference.spatsv_seed(SpatsvSpec(1.0, 1))
    assert np.allclose(
        np.abs(seed.amplitudes), [np.sqrt(2 / 3), np.sqrt(1 / 3)], atol=1e-12
    )


@pytest.mark.parametrize("lam", [1e-300, 1e-100, 1e-40])
@pytest.mark.parametrize("m", range(1, 9))
def test_single_seed_tends_to_one_fock_level_as_lam_vanishes(lam, m):
    # the weights z^l, z = sqrt((1 + lam)/lam)/2, are finite, but their norm
    # overflowed and normalizing gave an all-zero seed
    amps = reference.passv_seed(PassvSpec(lam, m)).amplitudes
    want = np.zeros(m + 1)
    want[m % 2] = 1.0
    assert abs(np.linalg.norm(amps) - 1.0) < 1e-15
    assert np.max(np.abs(np.abs(amps) - want)) < 1e-15


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("m", range(7))
def test_single_seed_weights_are_z_to_the_l(lam, m):
    # |m - 2l> weighs z^l/(l! sqrt((m - 2l)!)), z = sqrt((1 + lam)/lam)/2
    z = 0.5 * np.sqrt((1.0 + lam) / lam)
    want = np.zeros(m + 1, dtype=complex)
    for l in range(m // 2 + 1):
        want[m - 2 * l] = z**l / (factorial(l) * np.sqrt(factorial(m - 2 * l)))
    want /= np.linalg.norm(want)
    got = reference.passv_seed(PassvSpec(lam, m)).amplitudes
    assert np.max(np.abs(got - want)) < 1e-15


def test_single_seed_rejects_zero_energy():
    with pytest.raises(OutOfRange):
        reference.passv_seed(PassvSpec(0.0, 2))


def test_balance_energy_round_trip():
    for spec in (PassvSpec, SpatsvSpec):
        for m in range(1, 6):
            for target in (1.5, 7.5, 60.0, 1e3):
                lam0 = states.balance_energy(target, m, spec.modes)
                assert abs(spec(lam0, m).mean_photons - target) < 1e-12 * target


def test_balance_energy_below_infimum():
    # odd-m single-mode subtracted states carry at least one photon
    with pytest.raises(OutOfRange):
        states.balance_energy(0.5, 1, 1)


@pytest.mark.parametrize("spec", [PassvSpec, SpatsvSpec])
def test_a_non_finite_balancing_target_is_a_value_error(spec):
    # a finite target below the infimum, negative ones too, is out of range;
    # inf and nan are no targets at all (inf raised OverflowError before)
    for target in (inf, -inf, float("nan")):
        with pytest.raises(ValueError, match="target_lam must be finite"):
            states.balance_energy(target, 1, spec.modes)
    with pytest.raises(OutOfRange):
        states.balance_energy(-1.0, 1, spec.modes)


@pytest.mark.parametrize("modes", [0, 3, "single", "two_mode", None])
def test_balancing_refuses_a_mode_count_no_spec_has(modes):
    # the spec's mode count is the one scheme key: no kind string names a map
    with pytest.raises(ValueError, match="unknown mode count"):
        states.balance_energy(2.0, 1, modes)


@pytest.mark.parametrize("m", [1.5, None, float("nan"), inf])
@pytest.mark.parametrize("call", [
    lambda m: PassvSpec(0.5, m).mean_photons,
    lambda m: SpatsvSpec(0.5, m).mean_photons,
    lambda m: states.balance_energy(2.0, m, 1),
    lambda m: states.balance_energy(2.0, m, 2),
], ids=["passv_mean_photons", "spatsv_mean_photons", "balance_passv", "balance_spatsv"])
def test_a_mean_photon_map_of_a_bad_order_is_a_value_error(call, m):
    # the rule of the moment tables: before, each raised a bare TypeError
    with pytest.raises(ValueError, match="m must be a nonnegative integer"):
        call(m)


def _balancing_problems():
    """(target, m, modes) over m 1-5, both maps, targets log-spread over
    1e-3 .. 1e3; odd-m PASSV only above its infimum of one photon."""
    for target in np.logspace(-3, 3, 25):
        for m in range(1, 6):
            yield float(target), m, 2
            if m % 2 == 0 or target > 1:
                yield float(target), m, 1


#: (target, m, modes) at the edges: just above an infimum, below 1e-14, at
#: the extremes of the float range and where the root is exactly 0
_EDGE_PROBLEMS = [
    (1 + 2**-50, 1, 1), (1 + 2**-50, 3, 1), (1 + 2**-52, 5, 1),
    (1e-15, 2, 1), (1e-15, 2, 2), (1e-300, 4, 1),
    (1e-300, 3, 2), (5e-324, 1, 2), (1e16, 3, 1),
    (1e17, 4, 2), (1e200, 2, 1), (1e200, 5, 2),
    (1.7e308, 1, 2), (1.0, 1, 1), (0.0, 2, 1), (0.0, 3, 2),
]


def _midpoint(x: float, direction: float) -> Fraction:
    return (Fraction(x) + Fraction(nextafter(x, direction))) / 2


@pytest.mark.parametrize("problems", ["grid", "edges"])
def test_balancing_roots_are_correctly_rounded(problems):
    # the exact map crosses the target between the midpoints around the root
    cases = list(_balancing_problems()) if problems == "grid" else _EDGE_PROBLEMS
    for target, m, modes in cases:
        root = states.balance_energy(target, m, modes)
        assert reference.mean_photons_exact(modes, _midpoint(root, inf), m) >= target
        if root > 0:  # no lam < 0 competes with a root of 0
            assert reference.mean_photons_exact(modes, _midpoint(root, 0.0), m) < target


def test_a_target_just_above_the_infimum_has_a_positive_root():
    # a tolerance on the map's value at 0 once returned 0 for every target
    # within 1e-14 of it: 1 + 2^-50 then fell below the odd-m infimum
    assert states.balance_energy(1 + 2**-50, 1, 1) == 2.0**-50 / 3
    # the m = 2 pair map is 9 lam (1 + O(lam)) near 0
    assert states.balance_energy(1e-15, 2, 2) == pytest.approx(1e-15 / 9, rel=1e-14, abs=0)
    rows = run_sweep(SweepConfig(scheme="single", axis="lam", values=(1 + 2**-50,), m_list=(1,),
                                 metrics=("snl", "qfi"), balanced=True)).rows
    assert [row.flag for row in rows] == ["ok", "ok"]


def _exact_evaluations(monkeypatch) -> list:
    """The points lam = n 2^-shift at which the maps are evaluated exactly."""
    points, at = [], states._at

    def counted(pq, n, shift):
        points.append(Fraction(n, 1 << shift))
        return at(pq, n, shift)

    monkeypatch.setattr(states, "_at", counted)
    return points


def test_balancing_bounds_its_exact_evaluations(monkeypatch):
    points = _exact_evaluations(monkeypatch)
    counts = []
    for problem in list(_balancing_problems()) + _EDGE_PROBLEMS:
        states._balance_root.cache_clear()
        del points[:]
        states.balance_energy(*problem)
        counts.append(len(points))
        # one on the Newton estimate, four neighbour steps, 63 bisection steps
        assert len(points) <= 1 + 4 + 63, problem
    # the Newton estimate is within a float of the root: the residual there,
    # then the two midpoints around it
    assert max(counts[: len(list(_balancing_problems()))]) == 3


@pytest.mark.parametrize("spec", [PassvSpec, SpatsvSpec])
def test_balancing_evaluates_the_mean_photon_map_once_per_point(monkeypatch, spec):
    # the root reads the exact map, never the rounded public one, and no
    # point twice
    points = _exact_evaluations(monkeypatch)
    monkeypatch.setattr(states._SubtractionSpec, "mean_photons",
                        property(lambda self: pytest.fail("rounded map read")))
    states.balance_energy(7.5, 2, spec.modes)
    assert 2 <= len(points) <= 3
    assert len(points) == len(set(points))


@given(lam=st.floats(min_value=1e-3, max_value=50.0), m=st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_mean_photons_dominate_pre_subtraction_energy(lam, m):
    # subtraction never lowers the mean energy of a squeezed vacuum
    assert PassvSpec(lam, m).mean_photons >= lam - 1e-12


@given(lam=st.floats(min_value=1e-3, max_value=20.0), m=st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_balance_round_trip_property(lam, m):
    target = PassvSpec(lam, m).mean_photons
    lam0 = states.balance_energy(target, m, 1)
    assert abs(lam0 - lam) < 1e-7 * max(1.0, lam)


@pytest.mark.parametrize(
    "spec", [PassvSpec(1.0, 3), PassvSpec(1.0, 5), SpatsvSpec(1.0, 3), SpatsvSpec(1.0, 5)]
)
def test_default_cutoff_keeps_the_subtracted_tail_contract(spec):
    # subtraction weighs level n by n!/(n-m)! (squared for the twin beam), so
    # a cutoff sized before subtraction leaves tails of 4.7e-9 to 3.4e-5 here
    kept = fock.subtracted(spec).amplitudes
    wide = fock.subtracted(spec, cutoff=600).amplitudes
    tail = 1.0 - float(np.sum(np.abs(wide[: len(kept)]) ** 2))
    assert tail < fock.TAIL_TOL


def _levels(state) -> np.ndarray:
    return state.amplitudes


#: name -> build(mean photons, m, cutoff) of every state the oracle is fed
_BUILDS = {
    "coherent": lambda mu, m, cut=None: coherent_state(np.sqrt(mu) * np.exp(0.6j), cut),
    "squeezed": lambda lam, m, cut=None: fock.squeezed_vacuum(PassvSpec(lam).r, cut),
    "two_mode_squeezed": lambda lam, m, cut=None: fock.two_mode_squeezed_vacuum(lam, cut),
    "passv": lambda lam, m, cut=None: fock.subtracted(PassvSpec(lam, m), cut),
    "spatsv": lambda lam, m, cut=None: fock.subtracted(SpatsvSpec(lam, m), cut),
}


@pytest.mark.parametrize("energy", [0.3, 2.0, 8.0])
@pytest.mark.parametrize(
    "name, m",
    [("coherent", 0), ("squeezed", 0), ("two_mode_squeezed", 0)]
    + [(name, m) for name in ("passv", "spatsv") for m in (0, 1, 3)],
)
def test_default_cutoff_is_the_least_level_of_the_tail_contract_plus_margin(name, m, energy):
    # against a build twice as wide (given cutoffs bound the state before
    # subtraction): the kept levels leave a tail mass below TAIL_TOL, and for
    # a subtracted state an n^4-weighted tail below TAIL_TOL E[n^4], even
    # without their last CUTOFF_MARGIN levels, and without one more they do not
    build = _BUILDS[name]
    kept = _levels(build(energy, m))
    wide = _levels(build(energy, m, 2 * len(kept) + m))
    mass = np.abs(wide) ** 2
    tails = np.cumsum(mass[::-1])[::-1]  # tails[n]: the mass of levels >= n
    fourth = np.arange(len(wide), dtype=float) ** 4 * mass
    tails4 = np.cumsum(fourth[::-1])[::-1]  # and their n^4-weighted mass
    weighted = name in ("passv", "spatsv")

    def contract(n):
        return tails[n] < fock.TAIL_TOL and (
            not weighted or tails4[n] < fock.TAIL_TOL * tails4[0])

    assert contract(len(kept) - fock.CUTOFF_MARGIN)
    assert not contract(len(kept) - fock.CUTOFF_MARGIN - 1)
    assert np.max(np.abs(kept - wide[: len(kept)])) < 1e-11


@pytest.mark.parametrize("lam", [0.3, 2.0])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name, parent", [("passv", "squeezed"), ("spatsv", "two_mode_squeezed")])
def test_an_explicit_cutoff_bounds_the_state_before_subtraction(name, parent, m, lam):
    # the parent's default cutoff C leaves C + 1 - m levels after subtraction;
    # below its least level of the tail contract the parent's tail raises
    cutoff = _levels(_BUILDS[parent](lam, 0)).size - 1
    assert len(_levels(_BUILDS[name](lam, m, cutoff))) == cutoff + 1 - m
    least = cutoff - fock.CUTOFF_MARGIN
    assert len(_levels(_BUILDS[name](lam, m, least))) == least + 1 - m
    with pytest.raises(CutoffTooSmall):
        _BUILDS[name](lam, m, least - 1)


@pytest.mark.parametrize("energy", [0.3, 2.0])
@pytest.mark.parametrize("name", ["coherent", "squeezed", "two_mode_squeezed"])
def test_a_cutoff_below_the_tail_contract_raises(name, energy):
    least = len(_levels(_BUILDS[name](energy, 0))) - 1 - fock.CUTOFF_MARGIN
    assert len(_levels(_BUILDS[name](energy, 0, least))) == least + 1
    with pytest.raises(CutoffTooSmall):
        _BUILDS[name](energy, 0, least - 1)


@pytest.mark.parametrize("lam", [1e-30, 0.3])
@pytest.mark.parametrize("spec", [PassvSpec, SpatsvSpec])
def test_an_explicit_cutoff_below_m_is_too_small_at_any_lam(spec, lam):
    # such a cutoff holds no level of the subtracted state; at lam = 1e-30 the
    # parent fits in it, so its tail check cannot be what refuses it
    with pytest.raises(CutoffTooSmall, match="holds no level" if lam < 0.1 else None):
        fock.subtracted(spec(lam, 2), cutoff=1)


@pytest.mark.parametrize("ambient", [8, 30])
def test_default_cutoff_ignores_the_ambient_mpmath_precision(ambient):
    # the cutoff weighs the tail against <a^dag^m a^m>: at 8 ambient digits
    # that moment, once read at the caller's precision, cut 32 levels to 26
    for spec in (PassvSpec(0.1, 2), SpatsvSpec(0.7, 3)):
        want = fock.subtracted(spec).amplitudes
        with mp.workdps(ambient):
            got = fock.subtracted(spec).amplitudes
        assert got.shape == want.shape and np.array_equal(got, want), spec


@pytest.mark.parametrize("spec", [PassvSpec(0.0, 2), SpatsvSpec(0.0, 1)])
def test_default_cutoff_of_a_null_subtraction_raises(spec):
    with pytest.raises(NullState):
        fock.subtracted(spec)


@pytest.mark.parametrize("build, spec", [
    (fock.subtracted, PassvSpec(1.0, 150)),
    (fock.subtracted, PassvSpec(50.0, 150)),
    (fock.subtracted, SpatsvSpec(0.5, 150)),
    (fock.subtracted, SpatsvSpec(1e-9, 50)),
    (lambda spec: fock.subtracted(spec, 60), SpatsvSpec(1e-9, 50)),
    (reference.passv_seed, PassvSpec(1.0, 171)),
    (reference.passv_seed, PassvSpec(1e-9, 200)),
    (reference.spatsv_seed, SpatsvSpec(1e-9, 200)),
], ids=["passv-1-150", "passv-50-150", "spatsv-0.5-150", "spatsv-1e-9-50",
        "spatsv-1e-9-50-cutoff-60", "seed-1-171", "seed-1e-9-200", "pair-seed-1e-9-200"])
def test_a_large_order_builds_a_unit_norm_state(build, spec):
    # (n + m)!/n! and (m - 2l)! pass the float range from m = 171 on, and the
    # subtracted norm from m of about 130 at lam = 1; at lam = 1e-9 the unscaled
    # lowered levels lie near 1e-160, whose squares are subnormal
    amplitudes = build(spec).amplitudes
    assert np.isfinite(amplitudes).all()
    assert abs(np.linalg.norm(amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("spec", [PassvSpec(1e-9, 150), SpatsvSpec(1e-3, 200)])
def test_a_state_past_the_float_range_is_refused(spec):
    # the squeezed parent's float amplitudes underflow where the state lives
    with pytest.raises(OutOfRange):
        fock.subtracted(spec)


@pytest.mark.parametrize("n, m, modes", [(0, 5, 1), (7, 3, 2), (40, 100, 1), (10, 150, 2)])
def test_the_falling_factor_is_the_float_of_today_where_it_fits(n, m, modes):
    # every level of a run, stepped from the last, and a restart at level 0
    lowered, shifted = (fock._lowered(lambda _: 1.0, m, modes, shift) for shift in (0, 7))
    for k in [*range(n + 1), 0]:
        want = float(factorial(k + m) // factorial(k)) ** (modes / 2)
        assert lowered(k) == want
        assert shifted(k) == want / 128


def test_the_cli_compares_a_large_order_without_a_traceback(tmp_path, capsys):
    config = tmp_path / "large.cfg"
    config.write_text("scheme = single\nlam = 1\nm = 150\nmu = 1\nphi = 0.7\n")
    assert main(["oracle-compare", "--config", str(config)]) in (0, 2)
    assert "Traceback" not in capsys.readouterr().err
