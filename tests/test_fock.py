"""Truncated-Fock state construction and the brute-force interferometer oracle."""

import tracemalloc
from dataclasses import replace
from math import sinh

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photsub import experiments, fock, metrology
from photsub.errors import CutoffTooSmall, MemoryBoundExceeded, NullState
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec
from reference import (
    ancilla_joint,
    apply_dense_two_mode_unitary,
    apply_on_axes,
    binomial_thinning,
    coherent_state,
    fidelity,
    log_factorials,
    loss_unitary,
    mean_photons,
    mean_photons_per_mode,
    oracle_output,
    photon_blocks,
    readout_joint,
    squeeze_apply,
)


def test_coherent_state_mean_and_norm():
    state = coherent_state(np.sqrt(3.0))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert abs(mean_photons(state) - 3.0) < 1e-10


def test_squeezed_vacuum_mean_photons():
    lam = 1.7
    r = float(np.arcsinh(np.sqrt(lam)))
    state = fock.squeezed_vacuum(r)
    assert abs(mean_photons(state) - lam) < 1e-10
    # only even Fock components
    assert np.allclose(state.amplitudes[1::2], 0.0)


def test_squeezed_vacuum_quadrature_direction():
    # S(r) squeezes the Y = (a - a^dag)/(i sqrt 2) quadrature
    r = 0.6
    state = fock.squeezed_vacuum(r)
    a = state.amplitudes
    n = np.arange(len(a))
    mean_n = float(np.sum(n * np.abs(a) ** 2))
    a_sq = float(np.real(np.sum(np.conj(a[:-2]) * a[2:] * np.sqrt((n[2:] - 1) * n[2:]))))
    var_y = 0.5 + mean_n - a_sq
    assert abs(var_y - 0.5 * np.exp(-2 * r)) < 1e-10


def _counted_amplitudes(monkeypatch, name) -> list:
    """Count the amplitude calls of the states ``fock.name`` builds."""
    calls, build = [], getattr(fock, name)

    def counted(*args):
        amplitude, floor = build(*args)
        return (lambda n: calls.append(n) or amplitude(n)), floor

    monkeypatch.setattr(fock, name, counted)
    return calls


@pytest.mark.parametrize("build, arg, name", [
    (fock.squeezed_vacuum, 6.0, "_squeezed"),
    (fock.squeezed_vacuum, 6.1, "_squeezed"),
    (fock.squeezed_vacuum, 7.0, "_squeezed"),
    (fock.two_mode_squeezed_vacuum, 3e5, "_two_mode_squeezed"),
    (lambda lam: fock.subtracted(PassvSpec(lam, 0)), sinh(6.0) ** 2, "_squeezed"),
    (lambda lam: fock.subtracted(PassvSpec(lam, 2)), sinh(6.0) ** 2, "_squeezed"),
    (lambda lam: fock.subtracted(SpatsvSpec(lam, 0)), 2e5, "_two_mode_squeezed"),
    (lambda lam: fock.subtracted(SpatsvSpec(lam, 1)), 2e5, "_two_mode_squeezed"),
])
def test_a_tail_past_the_level_limit_is_refused_before_any_fill(monkeypatch, build, arg, name):
    # mean photons below the 10^6-level limit, but a tail past it: refused
    # before any amplitude is formed, where it took ~1 s of filling to refuse
    # (r = 6 and 6.1 leave tails of 7.1e-7 and 7.3e-6, about cosh^2 r times
    # the mass of their first level past the limit); a subtracted state's
    # default fill reads its parent's floor from level n + m on
    calls = _counted_amplitudes(monkeypatch, name)
    with pytest.raises(CutoffTooSmall):
        build(arg)
    assert calls == []


@pytest.mark.parametrize("build, arg", [
    *(pytest.param(lambda r, cutoff=None: fock.squeezed_vacuum(r, cutoff), r, id=str(r))
      for r in [0.05, 0.3, 1.0, 2.0, 3.0, 4.0, 5.0]),
    *(pytest.param(fock.subtracted, PassvSpec(lam, m), id=f"passv-{lam}-{m}")
      for lam, m in [(0.3, 1), (2.0, 3), (20.0, 2)]),
    *(pytest.param(fock.subtracted, SpatsvSpec(lam, m), id=f"spatsv-{lam}-{m}")
      for lam, m in [(0.3, 1), (2.0, 3), (20.0, 2)]),
])
def test_the_squeezed_vacuums_early_floor_lies_below_its_tail(monkeypatch, build, arg):
    # the early check refuses only what the fill refuses: its floor on the
    # mass from level n on lies below that mass, summed level by level; a
    # subtracted state's is its parent's from n + m on, as a^m tilts the
    # parent's counts by a weight that grows with the level
    floors, filled = [], fock._filled
    monkeypatch.setattr(fock, "_filled", lambda *args: floors.append(args[3]) or filled(*args))
    masses = np.abs(build(arg, 2 * build(arg).cutoff).amplitudes) ** 2
    tails = np.cumsum(masses[::-1])[::-1]  # the mass from level n on, within the sum's reach
    levels = sorted({int(n) for n in np.geomspace(1, len(masses) // 2, 40)})
    assert all(floors[0](n) <= tails[n] for n in levels)


def test_a_tail_below_the_level_limit_still_fills():
    # the early refusal refuses only what the fill would refuse: r = 5 keeps
    # its default cutoff, and its tail contract at an explicit cutoff
    assert fock.squeezed_vacuum(5.0).cutoff == 281_459
    assert fock.two_mode_squeezed_vacuum(1e3).cutoff == len(
        fock._filled(fock._two_mode_squeezed(1e3)[0])) - 1
    with pytest.raises(CutoffTooSmall):
        fock.two_mode_squeezed_vacuum(1e3, cutoff=20_000)


def test_two_mode_squeezed_vacuum_thermal_marginal():
    lam = 0.8
    state = fock.two_mode_squeezed_vacuum(lam)
    p = np.abs(state.amplitudes) ** 2
    ratio = p[1:] / p[:-1]
    assert np.allclose(ratio, lam / (1.0 + lam), atol=1e-12)
    assert abs(mean_photons_per_mode(state) - lam) < 1e-10


def test_subtract_photons_from_vacuum_raises():
    with pytest.raises(NullState):
        fock.subtracted(PassvSpec(0.0, 1), cutoff=5)


def test_subtraction_norm_matches_factorial_moment():
    lam = 1.0
    r = float(np.arcsinh(np.sqrt(lam)))
    ssv = fock.squeezed_vacuum(r, cutoff=400)
    lowered = fock._lowered(ssv.amplitudes.__getitem__, 2, 1)
    norm2 = sum(abs(lowered(n)) ** 2 for n in range(ssv.cutoff - 1))
    # norm^2 = <a^dag^2 a^2> = <n(n-1)> of the squeezed vacuum = lam(3 lam + 1)
    assert abs(norm2 - lam * (3 * lam + 1)) < 1e-9


def test_squeeze_apply_matches_direct_construction():
    r = 0.9
    dim = 120
    vac = fock.FockState1(np.zeros(dim, dtype=complex) + 0j)
    amps = vac.amplitudes.copy()
    amps[0] = 1.0
    out = squeeze_apply(fock.FockState1(amps), r)
    direct = fock.squeezed_vacuum(r)
    assert fidelity(out, direct) > 1 - 1e-12


@given(
    eta1=st.floats(min_value=0.1, max_value=1.0),
    eta2=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_thinning_composes(eta1, eta2):
    p = np.abs(coherent_state(1.3, cutoff=25).amplitudes) ** 2
    p = p.reshape(-1, 1)
    once = binomial_thinning(
        binomial_thinning(p, eta1, axis=0), eta2, axis=0
    )
    both = binomial_thinning(p, eta1 * eta2, axis=0)
    assert np.allclose(once, both, atol=1e-12)


def test_thinning_preserves_poisson():
    # a thinned Poisson distribution stays Poisson with scaled mean
    mu, eta = 2.0, 0.65
    p = np.abs(coherent_state(np.sqrt(mu), cutoff=40).amplitudes) ** 2
    thinned = binomial_thinning(p.reshape(-1, 1), eta, axis=0).ravel()
    target = np.abs(coherent_state(np.sqrt(eta * mu), cutoff=40).amplitudes) ** 2
    assert np.allclose(thinned[:30], target[:30], atol=1e-10)


@pytest.mark.parametrize(
    "dim, eta", [(80, 0.1), (80, 0.5), (80, 0.93), (160, 0.0), (160, 1e-6), (160, 0.999)]
)
def test_thinning_matrix_is_the_binomial_pmf(dim, eta):
    # thinning the point mass at n gives column n: C(n, k) eta^k (1 - eta)^(n - k); at dim
    # 160, (1 - eta)^(n - k) (eta = 0.999) or eta^k (1e-6) underflows where the entry does not
    mat = binomial_thinning(np.eye(dim), eta, axis=0)
    with mp.workdps(30):
        e = mp.mpf(eta)
        exact = np.array(
            [[float(mp.binomial(n, k) * e**k * (1 - e) ** (n - k)) if k <= n else 0.0
              for n in range(dim)] for k in range(dim)]
        )
    assert np.all(mat[exact == 0.0] == 0.0)
    big = exact > 1e-300
    assert np.max(np.abs(mat[big] / exact[big] - 1.0)) < 1e-12


@pytest.mark.parametrize("eta", [0.1, 0.5, 0.93])
def test_thinning_keeps_probability_and_scales_the_mean(eta):
    n = np.arange(80)
    p = np.random.default_rng(5).random(80)
    p /= p.sum()
    thinned = binomial_thinning(p, eta, axis=0)
    assert abs(thinned.sum() - 1.0) < 1e-14
    assert abs(n @ thinned - eta * (n @ p)) < 1e-14 * (n @ p)


@pytest.mark.parametrize("mu, psi", [(0.3, 0.0), (2.0, 1.1), (10.0, -2.5)])
def test_coherent_amplitudes_match_high_precision(mu, psi):
    state = coherent_state(np.sqrt(mu) * np.exp(1j * psi))
    with mp.workdps(50):
        alpha = mp.sqrt(mu) * mp.expj(psi)
        exact = [mp.exp(-mp.mpf(mu) / 2) * alpha**n / mp.sqrt(mp.factorial(n))
                 for n in range(len(state.amplitudes))]
        exact = np.array([complex(a) for a in exact])
    assert np.max(np.abs(state.amplitudes / exact - 1.0)) < 1e-13


@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("two_mode", [False, True])
def test_subtraction_ladder_matches_high_precision(m, two_mode):
    # a^m |n> = sqrt(n!/(n-m)!) |n-m>, once per mode of a twin beam
    dim = 60
    lowered = fock._lowered(lambda n: 1.0 + 0j, m, 2 if two_mode else 1)
    ladder = np.array([lowered(n) for n in range(dim - m)])
    with mp.workdps(50):
        exact = [mp.factorial(n) / mp.factorial(n - m) for n in range(m, dim)]
        exact = np.array([float(x if two_mode else mp.sqrt(x)) for x in exact])
    assert np.max(np.abs(ladder.real / exact - 1.0)) < 1e-13


@pytest.mark.parametrize("x", [0.3, 10.0, 30.0])
def test_displacement_matches_the_laguerre_closed_form(x):
    # <m|D(beta)|n> = sqrt(lo!/hi!) z^(hi - lo) e^(-x/2) L_lo^(hi - lo)(x), x = |beta|^2,
    # with z = beta below the diagonal and -conj(beta) above it
    dim = 300
    beta = np.sqrt(x) * np.exp(0.7j)
    # the real plane of x between the phases e^(0.7i m) and e^(-0.7i n)
    turn = np.exp(0.7j * np.subtract.outer(np.arange(dim), np.arange(dim)))
    disp = turn * fock._displacements([x], log_factorials(dim), dim)[0]
    rng = np.random.default_rng(int(10 * x))
    rows = rng.integers(0, dim, 150)
    cols = np.clip(rows + rng.integers(-60, 61, 150), 0, dim - 1)
    worst = 0.0
    with mp.workdps(50):
        b = mp.mpc(beta.real, beta.imag)
        for m, n in zip(rows.tolist(), cols.tolist()):
            lo, hi = min(m, n), max(m, n)
            z = b if m >= n else -mp.conj(b)
            exact = (mp.sqrt(mp.factorial(lo) / mp.factorial(hi)) * z ** (hi - lo)
                     * mp.exp(-abs(b) ** 2 / 2) * mp.laguerre(lo, hi - lo, abs(b) ** 2))
            worst = max(worst, abs(complex(exact) - disp[m, n]))
    assert worst <= 2e-13


def test_displacement_by_zero_is_exactly_the_identity():
    disp = fock._displacements(np.abs([0.0, 0j]) ** 2, log_factorials(40), 25)
    assert np.array_equal(disp, np.broadcast_to(np.eye(40, 25), disp.shape))


def test_displacement_columns_stay_unit_vectors_at_large_displacement():
    # at x = 1500, e^(-x/2) underflows and x^(a/2) / sqrt(a!) overflows on its own
    turn = np.exp(0.3j * np.subtract.outer(np.arange(1900), np.arange(3)))
    disp = turn * fock._displacements([1500.0], log_factorials(1900), 3)[0]
    assert np.abs(np.linalg.norm(disp, axis=0) - 1.0).max() < 1e-12


@pytest.mark.parametrize("modulus, angle", [(0.5, 0.0), (1.7, 2.1), (3.2, -0.4)])
def test_displacement_column_zero_is_the_coherent_state(modulus, angle):
    beta = modulus * np.exp(1j * angle)
    plane = fock._displacements([modulus**2], log_factorials(80), 1)[0]
    column = np.exp(1j * angle * np.arange(80)) * plane[:, 0]
    coherent = coherent_state(beta, cutoff=79).amplitudes
    assert np.abs(column - coherent).max() <= 1e-15


def _single_scene(lam, m, mu, phi, eta=1.0, psi=0.0):
    return SingleMziConfig(PassvSpec(lam, m), mu=mu, phi=phi, psi=psi, eta=eta)


def test_oracle_single_conserves_photons():
    res = fock.oracle_interferometer(_single_scene(0.5, 0, 2.0, 0.8))
    assert abs(res.moments[(1, 0)] + res.moments[(0, 1)] - 2.5) < 1e-9


@pytest.mark.parametrize("mu", [0.0, 1e-6, 0.37, 2.0, 7.3, 10.0])
def test_oracle_sizes_the_coherent_port_as_the_coherent_fill(mu):
    # the oracle counts the levels of the real Poisson amplitudes |<n|alpha>|:
    # the count of the complex coherent state's fill, which sets D = nc + nq - 1
    scene = _single_scene(0.5, 1, mu, 0.8, psi=2.3)
    nc = len(coherent_state(np.sqrt(mu) * np.exp(2.3j)).amplitudes)
    cutoff = fock.subtracted(scene.quantum).cutoff
    assert fock.oracle_interferometer(scene).joint.shape == (nc + cutoff,) * 2


def test_oracle_single_difference_mean():
    mu, lam, phi = 3.0, 0.4, 1.1
    res = fock.oracle_interferometer(_single_scene(lam, 0, mu, phi))
    diff = res.moments[(1, 0)] - res.moments[(0, 1)]
    assert abs(diff - (mu - lam) * np.cos(phi)) < 1e-8


def test_oracle_single_loss_scales_means():
    mu, lam, phi, eta = 2.0, 0.4, 0.9, 0.7
    res = fock.oracle_interferometer(_single_scene(lam, 1, mu, phi, eta=eta))
    res0 = fock.oracle_interferometer(_single_scene(lam, 1, mu, phi))
    for key in [(1, 0), (0, 1)]:
        assert abs(res.moments[key] - eta * res0.moments[key]) < 1e-9


def test_oracle_ancilla_equals_thinning_single():
    mu, lam, phi, eta = 1.0, 0.3, 0.8, 0.75
    scene = _single_scene(lam, 1, mu, phi, eta=eta)
    anc = fock._moments_from_joint(ancilla_joint(scene))
    thin = fock.oracle_interferometer(scene)
    for key, val in thin.moments.items():
        assert abs(anc[key] - val) <= 1e-9 * max(1.0, abs(val))


def test_joint_moments_match_the_per_power_sums():
    rng = np.random.default_rng(5)
    joint = rng.random((23, 31))
    joint /= joint.sum()
    got = fock._moments_from_joint(joint)
    assert sorted(got) == [(p, q) for p in range(5) for q in range(5 - p)]
    na, nb = np.arange(23.0), np.arange(31.0)
    for (p, q), value in got.items():
        want = float(na**p @ joint @ nb**q)
        assert abs(value - want) <= 1e-14 * want, (p, q)


def test_oracle_correlated_port_means():
    mu, lam, phi, eta = 2.0, 0.3, 0.7, 0.9
    scene = CorrelatedConfig(SpatsvSpec(lam, 0), mu=mu, psi=0.3, phi=phi, eta=eta)
    res = fock.oracle_interferometer(scene)
    tau = np.cos(phi / 2) ** 2
    expected = eta * ((1 - tau) * mu + tau * lam)
    assert abs(res.moments[(1, 0)] - expected) < 1e-7
    assert abs(res.moments[(0, 1)] - expected) < 1e-7


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "phi, psi",
    [(0.7, 0.3), (2.6, -1.2), (0.7, 0.0), (0.0, 0.0), (0.0, 2.0), (np.pi, -0.3), (np.pi, 2.3)],
)
def test_oracle_correlated_joint_matches_the_output_tensor(m, phi, psi):
    # the Gram matrices' G_nk sum against the twin-MZI tensor over all four axes; at
    # phi = 0 and pi one port's displacement vanishes, and psi turns the phase the
    # oracle moves onto d_n
    scene = CorrelatedConfig(SpatsvSpec(0.1, m), mu=0.5, psi=psi, phi=phi)
    amps = oracle_output(scene)
    for eta in (1.0, 0.85):
        joint = fock.oracle_interferometer(replace(scene, eta=eta)).joint
        assert np.abs(joint - readout_joint(amps, eta)).max() < 1e-13


@pytest.mark.parametrize("chi", [0.5, 1.25, 3.0])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("scheme", ["single", "correlated"])
def test_a_squeezing_angle_is_a_psi_shift(monkeypatch, scheme, m, chi):
    # squeezing at angle chi turns the state by e^{i chi N/2} (a^m moves only its
    # global phase), |n, n> by e^{i chi n}; the interferometers conserve photons, so
    # the turn passes to the coherent beam as psi -> psi - chi/2: the engine at the
    # shifted psi reads the oracle fed the turned state
    spec, config, turn = ((PassvSpec, SingleMziConfig, chi / 2) if scheme == "single" else
                          (SpatsvSpec, CorrelatedConfig, chi))
    subtracted = fock.subtracted

    def turned(spec, cutoff=None):
        state = subtracted(spec, cutoff)
        return type(state)(state.amplitudes * np.exp(1j * turn * np.arange(state.cutoff + 1)))

    scene = dict(mu=1.5, phi=0.7, eta=0.9)
    monkeypatch.setattr(fock, "subtracted", turned)
    oracle = fock.oracle_interferometer(config(spec(0.3, m), psi=0.75, **scene)).moments
    engine = metrology.readout_moments(config(spec(0.3, m), psi=0.75 - chi / 2, **scene))
    for key, value in engine.items():
        assert experiments._rel_err(float(value), oracle[key]) <= experiments.ORACLE_TOLERANCE


@pytest.mark.parametrize("eta", [1.0, 0.85])
@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("phi", [0.9, 0.0, np.pi])
@pytest.mark.parametrize("psi", [0.5, 0.0, 2.3])
def test_oracle_single_joint_is_the_output_plane(m, eta, phi, psi):
    # phi = 0 and pi leave one port undisplaced: the phases moved onto y keep their side
    scene = _single_scene(0.4, m, 2.0, phi, eta=eta, psi=psi)
    joint = fock.oracle_interferometer(scene).joint
    assert np.abs(joint - readout_joint(oracle_output(scene), eta)).max() <= 1e-15


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("mu, phi", [(0.0, 0.8), (2.0, 0.0), (2.0, np.pi)])
def test_oracle_matches_the_engine_where_a_displacement_vanishes(scheme, mu, phi):
    # mu = 0 displaces neither port; phi = 0 and pi leave the coherent light in one port
    cmp = experiments.oracle_compare(scheme, lam=0.4, m=1, mu=mu, phi=phi, psi=0.3, eta=0.9)
    assert cmp.worst <= experiments.ORACLE_TOLERANCE


@pytest.mark.parametrize("scheme", ["single", "correlated"])
def test_oracle_compare_refuses_a_cutoff_below_m_at_any_lam(scheme):
    # no level of the subtracted state fits, however little of the parent's mass it leaves
    for lam in (1e-30, 0.3):
        with pytest.raises(CutoffTooSmall):
            experiments.oracle_compare(scheme, lam=lam, m=2, mu=1.0, phi=0.7, quantum_cutoff=1)


def test_oracle_compare_refuses_a_cutoff_below_m_before_the_engine_runs(monkeypatch):
    # the oracle runs first, so its refusal costs no engine read-out
    def engine(cfg):
        raise AssertionError("the engine ran before the oracle refused")

    monkeypatch.setattr(metrology, "readout_moments", engine)
    with pytest.raises(CutoffTooSmall):
        experiments.oracle_compare("correlated", lam=0.3, m=4, mu=2.0, phi=0.7, quantum_cutoff=2)


def test_oracle_memory_bound(monkeypatch):
    monkeypatch.setattr(fock, "MAX_AMPLITUDES", 10_000)
    scene = CorrelatedConfig(SpatsvSpec(0.3, 0), mu=9.0, psi=0.0, phi=0.5)
    with pytest.raises(MemoryBoundExceeded):
        fock.oracle_interferometer(scene)


@pytest.mark.parametrize("scene, cutoff", [
    (SingleMziConfig(PassvSpec(1e4, 1), mu=1.0, phi=0.5), None),
    (CorrelatedConfig(SpatsvSpec(0.3, 1), mu=1.0, phi=0.5), 400),
], ids=("single-default", "correlated-explicit"))
def test_the_oracle_bounds_its_array_before_it_fills_the_state(monkeypatch, scene, cutoff):
    # nq quantum levels make at least nq^2 (one MZI) or nq^3 (twins) amplitudes,
    # nq past the mean photons or fixed by the cutoff: the oracle refuses on
    # its own, not only behind the comparison harness
    def no_fill(*args, **kwargs):
        raise AssertionError("filled a Fock state")

    monkeypatch.setattr(fock, "_filled", no_fill)
    with pytest.raises(MemoryBoundExceeded):
        fock.oracle_interferometer(scene, cutoff)


@pytest.mark.parametrize("spec", [0.5, SingleMziConfig(PassvSpec(0.5), mu=1.0, phi=0.5)],
                         ids=("float", "config"))
def test_a_spec_refusal_names_the_public_spec_classes(spec):
    with pytest.raises(ValueError, match="spec must be a PassvSpec or SpatsvSpec, got "):
        fock.subtracted(spec)


_MAPS = {
    "mzi": fock.mzi_unitary(0.7),
    "mzi_dark": fock.mzi_unitary(2.9),
    "loss": loss_unitary(0.8),
}


def _held_below(amps, axes, top):
    """``amps`` with every amplitude above photon number ``top`` of ``axes`` zeroed."""
    photons = np.add.outer(np.arange(amps.shape[axes[0]]), np.arange(amps.shape[axes[1]]))
    moved = np.moveaxis(amps, axes, (-2, -1)) * (photons <= top)
    return np.moveaxis(moved, (-2, -1), axes)


def _held_in(amps, axes, c1, c2, twin=False):
    """``amps`` zeroed outside rows <= c1 and columns <= c2 of the ``axes`` plane.

    With ``twin``, plane r of the stack over axis 0 keeps only its column r,
    as the oracle's planes |coherent> (x) |r> of a twin beam.
    """
    d1, d2 = amps.shape[axes[0]], amps.shape[axes[1]]
    moved = np.moveaxis(amps, axes, (-2, -1))
    moved = moved * ((np.arange(d1) <= c1)[:, None] & (np.arange(d2) <= c2))
    if twin:
        moved = moved * (np.arange(d2) == np.arange(len(moved))[:, None])[:, None, :]
    return np.moveaxis(moved, (-2, -1), axes)


_PLANES = [
    ((7, 9), (0, 1)),  # rectangular plane
    ((9, 4), (1, 0)),  # truncating, axes swapped
    ((1, 5), (0, 1)),
    ((6, 1), (0, 1)),
    ((8, 8), (0, 1)),
    ((3, 4, 5, 6), (2, 0)),
    ((4, 5, 6, 3), (1, 3)),
    ((3, 4, 2, 5, 3, 2), (2, 0)),
    ((3, 4, 2, 5, 3, 2), (1, 3)),
]


@pytest.mark.parametrize("u2", _MAPS.values(), ids=_MAPS.keys())
@pytest.mark.parametrize(
    "shape, axes, top, corner",
    # full planes, with pytest's default ids for (shape, axes)
    [pytest.param(*plane, None, None, id=f"shape{i}-axes{i}") for i, plane in enumerate(_PLANES)]
    # inputs that hold at most ``top`` photons, below the plane's d1 + d2 - 2
    + [
        pytest.param((8, 8), (0, 1), 7, None, id="padded-square"),  # as the oracle pads a plane
        pytest.param((9, 4), (1, 0), 6, None, id="truncating-rectangle"),
        pytest.param((3, 4, 2, 5, 3, 2), (1, 3), 4, None, id="stack"),
    ]
    # inputs held in the ``corner`` (c1, c2, twin) of the plane, top = c1 + c2,
    # as the oracle's planes hold |coherent> (x) |quantum>
    + [
        pytest.param((12, 12), (0, 1), 11, (4, 7, False), id="padded-corner"),
        pytest.param((9, 4), (1, 0), 8, (2, 6, False), id="truncating-corner"),
        pytest.param((5, 10, 10), (1, 2), 9, (5, 4, True), id="twin-stack"),
    ],
)
def test_block_propagation_matches_dense_reference(u2, shape, axes, top, corner):
    rng = np.random.default_rng(sum(shape) + 10 * axes[0] + axes[1])
    amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    amps /= np.abs(amps).max()
    if corner is not None:
        amps = _held_in(amps, axes, *corner)
    if top is not None:
        amps = _held_below(amps, axes, top)
    out = apply_on_axes(amps, *axes, u2)
    ref = apply_dense_two_mode_unitary(amps, *axes, u2)
    assert out.shape == amps.shape
    assert np.abs(out - ref).max() < 1e-13
    if top is not None:
        # a passive map keeps photon number: nothing lands above top
        assert np.array_equal(out, _held_below(out, axes, top))


@pytest.mark.parametrize("u2", _MAPS.values(), ids=_MAPS.keys())
def test_photon_blocks_stay_unitary_at_high_photon_number(u2):
    # the dense binomial expansion loses 1e-8 of unitarity by n = 60; the
    # block recurrence must not lose accuracy with n
    worst = 0.0
    for n, (lo, block) in enumerate(photon_blocks(u2, 301, 301)):
        if n in (10, 100, 300):
            assert lo == 0 and block.shape == (n + 1, n + 1)
            worst = max(worst, np.abs(block @ block.conj().T - np.eye(n + 1)).max())
    assert worst < 1e-12


def _traced_peak(scene):
    tracemalloc.start()
    try:
        fock.oracle_interferometer(scene)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_stays_a_small_multiple_of_the_tensor():
    # the single scheme at the oracle's documented limit mu = 10: the
    # displacement identity needs the D x D plane and D x nq displacement
    # matrices, where a dense plane matrix takes D^4 amplitudes (8.3 GB at
    # this D = 151)
    scene = SingleMziConfig(PassvSpec(1.0, 3), mu=10.0, psi=0.0, phi=0.7)
    q = fock.subtracted(scene.quantum)
    dim = len(coherent_state(np.sqrt(10.0)).amplitudes) + len(q.amplitudes) - 1
    assert _traced_peak(scene) <= 10 * dim**2 * 16


def test_correlated_oracle_memory_stays_a_small_multiple_of_the_gram_matrices():
    # one nq x nq Gram matrix per read-out count, D of them: a few copies of
    # those (3.4 x here, about 3.1 x on larger scenes), where the four-axis
    # twin-MZI tensor needs D^4 amplitudes
    scene = CorrelatedConfig(SpatsvSpec(0.2, 1), mu=1.0, psi=0.0, phi=0.7, eta=0.9)
    q = fock.subtracted(scene.quantum)
    rows = len(q.amplitudes)
    dim = len(coherent_state(1.0).amplitudes) + rows - 1
    assert _traced_peak(scene) <= 5 * dim * rows**2 * 16
