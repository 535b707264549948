"""Truncated-Fock state construction and the brute-force interferometer oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photsub import fock
from photsub.errors import MemoryBoundExceeded, ModeMismatch, NullState
from reference import fidelity, mean_photons_per_mode, squeeze_apply


def test_coherent_state_mean_and_norm():
    state = fock.coherent_state(np.sqrt(3.0))
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
    assert abs(state.mean_photons() - 3.0) < 1e-10


def test_squeezed_vacuum_mean_photons():
    lam = 1.7
    r = float(np.arcsinh(np.sqrt(lam)))
    state = fock.squeezed_vacuum(r)
    assert abs(state.mean_photons() - lam) < 1e-10
    # only even Fock components
    assert np.allclose(state.amplitudes[1::2], 0.0)


def test_squeezed_vacuum_quadrature_direction():
    # chi = 0 squeezes the Y = (a - a^dag)/(i sqrt 2) quadrature
    r = 0.6
    state = fock.squeezed_vacuum(r)
    a = state.amplitudes
    n = np.arange(len(a))
    mean_n = float(np.sum(n * np.abs(a) ** 2))
    a_sq = float(np.real(np.sum(np.conj(a[:-2]) * a[2:] * np.sqrt((n[2:] - 1) * n[2:]))))
    var_y = 0.5 + mean_n - a_sq
    assert abs(var_y - 0.5 * np.exp(-2 * r)) < 1e-10


def test_two_mode_squeezed_vacuum_thermal_marginal():
    lam = 0.8
    state = fock.two_mode_squeezed_vacuum(lam)
    p = np.abs(state.diag_amplitudes) ** 2
    ratio = p[1:] / p[:-1]
    assert np.allclose(ratio, lam / (1.0 + lam), atol=1e-12)
    assert abs(mean_photons_per_mode(state) - lam) < 1e-10


def test_subtract_photons_from_vacuum_raises():
    vac = fock.FockState1(np.array([1.0 + 0j]))
    with pytest.raises(NullState):
        fock.subtract_photons(vac, 1)


def test_subtraction_norm_matches_factorial_moment():
    lam = 1.0
    r = float(np.arcsinh(np.sqrt(lam)))
    ssv = fock.squeezed_vacuum(r, cutoff=400)
    _, norm = fock.subtract_photons(ssv, 2)
    # norm^2 = <a^dag^2 a^2> = <n(n-1)> of the squeezed vacuum = lam(3 lam + 1)
    assert abs(norm**2 - lam * (3 * lam + 1)) < 1e-9


def test_squeeze_apply_matches_direct_construction():
    r = 0.9
    dim = 120
    vac = fock.FockState1(np.zeros(dim, dtype=complex) + 0j)
    amps = vac.amplitudes.copy()
    amps[0] = 1.0
    out = squeeze_apply(fock.FockState1(amps), r, 0.0)
    direct = fock.squeezed_vacuum(r)
    assert fidelity(out, direct) > 1 - 1e-12


@given(
    eta1=st.floats(min_value=0.1, max_value=1.0),
    eta2=st.floats(min_value=0.1, max_value=1.0),
)
@settings(max_examples=25, deadline=None)
def test_thinning_composes(eta1, eta2):
    p = np.abs(fock.coherent_state(1.3, cutoff=25).amplitudes) ** 2
    p = p.reshape(-1, 1)
    once = fock.binomial_thinning(
        fock.binomial_thinning(p, eta1, axis=0), eta2, axis=0
    )
    both = fock.binomial_thinning(p, eta1 * eta2, axis=0)
    assert np.allclose(once, both, atol=1e-12)


def test_thinning_preserves_poisson():
    # a thinned Poisson distribution stays Poisson with scaled mean
    mu, eta = 2.0, 0.65
    p = np.abs(fock.coherent_state(np.sqrt(mu), cutoff=40).amplitudes) ** 2
    thinned = fock.binomial_thinning(p.reshape(-1, 1), eta, axis=0).ravel()
    target = np.abs(fock.coherent_state(np.sqrt(eta * mu), cutoff=40).amplitudes) ** 2
    assert np.allclose(thinned[:30], target[:30], atol=1e-10)


def _single_scene(lam, m, mu, phi, eta=1.0, psi=0.0, loss="thinning"):
    from photsub import states

    q = states.passv(states.PassvSpec(lam, m))
    return fock.OracleScene(
        kind="single", quantum=q, mu=mu, psi=psi, phi1=phi, eta=eta, loss=loss
    )


def test_oracle_single_conserves_photons():
    res = fock.oracle_interferometer(_single_scene(0.5, 0, 2.0, 0.8))
    assert abs(res.total_mean_photons - 2.5) < 1e-9


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
    anc = fock.oracle_interferometer(_single_scene(lam, 1, mu, phi, eta=eta, loss="ancilla"))
    thin = fock.oracle_interferometer(_single_scene(lam, 1, mu, phi, eta=eta))
    for key, val in thin.moments.items():
        assert abs(anc.moments[key] - val) <= 1e-9 * max(1.0, abs(val))


def test_oracle_correlated_port_means():
    from photsub import states

    mu, lam, phi, eta = 2.0, 0.3, 0.7, 0.9
    q = states.spatsv(states.SpatsvSpec(lam, 0))
    scene = fock.OracleScene(
        kind="correlated", quantum=q, mu=mu, psi=0.3, phi1=phi, phi2=phi, eta=eta
    )
    res = fock.oracle_interferometer(scene)
    tau = np.cos(phi / 2) ** 2
    expected = eta * ((1 - tau) * mu + tau * lam)
    assert abs(res.moments[(1, 0)] - expected) < 1e-7
    assert abs(res.moments[(0, 1)] - expected) < 1e-7


def test_oracle_rejects_wrong_state_kind():
    from photsub import states

    q = states.spatsv(states.SpatsvSpec(0.3, 0))
    scene = fock.OracleScene(kind="single", quantum=q, mu=1.0, psi=0.0, phi1=0.5)
    with pytest.raises(ModeMismatch):
        fock.oracle_interferometer(scene)


def test_oracle_memory_bound():
    from photsub import states

    q = states.spatsv(states.SpatsvSpec(0.3, 0))
    scene = fock.OracleScene(
        kind="correlated", quantum=q, mu=9.0, psi=0.0, phi1=0.5, phi2=0.5,
        max_amplitudes=10_000,
    )
    with pytest.raises(MemoryBoundExceeded):
        fock.oracle_interferometer(scene)
