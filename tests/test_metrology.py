"""Phase-estimation figures of merit: exact engine and asymptotic closed forms."""

import math
import random
import re

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from photsub import metrology, moments
from photsub.errors import (
    NonPositiveQfi,
    OutOfRange,
    PrecisionInsufficient,
    Singular,
    UnsupportedOrder,
    ZeroMeanPhoton,
)
from photsub.experiments import PRESETS
from photsub.metrology import CorrelatedConfig, SingleMziConfig, phi_for_tau
from photsub.states import PassvSpec, SpatsvSpec
from reference import dark_fringe_uncertainty, quadrature_variance

SQRT2 = np.sqrt(2.0)


def test_phi_for_tau_round_trip():
    for tau in [0.1, 0.5, 0.9, 1.0]:
        phi = phi_for_tau(tau)
        assert abs(np.cos(phi / 2) ** 2 - tau) < 1e-14


def _acos_80_digits(tau: float) -> float:
    """2 acos(sqrt tau), the root correctly rounded, its acos at 80 digits."""
    with mp.workdps(80):
        return 2.0 * float(mp.acos(mp.mpf(math.sqrt(tau))))


def test_phi_for_tau_is_correctly_rounded():
    # mpmath's 53-bit acos, which phi_for_tau once used, is half an ulp
    # off here and rounds down to 2.8292178240060446
    assert phi_for_tau(0.02419678859974761) == 2.829217824006045
    rng = random.Random(20)
    taus = [rng.random() for _ in range(2000)]
    taus += [0.0, 1.0, 5e-324, 0.5]
    taus += [rng.uniform(0.0, 1e-12) for _ in range(20)]
    taus += [1.0 - rng.uniform(0.0, 1e-12) for _ in range(20)]
    for tau in taus:
        assert phi_for_tau(tau) == _acos_80_digits(tau), tau


def test_phi_for_tau_keeps_every_fig8_phase():
    # the values the 53-bit mpmath acos gave, so the fig8 preset is unchanged
    for loss in PRESETS["fig8"].values:
        root = libmp.mpf_sqrt(libmp.from_float(1.0 - loss), 53, "n")
        old = 2.0 * libmp.to_float(libmp.mpf_acos(root, 53, "n"))
        assert phi_for_tau(1.0 - loss) == old, loss


def test_shot_noise_limit():
    cfg = SingleMziConfig(PassvSpec(0.0, 0), mu=100.0, phi=np.pi / 2)
    assert abs(metrology.single_phase_uncertainty(cfg) - 0.1) < 1e-12


def test_shot_noise_limit_with_loss():
    cfg = SingleMziConfig(PassvSpec(0.0, 0), mu=100.0, phi=np.pi / 2, eta=0.98)
    assert abs(metrology.single_phase_uncertainty(cfg) - 1 / np.sqrt(98.0)) < 1e-12


def test_squeezing_beats_shot_noise():
    mu = 100.0
    snl = 1 / np.sqrt(mu)
    cfg = SingleMziConfig(PassvSpec(1.0, 0), mu=mu, phi=np.pi / 2)
    assert metrology.single_phase_uncertainty(cfg) < snl


def test_uncertainty_improves_with_efficiency():
    us = [
        metrology.single_phase_uncertainty(
            SingleMziConfig(PassvSpec(0.5, 1), mu=50.0, phi=np.pi / 2, eta=eta)
        )
        for eta in (0.5, 0.8, 1.0)
    ]
    assert us[0] > us[1] > us[2]


def test_readout_slope_matches_finite_difference():
    h = 1e-6
    base = dict(mu=4.0, phi=0.8)

    def diff_mean(phi):
        m = metrology.readout_moments(
            SingleMziConfig(PassvSpec(0.5, 1), mu=base["mu"], phi=phi)
        )
        return m[(1, 0)] - m[(0, 1)]

    fd = (diff_mean(base["phi"] + h) - diff_mean(base["phi"] - h)) / (2 * h)
    # reconstruct the analytic slope from the uncertainty and the variance
    cfg = SingleMziConfig(PassvSpec(0.5, 1), mu=base["mu"], phi=base["phi"])
    m = metrology.readout_moments(cfg)
    mean = m[(1, 0)] - m[(0, 1)]
    var = m[(2, 0)] + m[(0, 2)] - 2 * m[(1, 1)] - mean**2
    slope = np.sqrt(var) / metrology.single_phase_uncertainty(cfg)
    assert abs(abs(fd) - slope) < 1e-6 * max(1.0, slope)


def test_qfi_coherent_only():
    cfg = SingleMziConfig(PassvSpec(0.0, 0), mu=100.0, phi=np.pi / 2)
    assert abs(metrology.qfi(cfg) - 200.0) < 1e-9


def test_qfi_grows_with_subtraction_at_fixed_lam():
    mu = 100.0
    f = [
        metrology.qfi(SingleMziConfig(PassvSpec(2.0, m), mu=mu, phi=np.pi / 2))
        for m in (0, 1, 2)
    ]
    assert f[0] < f[1] < f[2]


def test_cramer_rao_bound():
    assert metrology.cramer_rao_bound(4.0) == 0.5
    with pytest.raises(NonPositiveQfi):
        metrology.cramer_rao_bound(0.0)


def test_cramer_rao_bound_rejects_an_overflowed_qfi():
    # 1/sqrt(inf) = 0 would pass for a bound
    with pytest.raises(OutOfRange):
        metrology.cramer_rao_bound(float("inf"))


def test_uncertainty_saturates_bound():
    # exact read-out uncertainty never beats the quantum bound
    cfg = SingleMziConfig(PassvSpec(1.5, 1), mu=200.0, phi=np.pi / 2, psi=np.pi / 2)
    u = metrology.single_phase_uncertainty(cfg)
    bound = metrology.cramer_rao_bound(metrology.qfi(cfg))
    assert u >= bound - 1e-12


def test_singular_working_point():
    with pytest.raises(Singular):
        metrology.single_phase_uncertainty(
            SingleMziConfig(PassvSpec(0.5, 0), mu=10.0, phi=0.0)
        )


@pytest.mark.parametrize("lam", [0.75, 1.0, 2.0, 100.0])
def test_a_balanced_slope_is_singular_at_every_phase(lam):
    # m = 0 gives <n> = lam exactly, so mu = lam zeroes the slope
    # eta (<n> - mu) sin phi at every phase: <n> - mu must be one exact
    # difference, as two rows truncated apart leave a few units at some phases
    for phi in (1e-6, 0.3, 1.0, np.pi / 2, 2.0, 3.0, -0.7, 5.0):
        with pytest.raises(Singular):
            metrology.single_phase_uncertainty(
                SingleMziConfig(PassvSpec(lam, 0), mu=lam, phi=phi, eta=0.98))


def test_dark_single_input_is_singular():
    # every read-out moment vanishes, so the slope does too
    with pytest.raises(Singular):
        metrology.single_phase_uncertainty(
            SingleMziConfig(PassvSpec(0.0, 0), mu=0.0, phi=1.0)
        )


@pytest.mark.parametrize(
    "metric, config, spec, expected",
    [
        (metrology.single_phase_uncertainty, SingleMziConfig, SpatsvSpec, "PassvSpec"),
        (metrology.qfi, SingleMziConfig, SpatsvSpec, "PassvSpec"),
        (metrology.nrf, CorrelatedConfig, PassvSpec, "SpatsvSpec"),
    ],
)
def test_a_spec_of_the_other_scheme_is_rejected(metric, config, spec, expected):
    # the engine reads only lam, m and chi of a spec, so the other scheme's
    # spec would silently give the other scheme's state
    with pytest.raises(ValueError, match=expected):
        metric(config(spec(1.0, 1), mu=10.0, phi=1.0))


_SINGLE = SingleMziConfig(PassvSpec(1.0, 1), mu=10.0, phi=1.0)
_CORRELATED = CorrelatedConfig(SpatsvSpec(1.0, 1), mu=10.0, phi=1.0)


@pytest.mark.parametrize(
    "metric, config, expected",
    [
        (metrology.single_phase_uncertainty, _CORRELATED, "SingleMziConfig"),
        (metrology.qfi, _CORRELATED, "SingleMziConfig"),
        (metrology.nrf, _SINGLE, "CorrelatedConfig"),
        (metrology.correlated_uncertainty, _SINGLE, "CorrelatedConfig"),
        (metrology.mandel_q, _SINGLE, "CorrelatedConfig"),
    ],
    ids=["U", "qfi", "nrf", "U_norm", "mandel_q"],
)
def test_a_config_of_the_other_scheme_is_rejected(metric, config, expected):
    # each figure of merit belongs to one scheme; the other scheme's config
    # would silently give a number of the wrong interferometer
    with pytest.raises(ValueError, match=expected):
        metric(config)


def test_quadrature_variance_correspondence():
    # at phi = pi/2 and bright drive the uncertainty reduces to the lossy
    # squeezed-quadrature variance: U = sqrt(2 VarY_lossy / (eta mu))
    lam, m, eta, mu = 1.0, 1, 0.9, 1e6
    cfg = SingleMziConfig(PassvSpec(lam, m), mu=mu, phi=np.pi / 2, eta=eta)
    u = metrology.single_phase_uncertainty(cfg)
    vy = quadrature_variance(
        moments.passv_moment_table(lam, m), (np.exp(-0.5j * np.pi),)
    )
    predicted = np.sqrt(2 * (eta * vy + (1 - eta) / 2) / (eta * mu))
    assert abs(u - predicted) < 0.01 * predicted


# ---------------------------------------------------------------------------
# Correlated scheme
# ---------------------------------------------------------------------------


def test_nrf_perfect_correlation():
    # full transmission, no coherent light: twin beams have identical counts
    cfg = CorrelatedConfig(SpatsvSpec(0.5, 0), mu=0.0, phi=0.0)
    assert metrology.nrf(cfg) < 1e-12


def test_perfect_correlation_is_an_exact_zero_at_m_0_and_reads_0_at_every_m():
    # a truncation that drops only zero bits adds no radius, so the twin
    # beams' Var(N5 - N7) at m = 0 is the exact ball (0, 0), which was one of
    # radius ~2^-152; at m >= 1 the norm division rounds, and the ball about 0
    # reads 0.0 once the retries fit it inside 0.0's rounding interval (the
    # parent printed 2.8e-47 at lam = 0.5, m = 2)
    for lam in (0.3, 0.5, 1.7, 2.0):
        cfg = CorrelatedConfig(SpatsvSpec(lam, 0), mu=0.0, phi=0.0)
        var = metrology._variance(metrology._scene(cfg, moments.START_DIGITS),
                                  metrology._DIFFERENCE_WEIGHTS)
        assert (var.man, var.err) == (0, 0), lam
        for m in range(4):
            assert metrology.nrf(CorrelatedConfig(SpatsvSpec(lam, m), mu=0.0, phi=0.0)) == 0.0


def test_nrf_dark_readout_raises():
    with pytest.raises(ZeroMeanPhoton):
        metrology.nrf(CorrelatedConfig(SpatsvSpec(0.0, 0), mu=0.0, phi=0.0))


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_nrf_matches_small_energy_expansion(m):
    lam, tau = 1e-4, 0.9
    cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=1e6, phi=phi_for_tau(tau))
    assert abs(metrology.nrf(cfg) - metrology.nrf_asymptotic(m, tau, lam)) < 1e-4


def test_nrf_asymptotic_unsupported_order():
    with pytest.raises(UnsupportedOrder):
        metrology.nrf_asymptotic(5, 0.9, 0.01)


def _pair(lam, m, eta=1.0):
    """A scene of the pair alone, as Mandel Q reads it."""
    return CorrelatedConfig(SpatsvSpec(lam, m), mu=0.0, phi=0.0, eta=eta)


def test_mandel_q_thermal():
    # the single-mode marginal of a TSV is thermal: Q = mean photons
    lam = 0.8
    assert abs(metrology.mandel_q(_pair(lam, 0)) - lam) < 1e-8


def test_mandel_q_negative_for_subtracted_state():
    assert metrology.mandel_q(_pair(0.1, 2)) < 0.0


@given(eta=st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_mandel_q_thins_linearly(eta):
    # binomial loss scales Mandel Q by eta for any state
    q0 = metrology.mandel_q(_pair(0.4, 1))
    q_eta = metrology.mandel_q(_pair(0.4, 1, eta))
    assert abs(q_eta - eta * q0) < 1e-9


def test_mandel_q_reads_the_pair_alone():
    # Q reads the pair at mu = 0, 43 digits: coherent light and phase play no role
    cfg = CorrelatedConfig(SpatsvSpec(0.4, 1), mu=1e6, phi=2.1, psi=0.3, eta=0.9)
    assert metrology.mandel_q(cfg) == metrology.mandel_q.__wrapped__(_pair(0.4, 1, 0.9), 43)


@pytest.mark.parametrize("lam, eta", [(0.0, 1.0), (0.5, 0.0)])
def test_mandel_q_of_a_dark_mode_raises(lam, eta):
    with pytest.raises(ZeroMeanPhoton):
        metrology.mandel_q(_pair(lam, 0, eta))


def test_correlated_vacuum_benchmark():
    # with no quantum light the normalized uncertainty approaches sqrt(2)
    cfg = CorrelatedConfig(SpatsvSpec(0.0, 0), mu=1e6, phi=np.pi / 2)
    assert abs(metrology.correlated_uncertainty(cfg) - SQRT2) < 1e-5


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_correlated_matches_low_energy_bright_expansion(m):
    lam, tau, eta, mu = 1e-4, 0.9, 0.95, 1e8
    cfg = CorrelatedConfig(
        SpatsvSpec(lam, m), mu=mu, phi=phi_for_tau(tau), eta=eta, psi=np.pi / 2
    )
    engine = metrology.correlated_uncertainty(cfg)
    closed = metrology.correlated_uncertainty_asymptotic(
        "low_lambda_bright", m, lam=lam, tau=tau, eta=eta
    )
    assert abs(engine - closed) < 2e-4


def test_correlated_matches_high_energy_bright_expansion():
    lam, tau, eta = 200.0, 0.9, 0.95
    cfg = CorrelatedConfig(
        SpatsvSpec(lam, 0), mu=1e8, phi=phi_for_tau(tau), eta=eta, psi=np.pi / 2
    )
    engine = metrology.correlated_uncertainty(cfg)
    closed = metrology.correlated_uncertainty_asymptotic(
        "high_lambda_bright", 0, lam=lam, tau=tau, eta=eta
    )
    # the closed form drops O(1/lam^2) terms
    assert abs(engine - closed) < 0.02 * SQRT2


def test_high_energy_bright_worked_value():
    # eta = 0.98, tau = 0.9, lam = 2: sqrt(2)(1 - 0.882 - 0.11025)
    val = metrology.correlated_uncertainty_asymptotic(
        "high_lambda_bright", 0, lam=2.0, tau=0.9, eta=0.98
    )
    assert abs(val - SQRT2 * (1.0 - 0.882 - 0.11025)) < 1e-12


def test_dark_fringe_closed_forms():
    eta = 0.98
    low = metrology.correlated_uncertainty_asymptotic(
        "dark_fringe_low_lambda", 0, eta=eta
    )
    assert abs(low - SQRT2 * np.sqrt((1 - eta) / eta)) < 1e-12
    high = metrology.correlated_uncertainty_asymptotic(
        "dark_fringe_high_lambda", 1, eta=eta
    )
    assert abs(high - 2 * np.sqrt(3.0) * (1 - eta)) < 1e-12


def test_asymptotic_eta_tau_symmetry():
    # the bright-beam expansions depend on eta and tau only through eta*tau
    for m in range(5):
        a = metrology.correlated_uncertainty_asymptotic(
            "low_lambda_bright", m, lam=1e-3, tau=0.9, eta=0.7
        )
        b = metrology.correlated_uncertainty_asymptotic(
            "low_lambda_bright", m, lam=1e-3, tau=0.7, eta=0.9
        )
        assert abs(a - b) < 1e-12


def test_asymptotic_unsupported_order_and_regime():
    with pytest.raises(UnsupportedOrder):
        metrology.correlated_uncertainty_asymptotic("low_lambda_bright", 5, lam=0.1)
    with pytest.raises(ValueError):
        metrology.correlated_uncertainty_asymptotic("no_such_regime", 0)


@pytest.mark.parametrize("m", [5, -1, 1.5])
def test_closed_forms_cover_the_orders_0_to_4_only(m):
    with pytest.raises(UnsupportedOrder):
        metrology.nrf_asymptotic(m, 0.9, 0.01)
    for regime in metrology.CORRELATED_REGIMES:
        with pytest.raises(UnsupportedOrder):
            metrology.correlated_uncertainty_asymptotic(regime, m, lam=0.1, tau=0.9, eta=0.9)


_CORRELATED = metrology.correlated_uncertainty_asymptotic


@pytest.mark.parametrize("call, args, kwargs", [
    pytest.param(_CORRELATED, ("dark_fringe_high_lambda", 0), {"eta": 1.5}, id="dark-eta-1.5"),
    pytest.param(_CORRELATED, ("low_lambda_bright", 0), {"lam": 0.1, "eta": -0.1}, id="eta-neg"),
    pytest.param(_CORRELATED, ("high_lambda_bright", 0), {"lam": math.inf}, id="lam-inf"),
    pytest.param(_CORRELATED, ("low_lambda_bright", 2), {"lam": -1.0}, id="lam-neg"),
    pytest.param(_CORRELATED, ("high_lambda_bright", 1), {"lam": 1.0, "tau": math.nan},
                 id="tau-nan"),
    pytest.param(metrology.nrf_asymptotic, (1, 0.9, math.nan), {}, id="nrf-lam-nan"),
    pytest.param(metrology.nrf_asymptotic, (1, 1.5, 0.01), {}, id="nrf-tau-1.5"),
    pytest.param(metrology.nrf_asymptotic, (1, -0.5, 0.01), {}, id="nrf-tau-neg"),
    pytest.param(metrology.nrf_asymptotic, (0, 0.9, -1.0), {}, id="nrf-lam-neg"),
    pytest.param(metrology.nrf_asymptotic, (0, 0.9, math.inf), {}, id="nrf-lam-inf"),
])
def test_closed_forms_reject_inputs_outside_their_domain(call, args, kwargs):
    # unchecked, these gave a negative uncertainty, a nan, a value for
    # tau > 1, 0.0 at lam = inf or a bare math domain error
    with pytest.raises(ValueError, match="must"):
        call(*args, **kwargs)


def _old_nrf_asymptotic(m, tau, lam):
    """The per-order constants the closed forms were typed as, m <= 2."""
    s = math.sqrt(lam)
    return {0: lambda: 1.0 - 2.0 * tau * (s - lam),
            1: lambda: 1.0 - 4.0 * tau * (s - 2.0 * lam),
            2: lambda: 1.0 - 6.0 * tau * (s - 3.0 * lam)}[m]()


def _old_low_lambda_bright(m, lam, tau, eta):
    """The per-order low-lambda bright-beam constants, m <= 3."""
    s = math.sqrt(lam)
    inner = [2.0 * s - 2.0 * lam,
             4.0 * s + 0.5 * lam * (3.0 * eta * tau - 16.0),
             6.0 * s + 4.5 * lam * (eta * tau - 4.0),
             8.0 * s + lam * (9.0 * eta * tau - 32.0)][m]
    return SQRT2 * (1.0 - tau * eta * inner)


_OLD_DARK_FRINGE_FACTORS = [math.sqrt(5.0), math.sqrt(3.0), math.sqrt(13.0 / 5.0),
                            math.sqrt(17.0 / 7.0)]


def test_closed_forms_reproduce_the_per_order_constants():
    rng = random.Random(34)
    for _ in range(2000):
        lam, tau, eta = 10 ** rng.uniform(-8, 1), rng.random(), rng.random()
        for m in range(3):
            assert metrology.nrf_asymptotic(m, tau, lam) == _old_nrf_asymptotic(m, tau, lam)
        for m in range(4):
            new = metrology.correlated_uncertainty_asymptotic(
                "low_lambda_bright", m, lam=lam, tau=tau, eta=eta)
            old = _old_low_lambda_bright(m, lam, tau, eta)
            assert abs(new - old) <= 1e-15 * abs(old), (m, lam, tau, eta)
            dark = metrology.correlated_uncertainty_asymptotic(
                "dark_fringe_high_lambda", m, eta=eta)
            assert dark == 2.0 * _OLD_DARK_FRINGE_FACTORS[m] * (1.0 - eta)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_engine_approaches_each_closed_form_at_its_order(m):
    # the dropped terms are O(lam^(3/2)) at low lam, so engine minus closed
    # form shrinks about 30x per decade (10x is required); the dark-fringe
    # ratio U/closed form tends to 1 as lam grows
    tau = 0.9
    nrf_residual, u_residual, dark_deviation = [], [], []
    for lam in (1e-3, 1e-4):
        cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=1e6, phi=phi_for_tau(tau))
        nrf_residual.append(abs(metrology.nrf(cfg) - metrology.nrf_asymptotic(m, tau, lam)))
        cfg = CorrelatedConfig(
            SpatsvSpec(lam, m), mu=1e8, phi=phi_for_tau(tau), eta=0.95, psi=np.pi / 2)
        closed = metrology.correlated_uncertainty_asymptotic(
            "low_lambda_bright", m, lam=lam, tau=tau, eta=0.95)
        u_residual.append(abs(metrology.correlated_uncertainty(cfg) - closed))
    for lam in (1e3, 1e4):
        cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=1e8, phi=1e-9, eta=0.98, psi=np.pi / 2)
        closed = metrology.correlated_uncertainty_asymptotic(
            "dark_fringe_high_lambda", m, eta=0.98)
        dark_deviation.append(abs(metrology.correlated_uncertainty(cfg) / closed - 1.0))
    assert nrf_residual[1] <= nrf_residual[0] / 10, nrf_residual
    assert u_residual[1] <= u_residual[0] / 10, u_residual
    assert dark_deviation[1] < dark_deviation[0], dark_deviation


def test_subtraction_improves_correlated_uncertainty():
    lam, mu, eta = 0.05, 1e6, 0.98
    phi = phi_for_tau(0.9)
    us = [
        metrology.correlated_uncertainty(
            CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, eta=eta, psi=np.pi / 2)
        )
        for m in (0, 1, 2)
    ]
    assert us[0] > us[1] > us[2]


@given(eta=st.floats(min_value=0.3, max_value=1.0))
@settings(max_examples=10, deadline=None)
def test_correlated_uncertainty_improves_with_efficiency_property(eta):
    phi = phi_for_tau(0.9)

    def u(e):
        return metrology.correlated_uncertainty(
            CorrelatedConfig(SpatsvSpec(0.1, 1), mu=1e4, phi=phi, eta=e, psi=np.pi / 2)
        )

    assert u(eta) >= u(min(1.0, eta + 0.1)) - 1e-9


def test_correlated_readout_moments_match_port_means():
    lam, mu, phi, eta = 0.3, 2.0, 0.7, 0.9
    cfg = CorrelatedConfig(SpatsvSpec(lam, 0), mu=mu, phi=phi, eta=eta, psi=0.3)
    m = metrology.readout_moments(cfg)
    tau = np.cos(phi / 2) ** 2
    expected = eta * ((1 - tau) * mu + tau * lam)
    assert abs(m[(1, 0)] - expected) < 1e-10
    assert abs(m[(0, 1)] - expected) < 1e-10


@pytest.mark.parametrize(
    "cfg",
    [
        SingleMziConfig(PassvSpec(0.5, 1), mu=2.0, phi=0.7),
        CorrelatedConfig(SpatsvSpec(0.3, 1), mu=2.0, phi=0.7),
    ],
    ids=["single", "correlated"],
)
def test_readout_moments_flag_uncertified_digits(cfg):
    # 5 working digits cannot certify 8 of any moment: unguarded, they came
    # back silently wrong in the 7th digit (2.4412117 for 2.4412105)
    exact = metrology.readout_moments.__wrapped__(cfg, 60)
    for key, value in metrology.readout_moments(cfg).items():
        assert abs(value - exact[key]) <= 1e-8 * abs(exact[key]), key
    with pytest.raises(PrecisionInsufficient):
        metrology.readout_moments.__wrapped__(cfg, 5)


_SINGLE_SCENE, _PAIR_SCENE = (SingleMziConfig(PassvSpec(0.5, 1), mu=2.0, phi=0.7),
                              CorrelatedConfig(SpatsvSpec(0.3, 1), mu=2.0, phi=0.7))
_RETRIED = {"readout_moments": _PAIR_SCENE, "single_phase_uncertainty": _SINGLE_SCENE,
            "qfi": _SINGLE_SCENE, "nrf": _PAIR_SCENE, "mandel_q": _PAIR_SCENE,
            "correlated_uncertainty": _PAIR_SCENE}


@pytest.mark.parametrize("digits", [5, 10, 15, 16, 20, 30, 60])
@pytest.mark.parametrize("name", sorted(_RETRIED))
def test_a_figure_at_fixed_digits_is_its_default_value_or_refused(name, digits):
    # the one precision rule at each retried figure: a value is returned only
    # where its ball rounds to one float, so fixed digits give the default's
    # value bit for bit or PrecisionInsufficient; 10 digits (37 bits) are too
    # few for a 53-bit float, and the default's first attempt (30) suffices here
    figure, cfg = getattr(metrology, name), _RETRIED[name]
    default = figure(cfg)
    try:
        value = figure.__wrapped__(cfg, digits)
    except PrecisionInsufficient:
        assert digits < moments.START_DIGITS
    else:
        assert digits > 10
        assert value == default


@pytest.mark.parametrize("eta", [0.8, 0.98])
@pytest.mark.parametrize("m", range(5))
@pytest.mark.parametrize("lam", [1e-4, 0.05, 2.0, 1e3])
def test_the_dark_fringe_uncertainty_is_its_three_entry_form(lam, m, eta):
    # at phi = 0 the engine's Var C and mixed derivative, which the form does
    # not read, give U to within U's certified relative error: half Var C's
    # plus the mixed derivative's, and 2^-52 for the root's floor (2^-70),
    # the final int / int (2^-53) and the 50-digit form
    cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=1e8, phi=0.0, psi=math.pi / 2, eta=eta)
    ports = metrology._scene(cfg, moments.START_DIGITS)
    var = metrology._variance(ports, metrology._COVARIANCE_WEIGHTS)
    mixed = ports.expect(metrology._COVARIANCE_WEIGHTS[0], "mixed")
    with mp.workdps(50):
        want = dark_fringe_uncertainty(moments.spatsv_moment_table(lam, m), eta)
        tol = (mp.mpf(var.err) / (2 * var.man) + mp.mpf(mixed.err) / abs(mixed.man)
               + mp.mpf(2) ** -52)
        assert abs(metrology.correlated_uncertainty(cfg) - want) <= tol * want


def test_a_precision_flag_reads_magnitudes_past_the_float_range():
    # Var C near 1e796 once read "inf known only to within inf".  That scene,
    # lam = 1 at mu = 1e300, is now certified; lam = 1e80 still cancels Var C,
    # near 1e728, through more than 30 digits, so U is certified only between
    # two finite floats
    cfg = CorrelatedConfig(SpatsvSpec(1e80, 1), mu=1e300, phi=1.5707963)
    with pytest.raises(PrecisionInsufficient) as info:
        metrology.correlated_uncertainty.__wrapped__(cfg, 30)
    message = str(info.value)
    assert "inf" not in message
    assert re.fullmatch(r"certified only between 0\.0 and [\d.]+e\+\d\d", message)


def test_correlated_uncertainty_flags_a_dark_detector():
    # eta = 0: every read-out moment vanishes, so the mixed derivative does too
    with pytest.raises(Singular):
        metrology.correlated_uncertainty(
            CorrelatedConfig(SpatsvSpec(0.5, 1), mu=1e4, phi=0.3, eta=0.0)
        )


def test_correlated_uncertainty_flags_no_coherent_light():
    # mu = 0: the coherent-only bound sqrt(2) / (eta mu cos^2(phi/2)) divides by 0
    with pytest.raises(Singular):
        metrology.correlated_uncertainty(CorrelatedConfig(SpatsvSpec(1.0, 1), mu=0.0, phi=1.0))


def test_correlated_uncertainty_flags_odd_multiple_of_pi():
    # cos(phi/2) vanishes at float resolution: no coherent light is detected
    # and the normalisation would divide by ~4e-33
    spec = SpatsvSpec(0.5, 1)
    with pytest.raises(Singular):
        metrology.correlated_uncertainty(
            CorrelatedConfig(spec, mu=1e4, phi=np.pi, eta=0.98)
        )
    near = metrology.correlated_uncertainty(
        CorrelatedConfig(spec, mu=1e4, phi=np.pi - 1e-3, eta=0.98)
    )
    assert np.isfinite(near) and near > 0


def test_nrf_is_algebra_on_readout_moments():
    # the metric and the oracle-checked moments come from one engine
    cfg = CorrelatedConfig(SpatsvSpec(0.3, 2), mu=2.0, phi=0.7, psi=0.4, eta=0.9)
    m = metrology.readout_moments(cfg)
    mean_diff = m[(1, 0)] - m[(0, 1)]
    var_diff = m[(2, 0)] + m[(0, 2)] - 2 * m[(1, 1)] - mean_diff**2
    expected = var_diff / (m[(1, 0)] + m[(0, 1)])
    assert abs(metrology.nrf(cfg) - expected) < 1e-12 * abs(expected)


def test_readout_moment_orders():
    single = metrology.readout_moments(
        SingleMziConfig(PassvSpec(0.4, 1), mu=2.0, phi=0.8, eta=0.9)
    )
    correlated = metrology.readout_moments(
        CorrelatedConfig(SpatsvSpec(0.4, 1), mu=2.0, phi=0.8, eta=0.9)
    )
    assert max(p + q for p, q in single) == 2 and len(single) == 5
    assert max(p + q for p, q in correlated) == 4 and len(correlated) == 14


_SCHEMES = [
    pytest.param(PassvSpec, SingleMziConfig, id="single"),
    pytest.param(SpatsvSpec, CorrelatedConfig, id="correlated"),
]


@pytest.mark.parametrize("spec_cls", [PassvSpec, SpatsvSpec])
@pytest.mark.parametrize(
    "kwargs",
    [dict(m=1.0), dict(m=-1), dict(lam=float("nan")), dict(lam=float("inf")),
     dict(chi=float("nan"))],
    ids=["m-float", "m-negative", "lam-nan", "lam-inf", "chi-nan"],
)
def test_spec_rejects_invalid_inputs(spec_cls, kwargs):
    args = dict(lam=0.5, m=1, chi=0.0)
    args.update(kwargs)
    with pytest.raises(ValueError):
        spec_cls(**args)


@pytest.mark.parametrize("spec_cls, cfg_cls", _SCHEMES)
@pytest.mark.parametrize("name", ["mu", "phi", "psi", "eta"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_config_rejects_non_finite_inputs(spec_cls, cfg_cls, name, bad):
    args = dict(mu=10.0, phi=0.5, psi=0.0, eta=0.9)
    args[name] = bad
    with pytest.raises(ValueError):
        cfg_cls(spec_cls(0.5, 1), **args)
