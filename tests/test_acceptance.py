"""End-to-end acceptance suite.

Each test evaluates one numbered capability contract at its stated tolerance
and prints a single ``ACCEPTANCE NN <name>: PASS|FAIL`` line (visible under
``pytest -s``) before asserting.  Every criterion is evaluated faithfully:
where the closed form under test disagrees with the exact engine, the line
reports FAIL and the assertion records it — see the repository notes for the
analysis of any such case.
"""

import numpy as np
import pytest

from photsub import fock, metrology, states
from photsub.errors import OutOfRange
from photsub.metrology import CorrelatedConfig, SingleMziConfig, phi_for_tau
from photsub.states import PassvSpec, SpatsvSpec
from reference import (
    ancilla_joint,
    binomial_thinning,
    bounded,
    fidelity,
    mean_photons,
    nrf_asymptotic,
    passv_seed,
    quadrature_variance,
    spatsv_seed,
    squeeze_apply,
    thinned,
    two_mode_squeeze_apply,
)

SQRT2 = np.sqrt(2.0)


def _report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{suffix}")
    return ok


def test_acceptance_01_mean_photon_closed_forms():
    cases = [
        (1, 2.0, 7.0),
        (2, 1.0, 6.0),
        (3, 1.0, 8.5),
    ]
    worst = 0.0
    for m, lam, expected in cases:
        closed = PassvSpec(lam, m).mean_photons
        numeric = mean_photons(fock.subtracted(PassvSpec(lam, m), cutoff=300))
        worst = max(
            worst,
            abs(closed - expected) / expected,
            abs(numeric - expected) / expected,
        )
    ok = worst <= 1e-10
    assert _report(1, "mean-photon-closed-forms", ok, f"worst rel err {worst:.2e}")


def test_acceptance_02_seed_representation_equivalence():
    worst = 1.0
    for lam in (0.1, 1.0, 5.0):
        for m in range(5):
            spec = PassvSpec(lam, m)
            seed = passv_seed(spec)
            squeezed = squeeze_apply(seed, spec.r, cutoff=500)
            worst = min(worst, fidelity(squeezed, fock.subtracted(spec, cutoff=500)))
        for m in range(4):
            spec2 = SpatsvSpec(lam, m)
            seed2 = spatsv_seed(spec2)
            squeezed2 = two_mode_squeeze_apply(seed2, spec2.r, cutoff=300)
            worst = min(
                worst, fidelity(squeezed2, fock.subtracted(spec2, cutoff=300))
            )
    ok = worst >= 1 - 1e-12
    assert _report(2, "seed-representation-equivalence", ok, f"min fidelity 1-{1-worst:.1e}")


def test_acceptance_03_qfi_asymptotic_ratios():
    # fixed total energy 1e4 with mu = 100: the quantum input carries 9900
    mu, target = 100.0, 9900.0
    psi = np.pi / 2  # phase-matched coherent drive
    f0 = metrology.qfi(SingleMziConfig(PassvSpec(target, 0), mu=mu, phi=np.pi / 2, psi=psi))
    worst = 0.0
    for m in range(1, 5):
        lam0 = states.balance_energy(target, m, 1)
        fm = metrology.qfi(
            SingleMziConfig(PassvSpec(lam0, m), mu=mu, phi=np.pi / 2, psi=psi)
        )
        ratio = fm / f0
        worst = max(worst, abs(ratio * (2 * m + 1) - 1.0))
    ok = worst <= 0.02
    assert _report(3, "qfi-asymptotic-ratios", ok, f"worst rel dev {worst:.2e}")


def test_acceptance_04_cramer_rao_consistency():
    worst = np.inf
    for lam in (0.2, 1.0, 3.0, 8.0, 20.0):
        for mu in (7.0, 30.0, 150.0, 600.0, 1000.0):
            for m in range(3):
                cfg = SingleMziConfig(PassvSpec(lam, m), mu=mu, phi=np.pi / 2)
                u = metrology.single_phase_uncertainty(cfg)
                product = u * np.sqrt(metrology.qfi(cfg))
                worst = min(worst, product)
    ok = worst >= 1 - 1e-9
    assert _report(4, "cramer-rao-consistency", ok, f"min U*sqrt(F) {worst:.4f}")


def test_acceptance_05_nrf_large_lambda_law():
    lam, tau, mu = 50.0, 0.9, 1e6
    phi = phi_for_tau(tau)
    closed = 1.0 - tau + tau / (4.0 * lam)
    worst = 0.0
    for m in range(3):
        cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, psi=np.pi / 2)
        worst = max(worst, abs(metrology.nrf(cfg) - closed) / closed)
    ok = worst <= 0.01
    assert _report(5, "nrf-large-lambda-law", ok, f"worst rel err {worst:.2e}")


def test_acceptance_06_nrf_small_lambda_asymptotics():
    lam, tau = 1e-3, 0.9
    phi = phi_for_tau(tau)
    worst = 0.0
    for m in range(3):
        cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=1e6, phi=phi, psi=np.pi / 2)
        worst = max(
            worst, abs(metrology.nrf(cfg) - nrf_asymptotic(m, tau, lam))
        )
    ok = worst <= 1e-2
    assert _report(6, "nrf-small-lambda-asymptotics", ok, f"worst abs err {worst:.2e}")


def test_acceptance_07_dark_fringe_plateau():
    # NOTE: the lam << 1 plateau formula carries m-dependent finite-lam
    # corrections that at lam = 0.05 exceed the 5% band for m >= 1; the
    # engine value is oracle-confirmed, so the FAIL below is a property of
    # the closed form, not of the implementation.
    lam, mu, eta, phi = 0.05, 1e8, 0.98, 1e-9
    closed = SQRT2 * np.sqrt((1 - eta) / eta)
    worst = 0.0
    for m in range(4):
        cfg = CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, eta=eta, psi=np.pi / 2)
        u = metrology.correlated_uncertainty(cfg)
        worst = max(worst, abs(u - closed) / closed)
    ok = worst <= 0.05
    assert _report(7, "dark-fringe-plateau", ok, f"worst rel dev {worst:.2e}")


def test_acceptance_08_dark_fringe_high_lambda_ratios():
    lam, mu, eta, phi = 50.0, 1e8, 0.98, 1e-9
    factors = [np.sqrt(5.0), np.sqrt(3.0), np.sqrt(13.0 / 5.0), np.sqrt(17.0 / 7.0)]
    us = [
        metrology.correlated_uncertainty(
            CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, eta=eta, psi=np.pi / 2)
        )
        for m in range(4)
    ]
    worst = 0.0
    for m in range(1, 4):
        measured = us[m] / us[0]
        expected = factors[m] / factors[0]
        worst = max(worst, abs(measured / expected - 1.0))
    ok = worst <= 0.05
    assert _report(8, "dark-fringe-high-lambda-ratios", ok, f"worst ratio dev {worst:.2e}")


def test_acceptance_09_high_loss_balanced_advantage():
    target, mu, eta, phi = 2.0, 1e12, 0.8, 1e-8
    u0 = metrology.correlated_uncertainty(
        CorrelatedConfig(SpatsvSpec(target, 0), mu=mu, phi=phi, eta=eta, psi=np.pi / 2)
    )
    lam3 = states.balance_energy(target, 3, 2)
    u3 = metrology.correlated_uncertainty(
        CorrelatedConfig(SpatsvSpec(lam3, 3), mu=mu, phi=phi, eta=eta, psi=np.pi / 2)
    )
    reduction = (u0 - u3) / u0
    ok = 0.20 <= reduction <= 0.35
    assert _report(9, "high-loss-balanced-advantage", ok, f"reduction {reduction:.1%}")


def test_acceptance_10_energy_balancing_null_results():
    mu, eta = 100.0, 0.98
    lam_grid = [0.1, 0.5, 1.5, 5.0, 15.0, 50.0]
    ok = True
    detail = ""
    for target in lam_grid:
        u0 = metrology.single_phase_uncertainty(
            SingleMziConfig(PassvSpec(target, 0), mu=mu, phi=np.pi / 2, eta=eta)
        )
        f0 = metrology.qfi(SingleMziConfig(PassvSpec(target, 0), mu=mu, phi=np.pi / 2))
        for m in range(1, 5):
            try:
                lam0 = states.balance_energy(target, m, 1)
            except OutOfRange:
                continue  # balancing infeasible: no comparison point here
            um = metrology.single_phase_uncertainty(
                SingleMziConfig(PassvSpec(lam0, m), mu=mu, phi=np.pi / 2, eta=eta)
            )
            fm = metrology.qfi(SingleMziConfig(PassvSpec(lam0, m), mu=mu, phi=np.pi / 2))
            if u0 > um * (1 + 1e-12):
                ok = False
                detail = f"U ordering broken at lam={target}, m={m}"
            if f0 < fm * (1 - 1e-12):
                ok = False
                detail = f"F ordering broken at lam={target}, m={m}"
    assert _report(10, "energy-balancing-null-results", ok, detail)


def test_acceptance_11_oracle_equivalence():
    # the oracle evolution is loss-independent, so each scene is evolved once
    # and both detection efficiencies are read out by thinning the joint
    # photon-number distribution (the package's loss model)
    lam, mu, phi, psi = 0.3, 2.0, 0.7, 0.4

    def rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1e-12)

    def thin(joint, eta):
        if eta == 1.0:
            return joint
        out = binomial_thinning(joint, eta, axis=0)
        return binomial_thinning(out, eta, axis=1)

    worst = 0.0
    for m in range(3):
        # single interferometer: second-order read-out moments
        scene1 = SingleMziConfig(PassvSpec(lam, m), mu=mu, phi=phi, psi=psi)
        joint1 = fock.oracle_interferometer(scene1, cutoff=40).joint
        # correlated twin interferometers: fourth-order read-out moments
        scene2 = CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, psi=psi)
        joint2 = fock.oracle_interferometer(scene2, cutoff=28).joint
        for eta in (1.0, 0.8):
            eng1 = metrology.readout_moments(
                SingleMziConfig(PassvSpec(lam, m), mu=mu, phi=phi, psi=psi, eta=eta)
            )
            ora1 = fock._moments_from_joint(thin(joint1, eta))
            eng2 = metrology.readout_moments(
                CorrelatedConfig(SpatsvSpec(lam, m), mu=mu, phi=phi, psi=psi, eta=eta)
            )
            ora2 = fock._moments_from_joint(thin(joint2, eta))
            for eng, ora in ((eng1, ora1), (eng2, ora2)):
                for key, val in eng.items():
                    worst = max(worst, rel(val, ora[key]))
    # loss-channel cross-check: an explicit vacuum-ancilla beamsplitter in
    # place of binomial thinning (reduced correlated scene for memory)
    for cfg in (
        SingleMziConfig(PassvSpec(0.3, 1), mu=2.0, phi=phi, eta=0.8),
        CorrelatedConfig(SpatsvSpec(0.1, 1), mu=0.3, phi=phi, psi=psi, eta=0.8),
    ):
        ora = fock._moments_from_joint(ancilla_joint(cfg))
        for key, val in metrology.readout_moments(cfg).items():
            worst = max(worst, rel(val, ora[key]))
    ok = worst <= 1e-8
    assert _report(11, "oracle-equivalence", ok, f"worst rel err {worst:.2e}")


def test_acceptance_12_property_suite():
    ok = True
    detail = ""
    # normalization of every constructed state
    for lam in (0.1, 1.0, 5.0):
        for m in range(4):
            a = fock.subtracted(PassvSpec(lam, m), cutoff=300).amplitudes
            if abs(np.linalg.norm(a) - 1.0) > 1e-12:
                ok, detail = False, "normalization"
            d = fock.subtracted(SpatsvSpec(lam, m), cutoff=300).amplitudes
            if abs(np.linalg.norm(d) - 1.0) > 1e-12:
                ok, detail = False, "normalization"
    # Heisenberg bound on the subtracted states
    for m in range(4):
        t = PassvSpec(0.7, m).table()
        vx = quadrature_variance(t, (1.0,))
        vy = quadrature_variance(t, (np.exp(-0.5j * np.pi),))
        if vx * vy < 0.25 - 1e-12:
            ok, detail = False, "heisenberg"
    # loss composition eta1 then eta2 == eta1*eta2
    t = PassvSpec(1.1, 1).table()
    for key in [(1, 1), (2, 2), (3, 3)]:
        x, n = bounded(t.entry(key)), sum(key) // 2
        once = thinned(thinned(x, 0.9, n), 0.6, n)
        both = thinned(x, 0.54, n)
        if abs(once.value - both.value) > 1e-10:
            ok, detail = False, "loss-composition"
    # Mandel thinning law Q -> eta Q
    def marginal(lam, m, eta=1.0):  # the pair alone, as Mandel Q reads it
        return CorrelatedConfig(SpatsvSpec(lam, m), mu=0.0, phi=0.0, eta=eta)

    q0 = metrology.mandel_q(marginal(0.4, 1))
    for eta in (0.3, 0.7):
        if abs(metrology.mandel_q(marginal(0.4, 1, eta)) - eta * q0) > 1e-9:
            ok, detail = False, "mandel-thinning"
    # sub-Poissonian marginal after double subtraction at low energy
    if not metrology.mandel_q(marginal(0.1, 2, 0.98)) < 0.0:
        ok, detail = False, "mandel-negativity"
    # perfect twin-beam correlation without coherent light or loss
    if not metrology.nrf(CorrelatedConfig(SpatsvSpec(0.5, 0), mu=0.0, phi=0.0)) < 1e-12:
        ok, detail = False, "nrf-zero"
    assert _report(12, "property-suite", ok, detail)
