"""The port-moment kernel against the general operator algebra of reference.py.

Each scene is drawn from a seeded stream with psi off {0, pi/2} and
eta < 1.  The reference contracts the same port observables through
the interferometer images over the thinned input tables, with the phase
derivatives carried as jets on u and v (slot 1 for phi, or phi1 and phi2
for the two correlated ports); the kernel reads its phase slope and its
mixed derivative from the same fold, each its integer map of the lam-free rows.
"""

import random
from math import pi

import mpmath as mp
import pytest

from photsub import metrology, moments, opalg
from photsub.errors import Singular
from photsub.metrology import SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec
from reference import (
    Jet,
    OperatorPolynomial,
    apply_loss,
    coherent_table,
    contract,
    fixed_exact,
    mono,
    multiply,
    port_coefficients,
    power,
)

DPS = 60


def _mzi(phi, slot):
    e = mp.expj(phi)
    j = Jet(e, d1=1j * e) if slot == 1 else Jet(e, d2=1j * e)
    return (j + 1) * mp.mpf(0.5), (j - 1) * mp.mpf(0.5)


def _kernel(quantum, mu, psi, phi, eta):
    """The kernel's port moments of a scene, its port entries formed at ten
    guard digits.

    ``quantum`` builds the lossless input table; the coherent state has mean
    photons ``mu`` and phase ``psi``.
    """
    with mp.workdps(DPS + 10):
        e = mp.expj(phi)
        u, v = (e + 1) / 2, (e - 1) / 2
        coefficients = port_coefficients(quantum(), mu, psi, moments.digits_to_bits(DPS))
        # z = conj(u) v = i cs, read as z/i, real, at the turn i
        x, y, z = (fixed_exact(w, coefficients.bits) for w in (abs(u) ** 2, abs(v) ** 2,
                                                                (mp.conj(u) * v).imag))
        return opalg.PortMoments(coefficients, opalg.PortPoint(x, y, z, coefficients.bits, eta))


def _exact(x: moments.Bounded):
    return mp.mpf(x.man) * mp.mpf(2) ** x.exp


def _scene(scheme, rng):
    """(kernel port moments, reference images, tables, order)."""
    mu, psi = rng.uniform(0.5, 4.0), rng.uniform(0.1, 1.4)
    alpha = mp.sqrt(mu) * mp.expj(psi)
    eta = rng.uniform(0.5, 0.95)
    lam, m = rng.uniform(0.1, 2.0), rng.randrange(4)
    phi = rng.uniform(0.1, 3.0)
    u1, v1 = _mzi(phi, 1)
    if scheme == "single":
        ports = _kernel(lambda: PassvSpec(lam, m).table(), mu, psi, phi, eta)
        images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
        tables = [
            apply_loss(coherent_table(alpha, mode=0), mp.mpf(eta)),
            apply_loss(PassvSpec(lam, m).table(), mp.mpf(eta), mode=1),
        ]
        return ports, images, tables, 2
    ports = _kernel(
        lambda: SpatsvSpec(lam, m).table(), mu, psi, phi, eta
    )
    u2, v2 = _mzi(phi, 2)
    beta = alpha * mp.sqrt(eta)
    images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
    quantum = SpatsvSpec(lam, m).table()
    tables = [apply_loss(quantum, mp.mpf(eta))]
    return ports, images, tables, 4


def _number_power(mode, n):
    return power(OperatorPolynomial.number(mode), n)


def _check(got, want, want_scale, i, j):
    """The kernel's value against the reference jet."""
    assert abs(_exact(got) - mp.re(Jet.lift(want).f)) <= 1e-40 * want_scale, (i, j)


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_port_moments_match_reference_contraction(scheme, seed):
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, order = _scene(scheme, rng)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                poly = OperatorPolynomial({mono((0, i, i), (1, j, j)): 1})
                want, want_scale = contract(poly, images, tables)
                _check(ports.entry(i, j), want, want_scale, i, j)
                # the ordinary moment <N_a^i N_b^j> through the Stirling transform
                poly = multiply(_number_power(0, i), _number_power(1, j))
                want, want_scale = contract(poly, images, tables)
                got = ports.expect(opalg.normal_ordered({(i, j): 1}))
                _check(got, want, want_scale, i, j)


#: read-out observables as {(p, q): weight of N_a^p N_b^q}
OBSERVABLES = {
    "difference": {(1, 0): 1, (0, 1): -1},  # N_a - N_b
    "square": {(2, 0): 1, (1, 1): -2, (0, 2): 1},  # C = (N_a - N_b)^2
    "cubic": {(2, 1): 1},  # N_a^2 N_b
}


@pytest.mark.parametrize("observable", sorted(OBSERVABLES))
@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_single_slope_matches_the_reference_jet(scheme, observable, seed):
    # the common-phase derivative d/dphi = d/dphi1 + d/dphi2 of the rows,
    # at phi1 = phi2 in the correlated scheme
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, _ = _scene(scheme, rng)
        weights = OBSERVABLES[observable]
        poly = sum(multiply(_number_power(0, p), _number_power(1, q)) * w
                   for (p, q), w in weights.items())
        want, want_scale = contract(poly, images, tables)
        got = ports.expect(opalg.normal_ordered(weights), "slope")
        want = Jet.lift(want)
        assert abs(_exact(got) - mp.re(want.d1 + want.d2)) <= 1e-40 * want_scale


@pytest.mark.parametrize("single", [True, False])
@pytest.mark.parametrize("turn", [1, -1, 1j, -1j])
def test_every_fold_row_has_even_k(single, turn):
    # the selection rule that lets the slope map its rows by the even-k map
    # alone: k = a + b is even for each pair the rule keeps, so every slope
    # row lies at odd k, and every mixed row, two maps on, at even k again
    weights = [opalg.normal_ordered(o) for o in OBSERVABLES.values()] + [
        w for pair in (metrology._DIFFERENCE_WEIGHTS, metrology._COVARIANCE_WEIGHTS,
                       metrology._QFI_WEIGHTS) for w in pair]
    weights += [metrology._SUM_WEIGHTS, *metrology._READOUT_WEIGHTS.values()]
    assert [k for w in weights for _, k in opalg._rows(single, w, turn) if k % 2] == []
    if turn == 1j:
        for derivative, parity in [("slope", 1)] + [("mixed", 0)] * (not single):
            assert {k % 2 for w in weights for _, k in opalg._rows(single, w, turn, derivative)
                    } == {parity}


@pytest.mark.parametrize("phi", [0.3, pi / 2, 2.9])
def test_the_slope_is_an_exact_zero_where_the_mean_photons_balance(phi):
    # lam = mu = 100 at m = 0: <n> - mu cancels in integers, in every row
    cfg = SingleMziConfig(PassvSpec(100.0, 0), mu=100.0, phi=phi)
    ports = metrology._scene(cfg, moments.START_DIGITS)
    slope = ports.expect(metrology._DIFFERENCE_WEIGHTS[0], "slope")
    assert (slope.man, slope.err) == (0, 0)
    with pytest.raises(Singular):
        metrology.single_phase_uncertainty(cfg)


def test_a_slope_needs_the_mach_zehnder_turn():
    # and so does the mixed derivative, which only a two-mode family has
    half = moments.fixed_times(moments.ONE, 1, 1)
    for spec, derivative in ((PassvSpec(1.0, 1), "slope"), (SpatsvSpec(1.0, 1), "mixed")):
        coefficients = metrology._port_coefficients(spec, 1.0, 0.0, 30)
        point = opalg.PortPoint(half, half, half, coefficients.bits, turn=1)
        ports = opalg.PortMoments(coefficients, point)
        with pytest.raises(ValueError, match="turn"):
            ports.expect(metrology._DIFFERENCE_WEIGHTS[0], derivative)


def test_a_one_mode_family_has_no_mixed_derivative():
    # its pairs do not share one d between the ports, so per-port rows would
    # be silently wrong: refused before any row is built or folded
    cfg = SingleMziConfig(PassvSpec(1.0, 1), mu=1.0, phi=0.4)
    ports = metrology._scene(cfg, moments.START_DIGITS)
    weights = metrology._COVARIANCE_WEIGHTS[0]
    with pytest.raises(ValueError, match="mixed"):
        ports.expect(weights, "mixed")
    assert opalg._plan.cache_info().currsize == 0
    assert not ports.coefficients._folds
    with pytest.raises(ValueError, match="derivative"):
        ports.expect(weights, "curvature")


#: the observables whose mixed derivative is checked, as {(p, q): weight of
#: N_a^p N_b^q}: F(1, 1) = <N_a N_b> and every one a correlated figure reads
MIXED = {
    "product": {(1, 1): 1},
    "square": metrology._COVARIANCE,  # C = (N_a - N_b)^2
    "fourth": metrology._times(metrology._COVARIANCE, metrology._COVARIANCE),  # C^2
    "difference": metrology._DIFFERENCE,
    "sum": metrology._SUM,
}


@pytest.mark.parametrize("observable", sorted(MIXED))
@pytest.mark.parametrize("seed", range(3))
def test_mixed_derivative_matches_the_reference_jet(observable, seed):
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, _ = _scene("correlated", rng)
        poly = sum(multiply(_number_power(0, p), _number_power(1, q)) * w
                   for (p, q), w in MIXED[observable].items())
        want, want_scale = contract(poly, images, tables)
        got = ports.expect(opalg.normal_ordered(MIXED[observable]), "mixed")
        assert abs(_exact(got) - mp.re(Jet.lift(want).d12)) <= 1e-40 * want_scale


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_loss_scales_port_moments_by_eta_to_the_order(scheme, seed):
    rng = random.Random(100 + seed)
    with mp.workdps(50):
        mu, psi = rng.uniform(0.5, 4.0), rng.uniform(0.1, 1.4)
        eta = rng.uniform(0.5, 0.95)
        lam, m = rng.uniform(0.1, 2.0), rng.randrange(4)
        phi = rng.uniform(0.1, 3.0)
        single = scheme == "single"
        order = 2 if single else 4

        def quantum():
            if single:
                return PassvSpec(lam, m).table()
            return SpatsvSpec(lam, m).table()

        lossy = _kernel(quantum, mu, psi, phi, eta)
        # the same ports over thinned inputs: the quantum table and the
        # coherent state, whose mean photons thin to eta mu (exact: 106 bits)
        thinned = _kernel(lambda: apply_loss(quantum(), mp.mpf(eta)),
                          mp.mpf(mu) * eta, psi, phi, 1.0)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                want = _exact(thinned.entry(i, j))
                got = _exact(lossy.entry(i, j))
                assert abs(got - want) <= 1e-45 * (1 + abs(want)), (i, j)


def _stirling2(n: int, k: int) -> int:
    """S(n, k) by the recursion S(n, k) = k S(n - 1, k) + S(n - 1, k - 1)."""
    if k == n:
        return 1
    if not 0 < k < n:
        return 0
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_the_stirling_table_matches_the_recursion():
    # every (n, k) port_expectation can read: n up to the order of the
    # largest input table, 16; the figures of merit read n <= 4
    assert [len(row) for row in opalg._STIRLING2] == list(range(1, 18))
    for n, row in enumerate(opalg._STIRLING2):
        assert row == [_stirling2(n, k) for k in range(n + 1)], n

