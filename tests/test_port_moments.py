"""The port-moment kernel against the general operator algebra of reference.py.

Each scene is drawn from a seeded stream with chi != 0, psi off {0, pi/2}
and eta < 1.  The reference contracts the same port observables through
the interferometer images over the thinned input tables, with the phase
derivatives carried as jets on u and v (slot 1 for phi, or phi1 and phi2
for the two correlated ports); the kernel derives them analytically.
"""

import random

import mpmath as mp
import pytest

from photsub import moments, opalg
from reference import (
    Jet,
    OperatorPolynomial,
    apply_loss,
    coherent_table,
    contract,
    mono,
    multiply,
    power,
)

DPS = 60


def _mzi(phi, slot):
    e = mp.expj(phi)
    j = Jet(e, d1=1j * e) if slot == 1 else Jet(e, d2=1j * e)
    return (j + 1) * mp.mpf(0.5), (j - 1) * mp.mpf(0.5)


def _kernel(single, quantum, alpha, phi, eta):
    """The kernel's port moments of a scene, its inputs at guard digits.

    ``quantum`` builds the lossless input table.
    """
    with mp.workdps(DPS + moments.GUARD_DIGITS):
        e = mp.expj(phi)
        coefficients = opalg.PortCoefficients(
            single, quantum(), +alpha, mp.libmp.dps_to_prec(DPS)
        )
        return opalg.port_moments(coefficients, (e + 1) / 2, (e - 1) / 2, 1j * e / 2, eta)


def _scene(scheme, rng):
    """(kernel port moments, reference images, tables, order)."""
    alpha = mp.sqrt(rng.uniform(0.5, 4.0)) * mp.expj(rng.uniform(0.1, 1.4))
    eta = rng.uniform(0.5, 0.95)
    lam, m, chi = rng.uniform(0.1, 2.0), rng.randrange(4), rng.uniform(0.2, 1.0)
    phi = rng.uniform(0.1, 3.0)
    u1, v1 = _mzi(phi, 1)
    if scheme == "single":
        ports = _kernel(True, lambda: moments.passv_moment_table(lam, m, chi=chi), alpha, phi, eta)
        images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
        tables = [
            apply_loss(coherent_table(alpha, mode=0), mp.mpf(eta)),
            apply_loss(moments.passv_moment_table(lam, m, chi=chi, mode=1), mp.mpf(eta)),
        ]
        return ports, images, tables, 2
    ports = _kernel(
        False, lambda: moments.spatsv_moment_table(lam, m, max_order=8, chi=chi), alpha, phi, eta
    )
    u2, v2 = _mzi(phi, 2)
    beta = alpha * mp.sqrt(eta)
    images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
    quantum = moments.spatsv_moment_table(lam, m, max_order=8, chi=chi)
    tables = [apply_loss(quantum, mp.mpf(eta))]
    return ports, images, tables, 4


def _number_power(mode, n):
    return power(OperatorPolynomial.number(mode), n)


def _check(got, want, want_scale, slope_of, i, j):
    """The kernel's value and phase slope against the reference jet."""
    want = Jet.lift(want)
    assert abs(got.value - mp.re(want.f)) <= 1e-40 * want_scale, (i, j)
    slope = slope_of()
    assert abs(slope.value - mp.re(want.d1 + want.d2)) <= 1e-40 * want_scale, (i, j)


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
                _check(ports.entry(i, j), want, want_scale,
                       lambda: ports.slope(i, j), i, j)
                # the ordinary moment <N_a^i N_b^j> through the Stirling transform
                poly = multiply(_number_power(0, i), _number_power(1, j))
                want, want_scale = contract(poly, images, tables)
                got = opalg.port_expectation(ports, {(i, j): 1})
                _check(got, want, want_scale,
                       lambda: opalg.port_expectation(ports, {(i, j): 1}, slope=True), i, j)


@pytest.mark.parametrize("seed", range(3))
def test_mixed_derivative_matches_the_reference_jet(seed):
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, _ = _scene("correlated", rng)
        poly = OperatorPolynomial({mono((0, 1, 1), (1, 1, 1)): 1})
        want, want_scale = contract(poly, images, tables)
        got = ports.mixed()
        assert abs(got.value - mp.re(want.d12)) <= 1e-40 * want_scale


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_loss_scales_port_moments_by_eta_to_the_order(scheme, seed):
    rng = random.Random(100 + seed)
    with mp.workdps(50):
        alpha = mp.sqrt(rng.uniform(0.5, 4.0)) * mp.expj(rng.uniform(0.1, 1.4))
        eta = rng.uniform(0.5, 0.95)
        lam, m, chi = rng.uniform(0.1, 2.0), rng.randrange(4), rng.uniform(0.2, 1.0)
        phi = rng.uniform(0.1, 3.0)
        single = scheme == "single"
        order = 2 if single else 4

        def quantum():
            if single:
                return moments.passv_moment_table(lam, m, chi=chi)
            return moments.spatsv_moment_table(lam, m, max_order=8, chi=chi)

        lossy = _kernel(single, quantum, alpha, phi, eta)
        # the same ports over thinned inputs: the quantum table and the
        # displacement, which is linear in the coherent amplitude
        thinned = _kernel(single, lambda: apply_loss(quantum(), mp.mpf(eta)),
                          alpha * mp.sqrt(eta), phi, 1.0)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                want = thinned.entry(i, j).value
                got = lossy.entry(i, j).value
                assert abs(got - want) <= 1e-45 * (1 + abs(want)), (i, j)
