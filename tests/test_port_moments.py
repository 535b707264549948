"""The port-moment kernel against the general operator algebra of reference.py.

Each scene is drawn from a seeded stream with chi != 0, psi off {0, pi/2}
and eta < 1.  The reference contracts the same port observables through
the interferometer images over the thinned input tables, with the phase
derivatives carried as jets on u and v (slot 1 for phi, or phi1 and phi2
for the two correlated ports); the kernel reads them from closed forms.
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
        x, y, z = (fixed_exact(w, coefficients.bits) for w in (abs(u) ** 2, abs(v) ** 2,
                                                                mp.conj(u) * v))
        return opalg.PortMoments(coefficients, x, y, z, eta)


def _exact(x: moments.Bounded):
    return mp.mpf(x.man) * mp.mpf(2) ** x.exp


def _scene(scheme, rng):
    """(kernel port moments, reference images, tables, order)."""
    mu, psi = rng.uniform(0.5, 4.0), rng.uniform(0.1, 1.4)
    alpha = mp.sqrt(mu) * mp.expj(psi)
    eta = rng.uniform(0.5, 0.95)
    lam, m, chi = rng.uniform(0.1, 2.0), rng.randrange(4), rng.uniform(0.2, 1.0)
    phi = rng.uniform(0.1, 3.0)
    u1, v1 = _mzi(phi, 1)
    if scheme == "single":
        ports = _kernel(lambda: moments.passv_moment_table(lam, m, chi=chi), mu, psi, phi, eta)
        images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
        tables = [
            apply_loss(coherent_table(alpha, mode=0), mp.mpf(eta)),
            apply_loss(moments.passv_moment_table(lam, m, chi=chi, mode=1), mp.mpf(eta)),
        ]
        return ports, images, tables, 2
    ports = _kernel(
        lambda: moments.spatsv_moment_table(lam, m, max_order=8, chi=chi), mu, psi, phi, eta
    )
    u2, v2 = _mzi(phi, 2)
    beta = alpha * mp.sqrt(eta)
    images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
    quantum = moments.spatsv_moment_table(lam, m, max_order=8, chi=chi)
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
                got = opalg.port_expectation(ports, {(i, j): 1})
                _check(got, want, want_scale, i, j)


@pytest.mark.parametrize("seed", range(3))
def test_single_slope_matches_the_reference_jet(seed):
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, _ = _scene("single", rng)
        poly = OperatorPolynomial({mono((0, 1, 1)): 1, mono((1, 1, 1)): -1})
        want, want_scale = contract(poly, images, tables)
        got = ports.slope()
        assert abs(_exact(got) - mp.re(Jet.lift(want).d1)) <= 1e-40 * want_scale


@pytest.mark.parametrize("seed", range(3))
def test_mixed_derivative_matches_the_reference_jet(seed):
    rng = random.Random(seed)
    with mp.workdps(DPS):
        ports, images, tables, _ = _scene("correlated", rng)
        poly = OperatorPolynomial({mono((0, 1, 1), (1, 1, 1)): 1})
        want, want_scale = contract(poly, images, tables)
        got = ports.mixed()
        assert abs(_exact(got) - mp.re(want.d12)) <= 1e-40 * want_scale


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_loss_scales_port_moments_by_eta_to_the_order(scheme, seed):
    rng = random.Random(100 + seed)
    with mp.workdps(50):
        mu, psi = rng.uniform(0.5, 4.0), rng.uniform(0.1, 1.4)
        eta = rng.uniform(0.5, 0.95)
        lam, m, chi = rng.uniform(0.1, 2.0), rng.randrange(4), rng.uniform(0.2, 1.0)
        phi = rng.uniform(0.1, 3.0)
        single = scheme == "single"
        order = 2 if single else 4

        def quantum():
            if single:
                return moments.passv_moment_table(lam, m, chi=chi)
            return moments.spatsv_moment_table(lam, m, max_order=8, chi=chi)

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

