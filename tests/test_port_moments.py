"""The port-moment kernel against the general operator algebra of reference.py.

Each scene is drawn from a seeded stream with chi != 0, psi off {0, pi/2},
eta < 1 and phase jets in u and v.  The reference contracts the same port
observables through the interferometer images over the thinned input
tables, as the read-out engine did before it read everything from F.
"""

import random

import mpmath as mp
import pytest

from photsub import moments, opalg
from photsub.opalg import Jet
from reference import (
    OperatorPolynomial,
    coherent_table,
    contract,
    mono,
    multiply,
    power,
)

SLOTS = ("f", "d1", "d2", "d12")


def _mzi(phi, slot):
    e = mp.expj(phi)
    j = Jet(e, d1=1j * e) if slot == 1 else Jet(e, d2=1j * e)
    return (j + 1) * mp.mpf(0.5), (j - 1) * mp.mpf(0.5)


def _scene(scheme, rng):
    """(kernel ports, lossless quantum table, alpha, eta, reference images, tables)."""
    alpha = mp.sqrt(rng.uniform(0.5, 4.0)) * mp.expj(rng.uniform(0.1, 1.4))
    eta = mp.mpf(rng.uniform(0.5, 0.95))
    lam, m, chi = rng.uniform(0.1, 2.0), rng.randrange(4), rng.uniform(0.2, 1.0)
    u1, v1 = _mzi(rng.uniform(0.1, 3.0), 1)
    if scheme == "single":
        quantum = moments.passv_moment_table(lam, m, chi=chi)
        ports = (({0: v1}, u1 * alpha), ({0: u1}, v1 * alpha))
        images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
        tables = [
            moments.apply_loss(coherent_table(alpha, mode=0), eta),
            moments.apply_loss(moments.passv_moment_table(lam, m, chi=chi, mode=1), eta),
        ]
        return ports, quantum, eta, images, tables, 2
    quantum = moments.spatsv_moment_table(lam, m, max_order=8, chi=chi)
    u2, v2 = _mzi(rng.uniform(0.1, 3.0), 2)
    ports = (({0: u1}, v1 * alpha), ({1: u2}, v2 * alpha))
    beta = alpha * mp.sqrt(eta)
    images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
    return ports, quantum, eta, images, [moments.apply_loss(quantum, eta)], 4


def _number_power(mode, n):
    return power(OperatorPolynomial.number(mode), n)


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_port_moments_match_reference_contraction(scheme, seed):
    rng = random.Random(seed)
    with mp.workdps(60):
        ports, quantum, eta, images, tables, order = _scene(scheme, rng)
        table = moments.apply_loss(opalg.port_moments(ports, quantum, order), eta)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                poly = OperatorPolynomial({mono((0, i, i), (1, j, j)): 1})
                want, want_scale = contract(poly, images, tables)
                got = table.entry((i, i, j, j))
                for slot in SLOTS:
                    diff = getattr(Jet.lift(got.value), slot) - getattr(Jet.lift(want), slot)
                    assert abs(diff) <= 1e-40 * want_scale, (i, j, slot)
                assert got.scale == pytest.approx(want_scale, rel=1e-12)
                # the ordinary moment <N_a^i N_b^j> through the Stirling transform
                poly = multiply(_number_power(0, i), _number_power(1, j))
                want, want_scale = contract(poly, images, tables)
                got, got_scale = opalg.port_expectation(table, {(i, j): 1})
                for slot in SLOTS:
                    diff = getattr(Jet.lift(got), slot) - getattr(Jet.lift(want), slot)
                    assert abs(diff) <= 1e-40 * want_scale, (i, j, slot)
                assert got_scale == pytest.approx(want_scale, rel=1e-12)


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_loss_scales_port_moments_by_eta_to_the_order(scheme, seed):
    rng = random.Random(100 + seed)
    with mp.workdps(50):
        ports, quantum, eta, _, _, order = _scene(scheme, rng)
        lossless = opalg.port_moments(ports, quantum, order)
        # the same ports over thinned inputs: the quantum table and the
        # displacement, which is linear in the coherent amplitude
        root = mp.sqrt(eta)
        thinned_ports = tuple((coeffs, delta * root) for coeffs, delta in ports)
        thinned = opalg.port_moments(thinned_ports, moments.apply_loss(quantum, eta), order)
        for i in range(order + 1):
            for j in range(order + 1 - i):
                want = Jet.lift(thinned.entry((i, i, j, j)).value)
                got = Jet.lift(eta ** (i + j) * lossless.entry((i, i, j, j)).value)
                for slot in SLOTS:
                    diff = getattr(got, slot) - getattr(want, slot)
                    assert abs(diff) <= 1e-45 * (1 + abs(want.f)), (i, j, slot)
