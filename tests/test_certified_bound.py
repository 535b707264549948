"""The certified error bounds of the port-moment kernel hold.

At working digits, every port moment, phase slope, mixed derivative and
variance a figure of merit reads must lie within its certified bound of a
120-digit value: on every point of the fig1b, fig1c and fig9a-fig10b
presets against the kernel at 120 digits, and on seeded scenes at user
digits 16-30 against the general operator algebra of reference.py.
"""

import random
from math import pi

import mpmath as mp
import pytest

from photsub import experiments, metrology, moments, opalg
from photsub.errors import PhotsubError
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec
from reference import Jet, OperatorPolynomial, apply_loss, coherent_table, contract, mono

REFERENCE_DPS = 120


def _reads(cfg, dps) -> dict:
    """Every certified quantity the figures of merit of ``cfg`` read."""
    single = isinstance(cfg, SingleMziConfig)
    order = 2 if single else 4
    poly = metrology._DIFFERENCE if single else metrology._COVARIANCE
    ports = metrology._scene(cfg, dps)
    out = {(i, j): ports.entry(i, j) for i in range(order + 1) for j in range(order + 1 - i)}
    if single:
        out["slope"] = ports.expect(metrology._DIFFERENCE_WEIGHTS[0], "slope")
    else:
        out["mixed"] = ports.expect((((1, 1), 1),), "mixed")
    second = ports.expect(opalg.normal_ordered(metrology._times(poly, poly)))
    out["variance"] = second - ports.expect(opalg.normal_ordered(poly)).squared()
    return out


def _exact(x: moments.Bounded):
    return mp.mpf(x.man) * mp.mpf(2) ** x.exp


def _assert_within(got: dict, want: dict, what) -> None:
    """|got - want| within the bounds of both; ``want`` holds (value, bound)."""
    with mp.workdps(2 * REFERENCE_DPS):
        for key, x in got.items():
            value, bound = want[key]
            assert abs(_exact(x) - value) <= mp.mpf(x.err) * mp.mpf(2) ** x.exp + bound, (what, key)


def _preset_scenes(name):
    cfg = experiments.PRESETS[name]
    for value in cfg.values:
        params = experiments._scene_params(cfg, value)
        for m in cfg.m_list:
            try:
                yield experiments._scene(cfg.scheme, m, balanced=cfg.balanced, **params)
            except PhotsubError:
                continue  # a balancing target out of reach: the row is flagged


@pytest.mark.parametrize("name", ["fig1b", "fig1c", "fig9a", "fig9b", "fig9c", "fig10a", "fig10b"])
def test_bound_holds_on_every_preset_point(name):
    count = 0
    for cfg in _preset_scenes(name):
        reference = _reads(cfg, REFERENCE_DPS)
        with mp.workdps(2 * REFERENCE_DPS):
            want = {key: (_exact(x), mp.mpf(x.err) * mp.mpf(2) ** x.exp)
                    for key, x in reference.items()}
        _assert_within(_reads(cfg, moments.START_DIGITS), want, (name, cfg))
        count += 1
    assert count >= 80


def _mzi(phi, slot):
    e = mp.expj(phi)
    j = Jet(e, d1=1j * e) if slot == 1 else Jet(e, d2=1j * e)
    return (j + 1) * mp.mpf(0.5), (j - 1) * mp.mpf(0.5)


def _reference(cfg) -> dict:
    """The quantities of :func:`_reads` from the operator algebra, with jets."""
    single = isinstance(cfg, SingleMziConfig)
    spec, eta = cfg.quantum, mp.mpf(cfg.eta)
    alpha = mp.sqrt(mp.mpf(cfg.mu)) * mp.expj(cfg.psi)
    u1, v1 = _mzi(cfg.phi, 1)
    if single:
        images = {0: ({0: u1, 1: v1}, 0), 1: ({0: v1, 1: u1}, 0)}
        quantum = spec.table()
        tables = [apply_loss(coherent_table(alpha, mode=0), eta),
                  apply_loss(quantum, eta, mode=1)]
    else:
        u2, v2 = _mzi(cfg.phi, 2)
        beta = alpha * mp.sqrt(eta)
        images = {0: ({0: u1}, v1 * beta), 1: ({1: u2}, v2 * beta)}
        quantum = spec.table()
        tables = [apply_loss(quantum, eta)]
    order = 2 if single else 4
    out = {}
    for i in range(order + 1):
        for j in range(order + 1 - i):
            poly = OperatorPolynomial({mono((0, i, i), (1, j, j)): 1})
            out[i, j] = Jet.lift(contract(poly, images, tables)[0])
    if single:
        out["slope"] = out[1, 0].d1 - out[0, 1].d1
    else:
        out["mixed"] = out[1, 1].d12
    # the reference's own rounding at 120 digits, far below any bound tested
    return {key: (mp.re(value.f if isinstance(value, Jet) else value), mp.mpf(0))
            for key, value in out.items()}


def _seeded(scheme, seed):
    rng = random.Random(seed)
    lam, m = rng.uniform(0.05, 5.0), rng.randrange(4)
    scene = dict(mu=10 ** rng.uniform(0, 6), phi=rng.uniform(0.01, 3.0),
                 psi=rng.uniform(0.0, pi), eta=rng.uniform(0.5, 1.0))
    if scheme == "single":
        return SingleMziConfig(PassvSpec(lam, m), **scene)
    return CorrelatedConfig(SpatsvSpec(lam, m), **scene)


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("seed", range(3))
def test_bound_holds_at_user_digits_against_the_reference(scheme, seed):
    cfg = _seeded(scheme, seed)
    with mp.workdps(REFERENCE_DPS):
        want = _reference(cfg)
    for digits in range(16, 31):
        got = _reads(cfg, digits)
        del got["variance"]  # exact algebra on the entries checked here
        _assert_within(got, want, digits)
