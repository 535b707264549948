"""Reuse across sweep points: input tables, compiled port moments and
balancing roots are built once per key, stay correct and stay bounded."""

from math import pi

import mpmath as mp
import pytest

from photsub import metrology, moments, opalg, states
from photsub.experiments import SweepConfig, run_sweep
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec


def _counted(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name``; returns the list of their args."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _clear(memos) -> None:
    for memo in memos:
        memo.cache_clear()


def _sweep(**kwargs):
    base = dict(scheme="correlated", m_list=(1, 2), metrics=("U_norm",), lam=2.0,
                mu=1e12, phi=1e-6, psi=pi / 2, eta=0.98)
    rows = run_sweep(SweepConfig(**{**base, **kwargs})).rows
    assert all(row.flag == "ok" for row in rows)
    return rows


def test_eta_sweep_builds_port_moments_once_per_order_and_jet(monkeypatch):
    compiled = _counted(monkeypatch, opalg, "PortCoefficients")
    inputs = _counted(monkeypatch, moments, "spatsv_moment_table")
    _sweep(axis="eta", values=(0.6, 0.8, 1.0))
    # one compilation per m serves the values and the analytic derivatives
    assert len(compiled) == 2
    assert len(inputs) == 2


def test_phi_sweep_builds_one_input_table_per_order(monkeypatch):
    compiled = _counted(monkeypatch, opalg, "PortCoefficients")
    ports = _counted(monkeypatch, opalg, "PortMoments")
    inputs = _counted(monkeypatch, moments, "spatsv_moment_table")
    _sweep(axis="phi", values=(1e-7, 1e-6, 1e-5))
    assert len(inputs) == 2
    # the coefficients are compiled without phi: once per m, summed per point
    assert len(compiled) == 2
    assert len(ports) == 3 * 2


def test_an_eta_sweep_equals_fresh_points(memos):
    etas = (0.6, 0.8, 1.0)
    rows = _sweep(axis="eta", values=etas)
    fresh = []
    for eta in etas:
        _clear(memos)
        fresh += _sweep(axis="eta", values=(eta,))
    assert rows == tuple(fresh)


def test_alternating_phases_on_one_family_give_fresh_values(memos):
    # U (phase phi) and qfi (port entries (1/2, 1/2)) share one compiled family
    cfgs = [SingleMziConfig(PassvSpec(1.3, 2), mu=1e8, phi=phi, psi=0.2, eta=eta)
            for phi, eta in ((1.1, 0.9), (1.1, 0.7), (0.4, 0.9))]
    metrics = (metrology.single_phase_uncertainty, metrology.qfi)
    calls = [(metric, cfg) for cfg in cfgs + cfgs[:1] for metric in metrics]
    memoised = [metric(cfg) for metric, cfg in calls]
    assert metrology._port_coefficients.cache_info().currsize == 1
    fresh = []
    for metric, cfg in calls:
        _clear(memos)
        fresh.append(metric(cfg))
    assert memoised == fresh


def test_balanced_sweep_solves_each_root_once(monkeypatch):
    roots = _counted(monkeypatch, states, "_nearest_root")
    _sweep(axis="phi", values=(1e-7, 1e-6, 1e-5), balanced=True)
    assert len(roots) == 2
    _sweep(axis="eta", values=(0.6, 0.8), balanced=True)
    assert len(roots) == 2


_SCENES = (
    CorrelatedConfig(SpatsvSpec(2.0, 2), mu=1e12, phi=1e-5, psi=pi / 2, eta=0.98),
    SingleMziConfig(PassvSpec(1.3, 2), mu=1e8, phi=pi / 2 - 0.3, psi=0.2, eta=0.9),
)


def _values(cfg, digits) -> tuple:
    """Port moments at working precision, and the public figures of merit."""
    single = isinstance(cfg, SingleMziConfig)
    ports = metrology._scene(cfg, dps=digits)
    exact = tuple(
        (x.man, x.err, x.exp)
        for x in [opalg.port_expectation(ports, {(p, q): 1})
                  for p, q in ((1, 0), (1, 1), (2, 2)) if p + q <= (2 if single else 4)]
        + [ports.slope() if single else ports.mixed()]
    )
    if single:
        figures = (metrology.single_phase_uncertainty(cfg, dps=digits),
                   metrology.qfi(cfg, dps=digits))
    else:
        figures = (metrology.correlated_uncertainty(cfg, dps=digits),
                   metrology.nrf(cfg, dps=digits))
    return exact, figures


@pytest.mark.parametrize("cfg", _SCENES, ids=("correlated", "single"))
def test_working_digits_are_part_of_every_memo_key(cfg, memos):
    assert metrology._port_coefficients in memos
    sequence = (50, None, 50)
    memoised = [_values(cfg, digits) for digits in sequence]
    fresh = []
    for digits in sequence:
        _clear(memos)
        fresh.append(_values(cfg, digits))
    assert memoised == fresh
    # the two precisions give different port moments, so a memo that
    # ignored the digits would hand the second call the first call's tables
    assert memoised[0][0] != memoised[1][0]


def test_memos_stay_bounded(memos):
    assert {metrology._port_coefficients, states._balance_root} <= set(memos)
    values = tuple(0.5 + 0.25 * i for i in range(metrology._MEMO_SIZE + 4))
    run_sweep(SweepConfig(scheme="single", axis="lam", values=values, m_list=(1,),
                          metrics=("U", "qfi"), mu=100.0, balanced=True))
    for memo in memos:
        info = memo.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def test_a_memoised_table_fills_at_its_own_digits():
    # each family reads its table at its own bits, whatever the caller's
    # mpmath precision, and families at other digits share no entry
    key, fresh = (2, 2, 2, 2), moments.spatsv_moment_table(2.0, 2, chi=0.0)
    for digits in (50, 20):
        coefficients = metrology._port_coefficients(SpatsvSpec(2.0, 2), 1e12, pi / 2, digits)
        with mp.workdps(70 - digits):
            coefficients.fold((((2, 2), 1),))
            entry = coefficients.moment(key)
        assert entry == fresh.fixed(key, coefficients.bits)
        assert max(abs(entry[0]), abs(entry[1])).bit_length() == coefficients.bits
