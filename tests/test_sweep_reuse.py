"""Reuse across sweep points: input tables, lossless port moments and
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
    ports = _counted(monkeypatch, opalg, "port_moments")
    inputs = _counted(monkeypatch, moments, "spatsv_moment_table")
    _sweep(axis="eta", values=(0.6, 0.8, 1.0))
    assert len(ports) == 2 * 2  # (m, jet variant)
    assert len(inputs) == 2


def test_phi_sweep_builds_one_input_table_per_order(monkeypatch):
    ports = _counted(monkeypatch, opalg, "port_moments")
    inputs = _counted(monkeypatch, moments, "spatsv_moment_table")
    _sweep(axis="phi", values=(1e-7, 1e-6, 1e-5))
    assert len(inputs) == 2
    assert len(ports) == 3 * 2 * 2  # the ports move with phi


def test_balanced_sweep_solves_each_root_once(monkeypatch):
    roots = _counted(monkeypatch, states, "brentq")
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
    with metrology._scene(cfg, dps=digits) as scene:
        exact = tuple(
            scene.expect({(p, q): 1}, jet=jet)[0]
            for p, q in ((1, 0), (1, 1), (2, 2))
            for jet in (False, True)
            if p + q <= (2 if isinstance(cfg, SingleMziConfig) else 4)
        )
        exact = tuple((v.f, v.d1, v.d2, v.d12) if isinstance(v, opalg.Jet) else v
                      for v in exact)
    if isinstance(cfg, SingleMziConfig):
        figures = (metrology.single_phase_uncertainty(cfg, dps=digits),
                   metrology.qfi(cfg, dps=digits))
    else:
        figures = (metrology.correlated_uncertainty(cfg, dps=digits),
                   metrology.nrf(cfg, dps=digits))
    return exact, figures


@pytest.mark.parametrize("cfg", _SCENES, ids=("correlated", "single"))
def test_working_digits_are_part_of_every_memo_key(cfg, memos):
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
    values = tuple(0.5 + 0.25 * i for i in range(metrology._MEMO_SIZE + 4))
    run_sweep(SweepConfig(scheme="single", axis="lam", values=values, m_list=(1,),
                          metrics=("U", "qfi"), mu=100.0, balanced=True))
    for memo in memos:
        info = memo.cache_info()
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def test_a_memoised_table_fills_at_its_own_digits():
    table = metrology._input_table(False, SpatsvSpec(2.0, 2), 50)
    assert table.dps == 50
    with mp.workdps(20):
        entry = table.entry((2, 2, 2, 2))
    with mp.workdps(50):
        want = moments.spatsv_moment_table(2.0, 2, chi=0.0).entry((2, 2, 2, 2))
    assert entry == want
