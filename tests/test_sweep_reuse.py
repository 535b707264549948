"""Reuse across sweep points: input tables, compiled port moments and
balancing roots are built once per key, stay correct and stay bounded."""

import importlib
import pkgutil
from math import pi

import mpmath as mp
import pytest
from conftest import MEMOS, clear

import photsub
from photsub import metrology, moments, opalg, states
from photsub.experiments import (
    JOINT_DISTRIBUTION_PRESET, PRESETS, SweepConfig, run_preset, run_sweep)
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec


def _counted(monkeypatch, module, name) -> list:
    """Count the calls of ``module.name`` (or a class's method); returns the list of their args."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _sweep(**kwargs):
    base = dict(scheme="correlated", m_list=(1, 2), metrics=("U_norm",), lam=2.0,
                mu=1e12, phi=1e-6, psi=pi / 2, eta=0.98)
    rows = run_sweep(SweepConfig(**{**base, **kwargs})).rows
    assert all(row.flag == "ok" for row in rows)
    return rows


def test_eta_sweep_builds_port_moments_once_per_order_and_jet(monkeypatch):
    compiled = _counted(monkeypatch, opalg, "PortCoefficients")
    inputs = _counted(monkeypatch, SpatsvSpec, "table")
    _sweep(axis="eta", values=(0.6, 0.8, 1.0))
    # one compilation per m serves the values and the analytic derivatives
    assert len(compiled) == 2
    assert len(inputs) == 2


def test_phi_sweep_builds_one_input_table_per_order(monkeypatch):
    compiled = _counted(monkeypatch, opalg, "PortCoefficients")
    ports = _counted(monkeypatch, opalg, "PortMoments")
    inputs = _counted(monkeypatch, SpatsvSpec, "table")
    _sweep(axis="phi", values=(1e-7, 1e-6, 1e-5))
    assert len(inputs) == 2
    # the coefficients are compiled without phi: once per m, summed per point
    assert len(compiled) == 2
    assert len(ports) == 3 * 2


@pytest.mark.parametrize("axis", ("phi", "eta"))
def test_every_order_at_a_working_point_reads_one_point(monkeypatch, memos, axis):
    # the port entries are formed once per phi and their monomials once per
    # (phi, eta), not once per order: each point's (n, k) once, all orders read it
    formed, missing = [], opalg.PortPoint.__missing__

    def counted(point, nk):
        formed.append((id(point), nk))
        return missing(point, nk)

    monkeypatch.setattr(opalg.PortPoint, "__missing__", counted)
    values = (1e-7, 1e-6, 1e-5) if axis == "phi" else (0.6, 0.8, 1.0)
    assert len(_sweep(axis=axis, values=values, m_list=(0, 1, 2, 3))) == 12
    assert metrology._mzi_entries.cache_info().misses == (3 if axis == "phi" else 1)
    assert metrology._point.cache_info().misses == 3
    assert len({point for point, _ in formed}) == 3 and len(set(formed)) == len(formed)


def test_an_eta_sweep_equals_fresh_points(memos):
    etas = (0.6, 0.8, 1.0)
    rows = _sweep(axis="eta", values=etas)
    fresh = []
    for eta in etas:
        clear()
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
        clear()
        fresh.append(metric(cfg))
    assert memoised == fresh


#: the work of a family's derivative constants (they read input entries and
#: displacements) and of the observables' weights (formed at import)
_FAMILY_WORK = ((moments.MomentTable, "fixed"), (opalg._Displacements, "__missing__"),
                (opalg, "normal_ordered"), (metrology, "_times"))


@pytest.mark.parametrize("sweep", [
    dict(scheme="correlated", metrics=("U_norm",), lam=2.0, mu=1e12, psi=pi / 2, eta=0.98,
         values=(1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3)),
    dict(scheme="single", metrics=("U",), lam=1.3, mu=1e8, psi=0.2, eta=0.9,
         values=(0.3, 0.6, 0.9, 1.2, 1.5, 1.8)),
], ids=("U_norm", "U"))
def test_a_phase_point_forms_no_family_constant_or_weight(monkeypatch, memos, sweep):
    calls = [_counted(monkeypatch, owner, name) for owner, name in _FAMILY_WORK]
    counts = []
    for values in (sweep["values"][:1], sweep["values"]):
        clear()
        for c in calls:
            c.clear()
        rows = run_sweep(SweepConfig(**{**sweep, "values": values}, axis="phi", m_list=(2,))).rows
        assert [row.flag for row in rows] == ["ok"] * len(values)
        counts.append([len(c) for c in calls])
    # six points read what one point reads: every read is per family
    assert counts[1] == counts[0]
    assert counts[0][2:] == [0, 0]


def test_families_at_one_coherent_state_share_its_displacements(monkeypatch, memos):
    # the displacements depend on (mu, psi, bits) alone: a second family
    # there, another lam, forms no displacement and asks for no phase
    _sweep(axis="phi", values=(1e-6,), m_list=(2,))
    compiled = _counted(monkeypatch, opalg, "PortCoefficients")
    phases = _counted(monkeypatch, moments, "cos_sin")
    shifts = _counted(monkeypatch, opalg, "fixed_from")
    _sweep(axis="phi", values=(1e-6,), m_list=(2,), lam=0.5)
    assert len(compiled) == 1
    assert phases == []
    assert shifts == []
    assert opalg._displacements.cache_info()[:2] == (1, 1)  # (hits, misses)


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
    """Port moments at ``digits`` working digits, and the figures of merit
    there, or the public figures for None and the moments at the default's
    first attempt."""
    single = isinstance(cfg, SingleMziConfig)
    ports = metrology._scene(cfg, digits or moments.START_DIGITS)
    exact = tuple(
        (x.man, x.err, x.exp)
        for x in [ports.expect(opalg.normal_ordered({(p, q): 1}))
                  for p, q in ((1, 0), (1, 1), (2, 2)) if p + q <= (2 if single else 4)]
        + [ports.expect(metrology._DIFFERENCE_WEIGHTS[0], "slope") if single
           else ports.expect((((1, 1), 1),), "mixed")]
    )
    public = (metrology.single_phase_uncertainty, metrology.qfi) if single else (
        metrology.correlated_uncertainty, metrology.nrf)
    figures = tuple(f.__wrapped__(cfg, digits) if digits else f(cfg) for f in public)
    return exact, figures


@pytest.mark.parametrize("cfg", _SCENES, ids=("correlated", "single"))
def test_working_digits_are_part_of_every_memo_key(cfg, memos):
    assert metrology._port_coefficients in memos
    sequence = (50, None, 50)
    memoised = [_values(cfg, digits) for digits in sequence]
    fresh = []
    for digits in sequence:
        clear()
        fresh.append(_values(cfg, digits))
    assert memoised == fresh
    # the two precisions give different port moments, so a memo that
    # ignored the digits would hand the second call the first call's tables
    assert memoised[0][0] != memoised[1][0]


#: the process-constant tables, the only unbounded memos: their keys are
#: finite (orders up to 200, the figures' observables, pi's bit sizes)
_PROCESS_TABLES = {moments._pi, moments._lam_free, opalg._plan, states._mean_photon_map}


def test_memos_stay_bounded(memos):
    bounded = {metrology._port_coefficients, metrology._mzi_entries, metrology._point,
               opalg._displacements, states._balance_root}
    assert bounded <= set(memos)
    # a new unbounded memo has to join _PROCESS_TABLES, a visible decision
    assert {memo for memo in memos if memo.cache_info().maxsize is None} == _PROCESS_TABLES
    values = tuple(0.5 + 0.25 * i for i in range(moments.MEMO_SIZE + 4))
    run_sweep(SweepConfig(scheme="single", axis="lam", values=values, m_list=(1,),
                          metrics=("U", "qfi"), mu=100.0, balanced=True))
    # the point memos key on phi, so a phase sweep drives them past their size
    run_sweep(SweepConfig(scheme="single", axis="phi", values=values, m_list=(1,),
                          metrics=("U",), mu=100.0))
    # the displacement block keys on mu, so a mu sweep drives it past its size
    run_sweep(SweepConfig(scheme="single", axis="mu", values=values, m_list=(1,),
                          metrics=("U",)))
    for memo in set(memos) - _PROCESS_TABLES:
        info = memo.cache_info()
        assert info.maxsize == moments.MEMO_SIZE
        assert info.misses > info.maxsize
        assert info.currsize <= info.maxsize


def test_a_memoised_table_fills_at_its_own_digits():
    # each family reads its table at its own bits, whatever the caller's
    # mpmath precision, and families at other digits share no entry
    key, fresh = (2, 2, 2, 2), SpatsvSpec(2.0, 2).table()
    for digits in (50, 20):
        coefficients = metrology._port_coefficients(SpatsvSpec(2.0, 2), 1e12, pi / 2, digits)
        with mp.workdps(70 - digits):
            coefficients.fold(opalg._plan(False, (((2, 2), 1),), 1j, None))
            entry = coefficients._moments[key]
        assert entry == fresh.fixed(key, coefficients.bits)
        assert max(abs(entry[0]), abs(entry[1])).bit_length() == coefficients.bits


def test_every_test_starts_with_the_memos_empty():
    # the autouse fixture of conftest empties every memo it finds, the
    # process tables among them, which an earlier test's sweep filled
    assert _PROCESS_TABLES <= set(MEMOS)
    assert all(memo.cache_info().currsize == 0 for memo in MEMOS)


def test_no_module_level_container_grows_over_the_presets():
    # a memo is a functools cache, which conftest finds and empties: a dict,
    # list or set at module level that a run fills would carry one test's
    # state into the next
    modules = [photsub] + [importlib.import_module(f"photsub.{info.name}")
                           for info in pkgutil.iter_modules(photsub.__path__)]

    def sizes() -> dict:
        return {(module.__name__, name): len(value)
                for module in modules for name, value in vars(module).items()
                if isinstance(value, (dict, list, set)) and not name.startswith("__")}

    before = sizes()
    assert len(before) >= 10
    for name in (*PRESETS, JOINT_DISTRIBUTION_PRESET):
        run_preset(name)
    assert sizes() == before
