"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layertrace  # noqa: E402
import one_pass  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_spec_names_every_workload():
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_run_prints_every_metric_and_passes_references(workload):
    proc = _bench("--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0")
    result = _result(proc)
    _check_metrics(result, SPEC["end_to_end"])
    for m in result["metrics"].values():
        assert m["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_prints_every_layer_metric(workload):
    proc = _bench("--workload", workload, "--seed", "2", "--seconds", "1", "--trace", "1")
    _check_metrics(_result(proc), SPEC["per_layer"])


#: one or two functions of each module, timed by plain timers under the spans
INDEPENDENTLY_TIMED = (
    "experiments.run_sweep", "experiments.oracle_compare",
    "metrology.correlated_uncertainty", "metrology.single_phase_uncertainty",
    "opalg.substitute", "opalg.expect",
    "moments.passv_moment_table", "moments.spatsv_moment_table",
    "states.balance_energy", "states.passv_mean_photons",
    "fock.oracle_interferometer", "fock.apply_two_mode_unitary",
)


def _timer(fn, stats):
    @functools.wraps(fn)  # keeps __module__, so the tracer wraps the timer
    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            stats[0] += 1
            stats[1] += perf_counter() - t0

    return timed


@contextlib.contextmanager
def _independent_timers(names):
    """Plain timers around the named functions, at every module attribute
    that holds them; yields {name: [calls, seconds]}."""
    import photsub

    stats, patched = {}, []
    by_short = {layertrace._short(m): m for m in layertrace.MODULES}
    for name in names:
        short, attr = name.split(".")
        fn = getattr(by_short[short], attr)
        stats[name] = [0, 0.0]
        timer = _timer(fn, stats[name])
        for ns in (photsub,) + layertrace.MODULES:
            for other, value in list(vars(ns).items()):
                if value is fn:
                    patched.append((ns, other, fn))
                    setattr(ns, other, timer)
    try:
        yield stats
    finally:
        for ns, attr, fn in reversed(patched):
            setattr(ns, attr, fn)


@pytest.mark.parametrize("workload", NAMES)
def test_layer_times_account_for_traced_wall(workload):
    ops = workloads.build_ops(workload, 3, 0.5)[:3]
    with _independent_timers(INDEPENDENTLY_TIMED) as timed:
        with layertrace.Tracer() as tracer:
            wall, latencies, results, slowdown = one_pass.measure(ops, workloads.run_op)
    assert not one_pass.check(ops, results, workloads)
    assert wall == sum(latencies) and slowdown > 0
    assert all(v >= 0 for v in tracer.self_s.values())
    # self times add up to the time inside the benchmark's calls ...
    assert tracer.self_sum() == pytest.approx(tracer.root_s, rel=1e-9)
    # ... and the benchmark's own time outside every span is small
    own = wall - tracer.root_s
    assert 0 <= own <= 0.05 * wall
    # every layer's span total agrees with a timer the tracer does not own
    reached = {name: s for name, s in timed.items() if s[0]}
    entry = "experiments.oracle_compare" if workload == "oracle_check" else "experiments.run_sweep"
    assert entry in reached and len({n.split(".")[0] for n in reached}) >= 3
    for name, (calls, seconds) in reached.items():
        assert tracer.calls[name] == calls, name
        assert seconds <= tracer.total_s[name] <= 1.05 * seconds + 50e-6 * calls, name


def test_tracer_restores_every_patched_attribute():
    from photsub import experiments, moments, states

    before = (experiments.balance_energy, states.balance_energy, moments.MomentTable.entry)
    with layertrace.Tracer():
        assert experiments.balance_energy is states.balance_energy
        assert experiments.balance_energy is not before[0]
    assert (experiments.balance_energy, states.balance_energy,
            moments.MomentTable.entry) == before


def test_op_stream_is_seeded_and_stratified():
    two_blocks = 2 * workloads.PASSES * workloads.WORKLOADS["balanced_scatter"].block_s
    a = workloads.build_ops("balanced_scatter", 7, two_blocks)
    b = workloads.build_ops("balanced_scatter", 7, two_blocks)
    c = workloads.build_ops("balanced_scatter", 8, two_blocks)
    assert a == b and a != c and len(a) == 80
    cells = [op.scene["cell"] for op in a]
    for cell, n in workloads.WORKLOADS["balanced_scatter"].block.items():
        assert cells.count(cell) == 2 * n
    lams = [op.scene["values"][0] for op in a if op.scene["sweep"]["axis"] == "lam"]
    lams += [op.scene["sweep"]["lam"] for op in a if op.scene["sweep"]["axis"] != "lam"]
    assert len(set(lams)) == len(lams)  # no two ops share lambda


def _keys(scenes):
    return {json.dumps(scene, sort_keys=True) for scene in scenes}


@pytest.mark.parametrize("workload", NAMES)
def test_held_out_seed_draws_a_disjoint_part_of_the_pool(workload):
    pool = workloads.load_pool(workload)
    assert not _keys(pool["scenes"]) & _keys(pool["held_out"])
    workloads.build_ops(workload, 1, 60)  # the main part holds a 60-second run
    held = workloads.build_ops(workload, workloads.HELD_OUT_SEED, SPEC["run_seconds"])
    assert _keys(op.scene for op in held) <= _keys(pool["held_out"])
    ops = held[:2]
    _, _, results, _ = one_pass.measure(ops, workloads.run_op)
    assert not one_pass.check(ops, results, workloads)


def test_sharing_shares():
    cov = workloads.build_ops("covariance_sweep", 1, SPEC["run_seconds"])
    assert len(cov) == 8 * 6
    assert workloads.repeat_share(workloads.table_key(op) for op in cov) > 0.8
    assert workloads.repeat_share(workloads.balance_key(op) for op in cov) > 0.8
    scatter = workloads.build_ops("balanced_scatter", 1, SPEC["run_seconds"])
    assert workloads.repeat_share(workloads.table_key(op) for op in scatter) == 0.0
    assert workloads.repeat_share(workloads.balance_key(op) for op in scatter) == 0.0


def test_tail_percentile_keeps_ten_ops_beyond():
    value, pct, beyond = run.tail([float(i) for i in range(40)])
    assert (value, pct, beyond) == (29.0, 75.0, 10)
    assert run.tail([3.0, 1.0])[0] == 3.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_refuses_to_run_with_photsub_digits():
    env = dict(os.environ, PHOTSUB_DIGITS="30")
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
