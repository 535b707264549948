"""Workloads of the photsub benchmark: scene pools, seeded op streams,
op execution through the public API, and reference checks.

Every workload draws its scenes from a stored pool (``pool/<name>.json``).
Each pool scene carries the parameters of the public call it makes and the
values and flags that call returned when the pool was generated
(``make_pool.py``), so every op of every seed is checked against a stored
reference.  A pool has two disjoint parts: ``scenes``, drawn by every run
seed, and ``held_out``, drawn only by :data:`HELD_OUT_SEED`.  A run's op
stream is a sequence of *blocks*; a block holds a fixed number of scenes of
each stratification cell (order, balancing, scheme...), drawn without
replacement by the run seed and shuffled.  The fixed block
composition keeps the cost mix, and so the timings, the same from seed to
seed.

An op is one call of ``experiments.run_sweep`` on a one-point sweep, or one
call of ``experiments.oracle_compare``: the calls the ``photsub`` CLI makes.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import cache

from photsub import experiments

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_DIR = os.path.join(HERE, "pool")

#: relative tolerance of every value compared against the stored references
REL_TOL = 1e-9

#: the run seed kept for later claims: it alone draws from the pools'
#: held-out parts, so its inputs were never run while the benchmark was built
HELD_OUT_SEED = 9001


#: a run executes its op stream this many times, each time in a fresh
#: process; an op's latency is its best time over these passes
PASSES = 3


@dataclass(frozen=True)
class Workload:
    """How a run of one workload is composed.

    ``block`` maps a pool cell to the number of its scenes in one block;
    ``block_s`` is the wall time one block took at the seed commit on a
    2-vCPU machine, in seconds at that machine's reference speed (see
    ``one_pass.measure``).  ``--seconds`` fixes the amount of work: the op stream
    gets a :data:`PASSES`-th of it, in whole blocks (at least one), so the
    same seconds give the same work on every commit and a faster program
    finishes sooner.  Runs shorter than half a block (the benchmark's own
    tests) take the matching share of one block's ops.
    """

    name: str
    block: dict
    block_s: float


def _covariance_block():
    return {f"m{m}-{b}": 1 for m in range(4) for b in ("unbal", "bal")}


def _scatter_block():
    # twenty single and twenty nrf points; nrf m = 1 points (about 30 ms) are
    # the most numerous, so that the median op lies inside their cluster,
    # above the sixteen single m <= 3 and two nrf m = 0 points (under 10 ms)
    cells = {f"single-{metric}-m{m}": 2 for metric in ("U", "qfi") for m in range(5)}
    cells.update({"nrf-m0": 2, "nrf-m1": 8, "nrf-m2": 5, "nrf-m3": 5})
    return cells


def _oracle_block():
    # per (m, loss): two single scenes, one from each half of the lambda range
    # (lambda sets the quantum cutoff, which sets a single scene's cost), and
    # one correlated scene; the median op then lies inside the single-scheme
    # cluster instead of on its boundary with the slower correlated cluster
    cells = {}
    for m in range(4):
        for loss in ("lossless", "lossy"):
            cells[f"single-m{m}-{loss}-lo"] = 1
            cells[f"single-m{m}-{loss}-hi"] = 1
            cells[f"correlated-m{m}-{loss}"] = 1
    return cells


WORKLOADS = {
    w.name: w
    for w in (
        Workload("covariance_sweep", _covariance_block(), 4.9),
        Workload("balanced_scatter", _scatter_block(), 1.5),
        Workload("oracle_check", _oracle_block(), 8.2),
    )
}


def load_pool(name: str) -> dict:
    with open(os.path.join(POOL_DIR, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Op:
    """One public call: a pool scene and, for sweeps, the grid point index."""

    scene: dict
    index: int = 0


def scene_ops(scene: dict) -> list:
    """A sweep scene expands to one op per grid point, in grid order."""
    if "sweep" in scene:
        return [Op(scene, i) for i in range(len(scene["values"]))]
    return [Op(scene)]


def block_count(name: str, seconds: float) -> int:
    """Whole blocks in the op stream of a run of ``seconds`` (at least one)."""
    return max(1, round(seconds / PASSES / WORKLOADS[name].block_s))


def op_count(name: str, seconds: float) -> int:
    wl = WORKLOADS[name]
    ops_per_block = sum(
        n * len(scene_ops(_example_scene(name, cell))) for cell, n in wl.block.items()
    )
    blocks = seconds / PASSES / wl.block_s
    if blocks >= 0.5:
        return block_count(name, seconds) * ops_per_block
    return max(1, round(blocks * ops_per_block))


def _example_scene(name: str, cell: str) -> dict:
    return _pool_cells(name, "scenes")[cell][0]


@cache
def _pool_cells(name: str, part: str) -> dict:
    """Scenes of one pool part by cell; read-only once loaded."""
    cells: dict = {}
    for scene in load_pool(name)[part]:
        cells.setdefault(scene["cell"], []).append(scene)
    return cells


def build_ops(name: str, seed: int, seconds: float) -> list:
    """The seeded op stream of a run: whole shuffled blocks, truncated to
    the op count ``seconds`` asks for.  Scenes are drawn without replacement,
    so no scene repeats within a run; the held-out seed draws from the
    held-out part of the pool, every other seed from the main part."""
    wl = WORKLOADS[name]
    cells = _pool_cells(name, "held_out" if seed == HELD_OUT_SEED else "scenes")
    rng = random.Random(seed)
    remaining = {cell: rng.sample(cells[cell], len(cells[cell])) for cell in wl.block}
    want = op_count(name, seconds)
    ops: list = []
    while len(ops) < want:
        block = []
        for cell, n in wl.block.items():
            if len(remaining[cell]) < n:
                raise ValueError(
                    f"{name}: pool cell {cell!r} exhausted; ask for fewer seconds"
                )
            block.extend(remaining[cell].pop() for _ in range(n))
        rng.shuffle(block)
        for scene in block:
            ops.extend(scene_ops(scene))
    return ops[:want]


# ---------------------------------------------------------------------------
# Executing ops
# ---------------------------------------------------------------------------


def sweep_config(sweep: dict, value: float) -> experiments.SweepConfig:
    kwargs = dict(sweep)
    kwargs["m_list"] = tuple(kwargs["m_list"])
    kwargs["metrics"] = tuple(kwargs["metrics"])
    return experiments.SweepConfig(values=(value,), **kwargs)


def run_op(op: Op):
    """Make the op's public call; return what the reference stores."""
    scene = op.scene
    if "sweep" in scene:
        cfg = sweep_config(scene["sweep"], scene["values"][op.index])
        row = experiments.run_sweep(cfg).rows[0]
        return [row.value, row.flag]
    cmp = experiments.oracle_compare(**scene["oracle"])
    return {
        "engine": [[label, eng] for label, eng, _, _ in cmp.entries],
        "oracle": [[label, ora] for label, _, ora, _ in cmp.entries],
        "passed": cmp.passed,
    }


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _same_entries(got, want) -> bool:
    return len(got) == len(want) and all(
        gl == wl and _close(gv, wv) for (gl, gv), (wl, wv) in zip(got, want)
    )


def matches_reference(op: Op, result) -> bool:
    """Value within REL_TOL and identical flag (sweeps), or engine and oracle
    moments within REL_TOL (oracle ops).  The oracle's PASS/FAIL verdict is
    not part of the check: FAILs from Fock truncation are expected output."""
    want = op.scene["ref"]
    if "sweep" in op.scene:
        value, flag = result
        return flag == want[op.index][1] and _close(value, want[op.index][0])
    return _same_entries(result["engine"], want["engine"]) and _same_entries(
        result["oracle"], want["oracle"]
    )


# ---------------------------------------------------------------------------
# Sharing: how much work ops could reuse, from the generated inputs alone
# ---------------------------------------------------------------------------


def _target_lam(op: Op) -> float:
    sweep = op.scene["sweep"]
    return op.scene["values"][op.index] if sweep["axis"] == "lam" else sweep["lam"]


def table_key(op: Op) -> tuple:
    """Identifies the exact moment table an op contracts against: the
    balanced root is a function of (target, m, kind), so the target stands in
    for it; mu (and with it the working precision) is fixed per scene kind."""
    if "oracle" in op.scene:
        o = op.scene["oracle"]
        return ("oracle", o["scheme"], o["lam"], o["m"])
    sweep = op.scene["sweep"]
    return (
        sweep["scheme"], sweep["mu"], _target_lam(op), sweep["m_list"][0],
        sweep["balanced"], sweep.get("chi", 0.0),
    )


def balance_key(op: Op):
    """(kind, target, m) of the balance_energy call the op makes, or None."""
    sweep = op.scene.get("sweep")
    if not sweep or not sweep["balanced"] or sweep["m_list"][0] == 0:
        return None
    kind = "single" if sweep["scheme"] == "single" else "two_mode"
    return (kind, _target_lam(op), sweep["m_list"][0])


def repeat_share(keys) -> float:
    """Share of the keyed ops whose key an earlier op already had."""
    keys = [k for k in keys if k is not None]
    if not keys:
        return 0.0
    return (len(keys) - len(set(keys))) / len(keys)


# ---------------------------------------------------------------------------
# Warm-up: one call per op kind on a scene outside every pool
# ---------------------------------------------------------------------------

_WARMUP_LAM = 0.0123  # outside every pool's lambda range, so no table is shared


def warmup(name: str) -> None:
    """Run each kind of call once before timing, so that lazy imports and
    first-call set-up are not charged to the first timed op."""
    seen = set()
    for cell in WORKLOADS[name].block:
        scene = _example_scene(name, cell)
        if "sweep" in scene:
            kind = (scene["sweep"]["scheme"], scene["sweep"]["metrics"][0])
            if kind in seen:
                continue
            seen.add(kind)
            sweep = dict(scene["sweep"], balanced=False)
            if sweep["axis"] == "lam":
                value = _WARMUP_LAM
            else:
                sweep["lam"] = _WARMUP_LAM
                value = scene["values"][0]
            experiments.run_sweep(sweep_config(sweep, value))
        else:
            scheme = scene["oracle"]["scheme"]
            if scheme in seen:
                continue
            seen.add(scheme)
            experiments.oracle_compare(scheme, lam=_WARMUP_LAM, m=0, mu=0.1, phi=0.7)
