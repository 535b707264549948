"""Generate the scene pools and their stored references.

    python3 perfbench/make_pool.py [workload ...]

Draws every pool scene from a fixed pool seed, makes its public call once and
stores the parameters with the returned values and flags in
``perfbench/pool/<workload>.json``.  Each pool has two disjoint parts drawn
from separate random streams: ``scenes``, which every run seed draws from, and
``held_out``, which only the held-out run seed (``workloads.HELD_OUT_SEED``)
draws from.  The stored pools were generated from
photsub 0.1.0 (commit 5a8135e) and are the references every later run is
checked against; regenerate them only when a change deliberately moves a
value, and say so.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from math import exp, log, pi

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from photsub import fock  # noqa: E402
from photsub.states import PassvSpec  # noqa: E402

import workloads  # noqa: E402

POOL_SEED = 1809_10706
#: run lengths the two parts hold without reusing a scene: the main part one
#: run at the longest --seconds a benchmark run may have, the held-out part one
#: run at the benchmark's run_seconds
MAIN_SECONDS = 60
HELD_OUT_SECONDS = 20

#: every fourth point of the fig9 phi grid and the fig10 eta grid (decade
#: steps in phi, 0.1 steps in eta), so that one block of eight sweeps fits a
#: run's op stream
PHI_GRID = [float(x) for x in np.logspace(np.log10(1e-8), np.log10(1e-3), 21)][::4]
ETA_GRID = [0.5 + 0.025 * i for i in range(21)][::4]


def _log_uniform(rng, lo, hi):
    return exp(rng.uniform(log(lo), log(hi)))


def covariance_scenes(rng, per_cell):
    """fig9a/9b/9c/10a/10b shapes: mu = 1e12, psi = pi/2, metric U_norm."""
    scenes = []
    for cell, count in per_cell.items():
        m, bal = int(cell[1]), cell.endswith("-bal")
        for _ in range(count):
            sweep = {
                "scheme": "correlated", "m_list": [m], "metrics": ["U_norm"],
                "lam": _log_uniform(rng, 0.05, 2.0), "mu": 1e12, "psi": pi / 2,
                "balanced": bal,
            }
            if rng.random() < 0.5:
                sweep.update(axis="phi", eta=rng.uniform(0.9, 1.0))
                values = PHI_GRID
            else:
                sweep.update(axis="eta", phi=1e-8)
                values = ETA_GRID
            scenes.append({"cell": cell, "sweep": sweep, "values": values})
    return scenes


def scatter_scenes(rng, per_cell):
    """Balanced single-MZI U/qfi points (fig1c/fig3b/fig_anyangle shape) and
    balanced correlated nrf points (fig8 shape); every lambda is distinct."""
    scenes = []
    for cell, count in per_cell.items():
        parts = cell.split("-")
        m = int(parts[-1][1:])
        for _ in range(count):
            if parts[0] == "single":
                sweep = {
                    "scheme": "single", "axis": "lam", "m_list": [m],
                    "metrics": [parts[1]], "mu": _log_uniform(rng, 1e2, 1e4),
                    "phi": rng.uniform(pi / 2 - 1.0, pi / 2), "psi": 0.0,
                    "eta": 0.98, "balanced": True,
                }
                values = [_log_uniform(rng, 0.05, 100.0)]
            else:
                sweep = {
                    "scheme": "correlated", "axis": "one_minus_tau", "m_list": [m],
                    "metrics": ["nrf"], "lam": _log_uniform(rng, 0.02, 2.0),
                    "mu": 1e6, "psi": pi / 2, "eta": 1.0, "balanced": True,
                }
                values = [_log_uniform(rng, 1e-5, 0.99)]
            scenes.append({"cell": cell, "sweep": sweep, "values": values})
    return scenes


def _quantum_cutoff(scheme: str, lam: float) -> int:
    """The cutoff photsub 0.1.0 picks by default (tail mass below 1e-12 before
    subtraction, plus margin), fixed here so the workload sets the oracle's
    work whatever cutoff policy the program adopts later."""
    if scheme == "single":
        return fock.squeezed_vacuum(PassvSpec(lam).r).cutoff
    return fock.two_mode_squeezed_vacuum(lam).cutoff


def _band(rng, lo, hi, index, bands):
    width = (hi - lo) / bands
    return rng.uniform(lo + index * width, lo + (index + 1) * width)


#: (lambda range, mu range) of the oracle scenes, per (scheme, lambda half)
ORACLE_RANGES = {
    ("single", "lo"): ((0.05, 0.175), (0.25, 2.0)),
    ("single", "hi"): ((0.175, 0.3), (0.25, 2.0)),
    ("correlated", ""): ((0.1, 0.25), (0.5, 1.0)),
}


def oracle_scenes(rng, per_cell):
    """Small scenes the oracle can hold: mu <= 2, lambda <= 0.3.  Single
    scenes split the lambda range into halves (cells ``-lo``/``-hi``);
    correlated scenes, whose cost grows fastest with lambda and mu, keep to
    lambda in [0.1, 0.25] and mu in [0.5, 1].  Within each of these three
    groups every cell has its own narrow band of lambda and of mu (a Latin
    square over the group's cells), so that one block covers both ranges once
    and costs nearly the same whatever scenes a seed draws."""
    groups: dict = {}
    for cell in per_cell:
        scheme, half = cell.split("-")[0], cell.split("-")[-1]
        groups.setdefault((scheme, half if scheme == "single" else ""), []).append(cell)
    scenes = []
    for group, cells in groups.items():
        (lam_lo, lam_hi), (mu_lo, mu_hi) = ORACLE_RANGES[group]
        bands = len(cells)
        for k, cell in enumerate(cells):
            scheme, m, loss = cell.split("-")[:3]
            for _ in range(per_cell[cell]):
                lam = _band(rng, lam_lo, lam_hi, k, bands)
                # (3k + 1) mod 8 visits every mu band once over the 8 cells
                mu = _band(rng, mu_lo, mu_hi, (3 * k + 1) % bands, bands)
                oracle = {
                    "scheme": scheme, "lam": lam, "m": int(m[1:]), "mu": mu,
                    "phi": rng.uniform(0.3, 1.3), "psi": rng.uniform(0.0, pi / 2),
                    "eta": 1.0 if loss == "lossless" else rng.uniform(0.8, 0.95),
                    "quantum_cutoff": _quantum_cutoff(scheme, lam),
                }
                scenes.append({"cell": cell, "oracle": oracle})
    return scenes


GENERATORS = {
    "covariance_sweep": covariance_scenes,
    "balanced_scatter": scatter_scenes,
    "oracle_check": oracle_scenes,
}


def draw(name: str, part: str, seconds: float) -> list:
    """The scenes of one pool part, with their references: every cell holds
    as many scenes as a run of ``seconds`` draws from it."""
    wl = workloads.WORKLOADS[name]
    blocks = workloads.block_count(name, seconds)
    rng = random.Random(f"{POOL_SEED}-{name}" + ("" if part == "scenes" else f"-{part}"))
    scenes = GENERATORS[name](rng, {cell: n * blocks for cell, n in wl.block.items()})
    t0 = time.perf_counter()
    for scene in scenes:
        results = [workloads.run_op(op) for op in workloads.scene_ops(scene)]
        scene["ref"] = results if "sweep" in scene else results[0]
    print(f"{name} {part}: {len(scenes)} scenes in {time.perf_counter() - t0:.1f} s")
    return scenes


def make_pool(name: str) -> dict:
    return {
        "workload": name,
        "pool_seed": POOL_SEED,
        "generated_with": "photsub 0.1.0 (commit 5a8135e)",
        "rel_tol": workloads.REL_TOL,
        "scenes": draw(name, "scenes", MAIN_SECONDS),
        "held_out": draw(name, "held_out", HELD_OUT_SECONDS),
    }


def main(names) -> None:
    os.makedirs(workloads.POOL_DIR, exist_ok=True)
    for name in names or list(GENERATORS):
        pool = make_pool(name)
        path = os.path.join(workloads.POOL_DIR, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(pool, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
