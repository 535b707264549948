"""photsub benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload covariance_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a photsub source checkout; the package is imported from
``src/`` there, nothing is installed.  ``--trace 0`` runs the seed's op stream
in three passes, each in a fresh process (``one_pass.py``), and reports the
end-to-end metrics from each op's best pass, with every latency scaled to
the reference machine speed by the calibration loop each pass runs.  ``--trace 1`` runs one untraced
pass (for ``trace.overhead_frac``) and one pass with every photsub layer
wrapped in spans, and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: every pass of a run must end within this many seconds of the run's start
DEADLINE_S = 170.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def pin_blas_threads() -> None:
    """One BLAS thread, whatever the environment says: the oracle's tensor
    products are the only BLAS work, and a fixed count keeps the work of a run
    the same on every commit.  Must run before numpy is imported; the passes
    inherit it."""
    for var in BLAS_VARS:
        os.environ[var] = "1"


def tail(latencies: list) -> tuple:
    """(value, percentile, ops beyond): the highest percentile that has at
    least ten ops beyond it; with fewer than eleven ops, the slowest op."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def run_pass(args, trace: int, started: float) -> dict:
    """One pass in a fresh process, plus its set-up time ``setup_s``: from
    process start until the op stream is built and the first op can start."""
    cmd = [
        sys.executable, os.path.join(HERE, "one_pass.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        fail(f"a pass did not end within {DEADLINE_S:g} s of the run's start")
    if proc.returncode != 0:
        fail(f"a pass exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def record() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "PHOTSUB_DIGITS": os.environ.get("PHOTSUB_DIGITS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "photsub", "__init__.py")):
        fail(f"no photsub sources under {SRC}; run from a photsub checkout")
    if "PHOTSUB_DIGITS" in os.environ:
        fail("PHOTSUB_DIGITS is set; it changes the work done, unset it")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    pin_blas_threads()
    sys.path.insert(0, SRC)

    import photsub
    import workloads

    if not os.path.abspath(photsub.__file__).startswith(SRC + os.sep):
        fail(f"photsub imported from {photsub.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}")
    try:
        workloads.build_ops(args.workload, args.seed, args.seconds)
    except ValueError as exc:
        fail(str(exc))

    traces = (0, 1) if args.trace else (0,) * workloads.PASSES
    passes = [run_pass(args, trace, started) for trace in traces]
    first, n = passes[0], len(passes[0]["latencies"])
    failed = sum(len(p["failed"]) for p in passes)
    attempted = n * len(passes)
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    slowdowns = ", ".join(f"{p['slowdown']:.3f}" for p in passes)

    print(f"photsub benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ops={n} passes={len(passes)}")
    print(f"  failed             {failed}/{attempted} op runs disagree with the stored "
          f"reference (rel tol {workloads.REL_TOL:g}) or raised")
    print(f"  oracle FAIL        {first['oracle_fails']}  (engine vs oracle verdicts, "
          f"expected at m >= 2)")
    print(f"  share.table_key    {first['share_table_key']:.4f}   "
          f"share.balance_key {first['share_balance_key']:.4f}")
    print(f"  pass wall          {walls} s as measured; machine slowdown {slowdowns}")
    print(f"  record             {json.dumps(record(), sort_keys=True)}")

    if args.trace:
        untraced, traced = passes
        layer = traced["layer"]
        layer.update({
            "fock.oracle_fail": traced["oracle_fails"],
            "share.table_key": traced["share_table_key"],
            "share.balance_key": traced["share_balance_key"],
            "trace.overhead_frac": (traced["wall"] / traced["slowdown"])
            / (untraced["wall"] / untraced["slowdown"]) - 1.0,
        })
        print(f"  trace wall {traced['wall']:.4f} s = layer self time "
              f"{traced['self_sum']:.4f} s + benchmark's own "
              f"{traced['wall'] - traced['self_sum']:.4f} s")
        for parent, child, calls in traced["edges"]:
            print(f"  edge  {parent} -> {child}: {calls} calls")
        for name, value in layer.items():
            print(f"  {name:<44} {value:.6g} {layer_unit(name)}")
        metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in layer.items()}
    else:
        # each op's best pass, in seconds at the reference speed
        best = [
            min(times)
            for times in zip(*([t / p["slowdown"] for t in p["latencies"]] for p in passes))
        ]
        raw = [min(times) for times in zip(*(p["latencies"] for p in passes))]
        tail_v, tail_pct, beyond = tail(best)
        setups = [p["setup_s"] / p["slowdown"] for p in passes]
        metrics = {
            "wall_s": {"value": sum(best), "unit": "s"},
            "op_p50_ms": {"value": 1e3 * statistics.median(best), "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail_v, "unit": "ms"},
            "peak_rss_mb": {"value": max(p["peak_rss_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:.6g} {m['unit']}")
        print(f"  op_tail_ms is p{tail_pct:.2f}: {beyond} of {n} ops beyond it")
        print(f"  as measured, without the speed correction: wall {sum(raw):.4f} s, "
              f"op p50 {1e3 * statistics.median(raw):.4f} ms, "
              f"op tail {1e3 * tail(raw)[0]:.4f} ms")
        measured = ", ".join(f"{p['setup_s']:.3f}" for p in passes)
        print(f"  setup_s is the median of {len(setups)} fresh starts "
              f"({', '.join(f'{t:.3f}' for t in setups)} s; as measured {measured} s)")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share", "_frac")) or name.startswith("share."):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
