"""One pass of a benchmark run.

    python3 perfbench/one_pass.py --workload W --seed N --seconds S --trace 0|1

A fresh process that imports photsub from the checkout's ``src/``, builds the
run's op stream, runs it once in a closed loop (with every photsub layer
wrapped in spans when ``--trace 1``) and checks every result against the
stored references.  ``run.py`` starts it once per pass, with BLAS already
pinned; the last line of its standard output is one JSON object:
``ready`` (``CLOCK_MONOTONIC`` when the op stream was built, i.e. when the
first op could start), ``wall`` and ``latencies`` (seconds), ``slowdown``
(the machine's speed during the ops against the reference, see
:func:`measure`), ``failed``
(indices of failed ops), ``oracle_fails``, ``peak_rss_mb``, the two sharing
shares, and with ``--trace 1`` the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


#: the calibration loop: CAL_ITERS iterations of fixed pure-Python work, which
#: took CAL_REF_S on the 2-vCPU reference machine at its usual speed
CAL_ITERS = 2500
CAL_REF_S = 1.8e-4
#: calibration time after each op, as a share of the op's latency
CAL_SHARE = 0.03


def calibration_loop() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(CAL_ITERS):
        acc += i * i % 7
    return perf_counter() - t0


def measure(ops, run_op) -> tuple:
    """Closed loop: each op starts when the previous one returns.  After each
    op (outside its latency), calibration loops run for about CAL_SHARE of
    its latency, at least one loop, so they sample the machine's speed with
    the same time weighting as the ops.  Returns (wall, latencies, results,
    slowdown): wall is the sum of the latencies, slowdown the mean loop time
    over CAL_REF_S."""
    latencies, results = [], []
    cal_s, cal_loops = 0.0, 0
    for op in ops:
        t0 = perf_counter()
        try:
            result = run_op(op)
        except Exception as exc:  # a raising op is a failed op; keep going
            result = exc
        latencies.append(perf_counter() - t0)
        results.append(result)
        spent = 0.0
        while spent == 0.0 or spent < CAL_SHARE * latencies[-1]:
            spent += calibration_loop()
            cal_loops += 1
        cal_s += spent
    return sum(latencies), latencies, results, cal_s / cal_loops / CAL_REF_S


def check(ops, results, workloads) -> list:
    """Indices of failed ops: raised, or disagree with the stored reference."""
    failed = []
    for i, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            if not failed:
                traceback.print_exception(result, file=sys.stderr)
            failed.append(i)
        elif not workloads.matches_reference(op, result):
            failed.append(i)
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path.insert(0, SRC)

    import photsub
    import workloads

    if not os.path.abspath(photsub.__file__).startswith(SRC + os.sep):
        sys.exit(f"photsub imported from {photsub.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; know {sorted(workloads.WORKLOADS)}")
    try:
        ops = workloads.build_ops(args.workload, args.seed, args.seconds)
    except ValueError as exc:
        sys.exit(str(exc))
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    workloads.warmup(args.workload)

    out = {"ready": ready}
    if args.trace:
        import layertrace

        with layertrace.Tracer() as tracer:
            wall, latencies, results, slowdown = measure(ops, workloads.run_op)
        out["layer"] = tracer.layer_metrics()
        out["self_sum"] = tracer.self_sum()
        out["edges"] = [[p, c, n] for (p, c), n in tracer.edges.most_common(12)]
    else:
        wall, latencies, results, slowdown = measure(ops, workloads.run_op)

    out.update(
        wall=wall,
        latencies=latencies,
        slowdown=slowdown,
        failed=check(ops, results, workloads),
        oracle_fails=sum(1 for r in results if isinstance(r, dict) and not r["passed"]),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        share_table_key=workloads.repeat_share(workloads.table_key(op) for op in ops),
        share_balance_key=workloads.repeat_share(workloads.balance_key(op) for op in ops),
    )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
