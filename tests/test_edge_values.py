"""Every metric of both schemes at the edges of each axis: rows are right or flagged.

A sweep accepts any finite value in an axis's range, so the extremes must
give a finite ``ok`` value or a flag, never an exception out of
``run_sweep``; a bound (``crb``, ``snl``) that prints ``ok`` is positive.
"""

from math import isfinite, pi

import pytest

from photsub.experiments import CORRELATED_METRICS, SINGLE_METRICS, SweepConfig, run_sweep

EDGES = {
    "lam": (0.0, 1e-300, 1e200),
    "mu": (0.0, 1e300),
    "eta": (0.0,),
    "phi": (0.0, pi),
    "one_minus_tau": (0.0, 1.0),
}
METRICS = {"single": SINGLE_METRICS, "correlated": CORRELATED_METRICS}


@pytest.mark.parametrize("balanced", [False, True], ids=["unbalanced", "balanced"])
@pytest.mark.parametrize("axis", EDGES)
@pytest.mark.parametrize("scheme", METRICS)
def test_edge_values_give_finite_rows_or_flags(scheme, axis, balanced):
    cfg = SweepConfig(scheme=scheme, axis=axis, values=EDGES[axis], m_list=(0, 1, 2, 3, 4),
                      metrics=METRICS[scheme], balanced=balanced)
    for row in run_sweep(cfg).rows:
        if row.flag == "ok":
            assert isfinite(row.value), row
            if row.metric in ("crb", "snl"):
                assert row.value > 0, row
        else:
            assert row.value is None, row
