"""photsub: phase estimation with multi-photon-subtracted squeezed light.

A toolkit for single- and correlated-interferometer
phase estimation with photon-subtracted squeezed vacuum states:

- ``fock``: the truncated Fock states of the subtracted-state specs and a
  brute-force interferometer oracle used to validate the analytic engine.
- ``states``: subtracted-state specs, whose mode count keys their scheme:
  the exact moment table, mean photon number and correctly rounded energy
  balancing of each.
- ``opalg``: the normal-ordered moments of the two read-out ports, with
  analytic phase derivatives, summed with certified error bounds.
- ``moments``: exact cutoff-free moment tables for all input states.
- ``metrology``: phase uncertainty, quantum Fisher information, noise
  reduction factor, correlated covariance uncertainty and Mandel Q.
- ``experiments``: figure presets, config-driven parameter sweeps and the
  engine-vs-oracle comparison harness (also exposed as the ``photsub`` CLI).

The figures of merit run on Python integers alone.  Only the Fock oracle
uses numpy (the ``oracle`` extra), so ``fock`` is imported on first use
(``photsub.fock``, or the oracle comparison that calls it), and a sweep
never imports numpy.
"""

import importlib

from . import errors, experiments, metrology, moments, opalg, states
from .errors import PhotsubError
from .metrology import (
    CorrelatedConfig,
    SingleMziConfig,
    correlated_uncertainty,
    cramer_rao_bound,
    nrf,
    phi_for_tau,
    qfi,
    single_phase_uncertainty,
)
from .states import PassvSpec, SpatsvSpec, balance_energy

__version__ = "0.1.0"


def __getattr__(name):
    if name == "fock":
        return importlib.import_module(".fock", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: every module and name imported above, and the lazily imported ``fock``
__all__ = sorted({name for name in dir() if not name.startswith("_")} - {"importlib"} | {"fock"})
