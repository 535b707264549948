"""The input contract at every public entry point, table-driven.

Each numeric parameter of every callable in ``photsub.__all__``, of the
moment-table builders, of ``fock``'s public constructors, of the sweep and
oracle harness and of every CLI verb is given nan, inf, -1, 1.5, 10**30 and a
str, and so is the spec of ``fock.subtracted``, where none of them is one.  A
value outside the parameter's kind must be refused: ValueError, ConfigInvalid
or MemoryBoundExceeded, and from the CLI exit 1 with "config error" and no
traceback.  A value inside it (1.5 or 10**30 for lam, say) may
instead give a nan-free result or a documented package error (OutOfRange for a
balancing target below the map's infimum, CutoffTooSmall for a state past the
default cutoff's level limit, ...).

A call that loops or allocates in proportion to a bad value is exactly what
this looks for, so the calls run in one child interpreter with warnings as
errors, its address space capped and a 2 s alarm on each call.
"""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from math import inf, nan, pi
from pathlib import Path

import numpy as np
import pytest

import photsub
from photsub import experiments, fock, metrology, moments, states
from photsub.errors import PhotsubError
from photsub.metrology import CorrelatedConfig, SingleMziConfig
from photsub.states import PassvSpec, SpatsvSpec

#: the bad values, by label; "str" stands where a number is wanted
VALUES = {"nan": nan, "inf": inf, "-1": -1, "1.5": 1.5, "1e30": 10**30, "str": "0.5"}
#: the same as config-file text
TEXTS = {"nan": "nan", "inf": "inf", "-1": "-1", "1.5": "1.5", "1e30": str(10**30),
         "str": "half"}

#: kind -> the labels of VALUES inside it: a finite real, one >= 0, one in
#: [0, 1], an integer (order, cutoff: none of the values is a valid
#: one), a preset name, a subtraction spec and the Fisher information (any
#: real but nan; inf is OutOfRange)
REAL, NONNEGATIVE, UNIT, INTEGER, NAME, SPEC, FISHER = (
    {"-1", "1.5", "1e30"}, {"1.5", "1e30"}, set(), set(), set(), set(),
    {"-1", "1.5", "1e30", "inf"})
#: a retired config key or sweep axis (digits: the engine picks its own; chi:
#: psi is the one relative phase), refused at any value
RETIRED = set()

_PASSV, _SPATSV = PassvSpec(0.5, 1), SpatsvSpec(0.3, 1)
_SINGLE = SingleMziConfig(_PASSV, mu=2.0, phi=0.7, eta=0.9)
_PAIR = CorrelatedConfig(_SPATSV, mu=2.0, phi=0.7, eta=0.9)
_SWEEP = {
    "single": dict(scheme="single", axis="lam", values=(0.5,), m_list=(1,), mu=2.0, phi=0.7,
                   metrics=experiments.SINGLE_METRICS),
    "correlated": dict(scheme="correlated", axis="lam", values=(0.3,), m_list=(1,), mu=2.0,
                       phi=0.7, balanced=True, metrics=experiments.CORRELATED_METRICS),
}
_SWEEP_TEXT = {
    "single": "scheme = single\naxis = lam\nvalues = 0.5\nm = 1\nmetric = U, snl\n",
    "correlated": "scheme = correlated\naxis = lam\nvalues = 0.3\nm = 1\nmetric = U_norm, nrf\n",
}


def _sweep(scheme, **fields):
    """run_sweep of the base sweep with ``fields`` replaced: ``values_<axis>``
    sweeps that axis at one value, ``m_list`` runs one order, and a fixed lam
    is read on the mu axis."""
    cfg = dict(_SWEEP[scheme])
    for key, value in fields.items():
        if key.startswith("values_"):
            cfg.update(axis=key.removeprefix("values_"), values=(value,))
        else:
            cfg[key] = (value,) if key == "m_list" else value
            if key == "lam":
                cfg.update(axis="mu", values=(2.0,))
    return experiments.run_sweep(experiments.SweepConfig(**cfg))


def _entries():
    """(name, call, base keyword arguments, {parameter: kind})."""
    spec = dict(lam=NONNEGATIVE, m=INTEGER)
    scene = dict(mu=NONNEGATIVE, phi=REAL, psi=REAL, eta=UNIT)
    yield "PassvSpec", PassvSpec, dict(lam=0.5, m=1), spec
    yield "SpatsvSpec", SpatsvSpec, dict(lam=0.5, m=1), spec
    yield "SingleMziConfig", SingleMziConfig, dict(quantum=_PASSV, mu=2.0, phi=0.7), scene
    yield "CorrelatedConfig", CorrelatedConfig, dict(quantum=_SPATSV, mu=2.0, phi=0.7), scene
    for spec_cls in (PassvSpec, SpatsvSpec):
        name = spec_cls.__name__
        yield (f"{name}.mean_photons", lambda spec_cls=spec_cls, **kw: spec_cls(**kw).mean_photons,
               dict(lam=0.5, m=1), dict(lam=NONNEGATIVE, m=INTEGER))
        yield (f"{name}.table", lambda spec_cls=spec_cls, **kw: spec_cls(**kw).table(),
               dict(lam=0.5, m=1), spec)
        yield (f"balance_energy[{name}]", states.balance_energy,
               dict(target_lam=2.0, m=1, modes=spec_cls.modes), dict(target_lam=REAL, m=INTEGER))
        yield (f"subtracted[{name}]", fock.subtracted, dict(spec=spec_cls(0.3, 1), cutoff=30),
               dict(spec=SPEC, cutoff=INTEGER))
        yield (f"subtracted[{name},lam]", lambda lam, m, spec_cls=spec_cls: fock.subtracted(
            spec_cls(lam, m)), dict(lam=0.3, m=1), dict(lam=NONNEGATIVE))
    yield "phi_for_tau", metrology.phi_for_tau, dict(tau=0.5), dict(tau=UNIT)
    # a figure of merit takes its config alone, whose numbers the configs' rows check
    for name, cfg in (("single_phase_uncertainty", _SINGLE), ("qfi", _SINGLE), ("nrf", _PAIR),
                      ("correlated_uncertainty", _PAIR), ("mandel_q", _PAIR),
                      ("readout_moments", _PAIR)):
        yield name, getattr(metrology, name), dict(cfg=cfg), {}
    yield "cramer_rao_bound", metrology.cramer_rao_bound, dict(fq=2.0), dict(fq=FISHER)
    yield "spatsv_seed_moment_table", moments.spatsv_seed_moment_table, dict(lam=0.5, m=1), spec
    yield ("joint_photon_distribution", moments.joint_photon_distribution,
           dict(lam=0.5, m=1, n_max=3), dict(lam=NONNEGATIVE, m=INTEGER, n_max=INTEGER))
    yield ("squeezed_vacuum", fock.squeezed_vacuum, dict(r=0.3),
           dict(r=NONNEGATIVE, cutoff=INTEGER))
    yield ("two_mode_squeezed_vacuum", fock.two_mode_squeezed_vacuum, dict(lam=0.3),
           dict(lam=NONNEGATIVE, cutoff=INTEGER))
    yield ("oracle_interferometer",
           lambda cutoff=None, **kw: fock.oracle_interferometer(SingleMziConfig(**kw), cutoff),
           dict(quantum=PassvSpec(0.3), mu=1.0, psi=0.0, phi=0.7), dict(**scene, cutoff=INTEGER))
    yield ("oracle_interferometer[correlated]",
           lambda cutoff=None, **kw: fock.oracle_interferometer(CorrelatedConfig(**kw), cutoff),
           dict(quantum=SpatsvSpec(0.3), mu=1.0, psi=0.0, phi=0.7), dict(**scene, cutoff=INTEGER))
    for scheme in ("single", "correlated"):
        yield (f"oracle_compare[{scheme}]", experiments.oracle_compare,
               dict(scheme=scheme, lam=0.3, m=1, mu=1.0, phi=0.7, eta=0.9),
               dict(lam=NONNEGATIVE, m=INTEGER, mu=NONNEGATIVE, phi=REAL, psi=REAL, eta=UNIT,
                    quantum_cutoff=INTEGER))
        yield (f"run_sweep[{scheme}]", _sweep, dict(scheme=scheme),
               dict(lam=NONNEGATIVE, **scene, m_list=INTEGER, values_lam=NONNEGATIVE,
                    values_mu=NONNEGATIVE, values_eta=UNIT, values_phi=REAL, values_psi=REAL,
                    values_one_minus_tau=UNIT, values_chi=RETIRED))


def _cli_entries():
    """(name, verb, config-file text before the bad line, {key: kind}); the
    preset verb takes the bad value as its preset name."""
    for scheme in ("single", "correlated"):
        text = _SWEEP_TEXT[scheme]
        yield (f"sweep[{scheme}]", "sweep", text,
               dict(mu=NONNEGATIVE, psi=REAL, phi=REAL, eta=UNIT, chi=RETIRED,
                    values=NONNEGATIVE, m=INTEGER, digits=RETIRED))
        yield (f"sweep[{scheme},mu-axis]", "sweep", text.replace("axis = lam", "axis = mu"),
               dict(lam=NONNEGATIVE))
        yield (f"sweep[{scheme},psi-axis]", "sweep", text.replace("axis = lam", "axis = psi"),
               dict(values=REAL))
        yield (f"oracle-compare[{scheme}]", "oracle-compare", f"scheme = {scheme}\nm = 1\n",
               dict(lam=NONNEGATIVE, m=INTEGER, mu=NONNEGATIVE, phi=REAL, psi=REAL, eta=UNIT,
                    cutoff=INTEGER))
    yield "sweep[preset]", "sweep", "preset = fig1b\n", dict(digits=RETIRED)
    yield "preset", "preset", None, dict(name=NAME)


CASES = {}
for _name, _call, _base, _kinds in _entries():
    for _param, _kind in _kinds.items():
        for _label, _value in VALUES.items():
            CASES[f"{_name}:{_param}={_label}"] = (_call, {**_base, _param: _value}, _kind, _label)
for _name, _verb, _text, _kinds in _cli_entries():
    for _param, _kind in _kinds.items():
        for _label, _value in TEXTS.items():
            CASES[f"cli {_name}:{_param}={_label}"] = (
                (_verb, _text), {_param: _value}, _kind, _label)


class _Timeout(BaseException):
    pass


def _has_nan(x) -> bool:
    """Whether a result holds a nan: in a number, an array, a container or
    the fields of a state, oracle result, comparison or sweep."""
    if isinstance(x, (float, complex)):
        return x != x
    if isinstance(x, np.ndarray):
        return bool(np.isnan(x).any())
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return any(map(_has_nan, x))
    fields = ("amplitudes", "joint", "moments", "entries", "rows", "value")
    return any(_has_nan(getattr(x, name)) for name in fields if hasattr(x, name))


def _cli(verb, text, line, workdir) -> str:
    """``photsub <verb>`` on a config file of ``text`` plus the line ``key = value``."""
    ((key, value),) = line.items()
    if text is None:
        argv = [verb, value, "--out", os.path.join(workdir, "out.csv")]
    else:
        path = os.path.join(workdir, "case.cfg")  # the line replaces one of its key
        kept = [ln for ln in text.splitlines(keepends=True) if ln.partition("=")[0].strip() != key]
        Path(path).write_text(f"{''.join(kept)}{key} = {value}\n")
        argv = [verb, "--config", path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = experiments.main(argv)
    return f"exit {code}" + (" config error" if "config error" in err.getvalue() else "")


def _outcome(case, workdir) -> str:
    call, args, _, _ = case
    try:
        result = call(**args) if callable(call) else _cli(*call, args, workdir)
    except _Timeout:
        return "timeout"
    except PhotsubError as exc:
        return f"PhotsubError {type(exc).__name__}"
    except Exception as exc:
        return type(exc).__name__
    return "nan" if _has_nan(result) else result if isinstance(result, str) else "ok"


def _run_all() -> dict:
    """Every case's outcome, each call under its own 2 s alarm."""
    import warnings

    warnings.simplefilter("error")

    def alarm(*_):
        raise _Timeout

    signal.signal(signal.SIGALRM, alarm)
    out = {}
    with tempfile.TemporaryDirectory() as workdir:
        for case_id, case in CASES.items():
            signal.alarm(2)
            try:
                out[case_id] = _outcome(case, workdir)
            finally:
                signal.alarm(0)
    return out


_CHILD = """
import importlib.util, json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
spec = importlib.util.spec_from_file_location("boundary", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module._run_all()))
"""


@pytest.fixture(scope="module")
def outcomes():
    env = {**os.environ, "PYTHONPATH": str(Path(photsub.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", _CHILD, __file__], env=env,
                         capture_output=True, text=True, timeout=1200)
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout)


def test_the_table_calls_every_public_callable():
    called = {name.split("[")[0] for name, *_ in _entries()}
    public = {name for name in photsub.__all__ if callable(getattr(photsub, name))
              and not (isinstance(getattr(photsub, name), type)
                       and issubclass(getattr(photsub, name), Exception))}
    assert public <= called, public - called


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_a_value_is_right_or_refused(outcomes, case_id):
    call, _, kind, label = CASES[case_id]
    cli = not callable(call)
    if label in kind:  # a value inside the contract: a result or a package error
        accepted = {"exit 0", "exit 2"} if cli else {"ok"}
        if not cli and outcomes[case_id].startswith("PhotsubError "):
            accepted.add(outcomes[case_id])
    else:
        accepted = ({"exit 1 config error"} if cli else
                    {"ValueError", "PhotsubError ConfigInvalid",
                     "PhotsubError MemoryBoundExceeded"})
    assert outcomes[case_id] in accepted
