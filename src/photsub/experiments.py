"""Reproduction presets, config-driven sweeps and the oracle comparison harness.

Everything here is thin plumbing over :mod:`photsub.metrology`: a registry of
named parameter scenes (one per figure of the study this package reproduces),
a deterministic CSV emitter, and a dual-path engine-vs-oracle check.  The
module doubles as the ``photsub`` console entry point with the verbs
``preset``, ``sweep`` and ``oracle-compare``.

Each scheme has one metric table, mapping a metric name to its evaluation on
a point's scene; ``SINGLE_METRICS`` and ``CORRELATED_METRICS`` are its keys.
A sweep builds the scene (the balanced energy, the subtraction spec and the
interferometer config) once per (axis value, m), and the oracle comparison
builds its scene with the same constructor.

CSV schema: a few ``#``-prefixed metadata lines, then the header
``swept_param,m,metric,value,flag``.  Rows are ordered by (axis index, m,
metric); failed points carry an empty value and a non-``ok`` flag, so NaN is
never emitted.  Identical config and precision always produce identical
bytes.

Config files are flat ``key = value`` text; lists are comma-separated.  The
full schema is documented in the README.  A config's ``digits`` is the one
precision setting: the working digits of the read-out engine, ``mandel_q``
too, and of the quadrature metrics.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from math import inf, isfinite, nextafter, pi, sqrt

from . import metrology, moments, states
from .errors import (
    ConfigInvalid,
    MemoryBoundExceeded,
    NonPositiveQfi,
    NullState,
    OutOfRange,
    PhotsubError,
    PrecisionInsufficient,
    Singular,
    UnknownPreset,
    ZeroMeanPhoton,
    check,
    problem,
)
from .metrology import CorrelatedConfig, SingleMziConfig, phi_for_tau
from .states import PassvSpec, SpatsvSpec, balance_energy

AXES = ("lam", "mu", "eta", "phi", "psi", "chi", "one_minus_tau")
FLAG_OK = "ok"
FLAG_SINGULAR = "singular"
FLAG_OUT_OF_RANGE = "out_of_range"
FLAG_PRECISION = "precision"


@dataclass(frozen=True)
class SweepConfig:
    """One swept axis, a list of subtraction orders, and fixed scene values."""

    scheme: str  # "single" or "correlated"
    axis: str
    values: tuple
    m_list: tuple
    metrics: tuple
    lam: float = 1.0
    mu: float = 100.0
    psi: float = 0.0
    phi: float = pi / 2
    eta: float = 1.0
    chi: float = 0.0
    balanced: bool = False
    digits: int | None = None
    preset: str | None = None

    def validate(self) -> None:
        problems = []
        if self.scheme not in ("single", "correlated"):
            problems.append(f"scheme: got {self.scheme!r}, want single|correlated")
        if self.axis not in AXES:
            problems.append(f"axis: got {self.axis!r}, want one of {AXES}")
        for key, items in (("values", self.values), ("m", self.m_list), ("metric", self.metrics)):
            if not items:
                problems.append(f"{key}: at least one required")
        allowed = SINGLE_METRICS if self.scheme == "single" else CORRELATED_METRICS
        problems += [f"metric: {met!r} not valid for scheme {self.scheme}"
                     for met in self.metrics if met not in allowed]
        # every number against the input contract, the axis values under the axis's name
        named = [(key, getattr(self, key)) for key in _FLOAT_KEYS if key != self.axis]
        named += [("m", m) for m in self.m_list] + [("digits", self.digits)]
        named += [(self.axis, v) for v in self.values] if self.axis in AXES else []
        problems += [f"{name}: {want} required, got {value!r}"
                     for name, value in named if (want := problem(name, value))]
        if problems:
            raise ConfigInvalid("; ".join(problems))


@dataclass(frozen=True)
class SweepRow:
    swept_value: float
    m: int
    metric: str
    value: float | None
    flag: str


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple

    def to_csv(self) -> str:
        lines = [
            f"# preset={self.config.preset or '-'}",
            f"# version=photsub-0.1.0",
            f"# scheme={self.config.scheme} axis={self.config.axis} "
            f"balanced={str(self.config.balanced).lower()}",
            f"# digits={self.config.digits or '-'}",
            "swept_param,m,metric,value,flag",
        ]
        for row in self.rows:
            val = "" if row.value is None else f"{row.value:.12g}"
            lines.append(f"{row.swept_value:.12g},{row.m},{row.metric},{val},{row.flag}")
        return "\n".join(lines) + "\n"

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv())


# ---------------------------------------------------------------------------
# Metric evaluation
# ---------------------------------------------------------------------------


def _scene_params(cfg: SweepConfig, axis_value: float) -> dict:
    p = {key: getattr(cfg, key) for key in _FLOAT_KEYS}
    if cfg.axis == "one_minus_tau":
        p["phi"] = phi_for_tau(1.0 - axis_value)
    else:
        p[cfg.axis] = axis_value
    return p


def _scene(scheme: str, m: int, *, lam, mu, phi, psi, eta, chi=0.0, balanced=False):
    """The interferometer config of one point, its energy balanced at most once."""
    single = scheme == "single"
    if balanced and m > 0:
        lam = balance_energy(lam, m, "single" if single else "two_mode")
    spec = (PassvSpec if single else SpatsvSpec)(lam, m, chi)
    config = SingleMziConfig if single else CorrelatedConfig
    return config(spec, mu=mu, phi=phi, psi=psi, eta=eta)


def _mean_photons(cfg, dps=None) -> float:
    spec = cfg.quantum
    mean = states.passv_mean_photons if isinstance(spec, PassvSpec) else states.spatsv_mean_photons
    return mean(spec.lam, spec.m)


def _snl(cfg, dps) -> float:
    n = cfg.eta * (cfg.mu + _mean_photons(cfg))
    if n <= 0:
        raise ZeroMeanPhoton("shot-noise reference undefined for a dark input")
    return 1.0 / sqrt(n)


#: the working digits of the quadrature metrics unless a config sets them
DEFAULT_DIGITS = 35


def _quadrature(build, n_key: tuple, pair_key: tuple):
    """The variance of a point's squeezed quadrature from two entries of its
    table ``build(spec)``: the photon number ``n_key`` and the pair
    correlation ``pair_key``.  The selection rules zero every mean and cross
    term, so Var = eta (n - Re pair) + 1/2; the two nearly cancel at strong
    squeezing, so the sum is certified at the row's digits, else 35.
    """

    def metric(cfg, dps) -> float:
        bits = moments.digits_to_bits(dps or DEFAULT_DIGITS)
        table = build(cfg.quantum)
        n, pair = table.fixed(n_key, bits), moments.fixed_times(table.fixed(pair_key, bits), -1)
        spread = moments.certified_sum([(moments.ONE, n), (moments.ONE, pair)], bits)
        var = moments.thin(spread, cfg.eta, 1) + moments.Bounded(1, 0, -1)
        moments.require_digits(var, "quadrature variance")
        return var.value

    return metric


#: each scheme's metrics: name -> evaluation on a point's config at dps digits
_METRICS = {
    "single": {
        "U": lambda c, dps: metrology.single_phase_uncertainty(c, dps=dps),
        "qfi": lambda c, dps: metrology.qfi(c, dps=dps),
        "crb": lambda c, dps: metrology.cramer_rao_bound(metrology.qfi(c, dps=dps)),
        "snl": _snl,
        "qfi_classical": lambda c, dps: 2.0 * (c.mu + _mean_photons(c)),
        "var_y": _quadrature(
            lambda s: moments.passv_moment_table(s.lam, s.m, chi=s.chi), (1, 1), (0, 2)
        ),
        "mean_photons": _mean_photons,
    },
    "correlated": {
        "U_norm": lambda c, dps: metrology.correlated_uncertainty(c, dps=dps),
        "nrf": lambda c, dps: metrology.nrf(c, dps=dps),
        "mean_photons": _mean_photons,
        "mandel_q": lambda c, dps: metrology.mandel_q(c, dps=dps),
        # <a1 a2> carries e^{i chi}, and the difference quadrature is read at
        # its squeezed angle chi/2, whose e^{-i chi} cancels that phase
        # exactly: the variance does not depend on chi, so the pair tables
        # are read at chi = 0
        "quad_diff_var": _quadrature(
            lambda s: moments.spatsv_moment_table(s.lam, s.m), (1, 1, 0, 0), (0, 1, 0, 1)
        ),
        "quad_diff_var_seed": _quadrature(
            lambda s: moments.spatsv_seed_moment_table(s.lam, s.m), (1, 1, 0, 0), (0, 1, 0, 1)
        ),
    },
}
SINGLE_METRICS = tuple(_METRICS["single"])
CORRELATED_METRICS = tuple(_METRICS["correlated"])

_FLAG_FOR_ERROR = (
    (Singular, FLAG_SINGULAR),
    (PrecisionInsufficient, FLAG_PRECISION),
    ((OutOfRange, ZeroMeanPhoton, NullState, NonPositiveQfi), FLAG_OUT_OF_RANGE),
)


def _flagged(evaluate, *args, **kwargs) -> tuple:
    """(value, "ok") of ``evaluate``, or (None, flag) for a package error or
    for a float that overflowed (no ``ok`` row is non-finite)."""
    try:
        value = evaluate(*args, **kwargs)
    except PhotsubError as exc:
        for kinds, name in _FLAG_FOR_ERROR:
            if isinstance(exc, kinds):
                return None, name
        raise
    if isinstance(value, float) and not isfinite(value):
        return None, FLAG_OUT_OF_RANGE
    return value, FLAG_OK


def _flat(cfg: SingleMziConfig) -> bool:
    """Whether balancing left the read-out slope eta (<n> - mu) sin phi zero
    (m = 0: lam = mu) or only the rounding of the root (m > 0: mu between
    the mean photons at the floats either side of it)."""
    lam, m = cfg.quantum.lam, cfg.quantum.m
    ends = (lam, lam) if m == 0 else (nextafter(lam, 0.0), nextafter(lam, inf))
    below, above = (states.passv_mean_photons(end, m) for end in ends)
    return below <= cfg.mu <= above


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Evaluate every (axis value, m, metric) point; errors become flagged rows.

    Each (axis value, m) builds its scene once; a scene that cannot be built
    (an unreachable balancing target) flags every metric row of its point.
    A balanced single-scheme U that divides by a flat fringe (:func:`_flat`)
    is singular.
    """
    cfg.validate()
    metrics = _METRICS[cfg.scheme]
    rows = []
    for value in cfg.values:
        p = _scene_params(cfg, value)
        for m in cfg.m_list:
            scene, flag = _flagged(_scene, cfg.scheme, m, balanced=cfg.balanced, **p)
            for metric in cfg.metrics:
                result, row_flag = (
                    (None, flag) if scene is None
                    else (None, FLAG_SINGULAR) if metric == "U" and cfg.balanced and _flat(scene)
                    else _flagged(metrics[metric], scene, cfg.digits)
                )
                rows.append(SweepRow(float(value), int(m), metric, result, row_flag))
    return SweepResult(cfg, tuple(rows))


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------


#: the log-spaced preset axes, numpy.logspace(log10(lo), log10(hi), n) for
#: the (lo, hi, n) named on each, spelled out so that the presets need no
#: numpy (tests/test_experiments.py checks every digit)
#: (0.05, 100, 25)
_LAM_GRID = (
    0.049999999999999996, 0.06862982963688709, 0.09420107031976296, 0.12930006815315506,
    0.1774768329877785, 0.24360409624891013, 0.33437015248821095, 0.4589553320185177,
    0.6299605249474366, 0.8646816701021308, 1.1868591141849656, 1.6290787761900183,
    2.2360679774997894, 3.0692192870461863, 4.212799935764557, 5.782474837716209,
    7.9370052598409995, 10.894306376199298, 14.953487812212204, 20.525106420587832,
    28.172691138478424, 38.66973986492824, 53.07795318065536, 72.85461768526098, 100.0,
)
#: (1e-8, 1e-3, 21)
_PHI_GRID = (
    1e-08, 1.7782794100389228e-08, 3.162277660168379e-08, 5.6234132519034905e-08, 1e-07,
    1.7782794100389227e-07, 3.162277660168379e-07, 5.62341325190349e-07, 1e-06,
    1.7782794100389227e-06, 3.162277660168379e-06, 5.623413251903491e-06,
    9.999999999999999e-06, 1.778279410038923e-05, 3.1622776601683795e-05,
    5.623413251903491e-05, 0.0001, 0.00017782794100389227, 0.00031622776601683794,
    0.0005623413251903491, 0.001,
)
#: (0.01, 10, 25)
_PAIR_LAM_GRID = (
    0.01, 0.01333521432163324, 0.01778279410038923, 0.023713737056616554,
    0.03162277660168379, 0.042169650342858224, 0.056234132519034905,
    0.07498942093324558, 0.1, 0.1333521432163324, 0.1778279410038923,
    0.23713737056616552, 0.31622776601683794, 0.4216965034285822, 0.5623413251903491,
    0.7498942093324558, 1.0, 1.333521432163324, 1.7782794100389228, 2.371373705661655,
    3.1622776601683795, 4.216965034285822, 5.62341325190349, 7.498942093324558, 10.0,
)
#: (1e-5, 0.99, 25)
_LOSS_GRID = (
    9.999999999999999e-06, 1.6149216857661613e-05, 2.607972051157821e-05,
    4.2116706212868215e-05, 6.80151821962033e-05, 0.00010983919268998538,
    0.00017738169422210558, 0.00028645754465722053, 0.0004626065009182741,
    0.0007470732703093245, 0.0012064648250787735, 0.0019483462091337922,
    0.0031464265445104536, 0.00508123245940022, 0.00820579248910435,
    0.013251712239551704, 0.021400477469184914, 0.03456009515073686,
    0.055811847121066904, 0.09013176223847674, 0.14555573741523556, 0.23506111683954944,
    0.37960529506460183, 0.613032823031488, 0.99,
)
_ETA_GRID = tuple(0.5 + 0.025 * i for i in range(21))

PRESETS: dict[str, SweepConfig] = {
    # Quadrature noise and single-interferometer uncertainty vs energy.
    "fig1a": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("var_y",), mu=100.0, eta=0.98, psi=0.0, preset="fig1a",
    ),
    "fig1b": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("U", "snl"), mu=100.0, eta=0.98, psi=0.0, phi=pi / 2,
        preset="fig1b",
    ),
    "fig1c": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("U", "snl"), mu=100.0, eta=0.98, psi=0.0, phi=pi / 2,
        balanced=True, preset="fig1c",
    ),
    # Off-optimal working point; the exact phase in the source figure is
    # ambiguous, so phi defaults to pi/2 - 1 and remains a free parameter.
    "fig_anyangle": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("U", "snl"), mu=10000.0, eta=0.98, psi=0.0, phi=pi / 2 - 1.0,
        balanced=True, preset="fig_anyangle",
    ),
    # Quantum Fisher information vs energy.
    "fig3a": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("qfi", "qfi_classical"), mu=100.0, psi=0.0, preset="fig3a",
    ),
    "fig3b": SweepConfig(
        scheme="single", axis="lam", values=_LAM_GRID, m_list=(0, 1, 2, 3, 4),
        metrics=("qfi", "qfi_classical"), mu=100.0, psi=0.0, balanced=True,
        preset="fig3b",
    ),
    # Two-mode quadrature-difference squeezing: seeds and subtracted states.
    "fig5a": SweepConfig(
        scheme="correlated", axis="lam", values=_PAIR_LAM_GRID,
        m_list=(0, 1, 2, 3), metrics=("quad_diff_var_seed",), preset="fig5a",
    ),
    "fig5b": SweepConfig(
        scheme="correlated", axis="lam", values=_PAIR_LAM_GRID,
        m_list=(0, 1, 2, 3), metrics=("quad_diff_var",), preset="fig5b",
    ),
    # Mandel Q of the thinned marginal.
    "fig_mandel": SweepConfig(
        scheme="correlated", axis="lam", values=_PAIR_LAM_GRID,
        m_list=(0, 1, 2, 3), metrics=("mandel_q",), eta=0.98, preset="fig_mandel",
    ),
    # Noise reduction factor vs the fringe-position loss 1 - tau.
    "fig8": SweepConfig(
        scheme="correlated", axis="one_minus_tau", values=_LOSS_GRID,
        m_list=(0, 1, 2), metrics=("nrf",), lam=0.05, mu=1e6, psi=pi / 2,
        eta=1.0, preset="fig8",
    ),
    # Normalized covariance uncertainty vs the working phase.
    "fig9a": SweepConfig(
        scheme="correlated", axis="phi", values=_PHI_GRID, m_list=(0, 1, 2, 3),
        metrics=("U_norm",), lam=2.0, mu=1e12, psi=pi / 2, eta=0.98,
        preset="fig9a",
    ),
    "fig9b": SweepConfig(
        scheme="correlated", axis="phi", values=_PHI_GRID, m_list=(0, 1, 2, 3),
        metrics=("U_norm",), lam=0.05, mu=1e12, psi=pi / 2, eta=0.98,
        preset="fig9b",
    ),
    "fig9c": SweepConfig(
        scheme="correlated", axis="phi", values=_PHI_GRID, m_list=(0, 1, 2, 3),
        metrics=("U_norm",), lam=2.0, mu=1e12, psi=pi / 2, eta=0.96,
        balanced=True, preset="fig9c",
    ),
    # Normalized covariance uncertainty vs detection efficiency.
    "fig10a": SweepConfig(
        scheme="correlated", axis="eta", values=_ETA_GRID, m_list=(0, 1, 2, 3),
        metrics=("U_norm",), lam=2.0, mu=1e12, phi=1e-8, psi=pi / 2,
        preset="fig10a",
    ),
    "fig10b": SweepConfig(
        scheme="correlated", axis="eta", values=_ETA_GRID, m_list=(0, 1, 2, 3),
        metrics=("U_norm",), lam=2.0, mu=1e12, phi=1e-8, psi=pi / 2,
        balanced=True, preset="fig10b",
    ),
}

JOINT_DISTRIBUTION_PRESET = "fig6"
#: fig6: SPATSV's P(j, k) for j, k <= _JOINT_N_MAX at lam = 0.6, m = 0, 1, 3
_JOINT_N_MAX = 8
_JOINT_CONFIG = SweepConfig(
    scheme="correlated", axis="lam", values=(0.6,), m_list=(0, 1, 3),
    metrics=("mean_photons",), lam=0.6, preset=JOINT_DISTRIBUTION_PRESET)


def run_preset(name: str) -> SweepResult:
    """Evaluate a registered figure preset."""
    if name == JOINT_DISTRIBUTION_PRESET:
        return _joint_distribution_preset()
    try:
        cfg = PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(PRESETS) + [JOINT_DISTRIBUTION_PRESET])
        raise UnknownPreset(f"no preset {name!r}; known presets: {known}") from None
    return run_sweep(cfg)


def _joint_distribution_preset() -> SweepResult:
    """Joint photon-number distribution P(j, k): axis is j, metrics are p_k<k>."""
    cfg, levels = _JOINT_CONFIG, range(_JOINT_N_MAX + 1)
    joint = {m: moments.joint_photon_distribution(cfg.lam, m, _JOINT_N_MAX) for m in cfg.m_list}
    return SweepResult(cfg, tuple(
        SweepRow(float(j), m, f"p_k{k}", joint[m].get((j, k), 0.0), FLAG_OK)
        for j in levels for m in cfg.m_list for k in levels))


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------

_FLOAT_KEYS = ("lam", "mu", "psi", "phi", "eta", "chi")
_NAMED_PHASES = {"pi/2": pi / 2, "pi": pi, "pi/4": pi / 4, "0": 0.0}


def parse_config(path: str) -> dict:
    """Read a flat key = value file; '#' starts a comment, commas make lists."""
    data = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigInvalid(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        data[key.strip()] = value.strip()
    return data


def _number(text: str, integral: bool = False):
    """The number ``text`` spells (or names, as pi/2), an int where ``integral``
    and it is one; else the text itself, which the input contract refuses."""
    try:
        value = _NAMED_PHASES[text] if text in _NAMED_PHASES else float(text)
    except ValueError:
        return text
    return int(value) if integral and value.is_integer() else value


def _reject_unknown_keys(data: dict, known: set) -> None:
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigInvalid(f"unknown keys: {', '.join(unknown)}")


_SWEEP_KEYS = {
    "scheme", "axis", "values", "m", "metric", "balanced", "digits", *_FLOAT_KEYS
}
_ORACLE_KEYS = {"scheme", "lam", "m", "mu", "phi", "psi", "eta", "cutoff"}


def sweep_config_from_file(path: str) -> SweepConfig:
    data = parse_config(path)
    if "preset" in data:
        _reject_unknown_keys(data, {"preset", "digits"})
        name = data["preset"]
        if name == JOINT_DISTRIBUTION_PRESET:
            raise ConfigInvalid(
                f"{JOINT_DISTRIBUTION_PRESET} is only available via the preset verb"
            )
        if name not in PRESETS:
            raise ConfigInvalid(f"preset: unknown name {name!r}")
        cfg = PRESETS[name]
        if "digits" in data:
            cfg = replace(cfg, digits=_number(data["digits"], integral=True))
        return cfg
    _reject_unknown_keys(data, _SWEEP_KEYS)
    required = {"scheme", "axis", "values", "m", "metric"}
    missing = sorted(required - set(data))
    if missing:
        raise ConfigInvalid(f"missing keys: {', '.join(missing)}")
    kwargs = {
        "scheme": data["scheme"],
        "axis": data["axis"],
        "values": tuple(_number(v) for v in data["values"].split(",") if v.strip()),
        "m_list": tuple(_number(v, integral=True) for v in data["m"].split(",") if v.strip()),
        "metrics": tuple(v.strip() for v in data["metric"].split(",") if v.strip()),
    }
    for key in (*_FLOAT_KEYS, "digits"):
        if key in data:
            kwargs[key] = _number(data[key], integral=key == "digits")
    if "balanced" in data:
        text = data["balanced"].lower()
        if text not in ("true", "false"):
            raise ConfigInvalid(f"balanced: expected true|false, got {data['balanced']!r}")
        kwargs["balanced"] = text == "true"
    cfg = SweepConfig(**kwargs)
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# Oracle comparison
# ---------------------------------------------------------------------------

ORACLE_TOLERANCE = 1e-8
_ORACLE_MU_BOUND = 10.0


@dataclass(frozen=True)
class OracleComparison:
    scheme: str
    entries: tuple  # (label, engine value, oracle value, relative error)

    @property
    def worst(self) -> float:
        return max((e[3] for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.worst <= ORACLE_TOLERANCE

    def report(self) -> str:
        lines = [f"{'moment':<14}{'engine':>22}{'oracle':>22}{'rel err':>12}"]
        for label, eng, ora, err in self.entries:
            lines.append(f"{label:<14}{eng:>22.12e}{ora:>22.12e}{err:>12.2e}")
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: worst relative error {self.worst:.2e} "
            f"(tolerance {ORACLE_TOLERANCE:.0e})"
        )
        return "\n".join(lines)


def _rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-12)
    return abs(a - b) / scale


def oracle_compare(
    scheme: str,
    lam: float,
    m: int,
    mu: float,
    phi: float,
    psi: float = 0.0,
    eta: float = 1.0,
    quantum_cutoff: int | None = None,
) -> OracleComparison:
    """Compare engine read-out moments against the brute-force Fock oracle.

    The engine side is :func:`photsub.metrology.readout_moments`, the same
    scene construction every figure of merit uses.  Inputs outside the input
    contract raise ConfigInvalid, a scene too large MemoryBoundExceeded.
    """
    if scheme not in ("single", "correlated"):
        raise ConfigInvalid(f"scheme: got {scheme!r}, want single|correlated")
    try:
        check(quantum_cutoff=quantum_cutoff)
        cfg = _scene(scheme, m, lam=lam, mu=mu, phi=phi, psi=psi, eta=eta)
    except ValueError as exc:
        raise ConfigInvalid(f"scene: {exc}") from exc
    if mu > _ORACLE_MU_BOUND:
        raise MemoryBoundExceeded(
            f"oracle limited to mu <= {_ORACLE_MU_BOUND}, got {mu}"
        )
    from . import fock  # the oracle alone needs numpy

    # before any fill: nq quantum levels (an explicit cutoff fixes them, a default one
    # gives more than the mean photons) make an array of nq^2 (one MZI) or nq^3 (twins)
    nq = _mean_photons(cfg) if quantum_cutoff is None else quantum_cutoff + 1 - m
    fock._check_memory((nq,) * (2 if scheme == "single" else 3))
    engine = metrology.readout_moments(cfg)
    build = states.passv if scheme == "single" else states.spatsv
    q = build(cfg.quantum, cutoff=quantum_cutoff)
    scene = fock.OracleScene(q, mu=mu, psi=psi, phi=phi, eta=eta)
    oracle = fock.oracle_interferometer(scene).moments
    entries = []
    for key in sorted(engine):
        eng, ora = float(engine[key]), float(oracle[key])
        entries.append((f"N^{key[0]} N^{key[1]}", eng, ora, _rel_err(eng, ora)))
    return OracleComparison(scheme, tuple(entries))


def oracle_compare_from_file(path: str) -> OracleComparison:
    data = parse_config(path)
    _reject_unknown_keys(data, _ORACLE_KEYS)
    if "scheme" not in data:
        raise ConfigInvalid("missing keys: scheme")
    kwargs = {"lam": 0.3, "m": 1, "mu": 2.0, "phi": 0.7, "scheme": data.pop("scheme")}
    for key, text in data.items():
        kwargs["quantum_cutoff" if key == "cutoff" else key] = _number(text, key in ("m", "cutoff"))
    return oracle_compare(**kwargs)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="photsub",
        description="Phase-estimation sweeps with photon-subtracted squeezed light",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    p_preset = sub.add_parser("preset", help="run a named figure preset")
    p_preset.add_argument("name")
    p_preset.add_argument("--out", required=True, help="output CSV path")
    p_sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", help="output CSV path (default: stdout)")
    p_cmp = sub.add_parser(
        "oracle-compare", help="check the analytic engine against the Fock oracle"
    )
    p_cmp.add_argument("--config", required=True)
    args = parser.parse_args(argv)

    try:
        if args.verb == "preset":
            result = run_preset(args.name)
            result.write(args.out)
            print(f"wrote {len(result.rows)} rows to {args.out}")
            return EXIT_OK
        if args.verb == "sweep":
            result = run_sweep(sweep_config_from_file(args.config))
            if args.out:
                result.write(args.out)
                print(f"wrote {len(result.rows)} rows to {args.out}")
            else:
                sys.stdout.write(result.to_csv())
            return EXIT_OK
        comparison = oracle_compare_from_file(args.config)
        print(comparison.report())
        return EXIT_OK if comparison.passed else EXIT_NUMERICAL
    except (ConfigInvalid, UnknownPreset) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":  # the oracle's alone, an optional extra
            raise
        print(f"{exc}: the oracle needs numpy, pip install 'photsub[oracle]'", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionInsufficient as exc:
        print(f"numerical contract failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PhotsubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
