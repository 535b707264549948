"""Presets, config-driven sweeps, oracle comparison and the CLI."""

import dataclasses
import hashlib
import inspect
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import reference
from photsub import experiments, metrology, moments
from photsub.errors import ConfigInvalid, MemoryBoundExceeded, UnknownPreset
from photsub.experiments import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    PRESETS,
    SINGLE_METRICS,
    SweepConfig,
    SweepResult,
    main,
    oracle_compare,
    run_preset,
    run_sweep,
    sweep_config_from_file,
)
from photsub.states import PassvSpec, SpatsvSpec
from test_golden_rows import PRESET_SHA256


def _small_config(**overrides):
    base = dict(
        scheme="single",
        axis="lam",
        values=(0.2, 1.0),
        m_list=(0, 1),
        metrics=("U", "snl"),
        mu=50.0,
        phi=np.pi / 2,
    )
    base.update(overrides)
    return SweepConfig(**base)


def test_run_sweep_shape_and_flags():
    result = run_sweep(_small_config())
    assert len(result.rows) == 2 * 2 * 2
    assert all(r.flag == "ok" and r.value is not None for r in result.rows)


def test_sweep_flags_singular_rows():
    result = run_sweep(_small_config(phi=0.0, metrics=("U",)))
    assert all(r.flag == "singular" and r.value is None for r in result.rows)


def test_balanced_sweep_flags_unreachable_targets():
    # the single-subtraction state carries at least one photon, so balancing
    # to lam = 0.2 is impossible for odd m
    result = run_sweep(
        _small_config(values=(0.2,), m_list=(1,), metrics=("U",), balanced=True)
    )
    assert result.rows[0].flag == "out_of_range"


def test_csv_format_and_determinism():
    a = run_sweep(_small_config()).to_csv()
    b = run_sweep(_small_config()).to_csv()
    assert a == b
    lines = a.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert meta and any("scheme=single" in ln for ln in meta)
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "swept_param,m,metric,value,flag"


def test_config_validation_collects_problems():
    # chi is no axis: the coherent phase psi carries the one relative phase
    for axis in ("nope", "chi"):
        bad = SweepConfig(
            scheme="weird", axis=axis, values=(), m_list=(-1,), metrics=()
        )
        with pytest.raises(ConfigInvalid) as err:
            bad.validate()
        text = str(err.value)
        for fragment in ("scheme", f"axis: got {axis!r}", "values", "m", "metric"):
            assert fragment in text


def test_an_unknown_scheme_has_no_metric_to_report():
    # the metrics were checked against the correlated table, which reported
    # a second problem that only followed from the first
    point = dict(axis="lam", values=(0.5,), m_list=(1,), metrics=("U",))
    with pytest.raises(ConfigInvalid) as err:
        SweepConfig(scheme="singel", **point).validate()
    assert str(err.value) == "scheme: got 'singel', want single|correlated"
    with pytest.raises(ConfigInvalid) as err:
        SweepConfig(scheme="correlated", **point).validate()
    assert str(err.value) == "metric: 'U' not valid for scheme correlated"


def test_preset_registry_complete():
    expected = {
        "fig1a", "fig1b", "fig1c", "fig_anyangle", "fig3a", "fig3b",
        "fig5a", "fig5b", "fig_mandel", "fig8", "fig9a", "fig9b", "fig9c",
        "fig10a", "fig10b",
    }
    assert expected == set(PRESETS)
    for cfg in PRESETS.values():
        cfg.validate()


#: each log-spaced preset axis: (lo, hi, n) of its numpy.logspace
_LOG_AXES = {
    ("fig1a", "fig1b", "fig1c", "fig_anyangle", "fig3a", "fig3b"): (0.05, 100.0, 25),
    ("fig5a", "fig5b", "fig_mandel"): (0.01, 10.0, 25),
    ("fig8",): (1e-5, 0.99, 25),
    ("fig9a", "fig9b", "fig9c"): (1e-8, 1e-3, 21),
}


@pytest.mark.parametrize("names", _LOG_AXES, ids=lambda names: names[0])
def test_preset_grids_are_numpy_logspace_bit_for_bit(names):
    lo, hi, n = _LOG_AXES[names]
    want = tuple(float(x) for x in np.logspace(np.log10(lo), np.log10(hi), n))
    for name in names:
        assert PRESETS[name].values == want, name


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        run_preset("fig99")


def test_joint_distribution_preset_rows():
    result = run_preset("fig6")
    total = {}
    for row in result.rows:
        assert row.flag == "ok"
        j, k = int(row.swept_value), int(row.metric.removeprefix("p_k"))
        # twin-beam states only populate equal photon numbers
        if j != k:
            assert row.value == 0.0
        total[row.m] = total.get(row.m, 0.0) + row.value
    # the tabulated window holds most of the mass and never exceeds unity
    for m, mass in total.items():
        assert 0.5 < mass <= 1.0 + 1e-12, (m, mass)
    assert 0.99 < total[0]


def test_fig6_rows_are_correctly_rounded():
    # P(k, k) = (1-t) t^(k+m) ((k+m)!/k!)^2 / ((m!)^2 lam^m P_m(2 lam + 1)),
    # with the norm taken from the Legendre form, not the Wick sum: each entry
    # is one int / int, so it is the float nearest this 80-digit value
    from math import factorial

    import mpmath as mp

    from reference import legendre_p

    for row in run_preset("fig6").rows:
        j, m, k = int(row.swept_value), row.m, int(row.metric.removeprefix("p_k"))
        if j != k:
            assert row.value == 0.0
            continue
        with mp.workdps(80):
            lam = mp.mpf(0.6)
            t = lam / (1 + lam)
            norm = factorial(m) ** 2 * lam**m * legendre_p(m, 2 * lam + 1)
            exact = (1 - t) * t ** (k + m) * (factorial(k + m) // factorial(k)) ** 2 / norm
        assert row.value == float(exact), (m, k, row.value, float(exact))


def test_fig5b_rows_match_a_40_digit_evaluation():
    import mpmath as mp

    from photsub import moments

    for row in run_preset("fig5b").rows:
        assert row.flag == "ok"
        with mp.workdps(40):
            table = SpatsvSpec(row.swept_value, row.m).table()
            c = 1 / mp.sqrt(2)
            exact = reference.quadrature_variance(table, (c, -c), bits=moments.digits_to_bits(40))
        assert abs(row.value - exact) <= 1e-14 * exact, (row.swept_value, row.m)


def test_sweep_config_from_file(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "# comment line\n"
        "scheme = single\n"
        "axis = lam\n"
        "values = 0.5, 2.0\n"
        "m = 0, 1\n"
        "metric = U\n"
        "phi = pi/2\n"
        "mu = 25\n"
    )
    cfg = sweep_config_from_file(str(cfg_path))
    assert cfg.values == (0.5, 2.0)
    assert cfg.m_list == (0, 1)
    assert abs(cfg.phi - np.pi / 2) < 1e-15
    assert cfg.mu == 25.0


def test_sweep_config_from_file_missing_keys(tmp_path):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("scheme = single\n")
    with pytest.raises(ConfigInvalid) as err:
        sweep_config_from_file(str(cfg_path))
    assert "missing keys" in str(err.value)


def test_sweep_config_preset_reference(tmp_path):
    cfg_path = tmp_path / "preset.cfg"
    cfg_path.write_text("preset = fig1b\n")
    assert sweep_config_from_file(str(cfg_path)) == PRESETS["fig1b"]


def test_oracle_compare_small_scene():
    cmp = oracle_compare("single", lam=0.4, m=1, mu=2.0, phi=0.8, eta=0.9)
    assert cmp.passed
    assert cmp.worst <= experiments.ORACLE_TOLERANCE


def test_oracle_compare_correlated_small_scene():
    cmp = oracle_compare("correlated", lam=0.2, m=1, mu=1.0, phi=0.7, psi=0.4, eta=0.9)
    assert cmp.passed


def test_oracle_compare_default_cutoff_passes_after_subtraction():
    # the default quantum cutoff is sized on the subtracted state: sized on
    # the squeezed vacuum before subtraction, this scene failed at 2.7e-7
    cmp = oracle_compare("single", lam=1.0, m=3, mu=1.0, phi=0.7)
    assert cmp.passed


def test_the_default_fill_holds_the_order_8_moments_of_a_bright_twin_beam():
    # the correlated read-out compares moments of order 8 in the ladder
    # operators; the tail mass rule alone left 1.2e-8 (lam = 5) and 1.9e-8
    # (lam = 10) of E[n^4] past the fill, FAILing the engine there.  Sized
    # for n^4, lam = 5 passes, and lam = 10, which then needs 418 levels, a
    # Gram tensor of 7.6e7 amplitudes, is refused as too large for the oracle
    scene = dict(m=0, mu=0.5, phi=0.7, psi=np.pi / 2)
    assert oracle_compare("correlated", lam=5.0, **scene).passed
    with pytest.raises(MemoryBoundExceeded):
        oracle_compare("correlated", lam=10.0, **scene)


@pytest.mark.parametrize("lam, m", [(11.0, 4), (20.0, 0)])
def test_a_single_scene_past_1025_levels_has_finite_oracle_moments(lam, m):
    # sqrt(C(a + b, a)) overflows once a + b passes about 2,050, where
    # |w01|^a |w11|^b underflows: formed apart, their product was inf * 0 and
    # every oracle moment nan, a FAIL that blamed the engine
    cmp = oracle_compare("single", lam=lam, m=m, mu=2.0, phi=0.7)
    assert cmp.passed, cmp.report()


def test_a_nan_error_fails_the_comparison():
    # max() skips a nan that is not first, which gave worst 0.0 and a PASS
    entries = (("N^0 N^1", 1.0, 1.0, 0.0), ("N^0 N^2", 1.0, np.nan, np.nan))
    cmp = experiments.OracleComparison("single", entries)
    assert np.isnan(cmp.worst)
    assert not cmp.passed
    assert "FAIL" in cmp.report()


def test_oracle_compare_memory_bound():
    with pytest.raises(MemoryBoundExceeded):
        oracle_compare("single", lam=0.3, m=0, mu=100.0, phi=0.5)


@pytest.mark.parametrize("scheme, lam, cutoff", [
    ("single", 0.3, 10**5), ("correlated", 0.3, 400), ("single", 1e4, None),
    ("correlated", 1e3, None),
])
def test_the_oracle_refuses_a_scene_past_its_bound_before_any_fill(monkeypatch, scheme, lam,
                                                                     cutoff):
    # nq quantum levels make an array of at least nq^2 (one MZI) or nq^3
    # (twins) amplitudes: an explicit cutoff fixes nq, and a default one
    # exceeds the mean photons.  Before, the state was filled first (0.2 s
    # at a cutoff of 10^5), and a cutoff of 10^400 did not return
    from photsub import fock

    def no_fill(*args, **kwargs):
        raise AssertionError("filled a Fock state")

    monkeypatch.setattr(fock, "_filled", no_fill)
    with pytest.raises(MemoryBoundExceeded):
        oracle_compare(scheme, lam=lam, m=1, mu=1.0, phi=0.5, quantum_cutoff=cutoff)


def test_cli_preset_writes_csv(tmp_path):
    out = tmp_path / "out.csv"
    code = main(["preset", "fig5a", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "swept_param,m,metric,value,flag" in text


def test_python_m_photsub_runs_the_cli_from_a_checkout(tmp_path):
    # a fresh interpreter that finds the package only on PYTHONPATH, as
    # ``PYTHONPATH=src python -m photsub`` from a checkout
    out = tmp_path / "fig8.csv"
    env = {**os.environ, "PYTHONPATH": str(Path(experiments.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "photsub", "preset", "fig8", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0 and run.stderr == ""
    assert out.read_bytes() == run_preset("fig8").to_csv().encode("utf-8")


@pytest.mark.parametrize("verb", ["preset", "sweep"])
def test_cli_reports_an_unwritable_out_as_a_config_error(tmp_path, capsys, verb):
    # a directory that does not exist: the CSV cannot be opened for writing
    out = tmp_path / "missing" / "x.csv"
    config = tmp_path / "sweep.cfg"
    config.write_text("scheme = single\naxis = phi\nvalues = 0.5\nm = 0\nmetric = U\n")
    source = ["fig8"] if verb == "preset" else ["--config", str(config)]
    assert main([verb, *source, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and "Traceback" not in err
    assert not out.parent.exists()


def test_cli_unknown_preset_exit_code(tmp_path):
    code = main(["preset", "fig99", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_cli_sweep_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("scheme = single\n")
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
    # a key given twice is refused, not overwritten by its last value
    cfg_path.write_text(_SWEEP_TEXT["single"] + "mu = 100\nmu = 1e300\n")
    with pytest.raises(ConfigInvalid, match="7: key 'mu' repeats line 6"):
        sweep_config_from_file(str(cfg_path))
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert "key 'mu' repeats line 6" in capsys.readouterr().err


def test_cli_sweep_runs(tmp_path, capsys):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "scheme = correlated\naxis = lam\nvalues = 0.1\nm = 0\nmetric = nrf\n"
        "mu = 100\nphi = pi/4\npsi = pi/2\n"
    )
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "nrf" in out


def test_cli_oracle_compare_pass_and_numerical_failure(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("scheme = single\nlam = 0.3\nm = 1\nmu = 1.5\nphi = 0.6\n")
    assert main(["oracle-compare", "--config", str(good)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out
    # exceeding the oracle memory bound is a numerical-contract failure
    big = tmp_path / "big.cfg"
    big.write_text("scheme = single\nlam = 0.3\nm = 0\nmu = 100\nphi = 0.6\n")
    assert main(["oracle-compare", "--config", str(big)]) == EXIT_NUMERICAL


def test_digits_env_is_not_read(monkeypatch):
    # the engine alone picks the working digits
    plain = run_sweep(_small_config()).to_csv()
    for env in ("30", "not-a-number"):
        monkeypatch.setenv("PHOTSUB_DIGITS", env)
        assert run_sweep(_small_config()).to_csv() == plain
    assert [f.name for f in dataclasses.fields(SweepResult)] == ["config", "rows"]


def test_no_ok_row_is_non_finite():
    assert experiments._flagged(lambda: float("inf")) == (None, "out_of_range")
    assert experiments._flagged(lambda: 1e308) == (1e308, "ok")
    # at lam = 1e200 the QFI (~2e400) overflows a float, and with it the bound
    rows = run_sweep(_small_config(values=(1e200,), m_list=(0, 4), metrics=("qfi", "crb"))).rows
    assert [row.flag for row in rows] == ["out_of_range"] * 4


def test_crb_of_a_vacuum_scene_is_out_of_range():
    # lam = mu = 0: F_Q = 0 has no bound
    vacuum = _small_config(values=(0.0,), m_list=(0,), metrics=("qfi", "crb"), mu=0.0)
    rows = run_sweep(vacuum).rows
    assert [(row.value, row.flag) for row in rows] == [(0.0, "ok"), (None, "out_of_range")]


def test_correlated_mu_sweep_through_zero_flags_u_norm():
    rows = run_sweep(_small_config(scheme="correlated", axis="mu", values=(0.0, 10.0),
                                   m_list=(1,), metrics=("U_norm",))).rows
    assert [row.flag for row in rows] == ["singular", "ok"]


@pytest.mark.parametrize("m", [2, 3])
def test_snl_and_mean_photons_at_huge_energy(m):
    # lam^2 overflows a float past lam ~ 1e154: the closed forms of m = 2, 3
    # give way to the factorial-moment ratio
    rows = run_sweep(_small_config(values=(1e200,), m_list=(m,), metrics=("snl", "mean_photons"),
                                   mu=100.0, eta=0.98)).rows
    from reference import vacuum_moment_1m

    with mp.workdps(30):
        n = (vacuum_moment_1m(m + 1, m + 1, 1e200) / vacuum_moment_1m(m, m, 1e200)).real
        want = {"snl": 1 / mp.sqrt(mp.mpf(0.98) * (100 + n)), "mean_photons": n}
    for row in rows:
        assert row.flag == "ok"
        assert abs(row.value - want[row.metric]) <= 1e-15 * want[row.metric]


def _one_point(metric, **overrides):
    base = dict(
        scheme="correlated", axis="lam", values=(10.0,), m_list=(3,), metrics=(metric,)
    )
    base.update(overrides)
    return run_sweep(SweepConfig(**base)).rows[0]


def test_mandel_q_uses_exact_moments():
    # lam = 10, m = 3: the subtraction-amplified tail defeats a Fock cutoff
    # chosen before subtraction; 9.781988264703782 is a 60-digit evaluation
    row = _one_point("mandel_q")
    assert row.flag == "ok"
    assert abs(row.value - 9.781988264703782) < 1e-7 * 9.781988264703782


def _mandel_q_120(lam, m, eta):
    """eta Q of the SPATSV marginal, at 120 digits straight from its table."""
    with mp.workdps(120):
        table = SpatsvSpec(lam, m).table()
        n, f2 = (mp.re(reference.entry(table, (k, k, 0, 0))) for k in (1, 2))
        return eta * (f2 - n * n) / n


@pytest.mark.parametrize("m", [0, 2])
def test_mandel_q_is_finite_at_huge_energy(m):
    # <a^dag^2 a^2> ~ 1e320 overflows a float: the row is right or flagged
    row = _one_point("mandel_q", values=(1e160,), m_list=(m,), eta=0.98)
    if row.flag == "ok":
        exact = _mandel_q_120(1e160, m, 0.98)
        assert abs(row.value - exact) <= 1e-8 * abs(exact)
    else:
        assert row.flag == "precision" and row.value is None


def test_mandel_q_is_right_through_its_sign_change():
    # Q of m = 3 crosses zero near lam = 0.2346, where <a^dag^2 a^2> and
    # <N>^2 cancel through every float digit.  Var N is checked against <N>,
    # so the rows stay ok, and each must carry the 120-digit value.
    root = 0.23461404548421105
    values = [root] + [root * (1 + s * 10.0**-k) for k in range(1, 9) for s in (1, -1)]
    rows = [_one_point("mandel_q", values=(lam,), eta=0.98) for lam in values]
    for lam, row in zip(values, rows):
        exact = _mandel_q_120(lam, 3, 0.98)
        assert row.flag == "ok", lam
        assert abs(row.value - exact) <= 1e-11 * abs(exact), (lam, row.value, exact)


def test_quad_diff_var_matches_converged_fock_value():
    from photsub import fock
    from photsub.states import SpatsvSpec
    from reference import table_from_state

    state = fock.subtracted(SpatsvSpec(10.0, 3), cutoff=3000)
    c = 2**-0.5
    fock_value = reference.quadrature_variance(table_from_state(state, max_order=2), (c, -c))
    row = _one_point("quad_diff_var")
    assert row.flag == "ok"
    assert abs(row.value - fock_value) < 1e-9 * fock_value


def _write(tmp_path, text):
    path = tmp_path / "cfg.cfg"
    path.write_text(text)
    return str(path)


_SWEEP_TEXT = {
    "single": "scheme = single\naxis = lam\nvalues = 0.5\nm = 1\nmetric = U\n",
    "correlated": "scheme = correlated\naxis = lam\nvalues = 0.5\nm = 1\nmetric = nrf\n",
}


@pytest.mark.parametrize(
    "extra, unknown",
    [
        ("cutof = 5\n", "cutof"),
        ("cutoff = 200\n", "cutoff"),
        ("mu = 5\nbogus = 1\n", "bogus"),
        # psi carries the one relative phase
        ("chi = 0.4\n", "chi"),
    ],
)
def test_sweep_config_rejects_unknown_keys(tmp_path, extra, unknown):
    path = _write(tmp_path, _SWEEP_TEXT["single"] + extra)
    with pytest.raises(ConfigInvalid, match=f"unknown keys: {unknown}"):
        sweep_config_from_file(path)


@pytest.mark.parametrize("text", [_SWEEP_TEXT["single"], "preset = fig1b\n"],
                         ids=("sweep", "preset"))
def test_no_config_sets_the_working_digits(tmp_path, text):
    # the engine picks its own digits, so a config's digits key, which could
    # only flag an ok row or repeat its value, is an unknown key
    with pytest.raises(ConfigInvalid, match="unknown keys: digits"):
        sweep_config_from_file(_write(tmp_path, text + "digits = 50\n"))
    sweep_config_from_file(_write(tmp_path, text))


def test_preset_config_accepts_no_other_key(tmp_path):
    with pytest.raises(ConfigInvalid, match="unknown keys: mu"):
        sweep_config_from_file(_write(tmp_path, "preset = fig1b\nmu = 5\n"))


def test_no_public_figure_or_harness_call_takes_working_digits():
    public = [(f"{module.__name__}.{name}", value)
              for module in (metrology, experiments) for name, value in vars(module).items()
              if callable(value) and not name.startswith("_")
              and getattr(value, "__module__", None) == module.__name__]
    assert len(public) > 20
    for name, value in public:
        assert not {"dps", "digits"} & set(inspect.signature(value).parameters), name
    for name in ("readout_moments", "single_phase_uncertainty", "qfi", "nrf", "mandel_q",
                 "correlated_uncertainty"):
        assert list(inspect.signature(getattr(metrology, name)).parameters) == ["cfg"], name


def test_oracle_config_rejects_unknown_keys(tmp_path, capsys):
    for line, unknown in (
        ("quantum_cutoff = 20\n", "quantum_cutoff"),
        # the oracle reads detection loss only as binomial thinning
        ("eta = 0.8\nloss = ancilla\n", "loss"),
    ):
        path = _write(tmp_path, "scheme = single\nlam = 0.3\n" + line)
        with pytest.raises(ConfigInvalid, match=f"unknown keys: {unknown}"):
            experiments.oracle_compare_from_file(path)
        assert main(["oracle-compare", "--config", path]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
    # a key given twice is refused, not overwritten by its last value
    path = _write(tmp_path, "scheme = single\nlam = 0.3\nm = 1\nlam = 2\n")
    with pytest.raises(ConfigInvalid, match="4: key 'lam' repeats line 2"):
        experiments.oracle_compare_from_file(path)
    assert main(["oracle-compare", "--config", path]) == EXIT_CONFIG
    assert "key 'lam' repeats line 2" in capsys.readouterr().err


def test_cli_oracle_compare_rejects_negative_cutoff(tmp_path, capsys):
    path = _write(tmp_path, "scheme = single\nlam = 0.3\ncutoff = -3\n")
    assert main(["oracle-compare", "--config", path]) == EXIT_CONFIG
    assert "quantum_cutoff must be None or a nonnegative integer" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize(
    "overrides",
    [
        dict(mu=float("nan")),
        dict(axis="mu", values=(5.0,), lam=float("inf")),
        dict(phi=float("nan")),
        dict(psi=float("inf")),
        dict(eta=float("nan")),
        dict(values=(0.5, float("nan"))),
        dict(axis="mu", values=(float("inf"),)),
        dict(axis="eta", values=(1.5,)),
        dict(axis="one_minus_tau", values=(float("nan"),)),
        dict(m_list=(1.0,)),
    ],
    ids=[
        "mu-nan", "lam-inf", "phi-nan", "psi-inf", "eta-nan",
        "lam-axis-nan", "mu-axis-inf", "eta-axis-range", "tau-axis-nan", "m-float",
    ],
)
def test_validate_rejects_non_finite_and_non_integral(scheme, overrides):
    metric = "U" if scheme == "single" else "nrf"
    cfg = _small_config(scheme=scheme, metrics=(metric,), **overrides)
    with pytest.raises(ConfigInvalid):
        cfg.validate()


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("line", ["mu = nan\n", "values = inf\n", "m = 1.5\n", "m = nan\n"])
def test_cli_rejects_bad_scene_values(tmp_path, capsys, scheme, line):
    path = _write(tmp_path, _SWEEP_TEXT[scheme] + line)
    assert main(["sweep", "--config", path]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("scheme", ["single", "correlated"])
def test_cli_oracle_compare_rejects_bad_scene_values(tmp_path, scheme):
    path = _write(tmp_path, f"scheme = {scheme}\nlam = nan\n")
    assert main(["oracle-compare", "--config", path]) == EXIT_CONFIG


@pytest.mark.parametrize("scheme", ["single", "correlated"])
@pytest.mark.parametrize("mu", ["inf", "1e400"])
def test_cli_oracle_compare_rejects_an_infinite_mu_as_a_config_error(tmp_path, capsys, scheme, mu):
    # the scene is checked before the oracle's mu bound, which is for finite mu
    path = _write(tmp_path, f"scheme = {scheme}\nmu = {mu}\n")
    assert main(["oracle-compare", "--config", path]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_fig1c_vanishing_slope_rows_are_flagged():
    # at lam = mu = 100 balancing makes <n_q> = mu, so the read-out slope
    # vanishes for every m.  For m >= 2 the float root leaves a slope of the
    # root's round-off, ~1e-13 of its scale, whose U (1e14 to 6e15, moving
    # with the last bits of the root) is noise: flagged as m = 0, 1 are
    cfg = dataclasses.replace(PRESETS["fig1c"], values=(100.0,))
    rows = run_sweep(cfg).rows
    assert {(row.m, row.metric): row.flag for row in rows} == {
        **{(m, "U"): "singular" for m in range(5)}, **{(m, "snl"): "ok" for m in range(5)}}


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("mu", [2.5, 100.0, 1e4])
def test_a_single_point_balanced_to_mu_flags_only_its_slope_metric(mu, m):
    base = dict(scheme="single", axis="lam", m_list=(m,), metrics=SINGLE_METRICS, mu=mu,
                phi=np.pi / 2 - 0.3, eta=0.98, balanced=True)
    at_mu, off_mu = (run_sweep(SweepConfig(**base, values=(value,))).rows
                     for value in (mu, mu * (1 + 1e-6)))
    assert {row.metric: row.flag for row in at_mu} == {
        metric: "singular" if metric == "U" else "ok" for metric in SINGLE_METRICS}
    # a target off mu keeps its slope, and an unbalanced point at lam = mu
    # is not forced onto the mean photons
    assert {row.flag for row in off_mu} == {"ok"}
    unbalanced = run_sweep(SweepConfig(**{**base, "balanced": False}, values=(mu,))).rows
    assert {row.flag for row in unbalanced} == {"ok"}


def test_a_target_a_float_off_mu_flags_the_slope_of_its_root_as_singular():
    # the root of a target one ulp from mu = 100 has mu between the means at
    # its float neighbours, so its U (5e14 to 1.5e15) reads only the rounding
    # of the root.  An m = 0 point, whose lam is the target, is exact
    targets = (np.nextafter(100.0, -np.inf), np.nextafter(100.0, np.inf))
    rows = run_sweep(SweepConfig(scheme="single", axis="lam", values=targets, m_list=(0, 2, 3, 4),
                                 metrics=("U",), mu=100.0, eta=0.98, phi=np.pi / 2,
                                 balanced=True)).rows
    assert {(row.m, row.flag) for row in rows} == {(0, "ok"), (2, "singular"), (3, "singular"),
                                                    (4, "singular")}


@pytest.mark.parametrize("metric", ["quad_diff_var", "quad_diff_var_seed"])
def test_quad_diff_var_obeys_loss_law(metric):
    # V(eta) = eta V(1) + (1 - eta)/2: loss mixes in vacuum at the 0.5 level
    lossless = _one_point(metric, values=(0.7,), m_list=(1,)).value
    for eta in (0.5, 0.9):
        row = _one_point(metric, values=(0.7,), m_list=(1,), eta=eta)
        expected = eta * lossless + (1.0 - eta) / 2.0
        assert abs(row.value - expected) < 1e-12 * expected


@pytest.mark.parametrize(
    "metric, table",
    [
        ("quad_diff_var", lambda *args: SpatsvSpec(*args).table()),
        ("quad_diff_var_seed", moments.spatsv_seed_moment_table),
    ],
    ids=("quad_diff_var", "quad_diff_var_seed"),
)
def test_difference_quadrature_is_read_at_its_squeezed_angle(metric, table):
    from reference import apply_loss

    # the squeezed light alone sets the difference quadrature, so no turn of the
    # coherent phase psi moves the row, and the row is the least variance over
    # all angles: var_y's angle is the squeezed one
    rows = [
        _one_point(metric, values=(0.6,), m_list=(1,), psi=psi, eta=0.9)
        for psi in (0.0, 0.4, 1.0, -2.5)
    ]
    assert all(row.flag == "ok" for row in rows)
    assert len({row.value for row in rows}) == 1
    with mp.workdps(40):
        lossy = apply_loss(table(0.6, 1), mp.mpf(0.9))
        scan = []
        for k in range(629):
            c = mp.expj(-mp.mpf(k) / 100) / mp.sqrt(2)
            scan.append(reference.quadrature_variance(lossy, (c, -c)))
    assert rows[0].value <= min(scan) + 1e-12
    assert min(scan) - rows[0].value < 1e-3 * rows[0].value


@pytest.mark.parametrize(
    "base",
    [
        # the folded port sums cancel the twin beams' mu^2 terms exactly, so
        # lam = 2 at mu = 1e16 is now certified at every digits from 16; at
        # lam = 1e6 Var C still cancels through ~24 digits.  Below the default
        # working precision an old guard saw only the merged coefficients and
        # passed wrong values (0.0 at digits 16-19, 0.2596 at 20) as ok
        dict(scheme="correlated", axis="phi", values=(1e-3,), m_list=(2,),
             metrics=("U_norm",), lam=1e6, mu=1e16, psi=np.pi / 2, eta=0.98),
        dict(scheme="single", axis="mu", values=(1e16,), m_list=(2,),
             metrics=("U",), lam=1.0, phi=np.pi / 2, eta=0.98),
        # likewise lam = 0.05 at mu = 1e16: a squeezed input of 1e15 photons
        # against 1e4 coherent ones still cancels through ~20 digits
        dict(scheme="correlated", axis="one_minus_tau", values=(1e-4,), m_list=(1,),
             metrics=("nrf",), lam=1e15, mu=1e4, psi=0.3),
        # a balanced target 1e-12 below mu (fig1c's lam = mu = 100 is now
        # singular): the slope cancels through 12 digits
        dict(scheme="single", axis="lam", values=(100.0,), m_list=(2,),
             metrics=("U",), mu=100.0000000001, phi=np.pi / 2, eta=0.98, balanced=True),
    ],
    ids=["U_norm", "single-U", "nrf", "single-U-slope"],
)
def test_user_digits_give_the_default_value_or_a_precision_flag(base, pin_digits):
    # every ok row is the exact value correctly rounded, at any working
    # digits; the U_norm scene needs about 41 digits
    default = run_sweep(SweepConfig(**base)).rows[0]
    assert default.flag == "ok"
    flags = set()
    for digits in range(16, 47):
        pin_digits(digits)
        row = run_sweep(SweepConfig(**base)).rows[0]
        flags.add(row.flag)
        assert row.flag in ("ok", "precision"), digits
        if row.flag == "ok":
            assert row.value == default.value, digits
    assert flags == {"ok", "precision"}


@pytest.mark.parametrize("ambient", [8, 30])
def test_the_ambient_mpmath_precision_changes_no_row(ambient):
    # mean photon numbers, balancing roots, phases, the joint distribution
    # and the quadrature tables once ran at the caller's mpmath precision;
    # var_y at lam = 1e16, which cancels through ~32 digits, is its 140-digit value
    with mp.workdps(ambient):
        for name in ("fig1b", "fig6", "fig8", "fig10b"):
            csv = run_preset(name).to_csv().encode("utf-8")
            assert hashlib.sha256(csv).hexdigest() == PRESET_SHA256[name], name
        rows = run_sweep(_small_config(values=(1e16,), m_list=(0,), metrics=("var_y",))).rows
    with mp.workdps(140):
        table, bits = PassvSpec(1e16, 0).table(), moments.digits_to_bits(140)
        exact = reference.quadrature_variance(table, (mp.expj(-mp.pi / 2),), bits=bits)
    assert [(row.flag, row.value) for row in rows] == [("ok", exact)]


@pytest.mark.parametrize("mu", [1.0, 1e4, 1e8, 1e12, 1e16])
def test_bright_single_scheme_is_exact_or_flagged(mu, pin_digits):
    # coherent light alone: U sqrt(mu) = 1 and F_Q = 2 mu exactly
    coherent = dict(scheme="single", axis="mu", values=(mu,), m_list=(0,),
                    metrics=("U", "qfi"), lam=0.0, phi=np.pi / 2)
    u, fq = run_sweep(SweepConfig(**coherent)).rows
    for row, exact in ((u, 1.0 / np.sqrt(mu)), (fq, 2.0 * mu)):
        assert row.flag == "precision" or (
            row.flag == "ok" and abs(row.value - exact) <= 1e-12 * exact
        ), row
    # PASSV at the fringe slope, against the same scene at 80 digits
    passv = dict(coherent, m_list=(2,), lam=1.0, eta=0.98)
    rows = run_sweep(SweepConfig(**passv)).rows
    pin_digits(80)
    fine = run_sweep(SweepConfig(**passv)).rows
    for row, ref in zip(rows, fine):
        assert row.flag == ref.flag == "ok"
        assert abs(row.value - ref.value) <= 1e-12 * ref.value, row


def test_fig1a_strong_squeezing_var_y_rows_are_accurate():
    # eta (<n> - Re<a^2>) + 1/2 at theta = pi/2, with <n> and <a^2> read off
    # the squeezed-vacuum Wick sums at 60 digits; <n> ~ 4 lam cancels to ~0.013
    import mpmath as mp

    from reference import vacuum_moment_1m as moment

    rows = [r for r in run_preset("fig1a").rows if r.swept_value > 50 and r.m >= 3]
    assert len(rows) == 6
    with mp.workdps(60):
        for row in rows:
            lam, m = row.swept_value, row.m
            norm = moment(m, m, lam)
            n = mp.re(moment(m + 1, m + 1, lam) / norm)
            aa = mp.re(moment(m, m + 2, lam) / norm)
            exact = mp.mpf(0.98) * (n - aa) + mp.mpf(0.5)
            assert row.flag == "ok"
            assert abs(row.value - exact) < 1e-14 * exact, (lam, m)


def test_var_y_far_squeezed_matches_the_closed_form():
    # m = 0, eta = 1: Var Y = 1/(2 (sqrt(lam + 1) + sqrt(lam))^2).  About 25
    # of the 35 working digits cancel at lam = 1e12, so theta = pi/2 must
    # hold to those digits: the float pi/2 alone moves the value by 6e-8.
    import mpmath as mp

    lam = 1e12
    sweep = SweepConfig(
        scheme="single", axis="lam", values=(lam,), m_list=(0,), metrics=("var_y",)
    )
    [row] = run_sweep(sweep).rows
    with mp.workdps(60):
        exact = 1 / (2 * (mp.sqrt(lam + 1) + mp.sqrt(lam)) ** 2)
    assert row.flag == "ok"
    assert abs(row.value - exact) <= 1e-9 * exact


@pytest.mark.parametrize(
    "metric, lam, m, flag",
    [
        ("var_y", 1e16, 0, "ok"),
        ("quad_diff_var", 1e16, 0, "ok"),
        ("quad_diff_var", 1e16, 2, "ok"),
        ("var_y", 1e12, 0, "ok"),
        ("quad_diff_var", 1e12, 0, "ok"),
        ("quad_diff_var", 1e12, 2, "ok"),
        ("var_y", 5e12, 0, "ok"),
        ("quad_diff_var", 5e12, 0, "ok"),
    ],
)
def test_quadrature_variances_keep_eight_digits_or_flag(metric, lam, m, flag):
    # the variances are read in dB, so their digits are counted against
    # |Var| itself: at lam = 1e12 about 25 digits cancel, at 1e16 about 32,
    # and the default doubles its digits until the row is correctly rounded
    import mpmath as mp

    from photsub import moments

    scheme = "single" if metric == "var_y" else "correlated"
    sweep = SweepConfig(
        scheme=scheme, axis="lam", values=(lam,), m_list=(m,), metrics=(metric,)
    )
    [row] = run_sweep(sweep).rows
    assert row.flag == flag
    if flag == "ok":
        with mp.workdps(140):
            bits = moments.digits_to_bits(140)
            if metric == "var_y":
                table = PassvSpec(lam, m).table()
                exact = reference.quadrature_variance(table, (mp.expj(-mp.pi / 2),), bits=bits)
            else:
                table = SpatsvSpec(lam, m).table()
                c = 1 / mp.sqrt(2)
                exact = reference.quadrature_variance(table, (c, -c), bits=bits)
        assert row.value == exact


def test_quadrature_rows_equal_the_general_bilinear_form_bit_for_bit():
    # the metrics read two table entries in closed form; the reference
    # contracts the whole coefficient vector over every mean and pair, at 60
    # digits: both are correctly rounded
    rng = random.Random(33)
    bits = moments.digits_to_bits(60)
    pair_tables = (lambda *args, **kwargs: SpatsvSpec(*args, **kwargs).table(),
                   moments.spatsv_seed_moment_table)
    for _ in range(300):
        lam, m = 10 ** rng.uniform(-6, 6), rng.randrange(5)
        eta = rng.uniform(0.0, 1.0)
        point = dict(axis="lam", values=(lam,), m_list=(m,), eta=eta)
        rows = run_sweep(SweepConfig(scheme="single", metrics=("var_y",), **point)).rows
        rows += run_sweep(SweepConfig(scheme="correlated", **point,
                                      metrics=("quad_diff_var", "quad_diff_var_seed"))).rows
        with mp.workdps(80):
            c = tuple(reference.complex_fixed(sign / mp.sqrt(2), bits) for sign in (1, -1))
        single = PassvSpec(lam, m).table()
        want = [reference.quadrature_variance(single, (-1j,), eta, bits)] + [
            reference.quadrature_variance(build(lam, m), c, eta, bits)
            for build in pair_tables
        ]
        assert [(row.flag, row.value) for row in rows] == [("ok", w) for w in want], point


@pytest.mark.parametrize("metric, m", [("var_y", 0), ("quad_diff_var", 2)])
def test_digits_rescue_a_precision_flagged_quadrature_variance(metric, m, pin_digits):
    # at lam = 1e16 about 32 digits cancel: 35 working digits alone flag the
    # row, which the default does not, and 80 give the 140-digit value
    import mpmath as mp

    from photsub import moments

    scheme = "single" if metric == "var_y" else "correlated"
    sweep = SweepConfig(
        scheme=scheme, axis="lam", values=(1e16,), m_list=(m,), metrics=(metric,)
    )
    assert run_sweep(sweep).rows[0].flag == "ok"
    pin_digits(35)
    assert run_sweep(sweep).rows[0].flag == "precision"
    pin_digits(80)
    [row] = run_sweep(sweep).rows
    with mp.workdps(140):
        bits = moments.digits_to_bits(140)
        if metric == "var_y":
            table = PassvSpec(1e16, m).table()
            exact = reference.quadrature_variance(table, (mp.expj(-mp.pi / 2),), bits=bits)
        else:
            table = SpatsvSpec(1e16, m).table()
            c = 1 / mp.sqrt(2)
            exact = reference.quadrature_variance(table, (c, -c), bits=bits)
    assert (row.flag, row.value) == ("ok", exact)
