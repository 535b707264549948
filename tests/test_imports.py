"""photsub runs on Python integers and numpy: scipy and mpmath are test
dependencies, only the Fock oracle imports numpy, and a sweep, balanced or
reading the exact tables, imports neither fractions nor decimal.  With mpmath
blocked, the package import, the presets (the 1 - tau axis too), balanced
points and the oracle comparison all run."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import photsub

PACKAGE = Path(photsub.__file__).parent


def _imported_roots(path: Path) -> set:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [m.name for m in modules if "scipy" in _imported_roots(m)] == []


_RUN = """
import sys
from math import pi
from photsub.experiments import SweepConfig, oracle_compare, run_sweep

rows = run_sweep(SweepConfig(scheme="single", axis="phi", values=(pi / 2 - 0.3,),
                             m_list=(2,), metrics=("U",), balanced=True)).rows
rows += run_sweep(SweepConfig(scheme="correlated", axis="phi", values=(1e-3,),
                              m_list=(1,), metrics=("nrf",), mu=1e4, balanced=True)).rows
assert [row.flag for row in rows] == ["ok", "ok"], rows
assert oracle_compare("single", 0.5, 1, mu=2.0, phi=1.0, eta=0.8).passed
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_balanced_points_and_the_lossy_oracle_run_without_scipy():
    # a fresh interpreter, so no test's own scipy import can hide one
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", _RUN], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


_SWEEPS_WITHOUT_NUMPY = """
import sys
from math import pi
from photsub.experiments import SweepConfig, oracle_compare, run_sweep

rows = run_sweep(SweepConfig(scheme="single", axis="lam", values=(0.7,), m_list=(2,),
                             metrics=("U", "qfi", "snl"), balanced=True)).rows
rows += run_sweep(SweepConfig(scheme="correlated", axis="phi", values=(1e-6, 1e-5),
                              m_list=(1,), metrics=("U_norm", "nrf"), mu=1e12,
                              balanced=True)).rows
assert {row.flag for row in rows} == {"ok"}, rows
print("numpy" in sys.modules)
assert oracle_compare("correlated", 0.3, 1, mu=2.0, phi=0.7, eta=0.9).passed
print("numpy" in sys.modules)
"""

_FOCK_BY_ATTRIBUTE = """
import sys
import photsub

print("numpy" in sys.modules)
print(photsub.fock.__name__, "numpy" in sys.modules)
"""


def _fresh(script: str) -> list:
    """The printed words of ``script`` run in a fresh interpreter, where no
    test's own imports can hide or supply a module."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_sweeps_leave_numpy_unimported_and_the_oracle_imports_it():
    assert _fresh(_SWEEPS_WITHOUT_NUMPY) == ["False", "True"]


def test_the_package_attribute_fock_imports_the_oracle():
    assert _fresh(_FOCK_BY_ATTRIBUTE) == ["False", "photsub.fock", "True"]


_BALANCED_POINTS = """
import sys
from photsub.experiments import SweepConfig, run_sweep

rows = run_sweep(SweepConfig(scheme="single", axis="lam", values=(8.5,), m_list=(3,),
                             metrics=("U", "qfi"), mu=1e3, balanced=True)).rows
rows += run_sweep(SweepConfig(scheme="correlated", axis="lam", values=(0.4,), m_list=(2,),
                              metrics=("nrf",), mu=1e6, balanced=True)).rows
assert {row.flag for row in rows} == {"ok"}, rows
print(sorted(name for name in ("fractions", "decimal", "numpy") if name in sys.modules))
"""


def test_balanced_points_import_no_fractions_decimal_or_numpy():
    # exact balancing runs on Python integers: fractions would pull in
    # decimal, and either would cost every sweep its import time and memory
    assert _fresh(_BALANCED_POINTS) == ["[]"]


_EXACT_TABLE_POINTS = """
import sys
from photsub.experiments import SweepConfig, run_sweep

rows = run_sweep(SweepConfig(scheme="single", axis="lam", values=(3.5,), m_list=(2,),
                             metrics=("var_y",))).rows
rows += run_sweep(SweepConfig(scheme="correlated", axis="lam", values=(0.8,), m_list=(1,),
                              metrics=("mandel_q", "quad_diff_var"))).rows
assert [row.flag for row in rows] == ["ok"] * 3, rows
print(sorted(name for name in ("fractions", "decimal", "numpy") if name in sys.modules))
"""


def test_exact_table_points_import_no_fractions_decimal_or_numpy():
    # their tables evaluate Wick sums as exact integer polynomials, rounded
    # once in integers
    assert _fresh(_EXACT_TABLE_POINTS) == ["[]"]


_WITHOUT_MPMATH = """
import sys

sys.modules["mpmath"] = None  # from here on, importing mpmath raises ImportError
from math import pi
from photsub.experiments import SweepConfig, oracle_compare, run_preset, run_sweep

for name in ("fig8", "fig9a", "fig1b", "fig_mandel"):
    assert "ok" in {row.flag for row in run_preset(name).rows}, name
    print(name)
rows = run_sweep(SweepConfig(scheme="correlated", axis="one_minus_tau", values=(0.3,),
                             m_list=(1,), metrics=("nrf",), lam=0.4, mu=1e6, psi=pi / 2,
                             balanced=True)).rows
rows += run_sweep(SweepConfig(scheme="correlated", axis="eta", values=(0.9,), m_list=(2,),
                              metrics=("U_norm",), lam=2.0, mu=1e12, phi=1e-8, psi=pi / 2,
                              balanced=True)).rows
assert [row.flag for row in rows] == ["ok", "ok"], rows
print("sweeps")
for scheme, cutoff in (("single", 40), ("correlated", 25)):
    assert oracle_compare(scheme, 0.2, 1, mu=1.0, phi=0.7, eta=0.9, quantum_cutoff=cutoff).passed
    print(scheme)
"""


def test_the_import_presets_sweeps_and_oracle_import_no_mpmath():
    # photsub has no mpmath at run time: with the module blocked, the
    # package, four presets (fig8's 1 - tau axis among them), a balanced
    # 1 - tau nrf point, a balanced U_norm point at mu = 1e12 and the oracle
    # comparison of both schemes all run
    assert _fresh(_WITHOUT_MPMATH) == [
        "fig8", "fig9a", "fig1b", "fig_mandel", "sweeps", "single", "correlated"]
