"""photsub runs on Python integers: scipy and mpmath are test dependencies,
only the Fock oracle imports numpy (the ``oracle`` extra), and a sweep,
balanced or reading the exact tables, imports neither fractions nor decimal.
With mpmath blocked, the package import, the presets (the 1 - tau axis too),
balanced points and the oracle comparison all run; with numpy blocked, the
CLI runs presets and its oracle comparison names the extra it needs.
``states`` imports neither ``fock`` nor numpy, and no module imports one
that imports it back.  Every module-level function and class of the package
has a caller in it (a re-export is none), only ``errors`` raises ValueError on
a parameter's range or type, one function constructs PrecisionInsufficient and
only ``moments`` names a default working precision."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import conftest
import photsub

PACKAGE = Path(photsub.__file__).parent


def _imports(path: Path) -> set:
    """Every module a package module imports, at its top or inside a function, by
    its full name: a relative import resolved in the package (``from . import x``
    and ``from .x import y`` are ``photsub.x``)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            relative = [node.module] if node.module else [alias.name for alias in node.names]
            names.update(f"{PACKAGE.name}.{name}" for name in relative)
    return names


def _imported_roots(path: Path) -> set:
    return {name.split(".")[0] for name in _imports(path)}


def test_no_module_imports_scipy():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [m.name for m in modules if "scipy" in _imported_roots(m)] == []


def test_states_is_exact_arithmetic_and_no_module_imports_one_that_imports_it_back():
    # the specs, mean-photon maps and balancing need no Fock state: fock
    # imports states, never the other way, and no module reaches itself
    # through the modules it imports, at their tops or in their functions
    package = PACKAGE.name
    graph = {f"{package}.{path.stem}": _imports(path) for path in PACKAGE.glob("*.py")}
    assert f"{package}.fock" not in graph[f"{package}.states"]
    assert "numpy" not in _imported_roots(PACKAGE / "states.py")
    cycles = []
    for module, imported in graph.items():
        reached, stack = set(), list(imported)
        while stack:
            name = stack.pop()
            if name in graph and name not in reached:
                reached.add(name)
                stack += graph[name]
        cycles += [module] if module in reached else []
    assert cycles == []


def _named(node) -> set:
    """The names ``node`` refers to: bare, as attributes, or imported."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_module_level_function_and_class_has_a_caller_in_the_package():
    # no helper without a production caller: each top-level def or class of
    # photsub is named by another top-level statement of photsub (dunders,
    # which the interpreter calls, aside); one that only tests call belongs
    # in tests/reference.py.  A re-export in __init__.py is no caller
    statements = [(path.name, node, _named(node))
                  for path in sorted(PACKAGE.glob("*.py"))
                  for node in ast.parse(path.read_text()).body
                  if not (path.name == "__init__.py" and isinstance(node, ast.ImportFrom))]
    defs = [(module, node) for module, node, _ in statements
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    assert len(defs) > 50
    unused = [
        f"{module}:{node.name}" for module, node in defs
        if not node.name.startswith("__")
        and not any(node.name in names for _, other, names in statements if other is not node)
    ]
    assert unused == []


def test_only_moments_turns_wick_terms_into_polynomials():
    # one source for the exact polynomials of a subtracted state: the other
    # modules read the moment tables' lam-free entries
    helpers = {"_wick_terms_1m", "_wick_terms_2m", "_polynomial"}
    naming = [path.name for path in sorted(PACKAGE.glob("*.py"))
              if path.name != "moments.py" and helpers & _named(ast.parse(path.read_text()))]
    assert naming == []


def test_only_errors_raises_a_value_error_on_a_parameter():
    # one input contract: every module reads errors.PARAMETERS through
    # errors.check, and raises ValueError itself only for a name that
    # selects nothing (an unknown mode count, turn or derivative)
    raising = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and node.exc is not None
                    and "ValueError" in _named(node.exc) and path.name != "errors.py"):
                message = node.exc.args[0] if isinstance(node.exc, ast.Call) else None
                lead = message.values[0] if isinstance(message, ast.JoinedStr) else message
                if not (isinstance(lead, ast.Constant) and lead.value.startswith("unknown ")):
                    raising.append(f"{path.name}:{node.lineno}")
    assert raising == []


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


_IMPORT_ALONE = """
import sys
import photsub

print("argparse" in sys.modules)
try:
    photsub.experiments.main(["no-such-verb"])  # refused by the parser, to stderr
except SystemExit:
    pass
print("argparse" in sys.modules)
"""


def test_importing_photsub_leaves_argparse_to_the_cli():
    # only the CLI parses arguments, so it alone imports argparse; checked in
    # a fresh interpreter, as pytest itself imports argparse
    assert _fresh(_IMPORT_ALONE) == ["False", "True"]


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


_CLI_WITHOUT_NUMPY = """
import runpy
import sys

sys.modules["numpy"] = None  # every import of numpy fails, as without the oracle extra
sys.argv = ["photsub", *sys.argv[1:]]
runpy.run_module("photsub", run_name="__main__")
"""


def _cli_without_numpy(cwd, *args):
    """``python -m photsub *args`` in a fresh interpreter that cannot import numpy."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    return subprocess.run([sys.executable, "-c", _CLI_WITHOUT_NUMPY, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_the_cli_runs_presets_without_numpy_and_names_the_oracle_extra(tmp_path):
    preset = _cli_without_numpy(tmp_path, "preset", "fig9a", "--out", "fig9a.csv")
    assert preset.returncode == 0, preset.stderr
    (tmp_path / "scene.cfg").write_text("scheme = single\nlam = 0.3\n")
    oracle = _cli_without_numpy(tmp_path, "oracle-compare", "--config", "scene.cfg")
    assert oracle.returncode == 1
    assert "photsub[oracle]" in oracle.stderr and "Traceback" not in oracle.stderr


#: the types that carry a scheme: the subtraction specs, the interferometer
#: configs and the Fock states, each declaring its mode count or its spec
_SCHEME_TYPES = {"_SubtractionSpec", "PassvSpec", "SpatsvSpec", "_Config", "SingleMziConfig",
                 "CorrelatedConfig", "_FockState", "FockState1", "TwoModeDiagonalState"}
_SCHEME_NAMES = {"single", "correlated"}
#: (module, function) of the boundary checks that may name a scheme: none, as
#: the oracle reads the engine's config and each scheme name is checked against
#: the keys of experiments' scheme tables
_BOUNDARY_CHECKS = set()


def _scoped(tree):
    """(name of the innermost enclosing function or None, node) for each node of ``tree``."""
    stack = [(None, tree)]
    while stack:
        scope, node = stack.pop()
        yield scope, node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        stack.extend((scope, child) for child in ast.iter_child_nodes(node))


def test_no_module_forks_on_the_scheme():
    # each spec and Fock state declares its mode count and each config its
    # spec, so no module tests their types or compares a scheme name, but for
    # errors.check_type's refusal of the other scheme's spec; a check listed
    # above would be exempt, and its module must still define it
    forks, defined = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add((path.name, node.name))
            if (path.name, scope) in _BOUNDARY_CHECKS:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("isinstance", "issubclass")):
                tested = _named(node.args[1]) & _SCHEME_TYPES
            elif isinstance(node, ast.Compare):
                constants = {sub.value for sub in ast.walk(node) if isinstance(sub, ast.Constant)}
                tested = (_named(node) & _SCHEME_TYPES) | (constants & _SCHEME_NAMES)
            else:
                continue
            forks += [f"{path.name}:{node.lineno} {sorted(tested)}"] if tested else []
    assert forks == []
    assert _BOUNDARY_CHECKS <= defined, f"stale: {sorted(_BOUNDARY_CHECKS - defined)}"


def _bindings(node) -> list:
    """(name, value) of each name ``node`` binds: an assignment, a def (to
    itself) or a parameter's default; value None for a bare annotation."""
    if isinstance(node, ast.Assign):
        return [(t.id, node.value) for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [(node.target.id, node.value)]
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return []
    args = node.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    return ([(node.name, node)] + [(a.arg, d) for a, d in zip(defaulted, args.defaults)]
            + [(a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None])


def test_one_function_constructs_precision_insufficient_and_only_moments_sets_digits():
    # one precision rule: a figure's ball rounds to one float or
    # moments.rounded raises, and moments.retried doubles the digits from the
    # one start value; a digits or dps name that another module binds to
    # anything but None (a constant, a rule or a parameter's default) would
    # be a second default precision, as the engine's 40 + 3 log10(mu + 10)
    # and the quadrature metrics' 35 digits once were
    from photsub import moments

    constructing, defaults = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        for scope, node in _scoped(ast.parse(path.read_text())):
            raised = node.exc if isinstance(node, ast.Raise) else None
            if ((isinstance(node, ast.Call) and "PrecisionInsufficient" in _named(node.func))
                    or (isinstance(raised, ast.Name) and raised.id == "PrecisionInsufficient")):
                constructing.add(f"{path.name}:{scope}")
            defaults += [f"{path.name}:{node.lineno} {name}" for name, value in _bindings(node)
                         if path.name != "moments.py" and re.search("digits|dps", name, re.I)
                         and name != "MAX_DIGITS"  # the input contract's cap
                         and not (value is None or isinstance(value, ast.Constant)
                                  and value.value is None)]
    assert constructing == {"moments.py:rounded"}
    assert defaults == []
    assert isinstance(moments.START_DIGITS, int)


def test_each_scheme_is_a_declaration_on_one_shared_definition():
    from dataclasses import fields
    from math import pi

    from photsub import fock, metrology, states

    assert (states.PassvSpec.modes, states.SpatsvSpec.modes) == (1, 2)
    assert (fock.FockState1.modes, fock.TwoModeDiagonalState.modes) == (1, 2)
    single, correlated = metrology.SingleMziConfig, metrology.CorrelatedConfig
    assert (single.spec, correlated.spec) == (states.PassvSpec, states.SpatsvSpec)
    assert [f.name for f in fields(single)] == [f.name for f in fields(correlated)]
    assert single.__post_init__ is correlated.__post_init__
    assert correlated(states.SpatsvSpec(1.0), mu=1.0, phi=0.5).psi == pi / 2
    assert single(states.PassvSpec(1.0), mu=1.0, phi=0.5).psi == 0.0
    for name in ("cutoff", "normalized"):
        assert getattr(fock.FockState1, name) is getattr(fock.TwoModeDiagonalState, name)
    assert [f.name for f in fields(fock.FockState1)] == ["amplitudes"]
    assert [f.name for f in fields(fock.TwoModeDiagonalState)] == ["amplitudes"]
    # the mode count is read from the spec, not passed beside it, and the
    # oracle reads the engine's own config
    assert list(inspect.signature(fock.subtracted).parameters) == ["spec", "cutoff"]
    assert list(inspect.signature(fock.oracle_interferometer).parameters) == ["cfg", "cutoff"]
    assert list(inspect.signature(states.balance_energy).parameters) == ["target_lam", "m", "modes"]


def test_scheme_names_live_only_in_experiments():
    # below the CLI's scheme names the spec's mode count is the one scheme key:
    # no other module spells a scheme, and none a second vocabulary for it
    held = sorted(
        f"{path.name}:{node.lineno} {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and (
            node.value == "two_mode"
            or node.value in _SCHEME_NAMES and path.name != "experiments.py"))
    assert held == []


def test_psi_is_the_one_relative_phase():
    # a squeezing angle chi turns each entry as a psi shift of chi/2 (one mode)
    # or chi (a pair) would: no input, function or dataclass takes it
    from photsub import errors

    assert "chi" not in errors.PARAMETERS
    held = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            elif isinstance(node, ast.ClassDef) and any("dataclass" in _named(d)
                                                        for d in node.decorator_list):
                names = [field.target.id for field in node.body
                         if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)]
            else:
                continue
            held += [f"{path.name}:{node.lineno}" for name in names if name == "chi"]
    assert held == []


def _module_memos() -> list:
    """(module, name) of every module-level memo of the package: a name bound
    to an empty dict literal, or a function decorated with a functools cache."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict):
                found += [(path.stem, target.id) for target in node.targets
                          if isinstance(target, ast.Name) and not node.value.keys]
            elif isinstance(node, ast.FunctionDef) and any(
                    {"lru_cache", "cache"} & _named(d) for d in node.decorator_list):
                found.append((path.stem, node.name))
    return found


def test_the_suite_clears_every_module_level_memo():
    # each test starts from empty memos (tests/conftest.py), which conftest
    # finds by type: a probe left in a dict, or a cache it does not find,
    # fails here
    memos = {(module, name): getattr(importlib.import_module(f"photsub.{module}"), name)
             for module, name in _module_memos()}
    assert len(memos) >= 6
    probe = object()
    for memo in memos.values():
        if isinstance(memo, dict):
            memo[probe] = None
    conftest.clear()
    left = [key for key, memo in memos.items()
            if (probe in memo if isinstance(memo, dict) else memo not in conftest.MEMOS)]
    for memo in memos.values():
        if isinstance(memo, dict):
            memo.pop(probe, None)
    assert left == []
