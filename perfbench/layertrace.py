"""Per-layer spans recorded from outside photsub.

:class:`Tracer` replaces the public functions of the six photsub modules
(and ``MomentTable.entry``) with timing wrappers while it is installed.  Each
function is replaced at every module attribute that holds it, because callers
resolve names in their own module: ``experiments`` imports ``balance_energy``
and ``phi_for_tau`` by name, so those attributes are wrapped too.  Spans keep
a stack, so each one knows its parent; a span's self time is its duration
minus the time of the spans it caused.  Only totals are kept in memory: per
function calls, total and self time, per (parent, child) edge the call count,
plus the counters the per-layer metrics need.
"""

from __future__ import annotations

import inspect
from collections import Counter, defaultdict
from time import perf_counter

import mpmath as mp

import photsub
from photsub import experiments, fock, metrology, moments, opalg, states

MODULES = (experiments, metrology, opalg, moments, states, fock)
#: monomial helpers called once per term; not layer boundaries, and wrapping
#: them would cost more than they do
SKIP = {"opalg.mono", "opalg.mono_degree"}
ROOT = "bench"
#: metrology functions the workloads reach; their self time is glue
METROLOGY_GLUE = (
    "single_phase_uncertainty", "qfi", "nrf", "correlated_uncertainty",
    "single_readout_moments", "correlated_readout_moments", "phi_for_tau",
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()
        self.counts = Counter()
        self.keys = defaultdict(set)
        self.root_s = 0.0  # time inside spans the benchmark itself called
        self._stack = []  # frames [name, child seconds]
        self._patched = []  # (owner, attribute, original)

    # -- spans --------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        stack = self._stack

        def span(*args, **kwargs):
            token = before(args, kwargs) if before else None
            parent = stack[-1][0] if stack else ROOT
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                else:
                    self.root_s += dt
                self.calls[name] += 1
                self.total_s[name] += dt
                self.self_s[name] += dt - frame[1]
                self.edges[(parent, name)] += 1
            if after:
                after(token, args, kwargs, out, dt)
            return out

        span.__wrapped__ = fn
        return span

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        hooks = self._hooks()
        namespaces = (photsub,) + MODULES
        for module in MODULES:
            for attr, fn in list(vars(module).items()):
                name = f"{_short(module)}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                wrapper = self.wrap(name, fn, *hooks.get(name, (None, None)))
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, other, wrapper)
        table_cls = getattr(moments, "MomentTable", None)
        if table_cls is not None and hasattr(table_cls, "entry"):
            entry = table_cls.entry
            self._patch(
                table_cls, "entry",
                self.wrap("moments.MomentTable.entry", entry, *self._entry_hooks()),
            )
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters -----------------------------------------------------------

    def _key_hook(self, counter, tag, fn, params):
        """Record the distinct (tag, params..., working dps) keys of the calls."""
        sig = inspect.signature(fn)

        def before(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.get(p) for p in params)
            self.keys[counter].add((tag,) + key + (mp.mp.dps,))

        return before

    def _hooks(self):
        def terms_out(token, args, kwargs, out, dt):
            self.counts["opalg.substitute.terms_out"] += len(getattr(out, "terms", ()))

        def terms_in(args, kwargs):
            poly = args[0] if args else kwargs.get("poly")
            self.counts["opalg.expect.terms_in"] += len(getattr(poly, "terms", ()))

        hooks = {
            "opalg.substitute": (None, terms_out),
            "opalg.expect": (terms_in, None),
        }
        for attr in ("passv_moment_table", "spatsv_moment_table"):
            fn = getattr(moments, attr, None)
            if fn is not None:
                hooks[f"moments.{attr}"] = (
                    self._key_hook("moments.table_keys", attr, fn, ("lam", "m", "chi")),
                    None,
                )
        fn = getattr(states, "balance_energy", None)
        if fn is not None:
            hooks["states.balance_energy"] = (
                self._key_hook(
                    "states.balance_keys", "balance", fn, ("target_lam", "m", "kind")
                ),
                None,
            )

        def amplitudes(args, kwargs):
            state = args[0] if args else kwargs.get("state")
            self.counts["fock.amplitudes"] += getattr(
                getattr(state, "amplitudes", None), "size", 0
            )

        hooks["fock.apply_two_mode_unitary"] = (amplitudes, None)
        return hooks

    def _entry_hooks(self):
        def before(args, kwargs):
            table = args[0]
            key = args[1] if len(args) > 1 else kwargs.get("key")
            entries = getattr(table, "_entries", None)
            return entries is None or key not in entries

        def after(computed, args, kwargs, out, dt):
            self.counts["moments.entry_requests"] += 1
            if computed:
                self.counts["moments.entries_computed"] += 1
                self.counts["moments.fill_s"] += dt

        return before, after

    # -- read-out -----------------------------------------------------------

    def self_sum(self) -> float:
        return sum(self.self_s.values())

    def layer_metrics(self) -> dict:
        """The per-layer metrics (values only); absent functions read zero."""
        c, s = self.calls, self.self_s
        requests = self.counts["moments.entry_requests"]
        balance_calls = c["states.balance_energy"]
        mean_fns = ("states.passv_mean_photons", "states.spatsv_mean_photons")
        build_fns = (
            "fock.coherent_state", "fock.squeezed_vacuum",
            "fock.two_mode_squeezed_vacuum", "fock.subtract_photons",
        )
        out = {
            "opalg.substitute.calls": c["opalg.substitute"],
            "opalg.substitute.self_s": s["opalg.substitute"],
            "opalg.substitute.terms_out": self.counts["opalg.substitute.terms_out"],
            "opalg.multiply.calls": c["opalg.multiply"],
            "opalg.multiply.self_s": s["opalg.multiply"],
            "opalg.power.calls": c["opalg.power"],
            "opalg.expect.calls": c["opalg.expect"],
            "opalg.expect.self_s": s["opalg.expect"],
            "opalg.expect.terms_in": self.counts["opalg.expect.terms_in"],
            "moments.table_builds": c["moments.passv_moment_table"]
            + c["moments.spatsv_moment_table"],
            "moments.table_keys_distinct": len(self.keys["moments.table_keys"]),
            "moments.entry_requests": requests,
            "moments.entries_computed": self.counts["moments.entries_computed"],
            "moments.entry_hit_ratio": (
                1.0 - self.counts["moments.entries_computed"] / requests
                if requests else 0.0
            ),
            "moments.fill_s": self.counts["moments.fill_s"],
            "states.balance.calls": balance_calls,
            "states.balance.distinct_share": (
                len(self.keys["states.balance_keys"]) / balance_calls
                if balance_calls else 0.0
            ),
            "states.balance.self_s": s["states.balance_energy"],
            "states.mean_photon_evals": sum(c[f] for f in mean_fns),
            "states.mean_photon_s": sum(self.total_s[f] for f in mean_fns),
            "fock.oracle.calls": c["fock.oracle_interferometer"],
            "fock.oracle.self_s": s["fock.oracle_interferometer"],
            "fock.unitary_s": self.total_s["fock.apply_two_mode_unitary"],
            "fock.state_build_s": sum(self.total_s[f] for f in build_fns),
            "fock.amplitudes": self.counts["fock.amplitudes"],
        }
        for fn in METROLOGY_GLUE:
            out[f"metrology.{fn}.self_s"] = s[f"metrology.{fn}"]
        for fn in ("run_sweep", "oracle_compare"):
            out[f"experiments.{fn}.self_s"] = s[f"experiments.{fn}"]
        return out

