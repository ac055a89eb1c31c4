"""Per-layer tracing from outside the program.

Every public function of the six measured ``rmux`` modules is replaced,
for the duration of a traced pass, by a wrapper that counts calls and
accumulates self time (its own duration minus the time of nested hooked
calls). A function is replaced in every loaded ``rmux`` module that binds
it, so calls through ``from .x import f`` aliases are caught too. A hook
whose target is missing raises instead of silently reporting zero.

``mux_analytics`` and ``cli`` are left unmeasured: no workload calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("streams", "delay_network", "matching", "mux_sim", "percolation",
          "experiments")

# (layer, attribute path) of every hooked callable. Dotted paths are class
# methods, patched on the class itself. The two private mux_sim rate
# functions are hooked to count split evaluations.
HOOKS = (
    ("streams", "generate_stream"), ("streams", "stream_from_bins"),
    ("streams", "occupancy"), ("streams", "stream_to_text"),
    ("streams", "stream_from_text"),
    ("delay_network", "max_delay"), ("delay_network", "depth_for_bins"),
    ("delay_network", "request_rails"), ("delay_network", "requests_conflict"),
    ("delay_network", "route"), ("delay_network", "routing_trace_rows"),
    ("matching", "virtual_weight_for"), ("matching", "build_assignment_matrix"),
    ("matching", "solve_assignment"), ("matching", "hungarian_min_assignment"),
    ("matching", "pair_requests"), ("matching", "resolve_clashes_optimal"),
    ("matching", "sliding_window_match"), ("matching", "matching_metrics"),
    ("matching", "count_clashing_pairs"), ("matching", "matching_csv_rows"),
    ("mux_sim", "match_streams"), ("mux_sim", "simulate_two_stream"),
    ("mux_sim", "standard_splits"), ("mux_sim", "rmux_splits"),
    ("mux_sim", "simulate_bell_standard"), ("mux_sim", "simulate_bell_rmux"),
    ("mux_sim", "_standard_rate"), ("mux_sim", "_rmux_rate"),
    ("percolation", "classify_photon"), ("percolation", "lossy_inputs"),
    ("percolation", "fusion_loss_probability"),
    ("percolation", "calibrated_semantics"),
    ("percolation", "DiamondLattice.__init__"),
    ("percolation", "sample_lattice_state"), ("percolation", "spans"),
    ("percolation", "percolation_probability"),
    ("percolation", "loss_threshold"), ("percolation", "tradeoff_frontier"),
    ("experiments", "load_config_file"), ("experiments", "run_experiment"),
)

# Per-layer metrics: name -> (unit, better, the end-to-end metric and
# workload it should move). BENCHMARK.json lists the same names.
PER_LAYER = {
    "matching.assign_s": ("s", "lower", "wall_s on match_sweep only"),
    "matching.assign_calls": ("count", "lower", "wall_s on match_sweep only"),
    "matching.repair_s": ("s", "lower", "wall_s on match_sweep only"),
    "matching.repair_calls": ("count", "lower", "wall_s on match_sweep only"),
    "matching.repair_resolves": ("count", "lower", "wall_s on match_sweep only"),
    "matching.matrix_s": ("s", "lower", "wall_s on match_sweep"),
    "matching.window_s": ("s", "lower", "wall_s on bell_budget"),
    "matching.window_calls": ("count", "lower", "wall_s on bell_budget"),
    "matching.clash_drop_frac": ("frac", "lower", "none: fixed under a pure speed-up"),
    "matching.clash_drop_base": ("count", "higher", "none: base of clash_drop_frac"),
    "delay_network.conflict_s": ("s", "lower", "wall_s on bell_budget, slightly on match_sweep"),
    "delay_network.conflict_checks": ("count", "lower", "wall_s on bell_budget, slightly on match_sweep"),
    "delay_network.route_s": ("s", "lower", "none yet: no workload calls route"),
    "delay_network.route_calls": ("count", "lower", "none yet: no workload calls route"),
    "mux_sim.split_evals": ("count", "lower", "wall_s on bell_budget"),
    "mux_sim.self_s": ("s", "lower", "wall_s on bell_budget"),
    "streams.generate_s": ("s", "lower", "control: at most ~1.5% of any workload"),
    "streams.generate_calls": ("count", "lower", "control: at most ~1.5% of any workload"),
    "percolation.build_s": ("s", "lower", "wall_s on threshold_scan only"),
    "percolation.builds": ("count", "lower", "wall_s on threshold_scan only"),
    "percolation.sample_s": ("s", "lower", "wall_s and peak_rss_mb on threshold_scan only"),
    "percolation.lattices": ("count", "lower", "wall_s on threshold_scan only"),
    "percolation.spans_s": ("s", "lower", "wall_s and peak_rss_mb on threshold_scan only"),
    "percolation.span_checks": ("count", "lower", "wall_s on threshold_scan only"),
    "percolation.probes": ("count", "lower", "wall_s on threshold_scan only"),
    "percolation.span_hit_frac": ("frac", "higher", "none: fixed unless sampling changes"),
    "percolation.threshold_self_s": ("s", "lower", "wall_s on threshold_scan only"),
    "experiments.self_s": ("s", "lower", "wall_s on every workload (recipe, CSV, summary)"),
    "trace.coverage": ("frac", "higher", "none: share of traced wall time in hooked layers"),
    "trace.wall_s": ("s", "lower", "none: base of trace.coverage"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall time"),
}


class HookError(RuntimeError):
    """A hooked name is missing from the program."""


def resolve(layer: str, path: str):
    """(owner, attribute, original callable) for one hook; raises if missing."""
    module = importlib.import_module(f"rmux.{layer}")
    owner, _, attr = path.rpartition(".")
    target = getattr(module, owner) if owner else module
    if attr not in vars(target):
        raise HookError(f"rmux.{layer}.{path} is missing; update the hooks "
                        "in perfbench/")
    return target, attr, vars(target)[attr]


def patch(owner, attr, fn, wrapped) -> list:
    """Bind `wrapped` in place of `fn`: on the class for a method, else in
    each loaded rmux module that binds `fn`. Returns what `restore` needs."""
    if inspect.isclass(owner):
        targets = [(owner, attr)]
    else:
        targets = [(mod, name)
                   for mod_name, mod in list(sys.modules.items())
                   if mod is not None and (mod_name == "rmux"
                                           or mod_name.startswith("rmux."))
                   for name, value in list(vars(mod).items())
                   if value is fn]
    for obj, name in targets:
        setattr(obj, name, wrapped)
    return [(obj, name, fn) for obj, name in targets]


def restore(patched: list):
    """Undo `patch`, latest first, and empty the list."""
    for obj, name, fn in reversed(patched):
        setattr(obj, name, fn)
    patched.clear()


class Tracer:
    """Wraps the hooked callables while active and tallies what they do."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._active = defaultdict(int)
        self._stack = []
        self._patched = []
        self._originals = {}

    def __enter__(self):
        resolved = [(layer, path, *resolve(layer, path))
                    for layer, path in self.hooks]
        try:
            for layer, path, owner, attr, fn in resolved:
                self._install(f"{layer}.{path}", owner, attr, fn)
        except BaseException:
            restore(self._patched)
            raise
        return self

    def __exit__(self, *exc):
        restore(self._patched)

    def _install(self, key, owner, attr, fn):
        self._originals[key] = fn
        self._patched += patch(owner, attr, fn, self._wrap(key, fn))

    def _wrap(self, key, fn):
        before = getattr(self, "_before_" + key.rpartition(".")[2], None)
        after = getattr(self, "_after_" + key.rpartition(".")[2], None)
        stack, calls, self_s, active = (self._stack, self.calls, self.self_s,
                                        self._active)
        clock = time.perf_counter

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            t0 = clock()
            token = before(args, kwargs) if before else None
            active[key] += 1
            stack.append(0.0)
            try:
                t1 = clock()
                result = fn(*args, **kwargs)
                t2 = clock()
            finally:
                nested = stack.pop()
                active[key] -= 1
            calls[key] += 1
            self_s[key] += t2 - t1 - nested
            if after:
                after(args, kwargs, result, token)
            if stack:
                # The caller's self time excludes this call and its tallies.
                stack[-1] += clock() - t0
            return result

        return hooked

    # Extra tallies taken at the boundaries of specific functions.

    def _before_hungarian_min_assignment(self, args, kwargs):
        if self._active["matching.resolve_clashes_optimal"]:
            self.counts["repair_resolves"] += 1

    def _tally_clash_drops(self, args, kwargs, result, token):
        # One definition for every strategy: pairs whose delayed (stream-1)
        # photon was discarded for a clash, over kept plus dropped pairs.
        dropped = sum(1 for _b, stream, reason in result.discarded
                      if stream == "1" and reason == "clash")
        self.counts["clash_dropped"] += dropped
        self.counts["clash_base"] += len(result.pairs) + dropped

    _after_resolve_clashes_optimal = _tally_clash_drops
    _after_sliding_window_match = _tally_clash_drops

    def _after_spans(self, args, kwargs, result, token):
        self.counts["span_hits"] += bool(result)

    def _before_loss_threshold(self, args, kwargs):
        return self.calls["percolation.sample_lattice_state"]

    def _after_loss_threshold(self, args, kwargs, result, token):
        signature = inspect.signature(self._originals["percolation.loss_threshold"])
        trials = signature.bind(*args, **kwargs).arguments["trials"]
        sampled = self.calls["percolation.sample_lattice_state"] - token
        if sampled % trials:
            raise HookError(f"{sampled} lattices sampled is not a whole number "
                            f"of {trials}-trial probes")
        self.counts["probes"] += sampled // trials

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items()
                   if k.startswith(layer + "."))

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer metric values, keyed as in PER_LAYER."""
        s, c, n = self.self_s, self.calls, self.counts

        def frac(num, den):
            return num / den if den else 0.0

        values = {
            "matching.assign_s": s["matching.hungarian_min_assignment"]
                                 + s["matching.solve_assignment"],
            "matching.assign_calls": c["matching.hungarian_min_assignment"],
            "matching.repair_s": s["matching.resolve_clashes_optimal"],
            "matching.repair_calls": c["matching.resolve_clashes_optimal"],
            "matching.repair_resolves": n["repair_resolves"],
            "matching.matrix_s": s["matching.build_assignment_matrix"],
            "matching.window_s": s["matching.sliding_window_match"],
            "matching.window_calls": c["matching.sliding_window_match"],
            "matching.clash_drop_frac": frac(n["clash_dropped"], n["clash_base"]),
            "matching.clash_drop_base": n["clash_base"],
            "delay_network.conflict_s": s["delay_network.requests_conflict"],
            "delay_network.conflict_checks": c["delay_network.requests_conflict"],
            "delay_network.route_s": s["delay_network.route"],
            "delay_network.route_calls": c["delay_network.route"],
            "mux_sim.split_evals": c["mux_sim._standard_rate"] + c["mux_sim._rmux_rate"],
            "mux_sim.self_s": self.layer_self_s("mux_sim"),
            "streams.generate_s": s["streams.generate_stream"],
            "streams.generate_calls": c["streams.generate_stream"],
            "percolation.build_s": s["percolation.DiamondLattice.__init__"],
            "percolation.builds": c["percolation.DiamondLattice.__init__"],
            "percolation.sample_s": s["percolation.sample_lattice_state"],
            "percolation.lattices": c["percolation.sample_lattice_state"],
            "percolation.spans_s": s["percolation.spans"],
            "percolation.span_checks": c["percolation.spans"],
            "percolation.probes": n["probes"],
            "percolation.span_hit_frac": frac(n["span_hits"], c["percolation.spans"]),
            "percolation.threshold_self_s": s["percolation.loss_threshold"],
            "experiments.self_s": self.layer_self_s("experiments"),
            "trace.coverage": frac(sum(self.layer_self_s(l) for l in LAYERS),
                                   traced_wall_s),
            "trace.wall_s": traced_wall_s,
            "trace.overhead_s": traced_wall_s - untraced_wall_s,
        }
        if values.keys() != PER_LAYER.keys():
            raise HookError("per-layer metric table and computed values disagree")
        return values
