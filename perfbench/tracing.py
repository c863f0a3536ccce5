"""Per-layer spans and counters for the traced run.

Tracing wraps functions of the upsetkit modules from outside; nothing under
src/ is edited. Modules import functions by name (``sweep.cached_q``,
``cli.expectation_threshold``), so each wrapper replaces the original in
every upsetkit module that holds a reference to it. Methods of the cover
search are wrapped on the class.

A span records its name, start and end (``perf_counter_ns``), its parent
span, the command it belongs to, and the exception that ended it. Spans are
kept in memory and written to a file when the run ends. Layer times are
summed over the outermost spans of each layer, so nested calls are not
counted twice; the metrics in SELF_TIME subtract the time of child spans.
Counters that need work of their own (candidate pools, p-smallness
at the reported q) are computed after a pass, with tracing off.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import Counter
from pathlib import Path

MODULES = ("core", "measure", "expectation", "structure", "bounds", "families", "sweep", "fmt", "cli")

FAMILY_FUNCTIONS = ("principal", "graph_connectivity", "subgraph_containment", "hamiltonian_cycle",
                    "random_upper_set", "make_family_instance", "builtin_battery")

# (module, function or Class.method, metric the span's time adds to)
TARGETS = (
    [("families", f, "families.build_s") for f in FAMILY_FUNCTIONS]
    + [
        ("core", "_reduce_to_antichain", "core.reduce_s"),
        ("core", "parse_instance", None),
        ("measure", "mu", None),
        ("measure", "_enumeration_profile", "measure.enum_profile_s"),
        ("measure", "_inclusion_exclusion_coeffs", "measure.ie_coeffs_s"),
        ("measure", "critical_probability", "measure.pc_s"),
        ("measure", "_mu_monte_carlo", "measure.mc_s"),
        ("expectation", "_problem", "expectation.prep_s"),
        ("expectation", "cached_q", "expectation.q_s"),
        ("expectation", "expectation_threshold", "expectation.q_s"),
        ("expectation", "is_p_small", None),
        ("expectation", "min_cover_cost", None),
        ("expectation", "candidate_cover_elements", None),
        ("expectation", "_Search.__init__", "expectation.search_init_s"),
        ("expectation", "_Search.decide", "expectation.decide_s"),
        ("expectation", "_Search.optimize", None),
        ("structure", "cached_dim", "structure.dim_s"),
        ("structure", "covering_dimension", "structure.dim_s"),
        ("structure", "sigma_k", "structure.sigma_s"),
        ("structure", "max_nonempty_sigma_index", "structure.sigma_s"),
        ("structure", "dim_upper_bound_via_sigma", "structure.sigma_s"),
        ("bounds", "verify_instance", "bounds.verify_instance_s"),
        ("sweep", "sweep", None),
        ("sweep", "_instance_record", "sweep.record_s"),
        ("sweep", "records_to_csv", "cli.emit_s"),
        ("fmt", "dumps", "cli.emit_s"),
        ("fmt", "csv_cell", "cli.emit_s"),
        ("cli", "_instance_checks", "cli.instance_checks_s"),
        ("cli", "main", None),  # the root span of each command
    ]
)
SELF_TIME = {"bounds.verify_instance_s", "sweep.record_s", "cli.instance_checks_s"}
# Functions only counted, never spanned: they run tens of thousands of times.
COUNTED = (("measure", "_eval_enumeration", "measure.mu_evals"),
           ("measure", "_eval_inclusion_exclusion", "measure.mu_evals"))

# Per-layer metrics with their units, in report order.
UNITS = {
    "families.build_s": "s", "families.instances": "count", "core.reduce_s": "s",
    "measure.enum_profile_s": "s", "measure.enum_subsets": "count",
    "measure.ie_coeffs_s": "s", "measure.ie_terms": "count",
    "measure.pc_s": "s", "measure.mu_evals": "count",
    "measure.mc_s": "s", "measure.mc_bytes": "bytes",
    "expectation.prep_s": "s", "expectation.prep_calls": "count",
    "expectation.candidates_raw": "count", "expectation.candidates_kept": "count",
    "expectation.cap_s": "s", "expectation.cap_raised": "count",
    "expectation.q_s": "s", "expectation.q_calls": "count", "expectation.q_distinct": "count",
    "expectation.search_init_s": "s", "expectation.decide_s": "s",
    "expectation.decide_calls": "count", "expectation.bb_nodes": "count",
    "expectation.q_not_small_at_reported": "count",
    "structure.dim_s": "s", "structure.dim_calls": "count", "structure.dim_capped": "count",
    "structure.sigma_s": "s",
    "bounds.verify_instance_s": "s", "bounds.verify_calls": "count",
    "sweep.record_s": "s", "sweep.rows": "count", "sweep.absent_cells": "count",
    "cli.instance_checks_s": "s", "cli.emit_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s",
}
# Layer times that are exactly 0 on a workload where the layer never runs:
# Monte Carlo and sweep rows on battery, inclusion-exclusion, Monte Carlo and
# rechecks on graph-ladder, rechecks on wide-ground, caps on battery. They are
# printed and kept in the trace file, but left out of the JSON result, where
# every time must be a measurement that differs between runs. Their counters
# (mc_bytes, ie_terms, cap_raised, sweep.rows) stay in it. trace.overhead_s is
# printed only too: it is the difference of two sums of medians, near 0 and
# of either sign on workloads where few spans open, so no relative bound fits it.
PRINTED_ONLY = ("measure.ie_coeffs_s", "measure.mc_s", "expectation.cap_s", "sweep.record_s",
                "cli.instance_checks_s", "trace.overhead_s")
SWEEP_VALUE_FIELDS = ("min_count", "ell0", "ell", "dim_unrestricted", "dim_within_family", "q",
                      "p_c", "bound_value", "width", "nontrivial_info", "ratio_perfect")

NAME, START, END, PARENT, COMMAND, ERROR, OUTER_KEY, OUTER_GROUP = range(8)


def _upper_of(args, kwargs):
    return args[0] if args else kwargs.get("upper")


class Tracer:
    """Collects spans and counters while ``active``; ``install`` wraps the targets once."""

    def __init__(self):
        self.names: list[str] = []
        self.keys: list[str | None] = []
        self.spans: list[list] = []
        self.passes: list[tuple[str, int, int]] = []
        self.stack: list[int] = []
        self.open_keys: Counter = Counter()
        self.open_groups: Counter = Counter()
        self.active = False
        self.command = -1
        self.counters: Counter = Counter()
        self.problems: list[tuple[object, int]] = []  # (upper, candidates kept) per construction
        self.q_reports: list[tuple] = []  # (command, upper, tol, q or None when it raised)
        self._pool_sizes: dict = {}
        self._p_small: dict = {}
        self._pass_start = 0
        # span name -> (state before the call, hook after it)
        self.hooks = {f"families.{f}": (None, self._after_family) for f in FAMILY_FUNCTIONS}
        self.hooks.update({
            "measure._enumeration_profile": (_misses, self._after_enum_profile),
            "measure._inclusion_exclusion_coeffs": (_misses, self._after_ie_coeffs),
            "measure._mu_monte_carlo": (None, self._after_mc),
            "expectation._problem": (_misses, self._after_problem),
            "expectation.expectation_threshold": (None, self._after_q),
            "expectation._Search.decide": (_nodes, self._after_decide),
            "expectation._Search.optimize": (_nodes, self._after_optimize),
            "structure.covering_dimension": (None, self._after_dim),
            "bounds.verify_instance": (None, self._after_verify),
            "sweep._instance_record": (None, self._after_record),
            "sweep.sweep": (None, self._after_sweep),
        })

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        import upsetkit

        modules = {m: importlib.import_module(f"upsetkit.{m}") for m in MODULES}
        holders = list(modules.values()) + [upsetkit]
        for mod, attr, key in TARGETS:
            self._patch(modules[mod], holders, attr, self._span_wrapper(f"{mod}.{attr}", key))
        for mod, attr, key in COUNTED:
            self._patch(modules[mod], holders, attr, self._count_wrapper(key))

    @staticmethod
    def _patch(module, holders, attr, make) -> None:
        """Wrap ``module.attr`` everywhere it is held. A target that is gone
        raises, so a rename breaks the traced run instead of zeroing a layer."""
        cls_name, _, method = attr.partition(".")
        if method:
            cls = getattr(module, cls_name, None)
            if cls is None or method not in vars(cls):
                raise LookupError(f"trace target {module.__name__}.{attr} not found")
            setattr(cls, method, make(vars(cls)[method]))
            return
        original = getattr(module, attr, None)
        if original is None:
            raise LookupError(f"trace target {module.__name__}.{attr} not found")
        wrapper = make(original)
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)

    def _count_wrapper(self, key: str):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                if tracer.active:
                    tracer.counters[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _span_wrapper(self, name: str, key: str | None):
        tracer = self
        name_id = len(self.names)
        self.names.append(name)
        self.keys.append(key)
        group = name.split(".", 1)[0]
        before, after = self.hooks.get(name, (None, None))

        def make(fn):
            def wrapper(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                stack, spans = tracer.stack, tracer.spans
                rec = [name_id, 0, 0, stack[-1] if stack else -1, tracer.command, None,
                       key is not None and tracer.open_keys[key] == 0, tracer.open_groups[group] == 0]
                stack.append(len(spans))
                spans.append(rec)
                tracer.open_keys[key] += 1
                tracer.open_groups[group] += 1
                state = before(fn, args) if before else None
                result = None
                rec[START] = time.perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    rec[ERROR] = type(exc).__name__
                    raise
                finally:
                    rec[END] = time.perf_counter_ns()
                    stack.pop()
                    tracer.open_keys[key] -= 1
                    tracer.open_groups[group] -= 1
                    if after:
                        after(fn, args, kwargs, result, rec, state)

            for attr in ("cache_clear", "cache_info"):  # clear_caches() calls these
                if hasattr(fn, attr):
                    setattr(wrapper, attr, getattr(fn, attr))
            return wrapper
        return make

    # --- counter hooks (run after the span has ended) -----------------------

    def _after_family(self, fn, args, kwargs, result, rec, state):
        if rec[OUTER_KEY] and result is not None:
            self.counters["families.instances"] += len(result) if isinstance(result, list) else 1

    def _after_enum_profile(self, fn, args, kwargs, result, rec, state):
        if result is not None and fn.cache_info().misses > state:
            self.counters["measure.enum_subsets"] += 1 << _upper_of(args, kwargs).ground_size

    def _after_ie_coeffs(self, fn, args, kwargs, result, rec, state):
        if result is not None and fn.cache_info().misses > state:
            self.counters["measure.ie_terms"] += 1 << len(_upper_of(args, kwargs).minimals)

    def _after_mc(self, fn, args, kwargs, result, rec, state):
        upper, _, samples = args[:3]
        self.counters["measure.mc_bytes"] += samples * upper.ground_size * 9

    def _after_problem(self, fn, args, kwargs, result, rec, state):
        if fn.cache_info().misses > state:
            self.counters["expectation.prep_calls"] += 1
            kept = len(result.cand_bits) if result is not None else 0
            self.problems.append((_upper_of(args, kwargs), kept))

    def _after_q(self, fn, args, kwargs, result, rec, state):
        self.counters["expectation.q_calls"] += 1
        tol = args[1] if len(args) > 1 else kwargs.get("tol", 1e-9)
        q = result.q if result is not None else None
        self.q_reports.append((self.command, _upper_of(args, kwargs), tol, q))

    def _after_decide(self, fn, args, kwargs, result, rec, state):
        self.counters["expectation.decide_calls"] += 1
        self.counters["expectation.bb_nodes"] += args[0].nodes - state

    def _after_optimize(self, fn, args, kwargs, result, rec, state):
        self.counters["expectation.bb_nodes"] += args[0].nodes - state

    def _after_dim(self, fn, args, kwargs, result, rec, state):
        self.counters["structure.dim_calls"] += 1
        if rec[ERROR] == "SizeLimitExceeded":
            self.counters["structure.dim_capped"] += 1

    def _dim_gate(self, module_name: str, upper) -> None:
        cap = getattr(importlib.import_module(f"upsetkit.{module_name}"), "DIMENSION_MINIMALS_CAP", None)
        if cap is not None and len(upper.minimals) > cap:
            self.counters["structure.dim_capped"] += 1

    def _after_verify(self, fn, args, kwargs, result, rec, state):
        self.counters["bounds.verify_calls"] += 1
        self._dim_gate("bounds", _upper_of(args, kwargs))

    def _after_record(self, fn, args, kwargs, result, rec, state):
        self._dim_gate("sweep", args[1])

    def _after_sweep(self, fn, args, kwargs, result, rec, state):
        if result is not None:
            self.counters["sweep.rows"] += len(result)
            self.counters["sweep.absent_cells"] += sum(
                getattr(r, f, None) is None for r in result for f in SWEEP_VALUE_FIELDS)

    # --- passes and metrics -------------------------------------------------

    def begin_pass(self) -> None:
        self._pass_start = len(self.spans)
        self.counters = Counter()
        self.problems, self.q_reports = [], []
        self.active = True

    def end_pass(self, label: str, factors: dict[int, float]) -> dict[str, float]:
        """Stop tracing and fold the pass's spans and counters into metrics.

        ``factors[c]`` rescales the span times of command ``c`` (-1 for the
        set-up) to the reference speed (calibrate.py)."""
        self.active = False
        start, spans = self._pass_start, self.spans
        self.passes.append((label, start, len(spans)))
        child_ns = Counter()
        for rec in spans[start:]:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        ns = Counter()
        out = Counter(self.counters)
        for i in range(start, len(spans)):
            rec = spans[i]
            key, factor = self.keys[rec[NAME]], factors[rec[COMMAND]]
            dur = rec[END] - rec[START]
            if key in SELF_TIME:
                ns[key] += (dur - child_ns[i]) * factor
            elif key is not None and rec[OUTER_KEY]:
                ns[key] += dur * factor
            if (rec[OUTER_GROUP] and rec[ERROR] == "SizeLimitExceeded"
                    and self.names[rec[NAME]].startswith("expectation.")):
                ns["expectation.cap_s"] += dur * factor
                out["expectation.cap_raised"] += 1
        for key, value in ns.items():
            out[key] = value / 1e9
        for upper, kept in self.problems:
            out["expectation.candidates_raw"] += self._pool_size(upper)
            out["expectation.candidates_kept"] += kept
        out["expectation.q_distinct"] = len({(c, u, t) for c, u, t, _ in self.q_reports})
        reported = {(c, u, q) for c, u, _, q in self.q_reports if q is not None}
        out["expectation.q_not_small_at_reported"] = sum(not self._small(u, q) for _, u, q in reported)
        return dict(out)

    def _pool_size(self, upper) -> int:
        """Distinct nonempty subsets of minimal elements: the raw candidate pool."""
        size = self._pool_sizes.get(upper)
        if size is None:
            pool = set()
            for m in upper.minimal_bits:
                sub = m
                while sub:
                    pool.add(sub)
                    sub = (sub - 1) & m
            size = self._pool_sizes[upper] = len(pool)
        return size

    def _small(self, upper, q: float) -> bool:
        from upsetkit.expectation import is_p_small

        if (upper, q) not in self._p_small:
            self._p_small[(upper, q)] = is_p_small(upper, q)
        return self._p_small[(upper, q)]

    def write(self, path: Path) -> None:
        fields = ["name", "start_ns", "end_ns", "parent", "command", "error", "outer_in_metric",
                  "outer_in_module"]
        doc = {"names": self.names, "fields": fields,
               "passes": [{"label": l, "first": a, "end": b} for l, a, b in self.passes],
               "spans": self.spans}
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _misses(fn, args) -> int:
    return fn.cache_info().misses


def _nodes(fn, args) -> int:
    return args[0].nodes


def combine(setup: dict[str, float], passes: list[dict[str, float]]) -> dict[str, float]:
    """Per-layer metrics of one workload run: set-up plus the pass median
    (the lower middle value, so a counter stays a whole number).

    Like the end-to-end times, a layer time is its median over the traced
    passes; counters are the same in every pass."""
    return {key: setup.get(key, 0) + statistics.median_low(p.get(key, 0) for p in passes)
            for key in UNITS if not key.startswith("trace.")}
