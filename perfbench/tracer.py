"""Per-layer tracing for the traced benchmark run.

The tracer wraps public functions of each ``edgering`` module in the
namespace where their caller looks them up (``classify`` finds
``gap_elements`` as ``edgering.serre.gap_elements``, the CLI finds
``classify`` as ``edgering.cli.classify``), so nothing in the library
changes.  Each wrapped call records a span (id, parent, root, name,
start, end) in memory; every ``classify`` call is a root and the spans
under it carry its id.  Hot leaf calls that only need counting (graph
constructions, recursive ``decide`` nodes, ``delete_vertex``) bump
counters instead.  A wrap target that no longer exists is reported as
absent rather than failing.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# (metric, unit): every per-layer metric, in report order.  Metrics whose
# name starts with ``import.`` or ``trace.`` are filled in by the caller.
PER_LAYER = [
    ("semigroup.gap_elements.calls", "count"),
    ("semigroup.gap_elements.ms", "ms"),
    ("semigroup.gap_elements.self_ms", "ms"),
    ("semigroup.gap_elements.out", "count"),
    ("semigroup.decide.calls", "count"),
    ("semigroup.decide.nodes", "count"),
    ("semigroup.decide.ms", "ms"),
    ("semigroup.decide.yes_ratio", "ratio"),
    ("semigroup.memo.entries", "count"),
    ("semigroup.in_S.calls", "count"),
    ("semigroup.in_S.ms", "ms"),
    ("semigroup.in_lattice.calls", "count"),
    ("semigroup.in_lattice.ms", "ms"),
    ("serre.vertex_parity_certificate.calls", "count"),
    ("serre.vertex_parity_certificate.ms", "ms"),
    ("serre.vertex_parity_certificate.hit_ratio", "ratio"),
    ("serre.in_SF_bounded.calls", "count"),
    ("serre.in_SF_bounded.ms", "ms"),
    ("serre.in_SF_bounded.self_ms", "ms"),
    ("serre.in_SF_bounded.yes", "count"),
    ("serre.in_SF_bounded.no_certified", "count"),
    ("serre.in_SF_bounded.no_up_to_bound", "count"),
    ("serre.hk_not_s2.calls", "count"),
    ("serre.hk_not_s2.ms", "ms"),
    ("serre.hk_not_s2.witness_ratio", "ratio"),
    ("serre.classify.calls", "count"),
    ("serre.classify.ms", "ms"),
    ("serre.stage.cycles_ms", "ms"),
    ("serre.stage.hk_ms", "ms"),
    ("serre.stage.gap_ms", "ms"),
    ("serre.stage.exclusion_ms", "ms"),
    ("cycles.exceptional_pairs.calls", "count"),
    ("cycles.exceptional_pairs.ms", "ms"),
    ("cycles.minimal_odd_cycles.cache_hit_ratio", "ratio"),
    ("facets.fundamental_sets.calls", "count"),
    ("facets.fundamental_sets.ms", "ms"),
    ("facets.fundamental_sets.out", "count"),
    ("facets.is_regular_vertex.calls", "count"),
    ("facets.is_regular_vertex.ms", "ms"),
    ("facets.facets.calls", "count"),
    ("facets.facets.ms", "ms"),
    ("facets.facets.cache_hit_ratio", "ratio"),
    ("facets.facets.validated_ratio", "ratio"),
    ("linalg.integer_rank.calls", "count"),
    ("linalg.integer_rank.ms", "ms"),
    ("graph.constructions", "count"),
    ("graph.delete_vertex.calls", "count"),
    ("graph.connected_components.calls", "count"),
    ("graph.connected_components.ms", "ms"),
    ("families.build.calls", "count"),
    ("families.build.ms", "ms"),
    ("cli.emit.ms", "ms"),
    ("cli.emit.bytes", "bytes"),
    ("import.edgering.ms", "ms"),
    ("import.numpy.ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

# Span name -> the (module, attribute) lookups it wraps.
SPAN_TARGETS = {
    "serre.classify": [("edgering.cli", "classify")],
    "families.build": [
        ("edgering.cli", "graph_for_theorem"),
        ("edgering.cli", "build_gab"),
        ("edgering.cli", "add_cross_edges"),
    ],
    "cli.emit": [("edgering.cli", "_emit")],
    "serre.hk_not_s2": [("edgering.serre", "hk_not_s2")],
    "cycles.exceptional_pairs": [
        ("edgering.serre", "exceptional_pairs"),
        ("edgering.semigroup", "exceptional_pairs"),
    ],
    "semigroup.gap_elements": [("edgering.serre", "gap_elements")],
    "facets.facets": [("edgering.serre", "facets"), ("edgering.semigroup", "facets")],
    "serre.vertex_parity_certificate": [("edgering.serre", "vertex_parity_certificate")],
    "serre.in_SF_bounded": [("edgering.serre", "in_SF_bounded")],
    "semigroup.in_S": [("edgering.serre", "in_S")],
    "semigroup.in_lattice": [("edgering.serre", "in_lattice")],
    "facets.fundamental_sets": [
        ("edgering.serre", "fundamental_sets"),
        ("edgering.facets", "fundamental_sets"),
    ],
    "facets.is_regular_vertex": [
        ("edgering.serre", "is_regular_vertex"),
        ("edgering.facets", "is_regular_vertex"),
    ],
    "linalg.integer_rank": [("edgering.facets", "integer_rank")],
    "graph.connected_components": [
        ("edgering.serre", "connected_components"),
        ("edgering.facets", "connected_components"),
        ("edgering.graph", "connected_components"),
    ],
}

# Counted, not spanned: name -> lookups.
COUNT_TARGETS = {
    "graph.delete_vertex": [("edgering.serre", "delete_vertex"), ("edgering.facets", "delete_vertex")],
    "cycles.minimal_odd_cycles": [("edgering.cycles", "minimal_odd_cycles")],
}

# Class attributes patched in place: name -> (module, class, attribute).
METHOD_TARGETS = {
    "semigroup.decide": ("edgering.semigroup", "_EdgeSumSearch", "decide"),
    "graph.constructions": ("edgering.graph", "Graph", "__post_init__"),
}

STAGES = ("cycles", "hk", "gap", "exclusion")


def self_times(spans) -> dict[int, int]:
    """Span id -> self time: its duration minus the part of its interval
    that its child spans cover (overlapping children are counted once,
    and a child reaching outside its parent is clipped)."""
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _root, _name, t0, t1 in spans:
        if parent >= 0:
            children[parent].append((t0, t1))
    out = {}
    for sid, _parent, _root, _name, t0, t1 in spans:
        covered = 0
        end = t0
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, end), min(b, t1)
            if b > a:
                covered += b - a
                end = b
        out[sid] = (t1 - t0) - covered
    return out


def _lookup(module: str, attr: str):
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return None, None
    return mod, getattr(mod, attr, None)


class Tracer:
    """Installs the wrappers, holds spans and counters, and computes the
    per-layer metrics.  Use ``install`` before the run and ``uninstall``
    after it."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.names: list[str] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.absent: set[str] = set()
        self._stack: list[tuple[int, int]] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._engines: dict[int, object] = {}
        self._decide_depth = 0
        self._after = {
            "serre.classify": self._after_classify,
            "cli.emit": self._after_emit,
            "serre.hk_not_s2": self._count_truthy("hk_not_s2.witness"),
            "semigroup.gap_elements": self._count_len("gap_elements.out"),
            "facets.facets": self._after_facets,
            "serre.vertex_parity_certificate": self._count_truthy("vertex_parity_certificate.hits"),
            "serre.in_SF_bounded": self._after_in_sf,
            "facets.fundamental_sets": self._count_len("fundamental_sets.out"),
        }

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        for name, lookups in SPAN_TARGETS.items():
            self._install_each(name, lookups, self._span_wrapper)
        for name, lookups in COUNT_TARGETS.items():
            self._install_each(name, lookups, self._count_wrapper)
        for name, (module, cls_name, attr) in METHOD_TARGETS.items():
            _, cls = _lookup(module, cls_name)
            if cls is None or getattr(cls, attr, None) is None:
                self.absent.add(name)
                continue
            make = self._decide_wrapper if name == "semigroup.decide" else self._construction_wrapper
            self._patch(cls, attr, make(getattr(cls, attr)))
        return self

    def _install_each(self, name, lookups, make) -> None:
        found = False
        for module, attr in lookups:
            mod, fn = _lookup(module, attr)
            if fn is None:
                continue
            self._patch(mod, attr, make(name, fn))
            found = True
        if not found:
            self.absent.add(name)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _timed(self, nid: int, is_root: bool, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        if self._stack:
            parent, root = self._stack[-1]
        else:
            parent, root = -1, sid
        self._stack.append((sid, sid if is_root else root))
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append((sid, parent, sid if is_root else root, nid, t0, t1))

    def _span_wrapper(self, name: str, fn):
        nid = self._name_id(name)
        is_root = name == "serre.classify"
        after = self._after.get(name)
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            hits = cache_info().hits if cache_info else 0
            result = self._timed(nid, is_root, fn, args, kwargs)
            if cache_info:
                self.counts[name + ".hits"] += cache_info().hits - hits
            if after:
                after(result, args)
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)

        def wrapper(*args, **kwargs):
            self.counts[name + ".calls"] += 1
            if cache_info is None:
                return fn(*args, **kwargs)
            hits = cache_info().hits
            result = fn(*args, **kwargs)
            self.counts[name + ".hits"] += cache_info().hits - hits
            return result

        return wrapper

    def _decide_wrapper(self, fn):
        """Top-level calls become spans; recursive calls count as nodes."""
        nid = self._name_id("semigroup.decide")

        def decide(engine, x):
            self.counts["decide.nodes"] += 1
            if self._decide_depth:
                self._decide_depth += 1
                try:
                    return fn(engine, x)
                finally:
                    self._decide_depth -= 1
            self._decide_depth = 1
            try:
                result = self._timed(nid, False, fn, (engine, x), {})
            finally:
                self._decide_depth = 0
            self.counts["decide.yes"] += bool(result)
            self._engines[id(engine)] = engine
            return result

        return decide

    def _construction_wrapper(self, fn):
        def post_init(graph):
            self.counts["graph.constructions"] += 1
            fn(graph)

        return post_init

    # -- result hooks ---------------------------------------------------

    def _count_truthy(self, key: str):
        def hook(result, _args):
            self.counts[key] += result is not None

        return hook

    def _count_len(self, key: str):
        def hook(result, _args):
            self.counts[key] += len(result)

        return hook

    def _after_classify(self, report, _args) -> None:
        timings = getattr(report, "timings_ms", {}) or {}
        for stage in STAGES:
            self.counts["stage." + stage] += timings.get(stage, 0.0)

    def _after_emit(self, _result, args) -> None:
        self.counts["emit.bytes"] += len(args[0].encode("utf-8"))

    def _after_facets(self, result, _args) -> None:
        self.counts["facets.total"] += len(result)
        self.counts["facets.validated"] += sum(1 for f in result if f.validated)

    def _after_in_sf(self, result, _args) -> None:
        self.counts["in_SF_bounded." + str(getattr(result, "status", "other"))] += 1

    # -- results --------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Span name -> calls, inclusive ms and self ms."""
        own = self_times(self.spans)
        out: dict[str, dict[str, float]] = {
            n: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for n in self.names
        }
        for sid, _parent, _root, nid, t0, t1 in self.spans:
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["ms"] += (t1 - t0) / 1e6
            entry["self_ms"] += own[sid] / 1e6
        return out

    def metrics(self) -> tuple[dict[str, float], list[str]]:
        """Values of every PER_LAYER metric this tracer measures, and the
        names of those whose wrap target was absent."""
        agg = self.aggregate()
        c = self.counts

        def span(name: str, stat: str) -> float:
            return agg.get(name, {}).get(stat, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        memo = sum(len(getattr(e, "failed", ())) for e in self._engines.values())
        values = {
            "semigroup.gap_elements.out": c["gap_elements.out"],
            "semigroup.decide.nodes": c["decide.nodes"],
            "semigroup.decide.yes_ratio": ratio(c["decide.yes"], span("semigroup.decide", "calls")),
            "semigroup.memo.entries": memo,
            "serre.vertex_parity_certificate.hit_ratio": ratio(
                c["vertex_parity_certificate.hits"],
                span("serre.vertex_parity_certificate", "calls"),
            ),
            "serre.in_SF_bounded.yes": c["in_SF_bounded.yes"],
            "serre.in_SF_bounded.no_certified": c["in_SF_bounded.no_certified"],
            "serre.in_SF_bounded.no_up_to_bound": c["in_SF_bounded.no_up_to_bound"],
            "serre.hk_not_s2.witness_ratio": ratio(c["hk_not_s2.witness"], span("serre.hk_not_s2", "calls")),
            "cycles.minimal_odd_cycles.cache_hit_ratio": ratio(
                c["cycles.minimal_odd_cycles.hits"], c["cycles.minimal_odd_cycles.calls"]
            ),
            "facets.fundamental_sets.out": c["fundamental_sets.out"],
            "facets.facets.cache_hit_ratio": ratio(c["facets.facets.hits"], span("facets.facets", "calls")),
            "facets.facets.validated_ratio": ratio(c["facets.validated"], c["facets.total"]),
            "graph.constructions": c["graph.constructions"],
            "graph.delete_vertex.calls": c["graph.delete_vertex.calls"],
            "cli.emit.bytes": c["emit.bytes"],
            "trace.spans": len(self.spans),
        }
        for stage in STAGES:
            values[f"serre.stage.{stage}_ms"] = c["stage." + stage]
        for name in SPAN_TARGETS:
            for stat in ("calls", "ms", "self_ms"):
                values[f"{name}.{stat}"] = span(name, stat)
        for stat in ("calls", "ms"):
            values[f"semigroup.decide.{stat}"] = span("semigroup.decide", stat)

        prefixes = self._absent_prefixes()
        absent = [m for m, _ in PER_LAYER if any(m == a or m.startswith(a + ".") for a in prefixes)]
        out = {m: values[m] for m, _ in PER_LAYER if m in values and m not in absent}
        return out, absent

    def _absent_prefixes(self) -> set[str]:
        prefixes = set(self.absent)
        if "semigroup.decide" in self.absent:
            prefixes.add("semigroup.memo")
        if "serre.classify" in self.absent:
            prefixes.add("serre.stage")
        return prefixes

    def write_spans(self, path) -> None:
        """One JSON header line, then [id, parent, root, name, start_ns, end_ns] per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "root", "name", "start_ns", "end_ns"],
                                 "names": self.names}) + "\n")
            fh.writelines(f"[{s[0]},{s[1]},{s[2]},{s[3]},{s[4]},{s[5]}]\n" for s in self.spans)
