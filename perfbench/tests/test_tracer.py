"""Unit tests of the benchmark's tracer: span arithmetic, absent wrap
targets, and the metric list shared with BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import edgering.cli  # noqa: E402
import run  # noqa: E402
from tracer import PER_LAYER, Tracer, self_times  # noqa: E402


def test_self_time_subtracts_covered_child_intervals():
    # root 0..100 with children 10..30 and 20..50 (overlapping), 90..120
    # (reaching past the root) and a grandchild 12..18 inside the first.
    spans = [
        (0, -1, 0, 0, 0, 100),
        (1, 0, 0, 1, 10, 30),
        (2, 0, 0, 1, 20, 50),
        (3, 0, 0, 1, 90, 120),
        (4, 1, 0, 2, 12, 18),
    ]
    own = self_times(spans)
    assert own[0] == 100 - (40 + 10)
    assert own[1] == 20 - 6
    assert own[2] == 30
    assert own[3] == 30
    assert own[4] == 6


def test_self_time_of_leaf_and_nested_children_counted_once():
    spans = [(0, -1, 0, 0, 0, 10), (1, 0, 0, 1, 2, 8), (2, 0, 0, 1, 3, 5)]
    assert self_times(spans) == {0: 4, 1: 6, 2: 2}


def test_aggregate_and_roots_on_a_real_classify():
    tracer = Tracer().install()
    try:
        report = edgering.cli.classify(edgering.build_gab(3, 3).graph, degree_bound=6)
    finally:
        tracer.uninstall()
    assert edgering.cli.classify is edgering.serre.classify
    assert report.verdict == "NonNormalS2Verified"
    values, absent = tracer.metrics()
    assert absent == []
    assert values["serre.classify.calls"] == 1
    assert values["semigroup.gap_elements.calls"] == 1
    assert values["semigroup.gap_elements.out"] == report.gap_count
    assert 0 <= values["semigroup.gap_elements.self_ms"] <= values["semigroup.gap_elements.ms"]
    root = next(s for s in tracer.spans if s[1] == -1)
    assert all(s[2] == root[0] for s in tracer.spans)


def test_missing_wrap_target_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(edgering.semigroup, "_EdgeSumSearch")
    monkeypatch.delattr(edgering.serre, "vertex_parity_certificate")
    tracer = Tracer().install()
    tracer.uninstall()
    values, absent = tracer.metrics()
    assert "semigroup.decide.calls" in absent
    assert "semigroup.memo.entries" in absent
    assert "serre.vertex_parity_certificate.hit_ratio" in absent
    assert not set(absent) & set(values)
    checks = dict(run.coverage("theorem_sweep", values, 0))
    assert checks["certificate hits == semigroup.gap_elements.out"].startswith("skipped")


def test_benchmark_json_lists_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == PER_LAYER


def test_import_times_parses_cumulative_column():
    stderr = (
        "import time: self [us] | cumulative | imported package\n"
        "import time:       120 |       9000 |   numpy\n"
        "import time:       300 |      15000 | edgering\n"
        "verify-theorem d=7: 5 rows\n"
    )
    assert run.import_times(stderr) == {"import.numpy.ms": 9.0, "import.edgering.ms": 15.0}
