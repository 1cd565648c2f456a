"""Unit tests of the output checks: a recorded report passes, and a changed
verdict, a forged certificate or a changed sweep report fails.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import edgering.cli  # noqa: E402
import workloads  # noqa: E402

POOL = workloads.EXPECTED["localization_search"]["pool"]


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    """The first pool graph, its analyze argv, and the report bytes."""
    work = tmp_path_factory.mktemp("analyze")
    text = POOL[0]["graph"]
    path = work / "g0.graph"
    path.write_text(text, encoding="utf-8")
    (argv,) = workloads.commands("localization_search", False, work, [path])
    assert edgering.cli.main(argv) == 0
    return text, argv, Path(argv[argv.index("--output") + 1]).read_bytes()


def rewrite(argv, report: dict) -> None:
    Path(argv[argv.index("--output") + 1]).write_text(json.dumps(report), encoding="utf-8")


def check_one(text, argv):
    return workloads.check("localization_search", False, [argv], [(0, None)], [text])


def test_recorded_report_passes(analyzed):
    text, argv, data = analyzed
    Path(argv[argv.index("--output") + 1]).write_bytes(data)
    assert check_one(text, argv) == (0, [])


def test_flipped_verdict_fails(analyzed):
    # An uncertified gap element named as s' is self-consistent, so only
    # the recorded digest catches this.
    text, argv, data = analyzed
    report = json.loads(data)
    assert report["verdict"] == "NonNormalS2Verified" and not report["certificates"]
    report.update(verdict="NonNormalNotS2", s_prime_candidate=report["gap"][0])
    assert workloads.analyze_problems(report, text) == []
    rewrite(argv, report)
    failed, notes = check_one(text, argv)
    assert failed == 1 and "report digest changed" in notes[0]


def test_forged_certificate_fails(analyzed):
    text, argv, data = analyzed
    report = json.loads(data)
    alpha = report["gap"][0]
    report["certificates"] = [{"vertex": 1, "component": [2], "candidate": alpha}]
    assert workloads.analyze_problems(report, text)


def test_exhaustive_flag_must_match_certificates(analyzed):
    text, _, data = analyzed
    report = json.loads(data)
    report["exhaustive"] = True
    assert workloads.analyze_problems(report, text) == ["exhaustive is True"]


def test_graph_outside_the_pool_fails(analyzed):
    text, argv, data = analyzed
    Path(argv[argv.index("--output") + 1]).write_bytes(data)
    failed, notes = check_one(text + "c extra comment\n", argv)
    assert failed == 1 and "not in the recorded pool" in notes[0]


def test_changed_sweep_reports_fail_their_rows(tmp_path):
    argvs = workloads.commands("theorem_sweep", True, tmp_path, [])
    for argv in argvs:
        rewrite(argv, {"all_s2_verified": True, "rows": [{}]})
    failed, notes = workloads.check("theorem_sweep", True, argvs, [(0, None)] * len(argvs), [])
    assert failed == workloads.item_count("theorem_sweep", True, []) == len(argvs)
    assert all(note.endswith(": report digest changed") for note in notes)


def test_selection_is_seeded_and_recorded():
    for seed, sha in workloads.EXPECTED["localization_search"]["graphs_sha256"].items():
        assert workloads.digest(workloads.select_graphs(POOL, int(seed), smoke=False)) == sha
    assert workloads.select_graphs(POOL, 5, True) == workloads.select_graphs(POOL, 5, False)[:2]
