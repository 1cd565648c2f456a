import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import helpers
from edgering import cli
from edgering.families import graph_for_theorem
from edgering.graph import parse_graph, write_graph

GOLDEN_D9_TSV = Path(__file__).parent / "golden" / "verify_theorem_d9.tsv"
# analyze --degree-bound 16 --search-bound 12 on the d=8, n=13 theorem graph
D8_N13_REPORT_SHA256 = "718be51f432ebddef6bc45298af8e0683b1cb0345e0695196ae4329081531407"
# additions --a 3 --b 4 --max-extra 2 --format tsv
ADDITIONS_34_TSV_SHA256 = "8493f5b6872415c41f95e182a9298289b8fb0f4a16795d24b0790a0db2e9dbbe"
# the benchmark's recorded localization pool: 60 graphs, each with the
# SHA-256 of its `analyze --degree-bound 8 --search-bound 8` report; read only
POOL_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "expected.json"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "edgering.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def write_file(path, graph, comment=None):
    path.write_text(write_graph(graph, comment=comment))
    return str(path)


def test_analyze_normal(tmp_path):
    path = write_file(tmp_path / "k5.graph", helpers.complete_graph(5))
    proc = run_cli("analyze", "--input", path)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(proc.stdout)
    assert data["verdict"] == "Normal"
    assert "Normal" in proc.stderr


def test_analyze_s2_verified(tmp_path, g33):
    path = write_file(tmp_path / "g33.graph", g33.graph)
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--input", path, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["verdict"] == "NonNormalS2Verified"
    assert data["gap_count"] == 462
    assert data["exhaustive"] is True
    assert proc.stdout == ""
    for stage in ("cycles", "hk", "gap", "exclusion"):
        assert f"{stage} " in proc.stderr


def test_analyze_parse_error(tmp_path):
    bad = tmp_path / "bad.graph"
    bad.write_text("p 3 1\ne 1 9\n")
    proc = run_cli("analyze", "--input", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


def test_analyze_missing_file(tmp_path):
    proc = run_cli("analyze", "--input", str(tmp_path / "nope.graph"))
    assert proc.returncode == 2


def test_analyze_bipartite_unsupported(tmp_path):
    path = write_file(tmp_path / "c6.graph", helpers.cycle_graph(6))
    proc = run_cli("analyze", "--input", path)
    assert proc.returncode == 3


def test_analyze_unknown_exit_code(tmp_path):
    path = write_file(tmp_path / "pent.graph", helpers.two_pentagons_linked())
    proc = run_cli("analyze", "--input", path, "--degree-bound", "8")
    assert proc.returncode == 4
    data = json.loads(proc.stdout)
    assert data["verdict"] == "Unknown"


def test_family_writes_file_and_sidecar(tmp_path):
    out = tmp_path / "fam.graph"
    proc = run_cli("family", "--d", "7", "--n", "8", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    g = parse_graph(out.read_text())
    assert g.n_vertices == 7 and g.n_edges == 8
    meta = json.loads((tmp_path / "fam.graph.meta.json").read_text())
    assert meta["a"] == 3 and meta["b"] == 3
    assert meta["d"] == 7 and meta["n"] == 8
    assert meta["labels"]["w"] == 4
    assert [tuple(e) for e in meta["removed_edges"]] == [(1, 4), (2, 4), (4, 5), (4, 6)]


def test_family_stdout_default(tmp_path):
    proc = run_cli("family", "--a", "3", "--b", "4")
    assert proc.returncode == 0
    g = parse_graph(proc.stdout)
    assert g.n_edges == 16


def test_family_bad_dimension():
    proc = run_cli("family", "--d", "6", "--n", "8")
    assert proc.returncode == 2
    assert "d" in proc.stderr


def test_family_conflicting_flags():
    proc = run_cli("family", "--d", "7", "--n", "8", "--a", "3", "--b", "3")
    assert proc.returncode == 2


def test_verify_theorem_single_row(tmp_path):
    out = tmp_path / "thm.json"
    proc = run_cli("verify-theorem", "--d", "7", "--n", "8", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert data["command"] == "verify-theorem"
    assert data["all_s2_verified"] is True
    assert len(data["rows"]) == 1
    row = data["rows"][0]
    assert row["n"] == 8 and row["verdict"] == "NonNormalS2Verified"
    assert row["exhaustive"] is True


def test_verify_theorem_out_of_range():
    proc = run_cli("verify-theorem", "--d", "7", "--n", "13")
    assert proc.returncode == 2
    assert "[8, 12]" in proc.stderr


def test_verify_theorem_rejects_n_with_a_range():
    for extra in (["--n-min", "8"], ["--n-max", "9"], ["--n-min", "8", "--n-max", "9"]):
        proc = run_cli("verify-theorem", "--d", "7", "--n", "9", *extra)
        assert proc.returncode == 2, extra
        assert "--n or --n-min/--n-max" in proc.stderr
        assert proc.stdout == ""


def test_verify_theorem_negative_search_bound():
    proc = run_cli("verify-theorem", "--d", "7", "--n", "8", "--search-bound", "-1")
    assert proc.returncode == 2
    assert "search bound" in proc.stderr


def test_verify_theorem_past_vertex_limit():
    # d=17 is a valid dimension, but fundamental set enumeration stops at
    # 16 vertices: an unsupported graph, not bad input
    proc = run_cli("verify-theorem", "--d", "17", "--n", "18")
    assert proc.returncode == 3
    assert "16 vertices" in proc.stderr


def test_verify_theorem_tsv():
    proc = run_cli("verify-theorem", "--d", "7", "--n", "8", "--format", "tsv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().split("\n")
    assert lines[0].split("\t") == ["d", "n", "edges", "verdict", "exhaustive", "certificate_count"]
    assert len(lines) == 2
    assert lines[1].split("\t")[:4] == ["7", "8", "8", "NonNormalS2Verified"]


def test_additions_tsv_bytes():
    proc = run_cli("additions", "--a", "3", "--b", "4", "--max-extra", "2", "--format", "tsv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.split("\n")
    assert lines[0] == "extra_edges\tedges\tverdict\texhaustive" and len(lines) == 2 + 12 + 66
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == ADDITIONS_34_TSV_SHA256


def test_additions_single_edges(tmp_path):
    out = tmp_path / "adds.json"
    proc = run_cli("additions", "--a", "3", "--b", "3", "--max-extra", "1", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert len(data["rows"]) == 9
    assert data["all_rows_expected"] is True
    verdicts = {r["verdict"] for r in data["rows"]}
    assert verdicts <= {"Normal", "NonNormalNotS2"}
    # one cross edge bridges every pair of disjoint triangles here
    assert verdicts == {"Normal"}


def test_additions_bad_max_extra():
    proc = run_cli("additions", "--a", "3", "--b", "3", "--max-extra", "0")
    assert proc.returncode == 2


def test_additions_odd_degree_bound():
    # every graph here returns before gap enumeration, so classify must
    # reject the bound up front
    proc = run_cli("additions", "--a", "3", "--b", "3", "--max-extra", "1", "--degree-bound", "7")
    assert proc.returncode == 2
    assert "degree bound" in proc.stderr


def test_no_command_shows_usage():
    proc = run_cli()
    assert proc.returncode == 2


def test_jobs_below_one_rejected():
    for command in (["verify-theorem", "--d", "7", "--n", "8"], ["additions", "--a", "3", "--b", "3"]):
        for jobs in ("0", "-3"):
            proc = run_cli(*command, "--jobs", jobs)
            assert proc.returncode == 2, (command, jobs)
            assert "--jobs" in proc.stderr
            assert proc.stdout == ""


def test_theorem_results_rejects_jobs_below_one(monkeypatch):
    def no_work(_):
        raise AssertionError("a graph was classified")

    monkeypatch.setattr(cli, "_theorem_job", no_work)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            cli.theorem_results(7, [8], jobs=jobs)


def test_additions_report_independent_of_jobs():
    args = ("additions", "--a", "3", "--b", "4", "--max-extra", "2")
    serial = run_cli(*args, "--jobs", "1")
    parallel = run_cli(*args, "--jobs", "2")
    assert serial.returncode == 0, serial.stderr
    assert parallel.returncode == 0, parallel.stderr
    assert serial.stdout == parallel.stdout
    assert len(json.loads(serial.stdout)["rows"]) == 12 + 66


def test_verify_theorem_d9_matches_golden(tmp_path):
    """The whole d=9 sweep report, byte for byte."""
    out = tmp_path / "d9.tsv"
    proc = run_cli("verify-theorem", "--d", "9", "--format", "tsv", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_bytes() == GOLDEN_D9_TSV.read_bytes()


def test_analyze_theorem_graph_report_bytes(tmp_path):
    """The full report of one theorem graph (gap, certificates and all) at
    the default bounds, pinned by its SHA-256."""
    path = write_file(tmp_path / "d8n13.graph", graph_for_theorem(8, 13).graph)
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--degree-bound", "16", "--search-bound", "12",
                   "--input", path, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == D8_N13_REPORT_SHA256


def test_localization_pool_reports_at_8_8(tmp_path, capsys):
    """Every pool graph's `analyze` report at bounds 8/8, byte for byte as
    the benchmark recorded it.  No vertex certifies these graphs' gaps, so
    the reports rest on the validated facets and the exact localization
    test."""
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))["localization_search"]["pool"]
    assert len(pool) == 60
    path, out = tmp_path / "pool.graph", tmp_path / "report.json"
    for i, entry in enumerate(pool):
        path.write_text(entry["graph"])
        rc = cli.main(["analyze", "--degree-bound", "8", "--search-bound", "8",
                       "--input", str(path), "--output", str(out)])
        assert rc == 0, (i, capsys.readouterr().err)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == entry["report_sha256"], i
