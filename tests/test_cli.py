import concurrent.futures
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import helpers
from edgering import cli
from edgering.families import build_gab, graph_for_theorem
from edgering.graph import parse_graph, write_graph
from edgering.semigroup import DEGREE_BOUND

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_D9_TSV = GOLDEN / "verify_theorem_d9.tsv"
# analyze --degree-bound 16 --search-bound 12 on the d=8, n=13 theorem graph
D8_N13_REPORT_SHA256 = "718be51f432ebddef6bc45298af8e0683b1cb0345e0695196ae4329081531407"
# the same on `family --d 8 --n 16`, the largest d=8 theorem graph (3,168
# certificates), recorded before the gap stage built the certificates; the
# n = 13..16 graphs share their gap and certificates, so their report bytes
D8_N16_REPORT_SHA256 = "718be51f432ebddef6bc45298af8e0683b1cb0345e0695196ae4329081531407"
# SHA-256 of the `analyze --degree-bound 16 --search-bound 12` report of
# pool graph 0 (``localization_graph``), recorded before the exact
# localization test was added
POOL_0_REPORT_SHA256 = "588b32f89c25596399253fd2755fa2893646877b7d4a9f0103b4816989d9d623"
# SHA-256 of its `analyze --search-bound 0` report, recorded while
# ``classify`` still took the search bound; only the CLI echoes it now
POOL_0_SEARCH_BOUND_0_REPORT_SHA256 = "c0d650acdb72702bd6696d7a773a48bde700cf221984bbf916a56e55c3df6b1e"
# SHA-256 of the default-bounds `analyze` report of tests/golden/
# pair_clique_d10.graph, recorded before exclusion tried the last
# excluding facet first
PAIR_CLIQUE_D10_REPORT_SHA256 = "158b068fee220bf425765f246e9c61b0180a65f5cdb1776671b432dd60a7ce7c"
# SHA-256 of the default-bounds `analyze` report of tests/golden/
# partial_proof_d9.graph, recorded before the gap stage applied Lemma 2
# to each module generator on its own
PARTIAL_PROOF_D9_REPORT_SHA256 = "24f09a3637460e5a1b4022dbde2c449d7135ee11f4ec7411470828a181d09eba"
# SHA-256 of the default-bounds `analyze` report of tests/golden/
# two_covers_d10.graph, recorded before the open part grew from Step C's
# failed covers
TWO_COVERS_D10_REPORT_SHA256 = "152bb90104fd6da841c5371a84e190240025f17936eb887ac6ff107aff1a6255"
# SHA-256 of the default-bounds `analyze` report of tests/golden/
# exclusion_not_s2_d9.graph (``EXCLUSION_NOT_S2`` of tests/test_serre.py):
# NotS2 by exclusion, 1,617 gap elements, 6 certificates; recorded before
# the HK check and the facet list shared one facet pass
EXCLUSION_NOT_S2_D9_REPORT_SHA256 = "7d13a1d7943ada3c72aadfc8feb92c01fa7c40fcc1e896ecb5d45f6ae4414c27"
# the same of tests/golden/hk_witness_d9.graph: NotS2 by the HK criterion,
# its witness with a nonempty ``same_component_sets``; recorded then too
HK_WITNESS_D9_REPORT_SHA256 = "c247527fcf19b7fc97e1195fa413375cc711f703c0286ea0d21a3b3312405fc8"
# additions --a 3 --b 4 --max-extra 2 --format tsv
ADDITIONS_34_TSV_SHA256 = "8493f5b6872415c41f95e182a9298289b8fb0f4a16795d24b0790a0db2e9dbbe"
# additions --a 4 --b 4 --max-extra 4 JSON, the benchmark's refutation_additions size
ADDITIONS_44_JSON_SHA256 = "7b984939c7ce514da685a47cd8851fa1b5fd5b5359f99c47b78e2845d06e02e4"
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


def test_analyze_huge_header_is_unsupported_at_once(tmp_path, capsys):
    """12 bytes claiming 10^12 vertices and no edge: exit 3 (a MemoryError
    gave exit 1), in well under a second, naming d and m."""
    (tmp_path / "huge.graph").write_text("p 1000000000000 0\n")
    t0 = time.perf_counter()
    assert cli.main(["analyze", "--input", str(tmp_path / "huge.graph")]) == 3
    assert time.perf_counter() - t0 < 1.0
    assert "d=1000000000000 vertices and m=0 edges" in capsys.readouterr().err


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


@pytest.mark.parametrize("args, name", [
    (["--d", "7", "--n", "8"], "family_d7_n8"),
    (["--a", "3", "--b", "4", "--n", "14"], "family_a3_b4_n14"),
])
def test_family_outputs_match_golden(tmp_path, args, name):
    """The graph file and its sidecar, labels and removals included, byte
    for byte."""
    out = tmp_path / "fam.graph"
    assert cli.main(["family", *args, "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.graph").read_bytes()
    assert (tmp_path / "fam.graph.meta.json").read_bytes() == (GOLDEN / f"{name}.graph.meta.json").read_bytes()


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


@pytest.mark.parametrize("command", [
    ["analyze", "--input", str(GOLDEN / "pool_graph_0.graph")],
    ["additions", "--a", "3", "--b", "3", "--max-extra", "1"],
], ids=["analyze", "additions"])
def test_negative_search_bound_refused_before_any_command(monkeypatch, capsys, command):
    """``main`` refuses a negative --search-bound with exit 2 before the
    command classifies anything."""
    def no_work(*_args, **_kw):
        raise AssertionError("a graph was classified")

    monkeypatch.setattr(cli, "classify", no_work)
    assert cli.main([*command, "--search-bound", "-1"]) == 2
    out, err = capsys.readouterr()
    assert "search bound" in err and out == ""


def test_analyze_echoes_the_search_bound(tmp_path, capsys):
    """`analyze --search-bound 0` writes the bytes it wrote when
    ``classify`` took the bound: only the echoed value differs from the
    default report."""
    out = tmp_path / "report.json"
    rc = cli.main(["analyze", "--search-bound", "0", "--input", str(GOLDEN / "pool_graph_0.graph"),
                   "--output", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POOL_0_SEARCH_BOUND_0_REPORT_SHA256
    assert json.loads(out.read_text())["search_bound"] == 0


@pytest.mark.parametrize("d", ["37", "20000", str(10**9)])
def test_verify_theorem_huge_dimension_is_bad_input_at_once(capsys, d):
    """The construction is the (3, d - 4) family, so d > 36 passes the side
    limit: exit 2, naming d, before any edge-count range is built (d =
    20000 raised MemoryError, exit 1, under a 2 GB address-space limit)."""
    t0 = time.perf_counter()
    assert cli.main(["verify-theorem", "--d", d]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert f"got d={d}" in capsys.readouterr().err


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


def test_additions_44_json_bytes(tmp_path, capsys):
    out = tmp_path / "adds.json"
    rc = cli.main(["additions", "--a", "4", "--b", "4", "--max-extra", "4", "--output", str(out)])
    assert rc == 0, capsys.readouterr().err
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ADDITIONS_44_JSON_SHA256


@pytest.mark.parametrize("a, b, max_extra", [(3, 3, 9), (3, 4, 3), (4, 4, 2)])
def test_addition_rows_match_per_subset_route(a, b, max_extra):
    """Classifying one subset per orbit gives every row that classifying
    each subset on its own gives."""
    fam = build_gab(a, b)
    expected = helpers.addition_rows_reference(fam, max_extra, DEGREE_BOUND)
    assert cli.addition_rows(fam, max_extra) == expected


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


def test_additions_over_the_subset_limit(capsys):
    """(5,5) with all 25 cross pairs has 2**25 - 1 subsets: exit 2 within a
    second, naming the count and the limit, before any subset is listed;
    ``--help`` states the limit."""
    t0 = time.perf_counter()
    assert cli.main(["additions", "--a", "5", "--b", "5"]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert "33,554,431" in err and f"{cli.ADDITIONS_SUBSET_LIMIT:,}" in err
    with pytest.raises(SystemExit):
        cli.main(["additions", "--help"])
    assert f"{cli.ADDITIONS_SUBSET_LIMIT:,}" in capsys.readouterr().out


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
    def no_work(*_args, **_kw):
        raise AssertionError("a graph was classified")

    monkeypatch.setattr(cli, "classify", no_work)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            cli.theorem_results(7, [8], jobs=jobs)


def test_jobs_start_no_more_workers_than_graphs(monkeypatch):
    """A pool gets one worker per graph at most, and one graph gets none.
    The fake pool runs the jobs inline, so no process starts."""
    started = []

    class InlinePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, work, chunksize=1):
            return map(fn, work)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    serial = [row for row, _ in cli.theorem_results(7, list(range(8, 13)))]
    assert [row for row, _ in cli.theorem_results(7, list(range(8, 13)), jobs=64)] == serial
    assert started == [5]
    cli.theorem_results(7, [8], jobs=64)
    assert started == [5]
    assert cli.addition_rows(build_gab(3, 4), 2, jobs=64) == cli.addition_rows(build_gab(3, 4), 2)
    assert started == [5, 4]  # one graph per orbit


def test_cli_import_loads_no_process_pool():
    """The pool's modules load only where a pool runs, not at every start."""
    probe = "import sys, edgering.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


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


@pytest.mark.parametrize("name, digest", [
    pytest.param("d8_n13", D8_N13_REPORT_SHA256, id="d8_n13"),
    pytest.param("d8_n16", D8_N16_REPORT_SHA256, id="d8_n16"),
    pytest.param("pool_graph_0", POOL_0_REPORT_SHA256, id="pool_graph_0"),
    pytest.param("pair_clique_d10", PAIR_CLIQUE_D10_REPORT_SHA256, id="pair_clique_d10"),
    pytest.param("partial_proof_d9", PARTIAL_PROOF_D9_REPORT_SHA256, id="partial_proof_d9"),
    pytest.param("two_covers_d10", TWO_COVERS_D10_REPORT_SHA256, id="two_covers_d10"),
    pytest.param("exclusion_not_s2_d9", EXCLUSION_NOT_S2_D9_REPORT_SHA256, id="exclusion_not_s2_d9"),
    pytest.param("hk_witness_d9", HK_WITNESS_D9_REPORT_SHA256, id="hk_witness_d9"),
])
def test_analyze_report_bytes(tmp_path, name, digest):
    """The full report (gap, certificates and all) at the default bounds,
    16/12, pinned by its SHA-256: of the d=8, n=13 and n=16 theorem graphs
    and of the four golden graphs whose digests tests/test_serre.py checks
    through ``json.dumps``, the largest reports the CLI writes; and of a
    NotS2 verdict by exclusion and one by the HK criterion, which no other
    digest covers."""
    if name.startswith("d8_n"):
        path = write_file(tmp_path / f"{name}.graph", graph_for_theorem(8, int(name[4:])).graph)
    else:
        path = str(GOLDEN / f"{name}.graph")
    out = tmp_path / "report.json"
    proc = run_cli("analyze", "--degree-bound", "16", "--search-bound", "12",
                   "--input", path, "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# report text with quotes, backslashes, control, non-ASCII and non-BMP
# characters and a lone surrogate
json_text = st.text(st.sampled_from('"\\/\x00\x1f\x7f\n\té€\u2028\ud800\U0001f600') | st.characters(), max_size=8)
json_ints = st.integers() | st.integers(min_value=2**64) | st.integers(max_value=-(2**64))
json_values = st.recursive(
    st.none() | st.booleans() | json_ints | json_text | st.lists(st.booleans() | json_ints),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_text, inner, max_size=4),
    max_leaves=30,
)


@given(json_values)
@example({"b": [True, 1, False, 0], "a": {"c": [[{"d": []}], {}, [None, -(2**70)]]}, "": "\"\\\x01é\U0001f600"})
@example([[[[[2**64, -1]]]], [], {}])
def test_dump_json_matches_json_dumps(value):
    """The report writer against ``json.dumps``, its oracle, byte for byte."""
    assert cli._dump_json(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value, kind", [(1.5, "float"), ((1, 2), "tuple"), ({1}, "set"), ({1: "a"}, "int")],
                         ids=["float", "tuple", "set", "int_key"])
def test_dump_json_rejects_types_no_report_holds(value, kind):
    with pytest.raises(TypeError, match=kind):
        cli._dump_json({"rows": [value]})


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
