"""The benchmark's workloads: the CLI commands each one runs, the inputs
it needs, and the checks its outputs must pass.

Stdlib only at import time.  ``generate_graphs`` imports ``edgering``
itself, so call it only after the source tree is on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("theorem_sweep", "refutation_additions", "localization_search")

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text(encoding="utf-8"))

# localization_search inputs: a run reads GRAPHS_PER_BATCH graphs of a
# pool of POOL_SIZE, recorded in expected.json by record.py from
# generate_graphs(POOL_SEED).  Each graph has LOCAL_VERTICES vertices and
# LOCAL_EDGES edges (density 0.36).  Seven-vertex graphs never met the
# three conditions in 21,000 draws, and a fixed edge count keeps the work
# per graph steady.
POOL_SEED = 1
POOL_SIZE = 60
GRAPHS_PER_BATCH = 6
SMOKE_GRAPHS_PER_BATCH = 2
LOCAL_VERTICES = 8
LOCAL_EDGES = 10
LOCAL_BOUND = 8
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

# theorem_sweep: one verify-theorem command per edge count n of the
# theorem's whole range for d, so that each command's time can be scaled
# by the calibration loops around it (see child.py).
THEOREM_RANGE = {"full": (8, range(9, 17)), "smoke": (7, range(8, 13))}
ADDITION_ARGS = {
    "full": ["--a", "4", "--b", "4", "--max-extra", "4"],
    "smoke": ["--a", "3", "--b", "4", "--max-extra", "2"],
}


def _size(smoke: bool) -> str:
    return "smoke" if smoke else "full"


def commands(name: str, smoke: bool, work: Path, graph_files: list[Path]) -> list[list[str]]:
    """argv lists for ``edgering.cli.main``, run in order, serial."""
    if name == "theorem_sweep":
        d, ns = THEOREM_RANGE[_size(smoke)]
        return [["verify-theorem", "--d", str(d), "--n", str(n), "--jobs", "1",
                 "--output", str(work / f"theorem-n{n}.json")]
                for n in ns]
    if name == "refutation_additions":
        return [["additions", *ADDITION_ARGS[_size(smoke)], "--jobs", "1",
                 "--output", str(work / "additions.json")]]
    if name == "localization_search":
        return [
            ["analyze", "--degree-bound", str(LOCAL_BOUND), "--search-bound", str(LOCAL_BOUND),
             "--input", str(path), "--output", str(work / (path.stem + ".json"))]
            for path in graph_files
        ]
    raise ValueError(f"unknown workload {name!r}")


# -- graph primitives, independent of the library ----------------------


def parse_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edge list of a graph file."""
    d = 0
    edges = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "p":
            d = int(parts[1])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2])))
    return d, edges


def adjacency(d: int, edges) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(1, d + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def components(adj: dict[int, set[int]], removed: int | None = None) -> list[frozenset[int]]:
    """Connected components of the graph minus the vertex ``removed``."""
    seen: set[int] = set()
    out = []
    for start in adj:
        if start == removed or start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w != removed and w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        out.append(frozenset(comp))
    return out


def is_bipartite(adj: dict[int, set[int]], comp: frozenset[int]) -> bool:
    start = min(comp)
    color = {start: 0}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in comp:
                continue
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return False
    return True


def is_regular(adj: dict[int, set[int]], v: int) -> bool:
    """Every component of G - v has an odd cycle, so x_v = 0 is a facet."""
    return all(not is_bipartite(adj, c) for c in components(adj, v))


def has_parity_certificate(adj, regular: list[int], alpha) -> bool:
    """Some regular vertex v has alpha_v = 0 and an odd-weight component of G - v."""
    return any(
        alpha[v - 1] == 0 and any(sum(alpha[u - 1] for u in c) % 2 for c in components(adj, v))
        for v in regular
    )


# -- localization_search inputs ---------------------------------------


def generate_graphs(seed: int, count: int) -> list[str]:
    """Canonical graph-file texts of ``count`` distinct random graphs.

    A graph is drawn with LOCAL_EDGES edges chosen uniformly among all
    vertex pairs, and kept when it is connected, has an exceptional pair,
    has no refutation witness (``hk_not_s2`` is None), and has a gap
    element of degree <= LOCAL_BOUND that no vertex-parity certificate
    excludes.  The same seed always gives the same texts.  Only
    ``record.py`` calls this, so the inputs of a run never depend on the
    program under test.
    """
    import edgering as er

    rng = random.Random(seed)
    pairs = [(i, j) for i in range(1, LOCAL_VERTICES + 1) for j in range(i + 1, LOCAL_VERTICES + 1)]
    texts: list[str] = []
    while len(texts) < count:
        edges = rng.sample(pairs, LOCAL_EDGES)
        adj = adjacency(LOCAL_VERTICES, edges)
        if len(components(adj)) != 1:
            continue
        g = er.Graph.from_edge_list(LOCAL_VERTICES, edges)
        if not er.exceptional_pairs(g) or er.hk_not_s2(g) is not None:
            continue
        regular = [v for v in adj if is_regular(adj, v)]
        if all(has_parity_certificate(adj, regular, a) for a in er.gap_elements(g, LOCAL_BOUND)):
            continue
        text = er.write_graph(g)
        if text not in texts:
            texts.append(text)
    return texts


def select_graphs(pool: list[dict], seed: int, smoke: bool) -> list[str]:
    """The graph texts one run reads: GRAPHS_PER_BATCH graphs of the
    recorded pool, drawn by ``seed`` (a smoke run takes the first few)."""
    picks = random.Random(seed).sample(range(len(pool)), GRAPHS_PER_BATCH)
    return [pool[i]["graph"] for i in picks[: SMOKE_GRAPHS_PER_BATCH if smoke else GRAPHS_PER_BATCH]]


def digest(texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
    return h.hexdigest()


# -- output checks -----------------------------------------------------


def item_count(name: str, smoke: bool, graph_files: list[Path]) -> int:
    """Output items one child produces: report rows or analyze reports."""
    if name == "localization_search":
        return len(graph_files)
    return sum(r["rows"] for r in EXPECTED[name][_size(smoke)]["reports"])


SUMMARY_FLAG = {"theorem_sweep": "all_s2_verified", "refutation_additions": "all_rows_expected"}


def _read_report(argv: list[str]) -> tuple[bytes, dict]:
    data = Path(argv[argv.index("--output") + 1]).read_bytes()
    return data, json.loads(data)


def check(name, smoke, argvs, outcomes, graph_texts) -> tuple[int, list[str]]:
    """Failed item count and the reasons, for one child's outputs.

    ``outcomes`` holds (exit code, exception text or None) per command.
    A sweep report fails all its rows at once, on a non-zero exit, a
    false summary flag or a changed SHA-256; an analyze report is one item.
    """
    failed, notes = 0, []
    for i, (argv, (rc, err)) in enumerate(zip(argvs, outcomes)):
        if name == "localization_search":
            rows = 1
            why = f"exit {rc}: {err}" if rc != 0 or err else _check_analyze(argv, graph_texts[i])
        else:
            expected = EXPECTED[name][_size(smoke)]["reports"][i]
            rows = expected["rows"]
            why = f"exit {rc}: {err}" if rc != 0 or err else _check_sweep(name, argv, expected["sha256"])
        if why:
            failed += rows
            notes.append(f"{Path(argv[argv.index('--output') + 1]).name}: {why}")
    return failed, notes


def _check_sweep(name: str, argv: list[str], sha256: str) -> str | None:
    """Why one verify-theorem or additions report fails, or None."""
    try:
        data, report = _read_report(argv)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    notes = []
    if report.get(SUMMARY_FLAG[name]) is not True:
        notes.append(f"{SUMMARY_FLAG[name]} is not true")
    if hashlib.sha256(data).hexdigest() != sha256:
        notes.append("report digest changed")
    return "; ".join(notes) or None


def _check_analyze(argv: list[str], graph_text: str) -> str | None:
    """Why one analyze report fails, or None.

    The SHA-256 pins the report to the one recorded for this graph, so a
    changed verdict fails.  ``analyze_problems`` says whether a changed
    report is still right, which tells a change to the report format
    from a wrong answer.
    """
    try:
        data, report = _read_report(argv)
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    problems = analyze_problems(report, graph_text)
    pool = EXPECTED["localization_search"]["pool"]
    recorded = next((g["report_sha256"] for g in pool if g["graph"] == graph_text), None)
    if recorded is None:
        problems.append("graph is not in the recorded pool")
    elif hashlib.sha256(data).hexdigest() != recorded:
        problems.append(f"report digest changed (verdict {report.get('verdict')})")
    return "; ".join(problems) or None


def analyze_problems(report: dict, graph_text: str) -> list[str]:
    """What is wrong with one analyze report of a localization_search
    graph, checked against the graph file with this module's own
    primitives.  These graphs have no refutation witness, so the verdict
    rests on the gap: every certificate must hold, exactly the gap
    elements examined before the verdict that have a vertex-parity
    certificate must carry one, the report is exhaustive only when all of
    them do, and a NonNormalNotS2 verdict names an uncertified gap element.
    """
    verdict = report.get("verdict")
    if verdict not in ("NonNormalS2Verified", "NonNormalNotS2"):
        return [f"verdict {verdict}"]
    gap = [tuple(v) for v in report["gap"]]
    if report["gap_count"] != len(gap):
        return ["gap_count does not match the gap"]
    d, edges = parse_edges(graph_text)
    adj = adjacency(d, edges)
    regular = [v for v in adj if is_regular(adj, v)]
    problems = []
    certified = set()
    for cert in report["certificates"]:
        v, comp, cand = cert["vertex"], frozenset(cert["component"]), tuple(cert["candidate"])
        certified.add(cand)
        if cand not in gap:
            problems.append(f"certificate candidate {list(cand)} is not a gap element")
        elif cand[v - 1] != 0:
            problems.append(f"candidate {list(cand)} does not vanish at vertex {v}")
        elif v not in regular:
            problems.append(f"vertex {v} is not regular")
        elif comp not in components(adj, v):
            problems.append(f"{sorted(comp)} is not a component of G - {v}")
        elif sum(cand[u - 1] for u in comp) % 2 == 0:
            problems.append(f"component {sorted(comp)} has even weight under {list(cand)}")
    examined = gap
    if verdict == "NonNormalNotS2":
        s_prime = report.get("s_prime_candidate")
        if s_prime is None or tuple(s_prime) not in gap:
            return problems + [f"s_prime_candidate {s_prime} is not a gap element"]
        if has_parity_certificate(adj, regular, s_prime):
            problems.append(f"s_prime_candidate {s_prime} has a vertex-parity certificate")
        examined = gap[: gap.index(tuple(s_prime))]
    if certified != {a for a in examined if has_parity_certificate(adj, regular, a)}:
        problems.append("certificates do not match the gap elements that have one")
    if report["exhaustive"] != (verdict == "NonNormalS2Verified" and certified == set(gap)):
        problems.append(f"exhaustive is {report['exhaustive']}")
    return problems
