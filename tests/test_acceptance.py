"""Acceptance checks for the whole package.

Each test covers one numbered criterion and prints a single PASS/FAIL
line so a full run reads as a checklist.  Checks are gathered first and
asserted at the end, so the line is printed even when a check fails.
"""

import itertools
import json
import random
import subprocess
import sys
import time
from operator import mul

import helpers
from conftest import family_intermediates
from edgering.cli import theorem_results
from edgering.cycles import (
    exceptional_pairs,
    minimal_odd_cycles,
    satisfies_odd_cycle_condition,
)
from edgering.facets import facets
from edgering.families import (
    add_cross_edges,
    build_gab,
    cross_pairs,
    max_family_edges,
    removal_schedule,
    theorem_edge_range,
)
from edgering.graph import (
    Graph,
    connected_components,
    contains_odd_cycle,
    delete_vertex,
    is_connected,
    rho_vector,
)
from edgering.semigroup import _gap_direct, gap_elements, in_S, in_cone, in_sbar
from edgering.serre import VERDICT_NOT_S2, VERDICT_S2_VERIFIED, classify, hk_not_s2


def _finish(capsys, num, detail, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"[criterion {num}] {status}: {detail}", flush=True)
    assert not failures, failures[:5]


def test_criterion_1_theorem_sweep(capsys):
    """Every edge count in the stated range for d = 7, 8, 9 yields a
    non-normal graph whose depth condition is verified exhaustively."""
    failures = []
    t0 = time.perf_counter()
    rows = 0
    for d in (7, 8, 9):
        ns = list(theorem_edge_range(d))
        for row, report in theorem_results(d, ns):
            rows += 1
            if row["verdict"] != VERDICT_S2_VERIFIED:
                failures.append((d, row["n"], row["verdict"]))
            if not report.exhaustive:
                failures.append((d, row["n"], "not exhaustive"))
            if row["edges"] != row["n"]:
                failures.append((d, row["n"], "edge count mismatch"))
            if report.gap_count == 0 or len(report.certificates) != report.gap_count:
                failures.append((d, row["n"], "certificate count"))
            if any(c.vertex != 4 for c in report.certificates):
                failures.append((d, row["n"], "certificate off the hub"))
    elapsed = time.perf_counter() - t0
    if elapsed > 300:
        failures.append(("runtime", elapsed))
    _finish(capsys, 1, f"{rows} graphs for d in 7..9 all verified in {elapsed:.1f}s", failures)


def test_criterion_2_pair_surplus(capsys):
    """Each theorem graph has an exceptional pair whose indicator sum is
    a saturation element outside the semigroup, with the doubled vector
    inside via a six-edge witness."""
    failures = []
    graphs = pairs_total = 0
    for d in (7, 8, 9):
        for n in theorem_edge_range(d):
            from edgering.families import graph_for_theorem

            g = graph_for_theorem(d, n).graph
            graphs += 1
            pairs = exceptional_pairs(g)
            if not pairs:
                failures.append((d, n, "no exceptional pair"))
                continue
            for pair in pairs:
                pairs_total += 1
                s = helpers.cycle_indicator(g, *pair)
                if not in_sbar(g, s):
                    failures.append((d, n, pair, "not in saturation"))
                if in_S(g, s) is not None:
                    failures.append((d, n, pair, "unexpectedly in semigroup"))
                doubled = tuple(2 * x for x in s)
                w = in_S(g, doubled)
                if w is None or w.total_edges() != 6 or w.vector_sum(g.n_vertices) != doubled:
                    failures.append((d, n, pair, "doubled witness"))
    _finish(capsys, 2, f"{pairs_total} pairs over {graphs} graphs", failures)


def test_criterion_3_gap_route_equivalence(capsys):
    """The generator-combination route and the bulk-filter route agree
    on every bounded gap they enumerate."""
    failures = []
    graphs = []
    for a, b in [(3, 3), (3, 4)]:
        graphs.extend(fam.graph for fam in family_intermediates(a, b))
    rng = random.Random(2024)
    while len(graphs) < 13 + 20:
        graphs.append(helpers.random_connected_nonbipartite(rng, dmin=5, dmax=8))
    checked = 0
    for g in graphs:
        lhs = gap_elements(g, 12)
        rhs = _gap_direct(g, 12)
        checked += 1
        if lhs != rhs:
            failures.append((g.edges, len(lhs), len(rhs)))
    _finish(capsys, 3, f"routes agree on {checked} graphs at degree bound 12", failures)


def _revalidate_hk(g, w):
    """The witness is the one the set-based reference finds."""
    return helpers.hk_not_s2_reference(g) == (tuple(w.pair), w.same_component_vertices, w.same_component_sets)


def test_criterion_4_cross_edge_additions(capsys):
    """Every cross-edge augmentation of the glued clique pairs is either
    normal or refuted, never a surviving depth-condition example."""
    failures = []
    fam33 = build_gab(3, 3)
    pairs33 = cross_pairs(fam33)
    rows = 0
    for size in range(1, len(pairs33) + 1):
        for subset in itertools.combinations(pairs33, size):
            g = add_cross_edges(fam33, subset)
            rep = classify(g)
            rows += 1
            if rep.verdict == "Normal":
                if not satisfies_odd_cycle_condition(g):
                    failures.append((subset, "normal verdict, condition fails"))
            elif rep.verdict == VERDICT_NOT_S2:
                if rep.hk_witness is None or not _revalidate_hk(g, rep.hk_witness):
                    failures.append((subset, "witness revalidation"))
            else:
                failures.append((subset, rep.verdict))
    fam34 = build_gab(3, 4)
    for pair in cross_pairs(fam34):
        g = add_cross_edges(fam34, [pair])
        rep = classify(g)
        rows += 1
        if rep.verdict != VERDICT_NOT_S2:
            failures.append((pair, rep.verdict))
        elif rep.hk_witness is None or not _revalidate_hk(g, rep.hk_witness):
            failures.append((pair, "witness revalidation"))
    _finish(capsys, 4, f"{rows} augmented graphs classified", failures)


def test_criterion_5_cone_routes(capsys):
    """Flow membership and the validated facet inequalities both match
    exact rational feasibility, and every validated facet has full
    contact rank.  Bipartite graphs have no facets here; they test the
    flow alone."""
    failures = []
    corpus = {
        "g33": build_gab(3, 3).graph,
        "g34": build_gab(3, 4).graph,
        "k5": helpers.complete_graph(5),
        "bowtie": helpers.bowtie_graph(),
        "c6_chords": helpers.c6_with_chords(),
        "c6": helpers.cycle_graph(6),
        "k33": Graph.from_edge_list(6, [(i, j) for i in (1, 2, 3) for j in (4, 5, 6)]),
    }
    rng = random.Random(777)
    vectors = 0
    for name, g in corpus.items():
        d = g.n_vertices
        gens = [rho_vector(d, e) for e in g.edges]
        normals = []
        if contains_odd_cycle(g):
            for f in facets(g):
                if not f.validated:
                    continue
                normals.append(f.normal)
                rows = [rho_vector(d, e) for e in f.on_facet_edges]
                if helpers.lattice_of(d, rows).rank != d - 1:
                    failures.append((name, f.kind, f.vertices, "contact rank"))
        for _ in range(500):
            x = tuple(rng.randint(0, 6) for _ in range(d))
            vectors += 1
            oracle = helpers.in_rational_cone(gens, x)
            if in_cone(g, x) != oracle:
                failures.append((name, x, "flow"))
            if normals and all(sum(map(mul, n, x)) >= 0 for n in normals) != oracle:
                failures.append((name, x, "facet inequalities"))
    _finish(capsys, 5, f"{vectors} vectors across {len(corpus)} graphs", failures)


def test_criterion_6_normality_corpus(capsys, golden_corpus):
    """Frozen normality verdicts match both the library and the
    independent brute-force oracle."""
    failures = []
    with open(helpers.GOLDEN_NORMALITY, encoding="utf-8") as fh:
        golden = json.load(fh)
    for name, g in golden_corpus.items():
        expected = golden[name]
        got = satisfies_odd_cycle_condition(g)
        oracle = helpers.odd_cycle_condition_bruteforce(g)
        if got != expected or oracle != expected:
            failures.append((name, expected, got, oracle))
    _finish(capsys, 6, f"{len(golden_corpus)} graphs against the golden file", failures)


def test_criterion_7_family_structure(capsys):
    """Removal schedules and every intermediate graph have the stated
    shape for four representative side sizes."""
    failures = []
    prefixes_total = 0
    for a, b in [(3, 3), (3, 4), (3, 5), (4, 4)]:
        hub = a + 1
        d = a + b + 1
        sched = removal_schedule(a, b)
        want_len = (a + 1) * a // 2 + (b + 1) * b // 2 - (a + b + 2)
        if len(sched) != want_len:
            failures.append((a, b, "schedule length", len(sched)))
        prefixes = family_intermediates(a, b)
        if len(prefixes) != want_len + 1:
            failures.append((a, b, "prefix count"))
        for k, fam in enumerate(prefixes):
            prefixes_total += 1
            g = fam.graph
            if g.n_edges != max_family_edges(a, b) - k:
                failures.append((a, b, k, "edge count"))
            if not is_connected(g):
                failures.append((a, b, k, "disconnected"))
            comps = connected_components(delete_vertex(g, hub))
            if comps != [frozenset(fam.u_side), frozenset(fam.v_side)]:
                failures.append((a, b, k, "hub is not the separating vertex"))
            nbrs = helpers.adjacency(g)[hub]
            for c in minimal_odd_cycles(g):
                if len(c) != 3:
                    failures.append((a, b, k, "non-triangle minimal odd cycle", c))
                if not any(x == hub or x in nbrs for x in c):
                    failures.append((a, b, k, "cycle misses hub neighborhood", c))
            for side in (fam.u_side, fam.v_side):
                for idx, i in enumerate(side):
                    if not g.has_edge(hub, i):
                        continue
                    for j in side[idx + 1:]:
                        if not g.has_edge(i, j):
                            failures.append((a, b, k, "hub edge without side edge", i, j))
            if g.n_edges == d + 1 and len(exceptional_pairs(g)) != 1:
                failures.append((a, b, "sparsest graph pair count"))
    _finish(capsys, 7, f"{prefixes_total} intermediate graphs across four families", failures)


def test_criterion_8_deterministic_parallel_reports(capsys, tmp_path):
    """Worker parallelism never changes a report byte."""
    failures = []
    outputs = []
    for jobs in ("1", "8"):
        out = tmp_path / f"d8-jobs{jobs}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "edgering.cli",
                "verify-theorem",
                "--d",
                "8",
                "--jobs",
                jobs,
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            failures.append((jobs, proc.returncode, proc.stderr[-200:]))
        outputs.append(out.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("reports differ between --jobs 1 and --jobs 8")
    data = json.loads(outputs[0])
    if not data["all_s2_verified"] or len(data["rows"]) != 8:
        failures.append("unexpected report content")
    _finish(capsys, 8, "d=8 range reports byte-identical across worker counts", failures)
