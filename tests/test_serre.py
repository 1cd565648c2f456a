import gc
import hashlib
import importlib
import json
import random
import re
import weakref
from collections import defaultdict
from operator import add, mul

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from edgering import cycles, semigroup, serre
from edgering.cli import addition_rows
from edgering.facets import (
    FUNDAMENTAL_KIND,
    VERTEX_KIND,
    _facet_from_normal,
    facets,
    generators_on_facet,
    is_regular_vertex,
    regular_vertex_components,
)
from edgering.families import (
    add_cross_edges,
    build_gab,
    family_graph,
    graph_for_theorem,
    in_set_A,
    theorem_edge_range,
)
from edgering.graph import Graph, UnsupportedGraphError, bits, connected_components, delete_vertex, to_mask
from edgering.semigroup import _gap_direct, cone, gap_elements, in_cone, in_lattice, in_S, normalization_generators
from edgering.serre import (
    NO_CERTIFIED,
    NO_UP_TO_BOUND,
    VERDICT_NORMAL,
    VERDICT_NOT_S2,
    VERDICT_S2_VERIFIED,
    VERDICT_UNKNOWN,
    YES,
    BoundedMembership,
    classify,
    hk_not_s2,
    in_localization,
    in_SF_bounded,
    vertex_parity_certificate,
)
from test_semigroup import _formula_route, connected_nonbipartite, draw_graph, with_exceptional_pair

ALPHA = (1, 1, 1, 0, 1, 1, 1)
# SHA-256 of the `analyze --degree-bound 16 --search-bound 12` report of
# pool graph 0 (``localization_graph``), recorded before the exact
# localization test was added
POOL_0_REPORT_SHA256 = "588b32f89c25596399253fd2755fa2893646877b7d4a9f0103b4816989d9d623"


def vertex_facet(g, v):
    return next(f for f in facets(g) if f.kind == VERTEX_KIND and f.vertices == (v,))


def test_vertex_parity_certificate(g33):
    g = g33.graph
    cert = vertex_parity_certificate(g, 4, ALPHA)
    assert cert is not None
    assert cert.vertex == 4
    assert cert.component == (1, 2, 3)
    assert cert.candidate == ALPHA
    # nonzero hub coordinate: certificate does not apply
    assert vertex_parity_certificate(g, 4, (1, 1, 1, 2, 1, 1, 1)) is None
    # even component sums: no parity obstruction
    assert vertex_parity_certificate(g, 4, (1, 1, 0, 0, 1, 1, 0)) is None


def test_vertex_parity_certificate_rejects_nonregular():
    tilde = family_graph(3, 3, 8).graph
    # removing vertex 3 leaves a bipartite component {1, 2}
    with pytest.raises(ValueError):
        vertex_parity_certificate(tilde, 3, (0, 0, 0, 1, 0, 0, 1))


def test_in_SF_bounded_vertex_certificate(g33):
    g = g33.graph
    res = in_SF_bounded(g, vertex_facet(g, 4), ALPHA)
    assert res.status == NO_CERTIFIED
    assert res.certificate is not None
    assert res.certificate.component == (1, 2, 3)
    assert res.y is None


def test_in_SF_bounded_yes(g33):
    g = g33.graph
    res = in_SF_bounded(g, vertex_facet(g, 1), ALPHA, search_bound=8)
    assert res.status == YES
    assert res.y == (0, 0, 0, 1, 0, 0, 1)
    assert res.witness is not None
    total = [a + y for a, y in zip(ALPHA, res.y)]
    assert res.witness.vector_sum(7) == tuple(total)


def test_in_SF_bounded_member_takes_zero_shift(g33):
    g = g33.graph
    member = (1, 1, 0, 0, 1, 1, 0)
    res = in_SF_bounded(g, vertex_facet(g, 4), member)
    assert res.status == YES and res.y == (0,) * 7


def test_in_SF_bounded_signed_candidates(g33):
    """Lattice vectors with a negative coordinate are valid input: a shift
    that leaves a negative entry is skipped, never searched."""
    g = g33.graph
    fw = vertex_facet(g, 4)
    hub = (0, 0, 0, -4, 0, 0, 0)  # no on-facet y touches the hub
    pair = (-2, -2, 0, 0, 0, 0, 0)  # y = 2 rho(1, 2) cancels it
    assert in_lattice(g, hub) and in_lattice(g, pair)
    assert in_SF_bounded(g, fw, hub).status == NO_UP_TO_BOUND
    assert in_SF_bounded(g, fw, pair, search_bound=2).status == NO_UP_TO_BOUND
    res = in_SF_bounded(g, fw, pair, search_bound=4)
    assert res.status == YES and res.y == (2, 2, 0, 0, 0, 0, 0)
    assert res.witness.multiplicities == ()


def test_in_SF_bounded_validates_lattice(g33):
    with pytest.raises(ValueError):
        in_SF_bounded(g33.graph, vertex_facet(g33.graph, 4), (1, 0, 0, 0, 0, 0, 0))


def test_hk_witness(g34):
    g = add_cross_edges(g34, [(1, 5)])
    hk = hk_not_s2(g)
    assert hk is not None
    assert hk.pair.first == (1, 2, 3)
    assert hk.pair.second == (6, 7, 8)
    assert hk.same_component_vertices == (4, 5)
    assert hk.same_component_sets == ()


def test_hk_witness_with_a_label_gap(g34):
    """Labels need not be 1..d: the pair vector is indexed by label."""
    g = add_cross_edges(g34, [(1, 5)])
    shifted = Graph(tuple(v + 1 for v in g.vertices), tuple((i + 1, j + 1) for i, j in g.edges))
    hk = hk_not_s2(shifted)
    assert (hk.pair.first, hk.pair.second) == ((2, 3, 4), (7, 8, 9))
    assert hk.same_component_vertices == (5, 6)
    assert hk.same_component_sets == ()


def test_hk_witness_same_in_classify(g34):
    """The witness classify reports is the one a standalone call finds."""
    for pair in [(1, 5), (2, 6), (3, 7)]:
        g = add_cross_edges(g34, [pair])
        hk = hk_not_s2(g)
        assert hk is not None
        assert classify(g).hk_witness == hk


def test_classify_scans_odd_cycles_once(g33, g34, monkeypatch):
    """One classify call runs the odd-cycle scan once, on a graph that
    reaches the gap stage and on one refuted by HK: the HK check and the
    pair vectors read ``cone(g).pairs``.  On the d = 8, n = 13 theorem
    graph it also builds each G minus v at most once and never enumerates
    the facets: HK, the parity rows and the certificates share
    ``Cone.regular``, and every gap element is certified."""
    scans = []
    real = cycles.minimal_odd_cycles

    def counting(g):
        scans.append(g)
        return real(g)

    monkeypatch.setattr(cycles, "minimal_odd_cycles", counting)
    for g, refuted in [(g33.graph, False), (add_cross_edges(g34, [(1, 5)]), True)]:
        cone.cache_clear()
        scans.clear()
        rep = classify(g)
        assert (rep.hk_witness is not None) == refuted
        assert bool(rep.gap) != refuted
        assert scans == [g]
        assert isinstance(cone(g).pairs, tuple)

    facets_module = importlib.import_module("edgering.facets")
    deleted, enumerated = [], []
    real_delete, real_facets = facets_module.delete_vertex, semigroup.facets
    monkeypatch.setattr(facets_module, "delete_vertex", lambda g, v: deleted.append(v) or real_delete(g, v))
    monkeypatch.setattr(semigroup, "facets", lambda g: enumerated.append(g) or real_facets(g))
    g = graph_for_theorem(8, 13).graph
    cone.cache_clear()
    assert classify(g).verdict == VERDICT_S2_VERIFIED
    assert deleted and len(deleted) == len(set(deleted)) and not enumerated


def test_classify_keeps_one_graph(g33):
    """Nothing in the library holds a classified graph once another graph
    has been classified: ``cone`` keeps only the last graph's data."""
    g = localization_graph()
    classify(g, degree_bound=8, search_bound=8)
    ref = weakref.ref(g)
    classify(g33.graph)
    del g
    gc.collect()
    assert ref() is None


def test_hk_none_cases(g33):
    assert hk_not_s2(g33.graph) is None
    assert hk_not_s2(helpers.complete_graph(5)) is None


def hk_refuted_graphs():
    """Every HK-refuted graph of a seeded random draw, then the graph of
    every NonNormalNotS2 row of ``additions --a 3 --b 4``."""
    rng = random.Random(11)
    for _ in range(15000):
        g = helpers.random_connected_nonbipartite(rng, 6, 9, 0.35)
        if hk_not_s2(g) is not None:
            yield g
    fam = build_gab(3, 4)
    for row in addition_rows(fam, 12):
        if row["verdict"] == VERDICT_NOT_S2:
            yield add_cross_edges(fam, row["extra_edges"])


def test_hk_pair_vector_is_in_s_prime_not_s():
    """The exact tests behind the HK refutation: the 0/1 vector m of the
    witness pair is not in S (``in_S``) but lies in the localization at
    every validated facet (``in_localization``), so m is in S' minus S and
    S' = S, the (S2) criterion, fails."""
    checked = 0
    for g in hk_refuted_graphs():
        pair = hk_not_s2(g).pair
        m = tuple(int(v in pair.first + pair.second) for v in g.vertices)
        assert in_S(g, m) is None, (g.edges, m)
        for f in cone(g).validated:
            assert in_localization(g, f, m).member, (g.edges, m, f)
        checked += 1
    assert checked == 127 + 28  # random graphs, then additions rows


def test_classify_normal():
    rep = classify(helpers.complete_graph(5))
    assert rep.verdict == VERDICT_NORMAL
    assert rep.gap == () and rep.gap_computed
    assert rep.hk_witness is None
    assert rep.exhaustive


def test_classify_s2_verified(g33):
    rep = classify(g33.graph)
    assert rep.verdict == VERDICT_S2_VERIFIED
    assert rep.exhaustive
    assert rep.gap_count == 462
    assert len(rep.certificates) == rep.gap_count
    assert {c.vertex for c in rep.certificates} == {4}
    assert rep.s_prime_candidate is None
    # one certificate per gap element, in order
    assert tuple(c.candidate for c in rep.certificates) == rep.gap


def test_classify_s2_verified_tilde():
    tilde = family_graph(3, 3, 8).graph
    rep = classify(tilde)
    assert rep.verdict == VERDICT_S2_VERIFIED
    assert rep.exhaustive


def test_classify_not_s2(g34):
    g = add_cross_edges(g34, [(1, 5)])
    rep = classify(g)
    assert rep.verdict == VERDICT_NOT_S2
    assert rep.hk_witness is not None
    assert not rep.gap_computed and rep.gap == ()


def test_classify_unknown_when_bound_too_small():
    g = helpers.two_pentagons_linked()
    rep = classify(g, degree_bound=8)
    assert rep.verdict == VERDICT_UNKNOWN
    assert rep.gap == () and rep.gap_computed


def test_bounds_must_be_integers(g33):
    """A float or string bound is rejected, naming the bound, at each entry
    point, instead of reaching the search; numpy integers are integers."""
    g = g33.graph
    for call, name in [
        (lambda: classify(g, 8, 8.5), "search bound"),
        (lambda: classify(g, 8.0), "degree bound"),
        (lambda: classify(g, "8"), "degree bound"),
        (lambda: gap_elements(g, 8.0), "degree bound"),
        (lambda: in_SF_bounded(g, vertex_facet(g, 1), ALPHA, 2.5), "search bound"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()
    rep = classify(g, np.int64(8), np.int64(4))
    assert type(rep.search_bound) is int and rep.to_json_dict() == classify(g, 8, 4).to_json_dict()


def test_classify_rejects_unsupported():
    with pytest.raises(UnsupportedGraphError):
        classify(helpers.cycle_graph(6))


def test_classify_json_round_trip(g33):
    import json

    rep = classify(g33.graph)
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["verdict"] == VERDICT_S2_VERIFIED
    assert data["gap_count"] == 462
    assert data["exhaustive"] is True


def test_certificates_are_sound(g33):
    """Re-verify every exclusion certificate against first principles."""
    g = g33.graph
    rep = classify(g)
    comps = {frozenset(c) for c in connected_components(delete_vertex(g, 4))}
    for cert in rep.certificates:
        alpha = cert.candidate
        assert alpha[cert.vertex - 1] == 0
        assert frozenset(cert.component) in comps
        assert sum(alpha[v - 1] for v in cert.component) % 2 == 1


@pytest.mark.parametrize("d", [7, 8])
def test_theorem_certificates_unchanged(d):
    """Each certificate is the one found at the first certifying vertex
    facet, with the first odd component of a freshly built G minus v."""
    for n in theorem_edge_range(d):
        g = graph_for_theorem(d, n).graph
        rep = classify(g)
        assert rep.exhaustive and len(rep.certificates) == rep.gap_count
        assert list(rep.certificates) == helpers.vertex_certificates_reference(g, rep.gap)
        for cert, alpha in zip(rep.certificates, rep.gap):
            fresh = connected_components(delete_vertex(g, cert.vertex))
            odd = next(c for c in fresh if sum(alpha[u - 1] for u in c) % 2 == 1)
            assert cert.component == tuple(sorted(odd))


def proven_at(bound):
    """Whether the proof of ``semigroup._gap_formula`` holds for a graph
    at ``bound``, as a ``draw_graph`` filter."""
    return lambda g: any(sum(x) <= bound for x in normalization_generators(g)) and _formula_route(g, bound)[2] is not None


def multi_vertex_graph():
    """A proven graph at bound 10 that HK does not refute, with a module
    generator x where |C(x)| >= 2: draw 1,430 of ``draw_graph(20, ...)``."""
    def wanted(g):
        return proven_at(10)(g) and hk_not_s2(g) is None and any(c & (c - 1) for c in _formula_route(g, 10)[2])

    draw, g = draw_graph(20, wanted, 2000)
    assert draw is not None, "no proven graph with |C(x)| >= 2 in 2,000 draws"
    return g


def check_proven_route(g, degree_bound):
    """On a proven graph: the gap matches ``Cone.proven``, which maps each
    element to next(``Cone.certifying``); when HK does not refute g,
    ``classify`` makes one ``vertex_parity_certificate`` call per gap
    element at that vertex, and each certificate is the per-element
    route's.  The cone is dropped first, so ``Cone.proven`` holds this
    call's gap alone.  Returns the gap."""
    cone.cache_clear()
    if hk_not_s2(g) is not None:
        gap, calls = gap_elements(g, degree_bound), None
    else:
        calls = []
        real = serre.vertex_parity_certificate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serre, "vertex_parity_certificate", lambda g, v, alpha: calls.append((v, alpha)) or real(g, v, alpha))
            rep = classify(g, degree_bound)
        gap = list(rep.gap)
        assert rep.exhaustive and list(rep.certificates) == helpers.vertex_certificates_reference(g, gap)
    c = cone(g)
    lowest = [next(c.certifying(alpha)) for alpha in gap]
    assert gap and [c.proven[alpha] for alpha in gap] == lowest
    assert calls is None or calls == list(zip(lowest, gap))
    return gap


@pytest.mark.parametrize("d", [7, 8, 9])
def test_proven_route_on_theorem_graphs(d):
    """Every theorem graph for d = 7..9 at the default bound hands
    ``classify`` the lowest certifying vertex of each gap element; at a
    bound where the direct route is cheap the gap is still proven and
    equals ``_gap_direct``."""
    direct_bound = {7: 12, 8: 10, 9: 8}[d]
    for n in theorem_edge_range(d):
        g = graph_for_theorem(d, n).graph
        check_proven_route(g, 16)
        assert check_proven_route(g, direct_bound) == _gap_direct(g, direct_bound), (d, n)


def test_proven_route_with_two_certifying_vertices():
    """Where |C(x)| >= 2, each gap element is recorded at the lowest
    vertex of its C, and some element has two certifying vertices."""
    g = multi_vertex_graph()
    gap = check_proven_route(g, 10)
    assert gap == _gap_direct(g, 10)
    assert any(to_mask(cone(g).certifying(alpha)) & (to_mask(cone(g).certifying(alpha)) - 1) for alpha in gap)


@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 2**32))
def test_proven_route_on_random_graphs(seed):
    """The first proven graph at bound 10 among 3,000 draws of
    ``draw_graph(seed, ...)``, about one draw in 170: the gap equals
    ``_gap_direct`` and the vertices reach ``classify`` as above."""
    _, g = draw_graph(seed, proven_at(10), 3000)
    assume(g is not None)
    assert check_proven_route(g, 10) == _gap_direct(g, 10)


def _certificates_match_reference(g, degree_bound, search_bound):
    """classify's certificates equal the per-facet reference loop's on the
    gap elements it examined (all of them, or up to the S' candidate);
    returns the reference answer per examined element."""
    rep = classify(g, degree_bound, search_bound)
    stop = len(rep.gap) if rep.s_prime_candidate is None else rep.gap.index(rep.s_prime_candidate) + 1
    reference = helpers.vertex_certificates_reference(g, rep.gap[:stop])
    assert list(rep.certificates) == [c for c in reference if c is not None]
    return reference


def test_pool_graph_0_certificates_match_reference():
    """No vertex facet certifies any gap element of the first localization
    pool graph at bounds 8/8, so classify must report no certificate."""
    g = Graph.from_edge_list(8, [(1, 5), (1, 6), (1, 8), (2, 3), (2, 7), (3, 6), (3, 7),
                                 (4, 6), (5, 6), (5, 8)])
    reference = _certificates_match_reference(g, 8, 8)
    assert len(reference) == 8 and not any(reference)


def test_certificates_match_reference_with_exceptional_pair():
    """Random graphs with an exceptional pair, at bounds 8/4: enough draws
    reach the exclusion stage, and some have gap elements that no vertex
    facet certifies."""
    examined = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(with_exceptional_pair(dmax=10))
    def check(g):
        examined.append(_certificates_match_reference(g, 8, 4))

    check()
    reached = [ref for ref in examined if ref]
    assert len(reached) >= 40, len(reached)
    assert any(None in ref for ref in reached)


def test_gap_alignment_with_classify(g33):
    rep = classify(g33.graph)
    assert rep.gap == tuple(gap_elements(g33.graph, rep.degree_bound))
    for alpha in rep.gap[:10]:
        assert in_S(g33.graph, alpha) is None


def test_hk_implies_not_s2(g34):
    for pair_edge in [(1, 5), (2, 6), (3, 8)]:
        g = add_cross_edges(g34, [pair_edge])
        if hk_not_s2(g) is not None:
            assert classify(g).verdict == VERDICT_NOT_S2


def test_fundamental_facets_checked(g33):
    """The second phase consults fundamental facets too: on the glued
    triangle pair every candidate already dies at the hub vertex facet,
    so runs stay certificate-only, but the facet list must include both
    kinds for the scan to be meaningful."""
    kinds = {f.kind for f in facets(g33.graph) if f.validated}
    assert kinds == {VERTEX_KIND, FUNDAMENTAL_KIND}


def localization_graph():
    """8 vertices, 10 edges: at bounds 8/8 no gap element has a parity
    certificate, so exclusion runs the bounded localization search."""
    pairs = [(1, 5), (1, 6), (1, 8), (2, 3), (2, 7), (3, 6), (3, 7), (4, 6), (5, 6), (5, 8)]
    return Graph.from_edge_list(8, pairs)


def test_facet_table_matches_level_loop():
    rng = random.Random(11)
    for _ in range(12):
        g = helpers.random_connected_nonbipartite(rng, dmin=4, dmax=7)
        for f in facets(g):
            if not f.validated:
                continue
            for bound in range(9):
                expected = helpers.facet_semigroup_reference(g, f, bound)
                assert cone(g).table(f, bound) == expected, (g.edges, f, bound)


@pytest.fixture
def table_calls(monkeypatch):
    """(graph, facet) of each bounded table that ``Cone.table`` builds, in
    order; a call that finds its table already built adds nothing."""
    calls = []
    real = semigroup.Cone.table

    def recording(self, f, bound):
        if (f, bound) not in self._built:
            calls.append((self.graph, f))
        return real(self, f, bound)

    monkeypatch.setattr(semigroup.Cone, "table", recording)
    return calls


def table_builds(calls, g):
    """The facets of g whose bounded table was built, in order."""
    return [f for h, f in calls if h == g]


def test_facet_tables_live_while_the_graph_is_kept(g33, table_calls):
    """``Cone.table`` builds each (facet, bound) table once while ``cone``
    keeps the graph: a second classify call reuses the tables, and a
    classify of another graph releases them."""
    rep = classify(g33.graph)
    assert rep.verdict == VERDICT_S2_VERIFIED and rep.exhaustive
    assert table_builds(table_calls, g33.graph) == []  # every gap element is certified: no search, no table

    g = localization_graph()
    validated = [f for f in facets(g) if f.validated]
    for _ in range(2):
        rep = classify(g, degree_bound=8, search_bound=8)
        assert rep.verdict == VERDICT_S2_VERIFIED and not rep.exhaustive and not rep.certificates
    # every gap element searches the first facet, yet over both calls each table is built once
    first = table_builds(table_calls, g)
    assert rep.gap_count > 1 and first and len(first) == len(set(first)) and first[0] == validated[0]

    classify(g33.graph)  # cone now keeps G(3,3)
    table_calls.clear()
    assert classify(g, degree_bound=8, search_bound=8).to_json_dict() == rep.to_json_dict()
    assert table_builds(table_calls, g) == first


def test_exclusion_scan_stops_at_first_non_yes(monkeypatch):
    g = localization_graph()
    validated = [f for f in facets(g) if f.validated]
    seen = []

    def stub(status):
        def fake(g, f, alpha, search_bound):
            seen.append(f)
            return BoundedMembership(status)

        return fake

    monkeypatch.setattr(serre, "in_SF_bounded", stub(NO_UP_TO_BOUND))
    rep = classify(g, degree_bound=8, search_bound=8)
    assert rep.verdict == VERDICT_S2_VERIFIED and len(seen) == rep.gap_count

    # every facet says yes for the first gap element: NotS2 right there
    seen.clear()
    monkeypatch.setattr(serre, "in_SF_bounded", stub(YES))
    rep = classify(g, degree_bound=8, search_bound=8)
    assert rep.verdict == VERDICT_NOT_S2 and rep.s_prime_candidate == rep.gap[0]
    assert seen == validated


def test_pool_graph_0_report_at_default_bounds():
    """Pool graph 0 at the default bounds: no vertex facet certifies any
    of its 792 gap elements, so every one is excluded at some facet by the
    exact localization test; the bytes `analyze` writes, pinned."""
    rep = classify(localization_graph(), degree_bound=16, search_bound=12)
    assert rep.gap_count == 792 and not rep.certificates
    data = json.dumps(rep.to_json_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(data.encode()).hexdigest() == POOL_0_REPORT_SHA256


@st.composite
def localization_queries(draw, dmax=8):
    """(graph, alpha): a connected graph with an odd cycle, random or two
    triangles joined through hubs (whose cut vertices certify), and a
    vector of its edge lattice (even sum), nonnegative or signed."""
    g = draw(st.one_of(connected_nonbipartite(dmax), with_exceptional_pair(dmax)))
    low = draw(st.sampled_from([0, -2]))
    alpha = draw(st.lists(st.integers(low, 2), min_size=g.n_vertices, max_size=g.n_vertices))
    alpha[draw(st.integers(0, g.n_vertices - 1))] += sum(alpha) % 2
    return g, tuple(alpha)


def _bounded_y(g, f, alpha, bound):
    """The first y of the reference facet table with alpha + y in S."""
    for y in helpers.facet_semigroup_reference(g, f, bound):
        shifted = tuple(map(add, alpha, y))
        if min(shifted) >= 0 and in_S(g, shifted) is not None:
            return y
    return None


def _faces(g):
    """Every facet candidate, then the face x_v = 0 of each vertex that is
    not regular, where G minus v has a bipartite component."""
    return list(facets(g)) + [
        _facet_from_normal(g, VERTEX_KIND, (v,), tuple(int(u == v) for u in g.vertices))
        for v in g.vertices if not is_regular_vertex(g, v)
    ]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(localization_queries())
def test_in_localization_matches_bounded_search(query):
    """At every face of ``_faces``: a y found by the bounded reference
    search means an exact yes, a parity certificate an exact no; an exact
    yes carries a y in S cap F with alpha + y in S and an off-facet
    multiset of weight ell(alpha); an exact no is unreached by the
    brute-force lemma condition.  At each facet candidate,
    ``in_SF_bounded`` keeps the reference search's status."""
    g, alpha = query
    candidates = facets(g)
    for f in _faces(g):
        exact = in_localization(g, f, alpha)
        assert exact.weight == sum(map(mul, f.normal, alpha))
        y = _bounded_y(g, f, alpha, 6)
        if y is not None:
            assert exact.member
        if f in candidates:
            bounded = in_SF_bounded(g, f, alpha, search_bound=6)
            assert (bounded.status == YES) == (y is not None)
            if bounded.status == NO_CERTIFIED:
                assert not exact.member
        if exact.member:
            assert in_S(Graph(g.vertices, f.on_facet_edges), exact.y) is not None
            assert in_S(g, tuple(map(add, alpha, exact.y))) is not None
            on = set(generators_on_facet(g, f))
            assert not on & {e for e, _ in exact.off_facet}
            assert sum(k * (f.normal[i - 1] + f.normal[j - 1]) for (i, j), k in exact.off_facet) == exact.weight
        else:
            assert exact.y is None and not helpers.localization_reference(g, f, alpha)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(localization_queries())
def test_in_localization_vertex_facet_closed_form(query):
    """At a regular vertex v, a lattice vector alpha is excluded iff more
    components of G minus v have odd alpha-weight than alpha_v; at alpha_v
    = 0 that is the parity certificate."""
    g, alpha = query
    for f in facets(g):
        if f.kind != VERTEX_KIND:
            continue
        (v,) = f.vertices
        odd = sum(sum(alpha[u - 1] for u in comp) % 2 for comp in regular_vertex_components(g, v))
        excluded = not in_localization(g, f, alpha).member
        assert excluded == (odd > alpha[v - 1])
        if alpha[v - 1] == 0:
            assert excluded == (vertex_parity_certificate(g, v, alpha) is not None)


def test_in_localization_signed_candidates(g33):
    """The G(3,3) cases of ``test_in_SF_bounded_signed_candidates``: a
    negative hub coordinate is an exact no (ell(alpha) < 0), and
    (-2, -2, 0, ...) is a yes with y = 2 rho(1, 2) and no off-facet edge."""
    g = g33.graph
    fw = vertex_facet(g, 4)
    hub = in_localization(g, fw, (0, 0, 0, -4, 0, 0, 0))
    assert not hub.member and hub.weight == -4 and hub.y is None
    pair = in_localization(g, fw, (-2, -2, 0, 0, 0, 0, 0))
    assert pair.member and pair.weight == 0 and pair.off_facet == ()
    assert pair.y == (2, 2, 0, 0, 0, 0, 0)


def test_exact_no_facets_build_no_table(monkeypatch, table_calls):
    """On pool graph 0 at bounds 8/8, a facet where every call is an exact
    no never has its bounded table built; every facet whose table is built
    had an exact yes."""
    g = localization_graph()
    cone.cache_clear()
    calls = defaultdict(list)
    real_search = serre.in_SF_bounded

    def recording(g, f, alpha, search_bound=12):
        calls[f].append(alpha)
        return real_search(g, f, alpha, search_bound)

    monkeypatch.setattr(serre, "in_SF_bounded", recording)
    rep = classify(g, degree_bound=8, search_bound=8)
    assert rep.verdict == VERDICT_S2_VERIFIED and not rep.certificates
    built = table_builds(table_calls, g)
    exact_no = {f for f, alphas in calls.items()
                if not any(in_localization(g, f, alpha).member for alpha in alphas)}
    assert exact_no and not exact_no & set(built)
    assert set(built) == set(calls) - exact_no


def test_in_localization_keeps_one_quotient_per_facet(monkeypatch):
    """A second ``in_localization`` call at the same (g, f), and an
    ``in_SF_bounded`` call there, build no further ``_FacetQuotient``."""
    g = localization_graph()
    f = next(f for f in facets(g) if f.validated)
    alpha = gap_elements(g, 8)[0]
    built = []
    real = semigroup._FacetQuotient

    def counting(g, f):
        built.append(f)
        return real(g, f)

    monkeypatch.setattr(semigroup, "_FacetQuotient", counting)
    cone.cache_clear()
    first = in_localization(g, f, alpha)
    assert in_localization(g, f, alpha) == first
    in_SF_bounded(g, f, alpha, search_bound=8)
    assert built == [f]


def certifying_reference(g, x):
    """C(x) as a mask, from freshly built components of G minus v."""
    comps = {v: helpers.regular_vertex_components_reference(g, v) for v in g.vertices}
    return to_mask(v for v, cs in comps.items()
                   if cs is not None and not x[v - 1] and any(sum(x[u - 1] for u in c) % 2 for c in cs))


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(connected_nonbipartite(dmax=9), with_exceptional_pair(dmax=9)), st.data())
def test_cone_parity_is_the_vertex_facets(g, data):
    """The parity rows of ``Cone`` are the regular vertices, which are the
    vertices of the validated vertex facets; ``Cone.certifying`` is C(x);
    each ``classify`` certificate sits at the lowest vertex of C(alpha)."""
    c = cone(g)
    regular = [v for v in g.vertices if helpers.regular_vertex_components_reference(g, v) is not None]
    assert [v for v, _, _ in c.parity] == regular
    assert regular == [f.vertices[0] for f in facets(g) if f.validated and f.kind == VERTEX_KIND]
    assert all(f.validated for f in facets(g) if f.kind == VERTEX_KIND)
    x = data.draw(st.lists(st.integers(0, 2), min_size=g.n_vertices, max_size=g.n_vertices))
    assert to_mask(c.certifying(x)) == certifying_reference(g, x)
    for cert in classify(g, degree_bound=8, search_bound=4).certificates:
        assert cert.vertex == bits(certifying_reference(g, cert.candidate))[0]


@pytest.mark.parametrize("call", [
    in_S,
    in_lattice,
    in_cone,
    lambda g, x: in_localization(g, vertex_facet(g, 4), x),
    lambda g, x: vertex_parity_certificate(g, 4, x),
    lambda g, x: in_set_A(build_gab(3, 3), x),
], ids=["in_S", "in_lattice", "in_cone", "in_localization", "vertex_parity_certificate", "in_set_A"])
def test_vectors_need_integer_coordinates(g33, call):
    """A float or a string coordinate is rejected, naming it, instead of
    being truncated or parsed; numpy integers are integers."""
    g = g33.graph
    for bad in (0.5, 1.5, "1"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call(g, (1, bad, 1, 0, 1, 1, 1))
    assert call(g, tuple(np.int64(v) for v in ALPHA)) == call(g, ALPHA)
