import gc
import hashlib
import json
import pickle
import random
import re
import sys
import weakref
from operator import add, mul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import helpers
from edgering import cycles, semigroup, serre
from edgering.cli import SEARCH_BOUND, addition_rows
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
    theorem_edge_range,
)
from edgering.graph import (
    Graph,
    UnsupportedGraphError,
    bits,
    connected_components,
    delete_vertex,
    parse_graph,
    to_mask,
    write_graph,
)
from edgering.semigroup import (
    ExclusionCertificate,
    _gap_direct,
    cone,
    gap_elements,
    in_cone,
    in_lattice,
    in_S,
    normalization_generators,
)
from edgering.serre import (
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
from test_cli import (
    PAIR_CLIQUE_D10_REPORT_SHA256,
    PARTIAL_PROOF_D9_REPORT_SHA256,
    POOL_0_REPORT_SHA256,
    POOL_FILE,
    TWO_COVERS_D10_REPORT_SHA256,
)
from test_semigroup import (
    PARTIAL_PROOF_D9,
    TWO_COVERS_D10,
    connected_nonbipartite,
    draw_graph,
    module_covers,
    opens,
    plain_gap,
    with_exceptional_pair,
)

ALPHA = (1, 1, 1, 0, 1, 1, 1)


def vertex_facet(g, v):
    return next(f for f in facets(g) if f.kind == VERTEX_KIND and f.vertices == (v,))


def analyze_sha256(rep):
    """SHA-256 of the bytes `analyze` writes for the report at the default
    ``--search-bound``, which the CLI echoes."""
    report = {**rep.to_json_dict(), "search_bound": SEARCH_BOUND}
    return hashlib.sha256((json.dumps(report, indent=2, sort_keys=True) + "\n").encode()).hexdigest()


def count_calls(monkeypatch, name):
    """Wrap the ``serre`` global ``name``; returns the list of its calls."""
    calls, real = [], getattr(serre, name)
    monkeypatch.setattr(serre, name, lambda *args: calls.append(args) or real(*args))
    return calls


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
    """Where the parity certificate fires, the exact test says no too."""
    g = g33.graph
    assert vertex_parity_certificate(g, 4, ALPHA).component == (1, 2, 3)
    assert in_SF_bounded(g, vertex_facet(g, 4), ALPHA) == BoundedMembership(NO_UP_TO_BOUND)


def in_S_cap_F(g, f, y):
    """Whether y is a sum of the on-facet edge vectors of f."""
    return in_S(Graph(g.vertices, f.on_facet_edges), y) is not None


def test_in_SF_bounded_yes(g33):
    g = g33.graph
    f = vertex_facet(g, 1)
    assert in_SF_bounded(g, f, ALPHA).status == YES
    y = in_localization(g, f, ALPHA).y
    assert in_S_cap_F(g, f, y)
    assert in_S(g, tuple(map(add, ALPHA, y))) is not None


def test_in_SF_bounded_member_takes_zero_shift(g33):
    g = g33.graph
    member = (1, 1, 0, 0, 1, 1, 0)
    assert in_SF_bounded(g, vertex_facet(g, 4), member).status == YES
    assert in_localization(g, vertex_facet(g, 4), member).y == (0,) * 7


def test_in_SF_bounded_signed_candidates(g33):
    """Lattice vectors with a negative coordinate are valid input: a
    negative hub coordinate is an exact no, as no on-facet y touches the
    hub, and (-2, -2, 0, ...) is a yes whose y cancels it."""
    g = g33.graph
    fw = vertex_facet(g, 4)
    hub = (0, 0, 0, -4, 0, 0, 0)
    pair = (-2, -2, 0, 0, 0, 0, 0)
    assert in_lattice(g, hub) and in_lattice(g, pair)
    assert in_SF_bounded(g, fw, hub).status == NO_UP_TO_BOUND
    assert in_SF_bounded(g, fw, pair).status == YES
    y = in_localization(g, fw, pair).y
    assert in_S_cap_F(g, fw, y)
    assert in_S(g, tuple(map(add, pair, y))) is not None


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
    ``Cone.regular``, and every gap element is certified, so no
    ``in_SF_bounded`` call is made either."""
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

    components, enumerated = [], []
    real_regular, real_candidates = semigroup.regular_vertex_components, semigroup.facet_candidates
    monkeypatch.setattr(semigroup, "regular_vertex_components", lambda g, v: components.append(v) or real_regular(g, v))
    monkeypatch.setattr(semigroup, "facet_candidates", lambda *args: enumerated.append(args) or real_candidates(*args))
    tests = count_calls(monkeypatch, "in_SF_bounded")
    g = graph_for_theorem(8, 13).graph
    cone.cache_clear()
    assert classify(g).verdict == VERDICT_S2_VERIFIED
    assert components and len(components) == len(set(components)) and not enumerated and not tests


def count_library_calls(monkeypatch, name):
    """Wrap ``name`` in each of ``facets``, ``semigroup`` and ``serre`` that
    binds it; returns the list of its calls.  The ``facets`` module is
    reached through ``sys.modules``, as ``edgering.facets`` is the function."""
    calls = []
    for mod in (sys.modules["edgering.facets"], semigroup, serre):
        real = getattr(mod, name, None)
        if real is not None:
            monkeypatch.setattr(mod, name, lambda *args, real=real: calls.append(args) or real(*args))
    return calls


def test_classify_makes_one_facet_pass(monkeypatch):
    """One ``classify`` of pool graph 0 at the default bounds, where every
    gap element goes to the facets: the fundamental sets are enumerated
    once, for the HK check and the facet list alike; G minus v is built
    once per vertex, for ``Cone.regular`` and the vertex facets alike; and
    no y is built, as ``in_SF_bounded`` asks only whether the class is
    reached."""
    enumerations = count_library_calls(monkeypatch, "fundamental_sets")
    components = count_library_calls(monkeypatch, "regular_vertex_components")
    witnesses = count_library_calls(monkeypatch, "_lattice_coefficients")
    tests = count_calls(monkeypatch, "in_SF_bounded")
    g = localization_graph()
    cone.cache_clear()
    assert classify(g).verdict == VERDICT_S2_VERIFIED and tests
    assert len(enumerations) == 1
    assert [v for _, v in components] == list(g.vertices)
    assert witnesses == []


def test_hk_enumerates_only_for_an_uncertified_pair(monkeypatch):
    """On a theorem graph every exceptional pair has a certifying vertex
    and every gap element a certificate, so ``classify`` lists no
    fundamental set; past the 16-vertex cap a graph with a pair is still
    refused, by the limit check alone."""
    enumerations = count_library_calls(monkeypatch, "fundamental_masks")
    cone.cache_clear()
    assert classify(graph_for_theorem(8, 12).graph).verdict == VERDICT_S2_VERIFIED
    g = graph_for_theorem(17, 18).graph
    assert cone(g).pairs
    with pytest.raises(UnsupportedGraphError, match="limited to 16 vertices, graph has 17"):
        hk_not_s2(g)
    assert enumerations == []


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(connected_nonbipartite(dmax=9), st.data())
def test_cone_facet_pass_matches_facets(g, data):
    """``Cone.validated``, built from ``Cone.regular`` and
    ``Cone.fundamental``, is the validated entries of ``facets(g)`` in
    their order; at every regular v, ``Cone.odd_component`` is the first
    component of a freshly built G minus v of odd x-weight, or None."""
    c = cone(g)
    assert c.validated == tuple(f for f in facets(g) if f.validated)
    x = tuple(data.draw(st.lists(st.integers(0, 3), min_size=g.n_vertices, max_size=g.n_vertices)))
    for v in g.vertices:
        comps = helpers.regular_vertex_components_reference(g, v)
        assert (v in c.regular) == (comps is not None)
        if comps is not None:
            assert c.odd_component(v, x) == next((k for k in comps if sum(x[u - 1] for u in k) % 2), None)


def test_classify_keeps_one_graph(g33):
    """Nothing in the library holds a classified graph once another graph
    has been classified: ``cone`` keeps only the last graph's data."""
    g = localization_graph()
    classify(g, degree_bound=8)
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
        (lambda: classify(g, 8.0), "degree bound"),
        (lambda: classify(g, "8"), "degree bound"),
        (lambda: gap_elements(g, 8.0), "degree bound"),
    ]:
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()
    rep = classify(g, np.int64(8))
    assert type(rep.degree_bound) is int and rep.to_json_dict() == classify(g, 8).to_json_dict()


def test_degree_bound_fits_a_packed_field(g33):
    """No field width of ``semigroup._packing`` holds a degree bound of
    2**64 or more: ``classify`` and ``gap_elements`` refuse one at once,
    before any stage."""
    g = g33.graph
    for call in (classify, gap_elements):
        with pytest.raises(ValueError, match=re.escape("below 2**64")):
            call(g, 2**64)


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
    """Whether Lemma 2 of ``semigroup._gap_formula`` closes every module
    generator of a graph at ``bound``, as a ``draw_graph`` filter."""
    return lambda g: any(sum(x) <= bound for x in normalization_generators(g)) and not opens(g, bound)


def multi_vertex_graph():
    """A proven graph at bound 10 that HK does not refute, with a module
    generator x where |C(x)| >= 2: draw 1,430 of ``draw_graph(20, ...)``."""
    def wanted(g):
        return proven_at(10)(g) and hk_not_s2(g) is None and any(c & (c - 1) for c in module_covers(g, 10))

    draw, g = draw_graph(20, wanted, 2000)
    assert draw is not None, "no proven graph with |C(x)| >= 2 in 2,000 draws"
    return g


def check_certified_route(g, degree_bound):
    """The gap stage hands each gap element's certificate to ``classify``:
    ``Cone.certified`` is exactly the gap elements with C nonempty, each
    mapped to a certificate at next(``Cone.certifying``).  When HK does not
    refute g, the ``vertex_parity_certificate`` calls of ``classify`` are
    one per such element it examines, at that vertex, each certifying; its
    certificates are the per-element route's, and they are the stored
    objects themselves.  The cone is dropped first,
    so ``Cone.certified`` holds this call's gap alone.  Returns the gap."""
    cone.cache_clear()
    if hk_not_s2(g) is not None:
        gap, calls = gap_elements(g, degree_bound), None
    else:
        calls = []
        real = serre.vertex_parity_certificate
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(serre, "vertex_parity_certificate",
                       lambda g, v, alpha: calls.append((v, alpha, real(g, v, alpha))) or calls[-1][2])
            rep = classify(g, degree_bound)
        gap = examined = list(rep.gap)
        if rep.s_prime_candidate is not None:
            examined = gap[: gap.index(rep.s_prime_candidate) + 1]
        reference = helpers.vertex_certificates_reference(g, examined)
        assert list(rep.certificates) == [cert for cert in reference if cert is not None]
    c = cone(g)
    lowest = [next(c.certifying(alpha), None) for alpha in gap]
    assert [getattr(c.certified.get(alpha), "vertex", None) for alpha in gap] == lowest
    assert c.certified.keys() == {alpha for alpha, v in zip(gap, lowest) if v is not None}
    if calls is not None:
        assert [(v, alpha) for v, alpha, _ in calls] == [
            (v, alpha) for v, alpha in zip(lowest, examined) if v is not None]
        assert all(cert for *_, cert in calls)
        assert all(cert is c.certified[cert.candidate] for cert in rep.certificates)
    return gap


def check_proven_route(g, degree_bound):
    """``check_certified_route`` on a graph whose gap is all certified."""
    gap = check_certified_route(g, degree_bound)
    assert gap and len(cone(g).certified) == len(gap)
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


@pytest.mark.parametrize("seed, draw", [(0, 416), (1, 19), (2, 34), (3, 123), (5, 80), (7, 19)])
def test_proven_route_on_random_graphs(seed, draw):
    """The first proven graph at bound 10 of ``draw_graph(seed, ...)``, a
    graph HK does not refute: the gap equals ``_gap_direct`` and the
    vertices reach ``classify`` as above."""
    found, g = draw_graph(seed, proven_at(10), draw)
    assert found == draw and hk_not_s2(g) is None
    assert check_proven_route(g, 10) == _gap_direct(g, 10)


def mixed_at(bound):
    """Whether Lemma 2 leaves some module generator of a graph open at
    ``bound`` while another has a certifying vertex, as a ``draw_graph``
    filter."""
    return lambda g: opens(g, bound) and any(module_covers(g, bound))


@pytest.mark.parametrize("seed, draw", [(0, 2391), (1, 1472), (5, 1838), (6, 17)])
def test_certified_route_on_random_draws(seed, draw):
    """The first graph of ``draw_graph(seed, ...)`` with an open module
    generator and a certified one at bound 10 (HK refutes the draw of
    seed 6): the gap equals the plain search and each certified element
    reaches ``classify`` with its lowest vertex."""
    found, g = draw_graph(seed, mixed_at(10), draw)
    assert found == draw
    assert check_certified_route(g, 10) == plain_gap(g, 10)


def check_fast_path(g, degree_bound):
    """``vertex_parity_certificate`` hands back a stored certificate only
    for the gap's own tuple at its stored vertex; every answer equals the
    parity scan's (``helpers.vertex_certificates_reference``).  Per
    certified element: the stored certificate, component included, is the
    scan's at its vertex; an equal copy, a list and numpy int64
    coordinates each get an equal certificate that is not the stored one;
    every further certifying vertex gets the scan's certificate there; and
    a float coordinate, equal and of equal hash, raises ValueError.
    Returns the number of certified elements and of further vertices."""
    cone.cache_clear()
    gap = gap_elements(g, degree_bound)
    c, further = cone(g), 0
    for alpha in gap:
        stored = c.certified.get(alpha)
        if stored is None:
            continue
        assert [stored] == helpers.vertex_certificates_reference(g, [alpha], [stored.vertex])
        assert stored.candidate is alpha and vertex_parity_certificate(g, stored.vertex, alpha) is stored
        for other in (tuple(list(alpha)), list(alpha), tuple(map(np.int64, alpha))):
            cert = vertex_parity_certificate(g, stored.vertex, other)
            assert cert == stored and cert is not stored
        for v in list(c.certifying(alpha))[1:]:
            assert [vertex_parity_certificate(g, v, alpha)] == helpers.vertex_certificates_reference(g, [alpha], [v])
            further += 1
        k = next(i for i, a in enumerate(alpha) if a)
        floating = alpha[:k] + (float(alpha[k]),) + alpha[k + 1:]
        assert floating == alpha and hash(floating) == hash(alpha)
        with pytest.raises(ValueError, match="vector coordinate"):
            vertex_parity_certificate(g, stored.vertex, floating)
    return len(c.certified), further


@pytest.mark.parametrize("d", [7, 8])
def test_fast_path_on_theorem_graphs(d):
    """``check_fast_path`` on every theorem graph of d = 7, 8 at the
    default bound, whose gap is all certified; the d = 8 sweep has
    16,632 certified elements, none with a second certifying vertex."""
    counts = [check_fast_path(graph_for_theorem(d, n).graph, 16) for n in theorem_edge_range(d)]
    assert all(certified for certified, _ in counts)
    assert d == 7 or sum(certified for certified, _ in counts) == 16632


def test_exclusion_certificate_is_a_record():
    """``ExclusionCertificate`` is a named tuple with its three fields in
    order: immutable, truthy, equal to the plain tuple of its fields, and
    a pickle round trip, as pool workers return reports, gives an equal
    record of its own type.  On a theorem graph the scan's answer for an
    equal copy of each certified element is a record equal to the stored
    one, and a report survives pickling with its records."""
    assert ExclusionCertificate._fields == ("vertex", "component", "candidate")
    g = graph_for_theorem(8, 16).graph
    cone.cache_clear()
    gap = gap_elements(g, 16)
    certified = cone(g).certified
    assert len(certified) == len(gap) == 3168
    for alpha in gap:
        stored = certified[alpha]
        scanned = vertex_parity_certificate(g, stored.vertex, tuple(list(alpha)))
        assert type(scanned) is ExclusionCertificate and scanned == stored and scanned is not stored
    stored = certified[gap[0]]
    assert stored and stored == (stored.vertex, stored.component, stored.candidate)
    with pytest.raises(AttributeError):
        stored.vertex = 0
    back = pickle.loads(pickle.dumps(stored))
    assert type(back) is ExclusionCertificate and back == stored
    report = classify(g)
    back = pickle.loads(pickle.dumps(report))
    assert back == report and {type(c) for c in back.certificates} == {ExclusionCertificate}


def test_fast_path_on_hypothesis_graphs():
    """``check_fast_path`` on random graphs with an exceptional pair or an
    odd cycle at bounds 8 and 10, and on a graph with two certifying
    vertices at one gap element: at least 20 of the random graphs have a
    certified gap element, and some element is checked at a vertex that
    is not its lowest."""
    counts = [check_fast_path(multi_vertex_graph(), 10)]

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(with_exceptional_pair(dmax=9), connected_nonbipartite(dmax=9)), st.sampled_from([8, 10]))
    def check(g, bound):
        counts.append(check_fast_path(g, bound))

    check()
    assert sum(bool(certified) for certified, _ in counts[1:]) >= 20, counts
    assert sum(further for _, further in counts), counts


def _certificates_match_reference(g, degree_bound):
    """classify's certificates equal the per-facet reference loop's on the
    gap elements it examined (all of them, or up to the S' candidate);
    returns the reference answer per examined element."""
    rep = classify(g, degree_bound)
    stop = len(rep.gap) if rep.s_prime_candidate is None else rep.gap.index(rep.s_prime_candidate) + 1
    reference = helpers.vertex_certificates_reference(g, rep.gap[:stop])
    assert list(rep.certificates) == [c for c in reference if c is not None]
    return reference


def test_pool_graph_0_certificates_match_reference():
    """No vertex facet certifies any gap element of the first localization
    pool graph at degree bound 8, so classify must report no certificate."""
    g = Graph.from_edge_list(8, [(1, 5), (1, 6), (1, 8), (2, 3), (2, 7), (3, 6), (3, 7),
                                 (4, 6), (5, 6), (5, 8)])
    reference = _certificates_match_reference(g, 8)
    assert len(reference) == 8 and not any(reference)


def test_certificates_match_reference_with_exceptional_pair():
    """Random graphs with an exceptional pair, at degree bound 8: enough draws
    reach the exclusion stage, and some have gap elements that no vertex
    facet certifies."""
    examined = []

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(with_exceptional_pair(dmax=10))
    def check(g):
        examined.append(_certificates_match_reference(g, 8))

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
    """8 vertices, 10 edges: at degree bound 8 no gap element has a parity
    certificate, so exclusion runs the exact localization test."""
    pairs = [(1, 5), (1, 6), (1, 8), (2, 3), (2, 7), (3, 6), (3, 7), (4, 6), (5, 6), (5, 8)]
    return Graph.from_edge_list(8, pairs)


def test_exclusion_scan_stops_at_first_non_yes(monkeypatch):
    g = localization_graph()
    validated = [f for f in facets(g) if f.validated]
    seen = []

    def stub(status):
        def fake(g, f, alpha):
            seen.append(f)
            return BoundedMembership(status)

        return fake

    monkeypatch.setattr(serre, "in_SF_bounded", stub(NO_UP_TO_BOUND))
    rep = classify(g, degree_bound=8)
    assert rep.verdict == VERDICT_S2_VERIFIED and len(seen) == rep.gap_count

    # every facet says yes for the first gap element: NotS2 right there
    seen.clear()
    monkeypatch.setattr(serre, "in_SF_bounded", stub(YES))
    rep = classify(g, degree_bound=8)
    assert rep.verdict == VERDICT_NOT_S2 and rep.s_prime_candidate == rep.gap[0]
    assert seen == validated


# two triangles joined through three more vertices: NotS2 at its first
# uncertified gap element at degree bound 8
EXCLUSION_NOT_S2 = Graph.from_edge_list(9, [(1, 5), (1, 7), (1, 9), (2, 4), (2, 5), (2, 6), (3, 6), (3, 8),
                                            (4, 7), (6, 8), (7, 9)])


def test_exclusion_matches_localization_oracle():
    """At degree bound 8, on graphs that HK does not refute, against the
    brute-force condition of ``helpers.localization_reference`` at the
    validated facets of ``facets``, neither of which reads ``serre``: each
    gap element that ``classify`` examined without a vertex-parity
    certificate has a facet where the oracle says no, except the S'
    candidate of a NotS2 verdict, where it says yes at every facet; and at
    each of those facets ``in_SF_bounded`` says yes exactly where the
    oracle does.  Every draw that HK leaves is S2 at these bounds, so a
    d = 9 graph is added, two triangles joined through three more
    vertices: NotS2 at its first uncertified gap element."""
    uncertified_counts, verdicts = [], set()

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(connected_nonbipartite(8), with_exceptional_pair(8)))
    @example(EXCLUSION_NOT_S2)
    def check(g):
        assume(cycles.exceptional_pairs(g) and hk_not_s2(g) is None)
        rep = classify(g, degree_bound=8)
        validated = [f for f in facets(g) if f.validated]
        examined = rep.gap if rep.s_prime_candidate is None else rep.gap[: rep.gap.index(rep.s_prime_candidate) + 1]
        certified = {c.candidate for c in rep.certificates}
        uncertified = [alpha for alpha in examined if alpha not in certified]
        for alpha in uncertified:
            member = [helpers.localization_reference(g, f, alpha) for f in validated]
            assert [in_SF_bounded(g, f, alpha).status == YES for f in validated] == member, (g.edges, alpha)
            assert all(member) == (alpha == rep.s_prime_candidate), (g.edges, alpha)
        assert (rep.verdict == VERDICT_NOT_S2) == (rep.s_prime_candidate is not None)
        uncertified_counts.append(len(uncertified))
        verdicts.add(rep.verdict)

    check()
    # with hypothesis 6.155, 15 of the 301 graphs have an uncertified element
    assert sum(map(bool, uncertified_counts)) >= 5 and VERDICT_NOT_S2 in verdicts, uncertified_counts


def test_pool_graph_0_report_at_default_bounds(monkeypatch):
    """Pool graph 0 at the default bounds: no vertex facet certifies any
    of its 792 gap elements, so every one is excluded at some facet by the
    exact localization test; the bytes `analyze` writes, pinned.  Trying
    the last excluding facet first keeps the per-facet tests at 799, about
    one per element (6,336 in the fixed facet order).  The graph file
    that CI's `edgering analyze` reads is this graph."""
    assert (Path(__file__).parent / "golden" / "pool_graph_0.graph").read_text() == write_graph(localization_graph())
    tests = count_calls(monkeypatch, "in_SF_bounded")
    cone.cache_clear()
    rep = classify(localization_graph(), degree_bound=16)
    assert rep.gap_count == 792 and not rep.certificates
    assert analyze_sha256(rep) == POOL_0_REPORT_SHA256
    assert len(tests) <= 799


def pair_clique_graph():
    """The pair-and-clique graph at d = 10, three edges past the paper's
    top: triangles {1,2,3} and {4,5,6}, F = {7,8,9} joined to all six
    triangle vertices, and a clique on F and 10; 30 edges.  The two triangles are the only
    exceptional pair, and no vertex certifies any gap element."""
    pairs = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    pairs += [(t, f) for t in range(1, 7) for f in (7, 8, 9)]
    pairs += [(a, b) for a in range(7, 11) for b in range(a + 1, 11)]
    return Graph.from_edge_list(10, pairs)


def test_pair_clique_d10_report_at_default_bounds(monkeypatch):
    """The d = 10 construction at the default bounds is S2 with 2,002 gap
    elements, none certified: each is excluded by the exact localization
    test, 2,015 tests in all (28,028 in the fixed facet order).  The
    bytes `analyze` writes are pinned; CI's `edgering analyze` reads the
    golden file, which is this graph."""
    g = parse_graph((Path(__file__).parent / "golden" / "pair_clique_d10.graph").read_text())
    assert g == pair_clique_graph() and len(g.edges) == 30
    tests = count_calls(monkeypatch, "in_localization")
    cone.cache_clear()
    rep = classify(g)
    assert rep.verdict == VERDICT_S2_VERIFIED and not rep.exhaustive and rep.gap_count == 2002
    assert analyze_sha256(rep) == PAIR_CLIQUE_D10_REPORT_SHA256
    assert len(tests) <= 2015


def test_pair_clique_d10_gap_grows_from_failed_covers(monkeypatch):
    """No vertex certifies the gap of the d = 10 construction, so all of it
    is grown from the failed covers of M = {m}: 10,929 decide calls at the
    default bound for 2,002 gap elements, where deciding every candidate
    m + beta over the edge sums of G took 61,625."""
    decides, real = [], semigroup._EdgeSumSearch.decide
    monkeypatch.setattr(semigroup._EdgeSumSearch, "decide", lambda self, x: decides.append(1) or real(self, x))
    cone.cache_clear()
    assert len(gap_elements(pair_clique_graph())) == 2002
    assert len(decides) <= 10929, len(decides)


def test_partial_proof_d9_report_at_default_bounds():
    """The 9-vertex graph whose module Lemma 2 closes only in part is S2
    at the default bounds: 1,782 gap elements, 1,287 certified by a vertex
    and the rest excluded by the exact localization test.  The bytes
    `analyze` writes are pinned; CI's `edgering analyze` reads the golden
    file, which is this graph."""
    g = parse_graph((Path(__file__).parent / "golden" / "partial_proof_d9.graph").read_text())
    assert g == PARTIAL_PROOF_D9
    cone.cache_clear()
    rep = classify(g)
    assert rep.verdict == VERDICT_S2_VERIFIED and not rep.exhaustive
    assert rep.gap_count == 1782 and len(rep.certificates) == 1287
    assert analyze_sha256(rep) == PARTIAL_PROOF_D9_REPORT_SHA256


def test_two_covers_d10_report_at_default_bounds():
    """The 10-vertex graph with a module generator of two failed covers
    (``test_semigroup.test_two_failed_covers``) is S2 at the default
    bounds: 5,434 gap elements, 4,004 certified by a vertex and the rest
    excluded by the exact localization test.  The bytes `analyze` writes
    are pinned; CI's `edgering analyze` reads the golden file."""
    cone.cache_clear()
    rep = classify(TWO_COVERS_D10)
    assert rep.verdict == VERDICT_S2_VERIFIED and not rep.exhaustive
    assert rep.gap_count == 5434 and len(rep.certificates) == 4004
    assert analyze_sha256(rep) == TWO_COVERS_D10_REPORT_SHA256


def exclusion_graphs():
    """Graphs whose exclusion stage tests facets at degree bound 8, or that
    reach it: the 60 localization pool graphs of the benchmark,
    ``EXCLUSION_NOT_S2`` and the
    non-normal graphs among 3,000 draws of ``random_connected_
    nonbipartite(Random(5), 9, 10, 0.3)``."""
    pool = json.loads(POOL_FILE.read_text(encoding="utf-8"))["localization_search"]["pool"]
    graphs = [parse_graph(entry["graph"]) for entry in pool]
    graphs.append(EXCLUSION_NOT_S2)
    rng = random.Random(5)
    draws = (helpers.random_connected_nonbipartite(rng, 9, 10, 0.3) for _ in range(3000))
    return graphs + [g for g in draws if cycles.exceptional_pairs(g)]


def test_exclusion_order_does_not_change_reports(monkeypatch):
    """``classify``'s reports at degree bound 8 are the same whatever order
    ``Cone.validated`` lists the facets in: as enumerated, reversed, or
    shuffled by a seeded ``Random``.  Each NotS2 ``s_prime_candidate`` is
    the first gap element that every validated facet admits, tested
    facet by facet, and an S2 verdict has none; the graphs include both
    verdicts with uncertified gap elements."""
    graphs = exclusion_graphs()

    def reports():
        out = []
        for g in graphs:
            cone.cache_clear()
            out.append(classify(g, degree_bound=8))
        return out

    default = reports()
    uncertified, s_prime = 0, 0
    for g, rep in zip(graphs, default):
        validated = [f for f in facets(g) if f.validated]
        first = next((alpha for alpha in rep.gap if all(in_SF_bounded(g, f, alpha).status == YES for f in validated)),
                     None)
        assert rep.s_prime_candidate == first, g.edges
        uncertified += bool(rep.gap) and not rep.exhaustive
        s_prime += first is not None
    assert uncertified >= 70 and s_prime >= 3, (uncertified, s_prime)

    default = [rep.to_json_dict() for rep in default]
    for arrange in (lambda fs: fs[::-1], lambda fs: random.Random(7).sample(fs, len(fs))):
        validated = property(lambda c: tuple(arrange([f for f in facets(c.graph) if f.validated])))
        monkeypatch.setattr(semigroup.Cone, "validated", validated)
        assert [rep.to_json_dict() for rep in reports()] == default


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
    search means an exact yes; an exact yes carries a y in S cap F with alpha + y in S and an off-facet
    multiset of weight ell(alpha); an exact no is unreached by the
    brute-force lemma condition.  At each facet candidate,
    ``in_SF_bounded`` says ``YES`` on an exact yes and ``NO_UP_TO_BOUND``
    on an exact no."""
    g, alpha = query
    candidates = facets(g)
    for f in _faces(g):
        exact = in_localization(g, f, alpha)
        assert exact.weight == sum(map(mul, f.normal, alpha))
        y = _bounded_y(g, f, alpha, 6)
        if y is not None:
            assert exact.member
        if f in candidates:
            assert in_SF_bounded(g, f, alpha).status == (YES if exact.member else NO_UP_TO_BOUND)
        if exact.member:
            assert in_S_cap_F(g, f, exact.y)
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
    in_SF_bounded(g, f, alpha)
    assert built == [f]


def certifying_reference(g, x):
    """C(x) as a mask, from freshly built components of G minus v."""
    comps = {v: helpers.regular_vertex_components_reference(g, v) for v in g.vertices}
    return to_mask(v for v, cs in comps.items()
                   if cs is not None and not x[v - 1] and any(sum(x[u - 1] for u in c) % 2 for c in cs))


@settings(max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(connected_nonbipartite(dmax=9), with_exceptional_pair(dmax=9)), st.data())
def test_cone_parity_is_the_vertex_facets(g, data):
    """The keys of ``Cone.regular`` are the regular vertices, which are
    the vertices of the validated vertex facets, and each row pairs a
    component of G minus v with its 0-based indices; ``Cone.certifying``
    is C(x); each ``classify`` certificate sits at the lowest vertex of
    C(alpha)."""
    c = cone(g)
    regular = [v for v in g.vertices if helpers.regular_vertex_components_reference(g, v) is not None]
    assert list(c.regular) == regular
    for v, rows in c.regular.items():
        assert tuple(comp for comp, _ in rows) == helpers.regular_vertex_components_reference(g, v)
        assert all(idx == tuple(u - 1 for u in comp) for comp, idx in rows)
    assert regular == [f.vertices[0] for f in facets(g) if f.validated and f.kind == VERTEX_KIND]
    assert all(f.validated for f in facets(g) if f.kind == VERTEX_KIND)
    x = data.draw(st.lists(st.integers(0, 2), min_size=g.n_vertices, max_size=g.n_vertices))
    assert to_mask(c.certifying(x)) == certifying_reference(g, x)
    for cert in classify(g, degree_bound=8).certificates:
        assert cert.vertex == bits(certifying_reference(g, cert.candidate))[0]


@pytest.mark.parametrize("call", [
    in_S,
    in_lattice,
    in_cone,
    lambda g, x: in_localization(g, vertex_facet(g, 4), x),
    lambda g, x: vertex_parity_certificate(g, 4, x),
], ids=["in_S", "in_lattice", "in_cone", "in_localization", "vertex_parity_certificate"])
def test_vectors_need_integer_coordinates(g33, call):
    """A float or a string coordinate is rejected, naming it, instead of
    being truncated or parsed; numpy integers are integers."""
    g = g33.graph
    for bad in (0.5, 1.5, "1"):
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            call(g, (1, bad, 1, 0, 1, 1, 1))
    assert call(g, tuple(np.int64(v) for v in ALPHA)) == call(g, ALPHA)
