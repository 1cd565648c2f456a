import functools
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import helpers
from conftest import family_intermediates
from edgering import semigroup
from edgering.cycles import exceptional_pairs
from edgering.families import add_cross_edges, build_gab, cross_pairs, graph_for_theorem
from edgering.graph import Graph, UnsupportedGraphError, contains_odd_cycle, parse_graph, rho_vector, to_mask
from edgering.semigroup import (
    _EdgeSumSearch,
    _edge_sum_levels,
    _gap_direct,
    _module_generators,
    _nonnegative_vectors,
    cone,
    gap_elements,
    in_S,
    in_cone,
    in_lattice,
    in_sbar,
    normalization_generators,
)

ALPHA = (1, 1, 1, 0, 1, 1, 1)


def test_in_lattice(g33):
    g = g33.graph
    assert in_lattice(g, ALPHA)
    assert not in_lattice(g, (1, 0, 0, 0, 0, 0, 0))
    # signs are allowed for lattice membership
    assert in_lattice(g, (1, -1, 0, 0, 0, 0, 0))
    assert not in_lattice(g, (1, 1, 1, 0, 0, 0, 0))


def test_in_lattice_bipartite():
    c6 = helpers.cycle_graph(6)
    assert in_lattice(c6, (1, 1, 0, 0, 0, 0))
    assert not in_lattice(c6, (1, 0, 1, 0, 0, 0))  # both odd-side
    assert in_lattice(c6, (1, 0, 1, 0, 0, 2))  # sides balance 2 = 2
    lattice = helpers.edge_lattice(c6)
    rng = random.Random(17)
    for _ in range(50):
        vec = tuple(rng.randint(-3, 3) for _ in range(6))
        assert in_lattice(c6, vec) == lattice.contains(vec), vec


def test_in_cone(g33):
    g = g33.graph
    assert in_cone(g, ALPHA)
    assert in_cone(g, rho_vector(g.n_vertices, (1, 2)))
    assert not in_cone(g, (1, 1, 1, -1, 1, 1, 1))
    assert not in_cone(g, (1, 0, 0, 0, 1, 0, 0))


def test_in_cone_bipartite_fallback():
    c6 = helpers.cycle_graph(6)
    assert in_cone(c6, (1, 1, 0, 0, 0, 0))
    assert not in_cone(c6, (1, 0, 0, 0, 0, 0))
    assert not in_cone(c6, (2, 0, 1, 1, 0, 0))  # x(A) = x(B), but N({1}) = {2, 6} is empty
    assert in_cone(c6, (2, 1, 0, 0, 0, 1))


def test_in_cone_matches_rational_oracle(g33):
    rng = random.Random(23)
    g = g33.graph
    gens = [rho_vector(7, e) for e in g.edges]
    for _ in range(120):
        x = tuple(rng.randint(0, 6) for _ in range(7))
        assert in_cone(g, x) == helpers.in_rational_cone(gens, x)


def _colour_classes(g: Graph) -> tuple[list[int], list[int]]:
    """The parity classes of breadth-first depth from vertex 1: the two
    sides of a bipartite graph."""
    adj, depth, queue = helpers.adjacency(g), {1: 0}, [1]
    for u in queue:
        for w in sorted(adj[u] - depth.keys()):
            depth[w] = depth[u] + 1
            queue.append(w)
    return ([v for v in g.vertices if depth[v] % 2 == 0], [v for v in g.vertices if depth[v] % 2])


@st.composite
def cone_queries(draw):
    """(graph, vector): a random connected graph, bipartite or not, and a
    vector that is signed, nonnegative and balanced (x(A) = x(B) for the
    colour classes A, B), or nonnegative and unbalanced."""
    bipartite = draw(st.booleans())
    d = draw(st.integers(2 if bipartite else 3, 8))
    g = helpers.random_connected_graph(random.Random(draw(st.integers(0, 2**32))), d, bipartite)
    kind = draw(st.sampled_from(["signed", "balanced", "unbalanced"]))
    x = draw(st.lists(st.integers(-3 if kind == "signed" else 0, 6), min_size=d, max_size=d))
    if kind == "balanced":
        first, second = _colour_classes(g)
        diff = sum(x[v - 1] for v in first) - sum(x[v - 1] for v in second)
        x[draw(st.sampled_from(second if diff > 0 else first)) - 1] += abs(diff)
    return g, tuple(x)


@settings(max_examples=400, deadline=None)
@given(cone_queries())
def test_in_cone_matches_simplex_oracle(query):
    g, x = query
    gens = [rho_vector(g.n_vertices, e) for e in g.edges]
    assert in_cone(g, x) == helpers.in_rational_cone(gens, x)


def test_in_cone_past_the_facet_vertex_cap():
    """d = 17 is past the 16-vertex cap of fundamental set enumeration,
    which the flow does not need."""
    g = graph_for_theorem(17, 18).graph
    gens = [rho_vector(17, e) for e in g.edges]
    rng = random.Random(29)
    for _ in range(30):
        x = [rng.randint(0, 2) for _ in range(17)]
        for e in rng.sample(g.edges, 4):
            x = [a + b for a, b in zip(x, rho_vector(17, e))]
        assert in_cone(g, x) == helpers.in_rational_cone(gens, x), x
    assert in_cone(g, tuple(map(sum, zip(*gens))))
    assert not in_cone(g, (2,) + (0,) * 16)


def test_in_sbar(g33):
    g = g33.graph
    assert in_sbar(g, ALPHA)
    assert in_sbar(g, rho_vector(g.n_vertices, (1, 2)))
    assert not in_sbar(g, (1, 0, 0, 0, 1, 0, 0))  # fails the cone side
    assert not in_sbar(g, (1, 1, 1, 0, 0, 0, 0))  # fails the lattice side


def test_in_S_witnesses(g33):
    g = g33.graph
    w = in_S(g, (1, 1, 0, 1, 1, 0, 0))
    assert w is not None
    assert w.multiplicities == (((1, 2), 1), ((4, 5), 1))

    assert in_S(g, ALPHA) is None

    doubled = tuple(2 * v for v in ALPHA)
    w2 = in_S(g, doubled)
    assert w2 is not None
    assert w2.total_edges() == 6
    assert w2.vector_sum(7) == doubled
    # the only 6-edge witness: both triangles, each edge once
    assert w2.multiplicities == (
        ((1, 2), 1), ((1, 3), 1), ((2, 3), 1),
        ((5, 6), 1), ((5, 7), 1), ((6, 7), 1),
    )


def test_in_S_validation(g33):
    g = g33.graph
    with pytest.raises(ValueError):
        in_S(g, (1, -1, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        in_S(g, (1, 1, 0))
    assert in_S(g, (1, 0, 0, 0, 0, 0, 0)) is None  # odd sum, immediate


def test_in_S_zero_vector(g33):
    w = in_S(g33.graph, (0,) * 7)
    assert w is not None and w.multiplicities == ()


def test_witness_resums():
    rng = random.Random(31)
    for _ in range(10):
        g = helpers.random_connected_nonbipartite(rng)
        d = g.n_vertices
        # random edge sums are members and the witness must re-sum
        target = [0] * d
        for _ in range(rng.randint(1, 6)):
            e = rng.choice(g.edges)
            target[e[0] - 1] += 1
            target[e[1] - 1] += 1
        w = in_S(g, tuple(target))
        assert w is not None
        assert w.vector_sum(d) == tuple(target)


def test_normalization_generators(g33, g34):
    assert normalization_generators(g33.graph) == [ALPHA]
    assert normalization_generators(helpers.complete_graph(5)) == []
    gens = normalization_generators(g34.graph)
    assert len(gens) == 4
    for vec in gens:
        assert in_sbar(g34.graph, vec)
        assert in_S(g34.graph, vec) is None


def test_gap_elements_small_bound(g33):
    assert gap_elements(g33.graph, 6) == _gap_direct(g33.graph, 6) == [ALPHA]
    assert gap_elements(helpers.complete_graph(5), 10) == _gap_direct(helpers.complete_graph(5), 10) == []


def test_gap_routes_agree(g33):
    import edgering

    gt = edgering.graph_for_theorem(7, 8).graph
    for g in [g33.graph, gt]:
        assert gap_elements(g, 12) == _gap_direct(g, 12)


def test_gap_validation(g33):
    with pytest.raises(ValueError):
        gap_elements(g33.graph, 7)
    with pytest.raises(ValueError):
        gap_elements(g33.graph, 0)
    with pytest.raises(UnsupportedGraphError):
        gap_elements(helpers.cycle_graph(6), 12)
    with pytest.raises(UnsupportedGraphError):
        gap_elements(Graph.from_edge_list(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]), 12)


def test_gap_members_are_gap(g33):
    g = g33.graph
    for alpha in gap_elements(g, 12):
        assert in_sbar(g, alpha)
        assert in_S(g, alpha) is None


def test_family_gap_lands_in_exclusion_set():
    for a, b in [(3, 3), (3, 4)]:
        for fam in family_intermediates(a, b):
            for alpha in gap_elements(fam.graph, 12):
                assert helpers.in_set_A(fam, alpha)


def test_pair_plus_hub_edge_in_S():
    """Adding one hub-incident edge to an exceptional pair sum always
    gives a semigroup member, on the full graphs and all intermediates."""
    import edgering

    for a, b in [(3, 3), (3, 4)]:
        for fam in family_intermediates(a, b):
            g = fam.graph
            w = fam.w
            for pair in edgering.exceptional_pairs(g):
                for v in helpers.adjacency(g)[w]:
                    vec = list(helpers.cycle_indicator(g, *pair))
                    vec[w - 1] += 1
                    vec[v - 1] += 1
                    assert in_S(g, tuple(vec)) is not None, (a, b, g.n_edges, pair, v)


@st.composite
def connected_graph(draw, dmin=2, dmax=8, bipartite=False):
    """A random spanning tree plus random extra edges; with ``bipartite``
    the extra edges only join the two colour classes of the tree."""
    d = draw(st.integers(dmin, dmax))
    tree = [(draw(st.integers(1, v - 1)), v) for v in range(2, d + 1)]
    side = {1: 0}
    for u, v in tree:
        side[v] = 1 - side[u]
    pairs = [
        (i, j)
        for i in range(1, d + 1)
        for j in range(i + 1, d + 1)
        if not bipartite or side[i] != side[j]
    ]
    extra = draw(st.sets(st.sampled_from(pairs), max_size=2 * d))
    return Graph.from_edge_list(d, set(tree) | extra)


@st.composite
def connected_nonbipartite(draw, dmax=8):
    """A random connected graph, kept when it has an odd cycle."""
    g = draw(connected_graph(4, dmax))
    assume(contains_odd_cycle(g))
    return g


@st.composite
def with_exceptional_pair(draw, dmax=8):
    """Two triangles with no edge between them, joined through random hub
    vertices, under a random relabelling: the triangles form an
    exceptional pair."""
    hubs = draw(st.integers(1, dmax - 6))
    d = 6 + hubs
    a, b, h = [0, 1, 2], [3, 4, 5], list(range(6, d))
    pairs = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}
    # every hub meets the first triangle or an earlier hub; one hub meets the second
    for i, u in enumerate(h):
        pairs.add((draw(st.sampled_from(a + h[:i])), u))
    pairs.add((draw(st.sampled_from(b)), draw(st.sampled_from(h))))
    spare = [(u, v) for u in h for v in a + b + h if u != v]
    pairs |= draw(st.sets(st.sampled_from(spare), max_size=2 * hubs))
    perm = draw(st.permutations(range(1, d + 1)))
    g = Graph.from_edge_list(d, {tuple(sorted((perm[i], perm[j]))) for i, j in pairs})
    assert exceptional_pairs(g)
    return g


@st.composite
def gab_with_cross_edges(draw):
    """G(3,4) or G(4,4) plus up to two random cross edges."""
    fam = build_gab(*draw(st.sampled_from([(3, 4), (4, 4)])))
    return add_cross_edges(fam, draw(st.lists(st.sampled_from(cross_pairs(fam)), max_size=2, unique=True)))


def _formula_route(g, bound):
    """Module generators M, rebuilt on a fresh engine as the formula route
    builds them, and the edge sums of G: the candidates of ``plain_gap``."""
    gens = [x for x in normalization_generators(g) if sum(x) <= bound]
    levels = _edge_sum_levels(g.n_vertices, g.edges, bound - min(map(sum, gens)))
    return _module_generators(_EdgeSumSearch(g), gens, bound), levels


def module_covers(g, bound):
    """C(x) as a mask for each x in M, from ``Cone.certifying``."""
    return [to_mask(cone(g).certifying(x)) for x in _formula_route(g, bound)[0]]


class _OpenPart(Exception):
    """Raised where ``gap_elements`` finds a failed cover."""


def opens(g, bound):
    """Whether ``gap_elements(g, bound)`` leaves a module generator open:
    whether ``semigroup._open_covers`` returns a failed cover for some x.
    The call stops there, after the certified part has gone into
    ``Cone.certified``."""
    real = semigroup._open_covers

    def spy(*args):
        failed = real(*args)
        if failed:
            raise _OpenPart
        return failed

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(semigroup, "_open_covers", spy)
        try:
            gap_elements(g, bound)
        except _OpenPart:
            return True
    return False


def plain_gap(g, bound):
    """The gap over every candidate x + beta, x in M and beta an edge sum
    of G of degree <= bound - deg(x), each decided on a fresh engine that
    shares no memo with the library: the oracle of the formula route,
    blind to which x Lemma 2 closes and to the covers that fail."""
    module, levels = _formula_route(g, bound)
    plain = _EdgeSumSearch(g)
    candidates = {
        tuple(a + b for a, b in zip(x, beta))
        for x in module
        for k in range((bound - sum(x)) // 2 + 1)
        for beta in levels[k]
    }
    return sorted((a for a in candidates if not plain.decide(a)), key=lambda v: (sum(v), v))


def draw_graph(seed, wanted, draws):
    """(draw number, graph): the first of ``draws`` graphs of
    ``random_connected_nonbipartite(Random(seed), 6, 9, 0.3)`` with
    ``wanted(g)``, or (None, None)."""
    rng = random.Random(seed)
    for k in range(1, draws + 1):
        g = helpers.random_connected_nonbipartite(rng, 6, 9, 0.3)
        if wanted(g):
            return k, g
    return None, None


def nth_draw(seed, k):
    """Draw k of ``random_connected_nonbipartite(Random(seed), 6, 9, 0.3)``,
    the sequence that ``draw_graph`` scans."""
    rng = random.Random(seed)
    for _ in range(k):
        g = helpers.random_connected_nonbipartite(rng, 6, 9, 0.3)
    return g


PARTIAL_PROOF_D9 = Graph.from_edge_list(9, [(1, 3), (1, 7), (1, 8), (2, 3), (2, 4), (3, 4), (5, 6),
                                            (5, 8), (5, 9), (6, 7), (8, 9)])
TWO_COVERS_D10 = parse_graph((Path(__file__).parent / "golden" / "two_covers_d10.graph").read_text())


@functools.cache
def mixed_graphs():
    """Graphs with an open module generator and a certified gap element at
    bounds 8, 10 and 12: the two graphs above and four draws."""
    draws = [nth_draw(seed, k) for seed, k in ((0, 2391), (1, 1472), (5, 1838), (20, 4793))]
    return [PARTIAL_PROOF_D9, TWO_COVERS_D10, *draws]


@st.composite
def relabelled_mixed(draw):
    """(graph, bound): one of ``mixed_graphs`` under a random relabelling,
    at a bound where it is mixed.  Being mixed survives relabelling; the
    order in which ``_open_covers`` branches does not."""
    g = mixed_graphs()[draw(st.integers(0, len(mixed_graphs()) - 1))]
    perm = draw(st.permutations(range(1, g.n_vertices + 1)))
    edges = {tuple(sorted((perm[i - 1], perm[j - 1]))) for i, j in g.edges}
    return Graph.from_edge_list(g.n_vertices, edges), draw(st.sampled_from([8, 10, 12]))


def test_gap_matches_plain_search():
    """The gap equals a plain search over M plus every edge sum of G,
    whatever share of M Lemma 2 closes and wherever the open part grows
    from; ``Cone.certified`` holds exactly the gap elements with C
    nonempty, each mapped to the lowest vertex of its C.  At least 100
    examples reach the comparison, and at least 50 of them are mixed: a
    generator is open and a gap element is certified."""
    examined, mixed = [], []

    @settings(max_examples=250, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
    @given(st.one_of(
        st.tuples(st.one_of(with_exceptional_pair(dmax=9), gab_with_cross_edges(), connected_nonbipartite(dmax=9)),
                  st.sampled_from([6, 8, 10, 12])),
        relabelled_mixed(),
    ))
    def check(case):
        g, bound = case
        cone.cache_clear()
        gap = gap_elements(g, bound)
        if not any(sum(x) <= bound for x in normalization_generators(g)):
            assert gap == []
            return
        assert gap == plain_gap(g, bound)
        examined.append(g)
        c = cone(g)
        lowest = [next(c.certifying(a), None) for a in gap]
        assert [c.certified.get(a) for a in gap] == lowest
        assert c.certified.keys() == {a for a, v in zip(gap, lowest) if v is not None}
        if c.certified and opens(g, bound):
            mixed.append(g)

    check()
    assert len(examined) >= 100, len(examined)
    assert len(mixed) >= 50, len(mixed)


def test_theorem_graphs_are_proven():
    """Every theorem graph for d = 7..9 at the default degree bound has
    no open module generator."""
    for d in (7, 8, 9):
        for n in range(d + 1, (d * d - 7 * d + 24) // 2 + 1):
            assert not opens(graph_for_theorem(d, n).graph, 16), (d, n)


def test_pool_graph_0_is_not_proven():
    """The first localization pool graph has a generator with no
    certifying vertex, so it is open, and the open part grown from it
    agrees with the direct route."""
    g = Graph.from_edge_list(8, [(1, 5), (1, 6), (1, 8), (2, 3), (2, 7), (3, 6), (3, 7),
                                 (4, 6), (5, 6), (5, 8)])
    assert not all(to_mask(cone(g).certifying(x)) for x in normalization_generators(g))
    assert opens(g, 8)
    assert gap_elements(g, 8) == _gap_direct(g, 8) != []


def test_cover_check_decides_the_route():
    """Every module generator has a certifying vertex here, but a cover
    vector of degree <= 10 is not in S, so that generator is open; the
    gap still matches the direct route."""
    g = PARTIAL_PROOF_D9
    assert all(module_covers(g, 10))
    assert opens(g, 10)
    assert gap_elements(g, 10) == _gap_direct(g, 10) != []


def test_two_failed_covers():
    """tests/golden/two_covers_d10.graph: the module generator x below has
    C(x) = {1} and two failed covers, x + rho(1, 2) and x + rho(1, 9), and
    the open part grows from both.  At bound 8 the gap has 22 elements, as
    the direct route finds; grown from the first failed cover alone it
    has 21."""
    g = TWO_COVERS_D10
    x = (0, 1, 1, 1, 0, 0, 1, 1, 0, 1)
    assert x in _formula_route(g, 8)[0] and to_mask(cone(g).certifying(x)) == 1 << 1
    covers = [tuple(a + b for a, b in zip(x, rho_vector(g.n_vertices, e))) for e in ((1, 2), (1, 9))]
    assert semigroup._open_covers(cone(g).engine, x, 1 << 1, 8) == covers
    gap = gap_elements(g, 8)
    assert len(gap) == 22 and gap == _gap_direct(g, 8)


def test_failed_proof_reuses_the_module(monkeypatch):
    """Lemma 2 closes some module generators but not all on the graph
    above (tests/golden/partial_proof_d9.graph) and on the first of 6,000
    draws of ``random_connected_nonbipartite(Random(20), 6, 9, 0.3)``
    (draw 4,793) whose generators all have a certifying vertex while one
    is open.  At bounds 10, 12 and 16: the gap matches the direct route
    (the plain search at 16, where the direct route lists 2 million
    vectors); M is computed once; ``Cone.certified`` holds as many
    elements as ``classify`` has certificates; and the open part grows
    from the failed covers alone.  When every x + beta of an open x went
    to a search over a table of edge sums, the decide calls were 36, 202
    and 3,005 on the first graph and 57, 320 and 5,133 on the draw (81,
    367, 4,292 and 183, 866, 10,541 when one open generator sent every
    candidate to the search)."""
    from edgering.serre import classify

    def generators_certified_one_open(g):
        gens = [x for x in normalization_generators(g) if sum(x) <= 10]
        return gens and all(to_mask(cone(g).certifying(x)) for x in gens) and opens(g, 10)

    draw, drawn = draw_graph(20, generators_certified_one_open, 6000)
    assert draw == 4793
    modules, decides = [], []
    real_module, real_decide = semigroup._module_generators, _EdgeSumSearch.decide
    monkeypatch.setattr(semigroup, "_module_generators", lambda *args: modules.append(1) or real_module(*args))
    monkeypatch.setattr(_EdgeSumSearch, "decide", lambda self, x: decides.append(1) or real_decide(self, x))
    # bound: (certificates, decide calls at most), for each graph
    pins = [(PARTIAL_PROOF_D9, {10: (45, 15), 12: (165, 76), 16: (1287, 985)}),
            (drawn, {10: (90, 23), 12: (330, 100), 16: (2574, 1242)})]
    for g, by_bound in pins:
        for bound, (certified, most) in by_bound.items():
            cone.cache_clear()
            modules.clear()
            decides.clear()
            gap = gap_elements(g, bound)
            assert modules == [1] and len(decides) <= most, (bound, len(decides))
            assert len(cone(g).certified) == len(classify(g, bound).certificates) == certified
            assert gap == (_gap_direct(g, bound) if bound < 16 else plain_gap(g, bound)) != []


def test_module_generators_beyond_the_pairs():
    """Four pairwise non-adjacent triangles on a hub: the sum of all four
    indicators lies in no single pair vector plus S, so only the closure
    of the generators puts it among the gap candidates."""
    tris = [(3 * i + 1, 3 * i + 2, 3 * i + 3) for i in range(4)]
    edges = [(a, b) for t in tris for a, b in ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))]
    g = Graph.from_edge_list(13, edges + [(t[0], 13) for t in tris])
    four = (1,) * 12 + (0,)
    assert in_sbar(g, four) and in_S(g, four) is None
    assert four in _formula_route(g, 12)[0]
    assert four not in normalization_generators(g)
    assert four in gap_elements(g, 12)


@settings(max_examples=25, deadline=None)
@given(connected_nonbipartite(dmax=6))
def test_edge_sum_levels_are_S_by_degree(g):
    d = g.n_vertices
    levels = _edge_sum_levels(d, g.edges, 6)
    for k, level in enumerate(levels):
        degree_2k = (x for x in _nonnegative_vectors(d, 2 * k) if sum(x) == 2 * k)
        members = {x for x in degree_2k if in_S(g, x) is not None}
        assert level.keys() == members


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(connected_graph(), gab_with_cross_edges()), st.sampled_from([0, 2, 4, 6, 8]))
def test_edge_sum_levels_match_reference(g, max_degree):
    """The canonical rule reaches the same sums as adding every edge to
    every base, and each sum is stored with its support mask."""
    d = g.n_vertices
    levels = _edge_sum_levels(d, g.edges, max_degree)
    reference = helpers.edge_sum_levels_reference(d, g.edges, max_degree)
    assert [level.keys() for level in levels] == reference
    for level in levels:
        for beta, supp in level.items():
            assert supp == to_mask(v for v, c in enumerate(beta, 1) if c), beta


@settings(max_examples=80, deadline=None)
@given(connected_graph(), st.data())
def test_prune_matches_fresh_traversal(g, data):
    """The prune, answered from the per-pattern cache, agrees with a fresh
    traversal of the positive-support subgraph on every vector, and again
    when a pattern comes back with other values (a cache hit)."""
    d = g.n_vertices
    coords = st.lists(st.integers(0, 3), min_size=d, max_size=d).map(tuple)
    vecs = data.draw(st.lists(coords, min_size=1, max_size=10))
    v = data.draw(st.integers(1, d))
    a, b = g.edges[0]
    alone = [0] * d  # v is the whole support: even, but isolated
    alone[v - 1] = 2
    cut_off = list(vecs[0])  # v in the support, none of its neighbours
    for w in helpers.adjacency(g)[v]:
        cut_off[w - 1] = 0
    cut_off[v - 1] += 1
    odd = [0] * d  # rho(a, b) + e_a: connected support, odd sum
    odd[a - 1], odd[b - 1] = 2, 1
    base = [tuple([0] * d), tuple(alone), tuple(cut_off), tuple(odd), *vecs]
    same_pattern = [tuple(x + 1 if x else 0 for x in vec) for vec in base]
    engine = _EdgeSumSearch(g)
    for x in base + same_pattern + base:
        assert engine._prune(x) == helpers.prune_reference(g, x), x
    assert len(engine.support) <= len(base)


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(lambda bip: connected_graph(bipartite=bip)), st.data())
def test_in_lattice_matches_gcd_oracle(g, data):
    """The closed form agrees with extended-gcd reduction against a lattice
    basis, on signed edge-vector combinations and on perturbations of them."""
    d = g.n_vertices
    lattice = helpers.edge_lattice(g)
    small = st.integers(-3, 3)
    for _ in range(4):
        coeffs = data.draw(st.lists(small, min_size=g.n_edges, max_size=g.n_edges))
        member = [0] * d
        for c, (i, j) in zip(coeffs, g.edges):
            member[i - 1] += c
            member[j - 1] += c
        shift = data.draw(st.lists(small, min_size=d, max_size=d))
        for x in (member, [a + b for a, b in zip(member, shift)]):
            assert in_lattice(g, x) == lattice.contains(x), x
