"""Differential tests of the bitmask graph kernel: every routine that now
walks vertex bitmasks must agree with the set-based reference in
``helpers`` that builds a Graph per subgraph."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import helpers
from edgering.cycles import exceptional_pairs, minimal_odd_cycles
from edgering.facets import fundamental_sets, regular_vertex_components
from edgering.families import add_cross_edges, build_gab, cross_pairs
from edgering.graph import (
    Graph,
    bits,
    connected_components,
    contains_odd_cycle,
    delete_vertex,
    is_connected,
    mask_components,
    to_mask,
)
from edgering.serre import hk_not_s2
from test_semigroup import with_exceptional_pair

SLOW = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@st.composite
def graphs(draw, dmax=9):
    """Any simple graph on labels 1..d, d <= dmax, connected or not."""
    d = draw(st.integers(1, dmax))
    pairs = [(i, j) for i in range(1, d + 1) for j in range(i + 1, d + 1)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph.from_edge_list(d, edges)


@st.composite
def addition_graphs(draw):
    """A two-clique family graph G(a, b) on at most 9 vertices plus a
    random set of cross edges, as the additions sweep builds them."""
    a, b = draw(st.sampled_from([(3, 3), (3, 4), (3, 5), (4, 4)]))
    fam = build_gab(a, b)
    return add_cross_edges(fam, sorted(draw(st.sets(st.sampled_from(cross_pairs(fam))))))


@st.composite
def derived_graphs(draw):
    """A random graph with up to three vertices deleted, so its labels
    have gaps."""
    g = draw(graphs())
    for v in draw(st.lists(st.sampled_from(g.vertices), max_size=min(3, g.n_vertices - 1), unique=True)):
        g = delete_vertex(g, v)
    return g


@st.composite
def with_far_set(draw):
    """Two triangles with no edge between them, a vertex x whose closed
    neighbourhood misses both, and random links, under a random
    relabelling: the triangles form an exceptional pair, and {x} is often
    a fundamental set that condition (2) of hk_not_s2 has to check."""
    a, b, r, x, p = [0, 1, 2], [3, 4, 5], 6, 7, 8
    pairs = {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (x, p)}
    pairs.add((draw(st.sampled_from(a + b + [r])), p))
    spare = [(v, r) for v in a + b] + [(v, p) for v in a + b + [r]]
    pairs |= draw(st.sets(st.sampled_from(spare)))
    perm = draw(st.permutations(range(1, 10)))
    return Graph.from_edge_list(9, {tuple(sorted((perm[i], perm[j]))) for i, j in pairs})


any_graph = st.one_of(graphs(), addition_graphs(), with_exceptional_pair(), with_far_set())


@SLOW
@given(derived_graphs(), st.data())
def test_mask_components_match_reference(g, data):
    """Components, and each one's colour class (the side of its smallest
    vertex) or None for an odd cycle, against a depth-first 2-colouring."""
    subset = data.draw(st.sets(st.sampled_from(g.vertices)))
    want = []
    if subset:
        h = helpers.induced_subgraph(g, subset)
        for c in helpers.connected_components_reference(h):
            side = helpers.colour_class_reference(h, c)
            want.append((to_mask(c), None if side is None else to_mask(side)))
    assert mask_components(g, to_mask(subset)) == want
    assert bits(to_mask(subset)) == sorted(subset)


@SLOW
@given(derived_graphs())
def test_is_connected_matches_components(g):
    """One traversal from the lowest label answers as counting every
    component does, label gaps included."""
    assert is_connected(g) == (len(connected_components(g)) == 1)


@SLOW
@given(derived_graphs(), st.data())
def test_components_and_odd_cycles_match_reference(g, data):
    assert connected_components(g) == helpers.connected_components_reference(g)
    assert contains_odd_cycle(g) == helpers.contains_odd_cycle_reference(g)
    subset = data.draw(st.sets(st.sampled_from(g.vertices), min_size=1))
    assert contains_odd_cycle(helpers.induced_subgraph(g, subset)) == helpers.contains_odd_cycle_reference(g, subset)


@SLOW
@given(any_graph)
def test_regular_vertex_components_match_reference(g):
    if g.n_vertices > 1:
        for v in g.vertices:
            assert regular_vertex_components(g, v) == helpers.regular_vertex_components_reference(g, v)


@SLOW
@given(any_graph)
def test_fundamental_sets_match_reference(g):
    assert fundamental_sets(g) == helpers.fundamental_sets_reference(g)


@SLOW
@given(graphs(dmax=7))
def test_minimal_odd_cycles_match_reference(g):
    assert minimal_odd_cycles(g) == helpers.minimal_odd_cycles_reference(g)


@SLOW
@given(any_graph)
def test_exceptional_pairs_match_reference(g):
    assert [tuple(p) for p in exceptional_pairs(g)] == helpers.exceptional_pairs_reference(g)


@SLOW
@given(any_graph)
def test_hk_not_s2_matches_reference(g):
    got = hk_not_s2(g)
    want = helpers.hk_not_s2_reference(g)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (tuple(got.pair), got.same_component_vertices, got.same_component_sets) == want

