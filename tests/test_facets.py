import random

import pytest

import helpers
from edgering.facets import (
    FUNDAMENTAL_KIND,
    VERTEX_KIND,
    _facet_from_normal,
    cone_dimension,
    facets,
    fundamental_sets,
    generators_on_facet,
    is_regular_vertex,
    regular_vertex_components,
)
from edgering.graph import Graph, UnsupportedGraphError, delete_vertex, rho_vector
from edgering.serre import vertex_parity_certificate


def test_is_regular_vertex(g33):
    assert all(is_regular_vertex(g33.graph, v) for v in g33.graph.vertices)

    pendant = Graph.from_edge_list(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    assert not is_regular_vertex(pendant, 1)  # component {4} has no odd cycle
    assert is_regular_vertex(pendant, 4)

    import edgering

    gt = edgering.graph_for_theorem(7, 8)
    assert is_regular_vertex(gt.graph, gt.w)
    assert not is_regular_vertex(gt.graph, gt.u(3))


def test_fundamental_sets_glued_cliques(g33):
    fs = fundamental_sets(g33.graph)
    assert len(fs) == 16
    singles = [t for t in fs if len(t) == 1]
    pairs = [t for t in fs if len(t) == 2]
    assert len(singles) == 7
    # the only independent pairs are u-side vs v-side
    assert sorted(tuple(sorted(t)) for t in pairs) == [
        (i, j) for i in (1, 2, 3) for j in (5, 6, 7)
    ]


def test_fundamental_sets_complete_graph():
    fs = fundamental_sets(helpers.complete_graph(4))
    assert [set(t) for t in fs] == [{1}, {2}, {3}, {4}]


def test_fundamental_sets_pentagon():
    # singletons leave a bipartite path behind, so only the five
    # independent pairs qualify
    fs = fundamental_sets(helpers.cycle_graph(5))
    assert sorted(tuple(sorted(t)) for t in fs) == [
        (1, 3), (1, 4), (2, 4), (2, 5), (3, 5),
    ]


def test_fundamental_sets_limit():
    # the cap is checked before any enumeration, so 17 vertices stay cheap
    with pytest.raises(UnsupportedGraphError, match="16 vertices"):
        fundamental_sets(helpers.cycle_graph(17))


def test_facets_glued_cliques(g33):
    fac = facets(g33.graph)
    assert len(fac) == 23
    assert all(f.validated for f in fac)
    kinds = [f.kind for f in fac]
    assert kinds[:7] == [VERTEX_KIND] * 7
    assert kinds[7:] == [FUNDAMENTAL_KIND] * 16
    # vertex facets ascend; fundamental facets sorted by size then set
    assert [f.vertices for f in fac[:7]] == [(v,) for v in range(1, 8)]


def test_facets_complete_graph():
    fac = facets(helpers.complete_graph(4))
    assert len(fac) == 8
    assert sum(f.kind == VERTEX_KIND for f in fac) == 4
    assert all(f.validated for f in fac)


def test_facets_unsupported():
    with pytest.raises(UnsupportedGraphError):
        facets(helpers.cycle_graph(6))
    with pytest.raises(UnsupportedGraphError):
        facets(Graph.from_edge_list(6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]))


def test_facet_normals_match_bruteforce(g33):
    for g in [
        helpers.complete_graph(4),
        helpers.complete_graph(5),
        helpers.bowtie_graph(),
        helpers.cycle_graph(5),
        g33.graph,
    ]:
        impl = {f.normal for f in facets(g) if f.validated}
        assert impl == helpers.facet_normals_bruteforce(g)


def test_fundamental_normal_values(g33):
    # on every edge a fundamental normal evaluates to 0, 1 or 2
    for g in [g33.graph, helpers.bowtie_graph(), helpers.complete_graph(5)]:
        for f in facets(g):
            if f.kind != FUNDAMENTAL_KIND:
                continue
            for e in g.edges:
                val = f.normal[e[0] - 1] + f.normal[e[1] - 1]
                assert val in (0, 1, 2)


def test_generators_on_facet(g33):
    g = g33.graph
    fac = facets(g)
    f_w = next(f for f in fac if f.kind == VERTEX_KIND and f.vertices == (g33.w,))
    assert generators_on_facet(g, f_w) == [
        (1, 2), (1, 3), (2, 3), (5, 6), (5, 7), (6, 7),
    ]
    # vertex facets carry exactly the edges of the vertex-deleted graph
    for f in fac:
        if f.kind == VERTEX_KIND:
            v = f.vertices[0]
            assert tuple(generators_on_facet(g, f)) == delete_vertex(g, v).edges

    k4 = helpers.complete_graph(4)
    f1 = next(f for f in facets(k4) if f.kind == FUNDAMENTAL_KIND and f.vertices == (1,))
    assert generators_on_facet(k4, f1) == [(1, 2), (1, 3), (1, 4)]


def test_generators_on_facet_foreign(g33):
    k4 = helpers.complete_graph(4)
    f = facets(k4)[0]
    with pytest.raises(ValueError):
        generators_on_facet(g33.graph, f)


def test_on_facet_rank_is_d_minus_1(g33):
    """Validation agrees with an independent rank, that of the extended-gcd
    lattice of the on-facet edges.  The coordinate hyperplane of a
    non-regular vertex supports the cone but is no facet."""
    pendant = Graph.from_edge_list(4, [(1, 2), (1, 3), (2, 3), (1, 4)])
    not_a_facet = _facet_from_normal(pendant, VERTEX_KIND, (1,), (1, 0, 0, 0))
    assert not not_a_facet.validated
    candidates = [(pendant, not_a_facet)]
    for g in [g33.graph, helpers.complete_graph(5), helpers.bowtie_graph()]:
        candidates.extend((g, f) for f in facets(g))
    for g, f in candidates:
        d = g.n_vertices
        rows = [rho_vector(d, e) for e in f.on_facet_edges]
        assert f.validated == (helpers.lattice_of(d, rows).rank == d - 1), (g.edges, f)


def test_cone_dimension(g33):
    assert cone_dimension(g33.graph) == 7
    assert cone_dimension(helpers.cycle_graph(6)) == 5
    assert cone_dimension(helpers.complete_graph(3)) == 3
    with pytest.raises(UnsupportedGraphError):
        cone_dimension(Graph.from_edge_list(4, [(1, 2), (3, 4)]))


def test_cone_dimension_matches_lattice_rank():
    """The closed form against the rank of the extended-gcd lattice of
    the edge vectors, on random connected graphs of both kinds."""
    rng = random.Random(41)
    for i in range(200):
        bipartite = i % 2 == 0
        g = helpers.random_connected_graph(rng, rng.randint(1 if bipartite else 3, 9), bipartite)
        assert cone_dimension(g) == helpers.edge_lattice(g).rank, g.edges


def test_normals_support_all_edges():
    rng = random.Random(13)
    for _ in range(10):
        g = helpers.random_connected_nonbipartite(rng)
        for f in facets(g):
            for e in g.edges:
                assert f.normal[e[0] - 1] + f.normal[e[1] - 1] >= 0


def test_vertex_outside_graph_is_rejected(g33):
    """A vertex that is not a label of the graph, including a deleted one,
    is an error, never the components of the whole graph."""
    g = g33.graph
    alpha = (1, 1, 1, 0, 1, 1, 1)
    for v in (0, 8, 99):
        with pytest.raises(ValueError):
            regular_vertex_components(g, v)
        with pytest.raises(ValueError):
            vertex_parity_certificate(g, v, alpha)
        with pytest.raises(ValueError):
            is_regular_vertex(g, v)
    with pytest.raises(ValueError):
        regular_vertex_components(delete_vertex(g, 2), 2)
    with pytest.raises(ValueError):  # deleting the only vertex leaves no graph
        regular_vertex_components(Graph((1,), ()), 1)
