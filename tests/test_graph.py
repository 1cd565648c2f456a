import random
import re

import numpy as np
import pytest

import helpers
from edgering.graph import (
    Graph,
    GraphFormatError,
    bipartition,
    connected_components,
    contains_odd_cycle,
    delete_vertex,
    induced_bipartite_graph,
    induced_subgraph,
    is_connected,
    neighborhood,
    parse_graph,
    write_graph,
)


def test_from_edge_list_canonical_order():
    g = Graph.from_edge_list(3, [{2, 3}, {1, 3}, (2, 1)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 2), (1, 3), (2, 3))


def test_from_edge_list_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edge_list(2, [(1, 3)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(2, [(0, 1)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(2, [{1, 1}])
    with pytest.raises(ValueError):
        Graph.from_edge_list(3, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Graph.from_edge_list(0, [])


def test_isolated_vertices_allowed():
    g = Graph.from_edge_list(4, [(1, 2)])
    assert g.n_vertices == 4
    assert g.degree(3) == 0
    assert not is_connected(g)


def test_delete_vertex_keeps_labels(g33):
    k4 = helpers.complete_graph(4)
    k3 = delete_vertex(k4, 4)
    assert k3 == helpers.complete_graph(3)

    rest = delete_vertex(g33.graph, g33.w)
    comps = connected_components(rest)
    assert [sorted(c) for c in comps] == [[1, 2, 3], [5, 6, 7]]
    for comp in comps:
        sub = induced_subgraph(rest, comp)
        assert sub.n_edges == 3  # a triangle on each side

    path = Graph.from_edge_list(3, [(1, 2), (2, 3)])
    lonely = delete_vertex(path, 2)
    assert lonely.vertices == (1, 3)
    assert lonely.edges == ()


def test_delete_vertex_errors():
    g = helpers.complete_graph(3)
    with pytest.raises(ValueError):
        delete_vertex(g, 9)
    single = Graph.from_edge_list(1, [])
    with pytest.raises(ValueError):
        delete_vertex(single, 1)


def test_induced_subgraph(g33):
    tri = induced_subgraph(g33.graph, {1, 2, 3})
    assert tri == helpers.complete_graph(3)
    with pytest.raises(ValueError):
        induced_subgraph(g33.graph, set())
    with pytest.raises(ValueError):
        induced_subgraph(g33.graph, {1, 99})


def test_delete_equals_induced_composition(g33):
    g = g33.graph
    for v in g.vertices:
        assert delete_vertex(g, v) == induced_subgraph(g, g.vertex_set - {v})


def test_neighborhood(g33):
    g = g33.graph
    assert neighborhood(g, {g33.w}) == frozenset({1, 2, 3, 5, 6, 7})
    assert neighborhood(g, {1}) == frozenset({2, 3, 4})
    # non-independent T: the neighborhood may intersect T
    assert 2 in neighborhood(g, {1, 2})


def test_neighborhood_monotone():
    rng = random.Random(7)
    g = helpers.random_connected_nonbipartite(rng)
    verts = list(g.vertices)
    for _ in range(20):
        small = frozenset(rng.sample(verts, rng.randint(1, len(verts) - 1)))
        big = small | {rng.choice(verts)}
        assert neighborhood(g, small) <= neighborhood(g, big)


def test_connected_components_partition():
    rng = random.Random(11)
    for _ in range(10):
        d = rng.randint(3, 9)
        pairs = [
            (i, j)
            for i in range(1, d + 1)
            for j in range(i + 1, d + 1)
            if rng.random() < 0.3
        ]
        g = Graph.from_edge_list(d, pairs)
        comps = connected_components(g)
        union = set()
        for c in comps:
            assert not (union & c)
            union |= c
        assert union == g.vertex_set
        assert [min(c) for c in comps] == sorted(min(c) for c in comps)


def test_bipartition():
    path = Graph.from_edge_list(3, [(1, 2), (2, 3)])
    assert bipartition(path) == (frozenset({1, 3}), frozenset({2}))
    assert bipartition(helpers.complete_graph(3)) is None
    c6 = helpers.cycle_graph(6)
    assert bipartition(c6) == (frozenset({1, 3, 5}), frozenset({2, 4, 6}))
    with pytest.raises(ValueError):
        bipartition(Graph.from_edge_list(4, [(1, 2)]))


def test_contains_odd_cycle():
    assert contains_odd_cycle(helpers.complete_graph(3))
    assert not contains_odd_cycle(helpers.cycle_graph(6))
    g = helpers.bowtie_graph()
    assert contains_odd_cycle(g, {1, 2, 3})
    assert not contains_odd_cycle(g, {3, 4})


def test_induced_bipartite_graph(g33):
    g = g33.graph
    star = induced_bipartite_graph(g, {g33.w})
    assert star.n_edges == 6
    assert all(g33.w in e for e in star.edges)

    double = induced_bipartite_graph(g, {1, 5})
    assert double.n_edges == 6
    assert sorted(double.edges) == [(1, 2), (1, 3), (1, 4), (4, 5), (5, 6), (5, 7)]

    with pytest.raises(ValueError):
        induced_bipartite_graph(g, {1, 2})


def test_format_round_trip(g33):
    text = write_graph(g33.graph, comment="glued cliques")
    again = parse_graph(text)
    assert again == g33.graph
    assert write_graph(again) == write_graph(g33.graph)


def test_endpoints_are_coerced_to_int():
    """Endpoints and d go through operator.index: True and numpy integers
    become int, and the graph survives a write/parse round trip."""
    g = Graph.from_edge_list(np.int64(3), [(True, 2), (np.int64(2), 3), (1, np.int32(3))])
    assert g.edges == ((1, 2), (1, 3), (2, 3))
    assert all(type(v) is int for e in g.edges for v in e) and g.vertices == (1, 2, 3)
    assert parse_graph(write_graph(g)) == g
    assert write_graph(g).splitlines()[1] == "e 1 2"


@pytest.mark.parametrize("bad", [1.0, 1.5, "1"])
def test_non_integer_endpoints_rejected(bad):
    with pytest.raises(ValueError, match=re.escape(f"edge endpoint must be an integer, got {bad!r}")):
        Graph.from_edge_list(3, [(bad, 2), (2, 3)])
    with pytest.raises(ValueError, match=re.escape(f"vertex count must be an integer, got {bad!r}")):
        Graph.from_edge_list(bad, [])


def test_comment_is_a_first_field_of_exactly_c():
    g = parse_graph("c\nc text\n  c indented\np 2 1\ne 1 2\n")
    assert g.edges == ((1, 2),)
    with pytest.raises(GraphFormatError, match="line 2: unknown record 'cx'"):
        parse_graph("p 2 1\ncx 1 2\ne 1 2\n")
    with pytest.raises(GraphFormatError, match="line 1: unknown record 'corrupt'"):
        parse_graph("corrupt line here\np 2 1\ne 1 2\n")


def test_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_graph("e 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 2\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 1\ne 1 4\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 1\nq 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p 3 1\np 3 1\ne 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_graph("p x 1\ne 1 2\n")


def test_writer_needs_contiguous_labels():
    g = delete_vertex(helpers.complete_graph(4), 2)
    with pytest.raises(ValueError):
        write_graph(g)
