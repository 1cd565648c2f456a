import copy
import pickle
import random
import re
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import helpers
from edgering.graph import (
    Graph,
    GraphFormatError,
    UnsupportedGraphError,
    connected_components,
    contains_odd_cycle,
    delete_vertex,
    is_connected,
    parse_graph,
    write_graph,
)
from edgering.serre import classify


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
    assert not is_connected(g)


def test_hash_is_structural_and_survives_pickling():
    """Equal graphs hash equal, as the hash of (vertices, edges), whether
    the hash was cached before a graph was pickled or not, and whether it
    was taken here or in a worker of a two-process pool, as in a sweep
    with ``--jobs 2``."""
    graphs = [helpers.random_connected_nonbipartite(random.Random(k), 6, 9) for k in range(6)]
    fresh = [Graph(g.vertices, g.edges) for g in graphs]
    for g in graphs[::2]:
        hash(g)  # half of them travel with a cached hash
    expected = [hash((g.vertices, g.edges)) for g in graphs]
    assert [hash(g) for g in fresh] == expected and fresh == graphs
    assert [hash(pickle.loads(pickle.dumps(g))) for g in graphs] == expected
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert list(pool.map(hash, graphs)) == expected
        back = list(pool.map(copy.copy, fresh))
    assert back == graphs and [hash(g) for g in back] == expected
    assert len({g: None for g in graphs + fresh + back}) == len(set(expected))


def test_delete_vertex_keeps_labels(g33):
    k4 = helpers.complete_graph(4)
    k3 = delete_vertex(k4, 4)
    assert k3 == helpers.complete_graph(3)

    rest = delete_vertex(g33.graph, g33.w)
    comps = connected_components(rest)
    assert [sorted(c) for c in comps] == [[1, 2, 3], [5, 6, 7]]
    for comp in comps:
        sub = helpers.induced_subgraph(rest, comp)
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


def test_delete_equals_induced_composition(g33):
    g = g33.graph
    for v in g.vertices:
        assert delete_vertex(g, v) == helpers.induced_subgraph(g, g.vertex_set - {v})


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


def test_is_connected_stops_at_the_first_component():
    """20,000 disjoint triangles pass the edge-count check (d = m), and the
    one traversal from vertex 1 ends after three vertices."""
    g = Graph.from_edge_list(60000, [(3 * k + i, 3 * k + j) for k in range(20000) for i, j in ((1, 2), (1, 3), (2, 3))])
    start = time.perf_counter()
    assert not is_connected(g)
    assert time.perf_counter() - start < 1.0


def test_contains_odd_cycle():
    assert contains_odd_cycle(helpers.complete_graph(3))
    assert not contains_odd_cycle(helpers.cycle_graph(6))
    g = helpers.bowtie_graph()
    assert contains_odd_cycle(helpers.induced_subgraph(g, {1, 2, 3}))
    assert not contains_odd_cycle(helpers.induced_subgraph(g, {3, 4}))


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


def test_sparse_header_is_unsupported_before_any_label():
    """A connected graph on d vertices has at least d - 1 edges; an
    endpoint past d names its line."""
    with pytest.raises(UnsupportedGraphError, match="d=1000000000000 vertices and m=0 edges"):
        parse_graph("p 1000000000000 0\n")
    assert parse_graph("p 2 1\ne 1 2\n").n_vertices == 2  # d = m + 1 may be connected
    with pytest.raises(GraphFormatError, match="line 2: endpoint outside label range 1..3"):
        parse_graph("p 3 1\ne 1 4\n")
    with pytest.raises(UnsupportedGraphError, match="connected graph"):
        classify(Graph.from_edge_list(100000, []))  # is_connected refuses it with no traversal


def test_writer_needs_contiguous_labels():
    g = delete_vertex(helpers.complete_graph(4), 2)
    with pytest.raises(ValueError):
        write_graph(g)
