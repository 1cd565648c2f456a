import math

import numpy as np
import pytest

import edgering
import helpers
from conftest import family_intermediates
from edgering.cycles import minimal_odd_cycles
from edgering.families import (
    add_cross_edges,
    build_gab,
    cross_edge_generators,
    cross_edge_orbits,
    cross_pairs,
    family_graph,
    graph_for_theorem,
    max_family_edges,
    max_theorem_edges,
    removal_schedule,
    theorem_edge_range,
)
from edgering.graph import connected_components, delete_vertex, is_connected


def test_build_gab_shape(g33, g34):
    g = g33.graph
    assert g.n_vertices == 7
    assert g.n_edges == 12
    assert g33.w == 4
    assert g33.u_side == (1, 2, 3)
    assert g33.v_side == (5, 6, 7)
    assert helpers.adjacency(g)[4] == {1, 2, 3, 5, 6, 7}
    assert g34.graph.n_vertices == 8
    assert g34.graph.n_edges == 16
    assert g34.w == 4
    assert g34.v_side == (5, 6, 7, 8)


def test_role_labels_follow_a_and_b(g34):
    """u_i -> i, w -> a + 1, v_j -> a + 1 + j, on every member of a family."""
    want = {"u1": 1, "u2": 2, "u3": 3, "w": 4, "v1": 5, "v2": 6, "v3": 7, "v4": 8}
    for fam in (g34, family_graph(3, 4, 9)):
        assert fam.labels == want
        assert list(fam.u_side) + [fam.w] + list(fam.v_side) == list(range(1, 9))


def test_build_gab_validation():
    with pytest.raises(ValueError):
        build_gab(2, 5)
    with pytest.raises(ValueError):
        build_gab(4, 3)


def test_max_edges():
    assert max_family_edges(3, 3) == 12
    assert max_family_edges(3, 4) == 16
    assert max_theorem_edges(7) == 12
    assert max_theorem_edges(8) == 16
    assert max_theorem_edges(9) == 21
    assert theorem_edge_range(7) == range(8, 13)
    assert theorem_edge_range(9) == range(10, 22)
    assert theorem_edge_range(36) == range(37, 535)  # b = 32, the side limit
    for d in (6, 37):
        with pytest.raises(ValueError, match=f"7 <= d <= 36, got d={d}"):
            theorem_edge_range(d)


def test_removal_schedule_33():
    assert removal_schedule(3, 3) == ((1, 4), (2, 4), (4, 5), (4, 6))  # u-phase, then v-phase


def test_removal_schedule_34():
    assert removal_schedule(3, 4) == ((1, 4), (2, 4), (4, 5), (5, 6), (5, 7), (4, 6), (4, 7))


def test_removal_schedule_44():
    sched = removal_schedule(4, 4)
    assert sched == ((1, 5), (1, 2), (1, 3), (2, 5), (3, 5), (5, 6), (6, 7), (6, 8), (5, 7), (5, 8))
    assert len(sched) == max_family_edges(4, 4) - (4 + 4 + 2)


def test_family_graph_counts():
    for n in range(8, 13):
        fam = family_graph(3, 3, n)
        assert fam.graph.n_edges == n
        assert fam.graph.n_vertices == 7
    tilde = family_graph(3, 3, 8)
    assert tilde.graph.edges == (
        (1, 2), (1, 3), (2, 3), (3, 4), (4, 7), (5, 6), (5, 7), (6, 7),
    )


def test_family_graph_range_errors():
    with pytest.raises(ValueError) as err:
        family_graph(3, 3, 7)
    assert "[8, 12]" in str(err.value)
    with pytest.raises(ValueError):
        family_graph(3, 3, 13)


def test_graph_for_theorem():
    fam = graph_for_theorem(7, 8)
    assert fam.a == 3 and fam.b == 3
    assert fam.graph.n_edges == 8
    fam9 = graph_for_theorem(9, 21)
    assert fam9.b == 5 and fam9.graph.n_edges == 21
    with pytest.raises(ValueError) as err:
        graph_for_theorem(7, 13)
    assert "[8, 12]" in str(err.value)
    with pytest.raises(ValueError):
        graph_for_theorem(6, 8)


def test_family_builders_reject_non_integers():
    for call, name in (
        (lambda: build_gab(3.5, 4), "side size a"),
        (lambda: build_gab(3, "4"), "side size b"),
        (lambda: removal_schedule(3, 4.0), "side size b"),
        (lambda: family_graph(3, 4, 12.0), "edge count n"),
        (lambda: theorem_edge_range(8.0), "dimension d"),
        (lambda: graph_for_theorem(8.0, 12), "dimension d"),
        (lambda: graph_for_theorem(8, 12.0), "edge count n"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            call()
    # integer types other than int are taken at their value
    assert family_graph(np.int64(3), 4, np.int64(12)).graph == family_graph(3, 4, 12).graph
    assert graph_for_theorem(np.int64(8), 12).graph == graph_for_theorem(8, 12).graph


def test_cross_pairs(g33):
    pairs = cross_pairs(g33)
    assert len(pairs) == 9
    assert pairs[0] == (1, 5)
    assert pairs[-1] == (3, 7)


def test_add_cross_edges(g33, g34):
    g = add_cross_edges(g33, [(1, 5)])
    assert g.n_edges == 13
    assert (1, 5) in g.edges
    with pytest.raises(ValueError):
        add_cross_edges(g33, [(1, 2)])  # not a cross pair
    with pytest.raises(ValueError):
        add_cross_edges(g33, [(1, 5), (1, 5)])
    with pytest.raises(ValueError):
        add_cross_edges(family_graph(3, 3, 11), [(1, 5)])  # base not full


@pytest.mark.parametrize("a, b", [(3, 3), (3, 4), (4, 4), (3, 5)])
def test_cross_edge_generators_are_automorphisms(a, b):
    fam = build_gab(a, b)
    gens = cross_edge_generators(fam)
    assert len(gens) == (a - 1) + (b - 1) + (a == b)
    pairs = cross_pairs(fam)
    for gen in gens:
        assert helpers.is_automorphism(fam.graph, gen), gen
        assert gen[fam.w] == fam.w
        assert sorted(tuple(sorted((gen[i], gen[j]))) for i, j in pairs) == pairs


def test_automorphism_check_rejects_a_bad_generator(g33, g34):
    # the side swap where a != b, and a transposition that moves the hub
    swap34 = {v: v for v in g34.graph.vertices} | dict(zip(g34.u_side + g34.v_side[:3], g34.v_side[:3] + g34.u_side))
    hub_move = {v: v for v in g33.graph.vertices} | {g33.w: 1, 1: g33.w}
    assert not helpers.is_automorphism(g34.graph, swap34)
    assert not helpers.is_automorphism(g33.graph, hub_move)


@pytest.mark.parametrize("a, b, max_extra, orbits", [(3, 3, 9, 25), (3, 4, 2, 4), (4, 4, 4, 17), (3, 5, 15, 189)])
def test_cross_edge_orbit_counts(a, b, max_extra, orbits):
    reps = cross_edge_orbits(build_gab(a, b), max_extra)
    assert len(reps) == sum(math.comb(a * b, k) for k in range(1, max_extra + 1))
    assert len(set(reps)) == orbits
    # each representative is the lowest index of its orbit
    assert all(reps[r] == r <= x for x, r in enumerate(reps))


def test_cross_edge_orbits_need_the_full_member():
    with pytest.raises(ValueError, match="full family graph"):
        cross_edge_orbits(family_graph(3, 3, 11), 1)


def test_in_set_A(g33):
    assert helpers.in_set_A(g33, (1, 1, 1, 0, 1, 1, 1))
    assert not helpers.in_set_A(g33, (1, 1, 1, 1, 1, 1, 1))  # hub coordinate nonzero
    assert not helpers.in_set_A(g33, (1, 1, 0, 0, 1, 1, 1))  # u side sum even
    assert not helpers.in_set_A(g33, (1, 1, 1, 0, 1, 1, 0))  # v side sum even


@pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (3, 5), (4, 4)])
def test_intermediate_invariants(a, b):
    prefixes = family_intermediates(a, b)
    assert len(prefixes) == len(removal_schedule(a, b)) + 1
    hub = a + 1
    for fam in prefixes:
        g = fam.graph
        assert is_connected(g)
        assert fam.w == hub
        # hub is a cut vertex separating the two sides, each still connected
        comps = connected_components(delete_vertex(g, hub))
        assert comps == [frozenset(fam.u_side), frozenset(fam.v_side)]
        # minimal odd cycles are all triangles
        cycles = minimal_odd_cycles(g)
        assert all(len(c) == 3 for c in cycles)
        # every minimal odd cycle touches the hub's neighborhood
        nbrs = helpers.adjacency(g)[hub]
        for c in cycles:
            assert any(x in nbrs or x == hub for x in c)


@pytest.mark.parametrize("a,b", [(3, 3), (3, 4), (4, 4)])
def test_hub_edge_implies_later_side_edges(a, b):
    """If an intermediate keeps the hub edge to side vertex i, it keeps
    every side edge from i to a later side vertex on the same side."""
    for fam in family_intermediates(a, b):
        g = fam.graph
        adj = helpers.adjacency(g)
        for side in (fam.u_side, fam.v_side):
            for idx, i in enumerate(side):
                if i not in adj[fam.w]:
                    continue
                for j in side[idx + 1:]:
                    assert j in adj[i], (a, b, g.n_edges, i, j)


def test_persistent_side_edges():
    # edges into the last vertex of each side are never scheduled
    for a, b in [(3, 3), (3, 4), (4, 4), (3, 5)]:
        sched = set(removal_schedule(a, b))
        fam = build_gab(a, b)
        for side in (fam.u_side, fam.v_side):
            last = side[-1]
            for i in side[:-1]:
                assert (min(i, last), max(i, last)) not in sched
