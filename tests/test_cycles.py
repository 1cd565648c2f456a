import random

import helpers
from conftest import family_intermediates
from edgering.cycles import exceptional_pairs, minimal_odd_cycles, satisfies_odd_cycle_condition
from edgering.graph import contains_odd_cycle


def test_minimal_odd_cycles_glued_cliques(g33):
    cycles = minimal_odd_cycles(g33.graph)
    assert len(cycles) == 8
    assert all(len(c) == 3 for c in cycles)
    assert (1, 2, 3) in cycles and (5, 6, 7) in cycles


def test_minimal_odd_cycles_thinned_endpoint():
    import edgering

    gt = edgering.graph_for_theorem(7, 8).graph
    assert minimal_odd_cycles(gt) == ((1, 2, 3), (5, 6, 7))


def test_minimal_odd_cycles_even_graph():
    assert minimal_odd_cycles(helpers.cycle_graph(6)) == ()


def test_canonical_form_and_chordlessness():
    rng = random.Random(3)
    for _ in range(15):
        g = helpers.random_connected_nonbipartite(rng)
        cycles = minimal_odd_cycles(g)
        assert len({frozenset(c) for c in cycles}) == len(cycles)
        for c in cycles:
            assert len(c) % 2 == 1
            assert c[0] == min(c)
            assert c[1] < c[-1]
            assert helpers.is_cycle_of(g, c)
            assert helpers.is_chordless(g, c)


def test_odd_cycle_exists_iff_not_bipartite():
    rng = random.Random(5)
    for _ in range(15):
        g = helpers.random_connected_nonbipartite(rng, p=0.4)
        assert contains_odd_cycle(g)
        assert minimal_odd_cycles(g)
    c6 = helpers.cycle_graph(6)
    assert not contains_odd_cycle(c6)
    assert not minimal_odd_cycles(c6)


def test_exceptional_pairs(g33, g34):
    assert exceptional_pairs(g33.graph) == (((1, 2, 3), (5, 6, 7)),)
    assert exceptional_pairs(helpers.complete_graph(4)) == ()
    # u-side triangle against each v-side triangle missing the hub
    pairs = exceptional_pairs(g34.graph)
    assert len(pairs) == 4
    assert all(p.first == (1, 2, 3) for p in pairs)


def test_persistent_pair_in_intermediates():
    for a, b in [(3, 3), (3, 4)]:
        for fam in family_intermediates(a, b):
            keep = (
                tuple(fam.u(i) for i in (a - 2, a - 1, a)),
                tuple(fam.v(j) for j in (b - 2, b - 1, b)),
            )
            assert keep in [tuple(p) for p in exceptional_pairs(fam.graph)]


def test_odd_cycle_condition(g33):
    assert satisfies_odd_cycle_condition(helpers.complete_graph(5))
    assert satisfies_odd_cycle_condition(helpers.bowtie_graph())
    assert not satisfies_odd_cycle_condition(g33.graph)
    # vacuous for graphs without odd cycles
    assert satisfies_odd_cycle_condition(helpers.cycle_graph(6))


def test_condition_matches_bruteforce(golden_corpus):
    for name, g in golden_corpus.items():
        assert satisfies_odd_cycle_condition(g) == helpers.odd_cycle_condition_bruteforce(g), name


def test_exceptional_pair_lands_in_gap():
    """If a pair is exceptional, its indicator sum sits in Sbar minus S."""
    import edgering

    rng = random.Random(9)
    graphs = [edgering.build_gab(3, 3).graph, edgering.graph_for_theorem(7, 8).graph]
    graphs += [helpers.random_connected_nonbipartite(rng, p=0.35) for _ in range(10)]
    for g in graphs:
        for pair in exceptional_pairs(g):
            vec = helpers.cycle_indicator(g, *pair)
            assert edgering.in_sbar(g, vec)
            assert edgering.in_S(g, vec) is None
