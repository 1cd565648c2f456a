"""Edge lattice rank: the closed form ``facets.lattice_rank`` that
validates facets, and the Bareiss ``facets.integer_rank`` kept as its
reference, both against the extended-gcd lattice basis in ``helpers``."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from edgering.facets import integer_rank, lattice_rank
from edgering.graph import Graph, rho_vector
from test_bitmask import graphs


@st.composite
def integer_matrix(draw):
    """(dim, rows): random signed rows, plus zero rows, repeats and sums
    of two rows, shuffled; often more rows than columns."""
    dim = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=dim, max_size=dim)
    base = draw(st.lists(row, max_size=7))
    rows = base + [[0] * dim] * draw(st.integers(0, 2))
    if base:
        pick = st.sampled_from(base)
        rows += draw(st.lists(pick, max_size=3))
        rows += [[a + b for a, b in zip(draw(pick), draw(pick))] for _ in range(draw(st.integers(0, 2)))]
    return dim, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(integer_matrix())
@example((3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]]))
@example((2, [[0, 0], [0, 3], [2, -1], [4, 1]]))
def test_integer_rank_matches_gcd_oracle(matrix):
    dim, rows = matrix
    assert integer_rank(rows, dim) == helpers.lattice_of(dim, rows).rank
    if rows:
        assert integer_rank(rows) == integer_rank(rows, dim)


def test_integer_rank_edge_cases():
    assert integer_rank([], 4) == 0
    assert integer_rank([[0, 0, 0]]) == 0
    assert integer_rank([[2, 4], [1, 2], [-3, -6]]) == 1
    with pytest.raises(ValueError, match="empty"):
        integer_rank([])
    with pytest.raises(ValueError, match="dimension"):
        integer_rank([[1, 0], [1, 0, 0]])


@settings(max_examples=300, deadline=None)
@given(graphs())  # any edge set on d <= 9 labels: isolated vertices, odd and bipartite parts
@example(Graph.from_edge_list(1, []))
@example(Graph.from_edge_list(4, [(1, 2), (1, 3), (2, 3)]))  # a triangle and an isolated vertex
@example(Graph.from_edge_list(5, [(1, 2), (3, 4), (4, 5), (3, 5)]))  # an edge and a triangle
def test_lattice_rank_matches_gcd_oracle(h):
    d = h.n_vertices
    assert lattice_rank(h) == helpers.lattice_of(d, [rho_vector(d, e) for e in h.edges]).rank
