"""Supporting hyperplanes and facets of the edge cone.

For a connected graph with at least one odd cycle the supporting
hyperplanes come in two shapes: coordinate hyperplanes x_v = 0 at
regular vertices, and hyperplanes sum_{T} x = sum_{N(T)} x attached to
fundamental independent sets T.  A candidate is a genuine facet exactly
when its on-hyperplane edge vectors span a rank d-1 sublattice; we keep
every candidate but flag the validated ones, and the rank is the closed
form of ``lattice_rank``: d minus the bipartite components of the
on-facet graph.  Cone membership does not read the facets;
``semigroup.in_cone`` decides it by a flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import (
    Edge,
    Graph,
    UnsupportedGraphError,
    VertexSet,
    bits,
    delete_vertex,  # not called here; the benchmark's tracer counts calls through facets.delete_vertex
    mask_components,
    mask_neighbors,
    to_mask,
)

VERTEX_KIND = "vertex"
FUNDAMENTAL_KIND = "fundamental"
MAX_VERTICES = 16  # cap of the exhaustive fundamental set enumeration


@dataclass(frozen=True)
class Facet:
    """One supporting hyperplane of the edge cone.

    ``vertices`` is (v,) for the vertex kind and sorted T for the
    fundamental kind.  ``normal`` is the integer normal functional with
    normal . rho(e) >= 0 for every edge; ``on_facet_edges`` are the edges
    with equality; ``validated`` records the rank d-1 check.
    """

    kind: str
    vertices: tuple[int, ...]
    normal: tuple[int, ...]
    on_facet_edges: tuple[Edge, ...]
    validated: bool


def regular_vertex_components(g: Graph, v: int) -> tuple[tuple[int, ...], ...] | None:
    """The components of G minus v, each a sorted tuple, ordered by
    smallest member, when v is regular; None otherwise.

    A vertex is regular when every component of G minus v has an odd
    cycle.  Traverses G's own masks with v cleared, building no graph, on
    every call; ``semigroup.Cone.regular`` keeps the answer for every
    vertex.  A v outside G, or the only vertex of G, raises ValueError.
    """
    if v not in g.vertex_set:
        raise ValueError(f"vertex {v} not in graph")
    if g.n_vertices == 1:
        raise ValueError("cannot delete the only vertex")
    comps = mask_components(g, g.vertex_mask & ~(1 << v))
    if any(even is not None for _, even in comps):
        return None
    return tuple(tuple(bits(comp)) for comp, _ in comps)


def is_regular_vertex(g: Graph, v: int) -> bool:
    """True when every connected component of G minus v has an odd cycle,
    i.e. x_v = 0 supports a facet candidate."""
    return regular_vertex_components(g, v) is not None


def _independent_sets(g: Graph) -> list[tuple[int, int]]:
    """(T, N(G; T)) as bitmasks for every nonempty independent set T."""
    masks = g.masks
    verts = g.vertices
    out: list[tuple[int, int]] = []

    def grow(start: int, tmask: int, nmask: int) -> None:
        for idx in range(start, len(verts)):
            v = verts[idx]
            if nmask >> v & 1:
                continue
            grown = (tmask | 1 << v, nmask | masks[v])
            out.append(grown)
            grow(idx + 1, *grown)

    grow(0, 0, 0)
    return out


def check_fundamental_limit(g: Graph) -> None:
    """Raise UnsupportedGraphError (CLI exit code 3) when g has more than
    ``MAX_VERTICES`` vertices, the cap of fundamental set enumeration."""
    if g.n_vertices > MAX_VERTICES:
        raise UnsupportedGraphError(
            f"fundamental set enumeration limited to {MAX_VERTICES} vertices, graph has {g.n_vertices}"
        )


def fundamental_sets(g: Graph) -> list[VertexSet]:
    """All fundamental independent sets T, sorted by (size, sorted tuple).

    T qualifies when (a) T is independent, (b) the bipartite graph
    induced by T is connected, and (c) T together with N(G; T) covers V,
    or every component left over contains an odd cycle.  Exhaustive over
    independent sets, so guarded by ``check_fundamental_limit``.
    """
    check_fundamental_limit(g)
    out: list[VertexSet] = []
    for tmask, nmask in _independent_sets(g):
        # each vertex of N(T) has a neighbour in T, so the bipartite graph is
        # connected iff alternating walks from one member of T reach all of T
        reach = layer = tmask & -tmask
        while layer:
            layer = mask_neighbors(g, mask_neighbors(g, layer)) & tmask & ~reach
            reach |= layer
        if reach != tmask:
            continue
        rest = mask_components(g, g.vertex_mask & ~(tmask | nmask))
        if all(even is None for _, even in rest):
            out.append(frozenset(bits(tmask)))
    return sorted(out, key=lambda t: (len(t), sorted(t)))


def _on_facet_edges(g: Graph, normal: tuple[int, ...]) -> list[Edge]:
    """Edges e with normal . rho(e) = 0; raises when some edge lies on
    the negative side, i.e. the normal does not support this cone."""
    out: list[Edge] = []
    for e in g.edges:
        val = normal[e[0] - 1] + normal[e[1] - 1]
        if val < 0:
            raise ValueError(f"foreign facet: edge {e} on the negative side")
        if val == 0:
            out.append(e)
    return out


def integer_rank(rows: Sequence[Sequence[int]], dim: int | None = None) -> int:
    """Rank over Q of integer row vectors, by fraction-free (Bareiss)
    Gaussian elimination: every entry below the pivot rows is a minor of
    the input, so the division by the previous pivot is exact.  Only the
    tests call it, as the reference for ``lattice_rank``; it stays here as
    the benchmark's tracer wraps it by name, until ROADMAP item 7 moves it
    to ``tests/helpers.py``."""
    mat = [list(row) for row in rows]
    if dim is None:
        if not mat:
            raise ValueError("cannot infer dimension of an empty row list")
        dim = len(mat[0])
    if any(len(row) != dim for row in mat):
        raise ValueError("dimension mismatch")
    rank, prev = 0, 1
    for col in range(dim):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(top[col] * a - f * b) // prev for a, b in zip(mat[i], top)]
        prev = top[col]
        rank += 1
    return rank


def lattice_rank(h: Graph) -> int:
    """Rank of the edge lattice of h, by the lemma of ``_facet_from_normal``."""
    return h.n_vertices - sum(even is not None for _, even in mask_components(h, h.vertex_mask))


def _facet_from_normal(g: Graph, kind: str, verts: tuple[int, ...], normal: tuple[int, ...]) -> Facet:
    """The candidate, validated when its on-facet edges on all d vertices,
    a graph H, have ``lattice_rank`` d - 1.

    Lemma.  rank L(H) is d minus the number of bipartite components of H,
    an isolated vertex counted as bipartite.  Proof.  Each edge lies in
    one component K, so L(H) is the direct sum of the L(K).  By the lemma
    of ``semigroup.in_lattice``, L(K) is the even-sum sublattice of Z^K,
    rank |K|, when K has an odd cycle, and the hyperplane x(A) = x(B),
    rank |K| - 1, when K is bipartite with sides A and B; an isolated v
    is that case with A = {v}, B empty, and L(K) = 0.
    """
    on_facet = tuple(_on_facet_edges(g, normal))
    validated = lattice_rank(Graph(g.vertices, on_facet)) == g.n_vertices - 1
    return Facet(kind, verts, normal, on_facet, validated)


def fundamental_masks(g: Graph) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """(sorted T, mask of T, mask of N(T)) per ``fundamental_sets(g)``, kept by ``Cone.fundamental``."""
    return tuple((tuple(bits(m)), m, mask_neighbors(g, m)) for m in map(to_mask, fundamental_sets(g)))


def facet_candidates(g: Graph, regular: Iterable[int], fundamental: Sequence[tuple]) -> tuple[Facet, ...]:
    """The candidates of the vertices ``regular``, normal 1 at v, then of the sets T of
    ``fundamental_masks``, 1 on N(T) and -1 on T: the builder of ``facets`` and ``Cone.validated``."""
    d = g.n_vertices
    signs = [(VERTEX_KIND, (v,), 1 << v, 0) for v in regular] + [(FUNDAMENTAL_KIND, t, n, m) for t, m, n in fundamental]
    return tuple(_facet_from_normal(g, kind, verts, tuple((pos >> u & 1) - (neg >> u & 1) for u in range(1, d + 1)))
                 for kind, verts, pos, neg in signs)


def facets(g: Graph) -> tuple[Facet, ...]:
    """All supporting-hyperplane candidates of the edge cone, vertex kind
    first (ascending vertex) then fundamental kind (by size, then T).

    Needs a connected graph with an odd cycle and labels 1..d; raises
    UnsupportedGraphError otherwise.  No two normals are equal: T is
    independent, so it is exactly the set of -1 entries of its normal,
    and a vertex normal has no -1.
    """
    if not g.is_contiguous:
        raise ValueError("facet computation needs labels exactly 1..d")
    comps = mask_components(g, g.vertex_mask)
    if len(comps) != 1:
        raise UnsupportedGraphError("edge cone facet structure needs a connected graph")
    if comps[0][1] is not None:
        raise UnsupportedGraphError("edge cone facet structure needs at least one odd cycle")
    return facet_candidates(g, [v for v in g.vertices if is_regular_vertex(g, v)], fundamental_masks(g))


def generators_on_facet(g: Graph, f: Facet) -> list[Edge]:
    """Edges whose exponent vector lies on the facet hyperplane.

    Rejects facets that do not belong to this graph's cone (wrong
    dimension or an edge on the negative side).
    """
    if len(f.normal) != g.n_vertices or not g.is_contiguous:
        raise ValueError("facet dimension does not match the graph")
    return _on_facet_edges(g, f.normal)


def cone_dimension(g: Graph) -> int:
    """Rank of the edge vectors of a connected graph: d - 1 when it is
    bipartite, d otherwise, by the lemma of ``_facet_from_normal``."""
    if not g.is_contiguous:
        raise ValueError("cone dimension needs labels exactly 1..d")
    comps = mask_components(g, g.vertex_mask)
    if len(comps) != 1:
        raise UnsupportedGraphError("cone dimension needs a connected graph")
    return g.n_vertices - (comps[0][1] is not None)
