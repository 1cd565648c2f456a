"""Supporting hyperplanes and facets of the edge cone.

For a connected graph with at least one odd cycle the supporting
hyperplanes come in two shapes: coordinate hyperplanes x_v = 0 at
regular vertices, and hyperplanes sum_{T} x = sum_{N(T)} x attached to
fundamental independent sets T.  A candidate is a genuine facet exactly
when its on-hyperplane edge vectors span a rank d-1 sublattice; we keep
every candidate but flag the validated ones, and the rank comes from
fraction-free Gaussian elimination (``integer_rank``).  Cone membership
does not read the facets; ``semigroup.in_cone`` decides it by a flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .graph import (
    Edge,
    Graph,
    UnsupportedGraphError,
    VertexSet,
    bipartition,
    bits,
    contains_odd_cycle,
    delete_vertex,
    is_connected,
    mask_components,
    mask_neighbors,
    neighborhood,
    rho_vector,
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


@lru_cache(maxsize=256)
def regular_vertex_components(g: Graph, v: int) -> tuple[tuple[int, ...], ...] | None:
    """The components of G minus v, each a sorted tuple, ordered by
    smallest member, when v is regular; None otherwise.

    A vertex is regular when every component of G minus v has an odd
    cycle.  Cached per (graph, vertex), so G minus v is built and
    traversed once; the parity certificates and the HK criterion then
    read the components instead of rebuilding G minus v per query.
    """
    rest = delete_vertex(g, v)  # rejects a v outside G, as a bare mask would not
    comps = mask_components(rest, rest.vertex_mask)
    if not all(odd for _, odd in comps):
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


def fundamental_sets(g: Graph) -> list[VertexSet]:
    """All fundamental independent sets T, sorted by (size, sorted tuple).

    T qualifies when (a) T is independent, (b) the bipartite graph
    induced by T is connected, and (c) T together with N(G; T) covers V,
    or every component left over contains an odd cycle.  Exhaustive over
    independent sets, so guarded by ``MAX_VERTICES``: a larger graph
    raises UnsupportedGraphError (CLI exit code 3).
    """
    if g.n_vertices > MAX_VERTICES:
        raise UnsupportedGraphError(
            f"fundamental set enumeration limited to {MAX_VERTICES} vertices, graph has {g.n_vertices}"
        )
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
        if all(odd for _, odd in rest):
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
    the input, so the division by the previous pivot is exact."""
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


def _facet_from_normal(g: Graph, kind: str, verts: tuple[int, ...], normal: tuple[int, ...]) -> Facet:
    d = g.n_vertices
    on_facet = _on_facet_edges(g, normal)
    rows = [rho_vector(d, e) for e in on_facet]
    validated = bool(rows) and integer_rank(rows, d) == d - 1
    return Facet(kind, verts, normal, tuple(on_facet), validated)


@lru_cache(maxsize=128)
def facets(g: Graph) -> tuple[Facet, ...]:
    """All supporting-hyperplane candidates of the edge cone, vertex kind
    first (ascending vertex) then fundamental kind (by size, then T).

    Needs a connected graph with an odd cycle and labels 1..d; raises
    UnsupportedGraphError otherwise.  Duplicate normals are merged.
    """
    if not g.is_contiguous:
        raise ValueError("facet computation needs labels exactly 1..d")
    if not is_connected(g):
        raise UnsupportedGraphError("edge cone facet structure needs a connected graph")
    if not contains_odd_cycle(g):
        raise UnsupportedGraphError("edge cone facet structure needs at least one odd cycle")
    d = g.n_vertices
    out: list[Facet] = []
    seen: set[tuple[int, ...]] = set()
    for v in g.vertices:
        if not is_regular_vertex(g, v):
            continue
        normal = tuple(1 if u == v else 0 for u in range(1, d + 1))
        if normal in seen:
            continue
        seen.add(normal)
        out.append(_facet_from_normal(g, VERTEX_KIND, (v,), normal))
    for t in fundamental_sets(g):
        nset = neighborhood(g, t)
        normal = tuple(1 if u in nset else (-1 if u in t else 0) for u in range(1, d + 1))
        if normal in seen:
            continue
        seen.add(normal)
        out.append(_facet_from_normal(g, FUNDAMENTAL_KIND, tuple(sorted(t)), normal))
    return tuple(out)


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
    bipartite, d otherwise.  It is the rank of the edge lattice, which
    the lemma of ``semigroup.in_lattice`` gives as the hyperplane x(A) =
    x(B) for sides A and B, else the index-2 sublattice sum(x) even."""
    if not g.is_contiguous:
        raise ValueError("cone dimension needs labels exactly 1..d")
    if not is_connected(g):
        raise UnsupportedGraphError("cone dimension needs a connected graph")
    return g.n_vertices - (bipartition(g) is not None)
