"""Two-clique families glued at a hub vertex, and the edge removal
schedules that thin them down while keeping one exceptional pair alive.

The base graph for parameters 3 <= a <= b has d = a + b + 1 vertices:
a complete graph on the u-side vertices plus the hub, and a complete
graph on the hub plus the v-side vertices.  Labels are fixed as
u_i -> i, hub w -> a + 1, v_j -> a + 1 + j.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graph import Edge, Graph, as_integer

# sanity bound matching the rest of the package; schedules stay small
_MAX_SIDE = 32


@dataclass(frozen=True, eq=False)
class FamilyGraph:
    """A family member; its role labeling is the module's, read off (a, b)."""

    graph: Graph
    a: int
    b: int

    @property
    def w(self) -> int:
        return self.a + 1

    def u(self, i: int) -> int:
        i = as_integer(i, "u-side index")
        if not 1 <= i <= self.a:
            raise ValueError(f"u-side index {i} outside 1..{self.a}")
        return i

    def v(self, j: int) -> int:
        j = as_integer(j, "v-side index")
        if not 1 <= j <= self.b:
            raise ValueError(f"v-side index {j} outside 1..{self.b}")
        return self.a + 1 + j

    @property
    def u_side(self) -> tuple[int, ...]:
        return tuple(range(1, self.a + 1))

    @property
    def v_side(self) -> tuple[int, ...]:
        return tuple(range(self.w + 1, self.w + self.b + 1))

    @property
    def labels(self) -> dict[str, int]:
        names = [f"u{i}" for i in range(1, self.a + 1)] + ["w"] + [f"v{j}" for j in range(1, self.b + 1)]
        return dict(zip(names, range(1, self.a + self.b + 2)))


def _check_ab(a: int, b: int) -> tuple[int, int]:
    """(a, b) as ints (``as_integer``), checked against 3 <= a <= b <= 32."""
    a, b = as_integer(a, "side size a"), as_integer(b, "side size b")
    if not (3 <= a <= b):
        raise ValueError(f"family needs 3 <= a <= b, got a={a}, b={b}")
    if b > _MAX_SIDE:
        raise ValueError(f"side size {b} beyond supported range")
    return a, b


def max_family_edges(a: int, b: int) -> int:
    return (a + 1) * a // 2 + (b + 1) * b // 2


def build_gab(a: int, b: int) -> FamilyGraph:
    """The full two-clique family member for 3 <= a <= b."""
    a, b = _check_ab(a, b)
    d = a + b + 1
    cliques = (range(1, a + 2), range(a + 1, d + 1))  # u-side + hub, hub + v-side
    pairs = [e for clique in cliques for e in itertools.combinations(clique, 2)]
    return FamilyGraph(Graph.from_edge_list(d, pairs), a, b)


def _phase(hub: int, side: list[int]) -> list[Edge]:
    # side[k] is the label of the k-th side vertex (1-based role index k+1)
    n = len(side)
    out: list[Edge] = []
    for i in range(1, n - 2):
        out.append(_edge(hub, side[i - 1]))
        for j in range(i + 1, n):
            out.append(_edge(side[i - 1], side[j - 1]))
    out.append(_edge(hub, side[n - 3]))
    out.append(_edge(hub, side[n - 2]))
    return out


def _edge(i: int, j: int) -> Edge:
    return (i, j) if i < j else (j, i)


def removal_schedule(a: int, b: int) -> tuple[Edge, ...]:
    """The canonical thinning order, as a tuple of edges: for i = 1..a-3
    drop the hub edge to u_i and then the edges u_i u_j for j = i+1..a-1,
    finishing with the hub edges to u_{a-2} and u_{a-1} (the u-phase);
    then the same pattern on the v-side (the v-phase).  Edges u_i u_a are
    never removed, so each side stays connected through its last vertex.
    """
    a, b = _check_ab(a, b)
    sched = tuple(_phase(a + 1, list(range(1, a + 1))) + _phase(a + 1, list(range(a + 2, a + b + 2))))
    expected = max_family_edges(a, b) - (a + b + 2)
    if len(sched) != expected:  # pragma: no cover - structural self-check
        raise AssertionError(f"schedule length {len(sched)} != {expected}")
    return sched


def family_graph(a: int, b: int, n: int) -> FamilyGraph:
    """The family member with exactly n edges: the full graph minus the
    first (max - n) scheduled removals.  Valid for d+1 <= n <= max."""
    a, b = _check_ab(a, b)
    n = as_integer(n, "edge count n")
    d = a + b + 1
    full = max_family_edges(a, b)
    if not (d + 1 <= n <= full):
        raise ValueError(
            f"edge count n={n} outside the valid interval [{d + 1}, {full}] for (a, b)=({a}, {b})"
        )
    fam = build_gab(a, b)
    removed = set(removal_schedule(a, b)[: full - n])
    pairs = [e for e in fam.graph.edges if e not in removed]
    return FamilyGraph(Graph.from_edge_list(d, pairs), a, b)


def max_theorem_edges(d: int) -> int:
    return (d * d - 7 * d + 24) // 2


def theorem_edge_range(d: int) -> range:
    """Valid edge counts for the main construction at dimension d."""
    d = as_integer(d, "dimension d")
    if d < 7:
        raise ValueError(f"main construction needs d >= 7, got {d}")
    return range(d + 1, max_theorem_edges(d) + 1)


def graph_for_theorem(d: int, n: int) -> FamilyGraph:
    """The (a, b) = (3, d-4) family member with n edges; this realizes
    every edge count in [d+1, (d^2-7d+24)/2]."""
    d, n = as_integer(d, "dimension d"), as_integer(n, "edge count n")
    valid = theorem_edge_range(d)
    if n not in valid:
        raise ValueError(
            f"edge count n={n} outside the valid interval [{valid.start}, {valid.stop - 1}] for d={d}"
        )
    return family_graph(3, d - 4, n)


def add_cross_edges(fam: FamilyGraph, extra) -> Graph:
    """The full family graph plus the given u-side/v-side cross edges.

    ``fam`` must be the unmodified full member; each extra pair must
    join a u-side vertex to a v-side vertex, without repetition.
    """
    if fam.graph.n_edges != max_family_edges(fam.a, fam.b):
        raise ValueError("cross edges are only added to the full family graph")
    cross, new_edges = set(cross_pairs(fam)), list(fam.graph.edges)
    for pair in extra:
        i, j = pair
        e = _edge(i, j)
        if e not in cross:
            raise ValueError(f"{pair} is not a u-side/v-side cross pair")
        if e in new_edges:  # no cross pair is an edge of the full member
            raise ValueError(f"duplicate cross edge {e}")
        new_edges.append(e)
    return Graph.from_edge_list(fam.graph.n_vertices, new_edges)


def cross_pairs(fam: FamilyGraph) -> list[Edge]:
    """All a*b possible cross edges, sorted."""
    return sorted(_edge(i, j) for i in fam.u_side for j in fam.v_side)


def cross_edge_generators(fam: FamilyGraph) -> list[dict[int, int]]:
    """Generators of Sym(u-side) x Sym(v-side), and of the side swap
    u_i <-> v_i when a = b, as maps of every vertex: the adjacent
    transpositions of each side, then the swap.  Each fixes the hub."""
    fixed = {v: v for v in fam.graph.vertices}
    gens = [
        {**fixed, side[i]: side[i + 1], side[i + 1]: side[i]}
        for side in (fam.u_side, fam.v_side)
        for i in range(len(side) - 1)
    ]
    if fam.a == fam.b:
        gens.append({**fixed, **dict(zip(fam.u_side + fam.v_side, fam.v_side + fam.u_side))})
    return gens


def cross_edge_orbits(fam: FamilyGraph, max_extra: int) -> list[int]:
    """For the cross-edge subsets S in ``itertools.combinations(
    cross_pairs(fam), k)`` order, k = 1..max_extra, the index of each
    subset's orbit representative: the lowest index in its orbit under the
    group of ``cross_edge_generators``.  The orbits are the connected
    components of the graph joining each subset to its image under each
    generator, so no canonical form is needed.

    Lemma: ``verdict`` and ``exhaustive`` of ``classify`` are the same
    for every S of one orbit.  Each generator s is an automorphism of the
    full member G that maps cross pairs to cross pairs, so s is an
    isomorphism G + S -> G + s(S), acting on Z^d by permuting coordinates;
    it keeps degrees, cycles, facets and vertex neighbourhoods.  Stage by
    stage, with the bounds fixed:
      - Normal iff no exceptional pair, a property of the isomorphism
        class.
      - ``hk_not_s2`` returns a witness iff some pair of cycles passes a
        combinatorial criterion, so s maps a witness to a witness.
      - The gap elements up to the degree bound are permuted by s, not
        changed; an empty gap (Unknown) stays empty.
      - A vertex-parity certificate exists for alpha at v iff one exists
        for s(alpha) at s(v).
      - ``in_SF_bounded`` answers exactly whether alpha is in S - (S cap
        F), and s maps S and S cap F onto S and S cap s(F), so a YES for
        (F, alpha) is a YES for (s(F), s(alpha)).
      - NotS2 iff some uncertified alpha has a YES at every validated
        facet; S2Verified with ``exhaustive`` iff every alpha is certified.
        Each is existential or universal over sets that s permutes.
      - Every G + S is connected with a triangle and has the same d, so
        no orbit member raises ``UnsupportedGraphError`` unless all do.
    """
    if fam.graph.n_edges != max_family_edges(fam.a, fam.b):
        raise ValueError("cross edge orbits are only taken on the full family graph")
    pairs = cross_pairs(fam)
    position = {e: p for p, e in enumerate(pairs)}
    moves = [tuple(position[_edge(s[i], s[j])] for i, j in pairs) for s in cross_edge_generators(fam)]
    subsets = [t for k in range(1, max_extra + 1) for t in itertools.combinations(range(len(pairs)), k)]
    index = {t: x for x, t in enumerate(subsets)}
    rep = [-1] * len(subsets)
    for x in range(len(subsets)):
        if rep[x] >= 0:
            continue
        rep[x] = x
        stack = [x]
        while stack:
            t = subsets[stack.pop()]
            for move in moves:
                y = index[tuple(sorted(move[p] for p in t))]
                if rep[y] < 0:
                    rep[y] = x
                    stack.append(y)
    return rep
