"""Exact membership machinery for the edge semigroup of a graph.

Everything here is integer arithmetic on exponent vectors indexed by the
vertex labels 1..d.  The semigroup S is the set of nonnegative integer
sums of edge vectors rho(e); its saturation Sbar is the intersection of
the rational edge cone with the edge lattice.  Cone membership is one
integer max-flow (``in_cone``) and lattice membership a closed form
(``in_lattice``), for every connected graph.  Membership in S is decided
by exhaustive backtracking down to the zero vector, so a negative answer
is definitive.
"""

from __future__ import annotations

import struct
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import repeat
from operator import add, ge, mul, sub
from typing import NamedTuple

import numpy as np

from .cycles import ExceptionalPair, exceptional_pairs
from .facets import Facet, facet_candidates, fundamental_masks, generators_on_facet, regular_vertex_components
from .facets import facets  # not called here; the benchmark's tracer wraps semigroup.facets by name
from .graph import (
    Edge,
    Graph,
    UnsupportedGraphError,
    as_integer,
    bits,
    contains_odd_cycle,
    integer_vector,
    is_connected,
    mask_components,
    rho_vector,
    to_mask,
)

Vector = tuple[int, ...]
DEGREE_BOUND = 16  # default bound on the coordinate sum of gap elements


@dataclass(frozen=True)
class MembershipWitness:
    """Multiset of edges summing to a target vector."""

    multiplicities: tuple[tuple[Edge, int], ...]

    def total_edges(self) -> int:
        return sum(k for _, k in self.multiplicities)

    def vector_sum(self, d: int) -> Vector:
        acc = [0] * d
        for (i, j), k in self.multiplicities:
            acc[i - 1] += k
            acc[j - 1] += k
        return tuple(acc)


class ExclusionCertificate(NamedTuple):
    """Exact, bound-independent proof that a candidate is missing from
    the localization at the vertex facet of ``vertex``: the candidate
    vanishes there while ``component`` (a component of G minus vertex)
    has odd total weight.

    A named tuple, so one costs the gap stage a tuple, not an object with
    a ``__dict__``: immutable, picklable and truthy, and equal to the
    plain 3-tuple ``(vertex, component, candidate)`` of its fields."""

    vertex: int
    component: tuple[int, ...]
    candidate: Vector


def _require_full(g: Graph) -> int:
    if not g.is_contiguous:
        raise ValueError("semigroup operations need labels exactly 1..d")
    return g.n_vertices


def _check_vector(g: Graph, x) -> Vector:
    return integer_vector(x, _require_full(g))


class _EdgeSumSearch:
    """Exact decision procedure for membership in the monoid generated by
    the edge vectors of a ``Graph`` on labels 1..d, with a failure memo.
    ``Cone.engine`` is the one instance the library builds.

    Search: a nonzero vector x is a sum of edge vectors only if some edge
    covers the lowest-labeled vertex v with x_v > 0, and that edge's
    other endpoint w has x_w > 0 too.  So x is a member iff x - rho(v, w)
    is one for some such edge; branching over those edges is complete,
    and it ends at the zero vector, the empty sum.

    Prune: at the root of each top-level ``decide`` (never inside the
    recursion) ``mask_components`` splits the positive-support subgraph
    into components; a component with odd total demand, or an isolated
    vertex with demand, proves non-membership, since every edge stays
    inside one component.  The components depend only on the edge set
    and the support pattern of x, so ``support`` caches them per pattern
    for the engine's lifetime: None when a support vertex is isolated,
    else the 0-based index groups whose sums must be even.  There are
    few patterns (84 among 245k candidates of the largest d=10 theorem
    graph), and the engine's edges never change, so an entry is valid
    across calls.  Root rejections are not memoized.  Inner nodes that
    fail go into ``failed``; a failed vector is a non-member for good,
    so the memo stays valid across calls.
    """

    __slots__ = ("graph", "d", "incident", "failed", "support")

    def __init__(self, g: Graph):
        self.graph = g
        self.d = d = _require_full(g)
        incident: dict[int, list[tuple[int, Edge]]] = {v: [] for v in range(1, d + 1)}
        for e in g.edges:
            i, j = e
            incident[i].append((j, e))
            incident[j].append((i, e))
        self.incident = {v: tuple(sorted(lst)) for v, lst in incident.items()}
        self.failed: set[Vector] = set()
        self.support: dict[tuple[bool, ...], tuple[tuple[int, ...], ...] | None] = {}

    def _prune(self, x: Vector) -> bool:
        """False when a parity or isolation obstruction rules x out."""
        pattern = tuple(map(bool, x))
        groups = self.support.get(pattern, False)
        if groups is False:
            groups = self.support[pattern] = self._support_groups(pattern)
        return groups is not None and not any(sum(map(x.__getitem__, grp)) % 2 for grp in groups)

    def _support_groups(self, pattern: tuple[bool, ...]) -> tuple[tuple[int, ...], ...] | None:
        """0-based index groups of the components of the subgraph induced
        on the support, or None when a support vertex has no neighbour in it."""
        support = to_mask(v for v, on in enumerate(pattern, 1) if on)
        groups = []
        for comp, _ in mask_components(self.graph, support):
            if not comp & (comp - 1):  # a single vertex
                return None
            groups.append(tuple(v - 1 for v in bits(comp)))
        return tuple(groups)

    def decide(self, x: Vector) -> bool:
        """Membership of x; the prune runs here, once, then the search.

        x must be nonnegative; this is not checked.  ``in_S`` checks signs
        first, and gap candidates are sums of nonnegative vectors.
        """
        return self._prune(x) and self._search(x, sum(x))

    def _search(self, x: Vector, deg: int) -> bool:
        """Membership of a nonnegative x of degree deg, without the prune."""
        if not deg:
            return True
        if x in self.failed:
            return False
        v = next(u for u in range(self.d) if x[u] > 0) + 1
        for w, e in self.incident[v]:
            if x[w - 1] <= 0:
                continue
            child = list(x)
            child[e[0] - 1] -= 1
            child[e[1] - 1] -= 1
            if self._search(tuple(child), deg - 2):
                return True
        self.failed.add(x)
        return False

    def witness(self, x: Vector) -> MembershipWitness | None:
        """Edge multiset summing to x, or None when x is not a member."""
        if sum(x) % 2 == 1 or not self.decide(x):
            return None
        out: list[Edge] = []
        cur = list(x)
        deg = sum(x)
        while deg:
            v = next(u for u in range(self.d) if cur[u] > 0) + 1
            for w, e in self.incident[v]:
                if cur[w - 1] <= 0:
                    continue
                cur[e[0] - 1] -= 1
                cur[e[1] - 1] -= 1
                if self._search(tuple(cur), deg - 2):
                    out.append(e)
                    deg -= 2
                    break
                cur[e[0] - 1] += 1
                cur[e[1] - 1] += 1
            else:  # pragma: no cover - decide() promised a branch
                raise AssertionError("witness reconstruction lost the trail")
        return MembershipWitness(tuple(sorted(Counter(out).items())))


def in_lattice(g: Graph, x) -> bool:
    """Membership of an integer vector (signs allowed) in the lattice L
    generated by the edge vectors of a connected graph G.

    Lemma: x is in L iff sum(x) is even when G has an odd cycle, and
    iff x(A) = x(B) when G is bipartite with sides A and B.

    Proof.  Each edge vector has sum 2 and one unit on each side, so L
    meets both conditions.  Conversely, the alternating sum of the edge
    vectors along a walk of length k from u to w is e_u + (-1)^(k-1) e_w,
    so e_u - e_w is in L when an even u-w walk exists.  Bipartite: two
    vertices on one side are joined by an even path, so moving mass
    within each side reduces x to x(A) e_a + x(B) e_b for an edge ab, a
    multiple of rho(ab) when x(A) = x(B).  Odd cycle: a detour round the
    cycle makes some u-w walk even for all u, w, so x reduces to
    sum(x) e_u, and 2 e_u = rho(uw) + (e_u - e_w) for a neighbour w.
    (Grossman, Kulkarni and Schochetman, Linear Algebra Appl. 218, 1995.)
    The sides are read off ``cone(g).lattice``, built once per graph.
    """
    vec = _check_vector(g, x)
    groups = cone(g).lattice
    if len(groups) != 1:
        raise UnsupportedGraphError("lattice membership implemented for connected graphs")
    return not any(_lattice_class(groups, vec))


def _lattice_groups(h: Graph) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """Coordinates of Z^d / L(h), h on labels 1..d, by the lemma of
    ``in_lattice`` per component K: 0-based (A, B, 0) when K is bipartite
    with sides A and B (A = K for an isolated vertex), (K, (), 2) when K
    has an odd cycle."""
    out = []
    for comp, even in mask_components(h, h.vertex_mask):
        plus, minus, mod = (comp, 0, 2) if even is None else (even, comp & ~even, 0)
        out.append((tuple(v - 1 for v in bits(plus)), tuple(v - 1 for v in bits(minus)), mod))
    return tuple(out)


def _lattice_class(groups, x: Vector) -> tuple[int, ...]:
    """The class of x in Z^d / L(h), zero iff x is in L(h), for ``groups``
    = ``_lattice_groups(h)``."""
    out = []
    for plus, minus, mod in groups:
        val = sum(x[i] for i in plus) - sum(x[i] for i in minus)
        out.append(val % mod if mod else val)
    return tuple(out)


class _FacetQuotient:
    """The quotient Z^d / L(H_F) at one facet F, H_F its on-facet edges
    on all d vertices, and the classes that sums of off-facet edges reach.

    One coordinate per component of H_F, by ``_lattice_groups(H_F)``.
    ``levels[k]`` maps each class that off-facet edges of total ell-weight
    k reach to a back-pointer (class at ell-weight k - ell(rho(e)), e),
    None at k = 0; it grows on demand, up to the largest ell-weight asked.
    """

    __slots__ = ("graph", "normal", "groups", "mods", "steps", "levels")

    def __init__(self, g: Graph, f: Facet):
        self.graph = h = Graph(g.vertices, tuple(generators_on_facet(g, f)))
        self.normal = f.normal
        self.groups = groups = _lattice_groups(h)
        self.mods = tuple(mod for _, _, mod in groups)
        on_facet = set(h.edges)
        steps: dict[tuple[int, tuple[int, ...]], Edge] = {}  # one edge per (ell-weight, image)
        for e in g.edges:
            if e not in on_facet:
                r = rho_vector(g.n_vertices, e)
                steps.setdefault((self.weight(r), self.image(r)), e)
        self.steps = sorted((c, img, e) for (c, img), e in steps.items())
        self.levels: list[dict] = [{(0,) * len(groups): None}]

    def weight(self, x: Vector) -> int:
        """ell(x), the facet's normal applied to x."""
        return sum(map(mul, self.normal, x))

    def image(self, x: Vector) -> tuple[int, ...]:
        """q(x), the class of x in Z^d / L(H_F)."""
        return _lattice_class(self.groups, x)

    def reaches(self, cls: tuple[int, ...], weight: int) -> bool:
        """Whether off-facet edges of total ell-weight ``weight`` reach the
        class ``cls``: for cls = q(x) and weight = ell(x), whether some
        w >= 0 has x - sum w_e rho(e) in L(H_F)."""
        if weight < 0:
            return False
        levels, mods = self.levels, self.mods
        while len(levels) <= weight:
            k, level = len(levels), {}
            for c, img, e in self.steps:
                if c > k:
                    break
                for prev in levels[k - c]:
                    nxt = tuple((a + b) % m if m else a + b for a, b, m in zip(prev, img, mods))
                    if nxt not in level:
                        level[nxt] = (prev, e)
            levels.append(level)
        return cls in levels[weight]


def _max_flow(arcs: list[tuple[int, int, int]], source: int, sink: int) -> int:
    """Maximum flow value over integer-capacity arcs (tail, head, capacity)
    by shortest augmenting paths (Edmonds and Karp, J. ACM 19, 1972): the
    augmentations are bounded by the network size, not the capacities."""
    residual: dict[int, dict[int, int]] = {}
    for a, b, cap in arcs:
        residual.setdefault(a, {})[b] = cap
        residual.setdefault(b, {}).setdefault(a, 0)
    flow = 0
    while True:
        parent = {source: source}
        queue = [source]
        for a in queue:
            for b, cap in residual[a].items():
                if cap and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if sink not in parent:
            return flow
        path = [sink]
        while path[-1] != source:
            path.append(parent[path[-1]])
        steps = list(zip(path[1:], path))
        push = min(residual[a][b] for a, b in steps)
        for a, b in steps:
            residual[a][b] -= push
            residual[b][a] += push
        flow += push


def in_cone(g: Graph, x) -> bool:
    """Membership of x in the rational cone spanned by the edge vectors,
    by one integer max-flow on the bipartite double cover of G.

    Network: a source arc of capacity x_u into each vertex u, an arc of
    capacity x_v from each copy v' into the sink, and the arcs u -> v'
    and v -> u' for every edge uv, of capacity x_u and x_v, which no
    flow out of their tails can exceed.

    Lemma.  x is in the cone iff x >= 0 and the maximum flow is sum(x).
    Proof.  (=>) Given x = sum lambda_uv rho(uv) with lambda >= 0, put
    flow lambda_uv on both u -> v' and v -> u'.  Then u sends sum_v
    lambda_uv = x_u and v' receives x_v: every source and sink arc is
    full, a flow of value sum(x).  (<=) A flow f of value sum(x) fills
    every source and sink arc.  Put lambda_uv = (f(u -> v') + f(v ->
    u')) / 2 >= 0; at each u, sum_v lambda_uv is half of the flow out of
    u plus the flow into u', (x_u + x_u) / 2, so x = sum lambda_uv
    rho(uv).  The capacities are integers, so augmenting paths find the
    maximum exactly, and max-flow equals min-cut (Gale, Pacific J. Math.
    7, 1957, for this supply-demand form).
    """
    vec = _check_vector(g, x)
    if not is_connected(g):
        raise UnsupportedGraphError("cone membership implemented for connected graphs")
    if any(v < 0 for v in vec):
        return False
    d = len(vec)
    source, sink = 0, 2 * d + 1  # vertex u is node u, its copy u' is node d + u
    arcs = [(source, u, vec[u - 1]) for u in g.vertices]
    arcs += [(d + u, sink, vec[u - 1]) for u in g.vertices]
    arcs += [(a, d + b, vec[a - 1]) for e in g.edges for a, b in (e, e[::-1])]
    return _max_flow(arcs, source, sink) == sum(vec)


def in_sbar(g: Graph, x) -> bool:
    """Membership in the saturation: rational cone intersected with the
    edge lattice."""
    return in_cone(g, x) and in_lattice(g, x)


def in_S(g: Graph, x) -> MembershipWitness | None:
    """Exact membership of x in the edge semigroup, with a witness.

    x must be nonnegative.  An odd coordinate sum is immediately
    rejected; otherwise the exhaustive search settles the question, so a
    None answer is a proof of non-membership.  The edges of alpha + y for
    the y of ``serre.in_SF_bounded`` or ``serre.in_localization`` come
    from here; neither builds them.
    """
    vec = _check_vector(g, x)
    if any(v < 0 for v in vec):
        raise ValueError("semigroup members are nonnegative; got a negative coordinate")
    return cone(g).engine.witness(vec)


def normalization_generators(g: Graph) -> list[Vector]:
    """The vectors E_C + E_C' over exceptional pairs (C, C'), deduplicated
    and sorted; empty iff the odd cycle condition holds.  The pairs are
    ``cone(g).pairs``, so the gap stage reuses the scan of ``classify``."""
    d = _require_full(g)
    out: set[Vector] = set()
    for c1, c2 in cone(g).pairs:
        mem = set(c1) | set(c2)
        out.add(tuple(1 if v in mem else 0 for v in range(1, d + 1)))
    return sorted(out)


def _packing(d: int, degree_bound: int) -> struct.Struct:
    """The packed form of a vector y in N^d of degree <= degree_bound, one
    Python int: the big-endian fields (sum(y), y_1, ..., y_d), each of the
    narrowest of 1, 2, 4 or 8 bytes that holds degree_bound.  Pack with
    ``_pack``, unpack with ``_unpack``.  No width holds a bound >= 2**64;
    ``check_degree_bound`` refuses one.

    Lemma.  If sum(a + b) <= degree_bound, pack(a) + pack(b) = pack(a + b),
    and packed ints compare as (degree, lex) order.  Proof.  Every field of
    a + b is at most sum(a + b), so it fits its width: adding the two ints
    adds field by field with no carry.  Big-endian fields of one fixed
    width compare numerically as the tuples (sum(y), y) compare.
    """
    code = next(c for c in "BHIQ" if degree_bound < 1 << 8 * struct.calcsize(">" + c))
    return struct.Struct(">" + code * (d + 1))


def _pack(fmt: struct.Struct, y: Vector) -> int:
    return int.from_bytes(fmt.pack(sum(y), *y), "big")


def _unpack(fmt: struct.Struct, packed: list[int]) -> list[Vector]:
    """The vectors y of the packed ints, in order: their fixed-width bytes
    joined, read in one pass through ``fmt`` with the sum field as pad."""
    body = b"".join(map(int.to_bytes, packed, repeat(fmt.size), repeat("big")))
    return list(struct.iter_unpack(f">{struct.calcsize(fmt.format[:2])}x{fmt.format[2:]}", body))


def _edge_sum_levels(
    fmt: struct.Struct, d: int, edges: tuple[Edge, ...], max_degree: int
) -> list[dict[int, int]]:
    """levels[k] maps each distinct sum of exactly k edge vectors, k <=
    max_degree // 2, packed by ``fmt`` = ``_packing(d, b)`` for some b >=
    max_degree, to its support mask (bit v for label v, as in
    ``to_mask``).  A child is its base plus the packed edge vector: one
    int add, exact by the lemma of ``_packing``, as its degree is at most
    max_degree.

    Canonical rule: a base of level k-1 whose lowest positive vertex is m
    (m = d + 1 for the zero vector) gains only the edges (u, w), u < w,
    with u <= m.  The edges are sorted by u, so the scan stops at the
    first u > m.

    Lemma.  The rule yields exactly the sums of k edge vectors.  Proof.
    It only adds edge vectors, so it yields nothing else.  Take x in
    level k with lowest positive vertex m.  Some edge of a decomposition
    of x covers m; its other endpoint w has x_w > 0, so w > m.  Then
    x - rho(m, w) is in level k-1, and its lowest positive vertex is
    >= m, so the rule adds (m, w) to it and reaches x.
    """
    levels: list[dict[int, int]] = [{0: 0}]
    steps = [(u, _pack(fmt, rho_vector(d, (u, w))), 1 << u | 1 << w) for u, w in sorted(edges)]
    for _ in range(max_degree // 2):
        level: dict[int, int] = {}
        for base, supp in levels[-1].items():
            m = (supp & -supp).bit_length() - 1 if supp else d + 1
            for u, edge, edge_mask in steps:
                if u > m:
                    break
                level[base + edge] = supp | edge_mask
        levels.append(level)
    return levels


class Cone:
    """The only store of data derived from a graph outside the ``Graph``
    itself, each member built on first use; ``cone(g)`` keeps only the last
    graph's object.  ``pairs``: ``exceptional_pairs(g)``, one scan for the
    cycles, HK and gap stages.  ``regular``: the one per-vertex store, per
    regular vertex v, ascending, the components of
    ``regular_vertex_components(g, v)``, each with its 0-based index
    tuple; its keys are exactly the validated vertex facets, by the lemma
    of ``facets._facet_from_normal``, as v is the one bipartite component
    of the on-facet graph.  ``fundamental``: ``fundamental_masks(g)``, read
    by the HK check.  ``lattice``: ``_lattice_groups(g)``, read by
    ``in_lattice``.  ``validated``: the validated facets of ``facets(g)``,
    from ``facet_candidates`` on ``regular`` and ``fundamental``.
    ``engine``: the library's one ``_EdgeSumSearch(g)``, for ``in_S`` and
    every step of ``_gap_formula``.  ``quotient(f)``: the ``_FacetQuotient``
    of ``serre.in_localization``, built once per facet.  ``certified``:
    each gap element alpha with C(alpha) nonempty that ``_gap_formula`` has
    listed, mapped to its ``ExclusionCertificate``: the lowest vertex v of
    C(alpha) and the first component of G minus v of odd alpha-weight, in
    ``regular[v]`` order, both facts of alpha alone (Lemma 1 there), with
    alpha itself, the very tuple of the gap list, as the candidate.
    ``classify`` reads it instead of scanning ``certifying``, and
    ``serre.vertex_parity_certificate`` hands it back for that tuple.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._quotients: dict[Facet, _FacetQuotient] = {}
        self.certified: dict[Vector, ExclusionCertificate] = {}

    @cached_property
    def pairs(self) -> tuple[ExceptionalPair, ...]:
        return exceptional_pairs(self.graph)

    @cached_property
    def regular(self) -> dict[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]]:
        rows = ((v, regular_vertex_components(self.graph, v)) for v in self.graph.vertices)
        return {v: tuple((comp, tuple(u - 1 for u in comp)) for comp in comps)
                for v, comps in rows if comps is not None}

    @cached_property
    def lattice(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
        return _lattice_groups(self.graph)

    @cached_property
    def fundamental(self) -> tuple[tuple[tuple[int, ...], int, int], ...]:
        return fundamental_masks(self.graph)

    @cached_property
    def validated(self) -> tuple[Facet, ...]:
        return tuple(f for f in facet_candidates(self.graph, self.regular, self.fundamental) if f.validated)

    @cached_property
    def engine(self) -> _EdgeSumSearch:
        return _EdgeSumSearch(self.graph)

    def odd_component(self, v: int, x: Vector) -> tuple[int, ...] | None:
        """The first component of G minus v (v regular) of odd x-weight, or None."""
        return next((comp for comp, idx in self.regular[v] if sum(map(x.__getitem__, idx)) % 2), None)

    def certifying(self, x: Vector) -> Iterator[int]:
        """C(x), ascending: the regular v with x_v = 0 and a component of G
        minus v of odd x-weight, sound by ``serre.vertex_parity_certificate``."""
        return (v for v in self.regular if not x[v - 1] and self.odd_component(v, x) is not None)

    def quotient(self, f: Facet) -> _FacetQuotient:
        if f not in self._quotients:
            self._quotients[f] = _FacetQuotient(self.graph, f)
        return self._quotients[f]


@lru_cache(maxsize=1)
def cone(g: Graph) -> Cone:
    """The ``Cone`` of g; only the last graph's is kept."""
    return Cone(g)


def _module_generators(engine: _EdgeSumSearch, gens: list[Vector], degree_bound: int) -> list[Vector]:
    """Step A of ``_gap_formula``: close ``gens`` under adding a generator,
    to degree <= degree_bound, keeping y only when it is neither in S nor
    in m + S for an m kept before, as ``engine`` decides."""
    module: list[Vector] = []
    seen, frontier = set(gens), sorted(gens, key=sum)
    while frontier:
        grown: set[Vector] = set()
        for y in frontier:
            if engine.decide(y) or any(
                all(map(ge, y, m)) and engine.decide(tuple(map(sub, y, m))) for m in module
            ):
                continue
            module.append(y)
            for z in (tuple(map(add, y, gen)) for gen in gens):
                if sum(z) <= degree_bound and z not in seen:
                    seen.add(z)
                    grown.add(z)
        frontier = sorted(grown, key=sum)
    return module


def _open_covers(engine: _EdgeSumSearch, x: Vector, cover: int, degree_bound: int) -> list[Vector]:
    """Step C of ``_gap_formula`` for x with C(x) = ``cover``: depth-first,
    the lowest vertex of C(x) that no chosen edge meets branches over its
    edges; each final vector of degree <= degree_bound is decided once, and
    those outside S are returned, in the order found.  With C(x) empty the
    only cover is x itself."""
    member: dict[Vector, bool] = {}

    def grow(vec: Vector, left: int, deg: int) -> None:
        if deg > degree_bound:
            return
        if not left:
            if vec not in member:
                member[vec] = engine.decide(vec)
            return
        v = (left & -left).bit_length() - 1
        for w, (i, j) in engine.incident[v]:
            child = list(vec)
            child[i - 1] += 1
            child[j - 1] += 1
            grow(tuple(child), left & ~(1 << v | 1 << w), deg + 2)

    grow(x, cover, sum(x))
    return [vec for vec, yes in member.items() if not yes]


def _proven_gap(
    g: Graph, fmt: struct.Struct, module: list[Vector], covers: list[int], degree_bound: int
) -> dict[int, tuple[int, tuple[int, ...]]]:
    """The certified gap by Lemma 2 of ``_gap_formula``, packed by ``fmt``
    = ``_packing(d, degree_bound)``, each element mapped to (v, K): v the
    lowest vertex of its C and K the first component of G minus v, in
    ``Cone.regular[v]`` order, of odd weight.  For each v, ascending, and
    each x in M with v in C(x) = ``covers``: K is found once, from x, and
    holds for every x + beta formed there (Lemma 1), beta over the edge
    sums of G minus v of degree <= b - deg(x) that are positive on C(x)
    below v: every sum of a level when C(x) has no vertex below v, so that
    level is added unfiltered.  Each x + beta is one int add, exact by the
    lemma of ``_packing`` as its degree is <= b.  The levels of G minus v
    are built once, for every x that uses v."""
    users: dict[int, list[int]] = {}  # v -> the i with v in C(module[i])
    for i, cover in enumerate(covers):
        for v in bits(cover):
            users.setdefault(v, []).append(i)
    found: dict[int, tuple[int, tuple[int, ...]]] = {}
    for v in sorted(users):
        edges = tuple(e for e in g.edges if v not in e)
        levels = _edge_sum_levels(fmt, g.n_vertices, edges, degree_bound - min(sum(module[i]) for i in users[v]))
        for i in users[v]:
            x, below = module[i], covers[i] & ((1 << v) - 1)
            packed = _pack(fmt, x)
            site = v, cone(g).odd_component(v, x)
            for level in levels[:(degree_bound - sum(x)) // 2 + 1]:
                betas = [beta for beta, supp in level.items() if supp & below == below] if below else level
                found.update(zip(map(packed.__add__, betas), repeat(site)))
    return found


def _gap_formula(g: Graph, degree_bound: int) -> list[Vector]:
    """Formula route: the gap of degree <= b = degree_bound, read off
    Lemma 2 per module generator x, and grown from Step C's failed covers
    where it leaves x open.

    Gamma: the ``normalization_generators`` of degree <= b, so Sbar =
    S + sum N.gamma (Ohsugi and Hibi, J. Algebra 207, 1998).  C(x): the
    regular v with x_v = 0 and a component of G minus v of odd x-weight
    (``Cone.certifying``).

    Step A.  M = ``_module_generators``.  Each alpha in Sbar of degree
    <= b is in S or M + S: in alpha = s + gamma_1 + ... + gamma_r each
    partial sum is in S or m + S, by induction, as gamma and each m +
    gamma were kept in M, or found in S or in m' + S.  So x + beta, x in
    M, beta in S of degree <= b - deg(x), covers the gap.
    Step C (``_open_covers``): choosing an edge at each vertex of C(x)
    that no chosen edge meets yet gives a cover x + sum_E rho(e); with
    C(x) empty, x is its only cover.  A cover of degree <= b outside S
    has *failed*, and x is *open* when one has.

    Lemma 1.  For any x >= 0 and beta in S, C(x + beta) = C(x) minus
    supp(beta), and at each v in C(x + beta) the components of G minus v
    of odd weight, so also the first in any fixed order, are the same for
    x + beta as for x; the certified part stores that first one.  Proof.
    If beta_v > 0 then (x + beta)_v > 0.  If beta_v = 0, no edge of a
    decomposition of beta meets v, so each lies inside one component of
    G minus v and adds 2 to its weight: every component keeps its parity.

    Lemma 2, for one x in M and beta in S.  (i) If beta_v = 0 for some v
    in C(x), x + beta keeps an odd component of G minus v (Lemma 1): it is
    in the gap, and v certifies it (``serre.vertex_parity_certificate``).
    (ii) Seeds.  If beta is positive on C(x), Step C can pick distinct
    edges E of one decomposition of beta that cover C(x), so x + beta =
    (x + sum_E rho(e)) + beta' with beta' in S, and that cover has degree
    <= deg(x + beta).  If x + beta is not in S, the cover failed.
    (iii) Growth.  If y and y + rho(e_1) + ... +
    rho(e_k) are not in S, no partial sum is in S, as adding the remaining
    edges to a member gives a member.  So the non-members of y + S of
    degree <= b are reached from y one edge at a time.

    Certified part (``_proven_gap``), for every x with C(x) nonempty.
    beta in S with beta_v = 0 is exactly an edge sum of G minus v, the
    semigroup S cap F_v of v's vertex facet.  Split (i) by the lowest v
    in C(x) where beta vanishes: the pieces are disjoint, and by Lemma 1
    v is the lowest vertex of C(x + beta), whichever x reaches it, and the
    first odd component of G minus v is the same for x + beta as for x, so
    it is found once per (v, x).  Both go into ``Cone.certified`` as the
    ``ExclusionCertificate`` of x + beta, the one that
    ``serre.vertex_parity_certificate`` builds at v.  Open part: the failed
    covers of every x, deduplicated, are the first frontier.  Each round
    adds every edge vector to each frontier element of degree < b, and a
    new vector that ``Cone.engine`` finds outside S joins the gap and the
    next frontier; ``seen`` decides each vector once.  By (ii) and (iii) this reaches
    every gap element x + beta with beta positive on C(x), and only gap
    elements.  Each is positive on C(x), so its C is empty (Lemma 1): the
    open part is exactly the uncertified gap, disjoint from the certified
    part, and ``Cone.certified`` holds exactly the gap elements with C
    nonempty.  S' = S is the (S2) criterion (Trung and Hoa, Trans. AMS
    298, 1986).
    """
    gens = [x for x in normalization_generators(g) if sum(x) <= degree_bound]
    if not gens:
        return []
    c, fmt = cone(g), _packing(g.n_vertices, degree_bound)
    module = _module_generators(c.engine, gens, degree_bound)
    covers = [to_mask(c.certifying(x)) for x in module]
    found = _proven_gap(g, fmt, module, covers, degree_bound)
    packed = list(found)
    frontier = list(dict.fromkeys(
        y for x, cover in zip(module, covers) for y in _open_covers(c.engine, x, cover, degree_bound)))
    seen, steps = set(frontier), [rho_vector(g.n_vertices, e) for e in g.edges]
    while frontier:
        packed += (_pack(fmt, y) for y in frontier)
        grown = {tuple(map(add, y, r)) for y in frontier if sum(y) < degree_bound for r in steps} - seen
        seen |= grown
        frontier = [z for z in grown if not c.engine.decide(z)]
    packed.sort()
    gap = _unpack(fmt, packed)
    c.certified.update(  # tuple.__new__: the record without the Python-level __new__ of a named tuple
        (y, tuple.__new__(ExclusionCertificate, (*site, y)))
        for y, site in zip(gap, map(found.get, packed)) if site is not None)
    return gap


def _nonnegative_vectors(d: int, bound: int) -> list[Vector]:
    out: list[Vector] = []
    cur = [0] * d

    def rec(idx: int, left: int) -> None:
        if idx == d:
            out.append(tuple(cur))
            return
        for val in range(left + 1):
            cur[idx] = val
            rec(idx + 1, left - val)
        cur[idx] = 0

    rec(0, bound)
    return out


def _gap_direct(g: Graph, degree_bound: int) -> list[Vector]:
    """Bulk filter, the oracle of acceptance criterion 3 and the tests for
    ``gap_elements``: each nonnegative vector of degree <= degree_bound
    through the validated facet inequalities, the sum parity and ``decide``.
    Kept in src as the only numpy user: the benchmark reads ``import.numpy.
    ms``, and ``perfbench/tests/test_smoke.py`` fails if edgering loads no numpy."""
    vecs = np.array(_nonnegative_vectors(g.n_vertices, degree_bound), dtype=np.int64)
    normals = np.array([f.normal for f in cone(g).validated], dtype=np.int64)
    sbar = vecs[(vecs @ normals.T >= 0).all(axis=1) & (vecs.sum(axis=1) % 2 == 0)]
    engine = cone(g).engine
    gap = [alpha for alpha in map(tuple, sbar.tolist()) if not engine.decide(alpha)]
    return sorted(gap, key=lambda v: (sum(v), v))


def check_degree_bound(degree_bound) -> int:
    """degree_bound as an int; ValueError unless it is positive, even and
    below 2**64, as no field width of ``_packing`` holds a larger one."""
    degree_bound = as_integer(degree_bound, "degree bound")
    if degree_bound <= 0 or degree_bound % 2 == 1:
        raise ValueError(f"degree bound must be a positive even integer, got {degree_bound}")
    if degree_bound >= 2**64:
        raise ValueError(f"degree bound must be below 2**64, the widest packed field, got {degree_bound}")
    return degree_bound


def gap_elements(g: Graph, degree_bound: int = DEGREE_BOUND) -> list[Vector]:
    """All members of Sbar minus S with coordinate sum <= degree_bound,
    by the one route, ``_gap_formula``.

    Args:
        g: connected graph with an odd cycle, labels 1..d.
        degree_bound: positive even bound on the coordinate sum, below
            2**64 (``check_degree_bound``).

    Returns:
        Sorted list of gap vectors (by coordinate sum, then lex).
    """
    _require_full(g)
    if not is_connected(g):
        raise UnsupportedGraphError("gap enumeration needs a connected graph")
    if not contains_odd_cycle(g):
        raise UnsupportedGraphError("gap enumeration needs at least one odd cycle")
    return _gap_formula(g, check_degree_bound(degree_bound))
