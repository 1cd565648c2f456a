"""Independent brute-force oracles and shared graph constructions for the
test suite.  These deliberately avoid the library's own algorithms where
they act as a second route: cycle enumeration here is plain DFS over all
simple cycles, and facet enumeration solves null spaces of generator
subsets with Fraction arithmetic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

from edgering.graph import Graph, contains_odd_cycle, is_connected

GOLDEN_NORMALITY = Path(__file__).parent / "golden" / "normality.json"


# -- corpus constructions ---------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph.from_edge_list(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def cycle_graph(n: int) -> Graph:
    pairs = [(i, i + 1) for i in range(1, n)] + [(1, n)]
    return Graph.from_edge_list(n, pairs)


def bowtie_graph() -> Graph:
    # two triangles sharing vertex 3
    return Graph.from_edge_list(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def c6_with_chords() -> Graph:
    # hexagon plus the two short chords (1,3) and (4,6)
    pairs = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6), (1, 3), (4, 6)]
    return Graph.from_edge_list(6, pairs)


def petersen_minus_vertex() -> Graph:
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(1, 6), (2, 7), (3, 8), (4, 9), (5, 10)]
    inner = [(6, 8), (8, 10), (7, 10), (7, 9), (6, 9)]
    pairs = [e for e in outer + spokes + inner if 10 not in e]
    return Graph.from_edge_list(9, pairs)


def two_pentagons_linked() -> Graph:
    """Two 5-cycles joined through a middle vertex; the pair of pentagons
    is exceptional and the smallest gap element has degree 10."""
    pent1 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    pent2 = [(6, 7), (7, 8), (8, 9), (9, 10), (6, 10)]
    link = [(5, 11), (6, 11)]
    return Graph.from_edge_list(11, pent1 + pent2 + link)


def random_connected_nonbipartite(rng: random.Random, dmin: int = 4, dmax: int = 8,
                                  p: float = 0.45) -> Graph:
    while True:
        d = rng.randint(dmin, dmax)
        pairs = [
            (i, j)
            for i in range(1, d + 1)
            for j in range(i + 1, d + 1)
            if rng.random() < p
        ]
        try:
            g = Graph.from_edge_list(d, pairs)
        except ValueError:
            continue
        if is_connected(g) and contains_odd_cycle(g):
            return g


# -- brute force odd cycle condition ----------------------------------


def all_simple_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple odd cycle (not just chordless), one canonical tuple
    per cycle: smallest vertex first, smaller neighbor second."""
    adj = g.adjacency
    out: set[tuple[int, ...]] = set()

    def walk(path: list[int], members: set[int]) -> None:
        s, last = path[0], path[-1]
        for nxt in adj[last]:
            if nxt == s and len(path) >= 3:
                if len(path) % 2 == 1 and path[1] < path[-1]:
                    out.add(tuple(path))
            elif nxt > s and nxt not in members:
                path.append(nxt)
                members.add(nxt)
                walk(path, members)
                path.pop()
                members.remove(nxt)

    for s in g.vertices:
        walk([s], {s})
    return sorted(out, key=lambda c: (len(c), c))


def odd_cycle_condition_bruteforce(g: Graph) -> bool:
    """Direct check over all simple odd cycles: every vertex-disjoint
    pair must be joined by at least one edge."""
    cycles = all_simple_odd_cycles(g)
    adj = g.adjacency
    for c1, c2 in itertools.combinations(cycles, 2):
        s1, s2 = set(c1), set(c2)
        if s1 & s2:
            continue
        if not any(v in adj[u] for u in s1 for v in s2):
            return False
    return True


# -- brute force facet enumeration ------------------------------------


def _null_vector(rows: list[tuple[int, ...]]) -> list[Fraction] | None:
    """A nonzero rational vector orthogonal to all rows, when the null
    space has dimension exactly one."""
    if not rows:
        return None
    d = len(rows[0])
    mat = [[Fraction(v) for v in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(d):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [v / mat[r][col] for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    if r != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    vec = [Fraction(0)] * d
    vec[free] = Fraction(1)
    for i, col in enumerate(pivots):
        vec[col] = -mat[i][free]
    return vec


def _primitive(vec: list[Fraction]) -> tuple[int, ...]:
    from math import gcd, lcm

    denoms = lcm(*[f.denominator for f in vec]) if len(vec) > 1 else vec[0].denominator
    ints = [int(f * denoms) for f in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return tuple(v // g for v in ints)


def facet_normals_bruteforce(g: Graph) -> set[tuple[int, ...]]:
    """All facet normals of the cone spanned by the edge vectors, found
    by solving every (d-1)-subset of generators for its hyperplane and
    keeping supporting ones with full contact rank.

    Exponential in the edge count; meant for small graphs only.
    """
    from edgering.linalg import integer_rank, rho_vector

    d = g.n_vertices
    gens = [rho_vector(d, e) for e in g.edges]
    out: set[tuple[int, ...]] = set()
    for subset in itertools.combinations(gens, d - 1):
        vec = _null_vector(list(subset))
        if vec is None:
            continue
        dots = [sum(n * x for n, x in zip(vec, gen)) for gen in gens]
        if all(v >= 0 for v in dots):
            normal = _primitive(vec)
        elif all(v <= 0 for v in dots):
            normal = _primitive([-f for f in vec])
        else:
            continue
        contact = [gen for gen in gens if sum(n * x for n, x in zip(normal, gen)) == 0]
        if integer_rank(contact, d) == d - 1:
            out.add(normal)
    return out


# -- reference implementations of cached search tables -----------------


def prune_reference(g: Graph, x) -> bool:
    """The component prune by a fresh traversal of the positive-support
    subgraph: False when a component has odd total demand or a support
    vertex has no neighbour in the support."""
    adj = g.adjacency
    pos = [v for v in range(1, g.n_vertices + 1) if x[v - 1] > 0]
    pos_set = set(pos)
    seen: set[int] = set()
    for start in pos:
        if start in seen:
            continue
        comp_sum = 0
        comp_size = 0
        comp_edges = False
        stack = [start]
        seen.add(start)
        while stack:
            u = stack.pop()
            comp_sum += x[u - 1]
            comp_size += 1
            for w in adj[u]:
                if w in pos_set:
                    comp_edges = True
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        if comp_sum % 2 == 1:
            return False
        if comp_size == 1 and not comp_edges:
            return False
    return True


def facet_semigroup_reference(g: Graph, f, bound: int) -> list[tuple[int, ...]]:
    """Sums of on-facet edge vectors with coordinate sum <= bound, level
    by level, each level sorted: ordered by (degree, lex)."""
    from edgering.facets import generators_on_facet
    from edgering.linalg import rho_vector

    d = g.n_vertices
    rhos = [rho_vector(d, e) for e in generators_on_facet(g, f)]
    level: set[tuple[int, ...]] = {tuple([0] * d)}
    out: list[tuple[int, ...]] = []
    for _ in range(bound // 2 + 1):
        out.extend(sorted(level))
        nxt: set[tuple[int, ...]] = set()
        for base in level:
            for rv in rhos:
                nxt.add(tuple(x + y for x, y in zip(base, rv)))
        level = nxt
        if not level:
            break
    return [y for y in out if sum(y) <= bound]
