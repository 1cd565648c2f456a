"""Independent brute-force oracles and shared graph constructions for the
test suite.  These deliberately avoid the library's own algorithms where
they act as a second route: cycle enumeration here is plain DFS over all
simple cycles, facet enumeration solves null spaces of generator subsets
with Fraction arithmetic, the edge lattice and integer rank come from a
triangular lattice basis kept by extended-gcd row reduction, and cone
membership is a phase-1 simplex over Fractions.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from edgering.graph import Graph, contains_odd_cycle, is_connected, rho_vector

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


def random_connected_graph(rng: random.Random, d: int, bipartite: bool, p: float = 0.4) -> Graph:
    """A random spanning tree on 1..d plus each other pair with probability
    p.  Bipartite graphs keep only pairs across the tree's two colour
    classes; otherwise one pair inside a class (d >= 3) closes an odd cycle."""
    order = list(range(1, d + 1))
    rng.shuffle(order)
    side = {order[0]: 0}
    pairs = set()
    for i in range(1, d):
        parent = order[rng.randrange(i)]
        side[order[i]] = 1 - side[parent]
        pairs.add(tuple(sorted((parent, order[i]))))
    for u, v in itertools.combinations(range(1, d + 1), 2):
        if rng.random() < p and not (bipartite and side[u] == side[v]):
            pairs.add((u, v))
    if not bipartite:
        pairs.add(rng.choice([(u, v) for u, v in itertools.combinations(range(1, d + 1), 2)
                              if side[u] == side[v]]))
    return Graph.from_edge_list(d, pairs)


# -- adjacency-set graph operations -------------------------------------
# Compact copies of operations the library no longer holds, as it reads a
# graph only through its bitmasks; no argument checks.


def adjacency(g: Graph) -> dict[int, set[int]]:
    """Neighbour sets by label, read off ``g.edges``."""
    adj: dict[int, set[int]] = {v: set() for v in g.vertices}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    return adj


def induced_subgraph(g: Graph, subset) -> Graph:
    sub = set(subset)
    return Graph(tuple(v for v in g.vertices if v in sub), tuple(e for e in g.edges if sub.issuperset(e)))


def neighborhood(g: Graph, t) -> frozenset[int]:
    """N(G; T): every vertex adjacent to some member of T."""
    adj = adjacency(g)
    return frozenset(w for v in t for w in adj[v])


def induced_bipartite_graph(g: Graph, t) -> Graph:
    """T and N(G; T) with the edges between them, for an independent T."""
    t = frozenset(t)
    return Graph(tuple(sorted(t | neighborhood(g, t))), tuple(e for e in g.edges if (e[0] in t) != (e[1] in t)))


def is_cycle_of(g: Graph, cycle) -> bool:
    adj, k = adjacency(g), len(cycle)
    return k >= 3 and len(set(cycle)) == k and all(cycle[i - 1] in adj.get(cycle[i], ()) for i in range(k))


def is_chordless(g: Graph, cycle) -> bool:
    adj, k = adjacency(g), len(cycle)
    return not any(cycle[b] in adj[cycle[a]] for a, b in itertools.combinations(range(k), 2) if 1 < b - a < k - 1)


def cycle_indicator(g: Graph, *cycles) -> tuple[int, ...]:
    """The sum of the 0/1 vectors of the cycles: E_C + E_C' for (g, *pair)."""
    return tuple(sum(v in c for c in cycles) for v in range(1, g.n_vertices + 1))


def in_set_A(fam, x) -> bool:
    """The exclusion set A of a family member: zero at the hub, odd sums on both sides."""
    return x[fam.w - 1] == 0 and all(sum(x[v - 1] for v in side) % 2 for side in (fam.u_side, fam.v_side))


# -- brute force odd cycle condition ----------------------------------


def all_simple_odd_cycles(g: Graph) -> list[tuple[int, ...]]:
    """Every simple odd cycle (not just chordless), one canonical tuple
    per cycle: smallest vertex first, smaller neighbor second."""
    adj = adjacency(g)
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
    adj = adjacency(g)
    for c1, c2 in itertools.combinations(cycles, 2):
        s1, s2 = set(c1), set(c2)
        if s1 & s2:
            continue
        if not any(v in adj[u] for u in s1 for v in s2):
            return False
    return True


# -- integer lattice by extended-gcd row reduction ---------------------


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntegerLattice:
    """Integer span of added vectors, kept as a triangular basis.

    Rows are sorted by pivot column and each pivot entry is positive.
    Membership reduces against the basis; it succeeds iff every pivot
    divides the running entry and the remainder reaches zero.  The rank
    is the number of basis rows.
    """

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: list[list[int]] = []

    @staticmethod
    def _pivot(row) -> int | None:
        for idx, val in enumerate(row):
            if val:
                return idx
        return None

    def _row_at_pivot(self, j: int) -> int | None:
        for pos, row in enumerate(self.rows):
            p = self._pivot(row)
            if p == j:
                return pos
            if p is not None and p > j:
                return None
        return None

    def add(self, vec) -> None:
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        v = list(vec)
        while True:
            j = self._pivot(v)
            if j is None:
                return
            pos = self._row_at_pivot(j)
            if pos is None:
                if v[j] < 0:
                    v = [-t for t in v]
                self.rows.append(v)
                self.rows.sort(key=lambda r: self._pivot(r))
                return
            row = self.rows[pos]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                v = [t - q * s for t, s in zip(v, row)]
            else:
                g, x, y = xgcd(a, b)
                new_row = [x * s + y * t for s, t in zip(row, v)]
                v = [(a // g) * t - (b // g) * s for s, t in zip(row, v)]
                self.rows[pos] = new_row

    def contains(self, vec) -> bool:
        if len(vec) != self.dim:
            raise ValueError("dimension mismatch")
        v = list(vec)
        while True:
            j = self._pivot(v)
            if j is None:
                return True
            pos = self._row_at_pivot(j)
            if pos is None:
                return False
            row = self.rows[pos]
            if v[j] % row[j] != 0:
                return False
            q = v[j] // row[j]
            v = [t - q * s for t, s in zip(v, row)]

    @property
    def rank(self) -> int:
        return len(self.rows)


def lattice_of(dim: int, rows) -> IntegerLattice:
    lat = IntegerLattice(dim)
    for row in rows:
        lat.add(row)
    return lat


def edge_lattice(g: Graph) -> IntegerLattice:
    """The lattice spanned by the edge vectors of a graph on labels 1..d."""
    return lattice_of(g.n_vertices, [rho_vector(g.n_vertices, e) for e in g.edges])


# -- rational cone membership by a phase-1 simplex --------------------


def in_rational_cone(generators: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Exact feasibility of target = sum lambda_g * g with rational
    lambda >= 0, decided by a phase-1 simplex over Fractions.

    Bland's rule on both the entering and leaving choice guarantees
    termination.  Feasible iff the artificial objective reaches zero.
    """
    n = len(generators)
    if n == 0:
        return all(t == 0 for t in target)
    m = len(target)
    for gvec in generators:
        if len(gvec) != m:
            raise ValueError("generator dimension mismatch")

    # rows: A lambda = b with b >= 0 after sign normalization
    tab: list[list[Fraction]] = []
    for i in range(m):
        sign = -1 if target[i] < 0 else 1
        row = [Fraction(sign * gvec[i]) for gvec in generators]
        row += [Fraction(1) if k == i else Fraction(0) for k in range(m)]
        row.append(Fraction(sign * target[i]))
        tab.append(row)
    ncols = n + m
    basis = [n + i for i in range(m)]

    # minimize w = sum of artificials; reduced costs with artificial basis
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(ncols):
        cj = Fraction(1) if j >= n else Fraction(0)
        obj[j] = cj - sum(tab[i][j] for i in range(m))
    obj[ncols] = -sum(tab[i][ncols] for i in range(m))

    while True:
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-1 objective cannot happen (w >= 0); defensive
            raise ArithmeticError("phase-1 simplex detected unbounded direction")
        piv = tab[leave][enter]
        tab[leave] = [t / piv for t in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [t - f * s for t, s in zip(tab[i], tab[leave])]
        if obj[enter]:
            f = obj[enter]
            obj = [t - f * s for t, s in zip(obj, tab[leave])]
        basis[leave] = enter

    return obj[ncols] == 0


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
        if lattice_of(d, contact).rank == d - 1:
            out.add(normal)
    return out


# -- reference implementations of cached search tables -----------------


def prune_reference(g: Graph, x) -> bool:
    """The component prune by a fresh traversal of the positive-support
    subgraph: False when a component has odd total demand or a support
    vertex has no neighbour in the support."""
    adj = adjacency(g)
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


def localization_reference(g: Graph, f, alpha) -> bool:
    """The condition of ``serre.in_localization``'s lemma by brute force:
    some sum v of off-facet edge vectors with normal . v = normal . alpha
    has alpha - v in the lattice of the on-facet edges, decided by the
    extended-gcd lattice.  Every such v is listed, level by level."""
    from edgering.facets import generators_on_facet

    d = g.n_vertices
    on = generators_on_facet(g, f)
    lattice = lattice_of(d, [rho_vector(d, e) for e in on])
    off = [(f.normal[e[0] - 1] + f.normal[e[1] - 1], rho_vector(d, e)) for e in g.edges if e not in on]
    target = sum(a * b for a, b in zip(f.normal, alpha))
    if target < 0:
        return False
    sums: list[set[tuple[int, ...]]] = [{tuple([0] * d)}]
    for k in range(1, target + 1):
        sums.append({tuple(x + y for x, y in zip(v, r)) for c, r in off if c <= k for v in sums[k - c]})
    return any(lattice.contains([a - b for a, b in zip(alpha, v)]) for v in sums[target])


def edge_sum_levels_reference(d: int, edges, max_degree: int) -> list[set[tuple[int, ...]]]:
    """levels[k] = distinct sums of exactly k edge vectors, k <= max_degree // 2,
    formed as every level k-1 sum plus every edge vector."""
    rhos = [tuple(1 if v in e else 0 for v in range(1, d + 1)) for e in edges]
    levels: list[set[tuple[int, ...]]] = [{tuple([0] * d)}]
    for _ in range(max_degree // 2):
        levels.append({tuple(x + y for x, y in zip(base, rv)) for base in levels[-1] for rv in rhos})
    return levels


def vertex_certificates_reference(g: Graph, alphas, vertices=None) -> list:
    """Per alpha, the first exclusion certificate over the validated vertex
    facets, in facet order (or over ``vertices``, in their order), from one
    ``vertex_parity_certificate`` call per facet; None when none of them
    certifies alpha.  Each call gets alpha as a list, so it runs the parity
    scan and never hands back a certificate the gap stage stored.  The
    facets are computed once for all of ``alphas``."""
    from edgering.facets import VERTEX_KIND, facets
    from edgering.serre import vertex_parity_certificate

    if vertices is None:
        vertices = [f.vertices[0] for f in facets(g) if f.validated and f.kind == VERTEX_KIND]
    return [next(filter(None, (vertex_parity_certificate(g, v, list(alpha)) for v in vertices)), None)
            for alpha in alphas]


# -- set-based references for the bitmask graph kernel -------------------
#
# The traversals the library ran before its graph routines moved onto
# vertex bitmasks.  They build a Graph per subgraph and walk the
# ``adjacency`` sets above, sharing no code with the mask routines.


def connected_components_reference(g: Graph) -> list[frozenset[int]]:
    """Vertex sets of the components by depth-first search, sorted by
    smallest member."""
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    adj = adjacency(g)
    for start in g.vertices:
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return sorted(comps, key=min)


def colour_class_reference(g: Graph, comp) -> frozenset[int] | None:
    """The colour class of min(comp) in a depth-first 2-colouring of the
    component ``comp``, or None when it has no 2-colouring."""
    adj = adjacency(g)
    start = min(comp)
    color = {start: 0}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return None
    return frozenset(v for v, c in color.items() if c == 0)


def contains_odd_cycle_reference(g: Graph, subset=None) -> bool:
    """No 2-colouring of some component of the induced subgraph."""
    h = g if subset is None else induced_subgraph(g, subset)
    return any(colour_class_reference(h, c) is None for c in connected_components_reference(h))


def regular_vertex_components_reference(g: Graph, v: int):
    """Components of a freshly built G minus v as sorted tuples, or None
    when one of them has no odd cycle."""
    from edgering.graph import delete_vertex

    rest = delete_vertex(g, v)
    comps = connected_components_reference(rest)
    if not all(contains_odd_cycle_reference(rest, c) for c in comps):
        return None
    return tuple(tuple(sorted(c)) for c in comps)


def fundamental_sets_reference(g: Graph) -> list[frozenset[int]]:
    """Fundamental sets from built subgraphs: every independent set T whose
    T-N(T) bipartite graph is connected and whose leftover components all
    have odd cycles, sorted by (size, sorted T)."""
    out, edges = [], set(g.edges)
    for size in range(1, g.n_vertices + 1):
        for cand in itertools.combinations(g.vertices, size):
            t = frozenset(cand)
            if edges.intersection(itertools.combinations(cand, 2)):
                continue
            if len(connected_components_reference(induced_bipartite_graph(g, t))) != 1:
                continue
            rest = g.vertex_set - t - neighborhood(g, t)
            if rest:
                sub = induced_subgraph(g, rest)
                comps = connected_components_reference(sub)
                if not all(contains_odd_cycle_reference(sub, c) for c in comps):
                    continue
            out.append(t)
    return sorted(out, key=lambda t: (len(t), sorted(t)))


def minimal_odd_cycles_reference(g: Graph) -> tuple[tuple[int, ...], ...]:
    """The chordless members of every simple odd cycle."""
    return tuple(c for c in all_simple_odd_cycles(g) if is_chordless(g, c))


def exceptional_pairs_reference(g: Graph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Vertex-disjoint pairs of minimal odd cycles with no edge between
    them, in cycle order."""
    from edgering.cycles import minimal_odd_cycles

    adj = adjacency(g)
    return [
        (c1, c2)
        for c1, c2 in itertools.combinations(minimal_odd_cycles(g), 2)
        if not set(c1) & set(c2) and not any(v in adj[u] for u in c1 for v in c2)
    ]


def hk_not_s2_reference(g: Graph):
    """The refutation criterion on built subgraphs: the first exceptional
    pair whose cycles share a component of G minus every regular vertex
    off the pair and of G minus the closed neighbourhood of every
    fundamental set that misses the pair.  Returns (pair, checked
    vertices, checked sets) or None."""
    fsets = fundamental_sets_reference(g)
    for first, second in exceptional_pairs_reference(g):
        pv = set(first) | set(second)
        checked_vertices = []
        for v in g.vertices:
            if v in pv:
                continue
            comps = regular_vertex_components_reference(g, v)
            if comps is None:
                continue
            if not any(first[0] in c and second[0] in c for c in comps):
                break
            checked_vertices.append(v)
        else:
            checked_sets = []
            for t in fsets:
                closed = t | neighborhood(g, t)
                if closed & pv:
                    continue
                rest = induced_subgraph(g, g.vertex_set - closed)
                comps = connected_components_reference(rest)
                if not any(first[0] in c and second[0] in c for c in comps):
                    break
                checked_sets.append(tuple(sorted(t)))
            else:
                return (first, second), tuple(checked_vertices), tuple(checked_sets)
    return None


def addition_rows_reference(fam, max_extra: int, degree_bound: int) -> list[dict]:
    """The ``additions`` rows by the per-subset route: every cross-edge
    subset of 1..max_extra edges built by ``add_cross_edges`` and decided
    by ``classify`` on its own, with no orbit merge."""
    from edgering.families import add_cross_edges, cross_pairs
    from edgering.serre import classify

    rows = []
    for size in range(1, max_extra + 1):
        for subset in itertools.combinations(cross_pairs(fam), size):
            graph = add_cross_edges(fam, subset)
            report = classify(graph, degree_bound=degree_bound)
            rows.append({
                "extra_edges": [list(e) for e in subset],
                "edges": graph.n_edges,
                "verdict": report.verdict,
                "exhaustive": report.exhaustive,
            })
    return rows


def is_automorphism(g: Graph, perm: dict[int, int]) -> bool:
    """Whether the vertex map ``perm`` is a bijection of g's vertices that
    maps the edge set onto itself."""
    if sorted(perm) != list(g.vertices) or sorted(perm.values()) != list(g.vertices):
        return False
    return {tuple(sorted((perm[i], perm[j]))) for i, j in g.edges} == set(g.edges)
