"""Verification and refutation of the Serre depth condition for edge
rings of non-normal graphs.

The classifier compares the semigroup S with the intersection S' of its
facet localizations.  A bounded gap element alpha is *excluded* at a
vertex facet by an exact parity certificate: if alpha vanishes at the
vertex and some component of the vertex-deleted graph carries odd total
weight, no y in S on that facet can pull alpha into S, regardless of any
search bound.  Where no certificate applies, alpha is excluded at a
facet when the exact test of ``in_localization`` shows that no y exists,
in the quotient of Z^d by the lattice of the on-facet edges.  In the other direction, a sufficient combinatorial
criterion on an exceptional pair refutes the condition outright.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from operator import add, mul

from .cycles import ExceptionalPair, exceptional_pairs
from .facets import (
    VERTEX_KIND,
    Facet,
    facets,
    fundamental_sets,
    generators_on_facet,
    regular_vertex_components,
)
from .graph import (
    Edge,
    Graph,
    UnsupportedGraphError,
    bits,
    contains_odd_cycle,
    is_connected,
    mask_components,
    mask_neighbors,
    rho_vector,
    to_mask,
)
from .semigroup import (
    MembershipWitness,
    Vector,
    _check_vector,
    _EdgeSumSearch,
    _edge_sum_levels,
    _search_engine,
    gap_elements,
    in_lattice,
    in_S,
)

VERDICT_NORMAL = "Normal"
VERDICT_S2_VERIFIED = "NonNormalS2Verified"
VERDICT_NOT_S2 = "NonNormalNotS2"
VERDICT_UNKNOWN = "Unknown"

YES = "yes"
NO_CERTIFIED = "no_certified"
NO_UP_TO_BOUND = "no_up_to_bound"


@dataclass(frozen=True)
class ExclusionCertificate:
    """Exact, bound-independent proof that a candidate is missing from
    the localization at the vertex facet of ``vertex``: the candidate
    vanishes there while ``component`` (a component of G minus vertex)
    has odd total weight."""

    vertex: int
    component: tuple[int, ...]
    candidate: Vector


@dataclass(frozen=True)
class HkWitness:
    """An exceptional pair passing both sufficiency conditions for
    refuting the depth condition, with the checks that were performed."""

    pair: ExceptionalPair
    same_component_vertices: tuple[int, ...]
    same_component_sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundedMembership:
    """Outcome of the bounded localization test at one facet."""

    status: str
    y: Vector | None = None
    witness: MembershipWitness | None = None
    certificate: ExclusionCertificate | None = None


@dataclass(frozen=True)
class LocalizationMembership:
    """Exact answer of ``in_localization``: is alpha in S - (S cap F)?

    ``weight`` is ell(alpha) and ``quotient`` the class q(alpha) in
    Z^d / L(H_F).  On a yes, ``off_facet`` is the multiset w of off-facet
    edges and ``y`` an element of S cap F with alpha + y in S; on a no,
    no w reaches ``quotient``.
    """

    member: bool
    weight: int
    quotient: tuple[int, ...]
    off_facet: tuple[tuple[Edge, int], ...] = ()
    y: Vector | None = None


@dataclass(frozen=True)
class ClassificationReport:
    verdict: str
    degree_bound: int
    search_bound: int
    gap: tuple[Vector, ...] = ()
    certificates: tuple[ExclusionCertificate, ...] = ()
    hk_witness: HkWitness | None = None
    exhaustive: bool = False
    gap_computed: bool = True
    s_prime_candidate: Vector | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)

    @property
    def gap_count(self) -> int:
        return len(self.gap)

    def to_json_dict(self) -> dict:
        hk = None
        if self.hk_witness is not None:
            hk = {
                "first": list(self.hk_witness.pair.first),
                "second": list(self.hk_witness.pair.second),
                "same_component_vertices": list(self.hk_witness.same_component_vertices),
                "same_component_sets": [list(t) for t in self.hk_witness.same_component_sets],
            }
        return {
            "verdict": self.verdict,
            "degree_bound": self.degree_bound,
            "search_bound": self.search_bound,
            "gap": [list(v) for v in self.gap],
            "gap_count": self.gap_count,
            "gap_computed": self.gap_computed,
            "certificates": [
                {
                    "vertex": c.vertex,
                    "component": list(c.component),
                    "candidate": list(c.candidate),
                }
                for c in self.certificates
            ],
            "hk_witness": hk,
            "exhaustive": self.exhaustive,
            "s_prime_candidate": None
            if self.s_prime_candidate is None
            else list(self.s_prime_candidate),
        }


def in_S_cap_F(g: Graph, f: Facet, y) -> MembershipWitness | None:
    """Membership of y in the semigroup generated by the on-facet edges,
    by the same exhaustive search as in_S restricted to those edges."""
    vec = _check_vector(g, y)
    if any(v < 0 for v in vec):
        raise ValueError("semigroup members are nonnegative; got a negative coordinate")
    return _EdgeSumSearch(Graph(g.vertices, tuple(generators_on_facet(g, f)))).witness(vec)


def _facet_semigroup_bounded(g: Graph, f: Facet, bound: int) -> list[Vector]:
    """All members of S on the facet with coordinate sum <= bound,
    ordered by (degree, lex); starts with the zero vector.  These are the
    sorted keys of each ``_edge_sum_levels`` dict over the on-facet edges.

    Built fresh on every call; ``in_SF_bounded`` builds it only after the
    exact test of ``in_localization`` says yes, and keeps one per facet in
    the ``tables`` dict its caller passes.
    """
    levels = _edge_sum_levels(g.n_vertices, tuple(generators_on_facet(g, f)), bound)
    return [y for level in levels for y in sorted(level)]


class _FacetQuotient:
    """The quotient Z^d / L(H_F) at one facet F, H_F its on-facet edges
    on all d vertices, and the classes that sums of off-facet edges reach.

    One coordinate per component K of H_F, by the closed form of
    ``semigroup.in_lattice`` per component: x(A) - x(B) when K is
    bipartite with sides A and B (for an isolated vertex, its own
    coordinate), x(K) mod 2 when K has an odd cycle.  ``levels[k]`` maps
    each class that off-facet edges of total ell-weight k reach to a
    back-pointer (class at ell-weight k - ell(rho(e)), e), None at k = 0;
    it grows on demand, up to the largest ell-weight asked.
    """

    __slots__ = ("graph", "normal", "groups", "mods", "steps", "levels")

    def __init__(self, g: Graph, f: Facet):
        self.graph = h = Graph(g.vertices, tuple(generators_on_facet(g, f)))
        self.normal = f.normal
        groups = []
        for comp, odd in mask_components(h, h.vertex_mask):
            if odd:
                groups.append((tuple(v - 1 for v in bits(comp)), (), 2))
                continue
            # BFS layers alternate between the two sides of a bipartite K
            sides, layer, depth = [0, 0], comp & -comp, 0
            while layer:
                sides[depth % 2] |= layer
                layer = mask_neighbors(h, layer) & comp & ~(sides[0] | sides[1])
                depth += 1
            groups.append((tuple(v - 1 for v in bits(sides[0])), tuple(v - 1 for v in bits(sides[1])), 0))
        self.groups = tuple(groups)
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
        out = []
        for plus, minus, mod in self.groups:
            val = sum(x[i] for i in plus) - sum(x[i] for i in minus)
            out.append(val % mod if mod else val)
        return tuple(out)

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


def _lattice_coefficients(h: Graph, x: list[int]) -> Counter:
    """Integer z with sum z_e rho(e) = x over the edges of h, for x in the
    edge lattice of h, by the constructive proof of ``semigroup.
    in_lattice`` per component: peel the leaves of a BFS tree into their
    tree edges; the root keeps 0 (bipartite) or an even residual r, which
    is r/2 times the alternating sum round an odd closed walk.  Consumes
    x: it ends all zero."""
    z: Counter = Counter()
    for comp, _ in mask_components(h, h.vertex_mask):
        root = (comp & -comp).bit_length() - 1
        parent, depth, order = {root: root}, {root: 0}, [root]
        for u in order:
            for w in sorted(h.adjacency[u]):
                if w not in parent:
                    parent[w], depth[w] = u, depth[u] + 1
                    order.append(w)
        for u in reversed(order[1:]):
            p = parent[u]
            z[min(u, p), max(u, p)] += x[u - 1]
            x[p - 1] -= x[u - 1]
            x[u - 1] = 0
        if x[root - 1]:

            def to_root(u: int) -> list[int]:
                path = [u]
                while path[-1] != root:
                    path.append(parent[path[-1]])
                return path

            # an edge inside one BFS layer parity closes an odd walk root..a, b..root
            a, b = next((a, b) for a, b in h.edges if a in depth and (depth[a] - depth[b]) % 2 == 0)
            walk = to_root(a)[::-1] + to_root(b)
            for i, (u, w) in enumerate(zip(walk, walk[1:])):
                z[min(u, w), max(u, w)] += (-1) ** i * (x[root - 1] // 2)
            x[root - 1] = 0
    return z


def in_localization(g: Graph, f: Facet, alpha) -> LocalizationMembership:
    """Exact membership of an integer vector alpha (signs allowed) in the
    localization S - (S cap F) at a facet F of the edge cone: is there
    y in S cap F with alpha + y in S?  No search bound.  Any candidate of
    ``facets`` will do, validated or not: the proof below only needs the
    normal to be >= 0 on every edge.

    Lemma.  Let ell be F's integer normal, H_F the on-facet edges and
    L(H_F) their lattice.  Then some y in S cap F has alpha + y in S iff
    alpha - sum_{e off F} w_e rho(e) is in L(H_F) for some integer w >= 0.
    Proof.  S cap F is generated by the on-facet edges: ell >= 0 on every
    edge, so each edge of a decomposition of y with ell(y) = 0 lies on F.
    (=>) Write alpha + y = sum_e c_e rho(e) with c >= 0 and y = sum_on
    u_e rho(e) with u >= 0; then alpha = sum_off c_e rho(e) + sum_on (c_e
    - u_e) rho(e), so w = c off F works.  (<=) From alpha - sum_off w_e
    rho(e) = sum_on z_e rho(e) with z integer, y = sum_on max(0, -z_e)
    rho(e) is in S cap F, and alpha + y = sum_off w_e rho(e) + sum_on
    max(0, z_e) rho(e) is in S.
    Finiteness: ell vanishes on L(H_F) and ell(rho(e)) >= 1 off F, so
    sum w_e ell(rho(e)) = ell(alpha); only w of that ell-weight count,
    and ell(alpha) < 0 is an exact no.

    Decision.  L(H_F) is the direct sum of the lattices of the components
    of H_F, so by the lemma of ``semigroup.in_lattice`` per component, x
    is in L(H_F) iff its class q(x) in Z^d / L(H_F) is zero (coordinates
    in ``_FacetQuotient``).  q is additive, so the question is whether
    q(alpha) is a sum of images q(rho(e)) of off-facet edges of total
    ell-weight ell(alpha): a reachability search over ell-weight levels
    0..ell(alpha).  At a vertex facet x_v = 0 this is closed form: the
    off-facet edges are those at v, each of ell-weight 1, so alpha is
    excluded iff more components of G minus v have odd alpha-weight than
    alpha_v; at alpha_v = 0 that is ``vertex_parity_certificate``.

    Returns ``LocalizationMembership``: on a yes the off-facet multiset w
    (read off back-pointers) and y rebuilt from z; on a no the unreached
    class q(alpha) and ell(alpha).
    """
    vec = _check_vector(g, alpha)
    quotient = _FacetQuotient(g, f)
    weight, target = quotient.weight(vec), quotient.image(vec)
    if not quotient.reaches(target, weight):
        return LocalizationMembership(False, weight, target)
    off_facet: Counter = Counter()
    rest, k, cls = list(vec), weight, target
    while k:
        cls, e = quotient.levels[k][cls]
        off_facet[e] += 1
        k -= quotient.weight(rho_vector(g.n_vertices, e))
        rest[e[0] - 1] -= 1
        rest[e[1] - 1] -= 1
    y = [0] * g.n_vertices
    for (u, w), z in _lattice_coefficients(quotient.graph, rest).items():
        if z < 0:
            y[u - 1] -= z
            y[w - 1] -= z
    return LocalizationMembership(True, weight, target, tuple(sorted(off_facet.items())), tuple(y))


def vertex_parity_certificate(g: Graph, v: int, alpha) -> ExclusionCertificate | None:
    """The exact exclusion certificate at regular vertex v, if one exists:
    alpha_v = 0 and some component of G minus v has odd alpha-weight.

    Soundness: every y in S supported on the facet avoids v entirely, so
    each component keeps even weight under y; an odd component therefore
    survives in alpha + y for every candidate y, and alpha + y cannot be
    an edge sum.

    The components come from ``regular_vertex_components``, cached per
    (graph, vertex), so a repeated call costs O(d).
    """
    vec = _check_vector(g, alpha)
    comps = regular_vertex_components(g, v)
    if comps is None:
        raise ValueError(f"vertex {v} is not regular; its hyperplane is not a facet candidate")
    if vec[v - 1] != 0:
        return None
    for comp in comps:
        if sum(vec[u - 1] for u in comp) % 2 == 1:
            return ExclusionCertificate(v, comp, vec)
    return None


def in_SF_bounded(
    g: Graph, f: Facet, alpha, search_bound: int = 12, tables: dict | None = None
) -> BoundedMembership:
    """Bounded test of alpha's membership in the localization at facet f.

    Tries the exact parity certificate first (vertex facets only), then
    the exact test of ``in_localization``; only after an exact yes does it
    search for y in S on the facet with degree <= search_bound such that
    alpha + y lands in S.  Outcomes: "yes" with the witness y,
    "no_certified" with an exact certificate, or "no_up_to_bound", which
    covers both an exact no and an exact yes whose y lies past the bound.
    A bounded yes implies an exact yes, so the exact test changes no
    outcome; it only skips the search where no y exists.

    The candidates y come from ``_facet_semigroup_bounded``.  ``tables``,
    when given, keeps the facet's quotient data (key f) and that table
    (key (f, bound)) across calls on the same graph; ``classify`` passes a
    fresh dict per call, so each is built at most once per classification
    and never outlives it.  Without ``tables`` both are built afresh.
    """
    vec = _check_vector(g, alpha)
    if search_bound < 0:
        raise ValueError("search bound must be nonnegative")
    if not in_lattice(g, vec):
        raise ValueError("candidate must lie in the edge lattice")
    if f.kind == VERTEX_KIND:
        cert = vertex_parity_certificate(g, f.vertices[0], vec)
        if cert is not None:
            return BoundedMembership(NO_CERTIFIED, certificate=cert)
    tables = {} if tables is None else tables
    quotient = tables.get(f)
    if quotient is None:
        quotient = tables[f] = _FacetQuotient(g, f)
    if not quotient.reaches(quotient.image(vec), quotient.weight(vec)):
        return BoundedMembership(NO_UP_TO_BOUND)
    if (f, search_bound) not in tables:
        tables[f, search_bound] = _facet_semigroup_bounded(g, f, search_bound)
    engine = _search_engine(g)
    for y in tables[f, search_bound]:
        shifted = tuple(map(add, vec, y))
        # a signed alpha can leave negative entries, which decide assumes away
        if min(shifted) >= 0 and engine.decide(shifted):
            return BoundedMembership(YES, y=y, witness=in_S(g, shifted))
    return BoundedMembership(NO_UP_TO_BOUND)


def hk_not_s2(g: Graph) -> HkWitness | None:
    """Search for an exceptional pair satisfying the sufficient criterion
    for refuting the depth condition:

    (1) for every regular vertex off the pair, both cycles stay in one
        component of the vertex-deleted graph; and
    (2) for every fundamental set T whose closed neighborhood misses the
        pair, both cycles stay in one component after removing it.

    Returns the first passing pair in canonical order, or None.  The
    pairs come from the cached ``exceptional_pairs(g)``.
    """
    pairs = exceptional_pairs(g)
    if not pairs:
        return None
    closed_sets = []
    for t in fundamental_sets(g):
        tmask = to_mask(t)
        closed_sets.append((tuple(sorted(t)), tmask | mask_neighbors(g, tmask)))
    for pair in pairs:
        pv = to_mask(pair.first + pair.second)
        checked_vertices: list[int] = []
        ok = True
        for v in g.vertices:
            if pv >> v & 1:
                continue
            comps = regular_vertex_components(g, v)
            if comps is None:
                continue
            c1 = next(c for c in comps if pair.first[0] in c)
            if pair.second[0] not in c1:
                ok = False
                break
            checked_vertices.append(v)
        if not ok:
            continue
        checked_sets: list[tuple[int, ...]] = []
        for t, closed in closed_sets:
            if closed & pv:
                continue
            rest = mask_components(g, g.vertex_mask & ~closed)
            c1 = next(c for c, _ in rest if c >> pair.first[0] & 1)
            if not c1 >> pair.second[0] & 1:
                ok = False
                break
            checked_sets.append(t)
        if ok:
            return HkWitness(pair, tuple(checked_vertices), tuple(checked_sets))
    return None


def classify(g: Graph, degree_bound: int = 16, search_bound: int = 12) -> ClassificationReport:
    """Full normality / depth classification of the edge ring of g.

    Verdicts: Normal when no exceptional pair exists; NonNormalNotS2 on a
    sufficiency witness or a bounded gap element present in every facet
    localization; NonNormalS2Verified when every bounded gap element is
    excluded somewhere (exhaustive when every exclusion is certificate
    backed); Unknown when non-normality is established but no gap element
    falls under the degree bound.

    Args:
        g: connected graph with an odd cycle, labels 1..d.
        degree_bound: bound on gap enumeration (positive even).
        search_bound: degree bound for localization searches (>= 0).

    Returns:
        A ClassificationReport; serialize with ``to_json_dict``.

    Raises:
        ValueError: a bound is out of range, checked before any stage.
        UnsupportedGraphError: g is disconnected or bipartite.
    """
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    if degree_bound <= 0 or degree_bound % 2 == 1:
        raise ValueError(f"degree bound must be a positive even integer, got {degree_bound}")
    if search_bound < 0:
        raise ValueError(f"search bound must be nonnegative, got {search_bound}")
    if not is_connected(g):
        raise UnsupportedGraphError("classification needs a connected graph")
    if not contains_odd_cycle(g):
        raise UnsupportedGraphError("classification needs at least one odd cycle")

    def _report(**kw) -> ClassificationReport:
        timings["total"] = (time.perf_counter() - t_start) * 1000.0
        return ClassificationReport(
            degree_bound=degree_bound,
            search_bound=search_bound,
            timings_ms={k: round(v, 3) for k, v in timings.items()},
            **kw,
        )

    t0 = time.perf_counter()
    pairs = exceptional_pairs(g)
    timings["cycles"] = (time.perf_counter() - t0) * 1000.0
    if not pairs:
        return _report(verdict=VERDICT_NORMAL, exhaustive=True)

    t0 = time.perf_counter()
    hk = hk_not_s2(g)
    timings["hk"] = (time.perf_counter() - t0) * 1000.0
    if hk is not None:
        return _report(verdict=VERDICT_NOT_S2, hk_witness=hk, gap_computed=False)

    t0 = time.perf_counter()
    gap = tuple(gap_elements(g, degree_bound))
    timings["gap"] = (time.perf_counter() - t0) * 1000.0
    if not gap:
        # non-normal for sure, but the degree bound shows no gap element
        return _report(verdict=VERDICT_UNKNOWN)

    t0 = time.perf_counter()
    validated = [f for f in facets(g) if f.validated]
    # (v, v - 1, 0-based component index tuples) per validated vertex facet,
    # so the parity test runs inline and the certificate is built once
    parity_checks = [
        (v, v - 1, tuple(tuple(u - 1 for u in comp) for comp in regular_vertex_components(g, v)))
        for v in (f.vertices[0] for f in validated if f.kind == VERTEX_KIND)
    ]
    certificates: list[ExclusionCertificate] = []
    exhaustive = True
    tables: dict = {}  # per facet: quotient data and bounded table; dropped when classify returns
    for alpha in gap:
        v = next(
            (v for v, i, comps in parity_checks
             if not alpha[i] and any(sum(map(alpha.__getitem__, comp)) % 2 for comp in comps)),
            None,
        )
        if v is not None:
            certificates.append(vertex_parity_certificate(g, v, alpha))
            continue
        if all(in_SF_bounded(g, f, alpha, search_bound, tables).status == YES for f in validated):
            timings["exclusion"] = (time.perf_counter() - t0) * 1000.0
            return _report(
                verdict=VERDICT_NOT_S2, gap=gap, certificates=tuple(certificates), s_prime_candidate=alpha
            )
        exhaustive = False
    timings["exclusion"] = (time.perf_counter() - t0) * 1000.0
    return _report(
        verdict=VERDICT_S2_VERIFIED, gap=gap, certificates=tuple(certificates), exhaustive=exhaustive
    )
