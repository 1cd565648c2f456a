"""Exact computations with edge rings of finite simple graphs:
normality via the odd cycle condition, facets of the edge cone, semigroup
and saturation membership, and verification of the Serre depth condition.
"""

from .cycles import (
    ExceptionalPair,
    OddCycle,
    exceptional_pairs,
    minimal_odd_cycles,
    satisfies_odd_cycle_condition,
)
from .facets import (
    Facet,
    cone_dimension,
    facets,
    fundamental_sets,
    generators_on_facet,
    is_regular_vertex,
)
from .families import (
    FamilyGraph,
    add_cross_edges,
    build_gab,
    cross_pairs,
    family_graph,
    graph_for_theorem,
    max_family_edges,
    max_theorem_edges,
    removal_schedule,
    theorem_edge_range,
)
from .graph import (
    Edge,
    Graph,
    GraphFormatError,
    UnsupportedGraphError,
    VertexSet,
    connected_components,
    delete_vertex,
    is_connected,
    parse_graph,
    write_graph,
)
from .semigroup import (
    ExclusionCertificate,
    MembershipWitness,
    Vector,
    gap_elements,
    in_S,
    in_cone,
    in_lattice,
    in_sbar,
    normalization_generators,
)
from .serre import (
    BoundedMembership,
    ClassificationReport,
    HkWitness,
    LocalizationMembership,
    classify,
    hk_not_s2,
    in_localization,
    in_SF_bounded,
    vertex_parity_certificate,
)

__version__ = "0.1.0"
