"""Surface embeddings, obstruction patterns, and dichotomy engines for
finite graphs: rotation-system genus, minor search with verifiable
witness models, a catalog of marked obstruction patterns with sigma
conversion, relative outerplanarity, planar decompositions, and the
classify pipeline tying them together."""

from .core import (
    Graph,
    MarkedGraph,
    PathSystem,
    SearchTimeout,
    blocks,
    complete_bipartite,
    complete_graph,
    cone,
    contract,
    cycle_graph,
    disjoint_union,
    identify_vertices,
    max_disjoint_paths,
    minimal_connecting_forest,
    norm_edge,
    path_graph,
)
from .decompose import (
    Decomposition,
    contraction_planarize,
    genus_bound,
    overlap_report,
    verify_decomposition,
)
from .dichotomy import (
    ClassifyReport,
    CombStructure,
    DichotomyOutcome,
    almost_outerplanar_dichotomy,
    classify,
    forest_contract_dichotomy,
    forest_edge_dichotomy,
    planar_vertex_flaws,
    star_comb,
    two_connected_structures,
    two_star_search,
    verify_comb,
)
from .embeddings import (
    BudgetExceeded,
    GenusResult,
    KuratowskiWitness,
    PlanarityResult,
    RotationSystem,
    genus_additivity,
    genus_of_rotation,
    is_planar,
    min_genus,
    planarity,
    trace_faces,
    validate_rotation,
    verify_kuratowski,
)
from .iso import are_isomorphic, find_isomorphism
from .minors import (
    MarkedMinorModel,
    MinorModel,
    MinorResult,
    PackResult,
    find_marked_minor,
    find_minor,
    pack_bouquet,
    pack_disjoint,
    verify_marked_model,
    verify_model,
)
from .outerplanarity import (
    DoubleStarResult,
    NonPlanarInput,
    RelativeGenusResult,
    SuResult,
    ThetaWitness,
    double_star_search,
    extract_theta,
    is_u_outerplanar,
    relative_genus,
    su_obstruction,
    u_star_search,
)
from .patterns import (
    CatalogReport,
    CatalogRow,
    ConversionResult,
    PatternId,
    aux_pattern,
    build_pattern,
    convert_to_sigma,
    omega_theta,
    sigma,
    theta,
    u_pattern,
    verify_catalog,
)

__all__ = [name for name in dir() if not name.startswith("_")]
