"""pathdom: exact domination numbers under path addition.

The library answers, for a graph G and a vertex pair (u, v), how the
domination number responds when a path with k internal vertices is glued
between u and v.  It answers twice: by exact search on the modified
graph, and by closed-form prediction rules that never touch it.  A
verification harness machine-checks that the two routes agree on whole
corpora of graphs.
"""

from .domination import (
    DominationReport,
    all_minimum_sets_cliques,
    classify_vertices,
    clear_caches,
    constrained_domination_number,
    domination_number,
    domination_number_at_most,
    independent_domination_number,
    is_dominating,
    minimum_dominating_set,
    private_neighbors,
    shares_minimum_set,
)
from .families import (
    FamilySpec,
    cartesian_product,
    circulant,
    complete,
    complete_bipartite,
    corona,
    crown,
    cycle,
    edgeless,
    generalized_petersen,
    generate_family,
    join,
    parse_family_spec,
    path,
    rook,
    star,
)
from .formats import (
    GraphFormatError,
    emit_edge_list,
    emit_graph6,
    load_graphs,
    parse_edge_list,
    parse_graph6,
)
from .graphs import (
    Graph,
    edge_mask,
    enumerate_labeled_graphs,
    from_edge_mask,
    subdivide_edge,
)
from .oracle import (
    AggregateCharacterization,
    Prediction,
    RegionClass,
    all_nonadjacent_pa_three,
    characterize_aggregates,
    classify_regions,
    predict_pair,
)
from .path_addition import (
    INFINITE,
    PaProfile,
    SolverInconsistencyError,
    add_path,
    check_sum_bounds,
    domination_after_path,
    path_addition_number,
    path_addition_profile,
)
from .verify import CorpusSpec, SUITES, VerificationReport, iter_corpus, run_verification

__version__ = "0.1.0"
