"""Sublinear-query edge estimation with non-adaptive, metered graph access."""

from .buckets import BucketConfig, bucket_count
from .estimator import (
    BRANCH_COLLISION,
    BRANCH_FAILED,
    BRANCH_NON_COLLISION,
    BRANCH_ZERO_EDGES,
    EstimateReport,
    EstimatorParams,
    HeavySet,
    PlanLayout,
    build_sample_plan,
    choose_endpoints,
    classify_heavy,
    collision_edge_estimate,
    collision_majority_vote,
    count_collisions,
    estimate_edges,
    heavy_fraction_estimate,
    heavy_mass_estimate,
    plan_layout,
    resolved_params,
)
from .exact import (
    HeavyLightDecomposition,
    exact_bucket_sizes,
    exact_heavy_degree_mass,
    exact_heavy_fraction,
    heavy_light_decomposition,
    heavy_vertex_mask,
)
from .experiments import (
    DistinguishResult,
    PhBoundStats,
    QueryBudgetError,
    TrialConfig,
    TrialStats,
    run_accuracy_trials,
    run_distinguishing_experiment,
    run_ph_bound_check,
    run_query_budget_check,
    write_experiment_files,
)
from .generators import (
    LowerBoundInstance,
    gen_clique_plus_isolated,
    gen_gnm,
    gen_lowerbound_instance,
    gen_path,
    gen_skewed,
    gen_star,
    graph_from_spec,
    load_graph,
)
from .graph import (
    EdgeListParseError,
    Graph,
    GraphValidationError,
    build_graph,
    read_edge_list,
    write_edge_list,
)
from .oracle import (
    DegreeCodes,
    EmptyGraphError,
    PlanProvenance,
    QueryLedger,
    QueryPlan,
    Transcript,
    answer_degree_codes,
    answer_degrees,
    answer_plan,
    answer_rand_edge_ids,
    answer_rand_edges,
    audit_nonadaptive,
    plan_from_blocks,
    rand_edge_block,
)
from .seeding import derive_rng, derive_seed

__version__ = "0.1.0"
