"""iglab: a laboratory for interest-overlap random graphs.

Library + CLI implementing the composed model (d-overlap rings, friendship
layer, link-survival layer), its exact and asymptotic edge probabilities,
k-connectivity resilience checks, critical-parameter solvers, and a
deterministic Monte-Carlo experiment harness.
"""

__version__ = "0.1.0"

from .graph import (
    GraphTopology,
    connected_components,
    degree_histogram,
    intersect_graphs,
    min_degree,
)
from .theory import (
    ModelParams,
    alpha_from_params,
    approx_edge_prob_overlap,
    check_regime,
    edge_prob_model,
    edge_prob_overlap,
    edge_prob_overlap_exact,
    poisson_degree_mean,
    poisson_pmf,
    predicted_limit_prob,
    solve_critical,
)
from .generators import (
    ObjectAssignment,
    coupling_threshold_x,
    gen_coupled_pair,
    gen_er,
    gen_model_graph,
    gen_object_rings_binomial,
    gen_object_rings_uniform,
    graph_from_rings,
    trial_rng,
)
from .connectivity import (
    ResilienceVerdict,
    assess_resilience,
    brute_force_k_connected,
    is_connected,
    is_k_connected,
    min_degree_at_least,
    remove_nodes,
    survives_node_failures,
    vertex_connectivity,
)
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    coupling_validity_rate,
    degree_law_test,
    dominance_test,
    gap_test,
    run_resilience_trials,
    sweep_experiment,
    wilson_interval,
)
