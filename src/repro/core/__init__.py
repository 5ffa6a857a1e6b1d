"""MixNet core: demand monitoring, Algorithm 1, Copilot prediction, the
collective-communication manager, regional controllers, failure handling and
the end-to-end training runtime."""

from repro.core.collective import (
    all_to_all_lower_bound,
    delegation_assignments,
    ep_all_to_all_flows,
    hierarchical_all_reduce_flows,
    pp_point_to_point_flows,
    ring_all_reduce_flows,
    ring_all_reduce_time,
    tp_all_reduce_time,
)
from repro.core.controller import ReconfigurationDecision, RegionalTopologyController
from repro.core.demand import (
    DemandSnapshot,
    TrafficMonitor,
    rank_to_server_demand,
    symmetrize_upper,
)
from repro.core.failures import (
    FailureEffects,
    FailureKind,
    FailureScenario,
    apply_effects_to_region,
    resolve_effects,
)
from repro.core.prediction import (
    MixNetCopilot,
    PredictionReport,
    estimate_transition_matrix,
    project_to_simplex,
)
from repro.core.reconfigure import (
    CircuitAllocation,
    calculate_server_demand,
    find_bottleneck_link,
    reconfigure_ocs,
    uniform_allocation,
)
from repro.core.runtime import (
    FIRST_A2A_POLICIES,
    IterationResult,
    RuntimeOptions,
    TrainingSimulator,
    normalized_iteration_times,
    simulate_fabrics,
)

__all__ = [
    "all_to_all_lower_bound",
    "delegation_assignments",
    "ep_all_to_all_flows",
    "hierarchical_all_reduce_flows",
    "pp_point_to_point_flows",
    "ring_all_reduce_flows",
    "ring_all_reduce_time",
    "tp_all_reduce_time",
    "ReconfigurationDecision",
    "RegionalTopologyController",
    "DemandSnapshot",
    "TrafficMonitor",
    "rank_to_server_demand",
    "symmetrize_upper",
    "FailureEffects",
    "FailureKind",
    "FailureScenario",
    "apply_effects_to_region",
    "resolve_effects",
    "MixNetCopilot",
    "PredictionReport",
    "estimate_transition_matrix",
    "project_to_simplex",
    "CircuitAllocation",
    "calculate_server_demand",
    "find_bottleneck_link",
    "reconfigure_ocs",
    "uniform_allocation",
    "FIRST_A2A_POLICIES",
    "IterationResult",
    "RuntimeOptions",
    "TrainingSimulator",
    "normalized_iteration_times",
    "simulate_fabrics",
]
