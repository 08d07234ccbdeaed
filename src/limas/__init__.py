"""Consensusability toolkit for linear interconnected multi-agent systems.

Decide whether N identical linear agents, coupled through a physical graph
and controlled through a communication graph with one shared static gain,
can be driven to consensus; synthesize and verify that gain when the
sufficient condition holds; refute consensusability through the necessary
condition; and validate every verdict by direct spectral checks and
closed-loop simulation.
"""

from .analysis import (
    AnalysisReport,
    AssumptionCheck,
    LimasModel,
    MareSolution,
    NecessaryResult,
    ScalarResult,
    SufficientResult,
    analyze,
    modal_radii,
    necessary_check,
    scalar_check,
    solve_mare,
    sufficient_check,
)
from .graphs import (
    SpectralPair,
    WeightedGraph,
    is_connected,
    laplacian,
)
from .model_io import load_model, model_from_dict, model_to_dict, save_model
from .oracle import (
    GainVerification,
    GridSearchResult,
    projected_deviation_matrix,
    scalar_grid_search,
    verify_gain,
)
from .simulator import (
    ConvergenceMetrics,
    Trajectory,
    closed_loop_matrix,
    convergence_metrics,
    initial_state,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "AssumptionCheck",
    "ConvergenceMetrics",
    "GainVerification",
    "GridSearchResult",
    "LimasModel",
    "MareSolution",
    "NecessaryResult",
    "ScalarResult",
    "SpectralPair",
    "SufficientResult",
    "Trajectory",
    "WeightedGraph",
    "analyze",
    "closed_loop_matrix",
    "convergence_metrics",
    "initial_state",
    "is_connected",
    "laplacian",
    "load_model",
    "modal_radii",
    "model_from_dict",
    "model_to_dict",
    "necessary_check",
    "projected_deviation_matrix",
    "save_model",
    "scalar_check",
    "scalar_grid_search",
    "simulate",
    "solve_mare",
    "sufficient_check",
    "verify_gain",
]
