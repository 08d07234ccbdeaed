"""Consensusability toolkit for linear interconnected multi-agent systems.

Decide whether N identical linear agents, coupled through a physical graph
and controlled through a communication graph with one shared static gain,
can be driven to consensus; synthesize and verify that gain when the
sufficient condition holds; refute consensusability through the necessary
condition; and validate every verdict by direct spectral checks and
closed-loop simulation.
"""

from .analysis import (
    AlphaSpectrum,
    AnalysisReport,
    AssumptionCheck,
    LimasModel,
    MareSolution,
    NecessaryResult,
    ScalarResult,
    SufficientResult,
    SynthesisResult,
    alpha_spectrum,
    analyze,
    check_modal_controllability,
    check_proportional_coupling,
    modal_radii,
    necessary_check,
    scalar_check,
    sigma_critical,
    solve_mare,
    sufficient_check,
    synthesize_gain,
)
from .graphs import (
    SpectralPair,
    WeightedGraph,
    commute_check,
    is_connected,
    laplacian,
    simultaneous_diagonalize,
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
    "AlphaSpectrum",
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
    "SynthesisResult",
    "Trajectory",
    "WeightedGraph",
    "alpha_spectrum",
    "analyze",
    "check_modal_controllability",
    "check_proportional_coupling",
    "closed_loop_matrix",
    "commute_check",
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
    "sigma_critical",
    "simulate",
    "simultaneous_diagonalize",
    "solve_mare",
    "sufficient_check",
    "synthesize_gain",
    "verify_gain",
]
