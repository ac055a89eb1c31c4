"""Relative-multiplexing simulation toolkit."""

from .streams import PhotonStream, generate_stream, occupancy
from .delay_network import DelayNetwork, RoutingRequest, depth_for_bins, max_delay, route
from .matching import (
    Matching,
    MatchMetrics,
    WeightMatrix,
    build_assignment_matrix,
    hungarian_min_assignment,
    matching_metrics,
    resolve_clashes_optimal,
    sliding_window_match,
)
from .mux_analytics import MuxReport, MuxStage, ghz_report, required_repetitions, unused_potential
from .mux_sim import (
    BellStats,
    StrategyStats,
    simulate_bell_rmux,
    simulate_bell_standard,
    simulate_bell_sweep,
    simulate_two_stream,
)
from .percolation import (
    DiamondLattice,
    LatticeState,
    OutcomeSemantics,
    calibrated_semantics,
    classify_photon,
    fusion_loss_probability,
    loss_threshold,
    percolation_probability,
    sample_lattice_state,
    spans,
    tradeoff_frontier,
)

__version__ = "0.1.0"
