"""Closed-form accounting for concatenated standard multiplexing.

`required_repetitions` is the repetition count that lifts a probabilistic
operation to a target probability, and a binary switching network rounds it
up to a power of two (`delay_network.depth_for_bins`). `ghz_report` chains
a single-photon stage into the six-photon 3-GHZ gate, the whole
near-deterministic generator, and `unused_potential` finds the stage
targets that waste least of its surplus, which relative multiplexing later
recovers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .delay_network import depth_for_bins

GATE_PROB_3GHZ = 1.0 / 32.0     # heralded success of the six-photon generator
PHOTONS_PER_GHZ = 6
STAGE_P_MIN, STAGE_P_MAX = 0.8, 0.99   # the optimizer's stage-target grid
# The highest overall target on that grid: both stages at STAGE_P_MAX.
P_S_REACH = STAGE_P_MAX ** PHOTONS_PER_GHZ * STAGE_P_MAX


@dataclass(frozen=True)
class MuxStage:
    input_prob: float
    target_prob: float
    k: int                       # repetitions required
    k_up: int                    # power-of-two rounding of k
    depth: int                   # switch-network depth
    potential_mean: float        # mean resource states producible from all bins


@dataclass(frozen=True)
class MuxReport:
    stages: tuple
    combined_prob: float         # product over all parallel streams and stages
    combined_depth: int
    bins_per_stream: int
    total_bins: int              # across all parallel streams
    potential_photons_mean: float
    potential_ghz_mean: float


def required_repetitions(eta: float, p_s: float) -> int:
    """Smallest k with 1 - (1 - eta)^k >= p_s."""
    if not 0.0 < eta <= 1.0:
        raise ValueError(f"eta must be in (0, 1], got {eta}")
    if not 0.0 < p_s < 1.0:
        raise ValueError(f"p_s must be in (0, 1), got {p_s}")
    if eta == 1.0:
        return 1
    # Closed form with a local integer correction for float roundoff.
    k = max(1, math.ceil(math.log1p(-p_s) / math.log1p(-eta)))
    while 1.0 - (1.0 - eta) ** k < p_s:
        k += 1
    while k > 1 and 1.0 - (1.0 - eta) ** (k - 1) >= p_s:
        k -= 1
    return k


def grid(lo: float, hi: float, step: float) -> list:
    """lo, lo + step, ... up to the last point at or below hi (to within
    float roundoff), each rounded to 10 decimals."""
    n_steps = math.floor((hi - lo) / step + 1e-9)
    return [round(lo + i * step, 10) for i in range(n_steps + 1)]


def _stage(input_prob: float, target_prob: float,
           potential_per_bin: float) -> MuxStage:
    k = required_repetitions(input_prob, target_prob)
    k_up, depth = depth_for_bins(k)
    return MuxStage(input_prob=input_prob, target_prob=target_prob,
                    k=k, k_up=k_up, depth=depth,
                    potential_mean=k_up * potential_per_bin)


def ghz_report(eta: float, p1: float, p2: float) -> MuxReport:
    """Two-stage resource accounting for one near-deterministic 3-GHZ state.

    Stage 1 boosts each of the PHOTONS_PER_GHZ sources from eta to p1;
    stage 2 the GATE_PROB_3GHZ gate to p2. Resource potentials count the
    states the occupied bins could have produced on average.
    """
    for name, target in (("p1", p1), ("p2", p2)):
        if not 0.0 < target < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {target}")
    stage1 = _stage(eta, p1, potential_per_bin=eta)
    stage2 = _stage(GATE_PROB_3GHZ, p2, potential_per_bin=GATE_PROB_3GHZ)
    bins_per_stream = stage1.k_up * stage2.k_up
    potential_photons = bins_per_stream * PHOTONS_PER_GHZ * eta
    potential_ghz = potential_photons / PHOTONS_PER_GHZ * GATE_PROB_3GHZ
    return MuxReport(
        stages=(stage1, stage2),
        combined_prob=p1 ** PHOTONS_PER_GHZ * p2,
        combined_depth=stage1.depth + stage2.depth,
        bins_per_stream=bins_per_stream,
        total_bins=bins_per_stream * PHOTONS_PER_GHZ,
        potential_photons_mean=potential_photons,
        potential_ghz_mean=potential_ghz,
    )


def unused_potential(eta: float, p_s: float):
    """Cheapest (p1, p2) stage targets that still reach overall p_s.

    Grid search over stage probabilities in [STAGE_P_MIN, STAGE_P_MAX] with
    step 0.01, feasibility p1^PHOTONS_PER_GHZ * p2 >= p_s, minimizing the
    mean number of surplus GHZ states (producible states beyond the one
    kept). This grid reproduces the published operating points.

    Returns (best_p1, best_p2, wasted_ghz_mean, k_up1, k_up2).
    """
    ps = grid(STAGE_P_MIN, STAGE_P_MAX, 0.01)
    best = None
    for p1 in ps:
        if p1 ** PHOTONS_PER_GHZ * ps[-1] < p_s:
            continue
        for p2 in ps:
            if p1 ** PHOTONS_PER_GHZ * p2 < p_s:
                continue
            report = ghz_report(eta, p1, p2)
            wasted = report.potential_ghz_mean - 1.0
            key = (wasted, report.total_bins, p1, p2)
            if best is None or key < best[0]:
                best = (key, p1, p2, report)
            break  # p2 grid is ascending; larger p2 never costs less k_up2
    if best is None:
        raise ValueError(f"no (p1, p2) on the grid reaches p_s={p_s} (max "
                         f"{P_S_REACH:.4f})")
    _, p1, p2, report = best
    return (p1, p2, report.potential_ghz_mean - 1.0,
            report.stages[0].k_up, report.stages[1].k_up)
