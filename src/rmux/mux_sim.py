"""Monte Carlo experiments on photon streams.

Two experiment families: matching statistics for the three two-stream
strategies as a function of switch count, and Bell-state generation rates
for the standard scheme (synchronize everything to fixed window slots,
keep one success per window) against the relative scheme (pair events
wherever they land, cascade pairwise).

Switch budgets count total physical switches in the apparatus. The standard
scheme delays all four photon streams plus the gate output, so a split with
per-stream depth s1 and output depth s2 costs 4*s1 + s2 switches; the
relative scheme only delays one stream of each pair and one derived event
stream, costing 2*s1 + s2. Budgets are maximized over feasible splits.

All repetitions derive child seeds from a single SeedSequence, so runs are
reproducible and schemes can be compared on identical stream data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .delay_network import DelayNetwork, max_delay
from .matching import (
    build_assignment_matrix,
    count_clashing_pairs,
    hungarian_min_assignment,
    matching_metrics,
    resolve_clashes_optimal,
    sliding_window_match,
)
from .streams import PhotonStream, generate_stream, stream_from_bins

STRATEGIES = ("hungarian_no_clash", "hungarian_with_clash", "realistic")
BELL_GATE_PROB = 1.0 / 8.0


@dataclass(frozen=True)
class StrategyStats:
    strategy: str
    switch_count: int
    matched_fraction_mean: float
    matched_fraction_stderr: float
    clash_rate_mean: float
    out_of_range_mean: float
    total_weight_mean: float


@dataclass(frozen=True)
class BellStats:
    scheme: str                   # "standard" | "rmux"
    total_switches: int
    bells_per_bin: float
    stderr: float
    reps: int
    best_split: tuple             # (per-stream stage-1 depth, stage-2 depth)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def match_streams(s1: PhotonStream, s2: PhotonStream, network: DelayNetwork,
                  strategy: str):
    """Run one strategy on a stream pair; returns (Matching, MatchMetrics).

    ``clash_rate`` is the pairs implicated in a ``route`` clash over all
    pairs for ``hungarian_no_clash``, which keeps them (so it depends on
    which equal-cost pairing the solver returns), and the pairs dropped for
    a clash over kept plus dropped pairs for the other strategies.
    """
    d_max = network.max_delay
    if strategy == "realistic":
        m = sliding_window_match(s1, s2, d_max, network)
        return m, matching_metrics(m, s1, s2)
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    W = build_assignment_matrix(s1, s2, d_max)
    m = hungarian_min_assignment(W)
    if strategy == "hungarian_no_clash":
        met = matching_metrics(m, s1, s2)
        # Clashes are ignored here, but their prevalence is still reported.
        n_clashing = count_clashing_pairs(m, network)
        met.clash_rate = n_clashing / len(m.pairs) if m.pairs else 0.0
        return m, met
    resolved = resolve_clashes_optimal(m, W, network)
    return resolved, matching_metrics(resolved, s1, s2)


def _stream_seeds(child: np.random.SeedSequence, count: int):
    return [int(x) for x in child.generate_state(count, dtype=np.uint64)]


def simulate_two_stream(p: float, s: int, n_bins: int, strategy: str,
                        reps: int, seed: int) -> StrategyStats:
    """Aggregate matching metrics over independent stream-pair repetitions."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    network = DelayNetwork(s)
    children = np.random.SeedSequence(seed).spawn(reps)
    matched = np.empty(reps)
    clash = np.empty(reps)
    oor = np.empty(reps)
    weight = np.empty(reps)
    for r, child in enumerate(children):
        seed1, seed2 = _stream_seeds(child, 2)
        s1 = generate_stream(p, n_bins, seed1)
        s2 = generate_stream(p, n_bins, seed2)
        m, met = match_streams(s1, s2, network, strategy)
        matched[r] = met.matched_fraction
        clash[r] = met.clash_rate
        oor[r] = met.out_of_range_fraction
        weight[r] = m.total_weight
    return StrategyStats(
        strategy=strategy,
        switch_count=s,
        matched_fraction_mean=float(matched.mean()),
        matched_fraction_stderr=_stderr(matched),
        clash_rate_mean=float(clash.mean()),
        out_of_range_mean=float(oor.mean()),
        total_weight_mean=float(weight.mean()),
    )


def _splits(networks: int, s_total: int):
    """Feasible (s1, s2): `networks` first-stage networks of s1 switches each
    plus one second-stage network of s2 >= 1 switches."""
    return [(s1, s_total - networks * s1)
            for s1 in range(1, (s_total - 1) // networks + 1)]


def standard_splits(s_total: int):
    """Feasible (s1, s2) with 4 first-stage networks + 1 output network."""
    return _splits(4, s_total)


def rmux_splits(s_total: int):
    """Feasible (s1, s2) with 2 first-stage networks + 1 second-stage network."""
    return _splits(2, s_total)


def _standard_rate(streams, s1: int, s2: int, gate_rng) -> float:
    """Delivered Bell states per bin for one (s1, s2) split.

    Stage 1: each stream relocates at most one photon per w1-bin window to
    the window boundary slot. Stage 2: windows where all four streams
    delivered attempt the gate (success 1/8); the output network delivers
    at most one success per w2-window group to its fixed slot.
    """
    n_bins = streams[0].n_bins
    w1 = max_delay(s1) + 1
    w2 = max_delay(s2) + 1
    n_windows = n_bins // w1
    if n_windows == 0:
        return 0.0
    have = np.ones(n_windows, dtype=bool)
    for st in streams:
        occ = st.bins[:n_windows * w1].reshape(n_windows, w1).any(axis=1)
        have &= occ
    success = have & (gate_rng.random(n_windows) < BELL_GATE_PROB)
    n_groups = n_windows // w2
    if n_groups == 0:
        return 0.0
    delivered = success[:n_groups * w2].reshape(n_groups, w2).any(axis=1).sum()
    return float(delivered) / n_bins


def _rmux_rate(streams, s1: int, s2: int, gate_rng) -> float:
    """Accepted Bell states per bin for one (s1, s2) split.

    Streams 1-2 and 3-4 are paired by the sliding-window strategy; each
    synchronized pair becomes an event at the later photon's bin. The two
    event streams are paired again through the second-stage network, and
    every surviving quadruple attempts the gate independently.
    """
    n_bins = streams[0].n_bins
    net1 = DelayNetwork(s1)
    net2 = DelayNetwork(s2)
    d1 = net1.max_delay

    def events(a: PhotonStream, b: PhotonStream) -> PhotonStream:
        m = sliding_window_match(a, b, d1, net1)
        ev = np.zeros(n_bins, dtype=bool)
        for _b1, b2, _d in m.pairs:
            ev[b2] = True
        return stream_from_bins(ev)

    ev_a = events(streams[0], streams[1])
    ev_b = events(streams[2], streams[3])
    quads = sliding_window_match(ev_a, ev_b, net2.max_delay, net2)
    n_quads = len(quads.pairs)
    if n_quads == 0:
        return 0.0
    accepted = int((gate_rng.random(n_quads) < BELL_GATE_PROB).sum())
    return accepted / n_bins


def _simulate_bell(scheme: str, p1: float, s_total: int, n_bins: int,
                   reps: int, seed: int) -> BellStats:
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if s_total < 2:
        raise ValueError(f"s_total must be >= 2, got {s_total}")
    # Built per call, so a rebound rate function (a tracer's wrapper) is used.
    networks, rate_fn = {"standard": (4, _standard_rate),
                         "rmux": (2, _rmux_rate)}[scheme]
    splits = _splits(networks, s_total)
    if not splits:
        raise ValueError(
            f"no feasible stage split for scheme {scheme!r} with "
            f"{s_total} switches")
    children = np.random.SeedSequence(seed).spawn(reps)
    rates = np.zeros((len(splits), reps))
    for r, child in enumerate(children):
        stream_seeds = _stream_seeds(child, 4)
        streams = [generate_stream(p1, n_bins, sd) for sd in stream_seeds]
        gate_seeds = child.spawn(len(splits))
        for i, (s1, s2) in enumerate(splits):
            gate_rng = np.random.Generator(np.random.PCG64(gate_seeds[i]))
            rates[i, r] = rate_fn(streams, s1, s2, gate_rng)
    means = rates.mean(axis=1)
    best = int(np.argmax(means))
    return BellStats(
        scheme=scheme,
        total_switches=s_total,
        bells_per_bin=float(means[best]),
        stderr=_stderr(rates[best]),
        reps=reps,
        best_split=splits[best],
    )


def simulate_bell_standard(p1: float, s_total: int, n_bins: int, reps: int,
                           seed: int) -> BellStats:
    """Standard concatenated multiplexing, optimized over stage splits."""
    return _simulate_bell("standard", p1, s_total, n_bins, reps, seed)


def simulate_bell_rmux(p1: float, s_total: int, n_bins: int, reps: int,
                       seed: int) -> BellStats:
    """Relative multiplexing cascade, optimized over stage splits."""
    return _simulate_bell("rmux", p1, s_total, n_bins, reps, seed)
