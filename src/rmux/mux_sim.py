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

A two-stream sweep runs blocks of consecutive repetitions (`_match_all`).
Each repetition samples its two streams once; one difference matrix gives
the weights of every switch count, and one assignment per (repetition,
count) serves both Hungarian strategies. One `clash_rows` scan per block
finds the assignments that clash: assignment i's pairs sit at offset
i * stride on one time axis (a forced path stays in bins b1..b2, and stride
exceeds every b2) and route through the largest count's network. With the
networks' stages ascending (the default), a delay that s switches reach
takes the same bins and rails there through switch s-1, leaving on rail 0
as at the output switch, then stays in its output bin on rail 0: the same
requests meet and clash. Only the assignments that clash are repaired
(hungarian_with_clash) or counted through `route` (hungarian_no_clash's
clash_rate, else 0). The repair runs in lockstep over the block's clashing
assignments: each round scans all those still being repaired at once, the
same way, and takes one repair step of each. Discards are classified once,
on each final matching. A block closes once it holds MATCH_BLOCK_PHOTONS
photons (or BLOCK_BINS stream bins): its per-call overheads are shared,
its memory does not grow with the repetition count, and a block's work
stays a few milliseconds between stream draws.

A Bell sweep over several budgets shares its samples. Repetition r samples
its four streams once from child r. Split i = s1 - 1 of every scheme and
budget reads a prefix of one array of n_bins gate draws from spawn key
(r, i) of that child: no split attempts more than n_bins gates, and a
fresh generator's first n draws do not depend on n. Stage 1 (the relative
scheme's two event streams, the standard scheme's window occupancy) depends
only on (r, s1): it runs once per s1, and stage 2 runs per (budget, split).
Results equal those of simulating each budget on its own.

The sweep runs consecutive repetitions as blocks laid end to end on one
time axis: bin b of the block's repetition r sits at 2 * r * n_bins + b.
No pair needs more than n_bins - 1 bins of delay, so each window's reach is
capped there. A pair and its forced path then stay within their repetition,
so no pair and no clash crosses repetitions, and each window stage runs
once per block. A block closes once it holds BLOCK_PHOTONS photons or
BLOCK_BINS stream bins, so memory does not grow with the repetition count.
Each repetition still draws its gate from its own (r, i) key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .delay_network import DelayNetwork, max_delay
from .matching import (
    Matching,
    _assignment_pairs,
    _conflicts_each,
    _discards,
    _repair_all,
    _weight_matrices,
    _window_core,
    count_clashing_pairs,
    matching_metrics,
    sliding_window_match,
)
# Not called here since the sweep solves through `_assignment_pairs`; still
# bound for code that finds the solver in this module (perfbench's tracer
# rebinds it in every rmux module that imports it).
from .matching import hungarian_min_assignment  # noqa: F401
from .streams import PhotonStream, generate_stream

STRATEGIES = ("hungarian_no_clash", "hungarian_with_clash", "realistic")
BELL_GATE_PROB = 1.0 / 8.0
# A block of repetitions closes once it holds this many photons, in a Bell
# sweep or in a two-stream sweep, or this many stream bins (which bound it
# when the source is nearly dark). A two-stream block holds every matrix and
# matching of its repetitions; past about 8 repetitions at p = 0.1 and 200
# bins it runs no faster and only holds more.
BLOCK_PHOTONS = 16_000
MATCH_BLOCK_PHOTONS = 320
BLOCK_BINS = 1 << 20


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


def _checked(values, what: str, plural: str, known=None) -> list:
    """`values` as a nonempty list of distinct entries (of `known` if set)."""
    values = list(values)
    if not values:
        raise ValueError(f"{plural} must name at least one {what}")
    for value in values:
        if known is not None and value not in known:
            raise ValueError(f"unknown {what} {value!r}")
        if values.count(value) > 1:
            raise ValueError(f"{what} {value} is repeated")
    return values


def match_streams(s1: PhotonStream, s2: PhotonStream, network: DelayNetwork,
                  strategy: str):
    """Run one strategy on a stream pair; returns (Matching, MatchMetrics).

    ``clash_rate`` is the pairs implicated in a ``route`` clash over all
    pairs for ``hungarian_no_clash``, which keeps them (0 with no ``route``
    call if the clash scan finds none; it depends on the solver's tie-break),
    and the pairs dropped for a clash over kept plus dropped pairs otherwise.
    """
    return _match_all([(s1, s2)], [network], [strategy])[strategy][0][0]


def _repetitions(p: float, n_bins: int, reps: int, seed: int, n_streams: int):
    """(child, streams) of repetition r: child r of SeedSequence(seed), whose
    first generated words seed the repetition's `n_streams` streams."""
    for child in np.random.SeedSequence(seed).spawn(reps):
        words = child.generate_state(n_streams, dtype=np.uint64)
        yield child, [generate_stream(p, n_bins, int(w)) for w in words]


def _batches(p: float, n_bins: int, reps: int, seed: int, n_streams: int,
             photons: int):
    """Lists of consecutive `_repetitions`, each closed once it holds
    `photons` photons or BLOCK_BINS stream bins."""
    batch, count = [], 0
    for child, rep in _repetitions(p, n_bins, reps, seed, n_streams):
        batch.append((child, rep))
        count += sum(st.photon_count for st in rep)
        if count >= photons or n_streams * n_bins * len(batch) >= BLOCK_BINS:
            yield batch
            batch, count = [], 0
    if batch:
        yield batch


def _match_all(stream_pairs, networks, strategies) -> dict:
    """{strategy: [[(Matching, MatchMetrics) per network] per stream pair]}
    of a block of stream pairs, with the strategies in the order given and
    each as `match_streams` runs it. Several networks need ascending stages
    (see the module docstring)."""
    strategies = _checked(strategies, "strategy", "strategies", STRATEGIES)
    matchings = {}
    if "realistic" in strategies:
        matchings["realistic"] = [
            sliding_window_match(st1, st2, net.max_delay, net)
            for st1, st2 in stream_pairs for net in networks]
    if {"hungarian_no_clash", "hungarian_with_clash"}.intersection(strategies):
        # Instance i is stream pair i // len(networks) at network
        # i % len(networks).
        d_maxes = [net.max_delay for net in networks]
        weights = [W for st1, st2 in stream_pairs
                   for W in _weight_matrices(st1.occupied_bins,
                                             st2.occupied_bins, st2.n_bins,
                                             d_maxes)]
        found = [_assignment_pairs(W) for W in weights]
        largest = max(networks, key=lambda net: net.s)
        clashing = [i for i, conflicts in enumerate(_conflicts_each(
            found, largest)) if conflicts]
        repaired = {}
        if "hungarian_with_clash" in strategies:
            repaired = dict(zip(clashing, _repair_all(
                [(found[i], weights[i]) for i in clashing], largest)))
        # Discards are classified once per final matching: a repaired
        # assignment gets its own only if hungarian_no_clash reads it.
        no_clash = "hungarian_no_clash" in strategies
        assigned = [Matching(pairs, _discards(W.row_bins, W.col_bins, pairs))
                    if no_clash or i not in repaired else None
                    for i, (pairs, W) in enumerate(zip(found, weights))]
        matchings["hungarian_no_clash"] = assigned
        matchings["hungarian_with_clash"] = [repaired.get(i, m)
                                             for i, m in enumerate(assigned)]
    results = {}
    for strategy in strategies:
        flat = [(m, matching_metrics(m, *stream_pairs[i // len(networks)]))
                for i, m in enumerate(matchings[strategy])]
        if strategy == "hungarian_no_clash":
            for i in clashing:
                # Clashes are ignored here, but their prevalence is still
                # reported.
                m, met = flat[i]
                met.clash_rate = (count_clashing_pairs(
                    m, networks[i % len(networks)]) / len(m.pairs))
        results[strategy] = [flat[i:i + len(networks)]
                             for i in range(0, len(flat), len(networks))]
    return results


def simulate_two_stream(p: float, switches, n_bins: int, strategies,
                        reps: int, seed: int) -> dict:
    """StrategyStats by (strategy, switch count), strategies then counts in
    the order given, over the same stream-pair repetitions. Every argument
    is checked before anything is sampled. Repetitions run in blocks (see
    the module docstring)."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    strategies = _checked(strategies, "strategy", "strategies", STRATEGIES)
    switches = _checked(switches, "switch count", "switches")
    networks = [DelayNetwork(s) for s in switches]
    # [strategy, count, (matched, clash, out of range, weight), repetition]
    values = np.empty((len(strategies), len(switches), 4, reps))
    r0 = 0
    for batch in _batches(p, n_bins, reps, seed, 2, MATCH_BLOCK_PHOTONS):
        results = _match_all([rep for _child, rep in batch], networks,
                              strategies).values()
        for i, by_rep in enumerate(results):
            values[i, :, :, r0:r0 + len(batch)] = np.transpose(
                [[(met.matched_fraction, met.clash_rate,
                   met.out_of_range_fraction, m.total_weight)
                  for m, met in by_count] for by_count in by_rep], (1, 2, 0))
        r0 += len(batch)
    return {(strategy, s): StrategyStats(
                strategy, s, float(matched.mean()), _stderr(matched),
                float(clash.mean()), float(oor.mean()), float(weight.mean()))
            for strategy, by_count in zip(strategies, values)
            for s, (matched, clash, oor, weight) in zip(switches, by_count)}


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


class _Block(NamedTuple):
    """Consecutive repetitions on one time axis: bin b of repetition r of
    the block sits at 2 * r * n_bins + b."""

    streams: list                 # each repetition's four streams
    n_bins: int

    def shifted(self, j: int) -> np.ndarray:
        """Stream j's occupied bins of all repetitions, on the block's axis."""
        return np.concatenate([st[j].occupied_bins + 2 * r * self.n_bins
                               for r, st in enumerate(self.streams)])


def _blocks(p1: float, n_bins: int, reps: int, seed: int):
    """(children, _Block) of consecutive repetitions, closing each block at
    BLOCK_PHOTONS photons or BLOCK_BINS stream bins."""
    for batch in _batches(p1, n_bins, reps, seed, 4, BLOCK_PHOTONS):
        yield ([child for child, _rep in batch],
               _Block([rep for _child, rep in batch], n_bins))


def _standard_stage1(block: _Block, s1: int) -> np.ndarray:
    """Stage 1 of the standard scheme: per repetition (row), the w1-bin
    windows (w1 = max_delay(s1) + 1) in which every stream holds a photon,
    so each stream relocates one photon to the window boundary slot. w1 is
    capped at n_bins + 1, past which no window fits either way."""
    w1 = min(max_delay(s1), block.n_bins) + 1
    n_windows = block.n_bins // w1
    n_reps = len(block.streams)
    have = np.ones((n_reps, n_windows), dtype=bool)
    for j in range(4):
        bins = np.stack([st[j].bins[:n_windows * w1] for st in block.streams])
        have &= bins.reshape(n_reps, n_windows, w1).any(axis=2)
    return have


def _standard_rate(have: np.ndarray, s2: int, gate_ok: np.ndarray,
                   block: _Block) -> np.ndarray:
    """Delivered Bell states per bin of each repetition for one (s1, s2)
    split.

    Stage 2: windows where all four streams delivered (`have`, from
    `_standard_stage1`) attempt the gate, window k of repetition r with
    outcome `gate_ok[r, k]`; the output network delivers at most one
    success per w2-window group to its fixed slot.
    """
    w2 = min(max_delay(s2), block.n_bins) + 1
    n_reps, n_windows = have.shape
    n_groups = n_windows // w2
    if n_groups == 0:
        return np.zeros(n_reps)
    success = (have & gate_ok[:, :n_windows])[:, :n_groups * w2]
    delivered = success.reshape(n_reps, n_groups, w2).any(axis=2).sum(axis=1)
    return delivered / block.n_bins


def _rmux_stage1(block: _Block, s1: int) -> tuple:
    """Stage 1 of the relative scheme: streams 1-2 and 3-4 are paired by the
    sliding window through s1-switch networks, and each kept pair becomes an
    event at its later photon's bin. Returns the two sorted event bin arrays
    on the block's axis."""
    net1 = DelayNetwork(s1)
    reach = min(net1.max_delay, block.n_bins - 1)
    events = []
    for j in (0, 2):
        _b1, b2, keep = _window_core(block.shifted(j), block.shifted(j + 1),
                                     reach, net1)
        events.append(b2[keep])
    return tuple(events)


def _rmux_rate(events: tuple, s2: int, gate_ok: np.ndarray,
               block: _Block) -> np.ndarray:
    """Accepted Bell states per bin of each repetition for one (s1, s2)
    split.

    The two event streams of `_rmux_stage1` are paired again by the sliding
    window through the s2-switch network, and every surviving quadruple
    attempts the gate independently, repetition r's n quadruples with
    outcomes `gate_ok[r, :n]`.
    """
    net2 = DelayNetwork(s2)
    _b1, b2, keep = _window_core(*events,
                                 min(net2.max_delay, block.n_bins - 1), net2)
    n_quads = np.bincount(b2[keep] // (2 * block.n_bins),
                          minlength=len(gate_ok))
    attempted = np.arange(block.n_bins) < n_quads[:, None]
    return (attempted & gate_ok).sum(axis=1) / block.n_bins


def simulate_bell_sweep(p1: float, budgets, n_bins: int, reps: int, seed: int,
                        schemes=("standard", "rmux")) -> dict:
    """BellStats by (scheme, budget), each optimized over its stage splits.

    Every argument is checked before anything is sampled. Repetitions run
    in blocks on one time axis; per block and split index i, each
    repetition's gate draws and each scheme's stage 1 serve every budget
    (see the module docstring).
    """
    # Per scheme: first-stage networks, stage 1, stage-2 rate. Built per
    # call, so a rebound rate function (a tracer's wrapper) is the one used.
    table = {"standard": (4, _standard_stage1, _standard_rate),
             "rmux": (2, _rmux_stage1, _rmux_rate)}
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if n_bins < 1:
        raise ValueError(f"bins must be >= 1, got {n_bins}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must be in [0, 1], got {p1}")
    budgets = _checked(budgets, "budget", "budgets")
    plan = {}
    for scheme in _checked(schemes, "Bell scheme", "schemes", table):
        for budget in budgets:
            splits = _splits(table[scheme][0], budget)
            if not splits:
                raise ValueError(
                    f"no feasible stage split for scheme {scheme!r} with "
                    f"{budget} switches")
            DelayNetwork(max(map(max, splits)))     # raises past 64
            plan[(scheme, budget)] = splits
    n_gates = max(map(len, plan.values()))
    rates = {key: np.zeros((len(splits), reps)) for key, splits in plan.items()}
    r0 = 0
    for children, block in _blocks(p1, n_bins, reps, seed):
        # One spawn per repetition for every budget: a second call would
        # advance the child's spawn counter and move every later key.
        gate_seeds = [child.spawn(n_gates) for child in children]
        block_reps = slice(r0, r0 + len(children))
        for i in range(n_gates):
            # gate_ok[r, k]: repetition r's k-th gate at split i succeeds.
            gate_ok = np.stack([np.random.default_rng(seeds[i]).random(n_bins)
                                for seeds in gate_seeds]) < BELL_GATE_PROB
            for scheme, (_networks, first, rate_fn) in table.items():
                s2s = {key: splits[i][1] for key, splits in plan.items()
                       if key[0] == scheme and i < len(splits)}
                if s2s:
                    stage1 = first(block, i + 1)
                for key, s2 in s2s.items():
                    rates[key][i, block_reps] = rate_fn(
                        stage1, s2, gate_ok, block)
        r0 += len(children)
    stats = {}
    for (scheme, budget), splits in plan.items():
        split_rates = rates[(scheme, budget)]
        means = split_rates.mean(axis=1)
        best = int(np.argmax(means))
        stats[(scheme, budget)] = BellStats(
            scheme=scheme,
            total_switches=budget,
            bells_per_bin=float(means[best]),
            stderr=_stderr(split_rates[best]),
            reps=reps,
            best_split=splits[best],
        )
    return stats


def simulate_bell_standard(p1: float, s_total: int, n_bins: int, reps: int,
                           seed: int) -> BellStats:
    """Standard concatenated multiplexing, optimized over stage splits."""
    return simulate_bell_sweep(p1, [s_total], n_bins, reps, seed,
                               ("standard",))[("standard", s_total)]


def simulate_bell_rmux(p1: float, s_total: int, n_bins: int, reps: int,
                       seed: int) -> BellStats:
    """Relative multiplexing cascade, optimized over stage splits."""
    return simulate_bell_sweep(p1, [s_total], n_bins, reps, seed,
                               ("rmux",))[("rmux", s_total)]
