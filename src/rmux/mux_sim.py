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
reproducible and schemes can be compared on identical stream data. Both
sweeps run blocks of consecutive repetitions, each sampled once. A block
closes once it holds a set number of photons (or BLOCK_BINS stream bins):
per-call overheads are shared, and memory does not grow with the
repetition count.

A two-stream block (`_match_all`) finds the no-clash optimum of every
(repetition, count) in one `_optimal_pairs` call, two window sweeps and a FIFO
pairing with no assignment solver, and it serves both Hungarian strategies.
One `clash_rows` scan per block finds the optima that clash: optimum i's pairs
sit at offset i * stride on one time axis (a forced path stays in bins b1..b2,
and stride exceeds every b2) and route through the largest count's network.
Stages ascend (1, 2, 4, ...), so a delay that s switches reach takes the same
bins and rails there through switch s-1, then waits in its output bin on rail
0: a couple meeting past s-1 clashed there, and `route`'s rule
(`first_clashes`), applied once to the scan's rows, drops each optimum's pairs
as its own network would. Their count is hungarian_no_clash's clash_rate
numerator; only optima with a row (the lowest is always kept) are repaired
(hungarian_with_clash, on a weight matrix built for that instance alone, in
lockstep: each round scans all those still being repaired at once). The
realistic strategy makes one `_window_core` pass per stream pair for every
count, one copy of the pair per count's reach, its clashes found by the same
argument through the largest count's network. The block's metrics are counted
by one `_metric_rows` pass per strategy, which builds no discard record.

A Bell block lays its repetitions end to end on one time axis: bin b of
repetition r sits at 2 * r * n_bins + b. No pair needs more than n_bins - 1
bins of delay, so each window's reach is capped there, and no pair or
clash crosses repetitions. Split i = s1 - 1 of every scheme and budget
reads a prefix of one sequence of gate draws from spawn key (r, i) of
child r, drawn only as far as the split's largest reader reads (`_Gates`):
a generator's first n draws do not depend on how many follow. Stage 1
(the relative scheme's two event streams, the standard scheme's window
occupancy) depends only on (r, s1) and runs once per s1 and block, the
relative scheme's two stream pairs in one window pass (streams 3 and 4
laid after 1 and 2 as further repetitions) from lower bounds found once
per block. Stage 2 runs once per (block, split) for every budget with
that split. The relative scheme's is one `_window_core` pass over one copy
of the two event streams per s2. Copies never meet: a copy's window
pointer starts past every event of the copy before, and on the clash
scan's axis its pairs sit a stride past every event bin from the next
copy's, while a forced path stays in bins b1..b2. Their clashes are found
through the largest s2 network, by the argument above. A window pass
clamp-scans only the (copy, photon) slots with a partner in reach, and its
clash scan sorts one switch, or a block of switches, at a time, so its
temporaries grow with the pairs, not with pairs times switches.
Results equal those of simulating each budget on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .delay_network import DelayNetwork, clash_rows, first_clashes, max_delay
from .matching import (
    Matching,
    _metric_rows,
    _metrics_of,
    _optimal_pairs,
    _pair_lists,
    _repair_all,
    _window_core,
    _window_pairs,
    build_assignment_matrix,
)
# Unused here; perfbench's tests check that its tracer reaches this binding.
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

    ``clash_rate`` is the pairs ``route`` would drop for a clash over all
    pairs for ``hungarian_no_clash``, which keeps them (`first_clashes` on
    the block's one clash scan), and the pairs dropped for a clash over
    kept plus dropped pairs otherwise. The no-clash optimum is paired in
    order (`_optimal_pairs`), so its clashes depend on no solver.
    """
    matchings, values = _match_all([(s1, s2)], [network], [strategy])[strategy]
    return matchings[0][0], _metrics_of(matchings[0][0], values[0, 0])


def _batches(p: float, n_bins: int, reps: int, seed: int, n_streams: int,
             photons: int):
    """Lists of consecutive repetitions (child r of SeedSequence(seed), the
    `n_streams` streams its first generated words seed), each closed once it
    holds `photons` photons or BLOCK_BINS stream bins."""
    batch, count = [], 0
    for child in np.random.SeedSequence(seed).spawn(reps):
        words = child.generate_state(n_streams, dtype=np.uint64)
        rep = [generate_stream(p, n_bins, int(w)) for w in words]
        batch.append((child, rep))
        count += sum(st.photon_count for st in rep)
        if count >= photons or n_streams * n_bins * len(batch) >= BLOCK_BINS:
            yield batch
            batch, count = [], 0
    if batch:
        yield batch


def _match_all(stream_pairs, networks, strategies) -> dict:
    """{strategy: (matchings, values)} of a block of stream pairs, with the
    strategies in the order given and each as `match_streams` runs it:
    [[Matching per network] per stream pair], and a (stream pairs,
    networks, 4) array of each one's matched fraction, clash rate,
    out-of-range fraction and total weight, counted by one `_metric_rows`
    pass. Every network's clashes are found through the largest (see the
    module docstring)."""
    strategies = _checked(strategies, "strategy", "strategies", STRATEGIES)
    matchings = {}
    largest = max(networks, key=lambda net: net.s)
    if "realistic" in strategies:
        # One window pass per stream pair covers every network, each reach
        # capped at the stream length as `sliding_window_match` caps it.
        matchings["realistic"] = [
            Matching(kept, st1.occupied_bins, st2.occupied_bins, lost=dropped)
            for st1, st2 in stream_pairs
            for kept, dropped in _window_pairs(
                st1.occupied_bins, st2.occupied_bins,
                [min(net.max_delay, st2.n_bins - 1) for net in networks],
                largest)]
    if {"hungarian_no_clash", "hungarian_with_clash"}.intersection(strategies):
        # Instance i is stream pair i // len(networks) at network
        # i % len(networks), its reach capped as in `build_assignment_matrix`.
        instances = [(st1.occupied_bins, st2.occupied_bins,
                      min(net.max_delay, st2.n_bins - 1))
                     for st1, st2 in stream_pairs for net in networks]
        pairs, owner, stride = _optimal_pairs(instances)
        assigned = [Matching(found, bins1, bins2) for found, (bins1, bins2, _d)
                    in zip(_pair_lists(pairs, owner, len(instances)),
                           instances)]
        # Per instance, the pairs `route` would drop.
        dropped = np.unique(first_clashes(clash_rows(
            pairs[:, 0] + owner * stride, pairs[:, 2], largest))[:, 2:])
        hit = np.bincount(owner[dropped], minlength=len(instances))
        clashing = np.flatnonzero(hit).tolist()
        repaired = {}
        if "hungarian_with_clash" in strategies:
            # Only a repair reads a weight matrix.
            repaired = dict(zip(clashing, _repair_all(
                [(assigned[i].pairs, build_assignment_matrix(
                    *stream_pairs[i // len(networks)],
                    networks[i % len(networks)].max_delay))
                 for i in clashing], largest)))
        matchings["hungarian_no_clash"] = assigned
        matchings["hungarian_with_clash"] = [repaired.get(i, m)
                                             for i, m in enumerate(assigned)]
    results = {}
    for strategy in strategies:
        flat = matchings[strategy]
        values = _metric_rows(flat)
        if strategy == "hungarian_no_clash":
            values[clashing, 1] = hit[clashing] / np.bincount(owner)[clashing]
        results[strategy] = (
            [flat[i:i + len(networks)]
             for i in range(0, len(flat), len(networks))],
            values.reshape(len(stream_pairs), len(networks), 4))
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
        for i, (_matchings, block) in enumerate(results):
            values[i, :, :, r0:r0 + len(batch)] = block.transpose(1, 2, 0)
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


@dataclass
class _Block:
    """Consecutive repetitions on one time axis: bin b of repetition r of
    the block sits at 2 * r * n_bins + b."""

    streams: list                 # each repetition's four streams
    n_bins: int

    @cached_property
    def shifted(self) -> tuple:
        """(firsts, seconds): the occupied bins of streams 1 and 2 of every
        repetition on the block's axis, then those of streams 3 and 4 as
        repetitions len(streams) onward, so stage 1 pairs both in one
        window pass."""
        reps = [(st[j], st[j + 1]) for j in (0, 2) for st in self.streams]
        return tuple(np.concatenate([rep[j].occupied_bins + 2 * r * self.n_bins
                                     for r, rep in enumerate(reps)])
                     for j in (0, 1))

    @cached_property
    def lower(self) -> np.ndarray:
        """Each first's lower window bound among the seconds of `shifted`,
        the same at every reach."""
        firsts, seconds = self.shifted
        return np.searchsorted(seconds, firsts, "left")


class _Gates:
    """The gate outcomes of one split, drawn only as far as they are read:
    repetition r's k-th gate succeeds iff draw k of a generator seeded with
    `seeds[r]` is below BELL_GATE_PROB. Called with a width, it returns the
    (repetitions, width) outcomes and draws only those no earlier call drew;
    a generator's first n draws do not depend on how many follow."""

    def __init__(self, seeds):
        self._rngs = [np.random.default_rng(seed) for seed in seeds]
        self._ok = np.zeros((len(self._rngs), 0), dtype=bool)

    def __call__(self, width: int) -> np.ndarray:
        drawn = self._ok.shape[1]
        if width > drawn:
            self._ok = np.concatenate([self._ok, np.stack(
                [rng.random(width - drawn) for rng in self._rngs])
                < BELL_GATE_PROB], axis=1)
        return self._ok[:, :width]


def _standard_stage1(block: _Block, s1: int) -> np.ndarray:
    """Stage 1 of the standard scheme: per repetition (row), the w1-bin
    windows (w1 = max_delay(s1) + 1) in which every stream holds a photon,
    so each stream relocates one photon to the window boundary slot. w1 is
    capped at n_bins + 1, past which no window fits either way."""
    w1 = min(max_delay(s1), block.n_bins) + 1
    n_windows = block.n_bins // w1
    # Column n_windows takes the bins past the last whole window.
    have = np.ones((len(block.streams), n_windows + 1), dtype=bool)
    for j in range(4):
        held = np.zeros_like(have)
        for r, streams in enumerate(block.streams):
            held[r, streams[j].occupied_bins // w1] = True
        have &= held
    return have[:, :n_windows]


def _standard_rate(have: np.ndarray, s2s, gates: _Gates,
                   block: _Block) -> np.ndarray:
    """Delivered Bell states per bin, (len(s2s), repetitions), of the splits
    (s1, s2) of one s1 for each s2 in `s2s`.

    Stage 2: windows where all four streams delivered (`have`, from
    `_standard_stage1`) attempt the gate, window k of repetition r with
    outcome `gates(n_windows)[r, k]`; the output network delivers at most
    one success per w2-window group to its fixed slot.
    """
    n_reps, n_windows = have.shape
    # successes[r, k]: successes among repetition r's first k windows.
    successes = np.zeros((n_reps, n_windows + 1), dtype=np.int64)
    np.cumsum(have & gates(n_windows), axis=1, out=successes[:, 1:])
    rates = np.empty((len(s2s), n_reps))
    for row, s2 in zip(rates, s2s):
        w2 = min(max_delay(s2), block.n_bins) + 1
        # Group g delivers iff the count at its end passes that at its start
        # (columns g * w2 and (g + 1) * w2; no group ends past n_windows).
        ends = successes[:, ::w2]
        row[:] = (ends[:, 1:] != ends[:, :-1]).sum(axis=1) / block.n_bins
    return rates


def _rmux_stage1(block: _Block, s1: int) -> tuple:
    """Stage 1 of the relative scheme: streams 1-2 and 3-4 are paired by the
    sliding window through s1-switch networks, and each kept pair becomes an
    event at its later photon's bin. Returns the two sorted event bin arrays
    on the block's axis, from one window pass over `_Block.shifted`."""
    net1 = DelayNetwork(s1)
    half = 2 * len(block.streams) * block.n_bins
    _b1, b2, keep, _copy = _window_core(
        *block.shifted, min(net1.max_delay, block.n_bins - 1), net1,
        block.lower)
    events = b2[keep]
    cut = np.searchsorted(events, half)
    return events[:cut], events[cut:] - half


def _rmux_rate(events: tuple, s2s, gates: _Gates,
               block: _Block) -> np.ndarray:
    """Accepted Bell states per bin, (len(s2s), repetitions), of the splits
    (s1, s2) of one s1 for each s2 in `s2s`.

    The two event streams of `_rmux_stage1` are paired again by the sliding
    window through the s2-switch network, and every surviving quadruple
    attempts the gate independently, repetition r's n quadruples with
    outcomes `gates(n)[r]`. One window pass serves every s2, one copy per
    reach, its clashes found through the largest s2 network.
    """
    n_reps = len(block.streams)
    _b1, b2, keep, copy = _window_core(
        *events, [min(max_delay(s2), block.n_bins - 1) for s2 in s2s],
        DelayNetwork(max(s2s)))
    n_quads = np.bincount(
        copy[keep] * n_reps + b2[keep] // (2 * block.n_bins),
        minlength=len(s2s) * n_reps).reshape(len(s2s), n_reps)
    # accepted[r, n]: successes among repetition r's first n gates.
    width = n_quads.max()
    accepted = np.zeros((n_reps, width + 1), dtype=np.int64)
    np.cumsum(gates(width), axis=1, out=accepted[:, 1:])
    return accepted[np.arange(n_reps), n_quads] / block.n_bins


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
    for batch in _batches(p1, n_bins, reps, seed, 4, BLOCK_PHOTONS):
        block = _Block([rep for _child, rep in batch], n_bins)
        # One spawn per repetition for every budget: a second call would
        # advance the child's spawn counter and move every later key.
        gate_seeds = [child.spawn(n_gates) for child, _rep in batch]
        block_reps = slice(r0, r0 + len(batch))
        for i in range(n_gates):
            gates = _Gates([seeds[i] for seeds in gate_seeds])
            for scheme, (_networks, first, rate_fn) in table.items():
                keys = [key for key, splits in plan.items()
                        if key[0] == scheme and i < len(splits)]
                if keys:
                    split_rates = rate_fn(first(block, i + 1),
                                          [plan[key][i][1] for key in keys],
                                          gates, block)
                    for key, row in zip(keys, split_rates):
                        rates[key][i, block_reps] = row
        r0 += len(batch)
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
