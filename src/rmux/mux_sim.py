"""Monte Carlo sweeps on photon streams.

Two experiment families. All repetitions derive child seeds from one
SeedSequence (`_batches`), so runs are reproducible and strategies and
schemes compare on identical stream data.

* Matching statistics of the three two-stream strategies
  (`matching.STRATEGIES`) by switch count: `simulate_two_stream` makes the
  blocks and counts each in one call of `matching._match_rows`, the block
  runner, and `match_streams` runs one strategy on one stream pair and
  network as a block of one.
* Bell-state rates of the standard scheme (synchronize everything to fixed
  window slots, keep one success per window) against the relative scheme
  (pair events wherever they land, cascade pairwise), each maximized over
  the stage splits of a switch budget (`_splits`): `simulate_bell_sweep`,
  with its blocks on one time axis (`_Block`) and gate draws shared by
  every budget (`_Gates`). `_standard_stage1`, `_standard_rate`,
  `_rmux_stage1` and `_rmux_rate` are the two schemes' stages.

`MATCH_BLOCK_PHOTONS` and `BLOCK_PHOTONS` give the measurements that the
two sweeps' block sizes rest on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .delay_network import MAX_SWITCHES, DelayNetwork, max_delay
from .matching import (STRATEGIES, Matching, _match_rows, _metrics_of,
                       _window_core)
# Unused here; perfbench's tests check that its tracer reaches this binding.
from .matching import hungarian_min_assignment  # noqa: F401
from .streams import PhotonStream, generate_stream

BELL_GATE_PROB = 1.0 / 8.0
# A two-stream block closes once it holds this many photons, or BLOCK_BINS
# stream bins. It holds the pair arrays of its repetitions and the weight
# matrices of those it repairs. At p = 0.1 and 200 bins (perfbench's
# match_sweep recipe, 504 repetitions, 2-core host), blocks of 320 / 640 /
# 1280 / 1920 photons (about 8 / 16 / 32 / 48 repetitions) took 0.26-0.30 /
# 0.22-0.25 / 0.17-0.23 / 0.16-0.20 s of CPU, with a tracemalloc peak of
# 0.6 / 0.8 / 1.3 / 1.8 MB and a peak RSS of 80.1 / 80.4 / 81.3 / 82.5 MB.
# Larger blocks run faster, but perfbench's speed-reference test needs
# match_sweep's 1-second run (21 repetitions) to span two blocks: a block
# makes all its streams, the calls that pace the reference, at its start.
MATCH_BLOCK_PHOTONS = 640
# A Bell block closes once it holds this many photons, or BLOCK_BINS stream
# bins (which bound it when the source is nearly dark). Each block pays once
# per split for both stages' window passes, their clash scans and a gate
# table, so larger blocks share those calls among more repetitions, while
# their window temporaries grow. fig7 at p1 = 0.1, 10^4 bins (4000 photons
# a repetition), budgets 5-16 and 38 repetitions, as perfbench's bell_budget
# runs it on a 2-core host: cpu_s (seeds 20170324 / 1) and peak RSS (seed
# 20170324) are medians of 10-20 perfbench runs per seed, alternating sizes;
# the tracemalloc peak and the sweep's minor faults (median and range of 10)
# are from fresh processes running the sweep alone.
#   photons  cpu_s          peak RSS  tracemalloc  minor faults
#   16000    0.224 / 0.226  83.4 MB   1.8 MB       3350 (1850-4850)
#   32000    0.199 / 0.193  85.3 MB   3.2 MB       4950 (4490-5430)
#   40000    0.185 / 0.189  86.2 MB   3.9 MB       3980 (3160-4810)
#   48000    0.178 / 0.194  86.9 MB   4.6 MB       5070 (2680-7480)
#   56000    0.181 / 0.180  87.5 MB   5.3 MB       5100 (2430-7760)
#   64000    0.181 / 0.185  89.0 MB   6.0 MB       4740 (4530-4960)
# 48000 (about 12 repetitions here) has the lowest cpu_s summed over both
# seeds among the sizes whose peak RSS rose under 5%; 56000 rose 5.0%.
BLOCK_PHOTONS = 48_000
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
    pairs for ``hungarian_no_clash``, which keeps them, and the pairs
    dropped for a clash over kept plus dropped pairs otherwise. The no-clash
    optimum is paired in order (`_optimal_pairs`), so its clashes depend on
    no solver.
    """
    _checked([strategy], "strategy", "strategies", STRATEGIES)
    kept, lost, values = _match_rows([(s1, s2)], [network],
                                     [strategy])[strategy]
    pairs, gone = (list(map(tuple, rows.tolist())) for rows, _owner
                   in (kept, lost))
    m = Matching(pairs, s1.occupied_bins, s2.occupied_bins, gone)
    return m, _metrics_of(m, values[0, 0])


def _batches(p: float, n_bins: int, reps: int, seed: int, n_streams: int,
             photons: int):
    """(slice, batch) per block of consecutive repetitions: `batch` lists
    repetitions `slice` of range(reps) as (child r of SeedSequence(seed),
    the `n_streams` streams its first generated words seed). A block closes
    once it holds `photons` photons or BLOCK_BINS stream bins, so that it
    shares its per-call costs among its repetitions and memory does not
    grow with `reps`."""
    batch, count, r0 = [], 0, 0
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        words = child.generate_state(n_streams, dtype=np.uint64)
        rep = [generate_stream(p, n_bins, int(w)) for w in words]
        batch.append((child, rep))
        count += sum(st.photon_count for st in rep)
        if count >= photons or n_streams * n_bins * len(batch) >= BLOCK_BINS:
            yield slice(r0, r + 1), batch
            batch, count, r0 = [], 0, r + 1
    if batch:
        yield slice(r0, reps), batch


def simulate_two_stream(p: float, switches, n_bins: int, strategies,
                        reps: int, seed: int) -> dict:
    """StrategyStats by (strategy, switch count), strategies then counts in
    the order given, over the same stream-pair repetitions. Every argument
    is checked before anything is sampled. Repetitions run in blocks of
    about MATCH_BLOCK_PHOTONS photons (`_batches`), each counted by one
    `_match_rows` call."""
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    strategies = _checked(strategies, "strategy", "strategies", STRATEGIES)
    switches = _checked(switches, "switch count", "switches")
    networks = [DelayNetwork(s) for s in switches]
    # [strategy, count, (matched, clash, out of range, weight), repetition]
    values = np.empty((len(strategies), len(switches), 4, reps))
    for reps_in, batch in _batches(p, n_bins, reps, seed, 2,
                                   MATCH_BLOCK_PHOTONS):
        results = _match_rows([rep for _child, rep in batch], networks,
                              strategies).values()
        for i, (_kept, _lost, block) in enumerate(results):
            values[i, :, :, reps_in] = block.transpose(1, 2, 0)
    return {(strategy, s): StrategyStats(
                strategy, s, float(matched.mean()), _stderr(matched),
                float(clash.mean()), float(oor.mean()), float(weight.mean()))
            for strategy, by_count in zip(strategies, values)
            for s, (matched, clash, oor, weight) in zip(switches, by_count)}


def _splits(networks: int, s_total: int):
    """Feasible (s1, s2): `networks` first-stage networks of s1 switches each
    plus one second-stage network of s2 >= 1 switches, networks * s1 + s2
    physical switches in all. The standard scheme delays all four photon
    streams (4 networks) and the gate output; the relative scheme delays one
    stream of each pair (2 networks) and one derived event stream."""
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
    the block sits at 2 * r * n_bins + b. No pair needs more than
    n_bins - 1 bins of delay, so each window's reach is capped there, and
    then no pair or clash crosses repetitions."""

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
    outcomes `gates(n)[r]`. One `_window_core` pass serves every s2, one
    copy per reach, through the largest s2 network.
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
    """BellStats by (scheme, budget), each optimized over its stage splits,
    equal to simulating each budget on its own.

    Every argument is checked before anything is sampled. Repetitions run
    in blocks of about BLOCK_PHOTONS photons (`_batches`) on one time axis
    (`_Block`). Every scheme and budget reads split i = s1 - 1 of
    repetition r from one sequence of gate draws, spawn key (r, i) of child
    r (`_Gates`). Per block and split, each scheme runs its stage 1 once
    and its stage-2 rate once for every budget with that split.
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
            stage = max(map(max, splits))
            if stage > MAX_SWITCHES:
                raise ValueError(
                    f"scheme {scheme!r} with {budget} switches needs a "
                    f"{stage}-switch stage; a network has at most "
                    f"{MAX_SWITCHES} switches")
            plan[(scheme, budget)] = splits
    n_gates = max(map(len, plan.values()))
    rates = {key: np.zeros((len(splits), reps)) for key, splits in plan.items()}
    for reps_in, batch in _batches(p1, n_bins, reps, seed, 4, BLOCK_PHOTONS):
        block = _Block([rep for _child, rep in batch], n_bins)
        # One spawn per repetition for every budget: a second call would
        # advance the child's spawn counter and move every later key.
        gate_seeds = [child.spawn(n_gates) for child, _rep in batch]
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
                        rates[key][i, reps_in] = row
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
