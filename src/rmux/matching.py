"""Two-stream synchronization as weighted bipartite assignment.

Stream-1 photons can be delayed, never promoted, so a stream-1 photon at
bin a can pair with a stream-2 photon at bin b when 0 <= b - a <= d_max,
at a cost of b - a bins of delay. The three strategies:

* optimal assignment, ignoring switch clashes (`hungarian_min_assignment`),
  found without an assignment solver by `_optimal_pairs`;
* optimal assignment followed by clash repair against a concrete network
  (`resolve_clashes_optimal`), run in lockstep over many instances by
  `_repair_all`, its re-solves by scipy's ``linear_sum_assignment`` on the
  instance's `WeightMatrix`;
* the online sliding window with discard-on-clash, which real-time
  hardware could run (`sliding_window_match`), any number of reaches in one
  `_window_core` scan.

Every strategy returns a `Matching`, whose `discarded` says why each
unmatched photon went unmatched. `_reasons` classifies the photons of many
instances at once from arrays, and `_clash_couples` finds the clashes of
many instances in one scan. `_match_rows` runs any of `STRATEGIES` on a
block of stream pairs against several networks at once, from pair arrays:
it is the block runner of `mux_sim`'s two-stream sweep and of its
`match_streams`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .delay_network import (DelayNetwork, RoutingRequest, clash_rows,
                            first_clashes)
from .streams import PhotonStream

REASON_RANGE = "range"
REASON_CLASH = "clash"
REASON_UNPAIRED = "unpaired"
STRATEGIES = ("hungarian_no_clash", "hungarian_with_clash", "realistic")


@dataclass
class WeightMatrix:
    """Square cost matrix of an instance. An entry is virtual (an infeasible
    edge or a padding vertex, which squares the matrix when the photon
    counts differ) exactly when it equals `virtual_weight`, which exceeds
    every real delay; a solution's pairings that touch anything virtual are
    pruned from it."""

    weights: np.ndarray            # (n, n) int64
    virtual_weight: int
    row_bins: np.ndarray           # stream-1 bin of each real row
    col_bins: np.ndarray           # stream-2 bin of each real column

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def virtual_mask(self) -> np.ndarray:
        """(n, n) bool, True = virtual edge/vertex."""
        return self.weights == self.virtual_weight


@dataclass(eq=False)
class Matching:
    """What a strategy decided for one instance: its pairs, sorted by
    stream-1 bin, the pairs clash handling gave up (a pair the window formed
    and dropped, or a pair of the assignment the repair started from), and
    the two streams' occupied bins. Two matchings are equal when their
    pairs and discard records are."""

    pairs: list                    # (stream1_bin, stream2_bin, delay)
    bins1: np.ndarray              # stream-1 occupied bins, sorted
    bins2: np.ndarray              # stream-2 occupied bins, sorted
    lost: list = ()                # pairs that clash handling gave up

    @property
    def total_weight(self) -> int:
        return int(sum(d for _, _, d in self.pairs))

    @cached_property
    def discarded(self) -> list:
        """(bin, stream "1"|"2", reason) of each photon `pairs` leaves
        unmatched, stream 1 then stream 2, each in bin order, built from
        arrays (`_reasons`) the first time it is read.

        The reason is "clash" if the photon lost its pair to clash handling,
        otherwise "range" if the other stream has a photon in its feasible
        time direction (at or after it for stream 1, at or before it for
        stream 2), so a larger delay network could in principle have
        matched it, and "unpaired" if it has none."""
        bins, part, codes = _reasons(*_flat_matchings([self]))
        return [(b, str(k + 1), _REASONS[code]) for b, k, code
                in zip(bins.tolist(), part.tolist(), codes.tolist())
                if code != _MATCHED]

    def __eq__(self, other):
        return (isinstance(other, Matching) and self.pairs == other.pairs
                and self.discarded == other.discarded)


@dataclass
class MatchMetrics:
    matched_fraction: float
    clash_rate: float
    out_of_range_fraction: float
    mean_delay: float


# A photon's `_reasons` code indexes `_REASONS`.
_MATCHED, _CLASH, _RANGE, _UNPAIRED = range(4)
_REASONS = (None, REASON_CLASH, REASON_RANGE, REASON_UNPAIRED)


def _flat(pair_lists) -> tuple:
    """All (b1, b2, delay) pairs of `pair_lists` as one (n, 3) int64 array,
    and the index of the list each came from."""
    counts = [len(pairs) for pairs in pair_lists]
    # fromiter over the flattened tuples: ~2.5x faster than np.array here.
    cols = np.fromiter(chain.from_iterable(chain.from_iterable(pair_lists)),
                       np.int64, 3 * sum(counts)).reshape(-1, 3)
    return cols, np.repeat(np.arange(len(pair_lists)), counts)


def _stride(bins, copies: int) -> int:
    """One past the largest of `bins`, capped at the int64 maximum (copy 0
    takes no offset): the stride that lays `copies` copies end to end on one
    time axis, copy c at c * stride. ValueError if that passes int64."""
    stride = int(bins.max(initial=-1)) + 1
    if copies * stride > 2 ** 63:
        raise ValueError(f"{copies} copies of bins up to {stride - 1} on one "
                         "axis exceed the int64 maximum")
    return min(stride, 2 ** 63 - 1)


def _flat_matchings(matchings) -> tuple:
    """The `_reasons` arguments of a list of matchings: each one's stream-1
    then stream-2 occupied bins, and the `_flat` of their pairs and of their
    lost pairs."""
    return ([bins for m in matchings for bins in (m.bins1, m.bins2)],
            _flat([m.pairs for m in matchings]),
            _flat([m.lost for m in matchings]))


def _reasons(sides, kept, lost) -> tuple:
    """(bins, part, codes) of the photons of a nonempty list of matchings
    given as arrays, part 2i (2i + 1) being matching i's stream-1 (stream-2)
    photons in bin order. `sides` holds those parts' sorted bins, and `kept`
    and `lost` are (pairs, owner): (n, 3) int64 (b1, b2, delay) rows of the
    matchings' pairs and lost pairs, in any order, and the matching of each.
    Part q sits at q * stride + bin on one axis, stride exceeding every bin,
    so each searchsorted places every pair's photons, or every photon's
    feasible partners, at once; memory grows with the photons."""
    part = np.repeat(np.arange(len(sides)), [bins.size for bins in sides])
    bins = np.concatenate(sides).astype(np.int64, copy=False)
    stride = _stride(bins, len(sides))
    keys = part * stride + bins
    # [lo, hi] holds the other part's photons in the feasible direction;
    # hi stays below len(sides) * stride, which may be 2^63.
    odd = part % 2 == 1
    lo = np.where(odd, (part - 1) * stride, keys + stride)
    hi = np.where(odd, keys - stride, (part + 1) * stride + (stride - 1))
    codes = np.where(np.searchsorted(keys, lo)
                     < np.searchsorted(keys, hi, "right"), _RANGE, _UNPAIRED)
    # A photon both lost and kept reads matched: kept pairs are placed last.
    for code, (cols, owner) in ((_CLASH, lost), (_MATCHED, kept)):
        for side in (0, 1):
            codes[np.searchsorted(
                keys, (2 * owner + side) * stride + cols[:, side])] = code
    return bins, part, codes


def _metric_rows(sides, kept, lost) -> np.ndarray:
    """One row per matching of the `_reasons` arrays: `matching_metrics`'
    matched fraction, clash rate and out-of-range fraction, counted from one
    `_reasons` pass, then the total weight, its pairs' delays summed in
    int64 (exact past 2^53)."""
    _bins, part, codes = _reasons(sides, kept, lost)
    n, owner = len(sides) // 2, part // 2
    counts = np.bincount(owner * 4 + codes, minlength=4 * n).reshape(n, 4)
    n_pairs, clash_pairs = counts[:, _MATCHED] // 2, counts[:, _CLASH] // 2
    photons = counts.sum(axis=1)
    num = np.stack([2 * n_pairs, clash_pairs, counts[:, _RANGE]], axis=1)
    den = np.stack([photons, n_pairs + clash_pairs, photons], axis=1)
    rows = np.zeros((n, 4))
    np.divide(num, den, out=rows[:, :3], where=den > 0)
    pairs, pair_owner = kept
    weights = np.zeros(n, dtype=np.int64)
    np.add.at(weights, pair_owner, pairs[:, 2])
    rows[:, 3] = weights
    return rows


def _metrics_of(m: Matching, row) -> MatchMetrics:
    """The MatchMetrics of `m` from its `_metric_rows` row."""
    matched, clash, out_of_range, weight = row.tolist()
    n_pairs = len(m.pairs)
    return MatchMetrics(matched, clash, out_of_range,
                        (weight / n_pairs) if n_pairs else 0.0)


def virtual_weight_for(d_max: int) -> int:
    """Virtual-edge weight: several orders of magnitude above any real weight."""
    return max(10 ** 6, 1000 * (d_max + 1))


def _window_weights(bins1, bins2, d: int, vw: int) -> np.ndarray:
    """Square int64 costs, rows `bins1` and columns `bins2`: b2 - b1 where
    0 <= b2 - b1 <= d, else `vw` (as on padding when the counts differ)."""
    diff = bins2[None, :].astype(np.int64) - bins1[:, None].astype(np.int64)
    weights = np.full((max(diff.shape),) * 2, vw, dtype=np.int64)
    weights[:len(bins1), :len(bins2)] = np.where((diff >= 0) & (diff <= d),
                                                 diff, vw)
    return weights


def build_assignment_matrix(s1: PhotonStream, s2: PhotonStream,
                            d_max: int) -> WeightMatrix:
    """Delay-cost matrix between the photons of two streams.

    Rows index stream-1 photons, columns stream-2 photons; the matrix is
    padded square with virtual vertices when the photon counts differ.
    """
    cap = min(d_max, s2.n_bins - 1)     # no pair needs more; a wider window
    vw = virtual_weight_for(cap)        # inflates the virtual weight
    bins1, bins2 = s1.occupied_bins, s2.occupied_bins
    return WeightMatrix(_window_weights(bins1, bins2, cap, vw), vw, bins1,
                        bins2)


def _linear_sum_assignment(cost):
    # Lazy: scipy.optimize takes ~0.7 s to import; most commands never need it.
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment(cost)


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect assignment on a square matrix.

    scipy's Jonker-Volgenant shortest-augmenting-path solver; returns
    (row_of_column, total_cost).
    """
    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = _linear_sum_assignment(cost)
    row_of_column = np.empty(cols.size, dtype=int)
    row_of_column[cols] = rows
    return row_of_column, float(cost[rows, cols].sum())


def _assignment_pairs(W: WeightMatrix) -> list:
    """The optimal assignment's real pairs (b1, b2, delay) in stream-1 bin
    order: the solver returns the rows in order."""
    rows, cols = _linear_sum_assignment(W.weights)
    real = W.weights[rows, cols] != W.virtual_weight
    firsts = W.row_bins[rows[real]].tolist()
    seconds = W.col_bins[cols[real]].tolist()
    return [(b1, b2, b2 - b1) for b1, b2 in zip(firsts, seconds)]


def _window_of(W: WeightMatrix):
    """The window d of `W` if it is a window instance, else None: its real
    entries are exactly the photon pairs with 0 <= b2 - b1 <= d, each
    weighing b2 - b1, and the rest is virtual. d is its largest real weight,
    -1 when it has none; a repair's matrix is no window instance."""
    d = int(W.weights[~W.virtual_mask].max(initial=-1))
    want = _window_weights(W.row_bins, W.col_bins, d, W.virtual_weight)
    return d if np.array_equal(W.weights, want) else None


def hungarian_min_assignment(W: WeightMatrix) -> Matching:
    """Optimal matching from the weight matrix of a window instance
    (`_window_of`), virtual pairings pruned; ValueError for any other
    matrix. `_optimal_pairs` gives the most pairs, then the least delay,
    which is scipy's optimum whenever the virtual weight exceeds n * d.
    """
    d = _window_of(W)
    if d is None:
        raise ValueError("the weight matrix is no window instance")
    pairs, _owner, _stride = _optimal_pairs([(W.row_bins, W.col_bins, d)])
    return Matching(list(map(tuple, pairs.tolist())), W.row_bins, W.col_bins)


def _clamp_scan(lb, ub) -> tuple:
    """(take, paired): item i, in order, takes the first unconsumed index in
    [lb_i, ub_i), index take_i, if paired_i; lb and ub are nondecreasing.

    The consumption pointer after item i obeys

        p_i = min(max(p_{i-1}, lb_i) + 1, ub_i),    p_{-1} = 0,

    and item i takes index max(p_{i-1}, lb_i) when that index is below
    ub_i. (When it is not, p_{i-1} = ub_i, since ub is nondecreasing, so the
    min holds in both cases; an index below the pointer is consumed or below
    every later lb, since lb is nondecreasing.) For y_i = p_i - i this is
    the clamp

        y_i = min(max(y_{i-1}, g_i), h_i),  g_i = min(lb_i + 1, ub_i) - i,
                                            h_i = ub_i - i,

    and clamps compose into clamps, so a doubling prefix scan of at most
    ceil(log2 n) array steps gives every p_i (Hillis & Steele, CACM 29(12),
    1986).
    """
    index = np.arange(lb.size)
    lo, hi = np.minimum(lb + 1, ub) - index, ub - index
    # After the step of size `step`, (lo_i, hi_i) is the composite clamp of
    # items i - 2 * step + 1 .. i; a constant one (lo == hi) is final.
    step = 1
    while step < index.size and not np.array_equal(lo[step:], hi[step:]):
        lo[step:], hi[step:] = (
            np.minimum(np.maximum(lo[:-step], lo[step:]), hi[step:]),
            np.minimum(np.maximum(hi[:-step], lo[step:]), hi[step:]))
        step *= 2
    ptr = np.minimum(np.maximum(1, lo), hi) + index
    take = np.maximum(np.concatenate(([0], ptr[:-1])), lb)
    return take, take < ub


def _earliest_free(x, y, reach) -> np.ndarray:
    """Which of the sorted keys `x` pair when each, in order, takes the
    earliest key of sorted `y` still free in [x_i - reach_i, x_i]: a
    `_clamp_scan`, whose bounds are nondecreasing while x - reach is."""
    return _clamp_scan(np.searchsorted(y, x - reach, "left"),
                       np.searchsorted(y, x, "right"))[1]


def _optimal_pairs(instances) -> tuple:
    """(pairs, owner, stride) of a nonempty list of instances (bins1, bins2,
    d), sorted nonnegative bins and a window d >= -1: the least-delay
    maximum matching of each, as one (n, 3) int64 array of (b1, b2, delay)
    in instance then bin order, the instance of each pair, and the stride
    that lays instance i at i * stride on one time axis, past every bin and
    window of instance i - 1.

    A pair (a, b) costs b - a, so a matching costs the sum of its matched b
    less that of its matched a: only which photons it matches counts. The
    graph is convex bipartite (Glover, Naval Res. Logist. Q. 14, 1967), and
    two greedy sweeps give the optimum's matched sets. Stream 2 in
    ascending order, each b taking the earliest a still free in [b - d, b],
    matches a largest set of b with the least sum; its time
    mirror, stream 1 in descending order, each a taking the latest b still
    free in [a, a + d], matches a largest set of a with the greatest sum.
    One matching covers both (Mendelsohn & Dulmage, Canad. J. Math. 10,
    1958), and the order-preserving (FIFO) pairing of the two sorted sets is
    one: uncrossing two feasible pairs keeps 0 <= b - a <= d. Each sweep is
    one `_earliest_free` scan over every instance; the mirror runs on the
    negated, reversed axis, where the instances stay a window apart.
    """
    bins1, bins2 = ([np.asarray(inst[k], dtype=np.int64) for inst in instances]
                    for k in (0, 1))
    reach = np.array([d for _b1, _b2, d in instances], dtype=np.int64)
    top = max((int(b[-1]) for b in bins1 + bins2 if b.size), default=0)
    stride = _stride(np.array([top + max(int(reach.max()), 0)]),
                     len(instances))

    def axis(bins):
        owner = np.repeat(np.arange(len(bins)), [b.size for b in bins])
        return np.concatenate(bins) + owner * stride, owner

    (a, owner1), (b, owner2) = axis(bins1), axis(bins2)
    cols = _earliest_free(b, a, reach[owner2])
    rows = _earliest_free(-a[::-1], -b[::-1], reach[owner1][::-1])[::-1]
    firsts, seconds, owner = a[rows], b[cols], owner2[cols]
    start = owner * stride
    return (np.stack([firsts - start, seconds - start, seconds - firsts],
                     axis=1), owner, stride)


def pair_requests(pairs) -> list:
    """RoutingRequests for the delayable (stream 1) side of each pair."""
    return [RoutingRequest(arrival_bin=b1, delay=d) for b1, _b2, d in pairs]


def _clash_couples(b1, delays, owner, stride: int, network: DelayNetwork):
    """Sorted couples (j, k), j < k, of the pairs whose delayed photons
    clash in one `clash_rows` scan, pair j (stream-1 bin b1[j], delay
    delays[j]) of copy owner[j] sitting at owner[j] * stride on one time
    axis. A forced path stays in bins b1..b1 + delay, so with `_stride`
    past every pair's end, paths of different copies never meet."""
    rows = clash_rows(b1 + owner * stride, delays, network)
    return sorted(set(map(tuple, rows[:, 2:].tolist())))


def _conflicts_each(instances, network: DelayNetwork) -> list:
    """Per instance (a list of (b1, b2, delay) pairs), the sorted couples
    (j, k), j < k, of its pairs whose delayed photons clash, by one
    `_clash_couples` scan with one copy per instance."""
    cols, owner = _flat(instances)
    stride = _stride(cols[:, 1], len(instances))
    start = np.cumsum([0] + [len(pairs) for pairs in instances]).tolist()
    each = [[] for _ in instances]
    # Sorted by (j, k) within each instance, as the global couples are.
    for j, k in _clash_couples(cols[:, 0], cols[:, 2], owner, stride, network):
        i = owner[j]
        each[i].append((j - start[i], k - start[i]))
    return each


def _lost_on_conflict(conflicts) -> set:
    """Indices of the pairs that clash with an earlier kept pair; `conflicts`
    is sorted, so each j is settled before its (j, k) is read."""
    lost = set()
    for j, k in conflicts:
        if j not in lost:
            lost.add(k)
    return lost


def _repair_all(instances, network: DelayNetwork) -> list:
    """`resolve_clashes_optimal` of every (pairs, W) instance, in lockstep.

    Each round finds the clashes of every instance still being repaired by
    one `_conflicts_each` scan through `network`, which gives each
    instance's requests the clashes of its own network if that is no larger
    (`DelayNetwork` says why). Returns each instance's best pairs, a list
    of (b1, b2, delay); what it gave up is the instance's `pairs`.
    """
    Ws = [replace(W, weights=W.weights.copy()) for _pairs, W in instances]
    current = [sorted(pairs) for pairs, _W in instances]
    candidates = [[] for _ in instances]
    active = list(range(len(instances)))
    while active:
        repairing = []
        for i, conflicts in zip(active, _conflicts_each(
                [current[i] for i in active], network)):
            lost = _lost_on_conflict(conflicts)
            candidates[i].append([p for j, p in enumerate(current[i])
                                  if j not in lost])
            W = Ws[i]
            if not conflicts or len(candidates[i]) > W.n:
                continue
            counts = Counter(chain.from_iterable(conflicts))
            worst = max(counts, key=lambda idx: (counts[idx], idx))
            b1, b2, _ = current[i][worst]
            cell = (np.searchsorted(W.row_bins, b1),
                    np.searchsorted(W.col_bins, b2))
            W.weights[cell] = W.virtual_weight
            current[i] = _assignment_pairs(W)
            repairing.append(i)
        active = repairing
    return [max(found,
                key=lambda kept: (len(kept), -sum(d for _, _, d in kept)))
            for found in candidates]


def resolve_clashes_optimal(m: Matching, W: WeightMatrix,
                            network: DelayNetwork) -> Matching:
    """Repair a matching of the instance `W` until it routes clash-free.

    Greedy iterative deepening: mark the edge participating in the most
    clashes as virtual, re-solve the assignment, repeat (at most n edge
    removals). Every intermediate matching also yields a drop-the-later-pair
    fallback candidate; the first best clash-free candidate by (pair count,
    -total weight) wins. Photons of `m.pairs` it leaves unmatched read
    "clash". `W` itself is left unchanged.
    """
    if not m.pairs:
        return m
    best, = _repair_all([(m.pairs, W)], network)
    return Matching(best, W.row_bins, W.col_bins, lost=m.pairs)


def _window_core(bins1, bins2, reaches, network: DelayNetwork, lb=None):
    """(b1, b2, keep, copy): the sliding window's formed pairs over two sorted
    bin arrays at each reach in `reaches` (one int or a list), in copy then
    stream-1 bin order, with `keep` false for each pair dropped because it
    clashes with an earlier kept pair of its copy, and `copy` the index of
    the reach it was formed at. `lb`, if given, is
    `searchsorted(bins2, bins1, "left")`, which no reach changes.

    Photon i of stream 1 takes the first unconsumed stream-2 photon in
    [b1_i, b1_i + d]: one `_clamp_scan` over the searchsorted bounds
    [lb_i, ub_i) of those intervals in stream 2. Only the photons with a
    partner in reach enter it, those with bins2[lb_i] - b1_i <= d. Any
    other has ub_i <= lb_i and takes nothing. With it or without it, the
    pointer stays at most ub_i <= lb_i (it never passes ub, which is
    nondecreasing), so the next photon j starts from max(pointer, lb_j) =
    lb_j either way: skipping photon i changes no pair.

    Each reach d runs as one copy of the streams, all in one scan: copy c's
    stream-2 indices are shifted by c * len(bins2), so its lb is past every
    pointer of copy c - 1, and only ub and the photons taking part depend
    on d. One `_clash_couples` scan through `network` finds every copy's
    clashes, and a copy whose reach a smaller network gives sees that
    network's clashes (`DelayNetwork` says why). A pair that needs more
    delay than `network` gives raises ValueError, as do copies that would
    pass int64 on that axis. A window that would end past int64 ends at its
    maximum instead.
    """
    bins1 = np.asarray(bins1, dtype=np.int64)
    bins2 = np.asarray(bins2, dtype=np.int64)
    reaches = np.atleast_1d(np.asarray(reaches, dtype=np.int64))
    n2 = bins2.size
    stride = _stride(bins2, reaches.size)
    if lb is None:
        lb = np.searchsorted(bins2, bins1, "left")
    near = np.flatnonzero(lb < n2)
    copy, i = np.nonzero(bins2[lb[near]] - bins1[near] <= reaches[:, None])
    i = near[i]
    b1, shift = bins1[i], copy * n2
    room = np.iinfo(np.int64).max - b1
    take, paired = _clamp_scan(
        lb[i] + shift,
        np.searchsorted(bins2, b1 + np.minimum(reaches[copy], room), "right")
        + shift)
    copy, b1 = copy[paired], b1[paired]
    b2 = bins2[take[paired] - copy * n2]
    keep = np.ones(b1.size, dtype=bool)
    keep[list(_lost_on_conflict(
        _clash_couples(b1, b2 - b1, copy, stride, network)))] = False
    return b1, b2, keep, copy


def _window_rows(bins1, bins2, reaches, network: DelayNetwork) -> tuple:
    """(kept, dropped) of `_window_core`, each (pairs, copy): (n, 3) int64
    (b1, b2, delay) rows, in copy then stream-1 bin order, and the copy of
    each."""
    b1, b2, keep, copy = _window_core(bins1, bins2, reaches, network)
    pairs = np.stack([b1, b2, b2 - b1], axis=1)
    return (pairs[keep], copy[keep]), (pairs[~keep], copy[~keep])


def sliding_window_match(s1: PhotonStream, s2: PhotonStream, d_max: int,
                         network: DelayNetwork) -> Matching:
    """Online heuristic: nearest later partner within the delay window.

    Stream-1 photons are scanned in time order and each takes the earliest
    still-unpaired stream-2 photon in [bin, bin + d_max]. Pairs are then
    checked against the network in formation order; on a clash the
    later-formed pair is thrown away (both photons discarded). A pair that
    needs more delay than the network gives raises ValueError. No pair needs
    more than stream 2 is long, so d_max is capped there (and fits int64).
    """
    kept, dropped = (list(map(tuple, pairs.tolist())) for pairs, _copy
                     in _window_rows(s1.occupied_bins, s2.occupied_bins,
                                     min(d_max, s2.n_bins - 1), network))
    return Matching(kept, s1.occupied_bins, s2.occupied_bins, lost=dropped)


def _match_rows(stream_pairs, networks, strategies) -> dict:
    """{strategy: (kept, lost, values)} of a block of stream pairs, the
    strategies, distinct names of `STRATEGIES` that the caller has checked,
    in the order given, on instance i = (stream pair i // len(networks),
    network i % len(networks)). `kept` and `lost` are (pairs, owner): (n, 3)
    int64 (b1, b2, delay) rows of the pairs, or of those clash handling gave
    up, in bin order within an instance, and the instance of each. `values`
    is the (stream pairs, networks, 4) matched fraction, clash rate,
    out-of-range fraction and total weight, counted by one `_metric_rows`
    pass per strategy.

    One `_optimal_pairs` call gives the no-clash optimum of every instance,
    which serves both Hungarian strategies. One `clash_rows` scan finds
    the optima that clash: optimum i's pairs sit i strides along one time
    axis, where they cannot meet another's (`_clash_couples` says why), and
    route through the largest network, which gives every network its own
    clashes (`DelayNetwork` says why). `first_clashes` on that scan gives
    each optimum the pairs its `route` drops, hungarian_no_clash's clash
    rate numerator. Every optimum that clashes has such a pair, since its
    earliest clash is always recorded, and only those are repaired, by one
    `_repair_all` call, each on a weight matrix built for it alone. The
    realistic strategy makes one `_window_core` pass per stream pair for
    every network. The repair's pairs are the one part built as per-pair
    tuples, and no Matching is built."""
    n_nets = len(networks)
    n = len(stream_pairs) * n_nets
    largest = max(networks, key=lambda net: net.s)
    reach = [net.max_delay for net in networks]
    rows = {}
    if "realistic" in strategies:
        # One window pass per stream pair covers every network, each reach
        # capped at the stream length as `sliding_window_match` caps it.
        found = [_window_rows(st1.occupied_bins, st2.occupied_bins,
                              [min(d, st2.n_bins - 1) for d in reach], largest)
                 for st1, st2 in stream_pairs]
        rows["realistic"] = tuple(
            (np.concatenate([pairs for pairs, _copy in side]),
             np.concatenate([k * n_nets + copy
                             for k, (_pairs, copy) in enumerate(side)]))
            for side in zip(*found))
    if {"hungarian_no_clash", "hungarian_with_clash"}.intersection(strategies):
        # Each reach capped as in `build_assignment_matrix`.
        pairs, owner, stride = _optimal_pairs([
            (st1.occupied_bins, st2.occupied_bins, min(d, st2.n_bins - 1))
            for st1, st2 in stream_pairs for d in reach])
        # Per instance, the pairs `route` would drop.
        dropped = np.unique(first_clashes(clash_rows(
            pairs[:, 0] + owner * stride, pairs[:, 2], largest))[:, 2:])
        hit = np.bincount(owner[dropped], minlength=n)
        sizes = np.bincount(owner, minlength=n)
        clashing = np.flatnonzero(hit)
        rows["hungarian_no_clash"] = ((pairs, owner), (pairs[:0], owner[:0]))
        if "hungarian_with_clash" in strategies:
            # Only a repair reads a weight matrix or per-pair tuples; what
            # it repairs is lost, and its pairs take the optimum's place.
            redone = hit[owner] > 0
            given = list(map(tuple, pairs[redone].tolist()))
            ends = np.cumsum(sizes[clashing]).tolist()
            repaired = _repair_all(
                [(given[start:end],
                  build_assignment_matrix(*stream_pairs[i // n_nets],
                                          reach[i % n_nets]))
                 for start, end, i in zip([0] + ends, ends,
                                          clashing.tolist())], largest)
            fixed, local = _flat(repaired)
            rows["hungarian_with_clash"] = (
                (np.concatenate([pairs[~redone], fixed]),
                 np.concatenate([owner[~redone], clashing[local]])),
                (pairs[redone], owner[redone]))
    sides = [bins for st1, st2 in stream_pairs for _net in networks
             for bins in (st1.occupied_bins, st2.occupied_bins)]
    results = {}
    for strategy in strategies:
        kept, lost = rows[strategy]
        values = _metric_rows(sides, kept, lost)
        if strategy == "hungarian_no_clash":
            values[clashing, 1] = hit[clashing] / sizes[clashing]
        results[strategy] = (kept, lost, values.reshape(len(stream_pairs),
                                                        n_nets, 4))
    return results


def matching_metrics(m: Matching) -> MatchMetrics:
    """Aggregate fractions for one matching over its two streams' photons:
    the paired photons and the "range" discards over all photons, the pairs
    lost to clashes (half the "clash" discards) over those plus the kept
    pairs, and the mean delay of a kept pair; each 0 when its base is."""
    return _metrics_of(m, _metric_rows(*_flat_matchings([m]))[0])


def count_clashing_pairs(m: Matching, network: DelayNetwork) -> int:
    """Pairs whose delayed photons `route` drops (diagnostic for the no-clash strategy)."""
    cols, _owner = _flat([m.pairs])
    return np.unique(first_clashes(clash_rows(cols[:, 0], cols[:, 2],
                                              network))[:, 2:]).size


def matching_csv_rows(m: Matching):
    """Serialization rows: kind, then pair (bin1,bin2,delay) or discard (bin,stream,reason)."""
    return ([("pair", *pair) for pair in m.pairs]
            + [("discard", *record) for record in m.discarded])
