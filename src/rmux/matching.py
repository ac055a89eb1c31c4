"""Two-stream synchronization as weighted bipartite assignment.

Stream-1 photons can be delayed (never promoted), so a stream-1 photon at
bin i can synchronize with a stream-2 photon at bin j when 0 <= j - i <=
d_max, at a cost of j - i bins of delay. Three strategies are provided:

* optimal assignment, ignoring switch clashes: the least-delay maximum
  matching, from two greedy window sweeps and an order-preserving pairing
  (`_optimal_pairs`), with no assignment solver;
* optimal assignment followed by clash resolution against a concrete
  binary-delay network, whose re-solves run scipy's ``linear_sum_assignment``
  (a Jonker-Volgenant shortest-augmenting-path solver) on the instance's
  weight matrix;
* the online sliding-window heuristic with discard-on-clash, which is what
  real-time hardware could implement.

Infeasible pairings and count imbalance are handled with virtual edges and
virtual vertices whose weight dwarfs any real edge, and pairings that touch
anything virtual are pruned from the result.

Every strategy returns a `Matching` of what it decided: its pairs, sorted
by stream-1 bin, the pairs clash handling gave up (a pair the window formed
and dropped, or a pair of the assignment the repair started from) and the
two streams' occupied bins. An unmatched photon's reason is "clash" if it
lost its pair to clash handling, otherwise "range" if the other stream has
a photon in its feasible time direction (at or after it for stream 1, at or
before it for stream 2), so a larger delay network could in principle have
matched it, and "unpaired" if it has none. One array classifier,
`_reasons`, applies this rule to many matchings at once: a sweep counts
its metrics per block from its codes, and a matching's discard records
(bin, stream, reason), stream 1 then stream 2 in bin order, are built from
them only when read.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .delay_network import DelayNetwork, RoutingRequest, clash_rows, route
from .streams import PhotonStream

REASON_RANGE = "range"
REASON_CLASH = "clash"
REASON_UNPAIRED = "unpaired"


@dataclass
class WeightMatrix:
    """Square cost matrix of an instance. An entry is virtual (an infeasible
    edge or a padding vertex) exactly when it equals `virtual_weight`, which
    exceeds every real delay."""

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
    """What a strategy decided for one instance; two matchings are equal
    when their pairs and discard records are."""

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
        unmatched, as the module docstring orders and defines them."""
        bins, part, codes, _pairs = _reasons([self])
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


def _reasons(matchings) -> tuple:
    """(bins, part, codes) of the photons of a nonempty list of matchings,
    part 2i (2i + 1) being matching i's stream-1 (stream-2) photons in bin
    order, and the `_flat` of the matchings' pairs. Part q sits at q *
    stride + bin on one axis, stride exceeding every bin, so each
    searchsorted places every pair's photons, or every photon's feasible
    partners, at once; memory grows with the photons."""
    sides = [bins for m in matchings for bins in (m.bins1, m.bins2)]
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
    for code, attr in ((_CLASH, "lost"), (_MATCHED, "pairs")):  # matched wins
        cols, owner = _flat([getattr(m, attr) for m in matchings])
        for side in (0, 1):
            codes[np.searchsorted(
                keys, (2 * owner + side) * stride + cols[:, side])] = code
    return bins, part, codes, (cols, owner)


def _metric_rows(matchings) -> np.ndarray:
    """One row per matching: `matching_metrics`' matched fraction, clash
    rate and out-of-range fraction, counted from one `_reasons` pass, then
    the total weight, its pairs' delays summed in int64 (exact past 2^53)."""
    _bins, part, codes, (pairs, pair_owner) = _reasons(matchings)
    n, owner = len(matchings), part // 2
    counts = np.bincount(owner * 4 + codes, minlength=4 * n).reshape(n, 4)
    n_pairs, clash_pairs = counts[:, _MATCHED] // 2, counts[:, _CLASH] // 2
    photons = counts.sum(axis=1)
    num = np.stack([2 * n_pairs, clash_pairs, counts[:, _RANGE]], axis=1)
    den = np.stack([photons, n_pairs + clash_pairs, photons], axis=1)
    rows = np.zeros((n, 4))
    np.divide(num, den, out=rows[:, :3], where=den > 0)
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


def _weight_matrices(bins1, bins2, n_bins: int, d_maxes) -> list:
    """One delay-cost matrix per window width in `d_maxes` between the photons
    at `bins1` (rows) and `bins2` (columns) of two `n_bins`-bin streams, all
    from one difference matrix and padded square with virtual vertices when
    the photon counts differ."""
    n1, n2 = bins1.size, bins2.size
    n = max(n1, n2)
    # No pair needs more; a wider window inflates the virtual weight.
    caps = [min(d_max, n_bins - 1) for d_max in d_maxes]
    vws = [virtual_weight_for(cap) for cap in caps]
    diff = bins2[None, :].astype(np.int64) - bins1[:, None].astype(np.int64)
    real = (diff >= 0) & (diff <= np.array(caps, dtype=np.int64)[:, None, None])
    fill = np.array(vws, dtype=np.int64)[:, None, None]
    weights = np.broadcast_to(fill, (len(caps), n, n)).copy()
    weights[:, :n1, :n2] = np.where(real, diff, fill)
    return [WeightMatrix(weights=w, virtual_weight=vw, row_bins=bins1,
                         col_bins=bins2) for w, vw in zip(weights, vws)]


def build_assignment_matrix(s1: PhotonStream, s2: PhotonStream,
                            d_max: int) -> WeightMatrix:
    """Delay-cost matrix between the photons of two streams.

    Rows index stream-1 photons, columns stream-2 photons; the matrix is
    padded square with virtual vertices when the photon counts differ.
    """
    return _weight_matrices(s1.occupied_bins, s2.occupied_bins, s2.n_bins,
                            [d_max])[0]


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
    diff = W.col_bins[None, :].astype(np.int64) - W.row_bins[:, None]
    want = np.full_like(W.weights, W.virtual_weight)
    want[:diff.shape[0], :diff.shape[1]] = np.where(
        (diff >= 0) & (diff <= d), diff, W.virtual_weight)
    return d if np.array_equal(W.weights, want) else None


def hungarian_min_assignment(W: WeightMatrix) -> Matching:
    """Optimal matching from the weight matrix, virtual pairings pruned.

    A window instance (`_window_of`) takes `_optimal_pairs`: the most pairs,
    then the least delay, which is scipy's optimum whenever the virtual
    weight exceeds n * d. Any other matrix is solved by scipy.
    """
    d = _window_of(W)
    if d is None:
        return Matching(_assignment_pairs(W), W.row_bins, W.col_bins)
    pairs, _owner, _stride = _optimal_pairs([(W.row_bins, W.col_bins, d)])
    return Matching(list(map(tuple, pairs.tolist())), W.row_bins, W.col_bins)


def _pair_lists(pairs, owner, n: int) -> list:
    """Per index 0..n-1, the rows of `pairs` that `owner` (sorted) gives it,
    in order, as tuples."""
    rows = list(map(tuple, pairs.tolist()))
    ends = np.cumsum(np.bincount(owner, minlength=n)).tolist()
    return [rows[i:j] for i, j in zip([0] + ends, ends)]


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

    A stream-1 photon at a may pair with a stream-2 photon at b when
    0 <= b - a <= d, at cost b - a, so a matching costs the sum of its
    matched b less that of its matched a: only which photons it matches
    counts. The graph is convex bipartite (Glover, Naval Res. Logist. Q. 14,
    1967), and two greedy sweeps give the optimum's matched sets. Stream 2
    in ascending order, each b taking the earliest a still free in
    [b - d, b], matches a largest set of b with the least sum; its time
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
    (see `rmux.mux_sim`). Returns one Matching per instance.
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
    matchings = []
    for (pairs, W), found in zip(instances, candidates):
        best = max(found,
                   key=lambda kept: (len(kept), -sum(d for _, _, d in kept)))
        matchings.append(Matching(best, W.row_bins, W.col_bins, lost=pairs))
    return matchings


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
    return _repair_all([(m.pairs, W)], network)[0]


def _window_core(bins1, bins2, reaches, network: DelayNetwork, lb=None):
    """(b1, b2, keep, copy): the sliding window's formed pairs over two sorted
    bin arrays at each reach in `reaches` (one int or a list), in copy then
    stream-1 bin order, with `keep` false for each pair dropped because it
    clashes with an earlier kept pair of its copy, and `copy` the index of
    the reach it was formed at. `lb`, if given, is
    `searchsorted(bins2, bins1, "left")`, which no reach changes.

    Photon i of stream 1 takes the first unconsumed stream-2 photon in
    [b1_i, b1_i + d]: one `_clamp_scan` over the searchsorted bounds of
    those intervals in stream 2.

    Each reach d runs as one copy of the streams, all in one scan: copy c's
    stream-2 indices are shifted by c * len(bins2), so its lb is past every
    pointer of copy c - 1, and only ub depends on d. One clash scan through
    `network` (`_clash_couples`) puts copy c's pairs at c * stride, stride
    past every b2, so a copy whose reach a smaller network gives sees that
    network's clashes (see `rmux.mux_sim`). A pair that needs more delay
    than `network` gives raises ValueError, as do copies that would pass
    int64 on that axis. A window that would end past int64 ends at its
    maximum instead.
    """
    bins1 = np.asarray(bins1, dtype=np.int64)
    bins2 = np.asarray(bins2, dtype=np.int64)
    reaches = np.atleast_1d(np.asarray(reaches, dtype=np.int64))
    k, n1, n2 = reaches.size, bins1.size, bins2.size
    stride = _stride(bins2, k)
    shift = n2 * np.arange(k)[:, None]
    if lb is None:
        lb = np.searchsorted(bins2, bins1, "left")
    lb = (lb + shift).ravel()
    room = np.iinfo(np.int64).max - bins1
    ub = (np.searchsorted(bins2, bins1 + np.minimum(reaches[:, None], room),
                          "right") + shift).ravel()
    take, paired = _clamp_scan(lb, ub)
    copy = np.repeat(np.arange(k), n1)[paired]
    b1, b2 = np.tile(bins1, k)[paired], bins2[take[paired] - copy * n2]
    keep = np.ones(b1.size, dtype=bool)
    if b1.size:
        keep[list(_lost_on_conflict(
            _clash_couples(b1, b2 - b1, copy, stride, network)))] = False
    return b1, b2, keep, copy


def _window_pairs(bins1, bins2, reaches, network: DelayNetwork):
    """Per reach, the (kept, dropped) pair lists of `_window_core`, as
    (b1, b2, delay); one (kept, dropped) for a single int reach."""
    b1, b2, keep, copy = _window_core(bins1, bins2, reaches, network)
    pairs = np.stack([b1, b2, b2 - b1], axis=1)
    split = list(zip(*(_pair_lists(pairs[mask], copy[mask], np.size(reaches))
                       for mask in (keep, ~keep))))
    return split if np.ndim(reaches) else split[0]


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
    kept, dropped = _window_pairs(s1.occupied_bins, s2.occupied_bins,
                                  min(d_max, s2.n_bins - 1), network)
    return Matching(kept, s1.occupied_bins, s2.occupied_bins, lost=dropped)


def matching_metrics(m: Matching) -> MatchMetrics:
    """Aggregate fractions for one matching over its two streams' photons:
    the paired photons and the "range" discards over all photons, the pairs
    lost to clashes (half the "clash" discards) over those plus the kept
    pairs, and the mean delay of a kept pair; each 0 when its base is."""
    return _metrics_of(m, _metric_rows([m])[0])


def count_clashing_pairs(m: Matching, network: DelayNetwork) -> int:
    """Pairs involved in at least one clash (diagnostic for the no-clash strategy)."""
    result = route(pair_requests(sorted(m.pairs)), network)
    return len({i for rec in result.clashes for i in (rec.request_a, rec.request_b)})


def matching_csv_rows(m: Matching):
    """Serialization rows: kind, then pair (bin1,bin2,delay) or discard (bin,stream,reason)."""
    return ([("pair", *pair) for pair in m.pairs]
            + [("discard", *record) for record in m.discarded])
