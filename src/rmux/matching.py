"""Two-stream synchronization as weighted bipartite assignment.

Stream-1 photons can be delayed (never promoted), so a stream-1 photon at
bin i can synchronize with a stream-2 photon at bin j when 0 <= j - i <=
d_max, at a cost of j - i bins of delay. Three strategies are provided:

* optimal assignment (scipy's ``linear_sum_assignment``, a Jonker-Volgenant
  shortest-augmenting-path solver), ignoring switch clashes;
* optimal assignment followed by clash resolution against a concrete
  binary-delay network;
* the online sliding-window heuristic with discard-on-clash, which is what
  real-time hardware could implement.

Infeasible pairings and count imbalance are handled with virtual edges and
virtual vertices whose weight dwarfs any real edge, and pairings that touch
anything virtual are pruned from the result.

Every strategy returns its pairs sorted by stream-1 bin, plus one discard
record (bin, stream, reason) per unmatched photon: all of stream 1, then
all of stream 2, each in bin order. The reason is "clash" if the photon
lost its pair to clash handling (a pair the window formed and dropped, or a
pair of the assignment the repair started from), otherwise "range" if the
other stream has a photon in its feasible time direction (at or after it
for stream 1, at or before it for stream 2), so a larger delay network
could in principle have matched it, and "unpaired" if it has none.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain
from dataclasses import dataclass, replace

import numpy as np

from .delay_network import DelayNetwork, RoutingRequest, clash_rows, route
from .streams import PhotonStream

REASON_RANGE = "range"
REASON_CLASH = "clash"
REASON_UNPAIRED = "unpaired"


@dataclass
class WeightMatrix:
    """Square cost matrix of an instance, with virtual entries marked."""

    n: int
    weights: np.ndarray            # (n, n) int64
    virtual_mask: np.ndarray       # (n, n) bool, True = virtual edge/vertex
    virtual_weight: int
    row_bins: np.ndarray           # stream-1 bin of each real row
    col_bins: np.ndarray           # stream-2 bin of each real column


@dataclass
class Matching:
    """Pairs plus per-photon discard records for one instance."""

    pairs: list                    # (stream1_bin, stream2_bin, delay)
    discarded: list                # (bin, stream "1"|"2", reason)

    @property
    def total_weight(self) -> int:
        return int(sum(d for _, _, d in self.pairs))


@dataclass
class MatchMetrics:
    matched_fraction: float
    clash_rate: float
    out_of_range_fraction: float
    mean_delay: float


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
    mask = np.ones((len(caps), n, n), dtype=bool)
    mask[:, :n1, :n2] = ~real
    return [WeightMatrix(n=n, weights=w, virtual_mask=v, virtual_weight=vw,
                         row_bins=bins1, col_bins=bins2)
            for w, v, vw in zip(weights, mask, vws)]


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
    real = ~W.virtual_mask[rows, cols]
    firsts = W.row_bins[rows[real]].tolist()
    seconds = W.col_bins[cols[real]].tolist()
    return [(b1, b2, b2 - b1) for b1, b2 in zip(firsts, seconds)]


def _discards(bins1, bins2, pairs, lost=()) -> list:
    """Discard records of the photons `pairs` leaves unmatched.

    Stream 1 then stream 2, each in bin order, with the reasons of the
    module docstring: "clash" for a photon of a `lost` pair, else "range"
    or "unpaired".
    """
    # Per stream, the (lo, hi) bins whose photons have a counterpart in
    # their feasible time direction.
    reach = ((0, int(bins2[-1]) if bins2.size else -1),
             (int(bins1[0]) if bins1.size else np.inf, np.inf))
    records = []
    for side, (stream, bins) in enumerate((("1", bins1), ("2", bins2))):
        matched = {p[side] for p in pairs}
        clashed = {p[side] for p in lost}
        lo, hi = reach[side]
        records += [(b, stream, REASON_CLASH if b in clashed
                     else REASON_RANGE if lo <= b <= hi else REASON_UNPAIRED)
                    for b in bins.tolist() if b not in matched]
    return records


def hungarian_min_assignment(W: WeightMatrix) -> Matching:
    """Optimal matching from the weight matrix, virtual pairings pruned."""
    pairs = _assignment_pairs(W)
    return Matching(pairs=pairs, discarded=_discards(W.row_bins, W.col_bins,
                                                     pairs))


def pair_requests(pairs) -> list:
    """RoutingRequests for the delayable (stream 1) side of each pair."""
    return [RoutingRequest(arrival_bin=b1, delay=d) for b1, _b2, d in pairs]


def _conflicts(arrival_bins, delays, network: DelayNetwork):
    """Sorted couples (j, k), j < k, of requests whose forced paths clash."""
    rows = clash_rows(arrival_bins, delays, network)
    return sorted(set(map(tuple, rows[:, 2:].tolist())))


def _conflicts_each(instances, network: DelayNetwork) -> list:
    """Per instance (a list of (b1, b2, delay) pairs), the sorted couples
    (j, k), j < k, of its pairs whose delayed photons clash, by one scan.

    Instance i's pairs sit at offset i * stride on one time axis; a forced
    path stays in bins b1..b2 and stride exceeds every b2, so paths of
    different instances never meet.
    """
    counts = [len(pairs) for pairs in instances]
    # fromiter over the flattened tuples: ~2.5x faster than np.array here.
    cols = np.fromiter(chain.from_iterable(chain.from_iterable(instances)),
                       np.int64, 3 * sum(counts)).reshape(-1, 3)
    owner = np.repeat(np.arange(len(instances)), counts)
    stride = int(cols[:, 1].max(initial=-1)) + 1
    start = np.cumsum([0] + counts).tolist()
    each = [[] for _ in instances]
    # Sorted by (j, k) within each instance, as the global couples are.
    for j, k in _conflicts(cols[:, 0] + owner * stride, cols[:, 2], network):
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


def _drop_on_conflict(pairs, conflicts):
    """Keep pairs in order, discarding any pair that clashes with a kept one
    (see `_lost_on_conflict`)."""
    if not conflicts:
        return pairs, []
    lost = _lost_on_conflict(conflicts)
    return ([p for i, p in enumerate(pairs) if i not in lost],
            [p for i, p in enumerate(pairs) if i in lost])


def _repair_all(instances, network: DelayNetwork) -> list:
    """`resolve_clashes_optimal` of every (pairs, W) instance, in lockstep.

    Each round finds the clashes of every instance still being repaired by
    one `_conflicts_each` scan through `network`, which must give each
    instance's requests the clashes of its own network (as the largest of
    several ascending networks does: see `rmux.mux_sim`). Returns one
    Matching per instance.
    """
    Ws = [replace(W, weights=W.weights.copy(),
                  virtual_mask=W.virtual_mask.copy()) for _pairs, W in instances]
    current = [sorted(pairs) for pairs, _W in instances]
    candidates = [[] for _ in instances]
    active = list(range(len(instances)))
    while active:
        repairing = []
        for i, conflicts in zip(active, _conflicts_each(
                [current[i] for i in active], network)):
            candidates[i].append(_drop_on_conflict(current[i], conflicts)[0])
            W = Ws[i]
            if not conflicts or len(candidates[i]) > W.n:
                continue
            counts = Counter(chain.from_iterable(conflicts))
            worst = max(counts, key=lambda idx: (counts[idx], idx))
            b1, b2, _ = current[i][worst]
            cell = (np.searchsorted(W.row_bins, b1),
                    np.searchsorted(W.col_bins, b2))
            W.weights[cell] = W.virtual_weight
            W.virtual_mask[cell] = True
            current[i] = _assignment_pairs(W)
            repairing.append(i)
        active = repairing
    matchings = []
    for (pairs, W), found in zip(instances, candidates):
        best = max(found,
                   key=lambda kept: (len(kept), -sum(d for _, _, d in kept)))
        matchings.append(Matching(pairs=best, discarded=_discards(
            W.row_bins, W.col_bins, best, lost=pairs)))
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


def _window_core(bins1, bins2, d_max: int, network: DelayNetwork):
    """(b1, b2, keep): the sliding window's formed pairs over two sorted bin
    arrays, in stream-1 bin order, with `keep` false for each pair dropped
    because it clashes with an earlier kept one.

    Photon i of stream 1 takes the first unconsumed stream-2 photon in
    [b1_i, b1_i + d_max]. With lb_i and ub_i the searchsorted bounds of
    that interval in stream 2, the consumption pointer after photon i obeys

        p_i = min(max(p_{i-1}, lb_i) + 1, ub_i),    p_{-1} = 0,

    and photon i pairs with stream-2 index max(p_{i-1}, lb_i) when that index
    is below ub_i. (When it is not, p_{i-1} = ub_i, since ub is nondecreasing,
    so the min holds in both cases.) For y_i = p_i - i this is the clamp

        y_i = min(max(y_{i-1}, g_i), h_i),  g_i = min(lb_i + 1, ub_i) - i,
                                            h_i = ub_i - i,

    and clamps compose into clamps, so a doubling prefix scan of
    ceil(log2 n) array steps gives every p_i (Hillis & Steele, CACM 29(12),
    1986). A pair that needs more delay than the network gives raises
    ValueError.
    """
    bins1 = np.asarray(bins1, dtype=np.int64)
    bins2 = np.asarray(bins2, dtype=np.int64)
    lb = np.searchsorted(bins2, bins1, "left")
    ub = np.searchsorted(bins2, bins1 + d_max, "right")
    index = np.arange(bins1.size)
    lo, hi = np.minimum(lb + 1, ub) - index, ub - index
    # After the step of size `step`, (lo_i, hi_i) is the composite clamp of
    # photons i - 2 * step + 1 .. i.
    step = 1
    while step < bins1.size:
        lo[step:], hi[step:] = (
            np.minimum(np.maximum(lo[:-step], lo[step:]), hi[step:]),
            np.minimum(np.maximum(hi[:-step], lo[step:]), hi[step:]))
        step *= 2
    ptr = np.minimum(np.maximum(1, lo), hi) + index
    take = np.maximum(np.concatenate(([0], ptr[:-1])), lb)
    paired = take < ub
    b1, b2 = bins1[paired], bins2[take[paired]]
    keep = np.ones(b1.size, dtype=bool)
    if b1.size:
        keep[list(_lost_on_conflict(_conflicts(b1, b2 - b1, network)))] = False
    return b1, b2, keep


def _window_pairs(bins1, bins2, d_max: int, network: DelayNetwork):
    """(kept, dropped) pair lists of `_window_core`, as (b1, b2, delay)."""
    b1, b2, keep = _window_core(bins1, bins2, d_max, network)
    pairs = np.stack([b1, b2, b2 - b1], axis=1)
    return (list(map(tuple, pairs[keep].tolist())),
            list(map(tuple, pairs[~keep].tolist())))


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
    return Matching(pairs=kept, discarded=_discards(
        s1.occupied_bins, s2.occupied_bins, kept, lost=dropped))


def matching_metrics(m: Matching, s1: PhotonStream,
                     s2: PhotonStream) -> MatchMetrics:
    """Aggregate fractions for one matching over its source streams."""
    total_photons = s1.photon_count + s2.photon_count
    n_pairs = len(m.pairs)
    reasons = Counter(reason for _, _, reason in m.discarded)
    clash_pairs, range_photons = reasons[REASON_CLASH] // 2, reasons[REASON_RANGE]
    candidates = n_pairs + clash_pairs
    return MatchMetrics(
        matched_fraction=(2 * n_pairs / total_photons) if total_photons else 0.0,
        clash_rate=(clash_pairs / candidates) if candidates else 0.0,
        out_of_range_fraction=(range_photons / total_photons) if total_photons else 0.0,
        mean_delay=(m.total_weight / n_pairs) if n_pairs else 0.0,
    )


def count_clashing_pairs(m: Matching, network: DelayNetwork) -> int:
    """Pairs involved in at least one clash (diagnostic for the no-clash strategy)."""
    result = route(pair_requests(sorted(m.pairs)), network)
    return len({i for rec in result.clashes for i in (rec.request_a, rec.request_b)})


def matching_csv_rows(m: Matching):
    """Serialization rows: kind, then pair (bin1,bin2,delay) or discard (bin,stream,reason)."""
    rows = [("pair", b1, b2, d) for b1, b2, d in m.pairs]
    rows += [("discard", b, s, r) for b, s, r in m.discarded]
    return rows
