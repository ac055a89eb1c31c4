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
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
    row_bins: np.ndarray           # stream-1 bin per row, -1 for padding rows
    col_bins: np.ndarray           # stream-2 bin per column, -1 for padding


@dataclass
class Matching:
    """Pairs plus per-photon discard records for one instance."""

    pairs: list                    # (stream1_bin, stream2_bin, delay)
    discarded: list                # (bin, stream "1"|"2", reason)
    total_weight: int = 0

    def __post_init__(self):
        self.total_weight = int(sum(d for _, _, d in self.pairs))


@dataclass
class MatchMetrics:
    matched_fraction: float
    clash_rate: float
    out_of_range_fraction: float
    mean_delay: float


def virtual_weight_for(d_max: int) -> int:
    """Virtual-edge weight: several orders of magnitude above any real weight."""
    return max(10 ** 6, 1000 * (d_max + 1))


def build_assignment_matrix(s1: PhotonStream, s2: PhotonStream,
                            d_max: int) -> WeightMatrix:
    """Delay-cost matrix between the photons of two streams.

    Rows index stream-1 photons, columns stream-2 photons; the matrix is
    padded square with virtual vertices when the photon counts differ.
    """
    bins1 = s1.occupied_bins
    bins2 = s2.occupied_bins
    n = max(bins1.size, bins2.size)
    vw = virtual_weight_for(d_max)
    weights = np.full((n, n), vw, dtype=np.int64)
    mask = np.ones((n, n), dtype=bool)
    if bins1.size and bins2.size:
        diff = bins2[None, :].astype(np.int64) - bins1[:, None].astype(np.int64)
        real = (diff >= 0) & (diff <= d_max)
        weights[:bins1.size, :bins2.size][real] = diff[real]
        mask[:bins1.size, :bins2.size][real] = False
    row_bins = np.full(n, -1, dtype=np.int64)
    col_bins = np.full(n, -1, dtype=np.int64)
    row_bins[:bins1.size] = bins1
    col_bins[:bins2.size] = bins2
    return WeightMatrix(n=n, weights=weights, virtual_mask=mask,
                        virtual_weight=vw, row_bins=row_bins, col_bins=col_bins)


def solve_assignment(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect assignment on a square matrix.

    scipy's Jonker-Volgenant shortest-augmenting-path solver; returns
    (row_of_column, total_cost).
    """
    # Lazy: scipy.optimize takes ~0.7 s to import; most commands never need it.
    from scipy.optimize import linear_sum_assignment

    cost = np.asarray(cost, dtype=np.float64)
    rows, cols = linear_sum_assignment(cost)
    row_of_column = np.empty(cols.size, dtype=int)
    row_of_column[cols] = rows
    return row_of_column, float(cost[rows, cols].sum())


def _classify_unmatched(bin_, stream, other_bins) -> tuple:
    """Discard reason for an unmatched photon.

    "range": a counterpart existed in the feasible time direction, so a
    larger delay network could in principle have matched it; "unpaired":
    no counterpart exists at all in that direction.
    """
    if stream == "1":
        reachable = other_bins.size and other_bins[-1] >= bin_
    else:
        reachable = other_bins.size and other_bins[0] <= bin_
    return (int(bin_), stream, REASON_RANGE if reachable else REASON_UNPAIRED)


def hungarian_min_assignment(W: WeightMatrix) -> Matching:
    """Optimal matching from the weight matrix, virtual pairings pruned."""
    if W.n == 0:
        return Matching(pairs=[], discarded=[])
    col_of_row = np.empty(W.n, dtype=int)
    row_of_col, _total = solve_assignment(W.weights)
    col_of_row[row_of_col] = np.arange(W.n)

    pairs = []
    matched_rows = np.zeros(W.n, dtype=bool)
    matched_cols = np.zeros(W.n, dtype=bool)
    for r in range(W.n):
        c = col_of_row[r]
        if W.virtual_mask[r, c]:
            continue
        pairs.append((int(W.row_bins[r]), int(W.col_bins[c]),
                      int(W.weights[r, c])))
        matched_rows[r] = True
        matched_cols[c] = True

    real_rows = W.row_bins >= 0
    real_cols = W.col_bins >= 0
    bins1 = W.row_bins[real_rows]
    bins2 = W.col_bins[real_cols]
    discarded = [_classify_unmatched(b, "1", bins2)
                 for b in W.row_bins[real_rows & ~matched_rows]]
    discarded += [_classify_unmatched(b, "2", bins1)
                  for b in W.col_bins[real_cols & ~matched_cols]]
    pairs.sort()
    return Matching(pairs=pairs, discarded=discarded)


def pair_requests(pairs) -> list:
    """RoutingRequests for the delayable (stream 1) side of each pair."""
    return [RoutingRequest(arrival_bin=b1, delay=d) for b1, _b2, d in pairs]


def _conflict_pairs(pairs, network: DelayNetwork):
    """Sorted couples (j, k), j < k, of pairs whose delayed photons clash."""
    cols = np.array(pairs, dtype=np.int64).reshape(-1, 3)
    rows = clash_rows(cols[:, 0], cols[:, 2], network)
    return sorted(set(map(tuple, rows[:, 2:].tolist())))


def _drop_on_conflict(pairs, conflicts):
    """Keep pairs in order, discarding any pair that clashes with a kept one;
    `conflicts` is sorted, so each j is settled before its (j, k) is read."""
    lost = set()
    for j, k in conflicts:
        if j not in lost:
            lost.add(k)
    return ([p for i, p in enumerate(pairs) if i not in lost],
            [p for i, p in enumerate(pairs) if i in lost])


def resolve_clashes_optimal(m: Matching, network: DelayNetwork) -> Matching:
    """Repair a matching until it routes clash-free.

    Greedy iterative deepening: mark the edge participating in the most
    clashes as virtual, re-solve the assignment, repeat (at most n edge
    removals). Every intermediate matching also yields a drop-the-later-pair
    fallback candidate; the best clash-free candidate by (pair count,
    -total weight) wins.
    """
    if not m.pairs:
        return m
    originally_paired1 = {b1 for b1, _, _ in m.pairs}
    originally_paired2 = {b2 for _, b2, _ in m.pairs}
    original_reason = {(s, b): r for b, s, r in m.discarded}
    bins1 = np.array(sorted(originally_paired1
                            | {b for b, s, _ in m.discarded if s == "1"}),
                     dtype=np.int64)
    bins2 = np.array(sorted(originally_paired2
                            | {b for b, s, _ in m.discarded if s == "2"}),
                     dtype=np.int64)
    W = build_assignment_matrix(_bins_as_stream(bins1), _bins_as_stream(bins2),
                                network.max_delay)
    row_of = {int(b): i for i, b in enumerate(W.row_bins) if b >= 0}
    col_of = {int(b): i for i, b in enumerate(W.col_bins) if b >= 0}

    candidates = []

    def consider(pairs):
        # Photons that held a pair originally but lost it here were removed
        # by clash handling; the rest keep their original discard reason.
        matched1 = {b1 for b1, _, _ in pairs}
        matched2 = {b2 for _, b2, _ in pairs}
        discards = []
        for b in bins1:
            b = int(b)
            if b in matched1:
                continue
            if b in originally_paired1:
                discards.append((b, "1", REASON_CLASH))
            else:
                discards.append((b, "1", original_reason[("1", b)]))
        for b in bins2:
            b = int(b)
            if b in matched2:
                continue
            if b in originally_paired2:
                discards.append((b, "2", REASON_CLASH))
            else:
                discards.append((b, "2", original_reason[("2", b)]))
        candidates.append(Matching(pairs=sorted(pairs), discarded=discards))

    current = sorted(m.pairs)
    for _ in range(W.n + 1):
        conflicts = _conflict_pairs(current, network)
        if not conflicts:
            consider(current)
            break
        kept, _dropped = _drop_on_conflict(current, conflicts)
        consider(kept)
        counts = Counter(i for couple in conflicts for i in couple)
        worst = max(counts, key=lambda idx: (counts[idx], idx))
        b1, b2, _ = current[worst]
        W.weights[row_of[b1], col_of[b2]] = W.virtual_weight
        W.virtual_mask[row_of[b1], col_of[b2]] = True
        current = hungarian_min_assignment(W).pairs

    best = max(candidates,
               key=lambda cand: (len(cand.pairs), -cand.total_weight))
    return best


def _bins_as_stream(bins: np.ndarray) -> PhotonStream:
    n = int(bins.max()) + 1 if bins.size else 1
    arr = np.zeros(n, dtype=bool)
    arr[bins] = True
    return PhotonStream(bins=arr, p=0.0, seed=-1)


def sliding_window_match(s1: PhotonStream, s2: PhotonStream, d_max: int,
                         network: DelayNetwork) -> Matching:
    """Online heuristic: nearest later partner within the delay window.

    Stream-1 photons are scanned in time order and each takes the earliest
    still-unpaired stream-2 photon in [bin, bin + d_max]. Pairs are then
    checked against the network in formation order; on a clash the
    later-formed pair is thrown away (both photons discarded). A pair that
    needs more delay than the network gives raises ValueError.
    """
    bins1 = s1.occupied_bins
    bins2 = s2.occupied_bins
    formed = []
    skipped2 = []
    ptr = 0
    unmatched1 = []
    for b1 in bins1:
        while ptr < bins2.size and bins2[ptr] < b1:
            skipped2.append(int(bins2[ptr]))
            ptr += 1
        if ptr < bins2.size and bins2[ptr] <= b1 + d_max:
            formed.append((int(b1), int(bins2[ptr]), int(bins2[ptr] - b1)))
            ptr += 1
        else:
            unmatched1.append(int(b1))
    leftover2 = skipped2 + [int(b) for b in bins2[ptr:]]

    kept, dropped = _drop_on_conflict(formed, _conflict_pairs(formed, network))

    discarded = [_classify_unmatched(b, "1", bins2) for b in unmatched1]
    discarded += [_classify_unmatched(b, "2", bins1) for b in leftover2]
    for b1, b2, _d in dropped:
        discarded.append((b1, "1", REASON_CLASH))
        discarded.append((b2, "2", REASON_CLASH))
    return Matching(pairs=kept, discarded=discarded)


def matching_metrics(m: Matching, s1: PhotonStream,
                     s2: PhotonStream) -> MatchMetrics:
    """Aggregate fractions for one matching over its source streams."""
    total_photons = s1.photon_count + s2.photon_count
    n_pairs = len(m.pairs)
    clash_pairs = sum(1 for _, _, r in m.discarded if r == REASON_CLASH) // 2
    range_photons = sum(1 for _, _, r in m.discarded if r == REASON_RANGE)
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
