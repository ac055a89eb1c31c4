import dataclasses
import functools
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    assignment_matrix_direct,
    brute_force_assignment,
    clash_couples,
    discards_direct,
    instance_lists,
    metric_row_direct,
    no_clash_pairs_direct,
    oracle_routable,
    resolve_clashes_direct,
    window_pairs_direct,
)
from rmux.delay_network import DelayNetwork, max_delay, route
from rmux import matching, mux_sim
from rmux.experiments import ExperimentConfig, run_experiment
from rmux.matching import (
    STRATEGIES,
    Matching,
    _clamp_scan,
    _conflicts_each,
    _flat_matchings,
    _match_rows,
    _metric_rows,
    _optimal_pairs,
    _repair_all,
    _window_core,
    _window_rows,
    build_assignment_matrix,
    hungarian_min_assignment,
    matching_csv_rows,
    matching_metrics,
    pair_requests,
    resolve_clashes_optimal,
    sliding_window_match,
    solve_assignment,
    virtual_weight_for,
)
from rmux.mux_sim import match_streams
from rmux.streams import generate_stream, stream_from_bins


def stream_at(bins, n):
    arr = np.zeros(n, dtype=bool)
    arr[list(bins)] = True
    return stream_from_bins(arr)


# ---------------------------------------------------------------- matrix

def test_matrix_single_feasible_pair():
    W = build_assignment_matrix(stream_at([0], 6), stream_at([2], 6), 3)
    assert W.n == 1
    assert W.weights.tolist() == [[2]]
    assert not W.virtual_mask[0, 0]


def test_matrix_out_of_range_pair_is_virtual():
    W = build_assignment_matrix(stream_at([0], 6), stream_at([5], 6), 3)
    assert W.virtual_mask[0, 0]
    assert W.weights[0, 0] == W.virtual_weight


def test_matrix_padding_and_range_virtuals():
    W = build_assignment_matrix(stream_at([0, 5], 8), stream_at([2], 8), 3)
    assert W.n == 2
    v = W.virtual_weight
    assert W.weights.tolist() == [[2, v], [v, v]]
    assert W.virtual_mask.tolist() == [[False, True], [True, True]]


def test_matrix_rejects_backward_pairs():
    # stream-2 photon earlier than stream-1 photon: never a real edge
    W = build_assignment_matrix(stream_at([4], 8), stream_at([1], 8), 5)
    assert W.virtual_mask[0, 0]


def test_virtual_weight_scaling():
    assert virtual_weight_for(3) == 10 ** 6
    assert virtual_weight_for(10 ** 4) >= 1000 * (10 ** 4 + 1)


def test_empty_streams_give_empty_or_all_virtual_matrix():
    W = build_assignment_matrix(stream_at([], 4), stream_at([], 4), 3)
    assert W.n == 0
    W2 = build_assignment_matrix(stream_at([1], 4), stream_at([], 4), 3)
    assert W2.n == 1 and W2.virtual_mask.all()


def test_weight_matrix_derives_size_and_virtual_mask():
    # The weights are the one record: marking an entry virtual there is all
    # a repair does, and the size and mask cannot be set apart from them.
    W = build_assignment_matrix(stream_at([0, 5], 8), stream_at([2], 8), 3)
    assert [field.name for field in dataclasses.fields(W)] == [
        "weights", "virtual_weight", "row_bins", "col_bins"]
    W.weights[0, 0] = W.virtual_weight
    assert W.n == 2 and W.virtual_mask.all()
    for name in ("n", "virtual_mask"):
        with pytest.raises(AttributeError):
            setattr(W, name, getattr(W, name))


def assert_same_matrix(got, want):
    assert (got.n, got.virtual_weight) == (want.n, want.virtual_weight)
    for field in ("weights", "virtual_mask", "row_bins", "col_bins"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert (a == b).all(), field


@st.composite
def stream_pairs_and_counts(draw):
    """Two seeded streams of the same length and distinct switch counts."""
    p = draw(st.sampled_from([0.0, 0.1, 0.4, 0.8]))
    n_bins = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 2))
    switches = draw(st.lists(st.integers(1, 64), min_size=1, max_size=6,
                             unique=True))
    return (generate_stream(p, n_bins, seed),
            generate_stream(p, n_bins, seed + 1), switches)


# At every count, the vectorized build equals the pair-by-pair oracle, field
# by field.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stream_pairs_and_counts())
@example((stream_at([], 4), stream_at([], 4), [1, 3]))       # no photons
@example((stream_at([], 6), stream_at([1, 2], 6), [2]))      # one side empty
@example((stream_at([0, 2, 3, 7], 9), stream_at([5], 9),     # unequal, s = 64
          [64, 1, 4]))
# Past 1000 bins the cap at n_bins - 1 sets the virtual weight at s = 64.
@example((stream_at([0, 1500], 2000), stream_at([3], 2000), [64, 12]))
def test_assignment_matrix_equals_pair_by_pair_build(case):
    st1, st2, switches = case
    for s in switches:
        W = build_assignment_matrix(st1, st2, max_delay(s))
        want, mask = assignment_matrix_direct(st1, st2, max_delay(s))
        assert_same_matrix(W, want)
        assert W.virtual_mask.dtype == bool and W.virtual_mask.shape == mask.shape
        assert (W.virtual_mask == mask).all()


# ---------------------------------------------------------------- solver

def test_assignment_diagonal_forced():
    V = 10 ** 6
    assignment, total = solve_assignment(np.array([[0, V], [V, 0]]))
    assert assignment.tolist() == [0, 1]
    assert total == 0


def test_assignment_prefers_anti_diagonal():
    # permutations: 1+4=5 versus 2+2=4
    assignment, total = solve_assignment(np.array([[1, 2], [2, 4]]))
    assert total == 4
    assert assignment.tolist() == [1, 0]


def test_assignment_three_cycle_returns_row_of_column():
    # optimum pairs row 0->col 1, 1->2, 2->0; reading the result as
    # column-of-row would give [1, 2, 0]
    assignment, total = solve_assignment(
        np.array([[9, 0, 9], [9, 9, 0], [0, 9, 9]]))
    assert assignment.tolist() == [2, 0, 1]
    assert total == 0


def test_assignment_against_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(400):
        n = int(rng.integers(1, 7))
        cost = rng.integers(0, 100, size=(n, n))
        _, total = solve_assignment(cost)
        assert total == brute_force_assignment(cost.tolist())


def test_hungarian_prunes_virtual_pairs():
    m = hungarian_min_assignment(
        build_assignment_matrix(stream_at([0, 5], 8), stream_at([2], 8), 3))
    assert m.pairs == [(0, 2, 2)]
    # no stream-2 photon exists at or after bin 5, so no delay could help
    assert (5, "1", "unpaired") in m.discarded


def test_hungarian_pairs_and_delay_against_brute_force():
    # The virtual weight exceeds any real total, so the brute-force optimum
    # encodes both the virtual pairings (quotient) and the delay (remainder).
    rng = np.random.default_rng(5)
    padded = out_of_range = 0
    for _ in range(300):
        n_bins = 10
        bins1 = rng.choice(n_bins, size=int(rng.integers(1, 7)), replace=False)
        bins2 = rng.choice(n_bins, size=int(rng.integers(1, 7)), replace=False)
        W = build_assignment_matrix(stream_at(bins1, n_bins),
                                    stream_at(bins2, n_bins),
                                    int(rng.integers(0, 4)))
        virtual, delay = divmod(brute_force_assignment(W.weights.tolist()),
                                W.virtual_weight)
        m = hungarian_min_assignment(W)
        assert (len(m.pairs), m.total_weight) == (W.n - virtual, delay)
        padded += bins1.size != bins2.size
        out_of_range += bool(W.virtual_mask[:bins1.size, :bins2.size].any())
    assert padded and out_of_range


def test_hungarian_rejects_a_matrix_that_is_no_window_instance():
    # One real edge made virtual, as a repair does: no window gives that.
    W = build_assignment_matrix(stream_at([0, 1], 8), stream_at([1, 5], 8), 7)
    W.weights[0, 0] = W.virtual_weight
    with pytest.raises(ValueError, match="no window instance"):
        hungarian_min_assignment(W)


# ------------------------------------------------------- clash resolution

def test_resolve_is_identity_on_clash_free_matching():
    net = DelayNetwork(3)
    W = build_assignment_matrix(stream_at([0, 5], 8), stream_at([2, 6], 8),
                                net.max_delay)
    m = hungarian_min_assignment(W)
    assert m.pairs == [(0, 2, 2), (5, 6, 1)]
    assert resolve_clashes_optimal(m, W, net).pairs == m.pairs


def test_resolve_repairs_clashing_two_pair_matching():
    # s1={0,1}, s2={1,5} at s=4: both minimum matchings clash at the 2-bin
    # stage, so resolution must drop to one clash-free pair.
    net = DelayNetwork(4)
    W = build_assignment_matrix(stream_at([0, 1], 8), stream_at([1, 5], 8),
                                net.max_delay)
    m = hungarian_min_assignment(W)
    assert len(m.pairs) == 2
    assert not route(pair_requests(m.pairs), net).clash_free
    weights, mask = W.weights.copy(), W.virtual_mask.copy()
    fixed = resolve_clashes_optimal(m, W, net)
    # the repair marks edges virtual on its own copy of the matrix
    assert (W.weights == weights).all() and (W.virtual_mask == mask).all()
    assert route(pair_requests(fixed.pairs), net).clash_free
    assert len(fixed.pairs) >= 1
    clash_discards = [d for d in fixed.discarded if d[2] == "clash"]
    assert len(clash_discards) == 2


def test_resolve_keeps_prior_reasons_and_marks_dropped_pair_clash():
    # The clash instance above shifted by 2 bins, plus four photons no
    # 7-bin delay can pair: stream-1 bin 20 and stream-2 bin 30 have a
    # counterpart in their feasible direction ("range"), stream-1 bin 40
    # and stream-2 bin 0 have none ("unpaired").
    net = DelayNetwork(4)
    W = build_assignment_matrix(stream_at([2, 3, 20, 40], 48),
                                stream_at([0, 3, 7, 30], 48), net.max_delay)
    m = hungarian_min_assignment(W)
    assert m.pairs == [(2, 3, 1), (3, 7, 4)]
    assert m.discarded == [(20, "1", "range"), (40, "1", "unpaired"),
                           (0, "2", "unpaired"), (30, "2", "range")]
    fixed = resolve_clashes_optimal(m, W, net)
    assert fixed.pairs == [(2, 3, 1)]
    assert fixed.discarded == [(3, "1", "clash"), (20, "1", "range"),
                               (40, "1", "unpaired"), (0, "2", "unpaired"),
                               (7, "2", "clash"), (30, "2", "range")]


def test_hungarian_with_clash_pinned_on_clash_heavy_instances():
    # Digest of (pairs, discarded) over 40 instances whose no-clash optimum
    # does not route, so each one runs the repair loop: it pins the repair's
    # rounds, tie-breaks and discard reasons.
    rng = np.random.default_rng(41)
    digest = hashlib.sha256()
    repaired = clashed = 0
    while repaired < 40:
        net = DelayNetwork(int(rng.integers(4, 9)))
        s1, s2 = (generate_stream(0.3, 80, int(x))
                  for x in rng.integers(0, 2 ** 32, size=2))
        m = hungarian_min_assignment(
            build_assignment_matrix(s1, s2, net.max_delay))
        if route(pair_requests(m.pairs), net).clash_free:
            continue
        fixed, _ = match_streams(s1, s2, net, "hungarian_with_clash")
        digest.update(repr((fixed.pairs, fixed.discarded)).encode())
        repaired += 1
        clashed += any(r == "clash" for _, _, r in fixed.discarded)
    assert clashed == 7
    assert digest.hexdigest() == (
        "6b1e221e7ecc766674e6248424f194f714dfbdb5a02d6227a83a4b853043378b")


@st.composite
def small_window_instances(draw):
    """(bins1, bins2, d_max, n_bins): at most 7 photons per side."""
    n_bins = draw(st.integers(1, 14))
    side = st.lists(st.integers(0, n_bins - 1), max_size=7, unique=True)
    return (sorted(draw(side)), sorted(draw(side)),
            draw(st.integers(0, n_bins + 2)), n_bins)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_window_instances())
@example(([], [], 0, 1))
@example(([0, 1, 2], [], 2, 4))
@example(([3], [0, 1, 2], 5, 4))                       # all backward
@example(([0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 5, 6], 0, 7))
@example(([0, 1, 5, 6], [1, 2, 6, 13], 1, 14))
def test_two_sweeps_give_the_brute_force_optimum(case):
    # The virtual weight exceeds any real total here, so the brute-force
    # optimum encodes both the virtual pairings (quotient) and the delay
    # (remainder).
    bins1, bins2, d_max, n_bins = case
    st1, st2 = stream_at(bins1, n_bins), stream_at(bins2, n_bins)
    W, _mask = assignment_matrix_direct(st1, st2, d_max)
    d = min(d_max, n_bins - 1)
    pairs, _owner, _stride = _optimal_pairs([(st1.occupied_bins,
                                              st2.occupied_bins, d)])
    got = list(map(tuple, pairs.tolist()))
    virtual, delay = divmod(brute_force_assignment(W.weights.tolist()),
                            W.virtual_weight)
    assert (len(got), sum(dl for *_bins, dl in got)) == (W.n - virtual, delay)
    # The FIFO pairing: both sides in bin order, every pair in its window.
    firsts, seconds = [p[0] for p in got], [p[1] for p in got]
    assert firsts == sorted(set(firsts)) and seconds == sorted(set(seconds))
    assert all(0 <= b2 - b1 == dl <= d for b1, b2, dl in got)
    assert got == no_clash_pairs_direct(bins1, bins2, d)
    assert hungarian_min_assignment(W).pairs == got


def test_block_of_optima_equals_the_pointer_loops_one_instance_at_a_time():
    # Instances of different lengths, densities and windows on one axis.
    rng = np.random.default_rng(7)
    instances = []
    for _ in range(80):
        n_bins = int(rng.integers(1, 400))
        st1, st2 = (generate_stream(float(rng.choice([0.0, 0.1, 0.4, 1.0])),
                                    n_bins, int(x))
                    for x in rng.integers(0, 2 ** 32, size=2))
        d = min(max_delay(int(rng.integers(1, 10))), n_bins - 1)
        instances.append((st1.occupied_bins, st2.occupied_bins, d))
    pairs, owner, stride = _optimal_pairs(instances)
    assert stride > max(int(b.max(initial=0)) + d for *bins, d in instances
                        for b in bins)
    assert instance_lists(pairs, owner, len(instances)) == [
        no_clash_pairs_direct(b1.tolist(), b2.tolist(), d)
        for b1, b2, d in instances]


def test_matched_photons_equal_scipys_where_pairs_come_first():
    """The sweeps match the same photons as scipy's optimum on the same
    matrix wherever the virtual weight exceeds n * d.

    The condition is needed. scipy minimizes the sum of the matrix, so it
    puts the number of pairs first only while one more virtual entry costs
    more than the most that real delay can fall by, n * d; past that it may
    give up a pair to save delay, where the sweeps always take the most
    pairs. Below it both find a least-delay maximum matching, and with
    distinct bins each side's matched set of one is unique (the best basis
    of the matching matroid, Edmonds & Fulkerson 1965), though the pairing
    of the two sets need not be.
    """
    rng = np.random.default_rng(20170324)
    checked = 0
    for _ in range(200):
        n_bins = int(rng.integers(20, 300))
        s = int(rng.integers(1, 9))
        st1, st2 = (generate_stream(float(rng.choice([0.1, 0.3, 0.5])),
                                    n_bins, int(x))
                    for x in rng.integers(0, 2 ** 32, size=2))
        W = build_assignment_matrix(st1, st2, max_delay(s))
        if W.virtual_weight <= W.n * min(max_delay(s), n_bins - 1):
            continue
        pairs = hungarian_min_assignment(W).pairs
        row_of_column, _total = solve_assignment(W.weights)
        scipy_pairs = [(W.row_bins[r], W.col_bins[c])
                       for c, r in enumerate(row_of_column.tolist())
                       if not W.virtual_mask[r, c]]
        for side in (0, 1):
            assert sorted(p[side] for p in pairs) == sorted(
                int(p[side]) for p in scipy_pairs)
        checked += 1
    assert checked == 200


@st.composite
def sorted_pair_lists(draw):
    s = draw(st.integers(1, 4))
    requests = draw(st.lists(st.tuples(st.integers(0, 12),
                                       st.integers(0, max_delay(s))),
                             max_size=8))
    return s, sorted((b1, b1 + d, d) for b1, d in requests)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sorted_pair_lists())
def test_conflict_pairs_match_couple_oracle(case):
    s, pairs = case
    want = [(j, k) for j, k in itertools.combinations(range(len(pairs)), 2)
            if not oracle_routable(pair_requests([pairs[j], pairs[k]]), s)]
    assert _conflicts_each([pairs], DelayNetwork(s)) == [want]


@st.composite
def repair_instances(draw):
    """(p, n_bins, seed, switch count) of one to six stream pairs."""
    return draw(st.lists(st.tuples(
        st.sampled_from([0.0, 0.1, 0.3, 0.4]), st.integers(1, 120),
        st.integers(0, 2**32 - 2), st.integers(1, 9)), min_size=1,
        max_size=6))


def no_clash_instances(specs):
    """(Matching, WeightMatrix, network) of the no-clash assignment of each
    (p, n_bins, seed, s)."""
    out = []
    for p, n_bins, seed, s in specs:
        W = build_assignment_matrix(generate_stream(p, n_bins, seed),
                                    generate_stream(p, n_bins, seed + 1),
                                    max_delay(s))
        out.append((hungarian_min_assignment(W), W, DelayNetwork(s)))
    return out


# p = 0.4 at 120 bins: three clashing instances whose lockstep repair runs
# 10 rounds, one scan each.
SEVERAL_ROUNDS = [(0.4, 120, 8, 4), (0.4, 120, 18, 6), (0.4, 120, 28, 8)]


# The lockstep repair routes every instance through the largest network and
# scans all of them once per round; each must come out as its own repair.
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(repair_instances())
@example(SEVERAL_ROUNDS)
@example([(0.0, 50, 1, 3), (0.1, 4, 2, 2), (0.4, 120, 8, 4)])  # empty, free
def test_lockstep_repair_equals_per_instance_repairs(specs):
    instances = no_clash_instances(specs)
    best = _repair_all([(m.pairs, W) for m, W, _net in instances],
                       max((net for *_, net in instances),
                           key=lambda net: net.s))
    got = [Matching(pairs, W.row_bins, W.col_bins, lost=m.pairs)
           for pairs, (m, W, _net) in zip(best, instances)]
    assert got == [resolve_clashes_optimal(m, W, net)
                   for m, W, net in instances]
    assert got == [resolve_clashes_direct(m, W, net)
                   for m, W, net in instances]


def test_lockstep_repair_scans_once_per_round(monkeypatch):
    scans = []
    conflicts_each = matching._conflicts_each

    def counting(instances, network):
        scans.append(len(instances))
        return conflicts_each(instances, network)

    monkeypatch.setattr(matching, "_conflicts_each", counting)
    instances = no_clash_instances(SEVERAL_ROUNDS)
    _repair_all([(m.pairs, W) for m, W, _net in instances], DelayNetwork(8))
    # Every instance clashes; each round scans those still being repaired.
    assert len(scans) == 10 and scans[0] == 3
    assert scans == sorted(scans, reverse=True)


def test_resolve_empty_matching():
    W = build_assignment_matrix(stream_at([0], 4), stream_at([], 4), 7)
    m = Matching([], W.row_bins, W.col_bins)
    assert m.discarded == [(0, "1", "unpaired")]
    assert resolve_clashes_optimal(m, W, DelayNetwork(3)).pairs == []


# --------------------------------------------------------- sliding window

def test_window_example_pairs_in_order():
    net = DelayNetwork(3)
    m = sliding_window_match(stream_at([0, 5], 8), stream_at([2, 6], 8), 3, net)
    assert m.pairs == [(0, 2, 2), (5, 6, 1)]
    assert m.total_weight == 3


def test_window_no_partner():
    m = sliding_window_match(stream_at([0], 2), stream_at([], 2), 3,
                             DelayNetwork(3))
    assert m.pairs == []
    assert m.discarded == [(0, "1", "unpaired")]


def test_window_coincident_photons():
    m = sliding_window_match(stream_at([0], 1), stream_at([0], 1), 3,
                             DelayNetwork(3))
    assert m.pairs == [(0, 0, 0)]


def test_window_out_of_range_reason():
    m = sliding_window_match(stream_at([0], 8), stream_at([5], 8), 3,
                             DelayNetwork(3))
    assert m.pairs == []
    assert (0, "1", "range") in m.discarded
    assert (5, "2", "range") in m.discarded


def test_window_rejects_pair_beyond_the_network():
    # d_max 2 forms the pair (0, 2, 2), which a 2-switch network (maximum
    # delay 1) cannot realize.
    with pytest.raises(ValueError):
        sliding_window_match(stream_at([0], 8), stream_at([2], 8), 2,
                             DelayNetwork(2))


def window_instances():
    """Seeded window inputs: raw streams at s = 1..8, and derived event
    streams (kept pairs' later bins, as in the Bell cascade) at s2 up to 14."""
    for s in range(1, 9):
        for k, p in enumerate((0.1, 0.3, 0.6)):
            yield (generate_stream(p, 400, 10 * s + k),
                   generate_stream(p, 400, 10 * s + k + 5), DelayNetwork(s))
    for s1 in (2, 4, 6):
        net1 = DelayNetwork(s1)
        raw = [generate_stream(0.1, 10000, 100 + 4 * s1 + j) for j in range(4)]
        events = []
        for a, b in (raw[:2], raw[2:]):
            ev = np.zeros(10000, dtype=bool)
            ev[[b2 for _b1, b2, _d in
                sliding_window_match(a, b, net1.max_delay, net1).pairs]] = True
            events.append(stream_from_bins(ev))
        for s2 in (8, 11, 14):
            yield events[0], events[1], DelayNetwork(s2)


def window_lists(bins1, bins2, reaches, net) -> list:
    """Per reach, `_window_rows`' (kept, dropped) pairs as the (b1, b2,
    delay) tuple lists `window_pairs_direct` gives."""
    kept, dropped = (instance_lists(*rows, len(reaches))
                     for rows in _window_rows(bins1, bins2, reaches, net))
    return list(zip(kept, dropped))


def test_window_core_keeps_the_pairs_and_drops_the_clash_photons():
    dropped_total = 0
    for a, b, net in window_instances():
        (kept, dropped), = window_lists(a.occupied_bins.tolist(),
                                        b.occupied_bins.tolist(),
                                        [net.max_delay], net)
        m = sliding_window_match(a, b, net.max_delay, net)
        assert kept == m.pairs
        clash = sorted((bn, st) for bn, st, r in m.discarded if r == "clash")
        assert sorted([(b1, "1") for b1, _b2, _d in dropped]
                      + [(b2, "2") for _b1, b2, _d in dropped]) == clash
        dropped_total += len(dropped)
    assert dropped_total > 50


def test_window_pinned_on_seeded_instances():
    # sha256 of every instance's pairs and clash photons, as the window
    # wrote them before its pairing moved into `_window_core`
    h = hashlib.sha256()
    for a, b, net in window_instances():
        m = sliding_window_match(a, b, net.max_delay, net)
        clash = sorted((bn, st) for bn, st, r in m.discarded if r == "clash")
        h.update(repr((m.pairs, clash)).encode())
    assert h.hexdigest() == ("0750ec353df354ab75a2ec7fef0d1c88"
                             "11c1891b9a0684e43c711c2e3ca7c8dc")


@st.composite
def window_cases(draw):
    """Two sorted bin lists and a network: few bins (many coincidences),
    dense bins, or bins far apart, with d_max from 0 to 8191."""
    s = draw(st.sampled_from([1, 2, 3, 5, 9, 14]))
    d_max = draw(st.sampled_from([0, max_delay(s)]))
    spread = draw(st.sampled_from([3, 60, 40_000]))
    bins = st.lists(st.integers(0, spread), max_size=40, unique=True)
    return sorted(draw(bins)), sorted(draw(bins)), d_max, DelayNetwork(s)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(window_cases())
@example(([], [], 0, DelayNetwork(1)))
@example(([], [0, 5], 7, DelayNetwork(4)))
@example(([0, 5], [], 7, DelayNetwork(4)))
@example(([0, 1, 2, 3], [0, 1, 2, 3], 0, DelayNetwork(1)))
@example(([0, 1, 2, 3], [0, 1, 2, 3], 8191, DelayNetwork(14)))
@example(([0, 9000, 30000], [8191, 17191, 38192], 8191, DelayNetwork(14)))
def test_window_core_equals_pointer_loop(case):
    bins1, bins2, d_max, net = case
    assert window_lists(bins1, bins2, [d_max], net) == [window_pairs_direct(
        bins1, bins2, d_max, net)]


@st.composite
def multi_reach_cases(draw):
    """`window_cases` with a list of reaches in the network's range, drawn
    from 0, the case's d_max and any other, so reaches repeat."""
    bins1, bins2, d_max, net = draw(window_cases())
    reach = st.one_of(st.just(0), st.just(d_max),
                      st.integers(0, net.max_delay))
    return bins1, bins2, draw(st.lists(reach, min_size=1, max_size=5)), net


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(multi_reach_cases())
@example(([], [], [0, 0], DelayNetwork(1)))
@example(([0, 5], [], [7, 0, 7], DelayNetwork(4)))
@example(([0, 1, 2, 3], [0, 1, 2, 3], [0, 8191, 0, 8191], DelayNetwork(14)))
@example(([0, 9000, 30000], [8191, 17191, 38192], [8191, 8190, 0],
          DelayNetwork(14)))
def test_window_core_over_several_reaches_equals_one_call_each(case):
    bins1, bins2, reaches, net = case
    b1, b2, keep, copy = _window_core(bins1, bins2, reaches, net)
    assert (np.diff(copy) >= 0).all()
    for c, reach in enumerate(reaches):
        *one, one_copy = _window_core(bins1, bins2, reach, net)
        assert not one_copy.any()
        for got, want in zip((b1, b2, keep), one):
            assert got[copy == c].tolist() == want.tolist(), c
    assert window_lists(bins1, bins2, reaches, net) == [
        window_pairs_direct(bins1, bins2, reach, net) for reach in reaches]


SPARSE_REACHES = [0, 1, 3, 7, 63]


def sparse_window_streams():
    """Sorted bins of seeded stream pairs at p <= 0.05, where most photons
    have no stream-2 photon within the smaller reaches."""
    for seed, (p1, p2) in enumerate([(0.05, 0.05), (0.01, 0.05),
                                     (0.05, 0.02)]):
        yield (generate_stream(p1, 4000, 40 + seed).occupied_bins,
               generate_stream(p2, 4000, 50 + seed).occupied_bins)


def test_window_on_sparse_streams_equals_pointer_loop_per_reach():
    net = DelayNetwork(7)
    for bins1, bins2 in sparse_window_streams():
        lb = np.searchsorted(bins2, bins1, "left")
        for given in (None, lb):
            b1, b2, keep, copy = _window_core(bins1, bins2, SPARSE_REACHES,
                                              net, given)
            for c, reach in enumerate(SPARSE_REACHES):
                at = copy == c
                formed = list(zip(b1[at].tolist(), b2[at].tolist(),
                                  (b2 - b1)[at].tolist()))
                got = ([p for p, k in zip(formed, keep[at]) if k],
                       [p for p, k in zip(formed, keep[at]) if not k])
                assert got == window_pairs_direct(
                    bins1.tolist(), bins2.tolist(), reach, net), reach


def test_window_clamp_scans_only_slots_with_a_partner_in_reach(monkeypatch):
    # A photon with no stream-2 photon in [b1, b1 + reach] changes no pair,
    # so its (reach, photon) slot never enters the clamp scan.
    sizes = []

    def counted(lb, ub):
        sizes.append(lb.size)
        return _clamp_scan(lb, ub)

    monkeypatch.setattr(matching, "_clamp_scan", counted)
    for bins1, bins2 in sparse_window_streams():
        sizes.clear()
        _window_core(bins1, bins2, SPARSE_REACHES, DelayNetwork(7))
        slots = sum(any(a <= b <= a + reach for b in bins2.tolist())
                    for reach in SPARSE_REACHES for a in bins1.tolist())
        assert sizes == [slots]
        assert 0 < slots < len(SPARSE_REACHES) * bins1.size // 2


def test_window_copies_past_int64_raise_value_error():
    net = DelayNetwork(2)
    top = 2 ** 62 - 1          # two copies of it end at the int64 maximum
    assert window_lists([top - 1], [top], [1, 0], net) == [
        ([(top - 1, top, 1)], []), ([], [])]
    # A single reach lays no copy past the first.
    assert window_lists([top], [top + 1], [1], net) == [
        ([(top, top + 1, 1)], [])]
    with pytest.raises(ValueError, match="exceed the int64 maximum"):
        _window_core([top], [top + 1], [1, 1], net)
    with pytest.raises(ValueError, match="exceed the int64 maximum"):
        _window_core([2 ** 62 - 7], [2 ** 62 + 3], [0, 1], net)


def test_instances_past_int64_on_one_axis_raise_value_error():
    # Each matching's two streams (each instance) take one stride of the
    # shared axis; bins near 2^62 used to wrap there.
    big = Matching([(2 ** 62, 2 ** 62 + 1, 1)], np.array([2 ** 62]),
                   np.array([2 ** 62 + 1]))
    with pytest.raises(ValueError, match="exceed the int64 maximum"):
        _metric_rows(*_flat_matchings([big]))
    with pytest.raises(ValueError, match="exceed the int64 maximum"):
        _conflicts_each([[(2 ** 62, 2 ** 62, 0)]] * 2, DelayNetwork(2))


def test_instances_that_just_fit_on_one_axis_keep_their_records():
    # Two strides of 2^62 end at the int64 maximum. Stream-1 photon 0 has
    # a later stream-2 photon, so it reads "range", not "unpaired".
    top = 2 ** 62 - 1
    m = Matching([(top - 1, top, 1)], np.array([0, top - 1]), np.array([top]))
    assert _metric_rows(*_flat_matchings([m]))[0, :3].tolist() == [2 / 3, 0.0, 1 / 3]
    assert m.discarded == [(0, "1", "range")]
    pairs = [(top - 1, top, 1), (top - 1, top, 1)]
    assert _conflicts_each([pairs[:1], pairs], DelayNetwork(2)) == [
        *_conflicts_each([pairs[:1]], DelayNetwork(2)),
        *_conflicts_each([pairs], DelayNetwork(2))] == [[], [(0, 1)]]
    # One instance takes no offset, even at the int64 maximum.
    top = 2 ** 63 - 1
    pairs = [(top - 1, top, 1), (top, top, 0)]
    assert _conflicts_each([pairs], DelayNetwork(2)) == [
        clash_couples(pairs, DelayNetwork(2))] == [[(0, 1)]]


def test_weight_column_is_exact_past_2_to_53():
    # float64 keeps no bin near 2^62 to the unit, so summing signed photon
    # bins there read a delay of 1 as 0; each matching's pair delays do not.
    top = 2 ** 62 - 1
    m = Matching([(top - 1, top, 1)], np.array([0, top - 1]), np.array([top]))
    assert _metric_rows(*_flat_matchings([m]))[0, 3] == m.total_weight == 1
    assert matching_metrics(m).mean_delay == 1.0
    two = Matching([(top - 3, top - 1, 2), (top, top, 0)],
                   np.array([top - 3, top]), np.array([top - 1, top]))
    assert _metric_rows(*_flat_matchings([two]))[0].tolist() == [1.0, 0.0, 0.0, 2.0]


def test_window_ending_past_int64_keeps_its_pairs():
    # b1 + 8191 passes the int64 maximum; the window must end there, not
    # wrap below b1 and lose the pair that reach 1 finds.
    top = 2 ** 63 - 1
    assert window_lists([top - 9], [top - 8], [8191], DelayNetwork(14)) == (
        window_lists([top - 9], [top - 8], [1], DelayNetwork(2))) == [
        ([(top - 9, top - 8, 1)], [])]
    # A stream-2 bin at the maximum itself: one copy's stride is then 2^63.
    bins1, bins2 = [top - 9, top - 3, top], [top - 8, top - 1, top]
    for reach in (8191, 2, 0):
        assert window_lists(bins1, bins2, [reach], DelayNetwork(14)) == [
            window_pairs_direct(bins1, bins2, reach, DelayNetwork(14))]


@pytest.mark.parametrize("bins1, bins2, d_max, net, checks", [
    # d_max = 0: every clamp is constant from the start, so the scan checks
    # once and takes no step.
    (list(range(64)), list(range(64)), 0, DelayNetwork(1), 1),
    # Dense streams, wide window: every clamp keeps lo = 1 < hi, so the
    # scan takes all ceil(log2 64) = 6 steps, checking before each.
    (list(range(64)), list(range(128)), 8191, DelayNetwork(14), 6),
])
def test_window_scan_stops_once_its_clamps_settle(bins1, bins2, d_max, net,
                                                  checks, monkeypatch):
    seen = []

    def array_equal(a, b):
        seen.append(bool(np.all(a == b)))
        return seen[-1]
    monkeypatch.setattr(matching.np, "array_equal", array_equal)
    assert window_lists(bins1, bins2, [d_max], net) == [window_pairs_direct(
        bins1, bins2, d_max, net)]
    assert len(seen) == checks and seen[-1] == (checks == 1)


def test_window_core_rejects_pair_beyond_the_network():
    with pytest.raises(ValueError, match="delay 2 outside"):
        window_lists([0], [2], [2], DelayNetwork(2))
    assert window_lists([0], [2], [1], DelayNetwork(2)) == [([], [])]


def test_window_discards_later_pair_on_clash():
    # frozen clash instance from the routing tests, s=4
    net = DelayNetwork(4)
    m = sliding_window_match(stream_at([0, 1], 8), stream_at([1, 5], 8),
                             net.max_delay, net)
    assert m.pairs == [(0, 1, 1)]
    assert (1, "1", "clash") in m.discarded
    assert (5, "2", "clash") in m.discarded
    assert route(pair_requests(m.pairs), net).clash_free


# ------------------------------------------------------------- properties

def random_instances(count, seed, p=0.12, n_bins=240):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        s = int(rng.integers(1, 7))
        net = DelayNetwork(s)
        s1 = generate_stream(p, n_bins, int(rng.integers(0, 2 ** 32)))
        s2 = generate_stream(p, n_bins, int(rng.integers(0, 2 ** 32)))
        yield s1, s2, net


def test_window_output_always_routes_clash_free():
    for s1, s2, net in random_instances(60, seed=8):
        m = sliding_window_match(s1, s2, net.max_delay, net)
        assert route(pair_requests(m.pairs), net).clash_free
        assert all(0 <= d <= net.max_delay for _, _, d in m.pairs)
        assert all(b2 >= b1 for b1, b2, _ in m.pairs)


def test_resolved_output_always_routes_clash_free_and_dominates_window():
    for s1, s2, net in random_instances(40, seed=9):
        W = build_assignment_matrix(s1, s2, net.max_delay)
        resolved = resolve_clashes_optimal(hungarian_min_assignment(W), W, net)
        assert route(pair_requests(resolved.pairs), net).clash_free
        window = sliding_window_match(s1, s2, net.max_delay, net)
        assert len(resolved.pairs) >= len(window.pairs)


def test_no_photon_used_twice():
    for s1, s2, net in random_instances(30, seed=10):
        m = hungarian_min_assignment(
            build_assignment_matrix(s1, s2, net.max_delay))
        firsts = [b1 for b1, _, _ in m.pairs]
        seconds = [b2 for _, b2, _ in m.pairs]
        assert len(set(firsts)) == len(firsts)
        assert len(set(seconds)) == len(seconds)
        assert all(b2 - b1 == d for b1, b2, d in m.pairs)
        assert m.total_weight == sum(d for _, _, d in m.pairs)


def test_every_photon_is_paired_or_discarded_once_in_stream_bin_order():
    rng = np.random.default_rng(12)
    clash_discards = set()
    for _ in range(90):
        net = DelayNetwork(int(rng.integers(1, 9)))
        s1, s2 = (generate_stream(0.3, 120, int(x))
                  for x in rng.integers(0, 2 ** 32, size=2))
        for strategy in STRATEGIES:
            m, _ = match_streams(s1, s2, net, strategy)
            for side, (stream, source) in enumerate((("1", s1), ("2", s2))):
                seen = ([p[side] for p in m.pairs]
                        + [b for b, which, _ in m.discarded if which == stream])
                assert sorted(seen) == source.occupied_bins.tolist()
            assert m.discarded == sorted(m.discarded,
                                         key=lambda d: (d[1], d[0]))
            assert {r for _, _, r in m.discarded} <= {"range", "unpaired",
                                                      "clash"}
            if any(r == "clash" for _, _, r in m.discarded):
                clash_discards.add(strategy)
    assert clash_discards == {"hungarian_with_clash", "realistic"}


# -------------------------------------------------------- discard records

@st.composite
def discard_cases(draw):
    """Two streams, either of which may be empty, and a network."""
    n_bins = draw(st.integers(1, 60))
    p1, p2 = (draw(st.sampled_from([0.0, 0.1, 0.3, 0.6])) for _ in range(2))
    seed = draw(st.integers(0, 2**32 - 2))
    net = DelayNetwork(draw(st.integers(1, 8)))
    return (generate_stream(p1, n_bins, seed),
            generate_stream(p2, n_bins, seed + 1), net)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(discard_cases())
@example((stream_at([], 4), stream_at([], 4), DelayNetwork(1)))
@example((stream_at([], 4), stream_at([1, 3], 4), DelayNetwork(2)))
@example((stream_at([0, 2], 4), stream_at([], 4), DelayNetwork(2)))
@example((stream_at([0, 5], 8), stream_at([5], 8), DelayNetwork(4)))
def test_every_strategy_discards_as_the_definition_says(case):
    s1, s2, net = case
    for strategy in STRATEGIES:
        m, _ = match_streams(s1, s2, net, strategy)
        assert m.discarded == discards_direct(
            s1.occupied_bins, s2.occupied_bins, m.pairs, m.lost)


@st.composite
def matching_facts(draw):
    """(bins1, bins2, pairs, lost) with pairs and lost drawn apart, so a
    lost pair may share a photon with a kept one, as after a repair."""
    bins = st.lists(st.integers(0, 12), max_size=8, unique=True).map(sorted)
    bins1, bins2 = draw(bins), draw(bins)

    def couples():
        return [(b1, b2, b2 - b1) for b1, b2 in zip(
            draw(st.permutations(bins1)), draw(st.permutations(bins2)))]

    kept, lost = couples(), couples()
    return (np.array(bins1, dtype=np.int64), np.array(bins2, dtype=np.int64),
            sorted(kept[:draw(st.integers(0, len(kept)))]),
            lost[:draw(st.integers(0, len(lost)))])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(matching_facts())
@example((np.array([3]), np.array([3, 7]), [], []))      # equal bins: range
@example((np.array([3, 4]), np.array([3]), [(3, 3, 0)], []))
def test_discard_records_follow_from_the_stored_facts(facts):
    bins1, bins2, pairs, lost = facts
    assert (Matching(pairs, bins1, bins2, lost).discarded
            == discards_direct(bins1, bins2, pairs, lost))


def strategy_block(bins1, bins2, n_bins, s):
    """The matchings of all three strategies on one stream pair."""
    st1, st2 = stream_at(bins1, n_bins), stream_at(bins2, n_bins)
    return [match_streams(st1, st2, DelayNetwork(s), strategy)[0]
            for strategy in STRATEGIES]


@st.composite
def matching_blocks(draw):
    """A block of matchings, each either a strategy's on two drawn streams
    (either may be empty or full) or one of `matching_facts`."""
    block = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            bins1, bins2, pairs, lost = draw(matching_facts())
            block.append(Matching(pairs, bins1, bins2, lost))
            continue
        n_bins, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 2))
        p1, p2 = (draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])) for _ in range(2))
        m, _ = match_streams(generate_stream(p1, n_bins, seed),
                             generate_stream(p2, n_bins, seed + 1),
                             DelayNetwork(draw(st.integers(1, 7))),
                             draw(st.sampled_from(STRATEGIES)))
        block.append(m)
    return block


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(matching_blocks())
@example(strategy_block([], [], 4, 2))                      # both empty
@example(strategy_block([0, 2], [], 4, 2)
         + strategy_block([], [1, 3], 4, 2))                # one empty side
@example(strategy_block(range(6), range(6), 6, 3))          # p = 1
# The repair's lost pairs (its first assignment) share a photon with the
# pair it keeps; the window drops a pair for a clash.
@example(strategy_block([2, 3, 20, 40], [0, 3, 7, 30], 48, 4))
def test_block_counts_equal_per_matching_metrics_and_records(block):
    rows = _metric_rows(*_flat_matchings(block))
    assert rows.shape == (len(block), 4)
    for m, row in zip(block, rows.tolist()):
        met = matching_metrics(m)
        assert row == [met.matched_fraction, met.clash_rate,
                       met.out_of_range_fraction, m.total_weight]
        assert tuple(row) == metric_row_direct(m.bins1, m.bins2, m.pairs,
                                               m.lost)
        assert met.mean_delay == (m.total_weight / len(m.pairs) if m.pairs
                                  else 0.0)


@st.composite
def classifier_blocks(draw):
    """(stream pairs, switch counts, facts, seed) of a mixed block: every
    strategy's instances of `_match_rows` on the drawn stream pairs (either
    stream may be empty or full) at every count, then `matching_facts`
    instances; the seed orders the block's pair rows."""
    stream_pairs = []
    for _ in range(draw(st.integers(0, 3))):
        n_bins, seed = draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 2))
        p1, p2 = (draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])) for _ in range(2))
        stream_pairs.append((generate_stream(p1, n_bins, seed),
                             generate_stream(p2, n_bins, seed + 1)))
    switches = draw(st.lists(st.integers(1, 7), min_size=1, max_size=3,
                             unique=True))
    facts = draw(st.lists(matching_facts(), min_size=0 if stream_pairs else 1,
                          max_size=3))
    return stream_pairs, switches, facts, draw(st.integers(0, 2**32 - 1))


def _tuples(rows) -> list:
    return list(map(tuple, rows.tolist()))


TOP = 2 ** 62 - 1      # two strides of 2^62 end at the int64 maximum


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(classifier_blocks())
# At s = 4 the repair's lost pairs share a photon with the pair it keeps
# and the window drops a pair for a clash; at s = 1 no optimum clashes. One
# side empty, and p = 1, in the same block.
@example(([(stream_at([2, 3, 20, 40], 48), stream_at([0, 3, 7, 30], 48)),
           (stream_at([0, 2], 4), stream_at([], 4)),
           (stream_at([], 4), stream_at([1, 3], 4)),
           (stream_at(range(6), 6), stream_at(range(6), 6))],
          [4, 1], [(np.array([3, 4]), np.array([3]), [(3, 3, 0)],
                    [(4, 3, -1)])], 5))
@example(([], [1], [(np.array([0, TOP - 1]), np.array([TOP]),
                     [(TOP - 1, TOP, 1)], [])], 0))
# Weights past 2^53: float64 keeps no bin near 2^62 to the unit.
@example(([], [1], [(np.array([TOP - 3, TOP]), np.array([TOP - 1, TOP]),
                     [(TOP - 3, TOP - 1, 2), (TOP, TOP, 0)], [])], 0))
def test_array_classifier_rows_equal_the_direct_count(case):
    stream_pairs, switches, facts, seed = case
    networks = [DelayNetwork(s) for s in switches]
    # (bins1, bins2, pairs, lost) per instance, pairs as (n, 3) arrays.
    instances = []
    found = {}
    if stream_pairs:
        found = _match_rows(stream_pairs, networks, STRATEGIES)
    for strategy, (kept, lost, values) in found.items():
        sides = [(st1.occupied_bins, st2.occupied_bins)
                 for st1, st2 in stream_pairs for _net in networks]
        for i, ((bins1, bins2), row) in enumerate(zip(
                sides, values.reshape(-1, 4).tolist())):
            pairs, gone = kept[0][kept[1] == i], lost[0][lost[1] == i]
            want = metric_row_direct(bins1, bins2, _tuples(pairs),
                                     _tuples(gone))
            if strategy == "hungarian_no_clash":  # its clash rate is routed
                row[1], want = 0.0, (want[0], 0.0, *want[2:])
            assert tuple(row) == want
            instances.append((bins1, bins2, pairs, gone))
    instances += [(bins1, bins2, *(np.array(rows, dtype=np.int64).reshape(-1, 3)
                                   for rows in (pairs, lost)))
                  for bins1, bins2, pairs, lost in facts]
    order = np.random.default_rng(seed).permutation

    def flat(k):
        """Column k's rows of every instance, and their owners, shuffled."""
        rows = np.concatenate([inst[k] for inst in instances])
        owner = np.repeat(np.arange(len(instances)),
                          [len(inst[k]) for inst in instances])
        shuffled = order(owner.size)
        return rows[shuffled], owner[shuffled]

    rows = _metric_rows([b for inst in instances for b in inst[:2]],
                        flat(2), flat(3))
    assert list(map(tuple, rows.tolist())) == [
        metric_row_direct(bins1, bins2, _tuples(pairs), _tuples(lost))
        for bins1, bins2, pairs, lost in instances]


def test_matchings_are_equal_when_their_pairs_and_records_are():
    bins1, bins2 = np.array([0, 3]), np.array([1, 5])
    pairs = [(0, 1, 1)]
    m = Matching(pairs, bins1, bins2)
    assert m.discarded == [(3, "1", "range"), (5, "2", "range")]
    # A lost pair whose photons stay matched changes no record.
    assert m == Matching(pairs, bins1, bins2, lost=pairs)
    # One whose photons end unmatched turns them into clash discards.
    assert m != Matching(pairs, bins1, bins2, lost=[(3, 5, 2)])
    assert m != Matching([], bins1, bins2)


def test_fig4_sweep_counts_without_discard_records(tmp_path, monkeypatch):
    built = []
    derive = Matching.discarded.func

    def counting(m):
        built.append(m)
        return derive(m)

    prop = functools.cached_property(counting)
    prop.__set_name__(Matching, "discarded")
    monkeypatch.setattr(Matching, "discarded", prop)
    repaired, counted, blocks = [], [], []
    repair_all, metric_rows = matching._repair_all, matching._metric_rows
    batches = mux_sim._batches

    def recording(instances, network):
        out = repair_all(instances, network)
        repaired.append([(best, pairs) for best, (pairs, _W)
                         in zip(out, instances)])
        return out

    def counting_rows(sides, kept, lost):
        counted.append((len(sides) // 2, kept, lost))
        return metric_rows(sides, kept, lost)

    def recording_batches(*args):
        for reps_in, batch in batches(*args):
            blocks.append(len(batch))
            yield reps_in, batch

    monkeypatch.setattr(matching, "_repair_all", recording)
    monkeypatch.setattr(matching, "_metric_rows", counting_rows)
    monkeypatch.setattr(mux_sim, "_batches", recording_batches)
    reps, counts = 30, 8                # fig4 at its defaults but reps
    run_experiment(ExperimentConfig("fig4", {"reps": str(reps)}, 1234,
                                    tmp_path))
    # One classifier pass per block counts all its instances from arrays;
    # no record is built.
    assert built == []
    assert len(blocks) >= 2 and sum(blocks) == reps
    assert [n for n, _kept, _lost in counted] == [
        size * counts for size in blocks]
    # Each repaired instance is counted from the repair's pairs, in place of
    # the optimum it replaced, and that optimum, the pairs the repair was
    # given, is counted as its lost pairs.
    assert len(repaired) == len(blocks)
    assert sum(map(len, repaired)) == 85
    for out, (n, kept, lost) in zip(repaired, counted):
        pairs, gone = instance_lists(*kept, n), instance_lists(*lost, n)
        fixed = [i for i in range(n) if gone[i]]
        assert [(pairs[i], gone[i]) for i in fixed] == out


# ---------------------------------------------------------------- metrics

def test_metrics_all_matched():
    s1, s2 = stream_at([0, 3], 8), stream_at([1, 4], 8)
    m = sliding_window_match(s1, s2, 3, DelayNetwork(3))
    met = matching_metrics(m)
    assert met.matched_fraction == 1.0
    assert met.out_of_range_fraction == 0.0
    assert met.mean_delay == 1.0


def test_metrics_empty_matching():
    s1, s2 = stream_at([0], 8), stream_at([6], 8)
    m = sliding_window_match(s1, s2, 2, DelayNetwork(2))
    met = matching_metrics(m)
    assert met.matched_fraction == 0.0


def test_metrics_partial():
    s1, s2 = stream_at([0, 2, 4], 12), stream_at([1, 3, 11], 12)
    m = sliding_window_match(s1, s2, 3, DelayNetwork(3))
    met = matching_metrics(m)
    assert met.matched_fraction == pytest.approx(4 / 6)


def test_csv_rows_shape():
    m = Matching([(0, 2, 2)], np.array([0]), np.array([2, 5]))
    assert m.discarded == [(5, "2", "range")]
    rows = matching_csv_rows(m)
    assert ("pair", 0, 2, 2) in rows
    assert ("discard", 5, "2", "range") in rows
