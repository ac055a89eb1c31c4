import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as strats

from oracles import (
    _rmux_rate_direct,
    _standard_rate_direct,
    bell_stats_direct,
    clash_couples,
    match_direct,
    route_clashes_direct,
    two_stream_stats_direct,
    window_pairs_direct,
)
from rmux import delay_network, matching, mux_sim
from rmux.delay_network import DelayNetwork, clash_rows, max_delay
from rmux.experiments import ExperimentConfig, run_experiment
from rmux.matching import (
    _conflicts_each,
    _metrics_of,
    count_clashing_pairs,
)
from rmux.mux_sim import (
    BELL_GATE_PROB,
    STRATEGIES,
    _Gates,
    _match_all,
    rmux_splits,
    simulate_bell_rmux,
    simulate_bell_standard,
    simulate_bell_sweep,
    simulate_two_stream,
    standard_splits,
)
from rmux.streams import generate_stream, stream_from_bins

# sha256 of fig7_bell_rates.csv at bins=3000, reps=4, budgets 5:16, seed
# 20170324, as written by the per-budget simulation the sweep replaced.
FIG7_SMALL_SHA256 = ("08de6d756503254d4b854659841a145f"
                     "5ac5c696b16ecee10df4411d9cbc2cb8")


def test_two_stream_determinism():
    a = simulate_two_stream(0.1, [4], 400, ["realistic"], reps=10, seed=77)
    b = simulate_two_stream(0.1, [4], 400, ["realistic"], reps=10, seed=77)
    assert a == b
    c = simulate_two_stream(0.1, [4], 400, ["realistic"], reps=10, seed=78)
    key = ("realistic", 4)
    assert c[key].matched_fraction_mean != a[key].matched_fraction_mean


def test_two_stream_single_switch_is_coincidence_matching():
    # d_max = 0: only photons already in the same bin can pair
    [st] = simulate_two_stream(0.2, [1], 2000, ["realistic"], reps=8,
                               seed=5).values()
    # coincidence fraction: 2 p^2 n / (2 p n) = p
    assert st.matched_fraction_mean == pytest.approx(0.2, abs=0.03)
    assert st.clash_rate_mean == 0.0


def test_two_stream_strategy_ordering_and_monotonicity():
    stats = simulate_two_stream(0.1, [2, 5, 7], 600, STRATEGIES, reps=25,
                                seed=31)
    for s in (2, 5, 7):
        h = stats[("hungarian_no_clash", s)].matched_fraction_mean
        c = stats[("hungarian_with_clash", s)].matched_fraction_mean
        r = stats[("realistic", s)].matched_fraction_mean
        assert h >= c >= r
    for strat in ("hungarian_no_clash", "realistic"):
        assert (stats[(strat, 2)].matched_fraction_mean
                < stats[(strat, 5)].matched_fraction_mean
                < stats[(strat, 7)].matched_fraction_mean)


def test_two_stream_validation(forbid_streams):
    for kwargs, message in [
        ({"reps": 0}, "reps must be >= 1, got 0"),
        ({"strategies": ["nope"]}, "unknown strategy 'nope'"),
        ({"strategies": ["realistic", "nope"]}, "unknown strategy 'nope'"),
        ({"strategies": [*STRATEGIES, "Realistic"]},
         "unknown strategy 'Realistic'"),
        ({"strategies": []}, "strategies must name at least one strategy"),
        ({"strategies": ["realistic", "hungarian_no_clash", "realistic"]},
         "strategy realistic is repeated"),
        ({"switches": []}, "switches must name at least one switch count"),
        ({"switches": [3, 3]}, "switch count 3 is repeated"),
        ({"switches": [5, 1, 3, 1]}, "switch count 1 is repeated"),
        ({"switches": [3, 0]}, "switch count must be in [1, 64], got 0"),
        ({"switches": [65]}, "switch count must be in [1, 64], got 65"),
    ]:
        args = {"p": 0.1, "switches": [3], "n_bins": 100,
                "strategies": ["realistic"], "reps": 1, "seed": 1, **kwargs}
        with pytest.raises(ValueError) as err:
            simulate_two_stream(**args)
        assert str(err.value) == message


# p = 0.4 at 120 bins clashes often; from s = 8 the network outreaches the
# streams; p = 0 has no photons; reps = 1 has no stderr.
@pytest.mark.parametrize("p, n_bins, reps", [
    (0.1, 300, 6), (0.4, 120, 5), (0.0, 50, 3), (0.2, 200, 1)])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_two_stream_equals_per_instance_oracle(strategy, p, n_bins, reps):
    switches = [5, 1, 8, 3, 6]
    got = simulate_two_stream(p, switches, n_bins, [strategy], reps, seed=13)
    assert list(got.values()) == [
        two_stream_stats_direct(p, s, n_bins, strategy, reps, 13)
        for s in switches]


@pytest.mark.parametrize("p, n_bins, reps", [
    (0.1, 300, 6), (0.4, 120, 5), (0.0, 50, 3), (0.2, 200, 1)])
def test_one_call_for_all_strategies_equals_per_instance_oracle(p, n_bins,
                                                                reps):
    # Strategies in an order other than STRATEGIES: results keep it.
    strategies = ["realistic", "hungarian_with_clash", "hungarian_no_clash"]
    switches = [5, 1, 8, 3, 6]
    got = simulate_two_stream(p, switches, n_bins, strategies, reps, seed=13)
    assert list(got.items()) == [
        ((strategy, s),
         two_stream_stats_direct(p, s, n_bins, strategy, reps, 13))
        for strategy in strategies for s in switches]


def _record_batches(monkeypatch) -> list:
    """Photon counts of the repetitions of each block, as they are made."""
    seen = []
    batches = mux_sim._batches

    def recording(*args):
        for batch in batches(*args):
            seen.append([sum(st.photon_count for st in rep)
                         for _child, rep in batch])
            yield batch

    monkeypatch.setattr(mux_sim, "_batches", recording)
    return seen


# Several blocks and a last one cut short by the repetition count: at the
# default size (about 16 repetitions a block at p = 0.1 and 200 bins), and
# at two repetitions a block on clash-heavy streams.
@pytest.mark.parametrize("p, n_bins, reps, block_photons", [
    (0.1, 200, 40, None), (0.4, 120, 7, 150)])
def test_two_stream_blocks_equal_per_instance_oracle(monkeypatch, p, n_bins,
                                                     reps, block_photons):
    if block_photons is not None:
        monkeypatch.setattr(mux_sim, "MATCH_BLOCK_PHOTONS", block_photons)
    limit = mux_sim.MATCH_BLOCK_PHOTONS
    seen = _record_batches(monkeypatch)
    switches = [5, 1, 8, 3, 6]
    got = simulate_two_stream(p, switches, n_bins, STRATEGIES, reps, seed=19)
    assert len(seen) >= 3 and sum(map(len, seen)) == reps
    assert all(sum(block) >= limit for block in seen[:-1])
    assert sum(seen[-1]) < limit
    assert list(got.items()) == [
        ((strategy, s),
         two_stream_stats_direct(p, s, n_bins, strategy, reps, 19))
        for strategy in STRATEGIES for s in switches]


def test_two_stream_sweep_builds_no_matching_or_pair_tuples(monkeypatch):
    # Each block is counted from its pair arrays, for every strategy; only a
    # repair, inside `matching`, builds per-pair tuples, and no module builds
    # a Matching. Several blocks.
    p, n_bins, reps, switches = 0.4, 120, 30, [5, 1, 8]
    want = [((strategy, s),
             two_stream_stats_direct(p, s, n_bins, strategy, reps, 23))
            for strategy in STRATEGIES for s in switches]
    seen = _record_batches(monkeypatch)

    def refuse(*args, **kwargs):
        raise AssertionError("the sweep built a Matching or pair tuples")

    monkeypatch.setattr(mux_sim, "Matching", refuse)
    monkeypatch.setattr(matching, "Matching", refuse)
    monkeypatch.setattr(mux_sim, "_pair_lists", refuse)
    got = simulate_two_stream(p, switches, n_bins, STRATEGIES, reps, seed=23)
    assert len(seen) >= 2
    assert list(got.items()) == want


@pytest.mark.parametrize("p, n_bins", [(0.1, 300), (0.4, 120), (0.0, 50)])
def test_match_all_equals_per_instance_oracle(p, n_bins):
    # A repair often finds another assignment of the same size and weight,
    # which the aggregate metrics cannot tell apart: compare the pairs. One
    # block of six stream pairs, each checked on its own.
    networks = [DelayNetwork(s) for s in (5, 1, 8, 3, 6)]
    stream_pairs = [(generate_stream(p, n_bins, seed),
                     generate_stream(p, n_bins, seed + 1))
                    for seed in range(0, 12, 2)]
    got = _match_all(stream_pairs, networks, STRATEGIES)
    assert list(got) == list(STRATEGIES)
    for strategy, (matchings, values) in got.items():
        assert values.shape == (len(stream_pairs), len(networks), 4)
        assert [[(m, _metrics_of(m, row), row[3])
                 for m, row in zip(by_net, rows)]
                for by_net, rows in zip(matchings, values)] == [
            [(m, met, m.total_weight) for m, met in (
                match_direct(st1, st2, net, strategy) for net in networks)]
            for st1, st2 in stream_pairs]


@strats.composite
def clash_instances(draw):
    """Sorted (b1, b2, delay) pair lists, each within the reach of its own
    switch count, for a list of distinct counts in any order."""
    switches = draw(strats.lists(strats.integers(1, 9), min_size=1,
                                 max_size=4, unique=True))
    instances = []
    for s in switches:
        requests = strats.tuples(strats.integers(0, 30),
                                 strats.integers(0, max_delay(s)))
        instances.append(sorted((b1, b1 + d, d) for b1, d in draw(
            strats.lists(requests, max_size=10))))
    return switches, instances


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clash_instances())
@example(([5, 1, 3], [[(0, 1, 1), (1, 2, 1), (2, 9, 7)],
                      [(4, 4, 0), (4, 4, 0)], []]))
@example(([2, 4], [[], []]))
@example(([64, 3], [[(0, 3, 3), (1, 3, 2)], [(0, 3, 3), (1, 3, 2)]]))
def test_one_axis_scan_equals_per_instance_conflicts(case):
    switches, instances = case
    # Couples, not just which instances clash: the repair reads them.
    got = _conflicts_each(instances, DelayNetwork(max(switches)))
    assert got == [clash_couples(pairs, DelayNetwork(s))
                   for s, pairs in zip(switches, instances)]


@strats.composite
def stream_pairs(draw):
    """Two seeded streams of the same length and a list of distinct switch
    counts up to 64, in any order."""
    p = draw(strats.sampled_from([0.05, 0.2, 0.4, 0.7]))
    n_bins = draw(strats.integers(1, 150))
    seed = draw(strats.integers(0, 2**32 - 2))
    switches = draw(strats.lists(strats.integers(1, 64), min_size=1,
                                 max_size=5, unique=True))
    return (generate_stream(p, n_bins, seed),
            generate_stream(p, n_bins, seed + 1), switches)


# The block's one scan, through the largest network, gives each no-clash
# assignment the count of pairs its own network's `route` drops. About one
# in seven drawn assignments clashes.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stream_pairs())
# At s = 64 two of three pairs clash; at s = 2 one pair, no clash.
@example((stream_from_bins([1, 1, 0, 1, 0, 0, 0]),
          stream_from_bins([0, 1, 0, 0, 0, 1, 1]), [2, 64]))
@example((stream_from_bins([1, 0, 1, 0]), stream_from_bins([0, 1, 0, 1]),
          [3, 1]))                                 # pairs, none clash
@example((stream_from_bins([0, 0]), stream_from_bins([1, 1]),
          [1]))                                    # no pairs
def test_no_clash_rate_equals_route_count(case):
    st1, st2, switches = case
    networks = [DelayNetwork(s) for s in switches]
    matchings, values = _match_all([(st1, st2)], networks,
                                   ["hungarian_no_clash"])["hungarian_no_clash"]
    for m, (_matched, clash_rate, *_), net in zip(matchings[0], values[0],
                                                  networks):
        _records, routed = route_clashes_direct(
            [b1 for b1, _b2, _d in m.pairs], [d for _b1, _b2, d in m.pairs],
            net)
        dropped = len(m.pairs) - len(routed)
        assert count_clashing_pairs(m, net) == dropped, net.s
        assert clash_rate == (dropped / len(m.pairs) if m.pairs else 0.0), net.s


def test_no_clash_block_counts_clashes_from_its_one_scan(monkeypatch):
    # No instance is routed on its own: each block's clash rates come from
    # its one `clash_rows` scan, whichever binding a count would call.
    def no_route(*args, **kwargs):
        raise AssertionError("an instance was routed on its own")

    for name in ("rmux.delay_network.route", "rmux.matching.route",
                 "rmux.matching.count_clashing_pairs",
                 "rmux.mux_sim.count_clashing_pairs"):
        monkeypatch.setattr(name, no_route, raising=False)
    calls = []

    def counted(*args):
        calls.append(args)
        return clash_rows(*args)

    for module in (delay_network, matching, mux_sim):
        monkeypatch.setattr(module, "clash_rows", counted)
    networks = [DelayNetwork(s) for s in (8, 3)]
    # Per block, the seeds of its stream pairs and which clash at s = 8.
    for seeds, clashing in (((6, 0, 8), [True, False, True]),
                            ((14, 12), [False, True])):
        calls.clear()
        block = [(generate_stream(0.4, 120, seed),
                  generate_stream(0.4, 120, seed + 1)) for seed in seeds]
        _matchings, values = _match_all(block, networks,
                                        ["hungarian_no_clash"])[
                                            "hungarian_no_clash"]
        assert (values[:, :, 1] > 0).tolist() == [[c, False] for c in clashing]
        assert len(calls) == 1


# One window pass per stream pair serves every network, clashes found
# through the largest; each network's matching is its own pointer loop's.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(stream_pairs())
@example((stream_from_bins([1, 1, 0, 1, 0, 0, 0]),
          stream_from_bins([0, 1, 0, 0, 0, 1, 1]), [2, 64, 1]))
def test_realistic_block_equals_window_oracle(case):
    st1, st2, switches = case
    networks = [DelayNetwork(s) for s in switches]
    [matchings], _values = _match_all([(st1, st2)], networks,
                                      ["realistic"])["realistic"]
    for m, net in zip(matchings, networks):
        assert (m.pairs, m.lost) == window_pairs_direct(
            st1.occupied_bins.tolist(), st2.occupied_bins.tolist(),
            net.max_delay, net), net.s


def test_split_enumeration():
    assert standard_splits(5) == [(1, 1)]
    assert standard_splits(9) == [(1, 5), (2, 1)]
    assert standard_splits(4) == []
    assert rmux_splits(5) == [(1, 3), (2, 1)]
    assert rmux_splits(2) == []


def test_bell_zero_emission_gives_zero_rate():
    for fn in (simulate_bell_standard, simulate_bell_rmux):
        st = fn(0.0, 8, 2000, reps=3, seed=2)
        assert st.bells_per_bin == 0.0


def test_bell_saturated_source_approaches_gate_limit():
    # p1 = 1 with the (1, 1) split: every bin attempts, acceptance is 1/8
    st = simulate_bell_standard(1.0, 5, 4000, reps=10, seed=6)
    assert st.best_split == (1, 1)
    assert st.bells_per_bin == pytest.approx(1 / 8, abs=0.01)


def test_bell_relative_beats_standard_and_determinism():
    std = simulate_bell_standard(0.1, 12, 4000, reps=15, seed=9)
    rmx = simulate_bell_rmux(0.1, 12, 4000, reps=15, seed=9)
    assert rmx.bells_per_bin >= std.bells_per_bin
    again = simulate_bell_rmux(0.1, 12, 4000, reps=15, seed=9)
    assert again == rmx


def test_bell_infeasible_budget_rejected():
    with pytest.raises(ValueError):
        simulate_bell_standard(0.1, 4, 1000, reps=1, seed=1)
    with pytest.raises(ValueError):
        simulate_bell_rmux(0.1, 2, 1000, reps=1, seed=1)


def test_bell_conservation_bound():
    # no photon is consumed twice, so the Bell rate can never exceed the
    # per-bin photon rate of any single stream
    for fn in (simulate_bell_standard, simulate_bell_rmux):
        st = fn(0.5, 9, 2000, reps=5, seed=21)
        assert st.bells_per_bin <= 0.5


def test_bell_rate_monotone_in_budget():
    for fn in (simulate_bell_standard, simulate_bell_rmux):
        prev = None
        for budget in (6, 10, 14):
            st = fn(0.1, budget, 4000, reps=12, seed=29)
            if prev is not None:
                assert (st.bells_per_bin
                        >= prev.bells_per_bin - 2 * (st.stderr + prev.stderr))
            prev = st


@pytest.mark.parametrize("p1", [0.1, 0.5])
@pytest.mark.parametrize("n_bins", [500, 3000])
@pytest.mark.parametrize("reps", [1, 3])
def test_bell_sweep_equals_per_budget_oracle(p1, n_bins, reps):
    budgets = range(5, 17)
    sweep = simulate_bell_sweep(p1, budgets, n_bins, reps, seed=11)
    assert sweep.keys() == {(scheme, b) for scheme in ("standard", "rmux")
                            for b in budgets}
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, p1, budget, n_bins, reps,
                                          seed=11), (scheme, budget)


# Dense edge: at p1 = 1 the standard scheme's s1 = 1 split attempts the gate
# in every bin, so it reads all n_bins gate draws of its repetition.
@pytest.mark.parametrize("p1", [1.0, 0.5])
@pytest.mark.parametrize("n_bins", [1, 2, 3, 17])
def test_bell_sweep_at_the_draw_length_bound_equals_per_budget_oracle(
        p1, n_bins):
    budgets = [5, 6, 9, 12, 13]
    sweep = simulate_bell_sweep(p1, budgets, n_bins, 3, seed=23)
    assert len(sweep) == 2 * len(budgets)
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, p1, budget, n_bins, 3,
                                          seed=23), (scheme, budget)


# Every budget from 5 to 16, so each split's stage 2 runs several reaches in
# one window pass: no events at p1 = 0, dense ones at p1 = 1, and at 17 bins
# every reach from s2 = 6 up is capped at 16 bins, so copies share a reach.
# The standard windows of s1 = 2 and 3 (2 and 4 bins) do not divide 999 bins.
@pytest.mark.parametrize("p1, n_bins", [
    (0.0, 400), (1.0, 400), (0.4, 17), (1.0, 17), (0.3, 999)])
def test_bell_sweep_of_every_budget_equals_per_budget_oracle(p1, n_bins):
    budgets = range(5, 17)
    sweep = simulate_bell_sweep(p1, budgets, n_bins, 3, seed=41)
    assert len(sweep) == 2 * len(budgets)
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, p1, budget, n_bins, 3,
                                          seed=41), (scheme, budget)


def test_bell_sweep_rates_each_split_of_a_block_once(monkeypatch):
    calls = []
    for name in ("_standard_rate", "_rmux_rate"):
        def counting(stage1, s2s, gate_ok, block, rate=getattr(mux_sim, name),
                     name=name):
            calls.append((name, tuple(s2s)))
            return rate(stage1, s2s, gate_ok, block)
        monkeypatch.setattr(mux_sim, name, counting)
    simulate_bell_sweep(0.1, range(5, 17), 1000, 2, seed=4)
    # One block; at split s1, s2 = budget - 4 * s1 (standard) or
    # budget - 2 * s1 (rmux) of every budget that has the split, in order.
    assert calls == [(name, tuple(range(first, last + 1)))
                     for name, first, last in [
                         ("_standard_rate", 1, 12), ("_rmux_rate", 3, 14),
                         ("_standard_rate", 1, 8), ("_rmux_rate", 1, 12),
                         ("_standard_rate", 1, 4), ("_rmux_rate", 1, 10),
                         ("_rmux_rate", 1, 8), ("_rmux_rate", 1, 6),
                         ("_rmux_rate", 1, 4), ("_rmux_rate", 1, 2)]]


# Every split's per-repetition rates, not only the best split's mean that
# BellStats reports. At 999 bins the standard windows of 2 and 4 bins leave
# bins past the last window, and most output widths leave windows past the
# last group.
@pytest.mark.parametrize("p1", [0.3, 0.7])
@pytest.mark.parametrize("n_bins", [999, 17])
def test_split_rates_equal_per_split_oracles(p1, n_bins):
    streams = [[generate_stream(p1, n_bins, 4 * r + j) for j in range(4)]
               for r in range(3)]
    block = mux_sim._Block(streams, n_bins)
    seeds = np.random.SeedSequence(13).spawn(len(streams))
    s2s = list(range(1, 15))
    for first, rate, direct, s1s in [
            (mux_sim._standard_stage1, mux_sim._standard_rate,
             _standard_rate_direct, range(1, 4)),
            (mux_sim._rmux_stage1, mux_sim._rmux_rate, _rmux_rate_direct,
             range(1, 8))]:
        for s1 in s1s:
            got = rate(first(block, s1), s2s, _Gates(seeds), block)
            assert got.tolist() == [
                [direct(rep, s1, s2, np.random.default_rng(sd))
                 for rep, sd in zip(streams, seeds)] for s2 in s2s], s1


def test_relative_splits_draw_only_the_gates_they_read(monkeypatch):
    drawn = []
    gates = _Gates.__call__

    def recording(self, width):
        outcomes = gates(self, width)
        drawn.append((width, self._ok.shape[1]))
        return outcomes
    monkeypatch.setattr(_Gates, "__call__", recording)
    sweep = simulate_bell_sweep(0.1, range(9, 17), 2000, 3, seed=5,
                                schemes=("rmux",))
    # One block; splits s1 = 1..7 each read their largest quad count once,
    # and draw no further.
    assert len(drawn) == 7
    for width, count in drawn:
        assert count == width < 2000
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, 0.1, budget, 2000, 3,
                                          seed=5), (scheme, budget)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(strats.integers(0, 2 ** 64 - 1), strats.integers(0, 300),
       strats.integers(1, 300))
def test_gates_read_in_steps_equal_one_fresh_draw(seed, n, more):
    seeds = np.random.SeedSequence(seed).spawn(2)
    gates = _Gates(seeds)
    first = gates(n).tolist()
    want = np.stack([np.random.default_rng(sd).random(n + more)
                     for sd in seeds]) < BELL_GATE_PROB
    assert gates(n + more).tolist() == want.tolist()
    assert first == gates(n).tolist() == want[:, :n].tolist()


# At 100 bins a 64-switch window reaches past every repetition: the reach is
# capped at n_bins - 1, and the standard scheme's windows at n_bins + 1.
# 68 is the largest standard budget: its split (1, 64) has 64 switches.
@pytest.mark.parametrize("schemes, budgets", [
    (("standard", "rmux"), [66, 9]), (("standard",), [68])])
def test_bell_sweep_near_the_switch_limit_equals_per_budget_oracle(
        schemes, budgets):
    sweep = simulate_bell_sweep(0.3, budgets, 100, 3, seed=17,
                                schemes=schemes)
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, 0.3, budget, 100, 3,
                                          seed=17), (scheme, budget)


# Every split of a budget must fit in 64-switch networks, in both schemes.
@pytest.mark.parametrize("scheme, budget, switches", [
    ("standard", 300, 296), ("standard", 69, 65), ("rmux", 67, 65)])
def test_bell_sweep_rejects_networks_past_the_switch_limit(
        monkeypatch, scheme, budget, switches):
    def no_batches(*args):
        raise AssertionError("streams sampled")

    monkeypatch.setattr(mux_sim, "_batches", no_batches)
    with pytest.raises(ValueError, match=fr"\[1, 64\], got {switches}$"):
        simulate_bell_sweep(0.3, [9, budget], 100, 3, seed=17,
                            schemes=(scheme,))


# 500 bins per repetition, below the largest window (8191 bins at 16
# switches), so a pair or clash across repetitions would change a rate.
@pytest.mark.parametrize("p1, constant, value, sizes", [
    (1.0, "BLOCK_PHOTONS", 3000, [2, 2, 2, 1]),   # 2000 photons a rep
    (0.0, "BLOCK_BINS", 4000, [2, 2, 2, 1]),      # 2000 stream bins a rep
    (0.3, "BLOCK_PHOTONS", 1000, None),
])
def test_bell_sweep_blocks_equal_per_budget_oracle(monkeypatch, p1, constant,
                                                   value, sizes):
    monkeypatch.setattr(mux_sim, constant, value)
    seen = _record_batches(monkeypatch)
    budgets = range(5, 17)
    sweep = simulate_bell_sweep(p1, budgets, 500, 7, seed=3)
    if sizes is not None:
        assert list(map(len, seen)) == sizes
    assert len(seen) >= 3 and sum(map(len, seen)) == 7
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, p1, budget, 500, 7,
                                          seed=3), (scheme, budget)


def test_bell_sweep_at_the_default_block_size_equals_per_budget_oracle(
        monkeypatch):
    # No constant patched: about 8000 photons a repetition at p1 = 0.5 and
    # 4000 bins, so BLOCK_PHOTONS closes blocks of several repetitions.
    limit = mux_sim.BLOCK_PHOTONS
    seen = _record_batches(monkeypatch)
    budgets = [5, 8, 12, 16]
    sweep = simulate_bell_sweep(0.5, budgets, 4000, 15, seed=24)
    assert list(map(len, seen)) == [6, 6, 3]
    assert all(sum(block[:-1]) < limit <= sum(block) for block in seen[:-1])
    assert sum(seen[-1]) < limit
    for (scheme, budget), stats in sweep.items():
        assert stats == bell_stats_direct(scheme, 0.5, budget, 4000, 15,
                                          seed=24), (scheme, budget)


def _peak_bytes(reps: int) -> int:
    tracemalloc.start()
    try:
        simulate_bell_sweep(1.0, range(5, 13), 3000, reps, seed=8)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_bell_sweep_memory_stays_flat_in_reps(monkeypatch):
    monkeypatch.setattr(mux_sim, "BLOCK_PHOTONS", 24_000)  # 2 repetitions
    seen = _record_batches(monkeypatch)
    one_block = _peak_bytes(2)
    four_blocks = _peak_bytes(8)
    assert list(map(len, seen)) == [2, 2, 2, 2, 2]
    assert four_blocks <= 1.25 * one_block, (four_blocks, one_block)


def test_one_budget_calls_equal_their_sweep_rows():
    sweep = simulate_bell_sweep(0.1, range(5, 17), 2000, 3, seed=4)
    for budget in range(5, 17):
        assert simulate_bell_standard(0.1, budget, 2000, 3, 4) == sweep[
            ("standard", budget)]
        assert simulate_bell_rmux(0.1, budget, 2000, 3, 4) == sweep[
            ("rmux", budget)]


def test_fig7_csv_bytes_pinned(tmp_path):
    bundle = run_experiment(ExperimentConfig(
        "fig7", {"bins": "3000", "reps": "4", "budgets": "5:16"}, 20170324,
        tmp_path))
    digest = hashlib.sha256(bundle.csv_paths[0].read_bytes()).hexdigest()
    assert digest == FIG7_SMALL_SHA256


@pytest.mark.parametrize("kwargs, message", [
    ({"budgets": [12, 4]},
     "no feasible stage split for scheme 'standard' with 4 switches"),
    ({"budgets": [5, 2], "schemes": ("rmux",)},
     "no feasible stage split for scheme 'rmux' with 2 switches"),
    ({"reps": 0}, "reps must be >= 1, got 0"),
    ({"n_bins": 0}, "bins must be >= 1, got 0"),
    ({"p1": 1.5}, "p1 must be in [0, 1], got 1.5"),
    ({"p1": -0.1}, "p1 must be in [0, 1], got -0.1"),
    ({"schemes": ("rmux", "nope")}, "unknown Bell scheme 'nope'"),
    ({"budgets": [6, 8, 6]}, "budget 6 is repeated"),
    ({"budgets": []}, "budgets must name at least one budget"),
    ({"budgets": [9, 67], "schemes": ("rmux",)},
     "switch count must be in [1, 64], got 65"),
])
def test_bell_sweep_validates_before_sampling(forbid_streams, kwargs,
                                              message):
    args = {"p1": 0.1, "budgets": [12], "n_bins": 1000, "reps": 2,
            "seed": 1, **kwargs}
    with pytest.raises(ValueError) as err:
        simulate_bell_sweep(**args)
    assert str(err.value) == message
