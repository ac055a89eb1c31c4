import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (clash_rows_direct, clash_rows_flat_key, oracle_routable,
                     route_clashes_direct)
from rmux import delay_network
from rmux.delay_network import (
    DelayNetwork,
    RoutingRequest,
    clash_rows,
    depth_for_bins,
    max_delay,
    requests_conflict,
    route,
    routing_trace_rows,
)
from rmux.matching import Matching, count_clashing_pairs


def test_max_delay_values():
    assert max_delay(1) == 0
    assert max_delay(3) == 3          # three switches: delays 0..3
    assert max_delay(7) == 63
    with pytest.raises(ValueError):
        max_delay(0)


def test_depth_for_bins():
    assert depth_for_bins(44) == (64, 7)
    assert depth_for_bins(146) == (256, 9)
    assert depth_for_bins(1) == (1, 1)
    assert depth_for_bins(64) == (64, 7)
    with pytest.raises(ValueError):
        depth_for_bins(0)


def test_stage_delays_layout():
    assert DelayNetwork(1).stage_delays == ()
    assert DelayNetwork(4).stage_delays == (1, 2, 4)


def test_single_request_hand_trace():
    # delay 5 through s=4 must use the 1- and 4-bin stages and exit at bin 5
    net = DelayNetwork(4)
    res = route([RoutingRequest(0, 5)], net)
    assert res.clash_free
    (idx, req, rails), = res.routed
    assert rails == (1, 0, 1)
    rows = routing_trace_rows(res, net)
    assert rows == [
        (0, 0, 5, 0, 1, 0),   # 1-bin stage entered at bin 0, delay rail
        (0, 0, 5, 1, 0, 1),   # 2-bin stage passed at bin 1
        (0, 0, 5, 2, 1, 1),   # 4-bin stage entered at bin 1, delay rail
        (0, 0, 5, 3, 0, 5),   # output switch at bin 5
    ]


def test_empty_request_list():
    res = route([], DelayNetwork(3))
    assert res.routed == [] and res.clashes == []


def test_two_request_clash_at_output_switch():
    # (bin 0, delay 1) and (bin 1, delay 0) both reach the output switch at
    # bin 1 on opposite rails, demanding opposite settings.
    res = route([RoutingRequest(0, 1), RoutingRequest(1, 0)], DelayNetwork(2))
    assert not res.clash_free
    rec, = res.clashes
    assert (rec.stage, rec.time_bin) == (1, 1)
    assert {rec.request_a, rec.request_b} == {0, 1}
    assert res.routed == []


def test_two_request_clash_at_delay_stage():
    # delays 3 and 2 from adjacent bins collide at the 2-bin stage.
    res = route([RoutingRequest(0, 3), RoutingRequest(1, 2)], DelayNetwork(3))
    assert not res.clash_free
    rec = res.clashes[0]
    assert (rec.stage, rec.time_bin) == (1, 1)


def test_same_arrival_bin_is_a_clash():
    res = route([RoutingRequest(2, 0), RoutingRequest(2, 1)], DelayNetwork(2))
    assert not res.clash_free
    assert res.clashes[0].stage == 0


def test_clash_rows_list_downstream_clashes_that_route_drops():
    # (1,0) and (1,1) share the first stage's in rail in bin 1; (0,1) and
    # (1,0) then meet at the output switch in bin 1. The kernel lists both
    # clashes by stage; route drops requests 1 and 2 at stage 0, so only
    # request 0 is routed and the output-switch clash is not reported.
    net = DelayNetwork(2)
    reqs = [RoutingRequest(0, 1), RoutingRequest(1, 0), RoutingRequest(1, 1)]
    rows = clash_rows([r.arrival_bin for r in reqs], [r.delay for r in reqs], net)
    assert rows.tolist() == [[0, 1, 1, 2], [1, 1, 0, 1]]
    res = route(reqs, net)
    assert [(c.stage, c.time_bin, c.request_a, c.request_b)
            for c in res.clashes] == [(0, 1, 1, 2)]
    assert [idx for idx, _req, _rails in res.routed] == [0]


def test_delay_realizability_and_rejection():
    for s in (1, 2, 3, 4, 5):
        net = DelayNetwork(s)
        for d in range(net.max_delay + 1):
            res = route([RoutingRequest(3, d)], net)
            assert res.clash_free
            _, req, rails = res.routed[0]
            assert sum(r * delta for r, delta in zip(rails, net.stage_delays)) == d
        with pytest.raises(ValueError):
            route([RoutingRequest(0, net.max_delay + 1)], net)
    with pytest.raises(ValueError):
        route([RoutingRequest(-1, 0)], DelayNetwork(2))


def test_no_promotion():
    rng = np.random.default_rng(5)
    net = DelayNetwork(5)
    for _ in range(200):
        req = RoutingRequest(int(rng.integers(0, 50)),
                             int(rng.integers(0, net.max_delay + 1)))
        rows = routing_trace_rows(route([req], net), net)
        assert all(t >= req.arrival_bin for *_, t in rows)
        assert rows[-1][-1] == req.arrival_bin + req.delay


def test_requests_conflict_matches_route():
    rng = np.random.default_rng(11)
    for _ in range(400):
        s = int(rng.integers(2, 5))
        net = DelayNetwork(s)
        a = RoutingRequest(int(rng.integers(0, 10)),
                           int(rng.integers(0, net.max_delay + 1)))
        b = RoutingRequest(int(rng.integers(0, 10)),
                           int(rng.integers(0, net.max_delay + 1)))
        if a.arrival_bin == b.arrival_bin:
            continue
        assert requests_conflict(a, b, net) == (not route([a, b], net).clash_free)


def test_requests_conflict_matches_timeline_oracle():
    # Exhaustive over request couples, equal arrival bins included; the
    # oracle shares no code with the clash kernel.
    for s in (1, 2, 3, 4):
        net = DelayNetwork(s)
        delays = range(net.max_delay + 1)
        for a1, a2 in itertools.product(range(net.max_delay + 2), repeat=2):
            for d1, d2 in itertools.product(delays, repeat=2):
                a, b = RoutingRequest(a1, d1), RoutingRequest(a2, d2)
                assert requests_conflict(a, b, net) == \
                    (not oracle_routable([a, b], s)), (s, a, b)


def test_route_agrees_with_timeline_oracle_smoke():
    # The exhaustive scan lives in the acceptance suite; spot-check here.
    rng = np.random.default_rng(3)
    for _ in range(300):
        s = int(rng.integers(1, 5))
        net = DelayNetwork(s)
        k = int(rng.integers(1, 4))
        arrivals = rng.choice(8, size=k, replace=False)
        reqs = [RoutingRequest(int(a), int(rng.integers(0, net.max_delay + 1)))
                for a in sorted(arrivals)]
        assert route(reqs, net).clash_free == oracle_routable(reqs, s)


@st.composite
def clash_cases(draw):
    """Requests for an s-switch network, s from 1 to 8, with arrival bins
    drawn from a short range (many repeats and meetings) or a long one, in
    any order."""
    s = draw(st.integers(1, 8))
    net = DelayNetwork(s)
    n = draw(st.integers(0, 12))
    top = draw(st.sampled_from([3, 40, 5000]))
    arrivals = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    delays = draw(st.lists(st.integers(0, net.max_delay), min_size=n,
                           max_size=n))
    return arrivals, delays, net


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(clash_cases())
@example(([], [], DelayNetwork(1)))
@example(([5, 5, 5, 5], [0, 0, 0, 0], DelayNetwork(1)))
@example(([0, 1, 1], [1, 0, 1], DelayNetwork(2)))
@example(([9, 2, 9, 0, 2], [0, 3, 5, 7, 1], DelayNetwork(4)))
def test_clash_rows_equal_path_walk_and_flat_key_kernel(case):
    arrivals, delays, net = case
    got = clash_rows(arrivals, delays, net)
    assert got.dtype == np.int64 and got.shape[1:] == (4,)
    assert got.tolist() == clash_rows_direct(arrivals, delays, net)
    assert got.tolist() == clash_rows_flat_key(arrivals, delays, net).tolist()


# A row's fate reads only earlier stages' drops, so which requests are
# dropped, and so the count, does not depend on the order of the requests.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(clash_cases())
@example(([0, 1, 1], [1, 0, 1], DelayNetwork(2)))    # a downstream row dropped
@example(([1, 0, 1], [1, 1, 0], DelayNetwork(2)))    # the same, reordered
@example(([4, 4, 4], [0, 0, 0], DelayNetwork(1)))    # three meet at one switch
def test_route_applies_the_first_clash_rule_of_the_oracle(case):
    arrivals, delays, net = case
    records, routed = route_clashes_direct(arrivals, delays, net)
    res = route([RoutingRequest(t, d) for t, d in zip(arrivals, delays)], net)
    assert [(c.stage, c.time_bin, c.request_a, c.request_b)
            for c in res.clashes] == records
    assert [idx for idx, _req, _rails in res.routed] == routed
    empty = np.empty(0, dtype=np.int64)
    pairs = [(t, t + d, d) for t, d in zip(arrivals, delays)]
    for order in (pairs, pairs[::-1]):
        assert count_clashing_pairs(Matching(order, empty, empty), net) == \
            len(arrivals) - len(routed)


def test_clash_rows_at_64_switches():
    net = DelayNetwork(64)
    arrivals = [0, 1, 2**62, 2**62 + 1, 3]
    delays = [net.max_delay, net.max_delay - 1, 2**62 - 1, 2**62 - 2, 2]
    got = clash_rows(arrivals, delays, net).tolist()
    assert got == clash_rows_direct(arrivals, delays, net)
    # Requests 0 and 1 meet at switch 1 in bin 1 and leave on its delay rail.
    assert got[0] == [1, 1, 0, 1]


def _dense_requests(n, s, seed, high=()):
    """n requests, unsorted, whose arrivals (n bins) and low delay bits
    (under 64) crowd, so that many meet at each of the first stages; each
    delay also takes one of `high` (0 or bits of later stages), so couples
    part there."""
    rng = np.random.default_rng(seed)
    low = min(max_delay(s), 63)
    delays = rng.integers(0, low + 1, size=n)
    if high:
        delays |= rng.choice(np.array(high, dtype=np.int64), size=n)
    return rng.integers(0, n, size=n), delays


@pytest.mark.parametrize("n, s, high", [
    (6000, 14, (0, 1 << 9, 1 << 12)),
    (3000, 64, (0, 1 << 30, 1 << 55)),     # bins stay below 2^57
])
def test_large_scans_equal_flat_key_kernel(n, s, high):
    # Past `_SCAN_ENTRIES` entries the scan sorts a switch at a time (or a
    # few); the flat key kernel sorts every (request, switch) entry at once.
    net = DelayNetwork(s)
    arrivals, delays = _dense_requests(n, s, n + s, high)
    assert n * s > delay_network._SCAN_ENTRIES
    got = clash_rows(arrivals, delays, net)
    assert got.tolist() == clash_rows_flat_key(arrivals, delays, net).tolist()
    assert np.unique(got[:, 0]).size >= 12 and len(got) > 10_000


@pytest.mark.parametrize("s", [8, 64])
def test_scan_just_past_one_pass_equals_path_walk(s):
    # One more request than a single pass over every switch holds: the
    # scan splits the switches into two blocks, the second a single switch,
    # and both find clashes.
    n = delay_network._SCAN_ENTRIES // s + 1
    net = DelayNetwork(s)
    arrivals, delays = _dense_requests(n, s, s, (0, 1 << (s - 2)))
    got = clash_rows(arrivals, delays, net)
    assert got.tolist() == clash_rows_direct(arrivals, delays, net)
    assert {0, s - 1} <= set(got[:, 0].tolist())


def test_scan_memory_grows_with_requests_not_switches():
    # The same 20000 requests, spread out so that few meet, through 14 and
    # 56 switches: a scan holds a few arrays of one switch's bins, whatever
    # the switch count.
    rng = np.random.default_rng(5)
    arrivals = rng.integers(0, 2 ** 40, size=20_000)
    delays = rng.integers(0, max_delay(14) + 1, size=20_000)
    peaks = []
    for s in (14, 56):
        tracemalloc.start()
        clash_rows(arrivals, delays, DelayNetwork(s))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0] < 8 * 8 * 20_000


def test_far_apart_bins_do_not_meet_at_64_switches():
    # bin * 64 wraps int64 at 2^58: a flat key of bin * s + switch gave
    # bins 2^58 and 0 the same key at every switch and reported clashes.
    net = DelayNetwork(64)
    reqs = [RoutingRequest(2**58, 0), RoutingRequest(0, 0)]
    assert route(reqs, net).clash_free
    assert clash_rows([2**58, 0], [0, 0], net).shape == (0, 4)
    assert clash_rows_direct([2**58, 0], [0, 0], net) == []
    assert clash_rows_flat_key([2**58, 0], [0, 0], net).size   # the old fault


def test_path_past_int64_is_rejected():
    net = DelayNetwork(64)
    top = np.iinfo(np.int64).max
    assert clash_rows([top - net.max_delay], [net.max_delay], net).size == 0
    for call in (lambda reqs: clash_rows([r.arrival_bin for r in reqs],
                                         [r.delay for r in reqs], net),
                 lambda reqs: route(reqs, net)):
        with pytest.raises(ValueError, match="arrival bin \\+ delay exceeds "
                           "the int64 maximum"):
            call([RoutingRequest(0, 7), RoutingRequest(top - 5, 6)])
    with pytest.raises(ValueError, match="delay 8 outside"):
        route([RoutingRequest(top, 8)], DelayNetwork(4))


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_requests_that_never_meet_give_no_rows(s):
    # Arrivals more than max_delay apart never share a switch and bin, so
    # the gap scan finds no meeting; the timeline search agrees.
    net = DelayNetwork(s)
    rng = np.random.default_rng(s)
    for k in range(4):
        arrivals = np.cumsum(rng.integers(net.max_delay + 1,
                                          net.max_delay + 4, size=k))
        delays = rng.integers(0, net.max_delay + 1, size=k)
        got = clash_rows(arrivals, delays, net)
        assert got.shape == (0, 4) and got.dtype == np.int64
        assert clash_rows_direct(arrivals, delays, net) == []
        reqs = [RoutingRequest(int(a), int(d)) for a, d in zip(arrivals, delays)]
        assert oracle_routable(reqs, s)
        assert route(reqs, net).clash_free


@pytest.mark.parametrize("arrival, delay", [(2**63, 0), (0, 2**63),
                                            (-2**63 - 1, 0)])
def test_values_past_int64_raise_value_error(arrival, delay):
    net = DelayNetwork(2)
    far = RoutingRequest(arrival, delay)
    with pytest.raises(ValueError, match="must fit in int64"):
        route([far], net)
    with pytest.raises(ValueError, match="must fit in int64"):
        clash_rows([arrival], [delay], net)
    with pytest.raises(ValueError, match="must fit in int64"):
        requests_conflict(far, RoutingRequest(0, 0), net)
