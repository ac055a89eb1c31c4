"""Binary-delay switching networks: achievable delays, forced paths, clashes.

`DelayNetwork` is an s-switch cascade's topology: why a photon's path
through it is forced by its delay, and why one clash scan through a larger
network gives a smaller one its clashes. `clash_rows` is the one clash
kernel and `first_clashes` the one home of `route`'s drop rule; `route`,
`requests_conflict` and the matching layer's conflict scans call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_SWITCHES = 64               # so every delay fits in int64


def max_delay(s: int) -> int:
    """Largest delay reachable with s 2x2 switches: 2^(s-1) - 1."""
    if s < 1:
        raise ValueError(f"switch count must be >= 1, got {s}")
    return 2 ** (s - 1) - 1


def depth_for_bins(k: int) -> tuple[int, int]:
    """Round a bin count up to a network-addressable size.

    Returns (k_up, depth) with k_up = 2^ceil(log2 k) and
    depth = 1 + log2(k_up) switches.
    """
    if k < 1:
        raise ValueError(f"bin count must be >= 1, got {k}")
    k_up = 1 << (k - 1).bit_length()
    depth = 1 + (k_up.bit_length() - 1)
    return k_up, depth


@dataclass(frozen=True)
class DelayNetwork:
    """Fixed topology of an s-switch binary-delay network.

    s-1 delaying stages are followed by one output-selection switch. Stage
    k sits between a pass rail (rail 0) and a delay rail (rail 1) of
    `stage_delays[k]` bins. The delays ascend 1, 2, 4, ..., 2^(s-2), as in
    the drawn cascades, so every delay up to `max_delay` = 2^(s-1) - 1 is
    the sum of one set of them: a photon's path is forced by its delay,
    taking the delay rail at exactly the stages of its binary digits.

    The first s-1 switches of a larger network are this one's delaying
    stages, and its switch s-1 delays by 2^(s-1), more than this network
    can. So a delay this network realizes takes the same bins and rails
    through switch s-1 of the larger one, leaves it on rail 0 as it would
    leave this output switch, and then waits in the same bin on rail 0:
    two such requests that meet past switch s-1 met and clashed there. One
    `clash_rows` scan through the largest network thus gives each smaller
    network's requests their own clashes, and `first_clashes` drops the
    pairs that network's `route` drops.
    """

    s: int
    stage_delays: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.s <= MAX_SWITCHES:
            raise ValueError(f"switch count must be in [1, {MAX_SWITCHES}], "
                             f"got {self.s}")
        object.__setattr__(self, "stage_delays",
                           tuple(1 << i for i in range(self.s - 1)))

    @property
    def max_delay(self) -> int:
        return max_delay(self.s)


@dataclass(frozen=True)
class RoutingRequest:
    """One photon to be delayed: arrives at arrival_bin, needs delay bins."""

    arrival_bin: int
    delay: int


@dataclass(frozen=True)
class ClashRecord:
    stage: int                     # switch index (s-1 is the output switch)
    time_bin: int
    request_a: int                 # indices into the routed request list
    request_b: int


@dataclass
class RoutingResult:
    routed: list                   # (request_index, request, rails) triples
    clashes: list                  # ClashRecords by (stage, request_a, request_b)

    @property
    def clash_free(self) -> bool:
        return not self.clashes


def _checked(arrival_bins, delays, network: DelayNetwork):
    """(arrivals, delays, out) of n requests, checked as `clash_rows` says.
    out[k] is the delay of the stage after switch k (0 after the output
    switch): request i leaves switch k on rail bool(delay & out[k])."""
    d_max = network.max_delay
    try:
        arrival_bins = np.asarray(arrival_bins, dtype=np.int64)
        delays = np.asarray(delays, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"arrival bins and delays must fit in int64 (delays "
                         f"in [0, {d_max}] for s={network.s})") from None
    if delays.size and (delays.min() < 0 or delays.max() > d_max):
        bad = delays[(delays < 0) | (delays > d_max)][0]
        raise ValueError(f"delay {bad} outside [0, {d_max}] for s={network.s}")
    if arrival_bins.size and arrival_bins.min() < 0:
        raise ValueError(f"arrival bin must be >= 0, got {arrival_bins.min()}")
    if (arrival_bins > np.iinfo(np.int64).max - delays).any():
        raise ValueError("arrival bin + delay exceeds the int64 maximum")
    return arrival_bins, delays, np.array(network.stage_delays + (0,),
                                          dtype=np.int64)


def _requests(arrival_bins, delays, network: DelayNetwork):
    """(bins, delays, out) of `_checked` requests, request i reaching switch
    k in bin bins[k, i] = arrival_bin + (delay & (out[0] + ... + out[k-1]))."""
    arrivals, delays, out = _checked(arrival_bins, delays, network)
    return arrivals + (delays & (np.cumsum(out) - out)[:, None]), delays, out


def clash_rows(arrival_bins, delays, network: DelayNetwork) -> np.ndarray:
    """Every clash among the forced paths of n requests, as an int64 array.

    A 2x2 switch applies one setting (bar or cross) per time bin, so two
    requests that meet at a switch in one bin must enter on different rails
    and leave on different rails, or they clash. Paths are forced, so the
    clashes are a property of the requests alone.

    Row (stage, time_bin, a, b): requests a < b meet at switch `stage` in
    bin `time_bin` and enter or leave on the same rail. Rows are sorted by
    stage, a, b, and include clashes downstream of an earlier one. Raises
    ValueError on a delay outside [0, max_delay], a negative arrival bin or
    an arrival_bin + delay past the int64 maximum.

    The scan sorts one block of consecutive switches per pass, at most
    `_SCAN_ENTRIES` (switch, request) bins, or one switch when n is larger.
    Beyond its inputs and the rows it finds, it holds a few int64 arrays of
    max(n, `_SCAN_ENTRIES`) entries.
    """
    return _clash_rows(*_checked(arrival_bins, delays, network))


# The most (switch, request) bins a `clash_rows` pass sorts. A pass per
# switch pays numpy's per-call costs once per switch, which made scans of
# 80-800 requests at 8 switches 2x slower; one pass over every switch holds
# several (switches x requests) int64 arrays, a 2.1 MB peak for 6903
# requests at 10 switches (0.3 MB a switch at a time).
_SCAN_ENTRIES = 1 << 13


def _clash_rows(arrivals, delays, out) -> np.ndarray:
    """`clash_rows` of `_checked` requests."""
    n = delays.size
    spent = np.cumsum(out) - out
    met = []
    per = max(1, _SCAN_ENTRIES // max(n, 1))
    for first in range(0, out.size, per):
        # Row r of bins (switch first + r) is nearly sorted (a request
        # reaches switch k under 2^k bins past its arrival), so sorts fast;
        # stably, so a meeting lists a < b.
        bins = arrivals + (delays & spent[first:first + per, None])
        order = np.argsort(bins, axis=1, kind="stable")
        order += n * np.arange(len(bins))[:, None]
        order = order.ravel()
        flat = bins.ravel()[order]
        # same[i]: entry i meets entry i + 1 (never across two rows).
        same = np.zeros(flat.size, dtype=bool)
        np.equal(flat[1:], flat[:-1], out=same[:-1])
        same[n - 1::max(n, 1)] = False
        # Entries i and i + gap meet when every step between them does; a
        # meeting of m requests shows up at every gap below m.
        j = np.flatnonzero(same)
        hits, gap = [], 1
        while j.size:
            hits.append((j, j + gap))
            j = j[same[j + gap]]
            gap += 1
        if hits:
            j, k = np.concatenate(hits, axis=1)
            met.append(np.stack((first + j // n, flat[j], order[j] % n,
                                 order[k] % n)))
    if not met:                                 # no two requests meet
        return np.empty((0, 4), dtype=np.int64)
    stage, _bin, a, b = rows = np.concatenate(met, axis=1)
    # Rails are read at meetings only: two requests leave switch k on one
    # rail when their delays agree on out[k], and enter it on one rail when
    # they agree on out[k-1] (out[-1] = 0: all enter switch 0 on rail 0).
    differ = delays[a] ^ delays[b]
    clash = ((differ & out[stage - 1]) == 0) | ((differ & out[stage]) == 0)
    rows = rows.T[clash]
    return rows[np.lexsort(rows[:, [3, 2, 0]].T)]


def first_clashes(rows) -> np.ndarray:
    """The rows of a `clash_rows` array that `route` records: each row none
    of whose requests is in a recorded row of an earlier stage."""
    keep = np.zeros(len(rows), dtype=bool)
    dropped = np.zeros(int(rows[:, 2:].max(initial=-1)) + 1, dtype=bool)
    for stage in np.unique(rows[:, 0]).tolist():
        at = rows[:, 0] == stage
        keep[at] = ~dropped[rows[at, 2:]].any(axis=1)
        dropped[rows[keep & at, 2:]] = True
    return rows[keep]


def request_rails(req: RoutingRequest, network: DelayNetwork) -> tuple[int, ...]:
    """Rail choice (0 pass, 1 delay) at each delaying stage."""
    _arrivals, delays, out = _checked([req.arrival_bin], [req.delay], network)
    return tuple(np.minimum(delays & out[:-1], 1).tolist())


def requests_conflict(a: RoutingRequest, b: RoutingRequest,
                      network: DelayNetwork) -> bool:
    """True when the two forced paths cannot share the network."""
    return clash_rows([a.arrival_bin, b.arrival_bin], [a.delay, b.delay],
                      network).size > 0


def route(requests, network: DelayNetwork) -> RoutingResult:
    """Simulate all requests through the cascade and detect every clash.

    Requests implicated in a clash are dropped at the first conflicting
    stage (their downstream routing is undefined); the rest are routed to
    arrival_bin + delay on the output port. Raises on out-of-range delays.
    """
    arrivals, delays, out = _checked([req.arrival_bin for req in requests],
                                     [req.delay for req in requests], network)
    rows = first_clashes(_clash_rows(arrivals, delays, out)).tolist()
    dropped = {i for row in rows for i in row[2:]}
    rails = np.minimum(delays[:, None] & out[:-1], 1).tolist()
    routed = [(idx, req, tuple(rails[idx])) for idx, req in enumerate(requests)
              if idx not in dropped]
    return RoutingResult(routed, [ClashRecord(*row) for row in rows])


def routing_trace_rows(result: RoutingResult, network: DelayNetwork):
    """Debug dump rows: (photon_id, arrival_bin, delay, stage, rail, bin_at_stage).

    Only cleanly routed photons are traced, on their routed rails; the
    output switch appears as the last stage with rail 0.
    """
    reqs = [req for _idx, req, _rails in result.routed]
    bins, _delays, _out = _requests([r.arrival_bin for r in reqs],
                                    [r.delay for r in reqs], network)
    return [(idx, req.arrival_bin, req.delay, stage, rail, t)
            for (idx, req, rails), times in zip(result.routed, bins.T.tolist())
            for stage, (rail, t) in enumerate(zip(rails + (0,), times))]
