"""Binary-delay switching networks: achievable delays, forced paths, clashes.

An s-switch network has s-1 delaying stages followed by one output-selection
switch. Stage i sits between a pass rail (rail 0) and a delay rail (rail 1)
of length stage_delays[i] bins; the delays are the powers of two
1, 2, 4, ..., 2^(s-2), so every total delay up to 2^(s-1)-1 decomposes
uniquely into a set of stage delays. A photon's path is therefore forced by
its requested delay: it takes the delay rail at exactly the stages whose
delay appears in the binary decomposition.

Each 2x2 switch applies one shared setting (bar or cross) per time bin, so
two photons that meet at a switch in the same bin must enter on different
rails and leave on different rails; otherwise they clash. Paths are forced,
so clashes are a property of the requests alone, and one kernel finds them:
``clash_rows`` sorts each switch's bins on its own, reads the rails only of
requests that meet, and lists every clash as a (stage, time_bin, a, b) row.
Routing, the pairwise conflict test and the matching layer's conflict scan
all use it, and ``first_clashes`` is the one home of ``route``'s drop rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


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

    Delaying stages ascend (1, 2, 4, ...), as in the drawn cascades, so the
    first s-1 switches of a larger network are this one's delaying stages.
    """

    s: int
    stage_delays: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not 1 <= self.s <= 64:   # so every delay fits in int64
            raise ValueError(f"switch count must be in [1, 64], got {self.s}")
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


def _requests(arrival_bins, delays, network: DelayNetwork):
    """(bins, delays, out) of n requests, checked as `clash_rows` says. out[k]
    is the delay of the stage after switch k (0 after the output switch):
    request i leaves switch k on rail bool(delay & out[k]), and reaches it
    in bin bins[k, i] = arrival_bin + (delay & (out[0] + ... + out[k-1]))."""
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
    out = np.array(network.stage_delays + (0,), dtype=np.int64)
    return arrival_bins + (delays & (np.cumsum(out) - out)[:, None]), delays, out


def clash_rows(arrival_bins, delays, network: DelayNetwork) -> np.ndarray:
    """Every clash among the forced paths of n requests, as an int64 array.

    Row (stage, time_bin, a, b): requests a < b meet at switch `stage` in
    bin `time_bin` and enter or leave on the same rail. Rows are sorted by
    stage, a, b, and include clashes downstream of an earlier one. Raises
    ValueError on a delay outside [0, max_delay], a negative arrival bin or
    an arrival_bin + delay past the int64 maximum.
    """
    bins, delays, out = _requests(arrival_bins, delays, network)
    n = delays.size
    # Row k of bins (switch k) is nearly sorted (a request is under 2^k bins
    # past its arrival), so sorts fast; stably, so a meeting lists a < b.
    order = np.argsort(bins, axis=1, kind="stable")
    flat = bins.ravel()[(order + n * np.arange(len(bins))[:, None]).ravel()]
    hits = []
    # Entries `gap` apart in one sorted row meet when their bins agree; a
    # meeting of m requests shows up at every gap below m.
    for gap in range(1, n):
        j = np.nonzero(flat[gap:] == flat[:-gap])[0]
        j = j[j % n < n - gap]
        if not j.size:
            break
        hits.append((j, j + gap))
    if not hits:                                # no two requests meet
        return np.empty((0, 4), dtype=np.int64)
    j, k = np.concatenate(hits, axis=1)
    stage, a, b = j // n, order.ravel()[j], order.ravel()[k]
    # Rails are read at meetings only: two requests leave switch k on one
    # rail when their delays agree on out[k], and enter it on one rail when
    # they agree on out[k-1] (out[-1] = 0: all enter switch 0 on rail 0).
    differ = delays[a] ^ delays[b]
    clash = ((differ & out[stage - 1]) == 0) | ((differ & out[stage]) == 0)
    rows = np.stack((stage, flat[j], a, b), axis=1)[clash]
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
    _bins, delays, out = _requests([req.arrival_bin], [req.delay], network)
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
    arrivals = [req.arrival_bin for req in requests]
    delays = [req.delay for req in requests]
    rows = first_clashes(clash_rows(arrivals, delays, network)).tolist()
    dropped = {i for row in rows for i in row[2:]}
    _bins, checked, out = _requests(arrivals, delays, network)
    rails = np.minimum(checked[:, None] & out[:-1], 1).tolist()
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
