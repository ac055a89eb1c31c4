"""Correctness gate, run after the timed region of every benchmark run.

Besides the checks each recipe reports, it re-derives a sample of the
workload's instances from the workload seed and checks them against
references the program does not use: scipy's assignment solver for the
no-clash optimum, ``delay_network.route`` for clash-free routing of every
clash-handling strategy, and scipy's connected components for ``spans``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from rmux import delay_network, matching, mux_sim, percolation, streams


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


def _rng(seed: int) -> np.random.Generator:
    # Keyed apart from the recipes' own SeedSequence(seed) tree.
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1])))


def _stream_pair(rng, p: float, n_bins: int):
    a, b = (int(x) for x in rng.integers(0, 2**63, size=2))
    return streams.generate_stream(p, n_bins, a), streams.generate_stream(p, n_bins, b)


def _routes_clash_free(m, network) -> bool:
    requests = matching.pair_requests(sorted(m.pairs))
    return delay_network.route(requests, network).clash_free


def match_sweep_checks(params: dict, seed: int) -> list:
    """Scipy optimum and clash-free routing on two instances per switch count."""
    p, n_bins = float(params["p"]), int(params["bins"])
    checks = []
    rng = _rng(seed)
    for s in (int(x) for x in params["switches"].split(",") for _ in range(2)):
        s1, s2 = _stream_pair(rng, p, n_bins)
        network = delay_network.DelayNetwork(s)
        W = matching.build_assignment_matrix(s1, s2, network.max_delay)
        m = matching.hungarian_min_assignment(W)
        rows, cols = linear_sum_assignment(W.weights)
        real = ~W.virtual_mask[rows, cols]
        want = (int(real.sum()), int(W.weights[rows, cols][real].sum()))
        got = (len(m.pairs), m.total_weight)
        checks.append(Check(f"s={s} no-clash (pairs, delay) equals scipy",
                            got == want, f"got {got}, scipy {want}"))
        for strategy in ("hungarian_with_clash", "realistic"):
            m, _ = mux_sim.match_streams(s1, s2, network, strategy)
            checks.append(Check(f"s={s} {strategy} routes clash-free",
                                _routes_clash_free(m, network)))
    return checks


def bell_budget_checks(params: dict, seed: int) -> list:
    """Clash-free routing of both sliding-window stages at every split."""
    p1, n_bins = float(params["p1"]), int(params["bins"])
    budget = max(int(x) for x in params["budgets"].split(","))
    rng = _rng(seed)
    quad = _stream_pair(rng, p1, n_bins) + _stream_pair(rng, p1, n_bins)
    checks = []
    for s1, s2 in mux_sim.rmux_splits(budget):
        net1, net2 = delay_network.DelayNetwork(s1), delay_network.DelayNetwork(s2)
        events = []
        for a, b in (quad[:2], quad[2:]):
            m = matching.sliding_window_match(a, b, net1.max_delay, net1)
            checks.append(Check(f"split ({s1},{s2}) stage-1 window match "
                                "routes clash-free",
                                _routes_clash_free(m, net1)))
            ev = np.zeros(n_bins, dtype=bool)
            ev[[b2 for _b1, b2, _d in m.pairs]] = True
            events.append(streams.stream_from_bins(ev))
        m = matching.sliding_window_match(*events, net2.max_delay, net2)
        checks.append(Check(f"split ({s1},{s2}) stage-2 window match "
                            "routes clash-free", _routes_clash_free(m, net2)))
    return checks


def _spans_reference(state) -> bool:
    lat = state.lattice
    alive = state.site_alive
    a = lat.bond_site_a[state.bond_present]
    b = lat.bond_site_b[state.bond_present]
    keep = alive[a] & alive[b]
    graph = coo_matrix((np.ones(int(keep.sum())), (a[keep], b[keep])),
                       shape=(lat.n_sites, lat.n_sites))
    _, label = connected_components(graph, directed=False)
    start = {int(label[s]) for s in lat.face_start_sites if alive[s]}
    return any(int(label[s]) in start for s in lat.face_end_sites if alive[s])


def threshold_scan_checks(params: dict, seed: int, csv_rows) -> list:
    """Scheme ordering per size, and spans against connected components."""
    checks = []
    thresholds = {(r["scheme"], r["L"]): float(r["p_l_threshold"]) for r in csv_rows}
    for L in sorted({L for _scheme, L in thresholds}, key=int):
        rmux_thr = thresholds[(percolation.SCHEME_RMUX, L)]
        std_thr = thresholds[(percolation.SCHEME_STANDARD, L)]
        checks.append(Check(f"L={L} relative threshold above standard",
                            rmux_thr > std_thr, f"{rmux_thr} vs {std_thr}"))
    semantics = percolation.calibrated_semantics()
    rng = _rng(seed)
    for L in (6, 10):
        lattice = percolation.DiamondLattice(L)
        for scheme in (percolation.SCHEME_RMUX, percolation.SCHEME_STANDARD):
            for p_l in (0.03, 0.07):
                state = percolation.sample_lattice_state(
                    lattice, scheme, p_l, 0.0, semantics, rng)
                got, want = percolation.spans(state), _spans_reference(state)
                checks.append(Check(
                    f"L={L} {scheme} p_l={p_l} spans equals connected components",
                    got == want, f"got {got}, reference {want}"))
    return checks
