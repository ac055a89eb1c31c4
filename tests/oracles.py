"""Independent reference implementations the fast code is checked against.

These deliberately avoid the production shortcuts: the routing oracle
enumerates every per-photon rail sequence instead of using the binary
decomposition, the assignment oracle tries all n! permutations, the
spanning oracle is a breadth-first path search instead of union-find,
the cut-pass oracle sweeps every bond of each graph through a plain
union-find in place of one components call and a censored sweep, and
the lattice-state oracle applies each outcome rule to the fusions at one
loss rate instead of thresholding per-site and per-bond loss levels, and
the Bell oracle simulates one switch budget at a time, recomputing stage 1
for every split with the pointer-loop window below instead of the
program's prefix scan, and the two-stream oracle simulates one strategy and
one switch count at a time, sampling every repetition again, finding every
no-clash optimum on its own by the pointer loops of its two sweeps and
repairing every one, one scan of its own network and one `solve_assignment`
per repair step. The weight-matrix oracle fills the matrix photon pair by
photon pair and builds its virtual mask beside it, and the window and
repair oracles keep a pair unless it clashes with an earlier kept one by
their own loop over the couples `clash_rows` lists. The discard oracle
classifies each unmatched photon by scanning the other stream for a photon
in its feasible direction. The clash-row oracle walks each request's path
switch by switch, taking its delay rails greedily from the largest stage
delay down, and compares every couple at every switch in Python integers;
the routing-rule oracle drops requests from those rows stage by stage. The
flat-key kernel is the clash scan the program ran before it sorted
each switch's bins on its own. The standard Bell scheme's rate has a closed
form, which samples nothing.
"""

import itertools
import math
from collections import deque

import numpy as np

from rmux.delay_network import (DelayNetwork, _requests, clash_rows,
                                max_delay)
from rmux.matching import (Matching, WeightMatrix, matching_metrics,
                           sliding_window_match, solve_assignment,
                           virtual_weight_for)
from rmux.mux_sim import BELL_GATE_PROB, BellStats, StrategyStats
from rmux.percolation import (FUSION_SUCCESS_PROB, DiamondLattice,
                              OutcomeSemantics)
from rmux.streams import generate_stream


def oracle_routable(requests, s: int) -> bool:
    """Exhaustive switch-timeline search for a set of (arrival, delay) requests.

    Enumerating rail sequences per photon is equivalent to enumerating
    switch settings: a combination is feasible when every photon realizes
    its requested delay, no two photons occupy the same rail in the same
    bin, and no shared switch-bin is asked for both settings at once.
    """
    delays = [1 << i for i in range(s - 1)]

    def paths(req):
        out = []
        for bits in itertools.product((0, 1), repeat=s - 1):
            t = req.arrival_bin
            visits = []
            in_rail = 0
            for i, bit in enumerate(bits):
                visits.append((i, t, in_rail, bit))
                if bit:
                    t += delays[i]
                in_rail = bit
            visits.append((s - 1, t, in_rail, 0))
            if t == req.arrival_bin + req.delay:
                out.append(visits)
        return out

    all_paths = [paths(r) for r in requests]
    if any(not p for p in all_paths):
        return False
    for combo in itertools.product(*all_paths):
        settings = {}
        occupied = set()
        ok = True
        for visits in combo:
            for stage, t, in_rail, out_rail in visits:
                if (stage, t, in_rail) in occupied:
                    ok = False
                    break
                occupied.add((stage, t, in_rail))
                wants_bar = in_rail == out_rail
                if settings.setdefault((stage, t), wants_bar) != wants_bar:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def brute_force_assignment(cost) -> float:
    """Minimum assignment cost by trying all permutations (n <= ~8)."""
    n = len(cost)
    return min(sum(cost[perm[j]][j] for j in range(n))
               for perm in itertools.permutations(range(n)))


def spans_bfs(state) -> bool:
    """Path search from the start face to the end face over alive sites."""
    lat = state.lattice
    alive = state.site_alive
    adjacency = {}
    for present, a, b in zip(state.bond_present, lat.bond_site_a,
                             lat.bond_site_b):
        if present and alive[a] and alive[b]:
            adjacency.setdefault(int(a), []).append(int(b))
            adjacency.setdefault(int(b), []).append(int(a))
    targets = {int(s) for s in lat.face_end_sites if alive[s]}
    queue = deque(int(s) for s in lat.face_start_sites if alive[s])
    seen = set(queue)
    while queue:
        node = queue.popleft()
        if node in targets:
            return True
        for nxt in adjacency.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False


def sample_state_direct(lattice, scheme, f_l, semantics, rng):
    """(site_alive, bond_present) of one trial.

    Takes three uniform draws per fusion in the program's order (u, v,
    w_site), of which the program draws w_site only at a kill chance above
    0, and applies the outcome rules fusion by fusion at fusion-loss
    probability f_l.
    """
    n = lattice.n_fusions
    u, v, w_site = (rng.random(n) for _ in range(3))
    loss = u < f_l
    success = ~loss & (v < 0.75)
    heralded = ~loss & ~success
    alive = np.ones(lattice.n_sites, dtype=bool)
    alive[lattice.fusion_owner[loss]] = False
    if scheme == "standard":
        alive[lattice.fusion_passive[loss]] = False
    killed = (heralded & ~lattice.fusion_is_bond
              & (w_site < semantics.heralded_site_kill_prob))
    alive[lattice.fusion_owner[killed]] = False
    return alive, success[lattice.fusion_is_bond]


def critical_losses_direct(L, scheme, trials, seed, semantics=None):
    """Each trial's critical fusion loss f*, one scheme per call.

    Draws each trial as the program does (child t of SeedSequence(seed),
    here all three uniform draws per fusion), builds the scheme's site
    levels by scattering u onto each fusion's ends with `np.minimum.at`,
    and sweeps every bond from the highest level down through a union-find
    with a find function.
    """
    semantics = semantics or OutcomeSemantics()
    lat = DiamondLattice(L)
    n = lat.n_sites
    f_star = np.empty(trials)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        rng = np.random.Generator(np.random.PCG64(child))
        u, v, w_site = rng.random((3, lat.n_fusions))
        site = np.full(n, np.inf)
        np.minimum.at(site, lat.fusion_owner, u)
        if scheme == "standard":
            np.minimum.at(site, lat.fusion_passive, u)
        killed = (~lat.fusion_is_bond & (v >= FUSION_SUCCESS_PROB)
                  & (w_site < semantics.heralded_site_kill_prob))
        site[lat.fusion_owner[killed]] = -np.inf
        bond = np.where(v < FUSION_SUCCESS_PROB, u, -np.inf)[lat.fusion_is_bond]
        a, b = lat.bond_site_a, lat.bond_site_b
        level = np.minimum(bond, np.minimum(site[a], site[b]))
        parent = list(range(n + 2))
        for j in lat.face_start_sites.tolist():
            parent[j] = n
        for j in lat.face_end_sites.tolist():
            parent[j] = n + 1

        def find(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        f_star[t] = -np.inf
        for k in np.argsort(-level, kind="stable").tolist():
            if level[k] == -np.inf:
                break
            x, y = sorted((find(int(a[k])), find(int(b[k]))))
            if n <= x < y:
                f_star[t] = level[k]
                break
            parent[x] = y
    return f_star


def cut_pass_direct(lattice, levels, cuts):
    """Critical levels of the graphs in the rows of `levels` (bond order),
    each censored at its cut: a plain union-find over the sites, with each
    face merged into a node of its own, merges every usable bond from the
    highest level down until the faces join, at f*; the graph reads +inf
    if f* >= cut, else f*."""
    n = lattice.n_sites
    node = {**{int(j): n for j in lattice.face_start_sites},
            **{int(j): n + 1 for j in lattice.face_end_sites}}
    ends = [(node.get(int(a), int(a)), node.get(int(b), int(b)))
            for a, b in zip(lattice.bond_site_a, lattice.bond_site_b)]
    out = []
    for level, cut in zip(levels.tolist(), cuts.tolist()):
        parent = list(range(n + 2))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        f_star = -math.inf
        for k in sorted(range(len(level)), key=lambda k: -level[k]):
            if level[k] == -math.inf:
                break
            parent[find(ends[k][0])] = find(ends[k][1])
            if find(n) == find(n + 1):
                f_star = level[k]
                break
        out.append(math.inf if f_star >= cut else f_star)
    return np.array(out)


def _standard_rate_direct(streams, s1, s2, gate_rng):
    """One standard-scheme split: four-stream windows, gate, output groups."""
    n_bins = streams[0].n_bins
    w1, w2 = max_delay(s1) + 1, max_delay(s2) + 1
    n_windows = n_bins // w1
    if n_windows == 0:
        return 0.0
    have = np.ones(n_windows, dtype=bool)
    for st in streams:
        have &= st.bins[:n_windows * w1].reshape(n_windows, w1).any(axis=1)
    success = have & (gate_rng.random(n_windows) < BELL_GATE_PROB)
    n_groups = n_windows // w2
    if n_groups == 0:
        return 0.0
    delivered = success[:n_groups * w2].reshape(n_groups, w2).any(axis=1).sum()
    return float(delivered) / n_bins


def standard_rate_exact(p1, s1, s2, n_bins):
    """(mean, variance) of one repetition's standard-scheme Bell states per
    bin at split (s1, s2), in closed form.

    A stream holds a photon in a w1-bin window with probability q; a window
    where all four do passes the gate with probability g; a group of w2
    windows delivers when any of its windows passes, and the groups of a
    repetition are independent. Windows past the last whole group, and bins
    past the last whole window, deliver nothing.
    """
    w1 = min(max_delay(s1), n_bins) + 1
    w2 = min(max_delay(s2), n_bins) + 1
    groups = n_bins // w1 // w2
    q = 1.0 - (1.0 - p1) ** w1
    g = q ** 4 * BELL_GATE_PROB
    hit = 1.0 - (1.0 - g) ** w2
    return groups * hit / n_bins, groups * hit * (1.0 - hit) / n_bins ** 2


def clash_rows_direct(arrival_bins, delays, network):
    """Clash rows (stage, time_bin, a, b), as lists sorted by stage, a, b:
    couples a < b whose paths reach switch `stage` in the same bin on the
    same in rail or the same out rail."""
    paths = []
    for t, d in zip(arrival_bins, delays):
        taken, rest = set(), int(d)
        for delay in sorted(network.stage_delays, reverse=True):
            if delay <= rest:
                taken.add(delay)
                rest -= delay
        assert rest == 0, (d, network)
        visits, in_rail, t = [], 0, int(t)
        for delay in network.stage_delays:
            out_rail = int(delay in taken)
            visits.append((t, in_rail, out_rail))
            t += delay * out_rail
            in_rail = out_rail
        paths.append(visits + [(t, in_rail, 0)])
    rows = [[stage, va[0], a, b]
            for a, b in itertools.combinations(range(len(paths)), 2)
            for stage, (va, vb) in enumerate(zip(paths[a], paths[b]))
            if va[0] == vb[0] and (va[1] == vb[1] or va[2] == vb[2])]
    return sorted(rows, key=lambda row: (row[0], row[2], row[3]))


def route_clashes_direct(arrival_bins, delays, network):
    """(records, routed) of `route` by its rule, stage by stage over
    `clash_rows_direct`: at each stage, the rows whose two requests are
    both still in the network are records, and their requests leave it.
    Records are (stage, time_bin, a, b) tuples, routed the indices of the
    requests that never leave."""
    rows = clash_rows_direct(arrival_bins, delays, network)
    dropped, records = set(), []
    for stage in range(network.s):
        found = [tuple(row) for row in rows
                 if row[0] == stage and not {row[2], row[3]} & dropped]
        records += found
        dropped |= {i for row in found for i in row[2:]}
    return records, [i for i in range(len(delays)) if i not in dropped]


def clash_rows_flat_key(arrival_bins, delays, network):
    """The clash scan as it was: one stable argsort of the flat key
    bin * s + switch over every (request, switch) entry, with both rails of
    every entry coded as 2 * in + out. The key wraps int64 once bin * s
    does."""
    bins, delays, out = _requests(arrival_bins, delays, network)
    bins, out_rails = bins.T, np.minimum(delays & out[:, None], 1).T
    in_rails = np.roll(out_rails, 1, axis=1)    # the output switch's is 0
    n, s = bins.shape
    key = (bins * s + np.arange(s)).T.ravel()
    order = np.argsort(key, kind="stable")
    key = key[order]
    code = (2 * in_rails + out_rails).T.ravel()[order]
    first, second = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for gap in range(1, key.size):
        j = np.nonzero(key[gap:] == key[:-gap])[0]
        if not j.size:
            break
        j = j[(code[j] ^ code[j + gap]) != 3]
        first.append(j)
        second.append(j + gap)
    j, k = np.concatenate(first), np.concatenate(second)
    time_bin, stage = np.divmod(key[j], s)
    a, b = order[j] % n, order[k] % n
    return np.stack((stage, time_bin, a, b), axis=1)[np.lexsort((b, a, stage))]


def clash_couples(pairs, network):
    """Sorted couples (a, b), a < b, of the (b1, b2, delay) pairs whose forced
    paths meet, read from `clash_rows`."""
    rows = clash_rows([b1 for b1, _, _ in pairs], [d for _, _, d in pairs],
                      network)
    return sorted(set(map(tuple, rows[:, 2:].tolist())))


def instance_lists(pairs, owner, n):
    """Per instance 0..n-1, the (b1, b2, delay) rows of `pairs` whose
    `owner` is that instance, in their order, as tuples."""
    rows, owner = list(map(tuple, pairs.tolist())), owner.tolist()
    return [[row for row, o in zip(rows, owner) if o == i] for i in range(n)]


def keep_unless_clashing(pairs, couples):
    """(kept, dropped): `pairs` in order, each kept unless one of `couples`
    ties it to an earlier kept pair."""
    earlier = {}
    for a, b in couples:
        earlier.setdefault(b, []).append(a)
    kept = set()
    for i in range(len(pairs)):
        if not kept.intersection(earlier.get(i, ())):
            kept.add(i)
    return ([p for i, p in enumerate(pairs) if i in kept],
            [p for i, p in enumerate(pairs) if i not in kept])


def window_pairs_direct(bins1, bins2, d_max, network):
    """(kept, dropped) pairs of the sliding window, by its pointer loop.

    Each stream-1 photon, in bin order, takes the first unconsumed stream-2
    photon in [b1, b1 + d_max]; formed pairs are then kept in order unless
    they clash with an earlier kept pair.
    """
    formed = []
    ptr, n2 = 0, len(bins2)
    for b1 in bins1:
        while ptr < n2 and bins2[ptr] < b1:
            ptr += 1
        if ptr == n2:
            break                   # stream 2 is spent
        b2 = bins2[ptr]
        if b2 - b1 <= d_max:
            formed.append((b1, b2, b2 - b1))
            ptr += 1
    return keep_unless_clashing(formed, clash_couples(formed, network))


def no_clash_pairs_direct(bins1, bins2, d) -> list:
    """(b1, b2, delay) pairs of the least-delay maximum matching under
    0 <= b2 - b1 <= d, by the pointer loops of its two sweeps.

    Stream 2 ascending: each b2 takes the earliest stream-1 photon still
    free in [b2 - d, b2], from a deque of the free ones up to b2. Stream 1
    descending: each b1 takes the latest stream-2 photon still free in
    [b1, b1 + d], likewise. The matched photons of the two sweeps are then
    paired in order.
    """
    def sweep(xs, ys, before):
        matched, free, ys = [], deque(), iter(ys)
        y = next(ys, None)
        for x in xs:
            while y is not None and not before(x, y):
                free.append(y)
                y = next(ys, None)
            while free and abs(x - free[0]) > d:
                free.popleft()
            if free:
                free.popleft()
                matched.append(x)
        return matched

    seconds = sweep(bins2, bins1, lambda b2, b1: b1 > b2)
    firsts = sweep(bins1[::-1], bins2[::-1], lambda b1, b2: b2 < b1)[::-1]
    return [(b1, b2, b2 - b1) for b1, b2 in zip(firsts, seconds)]


def _rmux_rate_direct(streams, s1, s2, gate_rng):
    """One relative-scheme split: two window stages, then the gate."""
    n_bins = streams[0].n_bins
    net1, net2 = DelayNetwork(s1), DelayNetwork(s2)

    def events(a, b):
        kept, _dropped = window_pairs_direct(a.occupied_bins.tolist(),
                                             b.occupied_bins.tolist(),
                                             net1.max_delay, net1)
        return [b2 for _b1, b2, _d in kept]

    quads, _dropped = window_pairs_direct(events(*streams[:2]),
                                          events(*streams[2:]),
                                          net2.max_delay, net2)
    if not quads:
        return 0.0
    accepted = int((gate_rng.random(len(quads)) < BELL_GATE_PROB).sum())
    return accepted / n_bins


def bell_stats_direct(scheme, p1, s_total, n_bins, reps, seed) -> BellStats:
    """BellStats of one scheme at one switch budget, simulated on its own.

    Repetition r samples its four streams from child r of the seed, and
    split i = s1 - 1 draws its gate from the child's i-th spawned seed.
    """
    networks, rate = {"standard": (4, _standard_rate_direct),
                      "rmux": (2, _rmux_rate_direct)}[scheme]
    splits = [(s1, s_total - networks * s1)
              for s1 in range(1, (s_total - 1) // networks + 1)]
    rates = np.zeros((len(splits), reps))
    for r, child in enumerate(np.random.SeedSequence(seed).spawn(reps)):
        streams = [generate_stream(p1, n_bins, int(sd))
                   for sd in child.generate_state(4, dtype=np.uint64)]
        gate_seeds = child.spawn(len(splits))
        for i, (s1, s2) in enumerate(splits):
            gate_rng = np.random.Generator(np.random.PCG64(gate_seeds[i]))
            rates[i, r] = rate(streams, s1, s2, gate_rng)
    means = rates.mean(axis=1)
    best = int(np.argmax(means))
    stderr = (float(rates[best].std(ddof=1) / np.sqrt(reps)) if reps > 1
              else 0.0)
    return BellStats(scheme=scheme, total_switches=s_total,
                     bells_per_bin=float(means[best]), stderr=stderr,
                     best_split=splits[best])


def assignment_matrix_direct(st1, st2, d_max) -> tuple:
    """(WeightMatrix, virtual mask) of two streams, one photon pair at a
    time: cost b2 - b1 where 0 <= b2 - b1 <= min(d_max, n_bins - 1), else
    virtual, and padded square with virtual vertices. The mask is built
    beside the weights, not read from them."""
    bins1, bins2 = st1.occupied_bins, st2.occupied_bins
    d_max = min(d_max, st2.n_bins - 1)
    vw = virtual_weight_for(d_max)
    n = max(bins1.size, bins2.size)
    weights = np.full((n, n), vw, dtype=np.int64)
    mask = np.ones((n, n), dtype=bool)
    for i, b1 in enumerate(bins1.tolist()):
        for j, b2 in enumerate(bins2.tolist()):
            if 0 <= b2 - b1 <= d_max:
                weights[i, j], mask[i, j] = b2 - b1, False
    return WeightMatrix(weights=weights, virtual_weight=vw, row_bins=bins1,
                        col_bins=bins2), mask


def resolve_clashes_direct(m, W, network) -> Matching:
    """The clash repair one step at a time, by its definition.

    Each step scans the current pairs through `network` alone, keeps the
    drop-the-later-pair candidate, marks the pair in the most clashes (the
    last such) virtual and solves again by `solve_assignment`, for at most
    W.n + 1 candidates; the first with the most pairs and then the least
    delay wins.
    """
    if not m.pairs:
        return m
    weights = W.weights.copy()
    current, candidates = sorted(m.pairs), []
    for _ in range(W.n + 1):
        couples = clash_couples(current, network)
        candidates.append(keep_unless_clashing(current, couples)[0])
        if not couples:
            break
        hits = [0] * len(current)
        for j, k in couples:
            hits[j] += 1
            hits[k] += 1
        worst = max(range(len(current)), key=lambda i: (hits[i], i))
        b1, b2, _ = current[worst]
        cell = (W.row_bins.tolist().index(b1), W.col_bins.tolist().index(b2))
        weights[cell] = W.virtual_weight
        row_of_column, _total = solve_assignment(weights)
        current = sorted(
            (int(W.row_bins[r]), int(W.col_bins[c]),
             int(W.col_bins[c] - W.row_bins[r]))
            for c, r in enumerate(row_of_column.tolist())
            if weights[r, c] != W.virtual_weight)
    best = max(candidates, key=lambda pairs: (len(pairs),
                                              -sum(d for _, _, d in pairs)))
    return Matching(best, W.row_bins, W.col_bins, lost=m.pairs)


def discards_direct(bins1, bins2, pairs, lost) -> list:
    """Discard records (bin, stream, reason) by their definition, photon by
    photon: each unmatched photon of stream 1, then of stream 2, in bin
    order, reads "clash" if a `lost` pair held it, else "range" if the
    other stream has a photon in its feasible direction (at or after it for
    stream 1, at or before it for stream 2), else "unpaired"."""
    records = []
    for stream, own, other in (("1", bins1, bins2), ("2", bins2, bins1)):
        side = int(stream) - 1
        for b in sorted(int(x) for x in own):
            if any(pair[side] == b for pair in pairs):
                continue
            if any(pair[side] == b for pair in lost):
                reason = "clash"
            elif any(c >= b if stream == "1" else c <= b for c in other):
                reason = "range"
            else:
                reason = "unpaired"
            records.append((b, stream, reason))
    return records


def metric_row_direct(bins1, bins2, pairs, lost) -> tuple:
    """(matched fraction, clash rate, out-of-range fraction, total weight) of
    one matching, counted from `discards_direct`'s records: paired photons
    over all photons, pairs lost to clashes (half the "clash" records) over
    those plus the kept pairs, "range" records over all photons, and the
    kept pairs' summed delay. A ratio whose base is 0 reads 0."""
    reasons = [r for _b, _stream, r in discards_direct(bins1, bins2, pairs,
                                                        lost)]
    photons, clashed = len(bins1) + len(bins2), reasons.count("clash") // 2

    def ratio(num, den):
        return num / den if den else 0.0

    return (ratio(2 * len(pairs), photons),
            ratio(clashed, len(pairs) + clashed),
            ratio(reasons.count("range"), photons),
            sum(d for _b1, _b2, d in pairs))


def match_direct(st1, st2, network, strategy):
    """(Matching, MatchMetrics) of one strategy on one stream pair.

    realistic runs the window. Both Hungarian strategies start from
    `no_clash_pairs_direct`: hungarian_with_clash repairs it on
    `assignment_matrix_direct` by `resolve_clashes_direct` whether or not
    it clashes, and hungarian_no_clash counts the pairs that
    `route_clashes_direct` drops.
    """
    if strategy == "realistic":
        m = sliding_window_match(st1, st2, network.max_delay, network)
        return m, matching_metrics(m)
    bins1, bins2 = st1.occupied_bins, st2.occupied_bins
    m = Matching(no_clash_pairs_direct(
        bins1.tolist(), bins2.tolist(), min(network.max_delay, st2.n_bins - 1)),
        bins1, bins2)
    if strategy == "hungarian_with_clash":
        W, _mask = assignment_matrix_direct(st1, st2, network.max_delay)
        m = resolve_clashes_direct(m, W, network)
        return m, matching_metrics(m)
    met = matching_metrics(m)
    _records, routed = route_clashes_direct(
        [b1 for b1, _b2, _d in m.pairs], [d for _b1, _b2, d in m.pairs],
        network)
    met.clash_rate = ((len(m.pairs) - len(routed)) / len(m.pairs)
                      if m.pairs else 0.0)
    return m, met


def two_stream_stats_direct(p, s, n_bins, strategy, reps,
                            seed) -> StrategyStats:
    """StrategyStats of one strategy at one switch count, by one
    `match_direct` call per repetition on the streams of child r."""
    network = DelayNetwork(s)
    values = []
    for child in np.random.SeedSequence(seed).spawn(reps):
        st1, st2 = [generate_stream(p, n_bins, int(sd))
                    for sd in child.generate_state(2, dtype=np.uint64)]
        m, met = match_direct(st1, st2, network, strategy)
        values.append((met.matched_fraction, met.clash_rate,
                       met.out_of_range_fraction, m.total_weight))
    matched, clash, oor, weight = map(np.array, zip(*values))
    stderr = (float(matched.std(ddof=1) / np.sqrt(reps)) if reps > 1
              else 0.0)
    return StrategyStats(strategy=strategy, switch_count=s,
                         matched_fraction_mean=float(matched.mean()),
                         matched_fraction_stderr=stderr,
                         clash_rate_mean=float(clash.mean()),
                         out_of_range_mean=float(oor.mean()),
                         total_weight_mean=float(weight.mean()))
