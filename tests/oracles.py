"""Independent reference implementations the fast code is checked against.

These deliberately avoid the production shortcuts: the routing oracle
enumerates every per-photon rail sequence instead of using the binary
decomposition, the assignment oracle tries all n! permutations, the
spanning oracle is a breadth-first path search instead of union-find, and
the lattice-state oracle applies each outcome rule to the fusions at one
loss rate instead of thresholding per-site and per-bond loss levels.
"""

import itertools
from collections import deque

import numpy as np


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
    """(site_alive, bond_present, (successes, heralded, losses)) of one trial.

    Takes the same four uniform draws per fusion as the program, in the
    same order (u, v, w_site, w_bond), and applies the outcome semantics
    rule by rule at fusion-loss probability f_l.
    """
    n = lattice.n_fusions
    u, v, w_site, w_bond = (rng.random(n) for _ in range(4))
    loss = u < f_l
    success = ~loss & (v < 0.75)
    heralded = ~loss & ~success
    alive = np.ones(lattice.n_sites, dtype=bool)
    if semantics.loss_kills_owner_site:
        alive[lattice.fusion_owner[loss]] = False
        if scheme == "standard" and semantics.standard_loss_damages_both_ends:
            alive[lattice.fusion_passive[loss]] = False
    killed = (heralded & ~lattice.fusion_is_bond
              & (w_site < semantics.heralded_site_kill_prob))
    alive[lattice.fusion_owner[killed]] = False
    connected = success | (heralded
                           & (w_bond < semantics.heralded_bond_connect_prob))
    counts = (int(success.sum()), int(heralded.sum()), int(loss.sum()))
    return alive, connected[lattice.fusion_is_bond], counts
