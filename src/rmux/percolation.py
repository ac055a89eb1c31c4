"""Diamond-lattice percolation under fusion photon loss.

The lattice has L^3 unit cells with two sites per cell, the two
five-qubit microclusters assembled inside the cell: site (c,0) from GHZ
states 1-3 and site (c,1) from GHZ states 4-6. The transverse axes (x, y)
are periodic; the time-slice axis t is open and carries the two spanning
faces t=0 and t=L-1.

`PHOTON_ASSIGNMENT` is the one description of a unit cell. For each of the
cell's eight fusions it names the actively delayed and the passive photon
by (cell offset, GHZ index, emission label), and everything else is
derived from it. A photon sits on the site given by its cell and its
microcluster. A fusion whose two photons sit on one site assembles that
microcluster (F_C/F_E for site 0, F_D/F_F for site 1); each other fusion
is a bond between its two sites: F_B within the cell, F_A/F_G/F_H to the
x+, y+ and t+ neighbors, a coordination-4 diamond graph. The photon loss
classes follow as well: delayed photons are type C, passive photons type
B, and the two photons no fusion consumes stay in the cluster (type A).

Every fusion uses a boosted gate: success probability 3/4 when no photon
is lost, plus an ancilla Bell pair whose photons are lossy at rate a_l
because they need active synchronization. Under the relative scheme
exactly one photon per fusion is actively delayed (loss rate p_l); under
the standard scheme both fusion photons pass through switching networks.
The per-fusion loss probability is f_l = 1 - (1-p_l)^n_lossy * (1-a_l)^2
with n_lossy = 1 (relative) or 2 (standard).

Outcome semantics are configurable. The defaults: a heralded failure
leaves the bond absent and the sites intact; a failure by loss removes the
bond and damages microclusters. Loss damage is attributable under the
relative scheme (only the delayed photon can have vanished, so only its
microcluster, the fusion's owner, is discarded) but not under the standard
scheme (either input may be missing, so both end microclusters are
discarded). That attribution gap, on top of the smaller f_l, is what the
relative scheme buys in loss tolerance.

Spanning has one routine, the cut pass. A trial's draws are fixed and
reach the lattice only through f_l. With owner damage on, raising f_l
only removes sites and bonds, so spanning is monotone: a trial spans iff
f_l is at most its critical loss f*, the bottleneck level of a union-find
sweep over the bonds from the highest level down (Newman & Ziff, PRL 85,
4104 (2000)), and a threshold is an order statistic of the f*. Without
owner damage, heralded site kills break this (a loss prevents the heralded
kill it replaces), and the threshold functions reject that corner.

Trials run in small blocks. For each, one connected-components call over
the bonds at levels >= a cut c (scipy, in C, imported on first use in
~0.4 s; a block whose cuts are all +inf keeps no bond and skips it) tells
which trials join the faces there: their f* is at least c, and they are
censored. The others run the union-find from that component forest over
the bonds below c only, which gives their exact f*, because
f* is the level at which the faces join, whatever order the bonds above c
merged in. `spans` and `percolation_probability` run it at c = 1, every
bond at level 1 or -inf. A threshold reads one rank of the f*, the
(k+1)-th smallest, so after each block each scheme's c is an f* of about
twice that rank's share among the trials done. A censored trial whose c
is not above the read value is drawn again and swept in full; that value
is then the plain sweep's, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FUSION_SUCCESS_PROB = 0.75

SCHEME_RMUX = "rmux"
SCHEME_STANDARD = "standard"

SUCCESS = "success"
FAIL_HERALDED = "fail_heralded"
FAIL_LOSS = "fail_loss"

# Which photons each fusion consumes, in the order fusions are numbered
# within a cell. The delayed photon fixes which microcluster is damaged
# when a loss is attributable; "own"/"x+"/"y+"/"t+" say which cell the
# photon comes from relative to the fusion's home cell.
PHOTON_ASSIGNMENT = {
    "F_C": {"delayed": ("own", 1, "a"), "passive": ("own", 2, "a")},
    "F_E": {"delayed": ("own", 3, "a"), "passive": ("own", 2, "c")},
    "F_D": {"delayed": ("own", 4, "a"), "passive": ("own", 5, "a")},
    "F_F": {"delayed": ("own", 6, "a"), "passive": ("own", 5, "c")},
    "F_B": {"delayed": ("own", 3, "b"), "passive": ("own", 4, "c")},
    "F_A": {"delayed": ("own", 4, "b"), "passive": ("x+", 1, "c")},
    "F_G": {"delayed": ("own", 6, "b"), "passive": ("y+", 3, "c")},
    "F_H": {"delayed": ("t+", 1, "b"), "passive": ("own", 6, "c")},
}

# (dx, dy, dt) of each cell tag used in PHOTON_ASSIGNMENT.
_CELL_OFFSETS = {"own": (0, 0, 0), "x+": (1, 0, 0), "y+": (0, 1, 0),
                 "t+": (0, 0, 1)}

# Photon-accounting classes: the five fusions consuming only this cell's
# photons (10 photons) versus the three half-shared with neighbors (6).
SITE_FORMING_IDS = tuple(fid for fid, photons in PHOTON_ASSIGNMENT.items()
                         if all(p[0] == "own" for p in photons.values()))
BOND_FORMING_IDS = tuple(fid for fid in PHOTON_ASSIGNMENT
                         if fid not in SITE_FORMING_IDS)

# Type A photons stay in the cluster as data qubits; type B photons are
# fused without active delay; type C photons are fused after active delay.
_PHOTON_TYPE = {(ghz, label): "A" for ghz in range(1, 7) for label in "abc"}
_PHOTON_TYPE.update({photons[role][1:]: kind
                     for photons in PHOTON_ASSIGNMENT.values()
                     for role, kind in (("delayed", "C"), ("passive", "B"))})


def classify_photon(ghz: int, label: str) -> str:
    """Loss class of one unit-cell photon: "A", "B" or "C"."""
    try:
        return _PHOTON_TYPE[(ghz, label)]
    except KeyError:
        raise ValueError(f"unknown photon G{ghz}({label})") from None


def lossy_inputs(scheme: str) -> int:
    """Actively delayed fusion photons per gate: 1 relative, 2 standard."""
    if scheme == SCHEME_RMUX:
        return 1
    if scheme == SCHEME_STANDARD:
        return 2
    raise ValueError(f"unknown scheme {scheme!r}")


def fusion_loss_probability(p_l: float, a_l: float, n_lossy: int) -> float:
    """Probability that a boosted fusion fails because a photon vanished."""
    if not 0.0 <= p_l <= 1.0 or not 0.0 <= a_l <= 1.0:
        raise ValueError("loss rates must be in [0, 1]")
    if n_lossy not in (1, 2):
        raise ValueError(f"n_lossy must be 1 or 2, got {n_lossy}")
    return 1.0 - (1.0 - p_l) ** n_lossy * (1.0 - a_l) ** 2


@dataclass(frozen=True)
class OutcomeSemantics:
    """How fusion outcomes act on the lattice.

    heralded_bond_connect_prob: chance a heralded (lossless) bond-fusion
        failure still creates the bond. Default 0: failed fusions connect
        nothing.
    loss_kills_owner_site: a fusion that fails by loss removes the
        microcluster that owned the vanished photon.
    standard_loss_damages_both_ends: under the standard scheme a lost
        photon at a bond fusion cannot be attributed, so both endpoint
        microclusters are discarded. Set False to use owner-only damage for
        both schemes.
    heralded_site_kill_prob: chance a heralded failure of a
        microcluster-assembly fusion (F_C/F_E/F_D/F_F) leaves that
        microcluster unusable. Default 0 (site retained); the calibrated
        preset raises it to reproduce the published loss thresholds.
    """

    heralded_bond_connect_prob: float = 0.0
    loss_kills_owner_site: bool = True
    standard_loss_damages_both_ends: bool = True
    heralded_site_kill_prob: float = 0.0

    def __post_init__(self):
        for name in ("heralded_bond_connect_prob", "heralded_site_kill_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


# Calibrated against the published 90%-spanning thresholds at L=10
# (scan over the knob at 400-800 trials/probe): 0.45 lands the relative
# scheme at ~0.071 and the standard scheme at ~0.029 tolerable loss.
CALIBRATED_HERALDED_SITE_KILL = 0.45


def calibrated_semantics() -> OutcomeSemantics:
    """Semantics configuration calibrated against the published thresholds."""
    return OutcomeSemantics(
        heralded_site_kill_prob=CALIBRATED_HERALDED_SITE_KILL)


class DiamondLattice:
    """L^3-cell diamond lattice with its per-fusion table.

    The table is derived from PHOTON_ASSIGNMENT. Fusions are numbered
    cell-major (cell x + L*y + L^2*t), in PHOTON_ASSIGNMENT order within a
    cell; the F_H of the last time slice has no partner cell and is
    absent. Each fusion has two ends, the sites of its delayed and passive
    photons: `fusion_owner` is the delayed end, the site a loss damages,
    and `fusion_passive` the other. Fusions whose ends differ make the
    bonds, numbered in fusion order: bond k joins `bond_site_a[k]` (the
    delayed end) to `bond_site_b[k]`.
    """

    def __init__(self, L: int):
        _check_L(L)
        self.L = L
        self.n_cells = L ** 3
        self.n_sites = 2 * self.n_cells
        cell = np.arange(self.n_cells, dtype=np.int64)[:, None]
        x, y, t = cell % L, cell // L % L, cell // (L * L)
        exists = np.ones((self.n_cells, len(PHOTON_ASSIGNMENT)), dtype=bool)
        ends = []
        for role in ("delayed", "passive"):
            tags, ghz, _labels = zip(*(photons[role] for photons
                                       in PHOTON_ASSIGNMENT.values()))
            dx, dy, dt = np.array([_CELL_OFFSETS[tag] for tag in tags]).T
            exists &= t + dt < L        # the time axis is open
            sub = (np.array(ghz) - 1) // 3
            ends.append(self.site_index((x + dx) % L, (y + dy) % L, t + dt,
                                        sub))
        self.fusion_owner, self.fusion_passive = (e[exists] for e in ends)
        self.fusion_is_bond = self.fusion_owner != self.fusion_passive
        self.n_fusions = self.fusion_owner.size
        self.bond_fusions = np.flatnonzero(self.fusion_is_bond)   # bond k's fusion
        self.bond_site_a = self.fusion_owner[self.bond_fusions]
        self.bond_site_b = self.fusion_passive[self.bond_fusions]
        self.n_bonds = self.bond_site_a.size
        # Column j of site_tables[0] ([1]): the fusions site j owns (is passive in)
        self.site_tables = np.full((2, 4, self.n_sites), self.n_fusions)
        for table, e in zip(self.site_tables, (self.fusion_owner, self.fusion_passive)):
            order = np.argsort(e, kind="stable")
            site = e[order]
            table[np.arange(site.size) - np.searchsorted(site, site), site] = order
        per_slice = 2 * L * L
        self.face_start_sites = np.arange(per_slice)
        self.face_end_sites = np.arange(self.n_sites - per_slice, self.n_sites)
        # The bonds' ends as spanning union-find nodes: the sites, with each
        # face's sites merged into a node of its own, numbered last; and the
        # bonds sorted by their first node, the row order of a sparse graph.
        node = np.arange(self.n_sites)
        node[self.face_start_sites], node[self.face_end_sites] = self.n_sites, self.n_sites + 1
        self.bond_nodes = node[[self.bond_site_a, self.bond_site_b]].astype(np.int32)
        self.bonds_by_node = np.argsort(self.bond_nodes[0], kind="stable")

    def site_index(self, x, y, t, sub):
        """Index of site `sub` of cell (x, y, t); takes ints or arrays."""
        L = self.L
        return 2 * (x + L * y + L * L * t) + sub


@dataclass
class LatticeState:
    """One sampled configuration: alive sites, present bonds, outcome tally."""

    lattice: DiamondLattice
    site_alive: np.ndarray
    bond_present: np.ndarray
    outcome_counts: dict = field(default_factory=dict)


def _fusion_levels(lattice: DiamondLattice, semantics: OutcomeSemantics,
                   rng: np.random.Generator):
    """One trial's draws per fusion (u, v, w_site, w_bond), as levels.

    Returns (u, v, owner, passive, bond, killed): at fusion loss f, fusion i
    is lost iff u[i] < f, bond k is present iff f <= bond[k], a loss spares
    site j iff f <= owner[j] or, under `_site_levels`, f <= min(owner[j],
    passive[j]) (each the least u over j's `site_tables` column), and a
    `killed` assembly fusion kills its owner iff it is not lost.

    w_bond is read only at a heralded bond-connect chance above 0, and
    w_site only at a heralded site-kill chance above 0, so the trailing rows
    no reader needs are not drawn: a generator's first draws do not depend
    on how many follow.
    """
    rows = (4 if semantics.heralded_bond_connect_prob > 0.0 else
            3 if semantics.heralded_site_kill_prob > 0.0 else 2)
    u, v, *w = rng.random((rows, lattice.n_fusions))
    owner, passive = np.full((2, lattice.n_sites), np.inf)
    if semantics.loss_kills_owner_site:
        owner, passive = np.append(u, np.inf)[lattice.site_tables].min(axis=1)
    killed = np.zeros(lattice.n_fusions, dtype=bool)
    if rows > 2:
        killed = (~lattice.fusion_is_bond & (v >= FUSION_SUCCESS_PROB)
                  & (w[0] < semantics.heralded_site_kill_prob))
    k = lattice.bond_fusions
    connects = v[k] < FUSION_SUCCESS_PROB
    if rows == 4:
        connects |= w[1][k] < semantics.heralded_bond_connect_prob
    bond = np.where(connects, u[k], -np.inf)
    return u, v, owner, passive, bond, killed


def _site_levels(scheme: str, semantics: OutcomeSemantics, owner, passive):
    """Site levels: min(owner, passive) if a loss damages both ends, else owner."""
    both = lossy_inputs(scheme) == 2 and semantics.standard_loss_damages_both_ends
    return np.minimum(owner, passive) if both else owner


def sample_lattice_state(lattice: DiamondLattice, scheme: str, p_l: float,
                         a_l: float, semantics: OutcomeSemantics,
                         rng: np.random.Generator) -> LatticeState:
    """Sample every fusion independently and apply the outcome semantics.

    The draws are `_fusion_levels`' (two to four uniform draws per fusion,
    as the semantics read them, whatever the scheme), so runs with the same
    generator state and semantics are coupled: the standard scheme's loss
    events are a superset of the relative scheme's, which makes scheme
    dominance exact per trial.
    """
    f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
    u, v, owner, passive, bond, killed = _fusion_levels(lattice, semantics, rng)
    loss = u < f_l
    success = ~loss & (v < FUSION_SUCCESS_PROB)
    site_alive = _site_levels(scheme, semantics, owner, passive) >= f_l
    site_alive[lattice.fusion_owner[killed & ~loss]] = False
    counts = {SUCCESS: int(success.sum()),
              FAIL_HERALDED: int((~loss & ~success).sum()),
              FAIL_LOSS: int(loss.sum())}
    return LatticeState(lattice=lattice, site_alive=site_alive,
                        bond_present=bond >= f_l, outcome_counts=counts)


def _bond_levels(lattice: DiamondLattice, site_level, bond_level):
    """Highest level at which each bond is usable: f <= bond_level[k] and
    f <= site_level at both its ends."""
    a, b = lattice.bond_site_a, lattice.bond_site_b
    return np.minimum(bond_level, np.minimum(site_level[a], site_level[b]))


def _critical_level(lattice: DiamondLattice, level, parent, cut) -> float:
    """Highest level below `cut` at which usable bonds join the faces, or -inf.

    Bonds at levels in (-inf, cut) merge from the highest level down into
    the union-find `parent` over `bond_nodes`, whose face nodes are
    numbered last and are roots: linking the lower root under the higher
    keeps them roots.
    """
    below = np.flatnonzero((level > -np.inf) & (level < cut))
    order = below[np.argsort(-level[below])]
    n = lattice.n_sites
    for i, (x, y) in enumerate(zip(*lattice.bond_nodes[:, order].tolist())):
        while parent[x] != x:                   # path halving
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x > y:
            x, y = y, x
        if n <= x < y:                          # the two face nodes
            return float(level[order[i]])
        parent[x] = y
    return -np.inf


def _cut_pass(lattice: DiamondLattice, levels, cuts):
    """Critical levels of G graphs, one per row of `levels` (G, n_bonds),
    each censored at its own cut: +inf where the bonds at or above the cut
    already join the faces, else the exact level.

    One connected-components call over the block-diagonal graph of the
    bonds at or above each cut gives every graph its forest: each node
    under a root of its component, the face components under their face
    node. The sweep then merges only the bonds below the cut, which leaves
    the level at which the faces join unchanged.
    """
    G, m = len(levels), lattice.n_sites + 2
    by_node = lattice.bonds_by_node
    nodes = lattice.bond_nodes[:, by_node]
    kept = np.take(levels >= cuts[:, None], by_node, axis=1)
    rows, cols = np.concatenate([np.compress(keep, nodes, axis=1) + g * m
                                 for g, keep in enumerate(kept)], axis=1)
    n_parts, labels = _connected_components(rows, cols, G * m)
    labels = labels.reshape(G, m)
    root = np.empty(n_parts, dtype=np.int64)
    root[labels] = np.arange(m)                 # some member of each
    root[labels[:, -2:]] = (m - 2, m - 1)       # the face nodes
    return np.array([
        np.inf if lab[-2] == lab[-1]
        else _critical_level(lattice, level, root[lab].tolist(), cut)
        for level, lab, cut in zip(levels, labels, cuts)])


def _connected_components(rows, cols, size):
    """(count, labels) of the components of the undirected graph on `size`
    nodes with an edge from each of `rows` (ascending) to `cols`."""
    if not rows.size:       # scipy's answer: every node its own component
        return size, np.arange(size, dtype=np.int32)
    # Lazy: scipy.sparse takes ~0.4 s to import, which `import rmux` skips.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    indptr = np.zeros(size + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=size), out=indptr[1:])
    graph = csr_matrix((np.ones(rows.size), cols, indptr), shape=(size, size))
    return connected_components(graph, directed=False)


def _spanning(lattice: DiamondLattice, states) -> np.ndarray:
    """Whether each state spans: its cut pass at cut 1 reads +inf."""
    levels = np.array([_bond_levels(
        lattice, np.where(st.site_alive, 1.0, -np.inf),
        np.where(st.bond_present, 1.0, -np.inf)) for st in states])
    return np.isposinf(_cut_pass(lattice, levels, np.ones(len(levels))))


def spans(state: LatticeState) -> bool:
    """Whether a path of present bonds over alive sites joins the faces."""
    return bool(_spanning(state.lattice, [state])[0])


def _check_L(L) -> None:
    if L < 2:
        raise ValueError(f"lattice needs L >= 2 cells per axis, got {L}")


def _check_trials(trials) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


def _trials(L, trials, seed, semantics):
    """(semantics, lattice, trial seeds) for the trial loops."""
    _check_trials(trials)
    lattice = DiamondLattice(L)
    return (semantics or OutcomeSemantics(), lattice,
            np.random.SeedSequence(seed).spawn(trials))


def _rng(trial_seed) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(trial_seed))


# Trials per connected-components pass, and a cut sweep's cut rank per
# needed rank: after d of n trials, each scheme's cut is the f* of rank
# about _CUT_RANK * needed * d / n among them.
_BLOCK_TRIALS = 4
_CUT_RANK = 2.0


def percolation_probability(L: int, scheme: str, p_l: float, a_l: float,
                            trials: int, seed: int,
                            semantics: OutcomeSemantics | None = None):
    """Spanning fraction over independent sampled lattices, with stderr.

    Trial t samples with the t-th child of `SeedSequence(seed)`.
    """
    semantics, lattice, seeds = _trials(L, trials, seed, semantics)
    p_hat = float(np.mean(np.concatenate([_spanning(lattice, [
        sample_lattice_state(lattice, scheme, p_l, a_l, semantics, _rng(s))
        for s in seeds[start:start + _BLOCK_TRIALS]])
        for start in range(0, trials, _BLOCK_TRIALS)])))
    return p_hat, float(np.sqrt(p_hat * (1.0 - p_hat) / trials))


def critical_losses(L: int, scheme: str, trials: int, seed: int,
                    semantics: OutcomeSemantics | None = None) -> np.ndarray:
    """Each trial's critical fusion loss f*: trial t spans at f iff f <= f*[t]
    (never if f* = -inf). Trial t draws as in `percolation_probability`, so
    the count of f* >= f_l is that function's hit count at f_l."""
    return _critical_losses(L, (scheme,), trials, seed, semantics)[0]


def _critical_losses(L, schemes, trials, seed, semantics,
                     needed=None) -> np.ndarray:
    """`critical_losses` per scheme (rows), all from each trial's one draw.

    Only each row's `needed` (default: all) smallest f* are sure to be
    exact: another entry may read +inf for an f* above them (the
    `needed`-th smallest of every row is that of the exact f*).
    """
    semantics, lattice, seeds = _trials(L, trials, seed, semantics)
    if (not semantics.loss_kills_owner_site
            and semantics.heralded_site_kill_prob > 0.0):
        raise ValueError("spanning is not monotone in loss with loss_kills_"
                         "owner_site=False and heralded_site_kill_prob > 0")
    needed = trials if needed is None else needed
    # One block's bond levels, trial-major, refilled in place (fewer page faults).
    rows = np.empty((_BLOCK_TRIALS, len(schemes), lattice.n_bonds))

    def sweep(ts):
        """Trials `ts`' f* per scheme (rows), each censored at its bound."""
        for i, t in enumerate(ts):
            owner, passive, bond, killed = _fusion_levels(
                lattice, semantics, _rng(seeds[t]))[2:]
            owner[lattice.fusion_owner[killed]] = -np.inf   # dead, lost or not
            rows[i] = [_bond_levels(lattice, _site_levels(
                scheme, semantics, owner, passive), bond) for scheme in schemes]
        return _cut_pass(lattice, rows[:len(ts)].reshape(-1, lattice.n_bonds),
                         bound[:, ts].T.ravel()).reshape(-1, len(schemes)).T

    # An f* at or above its block's cut is stored as +inf, with the cut as
    # its bound. A cut stays +inf while its rank exceeds the trials done.
    f_star = np.empty((len(schemes), trials))
    bound, cuts = np.full_like(f_star, np.inf), np.full(len(schemes), np.inf)
    for start in range(0, trials, _BLOCK_TRIALS):
        done = min(start + _BLOCK_TRIALS, trials)
        bound[:, start:done] = cuts[:, None]
        f_star[:, start:done] = sweep(range(start, done))
        rank = int(np.ceil(_CUT_RANK * needed * done / trials))
        if rank <= done:
            cuts = np.partition(f_star[:, :done], rank - 1, axis=1)[:, rank - 1]
    # Exactness: censored f* with bounds not above the needed-th smallest
    # are drawn again and swept uncensored, which can only lower it: once.
    v = np.partition(f_star, needed - 1, axis=1)[:, needed - 1]
    redo = np.isposinf(f_star) & (bound <= v[:, None])
    bound[redo] = np.inf
    redo = np.flatnonzero(redo.any(axis=0))
    for start in range(0, redo.size, _BLOCK_TRIALS):
        block = redo[start:start + _BLOCK_TRIALS]
        f_star[:, block] = sweep(block)
    return f_star


def loss_thresholds(schemes, target, a_l_values, L, trials, seed, semantics,
                    equal_ancilla_loss=False) -> np.ndarray:
    """`loss_threshold` per scheme (rows) and a_l from one pass: the k-th
    largest f*, k the least rank with k/trials >= target, mapped through
    f_l(p_l, a_l)."""
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    _check_trials(trials)   # before the rank is read from no trials
    ancilla = np.asarray(a_l_values, dtype=float) * (not equal_ancilla_loss)
    # f_l at zero photon loss by scheme and a_l: checks a_l before any trial.
    floors = [[fusion_loss_probability(0.0, a, lossy_inputs(scheme))
               for a in ancilla] for scheme in schemes]
    k = trials - 1 - np.argmax(np.arange(1, trials + 1) / trials >= target)
    f_star = np.sort(_critical_losses(L, schemes, trials, seed, semantics,
                                      needed=k + 1))
    rows = []
    for scheme, f, floor in zip(schemes, f_star[:, k], floors):
        for a_l, f_zero in zip(a_l_values, floor):
            if not f >= f_zero:
                raise ValueError(f"lattice does not reach target {target} even at "
                                 f"zero loss (scheme={scheme}, a_l={a_l}, L={L})")
        n = lossy_inputs(scheme) + 2 * equal_ancilla_loss
        rows.append(1.0 - ((1.0 - f) / (1.0 - ancilla) ** 2) ** (1.0 / n))
    return np.array(rows)


def loss_threshold(scheme: str, target: float, a_l: float, L: int,
                   trials: int, seed: int,
                   semantics: OutcomeSemantics | None = None,
                   equal_ancilla_loss: bool = False) -> float:
    """Photon-loss rate at which the spanning fraction crosses `target`:
    with the same seed, `percolation_probability` is >= target just below
    it and < target just above. Raises if below target at zero loss. With
    equal_ancilla_loss the ancilla photons are lost at the same rate (a_l
    is ignored), the variant quoted for fully lossy switching."""
    return float(loss_thresholds((scheme,), target, [a_l], L, trials, seed,
                             semantics, equal_ancilla_loss)[0, 0])


@dataclass(frozen=True)
class FrontierResult:
    points: tuple                # ((a_l, p_l_threshold), ...)
    slope: float
    intercept: float
    residuals: tuple


def tradeoff_frontier(scheme: str, target: float, a_l_grid, L: int,
                      trials: int, seed: int,
                      semantics: OutcomeSemantics | None = None
                      ) -> FrontierResult:
    """Loss-threshold frontier over ancilla-loss values, with a linear fit:
    one pass, and point i equals `loss_threshold` at a_l_grid[i], same seed."""
    xs = np.array(a_l_grid, dtype=float)
    if np.unique(xs).size < 2:
        raise ValueError("a_l grid needs at least two distinct values, got "
                         f"{xs.tolist()}")
    ys = loss_thresholds((scheme,), target, xs, L, trials, seed, semantics)[0]
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return FrontierResult(points=tuple(zip(xs.tolist(), ys.tolist())),
                          slope=float(slope), intercept=float(intercept),
                          residuals=tuple(residuals.tolist()))
