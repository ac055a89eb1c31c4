"""Diamond-lattice percolation under fusion photon loss.

`DiamondLattice` is L^3 unit cells of two sites, the cell's two five-qubit
microclusters, joined by fusions into a coordination-4 diamond graph whose
time axis carries the two spanning faces. `PHOTON_ASSIGNMENT` is the one
description of a unit cell: the lattice's fusion table and the photon loss
classes (`classify_photon`) are derived from it.

A fusion fails by loss with probability `fusion_loss_probability`, which
holds what the relative scheme saves per fusion; otherwise it succeeds
with probability FUSION_SUCCESS_PROB or fails heralded. A failed fusion
makes no bond. A loss discards the fusion's owner, the delayed photon's
microcluster, under the relative scheme, and both of the fusion's
microclusters under the standard scheme, where the loss is not
attributable (`OutcomeSemantics`, whose one knob is a heralded kill
chance). `sample_lattice_state` draws one trial and `spans` checks it;
`percolation_probability` counts spanning trials from the bond-level rows
(`_level_rows`) that the critical-loss sweep also reads. The loss
thresholds and the ancilla-loss frontier
(`loss_threshold`, `loss_thresholds`, `tradeoff_frontier`) read an order
statistic of the trials' critical losses, which `_critical_losses` finds
with the cut pass (`_cut_pass`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FUSION_SUCCESS_PROB = 0.75

SCHEME_RMUX = "rmux"
SCHEME_STANDARD = "standard"

# Which photons each fusion consumes, in the order fusions are numbered
# within a cell: the actively delayed and the passive photon, each by (cell,
# GHZ index, emission label). The delayed photon fixes which microcluster
# is damaged when a loss is attributable; "own"/"x+"/"y+"/"t+" say which
# cell the photon comes from relative to the fusion's home cell.
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
    """Probability that a boosted fusion fails because a photon vanished:
    f_l = 1 - (1 - p_l)^n_lossy * (1 - a_l)^2.

    Every fusion uses a boosted gate with an ancilla Bell pair, whose two
    photons need active synchronization and are lost at rate a_l. The
    relative scheme actively delays one of the fusion's photons
    (n_lossy = 1), the standard scheme both (n_lossy = 2, `lossy_inputs`).
    """
    for name, rate in (("p_l", p_l), ("a_l", a_l)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    if n_lossy not in (1, 2):
        raise ValueError(f"n_lossy must be 1 or 2, got {n_lossy}")
    return 1.0 - (1.0 - p_l) ** n_lossy * (1.0 - a_l) ** 2


@dataclass(frozen=True)
class OutcomeSemantics:
    """How fusion outcomes act on the lattice.

    A heralded failure leaves the bond absent, and a failure by loss
    removes the bond and discards microclusters. Loss damage is
    attributable under the relative scheme, where only the delayed photon
    can have vanished, so only the fusion's owner is discarded; under the
    standard scheme either input may be missing, so both ends are. That
    attribution gap, on top of the smaller f_l, is what the relative
    scheme buys in loss tolerance.

    heralded_site_kill_prob: chance a heralded failure of a
        microcluster-assembly fusion (F_C/F_E/F_D/F_F) leaves that
        microcluster unusable. Default 0 (site retained);
        CALIBRATED_HERALDED_SITE_KILL reproduces the published loss
        thresholds.
    """

    heralded_site_kill_prob: float = 0.0

    def __post_init__(self):
        v = self.heralded_site_kill_prob
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"heralded_site_kill_prob must be in [0, 1], got {v}")


# Calibrated against the published 90%-spanning thresholds at L=10
# (scan over the knob at 400-800 trials/probe): 0.45 lands the relative
# scheme at ~0.071 and the standard scheme at ~0.029 tolerable loss.
CALIBRATED_HERALDED_SITE_KILL = 0.45


def calibrated_semantics() -> OutcomeSemantics:
    """Semantics configuration calibrated against the published thresholds."""
    return OutcomeSemantics(
        heralded_site_kill_prob=CALIBRATED_HERALDED_SITE_KILL)


# Trials per connected-components pass, and a cut sweep's cut rank per
# needed rank: after d of n trials, each scheme's cut is the f* of rank
# about _CUT_RANK * needed * d / n among them.
_BLOCK_TRIALS = 4
_CUT_RANK = 2.0
# A block's graphs: its trials under both schemes.
_BLOCK_GRAPHS = 2 * _BLOCK_TRIALS


class DiamondLattice:
    """L^3-cell diamond lattice with its per-fusion table.

    Cell c holds site (c, 0), assembled from GHZ states 1-3, and site
    (c, 1), from GHZ states 4-6. The transverse axes x and y are periodic;
    the time axis t is open, and its slices t = 0 and t = L-1 are the
    spanning faces. A fusion whose two photons sit on one site assembles
    that microcluster (F_C/F_E for site 0, F_D/F_F for site 1); each other
    fusion is a bond: F_B within the cell, and F_A/F_G/F_H to the x+, y+
    and t+ neighbours.

    The table is derived from PHOTON_ASSIGNMENT. Fusions are numbered
    cell-major (cell x + L*y + L^2*t), in PHOTON_ASSIGNMENT order within a
    cell; the F_H of the last time slice has no partner cell and is
    absent. Each fusion has two ends, the sites of its delayed and passive
    photons: `fusion_owner` is the delayed end, the site a loss damages,
    and `fusion_passive` the other. Fusions whose ends differ make the
    bonds, numbered in fusion order: bond k joins `bond_site_a[k]` (the
    delayed end) to `bond_site_b[k]`. The trial kernels keep bonds in row
    order instead (`row_*`), over face-free union-find nodes.
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
        # The spanning union-find nodes: interior site j is node j - per_slice,
        # and each face is one node, n_inner and n_inner + 1. The kernels
        # hold bonds in row order, sorted by first node as the rows of a
        # sparse graph: row r is bond bonds_by_node[r].
        self.n_inner = self.n_sites - 2 * per_slice
        node = np.arange(self.n_sites) - per_slice
        node[self.face_start_sites] = self.n_inner
        node[self.face_end_sites] = self.n_inner + 1
        nodes = node[[self.bond_site_a, self.bond_site_b]].astype(np.int32)
        self.bonds_by_node = by_node = np.argsort(nodes[0], kind="stable")
        self.row_fusions = self.bond_fusions[by_node]
        self.row_sites = np.stack([self.bond_site_a[by_node],
                                   self.bond_site_b[by_node]])
        # The block-diagonal edge table of _BLOCK_GRAPHS graphs, graph g's
        # nodes offset by g * (n_inner + 2); a block of G graphs is its head.
        offsets = np.arange(_BLOCK_GRAPHS, dtype=np.int32)[:, None]
        self.block_edges = (nodes[:, None, by_node]
                            + offsets * (self.n_inner + 2)).reshape(2, -1)
        self.row_nodes = self.block_edges[:, :self.n_bonds]

    def site_index(self, x, y, t, sub):
        """Index of site `sub` of cell (x, y, t); takes ints or arrays."""
        L = self.L
        return 2 * (x + L * y + L * L * t) + sub


@dataclass
class LatticeState:
    """One sampled configuration: alive sites and present bonds."""

    lattice: DiamondLattice
    site_alive: np.ndarray
    bond_present: np.ndarray


def _fusion_levels(lattice: DiamondLattice, semantics: OutcomeSemantics,
                   rng: np.random.Generator):
    """One trial's draws per fusion (u, v, w_site), as levels.

    Returns (owner, passive, bond): fusion i is lost at fusion loss f iff
    u[i] < f, so row r's bond is present iff f <= bond[r], and a loss
    spares site j iff f <= owner[j] or, under `_site_levels`, f <=
    min(owner[j], passive[j]) (each the least u over j's `site_tables`
    column).

    A heralded assembly failure drawn to kill its owner sets the owner's
    level to -inf. Had the fusion been lost instead, its u would already
    put the owner's level below f, so the site is dead at every f whether
    or not the fusion was lost.

    w_site is read only at a heralded site-kill chance above 0, so at 0 it
    is not drawn (a prefix of the draws, as in `mux_sim._Gates`).
    """
    kills = semantics.heralded_site_kill_prob > 0.0
    u, v, *w = rng.random((3 if kills else 2, lattice.n_fusions))
    owner, passive = np.append(u, np.inf)[lattice.site_tables].min(axis=1)
    if kills:
        killed = (~lattice.fusion_is_bond & (v >= FUSION_SUCCESS_PROB)
                  & (w[0] < semantics.heralded_site_kill_prob))
        owner[lattice.fusion_owner[killed]] = -np.inf
    k = lattice.row_fusions
    bond = np.where(v[k] < FUSION_SUCCESS_PROB, u[k], -np.inf)
    return owner, passive, bond


def _site_levels(scheme: str, owner, passive):
    """Site levels: owner under the relative scheme, min(owner, passive)
    under the standard, where a loss damages both ends."""
    return np.minimum(owner, passive) if lossy_inputs(scheme) == 2 else owner


def sample_lattice_state(lattice: DiamondLattice, scheme: str, p_l: float,
                         a_l: float, semantics: OutcomeSemantics,
                         rng: np.random.Generator) -> LatticeState:
    """Sample every fusion independently and apply the outcome semantics.

    The draws are `_fusion_levels`', whatever the scheme, so runs with the
    same generator state and semantics are coupled: the standard scheme's
    loss events are a superset of the relative scheme's, which makes scheme
    dominance exact per trial.
    """
    f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
    owner, passive, bond = _fusion_levels(lattice, semantics, rng)
    present = np.empty(lattice.n_bonds, dtype=bool)
    present[lattice.bonds_by_node] = bond >= f_l      # rows to bond order
    return LatticeState(lattice, _site_levels(scheme, owner, passive) >= f_l,
                        present)


def _bond_levels(lattice: DiamondLattice, site_level, bond_level, out=None):
    """Highest level at which each row's bond is usable: f <= bond_level[r]
    and f <= site_level at both its ends. On booleans, whether it is usable."""
    a, b = lattice.row_sites
    out = np.minimum(site_level[a], site_level[b], out=out)
    return np.minimum(bond_level, out, out=out)


def _critical_level(lattice: DiamondLattice, level, parent, cut) -> float:
    """Highest level below `cut` at which usable bonds join the faces, or -inf.

    Rows at levels in (-inf, cut) merge from the highest level down into
    the union-find `parent` over `row_nodes`, whose face nodes are
    numbered last and are roots: linking the lower root under the higher
    keeps them roots.
    """
    below = np.flatnonzero((level > -np.inf) & (level < cut))
    order = below[np.argsort(-level[below])]
    n = lattice.n_inner
    for i, (x, y) in enumerate(zip(*lattice.row_nodes[:, order].tolist())):
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
    """Critical levels of G <= _BLOCK_GRAPHS graphs, one per row of `levels`
    (G, n_bonds, row order), each censored at its own cut: +inf where the
    bonds at or above the cut already join the faces, else the exact level.

    One connected-components call over the block-diagonal graph of the
    bonds at or above each cut gives every graph its forest: each node
    under a root of its component, the face components under their face
    node. The sweep then merges only the bonds below the cut, which leaves
    the level at which the faces join unchanged.
    """
    G, m = len(levels), lattice.n_inner + 2
    keep = (levels >= cuts[:, None]).ravel()
    rows, cols = np.compress(keep, lattice.block_edges[:, :keep.size], axis=1)
    n_parts, labels = _connected_components(rows, cols, G * m)
    labels = labels.reshape(G, m)
    f_star = np.full(G, np.inf)
    apart = np.flatnonzero(labels[:, -2] != labels[:, -1])
    lab = labels[apart]
    root = np.empty(n_parts, dtype=np.int64)
    root[lab] = np.arange(m)                    # some member of each
    root[lab[:, -2:]] = (m - 2, m - 1)          # the face nodes
    for g, lab_g in zip(apart.tolist(), lab):
        f_star[g] = _critical_level(lattice, levels[g], root[lab_g].tolist(),
                                    cuts[g])
    return f_star


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


def _spanning(lattice: DiamondLattice, usable) -> np.ndarray:
    """Whether the usable bonds of each row of `usable` (G, n_bonds) join
    the faces: its cut pass at cut 1, with every bond at level 1 or -inf,
    reads +inf."""
    levels = np.where(usable, 1.0, -np.inf)
    return np.isposinf(_cut_pass(lattice, levels, np.ones(len(levels))))


def spans(state: LatticeState) -> bool:
    """Whether a path of present bonds over alive sites joins the faces."""
    lattice = state.lattice
    usable = _bond_levels(lattice, state.site_alive,
                          state.bond_present[lattice.bonds_by_node])
    return bool(_spanning(lattice, usable[None])[0])


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


def _level_rows(lattice, schemes, semantics, seeds, ts, rows):
    """Bond levels (`_bond_levels`) of trials `ts`, one row per (trial,
    scheme), trial-major: trial t draws with `_rng(seeds[t])`, into the
    block buffer `rows` (trials, schemes, n_bonds), refilled in place."""
    for i, t in enumerate(ts):
        owner, passive, bond = _fusion_levels(lattice, semantics,
                                              _rng(seeds[t]))
        for row, scheme in zip(rows[i], schemes):
            _bond_levels(lattice, _site_levels(scheme, owner, passive), bond,
                         out=row)
    return rows[:len(ts)].reshape(-1, lattice.n_bonds)


def percolation_probability(L: int, scheme: str, p_l: float, a_l: float,
                            trials: int, seed: int,
                            semantics: OutcomeSemantics | None = None):
    """Spanning fraction over independent sampled lattices, with stderr.

    Trial t samples with the t-th child of `SeedSequence(seed)`, as
    `sample_lattice_state` would, and spans iff its bonds usable at f_l
    join the faces.
    """
    semantics, lattice, seeds = _trials(L, trials, seed, semantics)
    f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
    rows = np.empty((_BLOCK_TRIALS, 1, lattice.n_bonds))
    spanning = [_spanning(lattice, _level_rows(
        lattice, (scheme,), semantics, seeds,
        range(start, min(start + _BLOCK_TRIALS, trials)), rows) >= f_l)
        for start in range(0, trials, _BLOCK_TRIALS)]
    p_hat = float(np.mean(np.concatenate(spanning)))
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

    A trial's draws are fixed and reach the lattice only through f_l, and
    raising f_l only removes sites and bonds, so spanning is monotone: a
    trial spans iff f_l <= f*, the level at which a union-find sweep over
    the bonds from the highest level down joins the faces (Newman & Ziff,
    PRL 85, 4104 (2000)).

    Trials run in blocks of _BLOCK_TRIALS, one `_cut_pass` a block, each
    trial at its scheme's cut, which `_CUT_RANK` keeps above the `needed`-th
    smallest f*, so only the trials near that rank are swept below their
    cut. Only each row's `needed` (default: all) smallest f* are sure to be
    exact: another entry may read +inf for an f* above them. A censored
    trial whose cut is not above v, the `needed`-th smallest, is drawn
    again and swept at a cut just above v, so that value is the plain
    sweep's, bit for bit.
    """
    semantics, lattice, seeds = _trials(L, trials, seed, semantics)
    needed = trials if needed is None else needed
    # One block's bond levels, trial-major, refilled in place (fewer page faults).
    rows = np.empty((_BLOCK_TRIALS, len(schemes), lattice.n_bonds))

    def sweep(ts):
        """Trials `ts`' f* per scheme (rows), each censored at its bound."""
        levels = _level_rows(lattice, schemes, semantics, seeds, ts, rows)
        return _cut_pass(lattice, levels, bound[:, ts].T.ravel()).reshape(
            -1, len(schemes)).T

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
    # A trial drawn again can only lower v, which adds none to redo: once.
    # Its cut just above v makes every f* <= v exact, and so the new v.
    v = np.partition(f_star, needed - 1, axis=1)[:, needed - 1]
    redo = np.isposinf(f_star) & (bound <= v[:, None])
    np.copyto(bound, np.nextafter(v, np.inf)[:, None], where=redo)
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
    if len(set(schemes)) < len(schemes):    # a block holds each scheme once
        raise ValueError(f"schemes must be distinct, got {tuple(schemes)}")
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
