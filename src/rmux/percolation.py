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
SITE_FORMING_IDS = ("F_B", "F_C", "F_D", "F_E", "F_F")
BOND_FORMING_IDS = ("F_A", "F_G", "F_H")

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
        if L < 2:
            raise ValueError(f"lattice needs L >= 2 cells per axis, got {L}")
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
        self.bond_site_a = self.fusion_owner[self.fusion_is_bond]
        self.bond_site_b = self.fusion_passive[self.fusion_is_bond]
        self.n_bonds = self.bond_site_a.size
        per_slice = 2 * L * L
        self.face_start_sites = np.arange(per_slice)
        self.face_end_sites = np.arange(self.n_sites - per_slice, self.n_sites)

    def site_index(self, x, y, t, sub):
        """Index of site `sub` of cell (x, y, t); takes ints or arrays."""
        L = self.L
        return 2 * (x + L * y + L * L * t) + sub


@dataclass
class LatticeState:
    """One sampled configuration: alive sites, present bonds, outcome tally."""

    lattice: DiamondLattice
    scheme: str
    p_l: float
    a_l: float
    semantics: OutcomeSemantics
    site_alive: np.ndarray
    bond_present: np.ndarray
    outcome_counts: dict = field(default_factory=dict)


def sample_lattice_state(lattice: DiamondLattice, scheme: str, p_l: float,
                         a_l: float, semantics: OutcomeSemantics,
                         rng: np.random.Generator) -> LatticeState:
    """Sample every fusion independently and apply the outcome semantics.

    The RNG consumption pattern is fixed (four uniform draws per fusion)
    regardless of scheme or semantics, so runs with the same generator
    state are coupled: the standard scheme's loss events are a superset of
    the relative scheme's, which makes scheme dominance exact per trial.
    """
    f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
    n = lattice.n_fusions
    u = rng.random(n)
    v = rng.random(n)
    w_site = rng.random(n)
    w_bond = rng.random(n)

    loss = u < f_l
    success = ~loss & (v < FUSION_SUCCESS_PROB)
    heralded = ~loss & ~success

    site_alive = np.ones(lattice.n_sites, dtype=bool)
    if semantics.loss_kills_owner_site:
        site_alive[lattice.fusion_owner[loss]] = False
        if scheme == SCHEME_STANDARD and semantics.standard_loss_damages_both_ends:
            site_alive[lattice.fusion_passive[loss]] = False

    r = semantics.heralded_site_kill_prob
    if r > 0.0:
        killed = heralded & ~lattice.fusion_is_bond & (w_site < r)
        site_alive[lattice.fusion_owner[killed]] = False

    connected = success
    q = semantics.heralded_bond_connect_prob
    if q > 0.0:
        connected = success | (heralded & (w_bond < q))
    bond_present = connected[lattice.fusion_is_bond]

    counts = {SUCCESS: int(success.sum()),
              FAIL_HERALDED: int(heralded.sum()),
              FAIL_LOSS: int(loss.sum())}
    return LatticeState(lattice=lattice, scheme=scheme, p_l=p_l, a_l=a_l,
                        semantics=semantics, site_alive=site_alive,
                        bond_present=bond_present, outcome_counts=counts)


def spans(state: LatticeState) -> bool:
    """Union-find spanning check between the two open faces.

    Alive sites are merged along present bonds whose endpoints are both
    alive; the state spans when some component holds an alive site on each
    face. Plain-list union by size with path halving; the DSU is local to
    the call, so trials can run concurrently.
    """
    lat = state.lattice
    alive = state.site_alive
    idx = np.flatnonzero(state.bond_present)
    ends_a = lat.bond_site_a[idx]
    ends_b = lat.bond_site_b[idx]
    ok = alive[ends_a] & alive[ends_b]

    parent = list(range(lat.n_sites))
    size = [1] * lat.n_sites

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]   # path halving
            x = parent[x]
        return x

    for a, b in zip(ends_a[ok].tolist(), ends_b[ok].tolist()):
        ra = find(a)
        rb = find(b)
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]

    start_roots = {find(s) for s in lat.face_start_sites.tolist() if alive[s]}
    if not start_roots:
        return False
    return any(find(s) in start_roots
               for s in lat.face_end_sites.tolist() if alive[s])


def percolation_probability(L: int, scheme: str, p_l: float, a_l: float,
                            trials: int,
                            seed: int | np.random.SeedSequence,
                            semantics: OutcomeSemantics | None = None,
                            lattice: DiamondLattice | None = None):
    """Spanning fraction over independent sampled lattices, with stderr.

    Trial t samples with the t-th child of `seed` (an int or a
    SeedSequence); a prebuilt `lattice` must have `L` cells per axis.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if semantics is None:
        semantics = OutcomeSemantics()
    if lattice is None:
        lattice = DiamondLattice(L)
    elif lattice.L != L:
        raise ValueError(f"lattice has L={lattice.L}, expected L={L}")
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(trials)
    hits = 0
    for child in children:
        rng = np.random.Generator(np.random.PCG64(child))
        state = sample_lattice_state(lattice, scheme, p_l, a_l, semantics, rng)
        if spans(state):
            hits += 1
    p_hat = hits / trials
    stderr = float(np.sqrt(p_hat * (1.0 - p_hat) / trials))
    return p_hat, stderr


def loss_threshold(scheme: str, target: float, a_l: float, L: int,
                   trials: int, tolerance: float, seed: int,
                   semantics: OutcomeSemantics | None = None,
                   equal_ancilla_loss: bool = False) -> float:
    """Bisection for the photon-loss rate where spanning crosses `target`.

    Each probe runs `trials` independent lattices with a probe-specific
    derived seed; raises when the lattice is already below target at zero
    loss. With equal_ancilla_loss the ancilla photons are scanned jointly
    at the same rate as the delayed photons (a_l is ignored), the variant
    quoted for fully lossy switching.
    """
    if not 0.0 < target < 1.0:
        raise ValueError(f"target must be in (0, 1), got {target}")
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be > 0, got {tolerance}")
    if semantics is None:
        semantics = OutcomeSemantics()
    lattice = DiamondLattice(L)
    master = np.random.SeedSequence(seed)

    def prob_at(p_l: float) -> float:
        ancilla = p_l if equal_ancilla_loss else a_l
        p_hat, _stderr = percolation_probability(
            L, scheme, p_l, ancilla, trials, master.spawn(1)[0], semantics,
            lattice)
        return p_hat

    if prob_at(0.0) < target:
        raise ValueError(
            f"lattice does not reach target {target} even at zero loss "
            f"(scheme={scheme}, a_l={a_l}, L={L})")

    lo, hi = 0.0, 0.04
    while prob_at(hi) >= target:
        lo = hi
        hi *= 2.0
        if hi >= 1.0:
            hi = 1.0
            break
    while hi - lo > tolerance:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):     # adjacent floats: the interval cannot shrink
            break
        if prob_at(mid) >= target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class FrontierResult:
    points: tuple                # ((a_l, p_l_threshold), ...)
    slope: float
    intercept: float
    residuals: tuple


def tradeoff_frontier(scheme: str, target: float, a_l_grid, L: int,
                      trials: int, seed: int,
                      semantics: OutcomeSemantics | None = None,
                      tolerance: float = 0.002) -> FrontierResult:
    """Loss-threshold frontier over ancilla-loss values, with a linear fit."""
    a_l_grid = list(a_l_grid)
    if not a_l_grid:
        raise ValueError("a_l grid must be nonempty")
    points = []
    for i, a_l in enumerate(a_l_grid):
        p_star = loss_threshold(scheme, target, a_l, L, trials, tolerance,
                                seed + i, semantics)
        points.append((float(a_l), float(p_star)))
    xs = np.array([a for a, _ in points])
    ys = np.array([p for _, p in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    residuals = ys - (slope * xs + intercept)
    return FrontierResult(points=tuple(points), slope=float(slope),
                          intercept=float(intercept),
                          residuals=tuple(float(r) for r in residuals))
