import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oracles import (critical_losses_direct, cut_pass_direct,
                     sample_state_direct, spans_bfs)
from rmux import percolation
from rmux.experiments import ExperimentConfig, run_experiment
from rmux.percolation import (
    BOND_FORMING_IDS,
    PHOTON_ASSIGNMENT,
    SITE_FORMING_IDS,
    DiamondLattice,
    LatticeState,
    OutcomeSemantics,
    calibrated_semantics,
    classify_photon,
    critical_losses,
    fusion_loss_probability,
    loss_threshold,
    lossy_inputs,
    percolation_probability,
    sample_lattice_state,
    spans,
    tradeoff_frontier,
)

# ---------------------------------------------------------------- typing


def test_classify_reference_photons():
    assert classify_photon(2, "b") == "A"
    assert classify_photon(2, "a") == "B"
    assert classify_photon(1, "a") == "C"


def test_classify_full_census():
    counts = {"A": 0, "B": 0, "C": 0}
    for ghz in range(1, 7):
        for label in "abc":
            counts[classify_photon(ghz, label)] += 1
    assert counts == {"A": 2, "B": 8, "C": 8}


def test_classify_rejects_unknown():
    with pytest.raises(ValueError):
        classify_photon(7, "a")
    with pytest.raises(ValueError):
        classify_photon(1, "d")


def test_photon_classes_literal_map():
    # written out by hand, independently of PHOTON_ASSIGNMENT, from which
    # classify_photon is derived
    expected = {
        (1, "a"): "C", (1, "b"): "C", (1, "c"): "B",
        (2, "a"): "B", (2, "b"): "A", (2, "c"): "B",
        (3, "a"): "C", (3, "b"): "C", (3, "c"): "B",
        (4, "a"): "C", (4, "b"): "C", (4, "c"): "B",
        (5, "a"): "B", (5, "b"): "A", (5, "c"): "B",
        (6, "a"): "C", (6, "b"): "C", (6, "c"): "B",
    }
    assert {(g, l): classify_photon(g, l)
            for g in range(1, 7) for l in "abc"} == expected


def test_photon_assignment_is_one_delayed_one_passive():
    # every fusion consumes exactly one actively-delayed (type C) photon
    # and one passive (type B) photon
    consumed_here = []
    exported = []
    for fid, photons in PHOTON_ASSIGNMENT.items():
        cell_d, ghz_d, lab_d = photons["delayed"]
        cell_p, ghz_p, lab_p = photons["passive"]
        assert classify_photon(ghz_d, lab_d) == "C"
        assert classify_photon(ghz_p, lab_p) == "B"
        for cell, ghz, lab in (photons["delayed"], photons["passive"]):
            (consumed_here if cell == "own" else exported).append((ghz, lab))
    # tiling: the 13 photons consumed by this cell's fusions plus the 3
    # handed to neighbor fusions cover all 8 type-C and 8 type-B photons
    # exactly once (each exported slot is filled by the mirror neighbor)
    assert len(consumed_here) == 13
    assert len(exported) == 3
    census = consumed_here + exported
    assert len(set(census)) == 16
    assert {classify_photon(g, l) for g, l in census} == {"B", "C"}


def test_photon_accounting_per_cell():
    # five cell-local fusions consume 10 photons; three shared fusions
    # consume 6 halves
    assert set(SITE_FORMING_IDS) == {"F_B", "F_C", "F_D", "F_E", "F_F"}
    assert set(BOND_FORMING_IDS) == {"F_A", "F_G", "F_H"}
    local = sum(2 for fid in SITE_FORMING_IDS
                if all(v[0] == "own" for v in PHOTON_ASSIGNMENT[fid].values()))
    assert local == 10
    shared = sum(1 for fid in BOND_FORMING_IDS
                 for v in PHOTON_ASSIGNMENT[fid].values() if v[0] == "own")
    assert shared == 3       # plus 3 contributed to neighbors' fusions


# ------------------------------------------------------------ loss model

def test_fusion_loss_probability_values():
    assert fusion_loss_probability(0.0, 0.0, 1) == 0.0
    assert fusion_loss_probability(0.0, 0.0, 2) == 0.0
    assert fusion_loss_probability(0.07, 0.0, 1) == pytest.approx(0.07)
    assert fusion_loss_probability(0.02, 0.01, 1) == pytest.approx(0.039502)
    assert fusion_loss_probability(0.02, 0.01, 2) == pytest.approx(
        1 - 0.98 ** 2 * 0.99 ** 2)


def test_fusion_loss_probability_validation():
    with pytest.raises(ValueError):
        fusion_loss_probability(-0.1, 0.0, 1)
    with pytest.raises(ValueError):
        fusion_loss_probability(0.1, 0.0, 3)
    assert lossy_inputs("rmux") == 1
    assert lossy_inputs("standard") == 2
    with pytest.raises(ValueError):
        lossy_inputs("other")


def test_semantics_validation():
    with pytest.raises(ValueError):
        OutcomeSemantics(heralded_site_kill_prob=-0.1)


# ---------------------------------------------------------------- lattice

def test_lattice_counts():
    lat = DiamondLattice(2)
    assert lat.n_sites == 16
    assert lat.n_bonds == 4 * 8 - 4          # 4L^3 - L^2
    assert lat.n_fusions == 4 * 8 + lat.n_bonds
    lat4 = DiamondLattice(4)
    assert lat4.n_bonds == 4 * 64 - 16
    with pytest.raises(ValueError):
        DiamondLattice(1)


def test_interior_coordination_number_is_four():
    lat = DiamondLattice(4)
    deg = np.zeros(lat.n_sites, dtype=int)
    for a, b in zip(lat.bond_site_a, lat.bond_site_b):
        deg[a] += 1
        deg[b] += 1
    t_slice = np.arange(lat.n_sites) // 2 // 16
    interior = (t_slice > 0) & (t_slice < 3)
    assert set(deg[interior].tolist()) == {4}


def test_owner_balance():
    # each site is the loss-damage owner of exactly four fusions (two
    # assembly fusions plus two bond fusions), except at the open boundary
    lat = DiamondLattice(4)
    counts = np.bincount(lat.fusion_owner, minlength=lat.n_sites)
    t_slice = np.arange(lat.n_sites) // 2 // 16
    interior = (t_slice > 0) & (t_slice < 3)
    assert set(counts[interior].tolist()) == {4}


# sha256 of fusion_owner and of each bond's sorted end pair (both as
# little-endian int64, in bond order), from the hand-written cell loop the
# table was first built with. Fusion i consumes RNG draw i, so a reordered
# table would shift every sampled lattice.
_PINNED_TABLES = {
    3: (207, "a61ff9073d38f376eb9724a087687bd8a305e003f820f6e20cafe5e398063956",
        "ef97a4385eb4bb44a25e671813fc12bd397038be7f66b17172fab2f0c725fc2e"),
    4: (496, "8130beea2163b68fabca60529ffef1317e64ae49096ee9c9eedbb53d9c275d7b",
        "739914b2f75c89767657ca39efedce19c25bdeec41849d1b93fd32739858b8eb"),
}


@pytest.mark.parametrize("L", sorted(_PINNED_TABLES))
def test_fusion_table_order_is_pinned(L):
    lat = DiamondLattice(L)
    n_fusions, owner_digest, bonds_digest = _PINNED_TABLES[L]
    pairs = np.sort(np.stack([lat.bond_site_a, lat.bond_site_b], axis=1),
                    axis=1)

    def digest(a):
        return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()

    assert lat.n_fusions == n_fusions
    assert digest(lat.fusion_owner) == owner_digest
    assert digest(pairs) == bonds_digest


@pytest.mark.parametrize("L", [2, 3, 5])
def test_site_tables_list_the_fusions_each_site_owns(L):
    lat = DiamondLattice(L)
    for table, ends in zip(lat.site_tables, (lat.fusion_owner,
                                             lat.fusion_passive)):
        assert table.shape == (4, lat.n_sites)
        for j in range(lat.n_sites):
            column = table[:, j].tolist()
            fusions = [f for f in column if f != lat.n_fusions]
            assert fusions == np.flatnonzero(ends == j).tolist(), j
        # every site has 4 fusions at each end but L^2 sites, which have 3
        padded = (table == lat.n_fusions).sum(axis=0)
        assert np.bincount(padded).tolist() == [lat.n_sites - L * L, L * L]


def test_fusion_ends_of_explicit_cells():
    # (delayed end, passive end) per fusion, in the order F_C F_E F_D F_F
    # F_B F_A F_G F_H; sites of GHZ 1-3 are sub 0, of GHZ 4-6 sub 1
    lat = DiamondLattice(3)
    ends = list(zip(lat.fusion_owner.tolist(), lat.fusion_passive.tolist()))
    s = lat.site_index
    # cell (2, 0, 1) = cell 11: x = L-1, so F_A wraps to x = 0
    c0, c1 = s(2, 0, 1, 0), s(2, 0, 1, 1)
    assert ends[8 * 11:8 * 12] == [
        (c0, c0), (c0, c0), (c1, c1), (c1, c1),
        (c0, c1),
        (c1, s(0, 0, 1, 0)),
        (c1, s(2, 1, 1, 0)),
        (s(2, 0, 2, 0), c1),
    ]
    # cell (1, 2, 2) = cell 25 on the last slice: F_G wraps to y = 0 and
    # F_H is absent; 18 cells of 8 fusions and 7 of 7 come before it
    start = 18 * 8 + 7 * 7
    c0, c1 = s(1, 2, 2, 0), s(1, 2, 2, 1)
    assert ends[start:start + 8] == [
        (c0, c0), (c0, c0), (c1, c1), (c1, c1),
        (c0, c1),
        (c1, s(2, 2, 2, 0)),
        (c1, s(1, 0, 2, 0)),
        (s(2, 2, 2, 0), s(2, 2, 2, 0)),     # F_C of cell 26
    ]
    assert lat.n_fusions == 27 * 8 - 9


# --------------------------------------------------------------- sampling

def test_zero_loss_state_default_semantics():
    lat = DiamondLattice(10)
    rng = np.random.Generator(np.random.PCG64(42))
    st = sample_lattice_state(lat, "rmux", 0.0, 0.0, OutcomeSemantics(), rng)
    assert st.site_alive.all()
    # bond density within 3 sigma of the boosted-gate success rate
    sigma = np.sqrt(0.75 * 0.25 / lat.n_bonds)
    assert abs(st.bond_present.mean() - 0.75) < 3 * sigma


def test_total_loss_state():
    lat = DiamondLattice(4)
    rng = np.random.Generator(np.random.PCG64(1))
    st = sample_lattice_state(lat, "standard", 1.0, 0.0, OutcomeSemantics(),
                              rng)
    assert not st.bond_present.any()
    assert not st.site_alive.any()


@pytest.mark.parametrize("sem", [
    OutcomeSemantics(),
    calibrated_semantics(),
    # a heralded kill hits the owner only, even where a loss damages both ends
    OutcomeSemantics(heralded_site_kill_prob=0.2),
    # every heralded assembly failure kills its owner
    OutcomeSemantics(heralded_site_kill_prob=1.0),
], ids=["default", "calibrated", "owner_only", "kill_all"])
@pytest.mark.parametrize("scheme", ["rmux", "standard"])
def test_sampled_state_matches_direct_rules(scheme, sem):
    # the sampler thresholds per-site and per-bond loss levels; the oracle
    # applies each outcome rule to the fusions directly. Where sites can be
    # killed, some killed fusions are lost (u < f_l) and some are not.
    lat, sides = DiamondLattice(4), set()
    for t, (p_l, a_l) in enumerate([(0.0, 0.0), (0.03, 0.01), (0.1, 0.0),
                                    (0.3, 0.05), (1.0, 0.0)]):
        st = sample_lattice_state(lat, scheme, p_l, a_l, sem,
                                  np.random.Generator(np.random.PCG64(t)))
        f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
        alive, present = sample_state_direct(
            lat, scheme, f_l, sem, np.random.Generator(np.random.PCG64(t)))
        assert np.array_equal(st.site_alive, alive)
        assert np.array_equal(st.bond_present, present)
        u, v, w_site = np.random.Generator(np.random.PCG64(t)).random(
            (3, lat.n_fusions))
        killed = (~lat.fusion_is_bond & (v >= 0.75)
                  & (w_site < sem.heralded_site_kill_prob))
        sides.update((u[killed] < f_l).tolist())
    assert sides == ({True, False} if sem.heralded_site_kill_prob > 0
                     else set())


@pytest.mark.parametrize("sem, rows", [
    (OutcomeSemantics(), 2),
    (calibrated_semantics(), 3),
], ids=["default", "calibrated"])
def test_trials_draw_only_the_rows_their_semantics_read(monkeypatch, sem,
                                                         rows):
    # rows (u, v, w_site), w_site only for heralded site kills. The oracle
    # draws all three rows per fusion.
    lat, shapes = DiamondLattice(4), []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            shapes.append(shape)
            return self.rng.random(shape)

    make = percolation._rng
    monkeypatch.setattr(percolation, "_rng", lambda s: Recording(make(s)))
    f_star = critical_losses(4, "standard", 12, 3, sem)
    percolation_probability(4, "rmux", 0.05, 0.0, 12, 3, sem)
    assert shapes == [(rows, lat.n_fusions)] * 24
    assert f_star.tolist() == critical_losses_direct(4, "standard", 12, 3,
                                                     sem).tolist()


class _FixedDraws:
    """Stands in for a generator whose every uniform draw is `value`."""

    def __init__(self, value):
        self.value = value

    def random(self, shape):
        return np.full(shape, self.value)


def test_loss_boundary_is_inclusive():
    # a fusion is lost iff u < f_l, so at u == f_l = 0.5 nothing is lost
    # and every fusion succeeds (v = 0.5 < 3/4)
    lat = DiamondLattice(3)
    st = sample_lattice_state(lat, "rmux", 0.5, 0.0, OutcomeSemantics(),
                              _FixedDraws(0.5))
    assert st.site_alive.all() and st.bond_present.all() and spans(st)
    alive, present = sample_state_direct(lat, "rmux", 0.5,
                                         OutcomeSemantics(), _FixedDraws(0.5))
    assert alive.all() and present.all()


def test_sampling_determinism():
    lat = DiamondLattice(4)
    a = sample_lattice_state(lat, "rmux", 0.05, 0.01, OutcomeSemantics(),
                             np.random.Generator(np.random.PCG64(9)))
    b = sample_lattice_state(lat, "rmux", 0.05, 0.01, OutcomeSemantics(),
                             np.random.Generator(np.random.PCG64(9)))
    assert np.array_equal(a.site_alive, b.site_alive)
    assert np.array_equal(a.bond_present, b.bond_present)


# --------------------------------------------------------------- spanning

def _empty_state(lat):
    return LatticeState(lattice=lat,
                        site_alive=np.ones(lat.n_sites, dtype=bool),
                        bond_present=np.zeros(lat.n_bonds, dtype=bool))


def test_spans_all_on_and_all_off():
    lat = DiamondLattice(3)
    st = _empty_state(lat)
    st.bond_present[:] = True
    assert spans(st)
    st.bond_present[:] = False
    assert not spans(st)


def test_spans_single_chain_2x2x2():
    lat = DiamondLattice(2)
    st = _empty_state(lat)
    s0 = lat.site_index(0, 0, 0, 0)
    s1 = lat.site_index(0, 0, 0, 1)
    s2 = lat.site_index(0, 0, 1, 0)
    st.site_alive[:] = False
    st.site_alive[[s0, s1, s2]] = True
    chain = []
    for i, (a, b) in enumerate(zip(lat.bond_site_a, lat.bond_site_b)):
        if {a, b} in ({s0, s1}, {s1, s2}):
            chain.append(i)
    assert len(chain) == 2
    st.bond_present[chain] = True
    assert spans(st)
    st.bond_present[chain[1]] = False    # break the inter-slice link
    assert not spans(st)


def test_spans_requires_alive_endpoints():
    lat = DiamondLattice(2)
    st = _empty_state(lat)
    st.bond_present[:] = True
    st.site_alive[lat.face_start_sites] = False
    assert not spans(st)


def test_union_find_matches_bfs_oracle_on_16_site_lattices():
    lat = DiamondLattice(2)
    rng = np.random.default_rng(77)
    for _ in range(300):
        st = _empty_state(lat)
        st.site_alive[:] = rng.random(lat.n_sites) < rng.uniform(0.3, 1.0)
        st.bond_present[:] = rng.random(lat.n_bonds) < rng.uniform(0.2, 1.0)
        assert spans(st) == spans_bfs(st)
    # and on sampled physical states
    for t in range(60):
        g = np.random.Generator(np.random.PCG64(t))
        st = sample_lattice_state(lat, "standard", 0.15, 0.05,
                                  calibrated_semantics(), g)
        assert spans(st) == spans_bfs(st)


@pytest.mark.parametrize("semantics", [OutcomeSemantics(),
                                       calibrated_semantics()],
                         ids=["default", "calibrated"])
@pytest.mark.parametrize("scheme", ["rmux", "standard"])
def test_union_find_matches_bfs_oracle_on_sampled_L6_lattices(scheme,
                                                               semantics):
    lat = DiamondLattice(6)
    outcomes = set()
    for t in range(60):
        g = np.random.Generator(np.random.PCG64(t))
        st = sample_lattice_state(lat, scheme, 0.005 * (t % 40), 0.0,
                                  semantics, g)
        got = spans(st)
        assert got == spans_bfs(st), t
        outcomes.add(got)
    assert outcomes == {True, False}


@pytest.mark.parametrize("L", [2, 3, 4])
def test_spanning_nodes_number_the_interior_then_each_face(L):
    lat = DiamondLattice(L)
    node_of = {}
    for sites, nodes in zip(lat.row_sites.T.tolist(),
                            lat.row_nodes.T.tolist()):
        for site, node in zip(sites, nodes):
            assert node_of.setdefault(site, node) == node
    n_inner = 2 * L * L * (L - 2)
    assert lat.n_inner == n_inner and len(node_of) == lat.n_sites
    start, end = lat.face_start_sites.tolist(), lat.face_end_sites.tolist()
    assert {node_of[j] for j in start} == {n_inner}
    assert {node_of[j] for j in end} == {n_inner + 1}
    interior = set(range(lat.n_sites)) - set(start) - set(end)
    assert sorted(node_of[j] for j in interior) == list(range(n_inner))
    # row r is bond bonds_by_node[r]
    by_node = lat.bonds_by_node
    np.testing.assert_array_equal(lat.row_sites, [lat.bond_site_a[by_node],
                                                  lat.bond_site_b[by_node]])
    np.testing.assert_array_equal(lat.row_fusions, lat.bond_fusions[by_node])
    # the block table: each graph's rows, offset, its row column ascending
    table = lat.block_edges
    assert (np.diff(table[0]) >= 0).all()
    blocks = np.split(table, percolation._BLOCK_GRAPHS, axis=1)
    for g, block in enumerate(blocks):
        np.testing.assert_array_equal(block, lat.row_nodes + g * (n_inner + 2))


@pytest.mark.parametrize("G", range(1, 9))
@pytest.mark.parametrize("L", [2, 3])
def test_cut_pass_equals_the_per_graph_union_find(L, G):
    lat = DiamondLattice(L)
    rng = np.random.default_rng(10 * L + G)
    seen = set()
    for rep in range(6):
        # Few distinct levels, so ties are common; graphs alternate between
        # few and most bonds unusable, so most span and most do not.
        levels = rng.choice([0.1, 0.2, 0.3, 0.5], size=(G, lat.n_bonds))
        unusable = np.where((np.arange(G) + rep) % 2, 0.85, 0.2)[:, None]
        levels[rng.random(levels.shape) < unusable] = -np.inf
        if rep % 2:     # distinct levels
            levels = np.where(levels > -np.inf,
                              rng.random(levels.shape), -np.inf)
        exact = cut_pass_direct(lat, levels, np.full(G, np.inf))
        # Cuts of -inf and +inf, at f* (censored), just above it (exact),
        # above every level (no bond kept) and at a tied level.
        options = [(-np.inf, np.inf, f, np.nextafter(f, np.inf), 2.0, 0.2)
                   for f in exact]
        cuts = np.array([opts[(g + rep) % 6]
                         for g, opts in enumerate(options)])
        got = percolation._cut_pass(lat, levels[:, lat.bonds_by_node], cuts)
        want = cut_pass_direct(lat, levels, cuts)
        assert got.tolist() == want.tolist()
        seen.update(np.sign(want[np.isfinite(want)]).tolist())
        seen.update(want[~np.isfinite(want)].tolist())
    assert {np.inf, -np.inf, 1.0} <= seen


# ------------------------------------------------------------ estimation

def test_lossless_lattice_percolates():
    for sem in (OutcomeSemantics(), calibrated_semantics()):
        est, _ = percolation_probability(8, "rmux", 0.0, 0.0, 120, 17,
                                         semantics=sem)
        assert est >= 0.99


def test_spanning_fraction_builds_no_lattice_state(monkeypatch):
    # The trials reach the cut pass as bond-level rows, as the critical-loss
    # sweep draws them: no state is sampled, and trial t spans iff f* >= f_l.
    def refuse(*args, **kwargs):
        raise AssertionError("a LatticeState was built")

    monkeypatch.setattr(percolation, "sample_lattice_state", refuse)
    monkeypatch.setattr(percolation, "LatticeState", refuse)
    sem = calibrated_semantics()
    f_star = critical_losses(6, "standard", 37, 3, sem)
    f_l = fusion_loss_probability(0.03, 0.01, 2)
    p_hat, _ = percolation_probability(6, "standard", 0.03, 0.01, 37, 3, sem)
    assert 0.0 < p_hat < 1.0
    assert p_hat == np.count_nonzero(f_star >= f_l) / 37


def test_full_loss_never_percolates():
    est, _ = percolation_probability(4, "rmux", 1.0, 0.0, 50, 3)
    assert est == 0.0


def test_percolation_monotone_in_loss():
    prev = None
    for p_l in (0.0, 0.04, 0.08, 0.12):
        est, err = percolation_probability(8, "rmux", p_l, 0.0, 250, 23,
                                           semantics=calibrated_semantics())
        if prev is not None:
            assert est <= prev[0] + 2 * (err + prev[1])
        prev = (est, err)


def test_scheme_dominance_per_coupled_trial():
    # identical generator state: the standard scheme's damage is a superset,
    # so whenever the standard lattice spans the relative one must too
    lat = DiamondLattice(6)
    sem = calibrated_semantics()
    for t in range(40):
        seed = np.random.SeedSequence(500 + t)
        st_r = sample_lattice_state(lat, "rmux", 0.05, 0.01, sem,
                                    np.random.Generator(np.random.PCG64(seed)))
        st_s = sample_lattice_state(lat, "standard", 0.05, 0.01, sem,
                                    np.random.Generator(np.random.PCG64(seed)))
        assert np.all(st_s.site_alive <= st_r.site_alive)
        assert np.all(st_s.bond_present <= st_r.bond_present)
        if spans(st_s):
            assert spans(st_r)


def test_threshold_unreachable_target_raises():
    sem = OutcomeSemantics(heralded_site_kill_prob=0.95)
    with pytest.raises(ValueError):
        loss_threshold("rmux", 0.9, 0.0, 4, trials=60, seed=1, semantics=sem)


def test_threshold_smoke_small_lattice():
    thr = loss_threshold("rmux", 0.9, 0.0, 6, trials=150, seed=11,
                         semantics=calibrated_semantics())
    assert 0.02 < thr < 0.15


def test_threshold_equal_loss_consistency():
    # fully lossy switching: ancilla photons scanned at the photon rate;
    # the standard scheme then lands near the quoted 1.6% tolerable loss
    thr = loss_threshold("standard", 0.9, 0.0, 10, trials=600, seed=13,
                         semantics=calibrated_semantics(),
                         equal_ancilla_loss=True)
    assert abs(thr - 0.016) <= 0.015


# ------------------------------------------------------ critical losses

_SEMANTICS_CASES = {
    "default": OutcomeSemantics(),
    "calibrated": calibrated_semantics(),
    # a heralded kill hits the owner only, even where a loss damages both ends
    "owner_only": OutcomeSemantics(heralded_site_kill_prob=0.2),
    "kill_all": OutcomeSemantics(heralded_site_kill_prob=1.0),
}


@pytest.mark.parametrize("sem_name", sorted(_SEMANTICS_CASES))
@pytest.mark.parametrize("L", [2, 3, 4, 6])
def test_shared_pass_equals_per_scheme_oracle(L, sem_name):
    # one draw per trial for both schemes, site levels gathered from the
    # fusion tables, against a pass per scheme that scatters with
    # np.minimum.at and runs a plain union-find: bitwise equal
    sem = _SEMANTICS_CASES[sem_name]
    both = percolation._critical_losses(L, ("rmux", "standard"), 40, 19, sem)
    assert both.shape == (2, 40)
    for row, scheme in zip(both, ("rmux", "standard")):
        expected = critical_losses_direct(L, scheme, 40, 19, sem)
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(
            critical_losses(L, scheme, 40, 19, sem), expected)
    assert np.isfinite(both).any() and (both[1] <= both[0]).all()


@pytest.mark.parametrize("sem_name", sorted(_SEMANTICS_CASES))
@pytest.mark.parametrize("scheme", ["rmux", "standard"])
@pytest.mark.parametrize("L, trials", [(4, 60), (6, 40), (10, 12)])
def test_critical_loss_count_equals_spanning_fraction(L, trials, scheme,
                                                      sem_name):
    # the spans path (checked against BFS above) is the oracle: trial t
    # spans at f_l exactly when f_l <= f*[t]
    sem = _SEMANTICS_CASES[sem_name]
    f_star = critical_losses(L, scheme, trials, 11, sem)
    assert f_star.shape == (trials,)
    for a_l in (0.0, 0.01):
        for p_l in (0.0, 0.03, 0.07, 0.15):
            f_l = fusion_loss_probability(p_l, a_l, lossy_inputs(scheme))
            p_hat, _ = percolation_probability(L, scheme, p_l, a_l, trials,
                                               11, sem)
            assert np.count_nonzero(f_star >= f_l) / trials == p_hat, (a_l,
                                                                        p_l)


@pytest.mark.parametrize("sem", _SEMANTICS_CASES.values(),
                         ids=list(_SEMANTICS_CASES))
@pytest.mark.parametrize("scheme", ["rmux", "standard"])
def test_spanning_fraction_equals_the_bfs_count(scheme, sem):
    # the blocked cut pass against a path search over each trial's sampled
    # lattice, same child seeds; 1, 5 and 37 trials end in partial blocks
    lat, mixed = DiamondLattice(4), False
    for trials in (1, 5, 37):
        seeds = np.random.SeedSequence(29).spawn(trials)
        for p_l in (0.0, 0.08, 0.15, 0.4):
            hits = sum(spans_bfs(sample_lattice_state(
                lat, scheme, p_l, 0.0, sem,
                np.random.Generator(np.random.PCG64(s)))) for s in seeds)
            p_hat, _ = percolation_probability(4, scheme, p_l, 0.0, trials,
                                               29, sem)
            assert p_hat == hits / trials, (trials, p_l)
            mixed |= 0 < hits < trials
    assert mixed


@pytest.mark.parametrize("sem_name", ["default", "calibrated"])
@pytest.mark.parametrize("trials", [1, 7, 41])
def test_every_critical_loss_is_exact_in_partial_blocks(trials, sem_name):
    # every f* is read, so no cut censors any: none is +inf, and a last
    # block shorter than the rest changes nothing
    sem = _SEMANTICS_CASES[sem_name]
    for scheme in ("rmux", "standard"):
        got = critical_losses(5, scheme, trials, 23, sem)
        assert not np.isposinf(got).any()
        np.testing.assert_array_equal(
            got, critical_losses_direct(5, scheme, trials, 23, sem))


def _plain_sorted(L, trials, seed, sem):
    """Each scheme's `critical_losses`, every trial swept in full, sorted."""
    return np.sort([critical_losses(L, scheme, trials, seed, sem)
                    for scheme in ("rmux", "standard")])


def _read_rank(trials, target):
    """The rank of the f* `loss_thresholds` reads, counted from 0."""
    return trials - 1 - np.argmax(np.arange(1, trials + 1) / trials >= target)


# At a kill chance of 0.3 (L=6, seed 5, target 0.5) the standard scheme's
# 1 - (1 - f) ** 0.5 differs by 1 ulp between a Python float, which calls
# libm pow, and a numpy array, which takes a sqrt path.
_CUT_CASES = {**_SEMANTICS_CASES,
              "kill_0.3": OutcomeSemantics(heralded_site_kill_prob=0.3)}


@pytest.mark.parametrize("sem_name", sorted(_CUT_CASES))
@pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
def test_cut_thresholds_equal_the_plain_order_statistic(L, sem_name):
    # the cut sweep computes f* exactly only near the read rank; what
    # loss_thresholds reads is the plain path's k-th smallest f*, mapped
    # to p_l by the same array expression
    sem, trials = _CUT_CASES[sem_name], 60
    for seed in (3, 4, 5):
        plain = _plain_sorted(L, trials, seed, sem)
        for target in (0.5, 0.9, 0.99):
            k = _read_rank(trials, target)
            expected = plain[:, k].tolist()
            cut = np.sort(percolation._critical_losses(
                L, ("rmux", "standard"), trials, seed, sem, needed=k + 1))
            assert cut[:, k].tolist() == expected, (seed, target)
            if min(expected) < 0.0:             # below target at zero loss
                with pytest.raises(ValueError, match="does not reach target"):
                    percolation.loss_thresholds(("rmux", "standard"), target,
                                                [0.0], L, trials, seed, sem)
                continue
            got = percolation.loss_thresholds(("rmux", "standard"), target,
                                              [0.0], L, trials, seed, sem)
            ancilla = np.zeros(1)
            assert got[:, 0].tolist() == [
                (1.0 - ((1.0 - f) / (1.0 - ancilla) ** 2) ** (1.0 / n))[0]
                for f, n in zip(expected, (1, 2))]


def test_cut_below_the_read_rank_redraws_the_trials_it_censored(monkeypatch):
    # a cut under the read rank censors trials the order statistic needs;
    # the exactness gate draws them again and sweeps them at a cut just
    # above the read value
    sem, trials = calibrated_semantics(), 120
    k = _read_rank(trials, 0.9)
    expected = _plain_sorted(6, trials, 8, sem)[:, k].tolist()
    draws = []
    levels = percolation._fusion_levels

    def counting(*args):
        draws.append(args[0].L)
        return levels(*args)

    monkeypatch.setattr(percolation, "_fusion_levels", counting)
    monkeypatch.setattr(percolation, "_CUT_RANK", 0.5)
    cut = np.sort(percolation._critical_losses(
        6, ("rmux", "standard"), trials, 8, sem, needed=k + 1))
    assert cut[:, k].tolist() == expected
    assert len(draws) > trials


@pytest.mark.parametrize("size", [0, 1, 2002])
def test_components_of_a_graph_without_edges_are_scipys(size):
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components
    none = np.empty(0, dtype=np.int64)
    count, labels = percolation._connected_components(none, none, size)
    want_count, want = connected_components(csr_matrix((size, size)),
                                            directed=False)
    assert count == want_count and labels.dtype == want.dtype
    np.testing.assert_array_equal(labels, want)


def test_uncensored_losses_load_no_scipy_sparse():
    # Every cut of public `critical_losses`, and of `loss_thresholds` at
    # target 0.5, stays +inf: its blocks keep no bond, so need no scipy.
    src = str(Path(percolation.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from rmux import percolation as pc; "
            "sem = pc.calibrated_semantics(); "
            "pc.critical_losses(6, 'rmux', 40, 3, sem); "
            "pc.loss_thresholds(('rmux', 'standard'), 0.5, [0.0], 6, 40, 3, "
            "sem); print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_critical_loss_is_the_spanning_edge_per_trial():
    # just below f* the trial's state spans, just above it does not; a
    # trial that never spans has f* = -inf
    lat = DiamondLattice(4)
    sem = OutcomeSemantics(heralded_site_kill_prob=0.8)
    f_star = critical_losses(4, "standard", 40, 5, sem)
    seeds = np.random.SeedSequence(5).spawn(40)
    assert np.isneginf(f_star).any() and np.isfinite(f_star).any()
    for f, seed in zip(f_star.tolist(), seeds):
        def spans_at(f_l):
            # standard scheme, a_l = 0: f_l = 1 - (1 - p_l)^2
            p_l = 1.0 - np.sqrt(1.0 - f_l)
            rng = np.random.Generator(np.random.PCG64(seed))
            return spans(sample_lattice_state(lat, "standard", p_l, 0.0,
                                              sem, rng))
        if f == -np.inf:
            assert not spans_at(0.0)
        else:
            assert spans_at(f * (1 - 1e-9))
            assert not spans_at(f * (1 + 1e-9) + 1e-12)


def test_fig8_draws_each_trial_once_for_both_schemes(monkeypatch, tmp_path):
    calls = []
    levels = percolation._fusion_levels

    def counting(*args):
        calls.append(args[0].L)
        return levels(*args)

    monkeypatch.setattr(percolation, "_fusion_levels", counting)
    run_experiment(ExperimentConfig(
        "fig8_thresholds", {"L": "4", "trials": "30", "finite_size_L": "2,3",
                            "finite_size_trials": "20"}, 5, tmp_path))
    assert len(calls) == 30 + 2 * 20
    assert calls == [4] * 30 + [2] * 20 + [3] * 20


@pytest.mark.parametrize("threshold", [
    lambda: loss_threshold("rmux", 0.9, 0.0, 4, trials=0, seed=1),
    lambda: percolation.loss_thresholds(("rmux", "standard"), 0.9, [0.0],
                                        4, 0, 1, None),
    lambda: tradeoff_frontier("rmux", 0.9, [0.0, 0.01], 4, trials=0, seed=1),
], ids=["loss_threshold", "loss_thresholds", "tradeoff_frontier"])
def test_threshold_with_no_trials_is_rejected_before_sampling(threshold,
                                                              monkeypatch):
    # The rank a threshold reads is found before any trial runs; with no
    # trials there is none, and the trial count is what to name.
    def no_draws(*args, **kwargs):
        raise AssertionError("lattice sampled")

    monkeypatch.setattr("rmux.percolation._fusion_levels", no_draws)
    with pytest.raises(ValueError, match=r"^trials must be >= 1, got 0$"):
        threshold()


@pytest.mark.parametrize("threshold, a_l", [
    (lambda: loss_threshold("rmux", 0.9, 2.0, 4, trials=10, seed=1), 2.0),
    (lambda: percolation.loss_thresholds(("rmux", "standard"), 0.9,
                                         [0.0, -0.1], 4, 10, 1, None), -0.1),
    (lambda: tradeoff_frontier("rmux", 0.9, [0.0, 2.0], 4, trials=10,
                               seed=1), 2.0),
], ids=["loss_threshold", "loss_thresholds", "tradeoff_frontier"])
def test_threshold_with_bad_ancilla_loss_is_rejected_before_sampling(
        threshold, a_l, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("lattice sampled")

    monkeypatch.setattr("rmux.percolation._fusion_levels", no_draws)
    with pytest.raises(ValueError,
                       match=fr"^a_l must be in \[0, 1\], got {a_l}$"):
        threshold()


def test_loss_thresholds_rejects_a_repeated_scheme_before_sampling(
        monkeypatch):
    # A block's edge table holds each of the two schemes' graphs once.
    def no_draws(*args, **kwargs):
        raise AssertionError("lattice sampled")

    monkeypatch.setattr("rmux.percolation._fusion_levels", no_draws)
    with pytest.raises(ValueError, match=r"^schemes must be distinct, got "
                       r"\('rmux', 'standard', 'rmux'\)$"):
        percolation.loss_thresholds(("rmux", "standard", "rmux"), 0.9,
                                    [0.0], 4, 20, 1, None)


def test_threshold_is_the_crossing():
    # same seed: the spanning fraction is >= target just below the
    # returned loss rate and < target just above it
    sem = calibrated_semantics()
    for scheme, a_l, seed in (("rmux", 0.0, 3), ("standard", 0.01, 4)):
        thr = loss_threshold(scheme, 0.9, a_l, 6, trials=120, seed=seed,
                             semantics=sem)
        below, _ = percolation_probability(6, scheme, thr * (1 - 1e-9), a_l,
                                           120, seed, sem)
        above, _ = percolation_probability(6, scheme, thr * (1 + 1e-9), a_l,
                                           120, seed, sem)
        assert below >= 0.9 > above, (scheme, below, above)


def test_threshold_rank_uses_the_spanning_fraction_comparison(monkeypatch):
    # 7/100 >= 0.07 holds, so the 7th largest f* is the threshold; a bare
    # ceil(0.07 * 100) is 8 because 0.07 * 100 = 7.000000000000001
    f_star = np.arange(100) / 1000.0
    monkeypatch.setattr("rmux.percolation._critical_losses",
                        lambda *args, **kwargs: f_star[None])
    thr = loss_threshold("rmux", 0.07, 0.0, 4, trials=100, seed=1)
    assert thr == pytest.approx(0.093, abs=1e-12)


def test_equal_ancilla_loss_round_trips():
    sem = calibrated_semantics()
    f_star = critical_losses(6, "standard", 100, 13, sem)
    f = np.sort(f_star)[100 - 90]
    thr = loss_threshold("standard", 0.9, 0.0, 6, trials=100, seed=13,
                         semantics=sem, equal_ancilla_loss=True)
    assert fusion_loss_probability(thr, thr, 2) == pytest.approx(f, abs=1e-12)


def test_frontier_is_one_fusion_loss_mapped_per_point():
    sem = calibrated_semantics()
    grid = [0.0, 0.01, 0.02]
    frontier = tradeoff_frontier("rmux", 0.9, grid, 6, trials=100, seed=7,
                                 semantics=sem)
    f0 = fusion_loss_probability(frontier.points[0][1], 0.0, 1)
    for a_l, p_l in frontier.points:
        assert fusion_loss_probability(p_l, a_l, 1) == pytest.approx(
            f0, abs=1e-12)
        assert p_l == loss_threshold("rmux", 0.9, a_l, 6, trials=100, seed=7,
                                     semantics=sem)


@pytest.mark.parametrize("grid", [[0.01], [0.01, 0.01]])
def test_frontier_rejects_grid_without_two_distinct_values(grid, monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("lattice sampled")

    monkeypatch.setattr("rmux.percolation._fusion_levels", no_draws)
    with pytest.raises(ValueError, match="two distinct"):
        tradeoff_frontier("rmux", 0.9, grid, 4, trials=10, seed=1)
