import pytest

from rmux.mux_analytics import ghz_report, required_repetitions, unused_potential


def test_repetitions_reference_points():
    assert required_repetitions(0.1, 0.99) == 44
    assert required_repetitions(1 / 32, 0.99) == 146
    assert required_repetitions(0.5, 0.5) == 1
    assert required_repetitions(1.0, 0.99) == 1


def test_repetitions_validation():
    with pytest.raises(ValueError):
        required_repetitions(0.0, 0.9)
    with pytest.raises(ValueError):
        required_repetitions(0.5, 1.0)
    with pytest.raises(ValueError):
        required_repetitions(0.5, 0.0)


def test_repetitions_consistency_bracket():
    # returned k is the first that clears the target
    for eta in (0.003, 0.02, 0.1, 0.31, 0.5, 0.9):
        for p_s in (0.5, 0.8, 0.93, 0.99, 0.999):
            k = required_repetitions(eta, p_s)
            assert 1.0 - (1.0 - eta) ** k >= p_s
            if k > 1:
                assert 1.0 - (1.0 - eta) ** (k - 1) < p_s


def test_repetitions_monotonicity():
    etas = [0.01, 0.05, 0.1, 0.3, 0.6, 0.9]
    for p_s in (0.9, 0.99):
        ks = [required_repetitions(e, p_s) for e in etas]
        assert ks == sorted(ks, reverse=True)
    targets = [0.5, 0.9, 0.99, 0.999]
    ks = [required_repetitions(0.1, p) for p in targets]
    assert ks == sorted(ks)


def test_ghz_report_reference_row():
    r = ghz_report(0.1, 0.99, 0.99)
    s1, s2 = r.stages
    assert (s1.k, s1.k_up, s1.depth) == (44, 64, 7)
    assert s1.potential_mean == pytest.approx(6.4)
    assert (s2.k, s2.k_up, s2.depth) == (146, 256, 9)
    assert s2.potential_mean == pytest.approx(8.0)
    assert r.combined_prob == pytest.approx(0.99 ** 7)
    assert r.combined_prob == pytest.approx(0.9321, abs=1e-4)
    assert r.combined_depth == 16
    assert r.bins_per_stream == 16384
    assert r.total_bins == 98304
    assert r.potential_photons_mean == pytest.approx(9830.4)
    assert r.potential_ghz_mean == pytest.approx(51.2)


def test_ghz_report_deterministic_source_limit():
    r = ghz_report(1.0, 0.999999, 0.999999)
    assert r.stages[0].k_up == 1
    # with one bin per attempt the surplus collapses to the gate statistics
    assert r.potential_ghz_mean == pytest.approx(
        r.stages[1].k_up / 32, rel=1e-12)


def test_unused_potential_lands_on_reference_point():
    p1, p2, wasted, k1, k2 = unused_potential(0.1, 0.93)
    assert (p1, p2) == (0.99, 0.99)
    assert (k1, k2) == (64, 256)
    assert wasted == pytest.approx(51.2 - 1.0)


def test_unused_potential_bin_anchors():
    for eta, expect in [(0.1, 9.8e4), (0.01, 7.9e5), (0.001, 1.3e7)]:
        _, _, _, k1, k2 = unused_potential(eta, 0.93)
        total = k1 * k2 * 6
        assert abs(total - expect) <= 0.05 * expect


def test_unused_potential_infeasible_target():
    with pytest.raises(ValueError):
        unused_potential(0.1, 0.95)        # above 0.99^7 on the default grid
