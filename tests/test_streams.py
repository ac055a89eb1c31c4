import numpy as np
import pytest

from rmux.streams import (
    PhotonStream,
    generate_stream,
    occupancy,
    stream_from_bins,
    stream_from_text,
    stream_to_text,
)


def test_zero_probability_gives_empty_stream():
    for seed in (0, 1, 99):
        s = generate_stream(0.0, 100, seed)
        assert s.n_bins == 100
        assert not s.bins.any()
        assert occupancy(s) == 0.0


def test_unit_probability_gives_full_stream():
    for seed in (0, 1, 99):
        s = generate_stream(1.0, 100, seed)
        assert s.bins.all()
        assert occupancy(s) == 1.0


def test_occupancy_direct_count():
    s = stream_from_bins([True, False, False, True])
    assert occupancy(s) == 0.5
    assert list(s.occupied_bins) == [0, 3]


def test_occupancy_statistics_large_stream():
    # Binomial concentration: the seeded draw must land within 3 standard
    # errors of p (sigma = sqrt(p(1-p)/n) = 3e-4 here).
    s = generate_stream(0.1, 10 ** 6, 1)
    assert occupancy(s) == pytest.approx(0.100006, abs=1e-12)
    assert abs(occupancy(s) - 0.1) < 3 * 3e-4


def test_determinism_bit_identical():
    a = generate_stream(0.37, 5000, 123)
    b = generate_stream(0.37, 5000, 123)
    assert np.array_equal(a.bins, b.bins)
    c = generate_stream(0.37, 5000, 124)
    assert not np.array_equal(a.bins, c.bins)


def test_four_sigma_envelope_many_seeds():
    sigma = np.sqrt(0.25 * 0.75 / 20000)
    for seed in range(20):
        s = generate_stream(0.25, 20000, seed)
        assert abs(occupancy(s) - 0.25) < 4 * sigma


def test_input_validation():
    with pytest.raises(ValueError):
        generate_stream(-0.1, 10, 0)
    with pytest.raises(ValueError):
        generate_stream(1.5, 10, 0)
    with pytest.raises(ValueError):
        generate_stream(0.5, 0, 0)


def test_text_round_trip():
    s = generate_stream(0.3, 64, 7)
    text = stream_to_text(s)
    header, bits = text.splitlines()
    assert header == f"p=0.3 seed=7 n=64"
    assert len(bits) == 64
    back = stream_from_text(text)
    assert np.array_equal(back.bins, s.bins)
    assert back.p == s.p and back.seed == s.seed


def test_a_stream_without_bins_is_rejected_by_one_rule():
    # An empty stream used to be written as n=0 and then refused on reading
    # for a missing bit line.
    for make in (lambda: stream_from_bins([]),
                 lambda: PhotonStream(np.zeros(0, dtype=bool), 0.1, 3),
                 lambda: generate_stream(0.5, 0, 0),
                 lambda: stream_from_text("p=0.0 seed=-1 n=0\n\n"),
                 lambda: stream_from_text("p=0.5 seed=1 n=0\n01\n")):
        with pytest.raises(ValueError, match=r"^n_bins must be >= 1, got 0$"):
            make()
    with pytest.raises(ValueError, match="header line and a bit line"):
        stream_from_text("p=0.5 seed=1 n=2\n")


def test_text_rejects_corrupt_input():
    with pytest.raises(ValueError):
        stream_from_text("p=0.5 seed=1 n=4\n01\n")
    with pytest.raises(ValueError):
        stream_from_text("p=0.5 seed=1 n=2\n0x\n")
