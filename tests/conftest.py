import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def forbid_streams(monkeypatch):
    """Make stream sampling fail, under both names the program binds."""
    def no_stream(*args, **kwargs):
        raise AssertionError("stream sampled")

    monkeypatch.setattr("rmux.streams.generate_stream", no_stream)
    monkeypatch.setattr("rmux.mux_sim.generate_stream", no_stream)
