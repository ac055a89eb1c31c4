"""Seeded probabilistic photon streams.

A stream models a heralded single-photon source firing once per time bin:
each bin is occupied independently with probability p, and heralding makes
the occupancy pattern classically known. Randomness comes from numpy's
PCG64 generator, so a (p, n_bins, seed) triple regenerates the exact same
stream on any platform. Bin 0 is the earliest bin; delay lines only ever
move photons toward larger indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PhotonStream:
    """Occupancy record of one heralded source over a run of time bins."""

    bins: np.ndarray          # bool array, index 0 = earliest bin
    p: float                  # per-bin emission probability
    seed: int                 # RNG seed used (or -1 for derived streams)
    _occupied: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        bins = np.asarray(self.bins, dtype=bool)
        _check_n_bins(bins.size)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "_occupied", np.flatnonzero(bins))

    @property
    def n_bins(self) -> int:
        return self.bins.size

    @property
    def occupied_bins(self) -> np.ndarray:
        """Sorted indices of occupied bins."""
        return self._occupied

    @property
    def photon_count(self) -> int:
        return self._occupied.size


def _check_n_bins(n_bins: int):
    """The one rule on stream length: a stream holds at least one bin."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")


def generate_stream(p: float, n_bins: int, seed: int) -> PhotonStream:
    """Sample a stream of n_bins i.i.d. Bernoulli(p) occupancies.

    Deterministic for a given (p, n_bins, seed): the generator is PCG64
    and each bin is occupied when the next uniform draw is < p.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"emission probability must be in [0, 1], got {p}")
    _check_n_bins(n_bins)
    rng = np.random.Generator(np.random.PCG64(seed))
    bins = rng.random(n_bins) < p
    return PhotonStream(bins=bins, p=p, seed=seed)


def stream_from_bins(bins) -> PhotonStream:
    """Wrap an explicit occupancy pattern (e.g. a derived event stream)."""
    return PhotonStream(bins=np.asarray(bins, dtype=bool), p=0.0, seed=-1)


def occupancy(stream: PhotonStream) -> float:
    """Fraction of bins occupied."""
    return stream.photon_count / stream.n_bins


def stream_to_text(stream: PhotonStream) -> str:
    """Serialize to the line-oriented fixture format.

    Header line ``p=<float> seed=<int> n=<int>`` followed by one line of
    '0'/'1' characters, earliest bin first.
    """
    header = f"p={stream.p!r} seed={stream.seed} n={stream.n_bins}"
    body = "".join("1" if b else "0" for b in stream.bins)
    return header + "\n" + body + "\n"


def stream_from_text(text: str) -> PhotonStream:
    """Parse the format produced by :func:`stream_to_text`."""
    lines = [ln for ln in text.splitlines() if ln.strip()] or [""]
    fields = dict(item.partition("=")[::2] for item in lines[0].split())
    values = []
    for key, kind in (("p", float), ("seed", int), ("n", int)):
        try:
            values.append(kind(fields[key]))
        except (KeyError, ValueError):
            raise ValueError(f"stream header needs {key}=<{kind.__name__}>, "
                             f"got {lines[0]!r}") from None
    p, seed, n = values
    _check_n_bins(n)
    if len(lines) != 2:
        raise ValueError("stream text must have a header line and a bit line")
    bits = lines[1].strip()
    if len(bits) != n or set(bits) - {"0", "1"}:
        raise ValueError("bit line does not match header length or has bad characters")
    bins = np.frombuffer(bits.encode("ascii"), dtype=np.uint8) == ord("1")
    return PhotonStream(bins=bins, p=p, seed=seed)
