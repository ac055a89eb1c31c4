"""Host-speed reference: a fixed computation interleaved with the workload.

The host's speed drifts by up to 2x, in phases from tenths of a second to
minutes long, and CPU time drifts with wall time. So a run interleaves a
short fixed reference computation with the workload: at the entry of a
call of one of the workload's boundary functions (one call per repetition
or per sampled lattice), if ``INTERVAL_S`` has passed since the last slice.
The slices are timed apart from the workload. The workload's times are then
scaled by ``REFERENCE_SLICE_S`` over the mean slice time: the time the run
would take on a host that runs a slice in ``REFERENCE_SLICE_S``.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from tracing import patch, resolve, restore

INTERVAL_S = 0.025
REFERENCE_SLICE_S = 0.0009   # a slice's typical wall time on a 2-core x86 box

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.random(512)
_MATRIX = _RNG.integers(0, 100, size=(40, 40)).astype(float)
_PAIRS = [(i * 7919 % 10007, i) for i in range(1500)]
_SIDE = 16


def reference_slice() -> float:
    """About a millisecond of the kinds of work the workloads do.

    Interpreter arithmetic, dict and sort work on tuples, row-wise numpy
    work on a small matrix (as in an assignment solve) and a breadth-first
    search with Python containers (as in a spanning check).
    """
    total = 0.0
    for i in range(600):
        total += i * i % 7
    table = dict(_PAIRS)
    total += sorted(_PAIRS)[0][0] + len(table)
    total += float(np.argsort(_VECTOR)[0] + np.cumsum(_VECTOR).argmax())
    v = np.zeros(_MATRIX.shape[1])
    for row in _MATRIX:
        reduced = row - v
        j = int(reduced.argmin())
        v[j] += 0.5
        total += reduced[j]
    seen, queue, head = {0}, [0], 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in (x + 1, x - 1, x + _SIDE, x - _SIDE):
            if 0 <= y < _SIDE * _SIDE and y not in seen:
                seen.add(y)
                queue.append(y)
    return total + len(seen)


def mean_slice_s(count: int) -> float:
    """Mean wall time of `count` reference slices run back to back."""
    t0 = time.perf_counter()
    for _ in range(count):
        reference_slice()
    return (time.perf_counter() - t0) / count


class SpeedReference:
    """Times the enclosed workload and the reference slices apart."""

    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.slices = 0
        self.slice_wall = 0.0
        self.slice_cpu = 0.0
        self.wall = 0.0
        self.cpu = 0.0
        self._next = 0.0
        self._patched = []

    def __enter__(self):
        resolved = [resolve(layer, name) for layer, name in self.boundaries]
        for owner, attr, fn in resolved:
            self._patched += patch(owner, attr, fn, self._wrap(fn))
        self._slice()
        self._start = (time.perf_counter(), time.process_time())
        return self

    def __exit__(self, *exc):
        self.wall += time.perf_counter() - self._start[0]
        self.cpu += time.process_time() - self._start[1]
        restore(self._patched)
        self._slice()

    def _slice(self):
        w0, c0 = time.perf_counter(), time.process_time()
        reference_slice()
        w1, c1 = time.perf_counter(), time.process_time()
        self.slices += 1
        self.slice_wall += w1 - w0
        self.slice_cpu += c1 - c0
        self._next = w1 + INTERVAL_S
        return w1 - w0, c1 - c0

    def _wrap(self, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            if time.perf_counter() >= self._next:
                wall, cpu = self._slice()
                self.wall -= wall
                self.cpu -= cpu
            return fn(*args, **kwargs)

        return paced

    def speed_factor(self) -> float:
        """The reference slice time over this run's mean slice time."""
        return REFERENCE_SLICE_S * self.slices / self.slice_wall

    def scaled(self) -> tuple[float, float]:
        """(wall s, cpu s) of the workload at the reference speed."""
        return (self.wall * self.speed_factor(),
                self.cpu * REFERENCE_SLICE_S * self.slices / self.slice_cpu)
