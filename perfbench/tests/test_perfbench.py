"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better)
        for name, (unit, better, _moves) in tracing.PER_LAYER.items()}


def test_missing_hook_fails_loudly_and_patches_nothing():
    from rmux import matching, mux_sim
    original = mux_sim.hungarian_min_assignment
    hooks = (("matching", "hungarian_min_assignment"), ("matching", "no_such_function"))
    with pytest.raises(tracing.HookError, match="no_such_function"):
        with tracing.Tracer(hooks):
            pass
    assert mux_sim.hungarian_min_assignment is original
    assert matching.hungarian_min_assignment is original


def test_hooks_reach_every_binding_and_are_removed():
    from rmux import matching, mux_sim
    original = matching.hungarian_min_assignment
    with tracing.Tracer():
        assert mux_sim.hungarian_min_assignment is matching.hungarian_min_assignment
        assert mux_sim.hungarian_min_assignment is not original
    assert mux_sim.hungarian_min_assignment is original


def test_speed_reference_times_slices_apart_from_the_workload(tmp_path):
    workload = WORKLOADS["match_sweep"]
    ref = speed.SpeedReference(workload.boundaries)
    _bundle, wall = run.run_recipe(workload, workload.parameters(1.0), 7,
                                   tmp_path, ref)
    assert ref.slices > 2
    assert 0 < ref.wall < wall
    assert ref.wall + ref.slice_wall > wall * 0.9
    scaled_wall, scaled_cpu = ref.scaled()
    assert scaled_wall == pytest.approx(ref.wall * ref.speed_factor())
    assert ref.speed_factor() == pytest.approx(
        speed.REFERENCE_SLICE_S / (ref.slice_wall / ref.slices))
    assert scaled_cpu > 0
    from rmux import streams
    assert streams.generate_stream.__name__ == "generate_stream"
    assert not hasattr(streams.generate_stream, "__wrapped__")


def test_missing_boundary_fails_loudly():
    with pytest.raises(tracing.HookError, match="no_such_function"):
        with speed.SpeedReference((("streams", "no_such_function"),)):
            pass


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    workload = WORKLOADS[name]
    params = workload.parameters(0.0)          # smallest batch
    counts = []
    for attempt in range(2):
        tracer = tracing.Tracer()
        run.run_recipe(workload, params, 7, tmp_path / str(attempt), tracer)
        values = tracer.metrics(1.0, 1.0)
        counts.append({k: v for k, v in values.items()
                       if tracing.PER_LAYER[k][0] in ("count", "frac")
                       and not k.startswith("trace.")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "match_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
