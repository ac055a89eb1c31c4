"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload match_sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout of the repository: the program is imported
from ``src/``. The workload runs sequentially in this process (a closed
loop with a single caller and no threads): with ``--trace 0`` one timed
recipe run, with ``--trace 1`` one untraced and one traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 5            # fresh processes timed for setup_s
SETUP_PROBE_SLICES = 30     # reference slices each of them runs once ready

from workloads import CONFIRM_SEED, DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB", "pass_frac": "frac"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    return ap.parse_args(argv)


def prepare(args):
    """Set-up: import the program and the benchmark, size the workload."""
    sys.path.insert(0, str(SRC))
    import rmux
    if not Path(rmux.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported rmux from {rmux.__file__}, not from {SRC}")
    import gate  # noqa: F401  (imports scipy)
    import speed  # noqa: F401
    import tracing  # noqa: F401
    from rmux import experiments  # noqa: F401
    workload = WORKLOADS[args.workload]
    return workload, workload.parameters(args.seconds)


def setup_probe(args) -> tuple[float, float]:
    """Time from the start of a fresh process until it is ready to run, and
    the mean time of the reference slices that process runs right after."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline().strip()
        elapsed = time.perf_counter() - t0
        rest = proc.stdout.read().split()
    if proc.returncode != 0 or line != "ready" or len(rest) != 1:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {line!r}")
    return elapsed, float(rest[0])


def run_recipe(workload, params, seed, out_dir, hook=None):
    """One recipe run over the workload's inputs; returns (bundle, wall s)."""
    from rmux import experiments
    config = experiments.ExperimentConfig(workload.experiment, params, seed,
                                          out_dir)
    with hook if hook is not None else contextlib.nullcontext():
        wall0 = time.perf_counter()
        bundle = experiments.run_experiment(config)
        wall = time.perf_counter() - wall0
    return bundle, wall


def files_digest(paths) -> str:
    """sha256 over the names and contents of files, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def repeat_check(key: str, digest: str):
    """Compare with an earlier run of the same seed, code and size, if any."""
    import gate
    cache_path = OUT / "digests.json"
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    earlier = cache.get(key)
    if earlier is None:
        cache[key] = digest
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True))
        os.replace(tmp, cache_path)
        return []
    return [gate.Check("CSV digest repeats an earlier run of this seed",
                       earlier == digest, f"{digest} vs {earlier}")]


def default_digest_match(workload, seed, params, digest):
    """Informational: does the digest match the one stored for the default seed?"""
    path = HERE / "digests.json"
    stored = json.loads(path.read_text()).get(workload.name) if path.exists() else None
    if not stored or stored["seed"] != seed or stored["params"] != params:
        return None
    return stored["sha256"] == digest


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_state():
    if not (ROOT / ".git").exists():
        return "unknown", None
    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return git("rev-parse", "HEAD") or "unknown", bool(git("status", "--porcelain"))


def environment() -> dict:
    import numpy
    import scipy
    rev, dirty = git_state()
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_rev": rev, "git_dirty": dirty}


def workload_checks(workload, params, seed, bundle) -> list:
    """The recipe's own checks, then the gate's checks for the workload."""
    import gate
    checks = [gate.Check(f"recipe: {c.name}", c.passed,
                         f"got {c.value}, expected {c.expected}")
              for c in bundle.checks]
    if workload.name == "match_sweep":
        checks += gate.match_sweep_checks(params, seed)
    elif workload.name == "bell_budget":
        checks += gate.bell_budget_checks(params, seed)
    else:
        with open(bundle.csv_paths[0], newline="") as f:
            rows = list(csv.DictReader(f))
        checks += gate.threshold_scan_checks(params, seed, rows)
    return checks


def main(argv=None) -> int:
    if not (SRC / "rmux" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'rmux'}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    args = parse_args(argv)
    workload, params = prepare(args)
    import gate
    import speed
    import tracing
    if args.setup_probe:
        print("ready", flush=True)
        print(speed.mean_slice_s(SETUP_PROBE_SLICES))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = OUT / "runs" / f"{workload.name}-{args.seed}"
    detail = {}
    if args.trace:
        bundle, wall = run_recipe(workload, params, args.seed, run_dir / "untraced")
        digest = files_digest(bundle.csv_paths)
        tracer = tracing.Tracer()
        traced, traced_wall = run_recipe(workload, params, args.seed,
                                         run_dir / "traced", tracer)
        checks = [gate.Check("traced and untraced runs write the same CSVs",
                             files_digest(traced.csv_paths) == digest)]
    else:
        probes = [setup_probe(args) for _ in range(SETUP_PROBES // 2)]
        ref = speed.SpeedReference(workload.boundaries)
        bundle, raw_wall = run_recipe(workload, params, args.seed, run_dir, ref)
        probes += [setup_probe(args) for _ in range(SETUP_PROBES - len(probes))]
        digest = files_digest(bundle.csv_paths)
        wall, cpu = ref.scaled()
        checks = []
        detail = {"raw_wall_s": round(raw_wall, 4), "raw_cpu_s": round(ref.cpu, 4),
                  "reference_slices": ref.slices,
                  "speed_factor": round(ref.speed_factor(), 4),
                  "setup_probe_s": [round(t, 4) for t, _slice in probes],
                  "setup_probe_slice_ms": [round(1e3 * sl, 4) for _t, sl in probes]}
    checks += workload_checks(workload, params, args.seed, bundle)
    key = "|".join([workload.name, str(args.seed),
                    json.dumps(params, sort_keys=True),
                    files_digest((SRC / "rmux").glob("*.py"))])
    checks += repeat_check(key, digest)

    failed = [c for c in checks if not c.passed]
    if args.trace:
        values = tracer.metrics(traced_wall, wall)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _better, _moves) in tracing.PER_LAYER.items()}
    else:
        values = {"wall_s": wall, "cpu_s": cpu,
                  "setup_s": statistics.median(
                      t * speed.REFERENCE_SLICE_S / sl for t, sl in probes),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "pass_frac": 1 - len(failed) / len(checks)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    detail = {"workload": workload.name, "seed": args.seed,
              "confirmation_seed": CONFIRM_SEED, "seconds": args.seconds,
              "trace": args.trace, "parameters": params, **detail,
              "environment": environment(), "csv_sha256": digest,
              "default_seed_digest_match": default_digest_match(
                  workload, args.seed, params, digest),
              "failed_checks": [f"{c.name}: {c.detail}" for c in failed]}
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "metrics": metrics}, indent=1) + "\n")

    for name, value in detail.items():
        print(f"{name}: {value}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
