"""Experiment recipes: seeded runs, CSV emission, reference checks.

Each recipe reproduces one published figure or table: it computes its
plot-ready tables and checks them against the embedded reference values.
`run_experiment` writes the tables as CSV files plus a plain-text summary
(seed, runtime, parameters and pass/fail). Data files contain no timestamps
or runtimes, so identical configurations produce byte-identical CSV output.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field
from pathlib import Path


from . import matching, mux_analytics, mux_sim, percolation
from .percolation import CALIBRATED_HERALDED_SITE_KILL, OutcomeSemantics

@dataclass
class ExperimentConfig:
    experiment: str
    parameters: dict = field(default_factory=dict)
    seed: int = 1234
    output_dir: Path = Path("out")

    def __post_init__(self):
        self.output_dir = Path(self.output_dir)
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; "
                f"choose from {', '.join(EXPERIMENTS)}")


@dataclass
class Check:
    name: str
    value: str
    expected: str
    passed: bool

    def line(self) -> str:
        """`[PASS] name: got value, expected expected`, or `[FAIL] ...`: the
        check as `reproduce` prints it and, after `check `, as the summary
        lists it."""
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: got {self.value}, "
                f"expected {self.expected}")


@dataclass
class ReportBundle:
    csv_paths: list
    summary_path: Path
    checks: list


def result_line(checks) -> str:
    """The verdict closing a summary; a run that applies no reference check
    (say, fig2 without its anchor etas) passes, and says so."""
    if not checks:
        return "result: PASS (no reference check applies)"
    return "result: " + ("PASS" if all(c.passed for c in checks) else "FAIL")


def key_values(items, source: str) -> dict:
    """{key: value} of `items`, each "key=value" with both parts stripped.
    An item without a key or without `=`, or a key that `items` sets
    twice, is a ValueError naming `source` (a file, or `--set`)."""
    params = {}
    for item in items:
        key, eq, value = (part.strip() for part in item.partition("="))
        if not key or not eq:
            raise ValueError(f"{source} needs key=value, got {item!r}")
        if key in params:
            raise ValueError(f"{source} sets {key} twice; drop one")
        params[key] = value
    return params


def load_config_file(path) -> dict:
    """Flat key=value file read by `key_values`; '#' starts a comment."""
    lines = (raw.split("#", 1)[0].strip()
             for raw in Path(path).read_text().splitlines())
    return key_values([line for line in lines if line], path)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def _exact(x) -> str:
    """`_fmt(x)`, or `repr(x)` for a float that `_fmt` does not round-trip."""
    text = _fmt(x)
    return repr(x) if isinstance(x, float) and float(text) != x else text


def csv_text(header, rows) -> str:
    """CSV text of a header and rows; floats to 10 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _typed(key: str, raw, default):
    """`raw`, an override string or an already typed value, as the kind of
    `default` (a value, or a type). A list is comma-separated, each entry
    typed like the default's first; an integer list may also be an
    inclusive range "lo:hi", and only `finite_size_L` may be empty."""
    kind = default if isinstance(default, type) else type(default)
    if kind is list:
        raw, entry = str(raw), f"each {key} entry"
        if isinstance(default[0], int) and ":" in raw:
            lo, hi = (_typed(entry, x, int) for x in raw.split(":", 1))
            if hi < lo:
                raise ValueError(f"{key} range {raw!r} is empty")
            return list(range(lo, hi + 1))
        empty = key == "finite_size_L" and not raw.strip()
        return [_typed(entry, x, default[0])
                for x in ([] if empty else raw.split(","))]
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            name = "an integer" if kind is int else "a number"
            raise ValueError(f"{key} must be {name}, got {raw!r}") from None
    return raw


def parse_params(table: dict, params: dict) -> tuple[dict, list]:
    """(values, unread): every key of `table` typed like its default, or set
    to it where `params` leaves the key out, and the keys of `params` that
    `table` does not list. A default that is a type has no value of its
    own: its key is in `values` only when `params` sets it."""
    values = {}
    for key, default in table.items():
        if key in params:
            values[key] = _typed(key, params[key], default)
        elif not isinstance(default, type):
            values[key] = default
    return values, [key for key in params if key not in table]


def _within(value, center, tol) -> bool:
    return abs(value - center) <= tol


# --------------------------------------------------------------------------
# Reference values the recipes are checked against (published table cells,
# quoted operating points, and tolerance bands).
# --------------------------------------------------------------------------

# Table 1's cells by check name: (published value, tolerance); integer cells
# are exact.
REF_TABLE1 = {
    "stage1 k": (44, 0), "stage1 k_up": (64, 0), "stage1 depth": (7, 0),
    "stage1 potential": (6.4, 1e-9),
    "stage2 k": (146, 0), "stage2 k_up": (256, 0), "stage2 depth": (9, 0),
    "stage2 potential": (8.0, 1e-9),
    "combined prob": (0.9321, 1e-4), "combined depth": (16, 0),
    "bins per stream": (16384, 0),
    "potential photons": (9830.4, 1e-6), "potential ghz": (51.2, 1e-6),
}

REF_FIG2_TOTAL_BINS = {0.1: 9.8e4, 0.01: 7.9e5, 0.001: 1.3e7}
REF_FIG2_REL_TOL = 0.05

REF_FIG7 = {"low_budget_rate": 1e-3, "ratio_at_max": 10.0}

REF_FIG8 = {"rmux": 0.07, "standard": 0.029, "tol": 0.015, "min_ratio": 2.0,
            "L": 10}                    # the lattice size the bands are for

REF_FIG9 = {"slope": -2.0, "slope_tol": 0.3, "residual_frac_of_fl": 0.05}


# --------------------------------------------------------------------------
# Recipes
# --------------------------------------------------------------------------

# The keys each recipe reads, with their defaults; `parse_params` types an
# override like its key's default. `analytics`, `match`, `bell` and
# `percolate` take their defaults from here too.
_TWO_STREAM = {"p": 0.1, "switches": [1, 2, 3, 4, 5, 6, 7, 8], "bins": 1000,
               "reps": 100}
_LATTICE = {"target": 0.90, "L": 10, "trials": 2000,
            "heralded_site_kill_prob": CALIBRATED_HERALDED_SITE_KILL}
PARAMETERS = {
    "table1": {"eta": 0.1, "p1": 0.99, "p2": 0.99},
    "fig2": {"etas": [0.1, 0.01, 0.001], "ps_min": 0.80, "ps_max": 0.93,
             "ps_step": 0.005},
    "fig4": _TWO_STREAM,
    "fig6": _TWO_STREAM,
    "fig7": {"p1": 0.1, "budgets": list(range(5, 17)), "bins": 10000,
             "reps": 100},
    "fig8_thresholds": {**_LATTICE, "a_l": 0.0, "finite_size_L": [6, 14],
                        "finite_size_trials": 600},
    "fig9_frontier": {**_LATTICE, "a_l_grid": [
        0.0, 0.005, 0.01, 0.015, 0.02, 0.025]},
}

# One header and one row builder per figure that `rmux analytics`, `match`
# or `bell` also prints. A builder takes the values `parse_params` read
# from its recipe's table, and returns its rows and what the recipe's
# checks read.

TABLE1_HEADER = ["row", "initial_prob", "post_mux_prob", "k", "k_up", "depth",
                 "potential_mean", "potential_unit"]
FIG2_HEADER = ["p_s", "eta", "wasted_ghz_mean", "k_up1", "k_up2", "best_p1",
               "best_p2", "total_bins"]
TWO_STREAM_HEADER = ["strategy", "switches", "matched_fraction", "stderr",
                     "clash_rate", "out_of_range", "total_weight_mean"]
BELL_HEADER = ["scheme", "total_switches", "bells_per_bin", "stderr",
               "stage1_switches", "stage2_switches"]


def table1_rows(values: dict):
    """(rows, MuxReport) of Table 1."""
    eta, p1, p2 = values["eta"], values["p1"], values["p2"]
    report = mux_analytics.ghz_report(eta, p1, p2)
    s1, s2 = report.stages
    rows = [
        ("stage1_hsps", s1.input_prob, s1.target_prob, s1.k, s1.k_up,
         s1.depth, s1.potential_mean, "photons"),
        ("stage2_ghz", s2.input_prob, s2.target_prob, s2.k, s2.k_up,
         s2.depth, s2.potential_mean, "ghz"),
        ("combined", eta, report.combined_prob, "", report.bins_per_stream,
         report.combined_depth, report.potential_photons_mean, "photons"),
        ("combined", eta, report.combined_prob, "", report.bins_per_stream,
         report.combined_depth, report.potential_ghz_mean, "ghz"),
    ]
    return rows, report


def check_stage_target(name: str, p_s: float, given):
    """Raise a ValueError naming `name`, set to `given`, unless the overall
    target `p_s` lies in (0, 1) and within the optimizer's reach."""
    if not 0.0 < p_s < 1.0:
        raise ValueError(f"{name} must be in (0, 1), got {given}")
    if p_s > mux_analytics.P_S_REACH:
        raise ValueError(f"{name} must be at most "
                         f"{_fmt(mux_analytics.P_S_REACH)} (both stages at "
                         f"{mux_analytics.STAGE_P_MAX}), got {given}")


def fig2_rows(values: dict):
    """Rows of Fig. 2."""
    etas, ps_lo = values["etas"], values["ps_min"]
    ps_hi, ps_step = values["ps_max"], values["ps_step"]
    if not ps_step > 0:
        raise ValueError(f"ps_step must be > 0, got {ps_step}")
    if not ps_hi >= ps_lo:
        raise ValueError(f"ps_max must be >= ps_min, got ps_max={ps_hi} "
                         f"< ps_min={ps_lo}")
    ps_values = mux_analytics.grid(ps_lo, ps_hi, ps_step)
    for key, p_s in (("ps_min", ps_values[0]), ("ps_max", ps_values[-1])):
        check_stage_target(key, p_s, values[key])
    rows = []
    for eta in etas:
        for p_s in ps_values:
            p1, p2, wasted, k1, k2 = mux_analytics.unused_potential(eta, p_s)
            rows.append((p_s, eta, wasted, k1, k2, p1, p2,
                         k1 * k2 * mux_analytics.PHOTONS_PER_GHZ))
    return rows


def two_stream_sweep(values: dict, strategies, seed: int):
    """(rows, stats by (strategy, s)) of Figs. 4/6."""
    stats = mux_sim.simulate_two_stream(values["p"], values["switches"],
                                        values["bins"], strategies,
                                        values["reps"], seed)
    rows = [astuple(st) for st in stats.values()]   # TWO_STREAM_HEADER's order
    return rows, stats


def bell_sweep(values: dict, seed: int, schemes=("standard", "rmux")):
    """(rows, stats by (scheme, budget)) of Fig. 7."""
    budgets = values["budgets"]
    stats = mux_sim.simulate_bell_sweep(values["p1"], budgets, values["bins"],
                                        values["reps"], seed, schemes)
    rows = []
    for budget in budgets:
        for scheme in schemes:
            st = stats[(scheme, budget)]
            rows.append((scheme, budget, st.bells_per_bin, st.stderr,
                         *st.best_split))
    return rows, stats


# A runner takes the values `parse_params` read from its recipe's table and
# the seed, and returns (tables, checks, notes): its data files by name, in
# write order, as (header, rows); its checks; and the summary's reference and
# calibration lines. `run_experiment` writes them all.

def _run_table1(values: dict, seed: int):
    rows, report = table1_rows(values)
    got = {f"stage{i} {name}": getattr(stage, attr)
           for i, stage in enumerate(report.stages, 1)
           for name, attr in (("k", "k"), ("k_up", "k_up"), ("depth", "depth"),
                              ("potential", "potential_mean"))}
    got.update({"combined prob": report.combined_prob,
                "combined depth": report.combined_depth,
                "bins per stream": report.bins_per_stream,
                "potential photons": report.potential_photons_mean,
                "potential ghz": report.potential_ghz_mean})
    # The table is published at one point, the recipe's defaults (to within
    # float roundoff); elsewhere no reference check applies.
    point = PARAMETERS["table1"]
    published = all(abs(values[key] - point[key]) < 1e-12 for key in point)
    checks = []
    for name, (want, tol) in REF_TABLE1.items() if published else ():
        # Only the combined probability's band is published; the others
        # allow float rounding.
        expected = (f"{want} +/- {tol}" if name == "combined prob"
                    else _fmt(want))
        checks.append(Check(name, _fmt(got[name]), expected,
                            _within(got[name], want, tol)))
    return ({"table1.csv": (TABLE1_HEADER, rows)}, checks,
            ["reference: table1 (exact integer cells, 4 significant figures on reals)"])


def _run_fig2(values: dict, seed: int):
    rows = fig2_rows(values)
    anchors = {eta: total_bins for p_s, eta, *_, total_bins in rows
               if abs(p_s - 0.93) < 1e-12}
    checks = []
    for eta, expect in REF_FIG2_TOTAL_BINS.items():
        if eta not in anchors:
            continue
        got = anchors[eta]
        checks.append(Check(
            f"total bins at p_s=0.93, eta={eta}", _fmt(float(got)),
            f"{_fmt(expect)} +/- {REF_FIG2_REL_TOL:.0%}",
            abs(got - expect) <= REF_FIG2_REL_TOL * expect))
    notes = ["optimizer grid step 0.01 on (p1, p2), p_i in "
             f"[{mux_analytics.STAGE_P_MIN:.2f}, {mux_analytics.STAGE_P_MAX}]",
             "reference: fig2 bin-count anchors, +/-5% (optimizer granularity loose)"]
    return {"fig2_unused_potential.csv": (FIG2_HEADER, rows)}, checks, notes


def _run_fig4(values: dict, seed: int):
    rows, stats = two_stream_sweep(values, ["hungarian_with_clash"], seed)
    s_values = values["switches"]
    checks = []
    for lo, hi in zip(s_values, s_values[1:]):
        a = stats[("hungarian_with_clash", lo)]
        b = stats[("hungarian_with_clash", hi)]
        slack = 2 * (a.matched_fraction_stderr + b.matched_fraction_stderr)
        checks.append(Check(
            f"matched fraction monotone s={lo}->{hi}",
            f"{a.matched_fraction_mean:.4f} -> {b.matched_fraction_mean:.4f}",
            "non-decreasing within 2 stderr",
            b.matched_fraction_mean >= a.matched_fraction_mean - slack))
    return ({"fig4_matching.csv": (TWO_STREAM_HEADER, rows)}, checks,
            ["reference: fig4 (no numeric table published; property checks)"])


def _run_fig6(values: dict, seed: int):
    rows, stats = two_stream_sweep(values, matching.STRATEGIES, seed)
    checks = []
    for s in values["switches"]:
        h = stats[("hungarian_no_clash", s)]
        c = stats[("hungarian_with_clash", s)]
        r = stats[("realistic", s)]
        checks.append(Check(
            f"strategy ordering at s={s}",
            f"{h.matched_fraction_mean:.4f} >= {c.matched_fraction_mean:.4f}"
            f" >= {r.matched_fraction_mean:.4f}",
            "hungarian_no_clash >= hungarian_with_clash >= realistic",
            h.matched_fraction_mean >= c.matched_fraction_mean
            >= r.matched_fraction_mean))
        if s <= 4:
            worst = max(h.clash_rate_mean, c.clash_rate_mean, r.clash_rate_mean)
            checks.append(Check(f"clash rate small at s={s}", f"{worst:.4f}",
                                "< 0.01", worst < 0.01))
            checks.append(Check(
                f"realistic close to optimal at s={s}",
                f"gap {h.matched_fraction_mean - r.matched_fraction_mean:.4f}",
                "<= 0.05",
                h.matched_fraction_mean - r.matched_fraction_mean <= 0.05))
    return ({"fig6_strategies.csv": (TWO_STREAM_HEADER, rows)}, checks,
            ["reference: fig6 strategy comparison (property checks)"])


def _run_fig7(values: dict, seed: int):
    rows, stats = bell_sweep(values, seed)
    budgets = values["budgets"]
    by_budget = {b: (stats[("standard", b)], stats[("rmux", b)])
                 for b in budgets}
    checks = []
    low = [b for b in budgets if b <= min(budgets) + 1]
    for budget in low:
        std, rmx = by_budget[budget]
        worst = max(std.bells_per_bin, rmx.bells_per_bin)
        checks.append(Check(
            f"low budget rate at {budget} switches", f"{worst:.2e}",
            f"< {REF_FIG7['low_budget_rate']:.0e} per bin",
            worst < REF_FIG7["low_budget_rate"]))
    for budget in budgets:
        std, rmx = by_budget[budget]
        checks.append(Check(
            f"relative >= standard at {budget} switches",
            f"{rmx.bells_per_bin:.2e} vs {std.bells_per_bin:.2e}", ">=",
            rmx.bells_per_bin >= std.bells_per_bin))
    std, rmx = by_budget[max(budgets)]
    # No Bell state from either scheme gives no ratio: nan, which fails.
    ratio = (rmx.bells_per_bin / std.bells_per_bin if std.bells_per_bin > 0
             else float("inf") if rmx.bells_per_bin > 0 else float("nan"))
    checks.append(Check(
        f"rate ratio at {max(budgets)} switches", f"{ratio:.1f}",
        f">= {REF_FIG7['ratio_at_max']}", ratio >= REF_FIG7["ratio_at_max"]))
    notes = ["switch budgets count every physical switch "
             "(standard: 4 stream networks + output network; "
             "relative: 2 stream networks + pair network)",
             "reference: fig7 rate comparison (property checks)"]
    return {"fig7_bell_rates.csv": (BELL_HEADER, rows)}, checks, notes


def _run_fig8(values: dict, seed: int):
    target, a_l = values["target"], values["a_l"]
    runs = [(values["L"], values["trials"])] + [
        (size, values["finite_size_trials"])
        for size in values["finite_size_L"]]
    for size, n in runs:                    # before the first, slow, pass
        percolation._check_trials(n)
        percolation._check_L(size)
    kill = values["heralded_site_kill_prob"]
    sem = OutcomeSemantics(kill)

    schemes = (percolation.SCHEME_RMUX, percolation.SCHEME_STANDARD)
    rows = [(scheme, size, target, a_l, thr, n, kill)
            for size, n in runs
            for scheme, (thr,) in zip(schemes, percolation.loss_thresholds(
                schemes, target, [a_l], size, n, seed, sem).tolist())]
    thresholds = {row[0]: row[4] for row in rows[:2]}     # at size L
    ref = REF_FIG8
    checks = []
    if values["L"] == ref["L"]:         # the size the bands are for
        ratio = thresholds["rmux"] / thresholds["standard"]
        checks = [Check(f"{label}-scheme threshold", _fmt(thresholds[scheme]),
                        f"{ref[scheme]} +/- {ref['tol']} (band for "
                        f"L={ref['L']})",
                        _within(thresholds[scheme], ref[scheme], ref["tol"]))
                  for label, scheme in (("relative", "rmux"),
                                        ("standard", "standard"))]
        checks.append(Check("threshold ratio", f"{ratio:.2f}",
                            f">= {ref['min_ratio']} (target 2.4)",
                            ratio >= ref["min_ratio"]))
    notes = [f"outcome semantics: {sem}",
             "calibration: the published absolute thresholds are recovered "
             "with heralded_site_kill_prob="
             f"{CALIBRATED_HERALDED_SITE_KILL} (heralded "
             "microcluster-assembly failures sometimes leave the "
             "microcluster unusable); at heralded_site_kill_prob=0 the "
             "lattice is more forgiving and both thresholds sit higher, but "
             "the >=2x scheme ratio holds regardless",
             f"reference: fig8 tolerable-loss comparison at L={ref['L']}, "
             f"bands +/-{ref['tol']}"]
    header = ["scheme", "L", "target", "a_l", "p_l_threshold", "trials",
              "heralded_site_kill_prob"]
    return {"fig8_thresholds.csv": (header, rows)}, checks, notes


def _run_fig9(values: dict, seed: int):
    sem = OutcomeSemantics(values["heralded_site_kill_prob"])
    frontier = percolation.tradeoff_frontier(
        percolation.SCHEME_RMUX, values["target"], values["a_l_grid"],
        values["L"], values["trials"], seed, sem)
    fit_rows = [("slope", frontier.slope), ("intercept", frontier.intercept)]
    fit_rows += [(f"residual_a_l={_fmt(a)}", r)
                 for (a, _), r in zip(frontier.points, frontier.residuals)]
    tables = {"fig9_frontier.csv": (["a_l", "p_l_threshold"], frontier.points),
              "fig9_frontier_fit.csv": (["quantity", "value"], fit_rows)}
    ref = REF_FIG9
    f_star = percolation.fusion_loss_probability(frontier.points[0][1], 0.0, 1)
    residual_tol = ref["residual_frac_of_fl"] * f_star
    max_resid = max(abs(r) for r in frontier.residuals)
    checks = [
        Check("frontier slope", f"{frontier.slope:.3f}",
              f"{ref['slope']} +/- {ref['slope_tol']}",
              _within(frontier.slope, ref["slope"], ref["slope_tol"])),
        Check("frontier linearity", f"max residual {max_resid:.4f}",
              f"<= 5% of f_l = {residual_tol:.4f}",
              max_resid <= residual_tol),
    ]
    notes = [f"outcome semantics: {sem}",
             "reference: fig9 loss trade-off (slope ~ -2: frontier follows "
             "p_l + 2 a_l = const, nonlinear remainder below 5% of f_l)"]
    return tables, checks, notes


_RUNNERS = {
    "table1": _run_table1,
    "fig2": _run_fig2,
    "fig4": _run_fig4,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8_thresholds": _run_fig8,
    "fig9_frontier": _run_fig9,
}
EXPERIMENTS = tuple(_RUNNERS)


def check_output_path(path: Path, label: str, is_file: bool = False) -> None:
    """Raise, before any work, the OSError that writing `path` would raise
    after it, naming `label`. A directory is made with its parents, so the
    first part of the path that exists must be a directory; a file needs
    its parent directory, and must itself be no directory."""
    found = next(part for part in (path, *path.parents) if part.exists())
    if is_file and found == path:
        if path.is_dir():
            raise IsADirectoryError(f"{label} {path}: is a directory")
    elif not found.is_dir():
        raise NotADirectoryError(f"{label} {path}: {found} is not a directory")
    elif is_file and found != path.parent:
        raise FileNotFoundError(f"{label} {path}: directory {path.parent} "
                                "does not exist")


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute one recipe: write its CSV data files and a summary, return
    its checks.

    Every parameter is parsed, and the output path checked
    (`check_output_path`), before any work. The output
    directory is made only once the recipe has returned, so a recipe that
    fails leaves none. The summary gives each parsed value as one
    `key=value` line in `--set` syntax, in the table's order, each float as
    text that reads back equal (`_exact`). A key that the recipe does not
    read is listed as `ignored:`, not as `override:`.
    """
    values, unread = parse_params(PARAMETERS[config.experiment],
                                  config.parameters)
    check_output_path(config.output_dir, "output directory")
    t0 = time.time()
    tables, checks, notes = _RUNNERS[config.experiment](values, config.seed)
    runtime = time.time() - t0

    config.output_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        (config.output_dir / name).write_text(csv_text(header, rows))
    lines = [f"experiment: {config.experiment}",
             f"seed: {config.seed}",
             f"runtime_s: {runtime:.2f}"]
    for key, value in sorted(config.parameters.items()):
        lines.append(f"{'ignored' if key in unread else 'override'}: "
                     f"{key}={value}")
    for key, value in values.items():
        entries = value if isinstance(value, list) else [value]
        lines.append(f"{key}={','.join(map(_exact, entries))}")
    lines += notes
    lines.append(f"data files: {', '.join(tables)}")
    lines += [f"check {c.line()}" for c in checks]
    lines.append(result_line(checks))
    summary_path = config.output_dir / f"{config.experiment}_summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")

    return ReportBundle(csv_paths=[config.output_dir / name for name in tables],
                        summary_path=summary_path, checks=checks)
