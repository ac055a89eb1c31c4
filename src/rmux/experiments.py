"""Experiment recipes: seeded runs, CSV emission, reference checks.

Each recipe reproduces one published figure or table, writes plot-ready CSV
files plus a plain-text summary (parameters, seed, runtimes, and pass/fail
against the embedded reference values), and reports its checks. Data files
contain no timestamps or runtimes, so identical configurations produce
byte-identical CSV output.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path


from . import mux_analytics, mux_sim, percolation
from .percolation import OutcomeSemantics, calibrated_semantics

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


@dataclass
class ReportBundle:
    experiment: str
    csv_paths: list
    summary_path: Path
    checks: list
    runtime_s: float

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def result_line(checks) -> str:
    """The verdict closing a summary; a run that applies no reference check
    (say, fig2 without its anchor etas) passes, and says so."""
    if not checks:
        return "result: PASS (no reference check applies)"
    return "result: " + ("PASS" if all(c.passed for c in checks) else "FAIL")


def load_config_file(path) -> dict:
    """Flat key=value file; '#' starts a comment."""
    params = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line (need key=value): {raw!r}")
        key, value = line.split("=", 1)
        params[key.strip()] = value.strip()
    return params


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".10g")
    return str(x)


def csv_text(header, rows) -> str:
    """CSV text of a header and rows; floats to 10 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _write_csv(path: Path, header, rows) -> Path:
    path.write_text(csv_text(header, rows))
    return path


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _param(params: dict, key: str, default):
    """Typed parameter lookup; overrides arrive as strings."""
    if key not in params:
        return default
    raw = params[key]
    if isinstance(default, bool):
        word = str(raw).lower()
        if word not in _BOOL_WORDS:
            raise ValueError(f"{key} must be a boolean (true/false, yes/no, "
                             f"on/off, 1/0), got {raw!r}")
        return _BOOL_WORDS[word]
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ValueError(f"{key} must be {kind}, got {raw!r}") from None
    return raw


def _param_list(params: dict, key: str, default: str, kind,
                allow_empty: bool = False) -> list:
    """Comma-separated list parameter, each item `kind` as in `_param`; an
    integer list may also be an inclusive range "lo:hi"."""
    raw = str(params.get(key, default))
    items = raw.split(",") if raw.strip() or not allow_empty else []
    entry = f"each {key} entry"         # names the key in _param's errors
    if kind is int and ":" in raw:
        lo, hi = (_param({entry: x}, entry, 0) for x in raw.split(":", 1))
        if hi < lo:
            raise ValueError(f"{key} range {raw!r} is empty")
        return list(range(lo, hi + 1))
    return [_param({entry: x}, entry, kind()) for x in items]


def semantics_from(params: dict) -> tuple[str, OutcomeSemantics]:
    """(preset name, semantics) from `params`.

    `params["semantics"]` names the preset ("calibrated" by default); a key
    named after an OutcomeSemantics field overrides that field. Other keys
    are ignored.
    """
    name = _param(params, "semantics", "calibrated")
    if name == "calibrated":
        sem = calibrated_semantics()
    elif name == "default":
        sem = OutcomeSemantics()
    else:
        raise ValueError(f"semantics must be 'default' or 'calibrated', got {name!r}")
    sem = replace(sem, **{f.name: _param(params, f.name, getattr(sem, f.name))
                          for f in fields(sem)})
    return name, sem


def _within(value, center, tol) -> bool:
    return abs(value - center) <= tol


# --------------------------------------------------------------------------
# Reference values the recipes are checked against (published table cells,
# quoted operating points, and tolerance bands).
# --------------------------------------------------------------------------

REF_TABLE1 = {
    "stage1_k": 44, "stage1_k_up": 64, "stage1_depth": 7,
    "stage1_potential": 6.4,
    "stage2_k": 146, "stage2_k_up": 256, "stage2_depth": 9,
    "stage2_potential": 8.0,
    "combined_prob": 0.9321, "combined_prob_tol": 1e-4,
    "combined_depth": 16, "bins_per_stream": 16384,
    "potential_photons": 9830.4, "potential_ghz": 51.2,
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

# One header and one row builder per figure that `rmux analytics`, `match`
# or `bell` also prints. A builder returns its rows, what the recipe's
# checks read, and the parameter lines of the recipe's summary.

TABLE1_HEADER = ["row", "initial_prob", "post_mux_prob", "k", "k_up", "depth",
                 "potential_mean", "potential_unit"]
FIG2_HEADER = ["p_s", "eta", "wasted_ghz_mean", "k_up1", "k_up2", "best_p1",
               "best_p2", "total_bins"]
# Defaults the CLI shares: fig2's top p_s, fig9's a_l grid, fig8's and
# fig9's target, L and trials, and the two-stream sweep's p and bins.
FIG2_PS_MAX = 0.93
FIG9_A_L_GRID = "0,0.005,0.01,0.015,0.02,0.025"
SPAN_DEFAULTS = {"target": 0.90, "L": 10, "trials": 2000}
TWO_STREAM_P, TWO_STREAM_BINS = 0.1, 1000
TWO_STREAM_HEADER = ["strategy", "switches", "matched_fraction", "stderr",
                     "clash_rate", "out_of_range", "total_weight_mean"]
BELL_HEADER = ["scheme", "total_switches", "bells_per_bin", "stderr",
               "stage1_switches", "stage2_switches"]


def table1_rows(params: dict):
    """(rows, MuxReport, summary lines) of Table 1."""
    eta = _param(params, "eta", 0.1)
    p1 = _param(params, "p1", 0.99)
    p2 = _param(params, "p2", 0.99)
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
    return rows, report, [f"eta={_fmt(eta)}", f"p1={_fmt(p1)}", f"p2={_fmt(p2)}"]


def fig2_rows(params: dict, **optimizer):
    """(rows, summary lines) of Fig. 2; `optimizer` goes to `unused_potential`."""
    etas = _param_list(params, "etas", "0.1,0.01,0.001", float)
    ps_lo = _param(params, "ps_min", 0.80)
    ps_hi = _param(params, "ps_max", FIG2_PS_MAX)
    ps_step = _param(params, "ps_step", 0.005)
    if not ps_step > 0:
        raise ValueError(f"ps_step must be > 0, got {ps_step}")
    if not ps_hi >= ps_lo:
        raise ValueError(f"ps_max must be >= ps_min, got ps_max={ps_hi} "
                         f"< ps_min={ps_lo}")
    ps_values = mux_analytics.grid(ps_lo, ps_hi, ps_step)
    rows = []
    for eta in etas:
        for p_s in ps_values:
            p1, p2, wasted, k1, k2 = mux_analytics.unused_potential(
                eta, p_s, **optimizer)
            rows.append((p_s, eta, wasted, k1, k2, p1, p2,
                         k1 * k2 * mux_analytics.PHOTONS_PER_GHZ))
    return rows, [f"etas={etas}", f"p_s grid [{ps_lo}, {ps_hi}] step {ps_step}"]


def two_stream_sweep(params: dict, strategies, seed: int):
    """(rows, stats by (strategy, s), s values, summary lines) of Figs. 4/6."""
    prob = _param(params, "p", TWO_STREAM_P)
    s_values = _param_list(params, "switches", "1,2,3,4,5,6,7,8", int)
    n_bins = _param(params, "bins", TWO_STREAM_BINS)
    reps = _param(params, "reps", 100)
    stats = mux_sim.simulate_two_stream(prob, s_values, n_bins, strategies,
                                        reps, seed)
    rows = [astuple(st) for st in stats.values()]   # TWO_STREAM_HEADER's order
    return rows, stats, s_values, [f"p={prob}", f"bins={n_bins}", f"reps={reps}"]


def bell_sweep(params: dict, seed: int, schemes=("standard", "rmux")):
    """(rows, stats by (scheme, budget), budgets, summary lines) of Fig. 7."""
    p1 = _param(params, "p1", 0.1)
    budgets = _param_list(params, "budgets", "5:16", int)
    n_bins = _param(params, "bins", 10000)
    reps = _param(params, "reps", 100)
    stats = mux_sim.simulate_bell_sweep(p1, budgets, n_bins, reps, seed,
                                        schemes)
    rows = []
    for budget in budgets:
        for scheme in schemes:
            st = stats[(scheme, budget)]
            rows.append((scheme, budget, st.bells_per_bin, st.stderr,
                         *st.best_split))
    return rows, stats, budgets, [f"p1={p1}", f"bins={n_bins}", f"reps={reps}"]


def _run_table1(config: ExperimentConfig):
    rows, report, meta = table1_rows(config.parameters)
    s1, s2 = report.stages
    csv = _write_csv(config.output_dir / "table1.csv", TABLE1_HEADER, rows)
    ref = REF_TABLE1
    checks = [
        Check("stage1 k", str(s1.k), str(ref["stage1_k"]), s1.k == ref["stage1_k"]),
        Check("stage1 k_up", str(s1.k_up), str(ref["stage1_k_up"]), s1.k_up == ref["stage1_k_up"]),
        Check("stage1 depth", str(s1.depth), str(ref["stage1_depth"]), s1.depth == ref["stage1_depth"]),
        Check("stage1 potential", _fmt(s1.potential_mean), _fmt(ref["stage1_potential"]),
              _within(s1.potential_mean, ref["stage1_potential"], 1e-9)),
        Check("stage2 k", str(s2.k), str(ref["stage2_k"]), s2.k == ref["stage2_k"]),
        Check("stage2 k_up", str(s2.k_up), str(ref["stage2_k_up"]), s2.k_up == ref["stage2_k_up"]),
        Check("stage2 depth", str(s2.depth), str(ref["stage2_depth"]), s2.depth == ref["stage2_depth"]),
        Check("stage2 potential", _fmt(s2.potential_mean), _fmt(ref["stage2_potential"]),
              _within(s2.potential_mean, ref["stage2_potential"], 1e-9)),
        Check("combined prob", _fmt(report.combined_prob),
              f"{ref['combined_prob']} +/- {ref['combined_prob_tol']}",
              _within(report.combined_prob, ref["combined_prob"], ref["combined_prob_tol"])),
        Check("combined depth", str(report.combined_depth), str(ref["combined_depth"]),
              report.combined_depth == ref["combined_depth"]),
        Check("bins per stream", str(report.bins_per_stream), str(ref["bins_per_stream"]),
              report.bins_per_stream == ref["bins_per_stream"]),
        Check("potential photons", _fmt(report.potential_photons_mean),
              _fmt(ref["potential_photons"]),
              _within(report.potential_photons_mean, ref["potential_photons"], 1e-6)),
        Check("potential ghz", _fmt(report.potential_ghz_mean), _fmt(ref["potential_ghz"]),
              _within(report.potential_ghz_mean, ref["potential_ghz"], 1e-6)),
    ]
    meta += ["reference: table1 (exact integer cells, 4 significant figures on reals)"]
    return [csv], checks, meta


def _run_fig2(config: ExperimentConfig):
    rows, meta = fig2_rows(config.parameters)
    csv = _write_csv(config.output_dir / "fig2_unused_potential.csv",
                     FIG2_HEADER, rows)
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
    meta += ["optimizer grid step 0.01 on (p1, p2), p_i in "
             f"[{mux_analytics.STAGE_P_MIN:.2f}, {mux_analytics.STAGE_P_MAX}]",
             "reference: fig2 bin-count anchors, +/-5% (optimizer granularity loose)"]
    return [csv], checks, meta


def _run_fig4(config: ExperimentConfig):
    rows, stats, s_values, meta = two_stream_sweep(
        config.parameters, ["hungarian_with_clash"], config.seed)
    csv = _write_csv(config.output_dir / "fig4_matching.csv",
                     TWO_STREAM_HEADER, rows)
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
    meta += ["reference: fig4 (no numeric table published; property checks)"]
    return [csv], checks, meta


def _run_fig6(config: ExperimentConfig):
    rows, stats, s_values, meta = two_stream_sweep(
        config.parameters, mux_sim.STRATEGIES, config.seed)
    csv = _write_csv(config.output_dir / "fig6_strategies.csv",
                     TWO_STREAM_HEADER, rows)
    checks = []
    for s in s_values:
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
    meta += ["reference: fig6 strategy comparison (property checks)"]
    return [csv], checks, meta


def _run_fig7(config: ExperimentConfig):
    rows, stats, budgets, meta = bell_sweep(config.parameters, config.seed)
    csv = _write_csv(config.output_dir / "fig7_bell_rates.csv", BELL_HEADER,
                     rows)
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
    ratio = (rmx.bells_per_bin / std.bells_per_bin
             if std.bells_per_bin > 0 else float("inf"))
    checks.append(Check(
        f"rate ratio at {max(budgets)} switches", f"{ratio:.1f}",
        f">= {REF_FIG7['ratio_at_max']}", ratio >= REF_FIG7["ratio_at_max"]))
    meta += ["switch budgets count every physical switch "
             "(standard: 4 stream networks + output network; "
             "relative: 2 stream networks + pair network)",
             "reference: fig7 rate comparison (property checks)"]
    return [csv], checks, meta


def _run_fig8(config: ExperimentConfig):
    p = config.parameters
    target, L, trials = (_param(p, k, v) for k, v in SPAN_DEFAULTS.items())
    a_l = _param(p, "a_l", 0.0)
    sizes = _param_list(p, "finite_size_L", "6,14", int, allow_empty=True)
    finite_trials = _param(p, "finite_size_trials", 600)
    runs = [(L, trials)] + [(size, finite_trials) for size in sizes]
    for size, n in runs:                    # before the first, slow, pass
        percolation._check_trials(n)
        percolation._check_L(size)
    sem_name, sem = semantics_from(p)

    schemes = (percolation.SCHEME_RMUX, percolation.SCHEME_STANDARD)
    rows = [(scheme, size, target, a_l, thr, n, sem_name)
            for size, n in runs
            for scheme, (thr,) in zip(schemes, percolation.loss_thresholds(
                schemes, target, [a_l], size, n, config.seed, sem).tolist())]
    thresholds = {row[0]: row[4] for row in rows[:2]}     # at size L
    csv = _write_csv(config.output_dir / "fig8_thresholds.csv",
                     ["scheme", "L", "target", "a_l", "p_l_threshold",
                      "trials", "semantics"], rows)
    ref = REF_FIG8
    ratio = thresholds["rmux"] / thresholds["standard"]
    checks = [
        Check("relative-scheme threshold", _fmt(thresholds["rmux"]),
              f"{ref['rmux']} +/- {ref['tol']} (band for L={ref['L']})",
              _within(thresholds["rmux"], ref["rmux"], ref["tol"])),
        Check("standard-scheme threshold", _fmt(thresholds["standard"]),
              f"{ref['standard']} +/- {ref['tol']} (band for L={ref['L']})",
              _within(thresholds["standard"], ref["standard"], ref["tol"])),
        Check("threshold ratio", f"{ratio:.2f}", f">= {ref['min_ratio']} (target 2.4)",
              ratio >= ref["min_ratio"]),
    ]
    meta = [f"target={target}", f"L={L}", f"trials={trials}", f"a_l={a_l}",
            f"semantics={sem_name}: {sem}",
            "calibration: the published absolute thresholds are recovered "
            "with heralded_site_kill_prob="
            f"{percolation.CALIBRATED_HERALDED_SITE_KILL} (heralded "
            "microcluster-assembly failures sometimes leave the "
            "microcluster unusable); under the all-defaults semantics the "
            "lattice is more forgiving and both thresholds sit higher, but "
            "the >=2x scheme ratio holds regardless",
            f"reference: fig8 tolerable-loss comparison at L={ref['L']}, "
            f"bands +/-{ref['tol']}"]
    return [csv], checks, meta


def _run_fig9(config: ExperimentConfig):
    p = config.parameters
    target, L, trials = (_param(p, k, v) for k, v in SPAN_DEFAULTS.items())
    grid = _param_list(p, "a_l_grid", FIG9_A_L_GRID, float)
    sem_name, sem = semantics_from(p)
    frontier = percolation.tradeoff_frontier(
        percolation.SCHEME_RMUX, target, grid, L, trials, config.seed, sem)
    rows = [(a, thr) for a, thr in frontier.points]
    csv = _write_csv(config.output_dir / "fig9_frontier.csv",
                     ["a_l", "p_l_threshold"], rows)
    fit_rows = [("slope", frontier.slope), ("intercept", frontier.intercept)]
    fit_rows += [(f"residual_a_l={_fmt(a)}", r)
                 for (a, _), r in zip(frontier.points, frontier.residuals)]
    fit_csv = _write_csv(config.output_dir / "fig9_frontier_fit.csv",
                         ["quantity", "value"], fit_rows)
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
    meta = [f"target={target}", f"L={L}", f"trials={trials}",
            f"a_l grid={grid}", f"semantics={sem_name}: {sem}",
            "reference: fig9 loss trade-off (slope ~ -2: frontier follows "
            "p_l + 2 a_l = const, nonlinear remainder below 5% of f_l)"]
    return [csv, fit_csv], checks, meta


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


def run_experiment(config: ExperimentConfig) -> ReportBundle:
    """Execute one recipe: write CSV data files and a summary, return checks."""
    config.output_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    csv_paths, checks, meta = _RUNNERS[config.experiment](config)
    runtime = time.time() - t0

    lines = [f"experiment: {config.experiment}",
             f"seed: {config.seed}",
             f"runtime_s: {runtime:.2f}"]
    for key, value in sorted(config.parameters.items()):
        lines.append(f"override: {key}={value}")
    lines += list(meta)
    lines.append(f"data files: {', '.join(p.name for p in csv_paths)}")
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"check [{status}] {c.name}: got {c.value}, expected {c.expected}")
    lines.append(result_line(checks))
    summary_path = config.output_dir / f"{config.experiment}_summary.txt"
    summary_path.write_text("\n".join(lines) + "\n")

    return ReportBundle(experiment=config.experiment, csv_paths=csv_paths,
                        summary_path=summary_path, checks=checks,
                        runtime_s=runtime)
