"""Command-line interface.

Subcommands: analytics, match, bell, percolate, reproduce. Simple commands
print CSV to stdout (or --out FILE); `reproduce <figure>` writes a bundle
of CSV data files plus a summary into --out DIR and exits nonzero when a
reference check fails.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import delay_network, experiments, matching, mux_sim, percolation, streams


def _emit(header, rows, out_path):
    text = experiments.csv_text(header, rows)
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _given(args) -> dict:
    """The options set on the command line, or with a default of their
    own; the recipe's table supplies every other default."""
    return {k: v for k, v in vars(args).items() if v is not None}


def _values(params: dict, *recipes: str) -> dict:
    """`params` parsed by the tables of `recipes`; the keys that none of
    them lists are the subcommand's own."""
    table = {key: default for recipe in recipes
             for key, default in experiments.PARAMETERS[recipe].items()}
    return experiments.parse_params(table, params)[0]


def _unread(args, mode: str, *names):
    """Reject any option of `names` set on the command line: `mode` never
    reads it. An option set to 0 is set, hence `is` (0 == False)."""
    for name in names:
        value = getattr(args, name)
        if value is not None and value is not False:
            raise ValueError(f"--{name.replace('_', '-')} is not read by {mode}")


def _cmd_analytics(args) -> int:
    params = _given(args)
    if args.mode == "table":
        _unread(args, "analytics --mode table", "etas", "ps")
        rows = experiments.table1_rows(_values(params, "table1"))[0]
        _emit(experiments.TABLE1_HEADER, rows, args.out)
    else:
        _unread(args, "analytics --mode waste",
                *experiments.PARAMETERS["table1"])
        ps = params.get("ps", experiments.PARAMETERS["fig2"]["ps_max"])
        experiments.check_stage_target("--ps", ps, ps)
        params.update(ps_min=ps, ps_max=ps)
        if args.etas:
            params["etas"] = ",".join(args.etas)
        rows = experiments.fig2_rows(_values(params, "fig2"))
        _emit(experiments.FIG2_HEADER, rows, args.out)
    return 0


def _load_or_generate(path, values, seed):
    if path:
        return streams.stream_from_text(Path(path).read_text())
    return streams.generate_stream(values["p"], values["bins"], seed)


def _cmd_match(args) -> int:
    if args.stream1 or args.stream2:
        _unread(args, "match with --stream1 or --stream2", "reps")
        values = _values(_given(args), "fig4")
        net = delay_network.DelayNetwork(args.switches)
        s1 = _load_or_generate(args.stream1, values, args.seed)
        s2 = _load_or_generate(args.stream2, values, args.seed + 1)
        m, met = mux_sim.match_streams(s1, s2, net, args.strategy)
        _emit(["kind", "a", "b", "c"], matching.matching_csv_rows(m), args.out)
        sys.stderr.write(
            f"matched_fraction={met.matched_fraction:.6f} "
            f"clash_rate={met.clash_rate:.6f} "
            f"out_of_range={met.out_of_range_fraction:.6f} "
            f"mean_delay={met.mean_delay:.6f}\n")
        if args.dump_routes:
            result = delay_network.route(
                matching.pair_requests(sorted(m.pairs)), net)
            rows = delay_network.routing_trace_rows(result, net)
            _emit(["photon_id", "arrival_bin", "delay", "stage", "rail",
                   "bin_at_stage"], rows, args.dump_routes)
        return 0
    _unread(args, "match without --stream1 or --stream2", "dump_routes")
    rows = experiments.two_stream_sweep(_values(_given(args), "fig4"),
                                        [args.strategy], args.seed)[0]
    _emit(experiments.TWO_STREAM_HEADER, rows, args.out)
    return 0


def _cmd_bell(args) -> int:
    schemes = ["standard", "rmux"] if args.scheme == "both" else [args.scheme]
    rows = experiments.bell_sweep(_values(_given(args), "fig7"), args.seed,
                                  schemes)[0]
    _emit(experiments.BELL_HEADER, rows, args.out)
    return 0


# The percolate options that each mode never reads.
_PERCOLATE_UNREAD = {"prob": ("target", "a_l_grid", "equal_ancilla_loss"),
                     "threshold": ("p_l", "a_l_grid"),
                     "frontier": ("p_l", "a_l", "equal_ancilla_loss")}


def _cmd_percolate(args) -> int:
    _unread(args, f"percolate --mode {args.mode}",
            *_PERCOLATE_UNREAD[args.mode])
    if args.mode == "threshold" and args.equal_ancilla_loss:
        _unread(args, "percolate --mode threshold --equal-ancilla-loss", "a_l")
    params = _given(args)
    # The two lattice recipes' keys; an unset flag keeps their default.
    values = _values(params, "fig8_thresholds", "fig9_frontier")
    sem = percolation.OutcomeSemantics(values["heralded_site_kill_prob"])
    p_l, a_l, target = params.get("p_l", 0.0), values["a_l"], values["target"]
    L, trials = values["L"], values["trials"]
    if args.mode == "prob":
        est, err = percolation.percolation_probability(
            L, args.scheme, p_l, a_l, trials, args.seed, sem)
        _emit(["scheme", "L", "p_l", "a_l", "perc_prob", "stderr"],
              [(args.scheme, L, p_l, a_l, est, err)], args.out)
    elif args.mode == "threshold":
        thr = percolation.loss_threshold(
            args.scheme, target, a_l, L, trials, args.seed, sem,
            equal_ancilla_loss=args.equal_ancilla_loss)
        a_col = "scan" if args.equal_ancilla_loss else a_l
        _emit(["scheme", "target", "a_l", "p_l_threshold"],
              [(args.scheme, target, a_col, thr)], args.out)
    else:
        frontier = percolation.tradeoff_frontier(
            args.scheme, target, values["a_l_grid"], L, trials, args.seed,
            sem)
        rows = [(args.scheme, target, a, thr) for a, thr in frontier.points]
        _emit(["scheme", "target", "a_l", "p_l_threshold"], rows, args.out)
        sys.stderr.write(f"linear fit: slope={frontier.slope:.4f} "
                         f"intercept={frontier.intercept:.5f} "
                         f"max|residual|={max(abs(r) for r in frontier.residuals):.5f}\n")
    return 0


def _cmd_reproduce(args) -> int:
    # A key may be given once by --config and once by --set; --set wins.
    params = (experiments.load_config_file(args.config) if args.config
              else {})
    params.update(experiments.key_values(args.set or [], "--set"))
    reads = experiments.PARAMETERS[args.figure]
    unread = experiments.parse_params(reads, params)[1]
    if unread:
        raise ValueError(f"{args.figure} does not read {', '.join(unread)}; "
                         f"it reads {', '.join(reads)}")
    config = experiments.ExperimentConfig(args.figure, params, args.seed,
                                          Path(args.out))
    bundle = experiments.run_experiment(config)
    for check in bundle.checks:
        print(check.line())
    print(f"summary: {bundle.summary_path}")
    for path in bundle.csv_paths:
        print(f"data: {path}")
    verdict = experiments.result_line(bundle.checks)
    passed = verdict.startswith("result: PASS")
    print(verdict, file=sys.stdout if passed else sys.stderr)
    return 0 if passed else 2


def _recipe_options(parser, recipe: str, *keys):
    """Add `--key` (`_` written `-`) for each of `keys`, or for every key of
    `recipe`'s table: no type, no choices and no default, so a value
    reaches `parse_params` as text, as a `reproduce --set` value does."""
    for key in keys or experiments.PARAMETERS[recipe]:
        parser.add_argument("--" + key.replace("_", "-"), dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmux",
        description="Relative-multiplexing simulation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analytics", help="closed-form multiplexing accounting")
    pa.add_argument("--mode", choices=["table", "waste"], default="table")
    _recipe_options(pa, "table1")
    pa.add_argument("--ps")
    pa.add_argument("--etas", nargs="+")
    pa.add_argument("--out")
    pa.set_defaults(func=_cmd_analytics)

    pm = sub.add_parser("match", help="two-stream matching statistics")
    _recipe_options(pm, "fig4", "p", "bins", "reps")
    pm.add_argument("--switches", default=4)
    pm.add_argument("--strategy", choices=list(matching.STRATEGIES),
                    default="realistic")
    pm.add_argument("--seed", default=1234)
    pm.add_argument("--stream1", help="stream fixture file (single-instance mode)")
    pm.add_argument("--stream2", help="stream fixture file (single-instance mode)")
    pm.add_argument("--dump-routes", help="write the routing trace CSV here")
    pm.add_argument("--out")
    pm.set_defaults(func=_cmd_match)

    pb = sub.add_parser("bell", help="Bell-state rate comparison")
    pb.add_argument("--scheme", choices=["standard", "rmux", "both"],
                    default="both")
    _recipe_options(pb, "fig7")
    pb.add_argument("--seed", default=1234)
    pb.add_argument("--out")
    pb.set_defaults(func=_cmd_bell)

    pp = sub.add_parser("percolate", help="diamond-lattice percolation")
    pp.add_argument("--mode", choices=["prob", "threshold", "frontier"],
                    default="prob")
    pp.add_argument("--scheme", choices=["rmux", "standard"], default="rmux")
    _recipe_options(pp, "fig9_frontier")
    _recipe_options(pp, "fig8_thresholds", "a_l")
    pp.add_argument("--p-l")
    pp.add_argument("--equal-ancilla-loss", action="store_true",
                    help="scan ancilla loss jointly at the photon rate")
    pp.add_argument("--seed", default=1234)
    pp.add_argument("--out")
    pp.set_defaults(func=_cmd_percolate)

    pr = sub.add_parser("reproduce", help="run a named figure/table recipe")
    pr.add_argument("figure", choices=list(experiments.EXPERIMENTS))
    pr.add_argument("--seed", default=1234)
    pr.add_argument("--out", default="out")
    pr.add_argument("--config", help="flat key=value parameter file")
    pr.add_argument("--set", action="append", metavar="KEY=VALUE",
                    help="parameter override (repeatable)")
    pr.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The options that are not recipe keys, typed as `parse_params` types
        # a recipe key, before any work.
        kinds = {"seed": int, "switches": int, "ps": float, "p_l": float}
        vars(args).update(experiments.parse_params(kinds, _given(args))[0])
        # A simple command's output files; `reproduce` checks its directory.
        for name in ("out", "dump_routes") if args.command != "reproduce" else ():
            path = getattr(args, name, None)
            if path:
                experiments.check_output_path(
                    Path(path), f"--{name.replace('_', '-')}", is_file=True)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
