import hashlib
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import rmux
from rmux import percolation
from rmux.cli import main
from rmux.experiments import (
    EXPERIMENTS,
    PARAMETERS,
    ExperimentConfig,
    load_config_file,
    parse_params,
    run_experiment,
)
from rmux.matching import STRATEGIES
from rmux.streams import generate_stream, stream_to_text


def test_analytics_table(capsys):
    assert main(["analytics", "--mode", "table"]) == 0
    out = capsys.readouterr().out
    assert "stage1_hsps,0.1,0.99,44,64,7,6.4" in out
    assert "16384" in out


def test_analytics_waste(capsys):
    assert main(["analytics", "--mode", "waste", "--ps", "0.93",
                 "--etas", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "0.93,0.1,50.2,64,256" in out


def _recipe_csv(tmp_path, experiment, params, seed=1234):
    """Text of a recipe's first CSV file, run at `params` and `seed`."""
    bundle = run_experiment(ExperimentConfig(experiment, params, seed,
                                             tmp_path / experiment))
    return bundle.csv_paths[0].read_text()


@pytest.mark.parametrize("argv, params", [
    ([], {}),
    (["--eta", "0.01", "--p1", "0.98"], {"eta": "0.01", "p1": "0.98"}),
])
def test_analytics_table_prints_table1_csv(tmp_path, capsys, argv, params):
    assert main(["analytics", "--mode", "table"] + argv) == 0
    assert capsys.readouterr().out == _recipe_csv(tmp_path, "table1", params)


def test_analytics_waste_prints_fig2_rows(tmp_path, capsys):
    assert main(["analytics", "--mode", "waste", "--ps", "0.93",
                 "--etas", "0.1", "0.001"]) == 0
    header, *rows = _recipe_csv(tmp_path, "fig2", {}).splitlines()
    want = [header] + [r for r in rows
                       if r.split(",")[:2] in (["0.93", "0.1"], ["0.93", "0.001"])]
    assert capsys.readouterr().out.splitlines() == want


def test_bell_prints_fig7_csv(tmp_path, capsys):
    assert main(["bell", "--budgets", "5:7", "--bins", "500", "--reps", "2",
                 "--seed", "3"]) == 0
    assert capsys.readouterr().out == _recipe_csv(
        tmp_path, "fig7", {"budgets": "5,6,7", "bins": "500", "reps": "2"}, 3)


def test_match_aggregate_prints_fig6_row(tmp_path, capsys):
    assert main(["match", "--strategy", "hungarian_with_clash",
                 "--switches", "3", "--bins", "200", "--reps", "3",
                 "--seed", "4"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fig6 = _recipe_csv(tmp_path, "fig6", {"switches": "3", "bins": "200",
                                          "reps": "3"}, 4).splitlines()
    assert header == fig6[0]
    assert row.startswith("hungarian_with_clash,3,") and row in fig6[1:]


@pytest.mark.parametrize("experiment, params", [
    ("table1", {}),
    ("fig2", {"etas": "0.1", "ps_min": "0.92"}),
    ("fig4", {"reps": "2", "switches": "1,3", "bins": "100"}),
    ("fig6", {"reps": "2", "switches": "1,3", "bins": "100"}),
    ("fig7", {"reps": "1", "budgets": "5,6", "bins": "300"}),
    ("fig8_thresholds", {"L": "4", "trials": "30", "finite_size_L": ""}),
    ("fig9_frontier", {"L": "6", "trials": "30", "a_l_grid": "0,0.01"}),
])
def test_recipe_csv_rows_have_header_width(tmp_path, experiment, params):
    bundle = run_experiment(ExperimentConfig(experiment, params, 3, tmp_path))
    for path in bundle.csv_paths:
        header, *rows = path.read_text().splitlines()
        assert rows, path.name
        assert {len(r.split(",")) for r in rows} == {len(header.split(","))}, (
            path.name)


# fig8 at L = 10, 6 and 14, where some censored trials are drawn again
# (`test_the_pinned_fig8_run_redraws_trials`).
_FIG8_REDRAWS = {"L": "10", "finite_size_L": "6,14", "trials": "200",
                 "finite_size_trials": "100"}


# sha256 of each recipe's CSVs, in write order, at these parameters: a
# refactor must leave these bytes unchanged.
@pytest.mark.parametrize("experiment, params, seed, sha256", [
    ("table1", {}, 1234,
     "9a39e342703550d8696f19a1fbf8fbb279f5bea2b89c18ee9637be1c5d91f8c2"),
    ("fig2", {}, 1234,
     "d054450a0ea2c40cf6527886576e4caaba4317f73f54587794562b8501173073"),
    ("fig8_thresholds", {"L": "6", "trials": "100", "finite_size_L": "4",
                         "finite_size_trials": "60"}, 20170324,
     "9ab1b3f53b8f805fd6bb395bb826e6f134de11bbd8010f772b9ac34a2882d892"),
    # Both repair clashing assignments at s = 4..8.
    ("fig4", {"bins": "300", "reps": "12"}, 20170324,
     "954a3967ff2ee9bc0e89878721991e109246a7d0b721230891e57a7e86d83ec3"),
    ("fig6", {"bins": "300", "reps": "8"}, 20170324,
     "27d0ead5351e8155f2f7a83b043c18c5996b325303e26c899bc4290d1a3f3669"),
    # The frontier and its fit.
    ("fig9_frontier", {"L": "6", "trials": "60", "a_l_grid": "0,0.01,0.02"},
     20170324,
     "b96b6beab5f75ae05f4c3f120ac28af1bbdd111afafed6fd67f0e84b0780a0d9"),
    ("fig8_thresholds", _FIG8_REDRAWS, 1,
     "6b7045b8a75d9b999133a90665afae74d171803c818b0d0adf266240505a2b1e"),
])
def test_recipe_csv_bytes_pinned(tmp_path, experiment, params, seed, sha256):
    bundle = run_experiment(ExperimentConfig(experiment, params, seed,
                                             tmp_path))
    data = b"".join(path.read_bytes() for path in bundle.csv_paths)
    assert hashlib.sha256(data).hexdigest() == sha256


def test_the_pinned_fig8_run_redraws_trials(tmp_path, monkeypatch):
    draws = []
    levels = percolation._fusion_levels

    def counting(*args):
        draws.append(args[0].L)
        return levels(*args)

    monkeypatch.setattr(percolation, "_fusion_levels", counting)
    run_experiment(ExperimentConfig("fig8_thresholds", _FIG8_REDRAWS, 1,
                                    tmp_path))
    assert len(draws) > 200 + 2 * 100


# sha256 of `percolate --mode prob` stdout: one run with a heralded kill
# chance and ancilla loss, one on the standard scheme; 61 trials end in a
# partial block.
@pytest.mark.parametrize("argv, sha256", [
    (["--L", "6", "--trials", "61", "--p-l", "0.08", "--a-l", "0.01",
      "--heralded-site-kill-prob", "0.2", "--seed", "7"],
     "3ef1ef3bedf3b619a999fc1fde07d1796bb526e01f6a93d58855a6c7e8f86bfd"),
    (["--scheme", "standard", "--L", "6", "--trials", "61", "--p-l", "0.06",
      "--heralded-site-kill-prob", "0", "--seed", "7"],
     "ed338e0a619d78bb98362133fec3e29fec3dd21e2fe7c1286dad60c7e06de24d"),
])
def test_percolate_prob_bytes_pinned(capsys, argv, sha256):
    assert main(["percolate", "--mode", "prob", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_match_aggregate(capsys):
    assert main(["match", "--p", "0.1", "--switches", "3", "--bins", "200",
                 "--reps", "4", "--seed", "3"]) == 0
    header, row = capsys.readouterr().out.strip().splitlines()
    assert header.startswith("strategy,switches,matched_fraction")
    assert row.startswith("realistic,3,")


def test_match_fixture_files(tmp_path, capsys):
    f1 = tmp_path / "s1.txt"
    f2 = tmp_path / "s2.txt"
    f1.write_text(stream_to_text(generate_stream(0.3, 40, 1)))
    f2.write_text(stream_to_text(generate_stream(0.3, 40, 2)))
    routes = tmp_path / "routes.csv"
    assert main(["match", "--stream1", str(f1), "--stream2", str(f2),
                 "--switches", "3", "--dump-routes", str(routes)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("kind,")
    assert routes.read_text().startswith(
        "photon_id,arrival_bin,delay,stage,rail,bin_at_stage")


@pytest.mark.parametrize("header, message", [
    ("p=0.3 n=40", "error: stream header needs seed=<int>, got 'p=0.3 n=40'"),
    ("p=x seed=1 n=40",
     "error: stream header needs p=<float>, got 'p=x seed=1 n=40'"),
    ("p=0.3 seed=1 n=4x0",
     "error: stream header needs n=<int>, got 'p=0.3 seed=1 n=4x0'"),
    ("p=0.3 seed7 n=40",
     "error: stream header needs seed=<int>, got 'p=0.3 seed7 n=40'"),
    ("p=0.3 seed=1 n=0", "error: n_bins must be >= 1, got 0"),
])
def test_match_rejects_bad_fixture_header(tmp_path, capsys, header, message):
    fixture = tmp_path / "s1.txt"
    fixture.write_text(header + "\n" + "01" * 20 + "\n")
    assert main(["match", "--stream1", str(fixture)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def test_bell_csv(capsys):
    assert main(["bell", "--budgets", "5,6", "--bins", "500", "--reps", "2",
                 "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 + 4      # header + 2 budgets x 2 schemes
    assert lines[1].startswith("standard,5,")


def test_percolate_prob(capsys):
    assert main(["percolate", "--mode", "prob", "--L", "4", "--trials", "30",
                 "--p-l", "0.02", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "scheme,L,p_l,a_l,perc_prob,stderr"
    assert lines[1].startswith("rmux,4,0.02,0,")


def test_percolate_semantics_override(capsys):
    probs = []
    for kill in ("0", "1.0"):
        assert main(["percolate", "--mode", "prob", "--L", "4", "--trials",
                     "40", "--p-l", "0.0", "--heralded-site-kill-prob", kill,
                     "--seed", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        probs.append(float(lines[1].split(",")[4]))
    # the override must reach the sampler: max heralded damage breaks the
    # otherwise certain zero-loss spanning
    assert probs[0] == 1.0
    assert probs[1] < probs[0]


def _forbid_sampling(monkeypatch):
    def no_draws(*args, **kwargs):
        raise AssertionError("lattice sampled")

    monkeypatch.setattr("rmux.percolation._fusion_levels", no_draws)


@pytest.mark.parametrize("args", [
    ["percolate", "--mode", "threshold", "--L", "4", "--trials", "0"],
    ["percolate", "--mode", "frontier", "--L", "4", "--trials", "0"],
    ["reproduce", "fig8_thresholds", "--set", "trials=0"],
    ["reproduce", "fig9_frontier", "--set", "trials=0"],
])
def test_threshold_with_no_trials_names_the_trial_count(args, capsys,
                                                        monkeypatch, tmp_path):
    _forbid_sampling(monkeypatch)
    out = ["--out", str(tmp_path)] if args[0] == "reproduce" else []
    assert main(args + out) == 1
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"


@pytest.mark.parametrize("args, error", [
    (["fig8_thresholds", "--set", "a_l=2"], "a_l must be in [0, 1], got 2.0"),
    (["fig9_frontier", "--set", "a_l_grid=0,2"],
     "a_l must be in [0, 1], got 2.0"),
    (["fig8_thresholds", "--set", "finite_size_L=1"],
     "lattice needs L >= 2 cells per axis, got 1"),
    (["fig8_thresholds", "--set", "finite_size_L=6,0"],
     "lattice needs L >= 2 cells per axis, got 0"),
], ids=["fig8_a_l", "fig9_a_l_grid", "fig8_finite_size_L", "fig8_second_size"])
def test_threshold_recipes_reject_bad_loss_inputs_before_sampling(
        args, error, capsys, monkeypatch, tmp_path):
    # At the defaults the L = 10 pass would run first.
    _forbid_sampling(monkeypatch)
    assert main(["reproduce"] + args + ["--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"


# A rate out of [0, 1] is named as the code reads it, whichever key or
# option set it, before any lattice is sampled or directory made.
@pytest.mark.parametrize("argv, message", [
    (["percolate", "--p-l", "1.5"], "p_l must be in [0, 1], got 1.5"),
    (["percolate", "--mode", "threshold", "--a-l", "-0.5"],
     "a_l must be in [0, 1], got -0.5"),
    (["reproduce", "fig4", "--set", "p=1.5"], "p must be in [0, 1], got 1.5"),
    (["match", "--p", "1.5"], "p must be in [0, 1], got 1.5"),
], ids=["percolate_p_l", "percolate_a_l", "fig4_p", "match_p"])
def test_out_of_range_rates_name_themselves(tmp_path, capsys, monkeypatch,
                                            argv, message):
    _forbid_sampling(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_fig8_with_no_finite_size_trials_names_the_trial_count(capsys,
                                                               tmp_path):
    assert main(["reproduce", "fig8_thresholds", "--set", "L=4", "--set",
                 "trials=20", "--set", "finite_size_L=3", "--set",
                 "finite_size_trials=0", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: trials must be >= 1, got 0\n"


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fig8_rejects_finite_size_trials_before_any_threshold(
        trials, capsys, monkeypatch, tmp_path):
    # At the defaults the L = 10 pass would run first.
    _forbid_sampling(monkeypatch)
    assert main(["reproduce", "fig8_thresholds", "--set",
                 f"finite_size_trials={trials}", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: trials must be >= 1, got {trials}\n")


def test_fig8_reads_no_finite_size_trials_without_finite_sizes(tmp_path):
    assert main(["reproduce", "fig8_thresholds", "--set", "L=4", "--set",
                 "trials=30", "--set", "finite_size_L=", "--set",
                 "finite_size_trials=0", "--out", str(tmp_path)]) in (0, 2)


def test_percolate_frontier_grid_error_names_the_option(capsys, monkeypatch):
    _forbid_sampling(monkeypatch)
    assert main(["percolate", "--mode", "frontier", "--L", "4", "--trials",
                 "10", "--a-l-grid", "0,x"]) == 1
    assert capsys.readouterr().err == (
        "error: each a_l_grid entry must be a number, got 'x'\n")


@pytest.mark.parametrize("budgets, message", [
    ("5,x", "error: each budgets entry must be an integer, got 'x'"),
    ("5:x", "error: each budgets entry must be an integer, got 'x'"),
    ("x:9", "error: each budgets entry must be an integer, got 'x'"),
    ("9:5", "error: budgets range '9:5' is empty"),
])
def test_bell_budget_errors_name_the_option(capsys, forbid_streams, budgets,
                                            message):
    assert main(["bell", "--budgets", budgets, "--reps", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["--budgets", "12,4"],
     "error: no feasible stage split for scheme 'standard' with 4 switches"),
    (["--scheme", "rmux", "--budgets", "5,2"],
     "error: no feasible stage split for scheme 'rmux' with 2 switches"),
    (["--reps", "0"], "error: reps must be >= 1, got 0"),
    (["--bins", "0"], "error: bins must be >= 1, got 0"),
    (["--p1", "1.5"], "error: p1 must be in [0, 1], got 1.5"),
    (["--budgets", "6,6"], "error: budget 6 is repeated"),
    (["--budgets", "8,6,8"], "error: budget 8 is repeated"),
    (["--scheme", "rmux", "--budgets", "67"],
     "error: scheme 'rmux' with 67 switches needs a 65-switch stage; a "
     "network has at most 64 switches"),
])
def test_bell_rejects_bad_sweep_before_sampling(capsys, forbid_streams, argv,
                                                message):
    assert main(["bell", "--reps", "1", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""


def _match_row(capsys, strategy: str, switches: int) -> list:
    assert main(["match", "--strategy", strategy, "--reps", "20", "--bins",
                 "100", "--p", "0.3", "--switches", str(switches)]) == 0
    return capsys.readouterr().out.splitlines()[1].split(",")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_match_row_is_the_same_in_any_network_that_reaches_every_pair(
        capsys, strategy):
    # From s = 8 (delays up to 127) every pair of 100-bin streams is in
    # reach, so a larger network matches the same pairs.
    want = _match_row(capsys, strategy, 8)
    for s in (50, 63, 64):
        got = _match_row(capsys, strategy, s)
        assert got[1] == str(s)
        assert got[:1] + got[2:] == want[:1] + want[2:], s


@pytest.mark.parametrize("argv, message", [
    (["reproduce", "fig4", "--set", "switches=3,3"],
     "error: switch count 3 is repeated"),
    (["reproduce", "fig6", "--set", "switches=2,5,2"],
     "error: switch count 2 is repeated"),
    (["reproduce", "fig4", "--set", "switches=4,65"],
     "error: switch count must be in [1, 64], got 65"),
    (["match", "--switches", "65"],
     "error: switch count must be in [1, 64], got 65"),
])
def test_two_stream_rejects_bad_switches_before_sampling(
        tmp_path, capsys, forbid_streams, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not any(path.is_file() for path in tmp_path.rglob("*"))


def test_reproduce_fig7_rejects_repeated_budget(tmp_path, capsys,
                                               forbid_streams):
    assert main(["reproduce", "fig7", "--out", str(tmp_path),
                 "--set", "budgets=6,6"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: budget 6 is repeated\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("grid", ["0.01,0.01", "0.01"])
def test_percolate_frontier_rejects_degenerate_grid(grid, capsys,
                                                    monkeypatch):
    _forbid_sampling(monkeypatch)
    assert main(["percolate", "--mode", "frontier", "--L", "4", "--trials",
                 "10", "--a-l-grid", grid]) == 1
    assert ("error: a_l grid needs at least two distinct values"
            in capsys.readouterr().err)


# An option the chosen mode never reads is rejected by name before anything
# is sampled or written, instead of being ignored.
@pytest.mark.parametrize("argv, message", [
    (["match", "--reps", "2", "--bins", "50", "--dump-routes", "routes.csv"],
     "error: --dump-routes is not read by match without --stream1 or "
     "--stream2"),
    (["analytics", "--mode", "table", "--etas", "0.1"],
     "error: --etas is not read by analytics --mode table"),
    (["analytics", "--mode", "waste", "--eta", "0.1"],
     "error: --eta is not read by analytics --mode waste"),
    (["analytics", "--mode", "waste", "--p1", "0.9", "--p2", "0.9"],
     "error: --p1 is not read by analytics --mode waste"),
    (["analytics", "--mode", "waste", "--p2", "0.9"],
     "error: --p2 is not read by analytics --mode waste"),
    (["percolate", "--L", "4", "--trials", "10", "--equal-ancilla-loss"],
     "error: --equal-ancilla-loss is not read by percolate --mode prob"),
    (["percolate", "--mode", "frontier", "--L", "4", "--trials", "10",
      "--equal-ancilla-loss"],
     "error: --equal-ancilla-loss is not read by percolate --mode frontier"),
    (["analytics", "--mode", "table", "--ps", "0.5"],
     "error: --ps is not read by analytics --mode table"),
    # A value that parses to 0.0 is set all the same.
    (["analytics", "--mode", "table", "--ps", "0"],
     "error: --ps is not read by analytics --mode table"),
    # Rejected before either (missing) stream file is read.
    (["match", "--stream1", "s1.txt", "--stream2", "s2.txt", "--reps", "2"],
     "error: --reps is not read by match with --stream1 or --stream2"),
    (["percolate", "--L", "4", "--trials", "10", "--target", "0.3"],
     "error: --target is not read by percolate --mode prob"),
    (["percolate", "--L", "4", "--trials", "10", "--a-l-grid", "0,x"],
     "error: --a-l-grid is not read by percolate --mode prob"),
    (["percolate", "--mode", "threshold", "--L", "4", "--trials", "10",
      "--p-l", "0.01"],
     "error: --p-l is not read by percolate --mode threshold"),
    (["percolate", "--mode", "threshold", "--L", "4", "--trials", "10",
      "--a-l-grid", "0,0.01"],
     "error: --a-l-grid is not read by percolate --mode threshold"),
    # A value of 0 is set all the same.
    (["percolate", "--mode", "threshold", "--L", "4", "--trials", "10",
      "--equal-ancilla-loss", "--a-l", "0"],
     "error: --a-l is not read by percolate --mode threshold "
     "--equal-ancilla-loss"),
    (["percolate", "--mode", "frontier", "--L", "4", "--trials", "10",
      "--p-l", "0.01"],
     "error: --p-l is not read by percolate --mode frontier"),
    (["percolate", "--mode", "frontier", "--L", "4", "--trials", "10",
      "--a-l", "0.01"],
     "error: --a-l is not read by percolate --mode frontier"),
    # Rejected before any value is parsed, so the malformed one too.
    (["match", "--stream1", "a.txt", "--stream2", "b.txt", "--reps", "x"],
     "error: --reps is not read by match with --stream1 or --stream2"),
])
def test_options_the_mode_never_reads_are_rejected(
        tmp_path, capsys, monkeypatch, forbid_streams, argv, message):
    _forbid_sampling(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not list(tmp_path.iterdir())


def test_numeric_overrides_name_the_key(tmp_path):
    with pytest.raises(ValueError,
                       match="heralded_site_kill_prob must be a number, got 'abc'"):
        parse_params(PARAMETERS["fig8_thresholds"],
                     {"heralded_site_kill_prob": "abc"})
    config = ExperimentConfig(experiment="fig4", parameters={"reps": "1.5"},
                              output_dir=tmp_path)
    with pytest.raises(ValueError, match="reps must be an integer, got '1.5'"):
        run_experiment(config)


def test_reproduce_malformed_number_fails_before_probes(tmp_path, capsys,
                                                       monkeypatch):
    _forbid_sampling(monkeypatch)
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "trials=1.5"]) == 1
    assert ("error: trials must be an integer, got '1.5'"
            in capsys.readouterr().err)


@pytest.mark.parametrize("figure, override, message", [
    ("fig9_frontier", "a_l_grid=0,x",
     "error: each a_l_grid entry must be a number, got 'x'"),
    ("fig8_thresholds", "finite_size_L=6,x",
     "error: each finite_size_L entry must be an integer, got 'x'"),
    ("fig7", "budgets=5,",
     "error: each budgets entry must be an integer, got ''"),
    ("fig4", "switches=2.5",
     "error: each switches entry must be an integer, got '2.5'"),
    ("fig2", "etas=0.1,,0.01",
     "error: each etas entry must be a number, got ''"),
    # only finite_size_L may be empty
    ("fig4", "switches=", "error: each switches entry must be an integer, got ''"),
])
def test_reproduce_malformed_list_names_the_key(tmp_path, capsys,
                                                monkeypatch, figure,
                                                override, message):
    _forbid_sampling(monkeypatch)
    assert main(["reproduce", figure, "--out", str(tmp_path),
                 "--set", override]) == 1
    assert message in capsys.readouterr().err


def test_reproduce_empty_finite_sizes_means_none(tmp_path):
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "L=4", "--set", "trials=30",
                 "--set", "finite_size_L="]) in (0, 2)
    rows = (tmp_path / "fig8_thresholds.csv").read_text().splitlines()
    assert rows[0] == ("scheme,L,target,a_l,p_l_threshold,trials,"
                       "heralded_site_kill_prob")
    assert [r.split(",")[:2] for r in rows[1:]] == [["rmux", "4"],
                                                    ["standard", "4"]]


@pytest.mark.parametrize("override, message", [
    ("ps_step=0", "error: ps_step must be > 0, got 0.0"),
    ("ps_step=-0.01", "error: ps_step must be > 0, got -0.01"),
    ("ps_max=0.7", "error: ps_max must be >= ps_min"),
])
def test_reproduce_fig2_rejects_bad_grid(tmp_path, capsys, override, message):
    assert main(["reproduce", "fig2", "--out", str(tmp_path),
                 "--set", override]) == 1
    assert message in capsys.readouterr().err


# The optimizer's reach: both stages at 0.99, 0.99 ** 7.
_REACH = "0.9320653479"


# A stage target p_s must lie in (0, 1), and an overall one within the
# optimizer's reach; every grid point is checked before the first row, and
# the key the user set is named.
@pytest.mark.parametrize("argv, message", [
    (["reproduce", "fig2", "--set", "ps_min=-0.01", "--set", "ps_max=0"],
     "ps_min must be in (0, 1), got -0.01"),
    (["reproduce", "fig2", "--set", "ps_min=0"],
     "ps_min must be in (0, 1), got 0.0"),
    (["reproduce", "fig2", "--set", "ps_max=1"],
     "ps_max must be in (0, 1), got 1.0"),
    (["reproduce", "fig2", "--set", "ps_max=1.2", "--set", "ps_step=0.1"],
     "ps_max must be in (0, 1), got 1.2"),
    (["analytics", "--mode", "waste", "--ps", "-1"],
     "--ps must be in (0, 1), got -1.0"),
    (["analytics", "--mode", "waste", "--ps", "0"],
     "--ps must be in (0, 1), got 0.0"),
    (["analytics", "--mode", "waste", "--ps", "1"],
     "--ps must be in (0, 1), got 1.0"),
    (["reproduce", "table1", "--set", "p1=1.5"],
     "p1 must be in (0, 1), got 1.5"),
    (["reproduce", "table1", "--set", "p2=0"], "p2 must be in (0, 1), got 0.0"),
    (["analytics", "--p2", "0"], "p2 must be in (0, 1), got 0.0"),
    (["analytics", "--mode", "table", "--p1", "1"],
     "p1 must be in (0, 1), got 1.0"),
    (["reproduce", "fig2", "--set", "ps_max=0.95"],
     f"ps_max must be at most {_REACH} (both stages at 0.99), got 0.95"),
    (["reproduce", "fig2", "--set", "ps_min=0.935", "--set", "ps_max=0.94"],
     f"ps_min must be at most {_REACH} (both stages at 0.99), got 0.935"),
    (["analytics", "--mode", "waste", "--ps", "0.94"],
     f"--ps must be at most {_REACH} (both stages at 0.99), got 0.94"),
])
def test_stage_targets_outside_0_1_name_their_key(tmp_path, capsys,
                                                  monkeypatch, argv, message):
    def no_rows(*args, **kwargs):
        raise AssertionError("a fig2 row was worked out")

    monkeypatch.setattr("rmux.mux_analytics.unused_potential", no_rows)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "out").exists()


def test_the_optimizers_reach_is_itself_a_target(capsys):
    reach = repr(0.99 ** 6 * 0.99)
    assert main(["analytics", "--mode", "waste", "--ps", reach, "--etas",
                 "0.1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    got = dict(zip(header.split(","), row.split(",")))
    assert (got["best_p1"], got["best_p2"]) == ("0.99", "0.99")


@pytest.mark.parametrize("overrides, last_ps", [
    ([], "0.93"),
    (["ps_min=0.90", "ps_step=0.01"], "0.93"),
    # 0.13 / 0.028 rounds up to 5 steps, past ps_max
    (["ps_step=0.028"], "0.912"),
])
def test_reproduce_fig2_grid_stops_at_ps_max(tmp_path, overrides, last_ps):
    argv = ["reproduce", "fig2", "--out", str(tmp_path), "--set", "etas=0.1"]
    assert main(argv + [x for o in overrides for x in ("--set", o)]) == 0
    rows = (tmp_path / "fig2_unused_potential.csv").read_text().splitlines()
    assert rows[-1].split(",")[0] == last_ps


# Every key that each recipe read before it had a table, in the table's
# order, with the value it defaulted to, written as an override. The heralded
# site kill chance defaults to the calibrated value.
_LATTICE_KEYS = {"target": "0.90", "L": "10", "trials": "2000",
                 "heralded_site_kill_prob": "0.45"}
_TWO_STREAM_KEYS = {"p": "0.1", "switches": "1,2,3,4,5,6,7,8", "bins": "1000",
                    "reps": "100"}
RECIPE_KEYS = {
    "table1": {"eta": "0.1", "p1": "0.99", "p2": "0.99"},
    "fig2": {"etas": "0.1,0.01,0.001", "ps_min": "0.80", "ps_max": "0.93",
             "ps_step": "0.005"},
    "fig4": _TWO_STREAM_KEYS,
    "fig6": _TWO_STREAM_KEYS,
    "fig7": {"p1": "0.1", "budgets": "5:16", "bins": "10000", "reps": "100"},
    "fig8_thresholds": {**_LATTICE_KEYS, "a_l": "0", "finite_size_L": "6,14",
                        "finite_size_trials": "600"},
    "fig9_frontier": {**_LATTICE_KEYS,
                      "a_l_grid": "0,0.005,0.01,0.015,0.02,0.025"},
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_each_recipe_reads_its_keys_at_their_defaults(experiment):
    given = RECIPE_KEYS[experiment]
    assert list(PARAMETERS[experiment]) == list(given)
    defaults, unread = parse_params(PARAMETERS[experiment], {})
    assert unread == []
    values, unread = parse_params(PARAMETERS[experiment], given)
    assert unread == []
    # repr tells 0 from 0.0, and a list of ints from one of floats
    assert {k: repr(values[k]) for k in defaults} == {
        k: repr(v) for k, v in defaults.items()}
    kill = "heralded_site_kill_prob"
    if kill in given:
        assert (percolation.OutcomeSemantics(defaults[kill])
                == percolation.calibrated_semantics()
                == percolation.OutcomeSemantics(values[kill]))


def _forbid_all_work(monkeypatch):
    """Make stream and lattice sampling and the table1 and fig2 analytics
    fail."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("rmux.streams.generate_stream",
                 "rmux.mux_sim.generate_stream",
                 "rmux.percolation._fusion_levels",
                 "rmux.mux_analytics.unused_potential",
                 "rmux.mux_analytics.ghz_report"):
        monkeypatch.setattr(name, no_work)


@pytest.mark.parametrize("figure, key", [
    ("fig8_thresholds", "tolernce"),
    ("fig4", "seed"),
    ("fig2", "p_min"),
    ("fig7", "heralded_site_kill_prob"),
    # the loss model's removed keys: its preset's name and the
    # OutcomeSemantics fields that are gone
    *((figure, key) for figure in ("fig8_thresholds", "fig9_frontier")
      for key in ("semantics", "heralded_bond_connect_prob",
                  "loss_kills_owner_site", "standard_loss_damages_both_ends")),
])
def test_reproduce_rejects_a_key_the_recipe_does_not_read(
        tmp_path, capsys, monkeypatch, figure, key):
    _forbid_all_work(monkeypatch)
    assert main(["reproduce", figure, "--out", str(tmp_path / "out"),
                 "--set", f"{key}=0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {figure} does not read {key}; it reads "
                            f"{', '.join(RECIPE_KEYS[figure])}\n")
    assert captured.out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("figure", EXPERIMENTS)
def test_reproduce_rejects_unread_config_keys_of_every_recipe(
        tmp_path, capsys, monkeypatch, figure):
    _forbid_all_work(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("tolerance=0.002\nbogus=1\n")
    assert main(["reproduce", figure, "--out", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {figure} does not read tolerance, bogus; it reads ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("figure, override", [
    ("fig9_frontier", "a_l_grid=0,0"),
    ("fig8_thresholds", "a_l=2"),
])
def test_a_recipe_that_fails_after_parsing_leaves_no_output_dir(
        tmp_path, capsys, monkeypatch, figure, override):
    # Both values parse; the recipe rejects them.
    _forbid_all_work(monkeypatch)
    assert main(["reproduce", figure, "--set", override, "--out",
                 str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_an_output_path_through_a_file_fails_before_any_work(
        tmp_path, capsys, monkeypatch):
    _forbid_all_work(monkeypatch)
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / "x" / "y"
    assert main(["reproduce", "fig8_thresholds", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output directory {out}: {blocker} is "
                            "not a directory\n")
    assert list(tmp_path.iterdir()) == [blocker]
    assert blocker.read_text() == "kept\n"


# Each simple command that samples or computes, with an --out file.
_SIMPLE_COMMANDS = {
    "percolate_threshold": ["percolate", "--mode", "threshold", "--L", "10",
                            "--trials", "1500"],
    "percolate_prob": ["percolate", "--mode", "prob", "--L", "4"],
    "bell": ["bell", "--reps", "2", "--bins", "50"],
    "match": ["match", "--reps", "2", "--bins", "50"],
    "analytics_waste": ["analytics", "--mode", "waste"],
}


@pytest.mark.parametrize("where", ["missing_dir", "a_dir", "through_a_file"])
@pytest.mark.parametrize("command", list(_SIMPLE_COMMANDS))
def test_a_simple_commands_out_file_is_checked_before_any_work(
        tmp_path, capsys, monkeypatch, command, where):
    _forbid_all_work(monkeypatch)
    (tmp_path / "F").write_text("kept\n")
    out, message = {
        "missing_dir": (tmp_path / "none" / "x.csv",
                        f"directory {tmp_path / 'none'} does not exist"),
        "a_dir": (tmp_path, "is a directory"),
        "through_a_file": (tmp_path / "F" / "x.csv",
                           f"{tmp_path / 'F'} is not a directory"),
    }[where]
    assert main([*_SIMPLE_COMMANDS[command], "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --out {out}: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["F"]


def test_match_dump_routes_is_checked_before_any_work(tmp_path, capsys,
                                                      monkeypatch):
    for i in (1, 2):
        (tmp_path / f"s{i}.txt").write_text(
            stream_to_text(generate_stream(0.3, 40, i)))

    def no_match(*args, **kwargs):
        raise AssertionError("streams matched")

    monkeypatch.setattr("rmux.mux_sim.match_streams", no_match)
    routes = tmp_path / "none" / "routes.csv"
    assert main(["match", "--stream1", str(tmp_path / "s1.txt"),
                 "--stream2", str(tmp_path / "s2.txt"), "--dump-routes",
                 str(routes)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --dump-routes {routes}: directory "
                            f"{routes.parent} does not exist\n")


@pytest.mark.parametrize("source", ["--set", "--config"])
def test_reproduce_rejects_a_key_given_twice(tmp_path, capsys, monkeypatch,
                                             source):
    _forbid_all_work(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("reps=2\nbins=100\nreps=1\n")
    given = (["--set", "reps=2", "--set", "reps=1"] if source == "--set"
             else ["--config", str(cfg)])
    assert main(["reproduce", "fig7", "--out", str(tmp_path / "out"),
                 *given]) == 1
    named = "--set" if source == "--set" else str(cfg)
    assert capsys.readouterr() == ("", f"error: {named} sets reps twice; "
                                   "drop one\n")
    assert not (tmp_path / "out").exists()


# `{cfg}` stands for the config file's path.
@pytest.mark.parametrize("source, error", [
    ("--set", "--set needs key=value, got '=5'"),
    ("--config", "{cfg} needs key=value, got '=5'"),
])
def test_reproduce_rejects_an_empty_key(tmp_path, capsys, monkeypatch,
                                        source, error):
    _forbid_all_work(monkeypatch)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("=5\n")
    given = [source, "=5" if source == "--set" else str(cfg)]
    assert main(["reproduce", "fig7", "--out", str(tmp_path / "out"),
                 *given]) == 1
    assert capsys.readouterr() == ("", f"error: {error.format(cfg=cfg)}\n")
    assert not (tmp_path / "out").exists()


# `{cfg}` stands for the file's path, which each error names.
@pytest.mark.parametrize("text, error", [
    ("reps=2\n  = 5 # no key\n", "{cfg} needs key=value, got '= 5'"),
    ("reps\n", "{cfg} needs key=value, got 'reps'"),
    ("reps=2\n# reps=9\nbins=100\nreps = 1\n",
     "{cfg} sets reps twice; drop one"),
], ids=["no_key", "no_equals", "repeated_key"])
def test_load_config_file_names_the_file(tmp_path, text, error):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError) as err:
        load_config_file(cfg)
    assert str(err.value) == error.format(cfg=cfg)


def test_fig7_budget_past_the_switch_limit_names_the_budget(
        tmp_path, capsys, monkeypatch, forbid_streams):
    # 70 switches split (1, 66) in the standard scheme: 66 is no value set.
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", "fig7", "--set", "budgets=5,70"]) == 1
    assert capsys.readouterr() == (
        "", "error: scheme 'standard' with 70 switches needs a 66-switch "
        "stage; a network has at most 64 switches\n")
    assert not (tmp_path / "out").exists()


def test_reproduce_set_overrides_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("eta=0.2\np1=0.99\n")
    assert main(["reproduce", "table1", "--out", str(tmp_path / "out"),
                 "--config", str(cfg), "--set", "eta=0.1"]) == 0
    summary = (tmp_path / "out" / "table1_summary.txt").read_text()
    assert [line for line in summary.splitlines()
            if line.startswith("override:")] == ["override: eta=0.1",
                                                 "override: p1=0.99"]
    assert "eta=0.1" in summary.splitlines()


def test_reproduce_strips_a_set_item_as_it_strips_a_config_line(tmp_path,
                                                                capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("eta =0.1\n")
    given = {"set": ["--set", " eta = 0.1"], "config": ["--config", str(cfg)]}
    for source, argv in given.items():
        assert main(["reproduce", "table1", "--out", str(tmp_path / source),
                     *argv]) == 0
        summary = (tmp_path / source / "table1_summary.txt").read_text()
        assert [line for line in summary.splitlines()
                if line.startswith("override:")] == ["override: eta=0.1"]
    assert (tmp_path / "set" / "table1.csv").read_bytes() == (
        tmp_path / "config" / "table1.csv").read_bytes()


def test_reproduce_prints_each_check_as_its_summary_lists_it(tmp_path,
                                                             capsys):
    # No Bell state at p1=0: the rates pass their bounds, their ratio fails.
    params = {"p1": "0", "reps": "2", "bins": "200"}
    bundle = run_experiment(ExperimentConfig("fig7", params, 1234,
                                             tmp_path / "lib"))
    assert main(["reproduce", "fig7", "--out", str(tmp_path / "cli"),
                 *(f"--set={key}={value}" for key, value in params.items())
                 ]) == 2
    printed = capsys.readouterr()
    summary = bundle.summary_path.read_text().splitlines()
    checks = [line.removeprefix("check ") for line in summary
              if line.startswith("check ")]
    assert checks == [check.line() for check in bundle.checks]
    assert printed.out.splitlines()[:len(checks)] == checks
    assert any(line.startswith("[FAIL] ") for line in checks)
    assert any(line.startswith("[PASS] ") for line in checks)


def test_run_experiment_lists_unread_keys_as_ignored(tmp_path):
    params = {"L": "4", "trials": "20", "finite_size_L": ""}
    plain = run_experiment(ExperimentConfig("fig8_thresholds", params, 5,
                                            tmp_path / "plain"))
    extra = run_experiment(ExperimentConfig(
        "fig8_thresholds", {**params, "tolerance": "0.002"}, 5,
        tmp_path / "extra"))
    assert [p.read_bytes() for p in extra.csv_paths] == [
        p.read_bytes() for p in plain.csv_paths]
    summary = extra.summary_path.read_text().splitlines()
    assert [line for line in summary if line.startswith(("override:",
                                                         "ignored:"))] == [
        "override: L=4", "override: finite_size_L=", "ignored: tolerance=0.002",
        "override: trials=20"]


# Values other than the defaults, between them of every kind: an empty list,
# an integer range and the heralded site kill chance.
_SUMMARY_OVERRIDES = {
    "table1": {"eta": "0.01", "p1": "0.98"},
    "fig2": {"etas": "0.5,0.01", "ps_min": "0.9", "ps_step": "0.01"},
    "fig4": {"p": "0.2", "switches": "2:4", "bins": "150", "reps": "3"},
    "fig6": {"p": "0", "switches": "1,3", "bins": "100", "reps": "2"},
    "fig7": {"p1": "0.2", "budgets": "5:8", "bins": "500", "reps": "2"},
    "fig8_thresholds": {"L": "4", "trials": "40", "finite_size_L": "",
                        "a_l": "0.01", "heralded_site_kill_prob": "0.1"},
    "fig9_frontier": {"L": "4", "trials": "40", "a_l_grid": "0,0.02",
                      "heralded_site_kill_prob": "0.5"},
}


# Floats with more digits than the CSVs print (`_fmt`), alone and in a list.
_SUMMARY_DIGITS = {
    "table1": {"eta": "0.123456789012"},
    "fig2": {"etas": "0.5,0.123456789012"},
}


@pytest.mark.parametrize("experiment, params", [
    *(pytest.param(e, {}, id=f"{e}-defaults") for e in EXPERIMENTS),
    *(pytest.param(e, _SUMMARY_OVERRIDES[e], id=f"{e}-overrides")
      for e in EXPERIMENTS),
    *(pytest.param(e, p, id=f"{e}-digits")
      for e, p in _SUMMARY_DIGITS.items()),
])
def test_summary_parameter_lines_parse_back_to_the_run_values(
        tmp_path, experiment, params):
    table = PARAMETERS[experiment]
    bundle = run_experiment(ExperimentConfig(experiment, dict(params), 5,
                                             tmp_path))
    summary = bundle.summary_path.read_text().splitlines()
    pairs = [line.split("=", 1) for line in summary
             if "=" in line.split(" ", 1)[0]]
    values = parse_params(table, params)[0]
    # one line per parsed value, and so per key, in the table's order
    assert [key for key, _ in pairs] == list(values) == list(table)
    # repr tells 0 from 0.0, and a list of ints from one of floats
    assert repr(parse_params(table, dict(pairs))) == repr((values, []))


def test_reproduce_table1(tmp_path, capsys):
    assert main(["reproduce", "table1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert (tmp_path / "table1.csv").exists()
    summary = (tmp_path / "table1_summary.txt").read_text()
    assert "check [PASS]" in summary and "FAIL" not in summary.replace(
        "[PASS]", "")


# Parameters can leave a recipe no reference check to run (table1 checks
# only its published point, fig2 only its anchor etas, fig4 only between
# switch counts, fig8 only at the lattice size of its bands): the run passes
# and says that nothing was checked.
@pytest.mark.parametrize("figure, overrides", [
    ("fig2", ["etas=0.5"]),
    ("fig4", ["switches=3", "reps=3", "bins=200"]),
    ("table1", ["eta=0.05"]),
    ("fig8_thresholds", ["L=4", "trials=50", "finite_size_L="]),
])
def test_reproduce_without_checks_says_none_applies(tmp_path, capsys, figure,
                                                    overrides):
    argv = ["reproduce", figure, "--out", str(tmp_path)]
    assert main(argv + [x for o in overrides for x in ("--set", o)]) == 0
    verdict = "result: PASS (no reference check applies)"
    assert capsys.readouterr().out.splitlines()[-1] == verdict
    summary = (tmp_path / f"{figure}_summary.txt").read_text().splitlines()
    assert summary[-1] == verdict
    assert not [line for line in summary if line.startswith("check ")]


def test_reproduce_fig8_names_the_lattice_size_of_its_bands(tmp_path):
    # The bands are for L=10: a run at L=4 checks nothing, and says for
    # which size the bands are.
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "L=4", "--set", "trials=50",
                 "--set", "finite_size_L="]) == 0
    summary = (tmp_path / "fig8_thresholds_summary.txt").read_text()
    lines = summary.splitlines()
    assert "L=4" in lines
    assert ("reference: fig8 tolerable-loss comparison at L=10, "
            "bands +/-0.015") in lines
    assert not [line for line in lines if line.startswith("check ")]
    assert lines[-1] == "result: PASS (no reference check applies)"


def test_fig8_csv_records_the_heralded_site_kill_chance_that_ran(tmp_path):
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "L=4", "--set", "trials=50",
                 "--set", "finite_size_L=",
                 "--set", "heralded_site_kill_prob=0.2"]) == 0
    header, *rows = (tmp_path / "fig8_thresholds.csv").read_text().splitlines()
    assert header.split(",")[-1] == "heralded_site_kill_prob"
    assert len(rows) == 2 and [r.split(",")[-1] for r in rows] == ["0.2"] * 2
    summary = (tmp_path / "fig8_thresholds_summary.txt").read_text()
    assert "heralded_site_kill_prob=0.2" in summary.splitlines()


@pytest.mark.parametrize("standard, relative, got, passed", [
    (0.0, 0.0, "nan", False),       # no Bell state from either scheme
    (0.0, 1e-4, "inf", True),
])
def test_fig7_rate_ratio_at_zero_rates(tmp_path, monkeypatch,
                                       standard, relative, got, passed):
    def sweep(values, seed):        # these rates at every budget
        return [], {(scheme, b): SimpleNamespace(bells_per_bin=rate)
                    for b in values["budgets"]
                    for scheme, rate in (("standard", standard),
                                         ("rmux", relative))}

    monkeypatch.setattr("rmux.experiments.bell_sweep", sweep)
    ratio = run_experiment(ExperimentConfig("fig7", {}, 1,
                                            tmp_path)).checks[-1]
    assert ratio.name == "rate ratio at 16 switches"
    assert (ratio.value, ratio.passed) == (got, passed)


def test_reproduce_unknown_experiment_fails():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig99"])


@pytest.mark.parametrize("option, value", [
    ("--semantics", "default"),
    ("--loss-kills-owner-site", "false"),
    ("--standard-loss-damages-both-ends", "false"),
    ("--heralded-bond-connect-prob", "0.5"),
])
def test_percolate_rejects_a_removed_semantics_option(capsys, monkeypatch,
                                                      option, value):
    # heralded_site_kill_prob is the loss model's one key, so argparse builds
    # no option for its preset's name or for the fields that are gone
    _forbid_sampling(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        main(["percolate", "--mode", "prob", "--L", "6", "--trials", "37",
              option, value])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {option} {value}" in (
        capsys.readouterr().err)


def test_reproduce_malformed_set_reports_error(tmp_path, capsys):
    assert main(["reproduce", "table1", "--out", str(tmp_path),
                 "--set", "badvalue"]) == 1
    assert "error: --set needs key=value" in capsys.readouterr().err


# The subcommand options named after recipe keys, as (subcommand argv, recipe,
# keys), where no keys stands for every key of the recipe's table; the mode
# given is one that reads each of the keys.
_RECIPE_OPTIONS = [
    (["analytics"], "table1", ()),
    (["match"], "fig4", ("p", "bins", "reps")),
    (["bell"], "fig7", ()),
    (["percolate", "--mode", "frontier"], "fig9_frontier", ()),
    (["percolate", "--mode", "prob"], "fig8_thresholds", ("a_l",)),
]
_RECIPE_OPTION_CASES = [(argv, recipe, key)
                        for argv, recipe, keys in _RECIPE_OPTIONS
                        for key in keys or PARAMETERS[recipe]]


# "x" is malformed for every kind of key: a number and a list.
@pytest.mark.parametrize(
    "argv, recipe, key", _RECIPE_OPTION_CASES,
    ids=[f"{argv[0]}-{key}" for argv, _recipe, key in _RECIPE_OPTION_CASES])
def test_a_malformed_recipe_option_fails_as_reproduce_set_does(
        tmp_path, capsys, monkeypatch, argv, recipe, key):
    _forbid_all_work(monkeypatch)
    assert main(["reproduce", recipe, "--set", f"{key}=x", "--out",
                 str(tmp_path / "out")]) == 1
    reproduced = capsys.readouterr()
    assert reproduced.out == "" and reproduced.err.startswith("error: ")
    assert main([*argv, "--" + key.replace("_", "-"), "x"]) == 1
    assert capsys.readouterr() == ("", reproduced.err)


# The options that are not recipe keys, with the error that the malformed
# value "x" gets.
_OTHER_OPTIONS = [
    (["analytics", "--mode", "waste", "--ps"], "ps must be a number"),
    (["match", "--seed"], "seed must be an integer"),
    (["match", "--switches"], "switches must be an integer"),
    (["bell", "--seed"], "seed must be an integer"),
    (["percolate", "--seed"], "seed must be an integer"),
    (["percolate", "--p-l"], "p_l must be a number"),
    (["reproduce", "table1", "--seed"], "seed must be an integer"),
]


@pytest.mark.parametrize(
    "argv, error", _OTHER_OPTIONS,
    ids=[f"{argv[0]}{argv[-1]}" for argv, _error in _OTHER_OPTIONS])
def test_a_malformed_option_that_is_no_recipe_key_fails_before_any_work(
        tmp_path, capsys, monkeypatch, argv, error):
    _forbid_all_work(monkeypatch)
    monkeypatch.chdir(tmp_path)             # where `reproduce` would write
    assert main([*argv, "x"]) == 1
    assert capsys.readouterr() == ("", f"error: {error}, got 'x'\n")
    assert not list(tmp_path.iterdir())


def test_reproduce_determinism_byte_identical(tmp_path):
    outputs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        assert main(["reproduce", "fig4", "--seed", "5", "--out", str(d),
                     "--set", "reps=4", "--set", "switches=1,3",
                     "--set", "bins=150"]) == 0
        outputs.append((d / "fig4_matching.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_config_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("# comment\nreps=3\nswitches=2\nbins=120\n")
    assert load_config_file(cfg) == {"reps": "3", "switches": "2",
                                     "bins": "120"}
    assert main(["reproduce", "fig4", "--config", str(cfg), "--out",
                 str(tmp_path / "o")]) == 0


def test_unwritable_output_dir(tmp_path):
    target = tmp_path / "file"
    target.write_text("x")
    config = ExperimentConfig(experiment="table1", output_dir=target)
    with pytest.raises(OSError):
        run_experiment(config)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nope")


def test_importing_the_package_and_cli_loads_no_scipy():
    # scipy takes ~1 s to import; only the assignment solve and thresholds
    # need it, and they import it when first called
    src = str(Path(rmux.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, rmux, rmux.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_importing_the_package_loads_no_module_and_no_numpy():
    # The package re-exports nothing: each name comes from its own module.
    src = str(Path(rmux.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, rmux; print(rmux.__version__, sorted(m for m in "
            "sys.modules if m.startswith('rmux.') or m.split('.')[0] == "
            "'numpy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == f"{rmux.__version__} []"


def test_no_clash_sweep_loads_no_scipy():
    # The no-clash optimum needs no solver, and this clash-heavy sweep
    # counts its clashes from each block's one clash scan.
    src = str(Path(rmux.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys; from rmux.cli import main; main(['match', "
            "'--strategy', 'hungarian_no_clash', '--p', '0.4', '--bins', "
            "'120', '--switches', '8', '--reps', '20']); print(sorted(m for m "
            "in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    header, row = out[0].split(","), out[1].split(",")
    assert row[0] == "hungarian_no_clash"
    assert float(row[header.index("clash_rate")]) > 0
    assert out[-1] == "[]"
