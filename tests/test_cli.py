import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmux
from rmux.cli import main
from rmux.experiments import (
    ExperimentConfig,
    load_config_file,
    run_experiment,
    semantics_from,
)
from rmux.mux_sim import STRATEGIES
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


# sha256 of each recipe's first CSV at these parameters: a refactor must
# leave these bytes unchanged.
@pytest.mark.parametrize("experiment, params, seed, sha256", [
    ("table1", {}, 1234,
     "9a39e342703550d8696f19a1fbf8fbb279f5bea2b89c18ee9637be1c5d91f8c2"),
    ("fig2", {}, 1234,
     "d054450a0ea2c40cf6527886576e4caaba4317f73f54587794562b8501173073"),
    ("fig8_thresholds", {"L": "6", "trials": "100", "finite_size_L": "4",
                         "finite_size_trials": "60"}, 20170324,
     "0c4e94a7cd6b6d65e4f19d97b22620f42ccf8837292777a35dd0884965fcda78"),
    # Both repair clashing assignments at s = 4..8.
    ("fig4", {"bins": "300", "reps": "12"}, 20170324,
     "954a3967ff2ee9bc0e89878721991e109246a7d0b721230891e57a7e86d83ec3"),
    ("fig6", {"bins": "300", "reps": "8"}, 20170324,
     "27d0ead5351e8155f2f7a83b043c18c5996b325303e26c899bc4290d1a3f3669"),
])
def test_recipe_csv_bytes_pinned(tmp_path, experiment, params, seed, sha256):
    bundle = run_experiment(ExperimentConfig(experiment, params, seed,
                                             tmp_path))
    assert hashlib.sha256(bundle.csv_paths[0].read_bytes()).hexdigest() == (
        sha256)


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
    for extra in ([], ["--heralded-site-kill-prob", "1.0"]):
        assert main(["percolate", "--mode", "prob", "--L", "4", "--trials",
                     "40", "--p-l", "0.0", "--semantics", "default",
                     "--seed", "2"] + extra) == 0
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


def test_percolate_threshold_rejects_non_monotone_semantics(capsys,
                                                           monkeypatch):
    # the calibrated preset's heralded kills without owner damage
    _forbid_sampling(monkeypatch)
    assert main(["percolate", "--mode", "threshold", "--L", "4", "--trials",
                 "10", "--loss-kills-owner-site", "false"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "loss_kills_owner_site" in err
    assert "heralded_site_kill_prob" in err


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
    (["fig8_thresholds", "--set", "a_l=2"], "loss rates must be in [0, 1]"),
    (["fig9_frontier", "--set", "a_l_grid=0,2"],
     "loss rates must be in [0, 1]"),
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
     "error: switch count must be in [1, 64], got 65"),
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
    (["analytics", "--mode", "table", "--p-min", "0.1"],
     "error: --p-min is not read by analytics --mode table"),
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
])
def test_options_the_mode_never_reads_are_rejected(
        tmp_path, capsys, monkeypatch, forbid_streams, argv, message):
    _forbid_sampling(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out.csv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n" and captured.out == ""
    assert not list(tmp_path.iterdir())


def test_semantics_booleans_parse_strictly():
    for word, value in (("1", True), ("TRUE", True), ("yes", True),
                        ("On", True), ("0", False), ("false", False),
                        ("NO", False), ("off", False)):
        _name, sem = semantics_from({"loss_kills_owner_site": word})
        assert sem.loss_kills_owner_site is value, word
    for word in ("ture", "", "2", "y"):
        with pytest.raises(ValueError, match="loss_kills_owner_site"):
            semantics_from({"loss_kills_owner_site": word})


def test_reproduce_misspelled_boolean_fails_before_probes(tmp_path, capsys,
                                                         monkeypatch):
    _forbid_sampling(monkeypatch)
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "loss_kills_owner_site=ture"]) == 1
    err = capsys.readouterr().err
    assert "error: loss_kills_owner_site must be a boolean" in err
    assert "'ture'" in err


def test_numeric_overrides_name_the_key(tmp_path):
    with pytest.raises(ValueError,
                       match="heralded_site_kill_prob must be a number, got 'abc'"):
        semantics_from({"heralded_site_kill_prob": "abc"})
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
    assert rows[0] == "scheme,L,target,a_l,p_l_threshold,trials,semantics"
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


@pytest.mark.parametrize("figure", ["table1", "fig2"])
def test_reproduce_trials_rejected_where_unused(tmp_path, capsys, figure):
    assert main(["reproduce", figure, "--trials", "5", "--out",
                 str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {figure} takes no repetition or trial count; drop --trials\n")
    assert not any(tmp_path.iterdir())


def test_reproduce_table1(tmp_path, capsys):
    assert main(["reproduce", "table1", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert (tmp_path / "table1.csv").exists()
    summary = (tmp_path / "table1_summary.txt").read_text()
    assert "check [PASS]" in summary and "FAIL" not in summary.replace(
        "[PASS]", "")


# Parameters can leave a recipe no reference check to run (fig2 checks only
# its anchor etas, fig4 only between switch counts): the run passes and says
# that nothing was checked.
@pytest.mark.parametrize("figure, overrides", [
    ("fig2", ["etas=0.5"]),
    ("fig4", ["switches=3", "reps=3", "bins=200"]),
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
    assert main(["reproduce", "fig8_thresholds", "--out", str(tmp_path),
                 "--set", "L=4", "--set", "trials=50",
                 "--set", "finite_size_L="]) == 2
    summary = (tmp_path / "fig8_thresholds_summary.txt").read_text()
    lines = summary.splitlines()
    assert "L=4" in lines
    assert ("reference: fig8 tolerable-loss comparison at L=10, "
            "bands +/-0.015") in lines
    bands = [line for line in lines if "-scheme threshold:" in line]
    assert len(bands) == 2
    assert all(line.endswith("(band for L=10)") for line in bands), bands


def test_reproduce_unknown_experiment_fails():
    with pytest.raises(SystemExit):
        main(["reproduce", "fig99"])


def test_reproduce_malformed_set_reports_error(tmp_path, capsys):
    assert main(["reproduce", "table1", "--out", str(tmp_path),
                 "--set", "badvalue"]) == 1
    assert "error: --set needs key=value" in capsys.readouterr().err


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
