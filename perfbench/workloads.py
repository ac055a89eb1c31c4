"""The three benchmark workloads: reduced-size ``rmux reproduce`` recipes.

Each workload is one recipe run through ``rmux.experiments.run_experiment``
with the workload seed as the recipe seed. The recipe's size grows with
the requested run length, so one run takes roughly ``seconds`` on a 2-core
x86 box, and a longer run measures more distinct inputs. The calls of the
workload's boundary functions (one per repetition or per sampled lattice)
pace the host-speed reference slices (see ``speed.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 20170324      # the seed of the acceptance suite
CONFIRM_SEED = 1             # second seed a performance claim must also hold on


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiment: str
    fixed: dict               # recipe overrides that do not depend on run length
    scaled: dict              # recipe parameter -> units per second of run
    min_units: int
    boundaries: tuple         # (module, function) whose calls pace the slices

    def parameters(self, seconds: float) -> dict:
        """Recipe overrides for a run meant to take about `seconds`.

        The rates in `scaled` were measured on a 2-core x86 box.
        """
        params = dict(self.fixed)
        for key, rate in self.scaled.items():
            params[key] = str(max(self.min_units, round(seconds * rate)))
        return params


WORKLOADS = {
    w.name: w for w in (
        # fig4 is fig6's hungarian_with_clash sweep. fig6 itself is not
        # used: its "clash rate < 0.01 at s=4" check fails on ~4% of seeds
        # at the repetition count a run can afford (48+ are needed). The
        # gate still checks all three strategies on sampled instances.
        # A repetition's cost varies with the size of its assignment
        # problems and its number of clash-repair re-solves, so short
        # streams, many repetitions per run, give the steadiest run cost.
        Workload(
            name="match_sweep",
            why=("assignment solve plus clash repair take ~92% of traced "
                 "time; percolation does no work and the delay network does "
                 "little"),
            experiment="fig4",
            fixed={"p": "0.1", "bins": "200", "switches": "1,2,3,4,5,6,7,8"},
            scaled={"reps": 21.0}, min_units=1,
            boundaries=(("streams", "generate_stream"),)),
        # fig7's "rate ratio at 16 switches >= 10" check fails on ~7% of
        # seeds at 6 repetitions; ~30 are needed for it to hold on every
        # seed.
        Workload(
            name="bell_budget",
            why=("sliding-window match plus per-pair conflict checks take "
                 "~78% of traced time, on raw and derived event streams; no "
                 "assignment solves, so solver changes are bypassed"),
            experiment="fig7",
            fixed={"p1": "0.1", "bins": "10000",
                   "budgets": "5,6,7,8,9,10,11,12,13,14,15,16"},
            scaled={"reps": 1.6}, min_units=2,
            boundaries=(("streams", "generate_stream"),
                        ("matching", "sliding_window_match"))),
        Workload(
            name="threshold_scan",
            why=("spans and lattice sampling take ~95% of traced time "
                 "across lattice sizes 6, 10 and 14; no stream or matching "
                 "code runs"),
            experiment="fig8_thresholds",
            fixed={"semantics": "calibrated", "L": "10",
                   "finite_size_L": "6,14", "tolerance": "0.002"},
            scaled={"trials": 30.0, "finite_size_trials": 15.0},
            min_units=20,
            boundaries=(("percolation", "sample_lattice_state"),)),
    )
}
