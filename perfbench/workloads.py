"""The benchmark's workloads: experiment lists held as argv lists for
``magnoncavity.cli.main``.

Each workload is one pass of experiments. The configurations are the CLI
defaults and the configurations that the ``scripts/run_*.py`` wrappers
pass, written out as flags; the benchmark never passes ``jobs`` or
``format`` and never calls the wrappers themselves. The workload seed only
orders the experiments of a pass and names temporary directories; it never
changes a configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

# Strong-coupling working point of the scripts/ configs: one retained mode,
# linewidth 1e6 rad/s, 5000 output samples.
_SCRIPT_DECAY = ["decay", "--R_list_nm", "30,50,70,100", "--Gamma_rad_per_s", "1000000.0",
                 "--n_max", "1", "--t_end_us", "1.0", "--n_samples", "5000"]
_SCRIPT_TRANSFER = ["transfer", "--R_nm", "30.0", "--Delta_over_g", "10.0",
                    "--Gamma_rad_per_s", "1000000.0", "--t_end_us", "3.0",
                    "--n_samples", "5000"]


@dataclass(frozen=True)
class Experiment:
    """One CLI invocation; ``name`` keys its correctness check and its outputs."""

    name: str
    argv: tuple[str, ...]


WORKLOADS: dict[str, tuple[Experiment, ...]] = {
    # Propagation-bound: four radii, n_max = 7, 100 001 samples each.
    "decay-default": (Experiment("decay", ("decay",)),),
    # No propagation: 41 H0 x 2001 omega rows, mostly serialization.
    "fieldmap-default": (Experiment("fieldmap", ("fieldmap",)),),
    # Many small runs: per-experiment overhead, two-spin and Volterra paths.
    # The default transfer exits 3 on the seed code (its 1 us horizon is
    # shorter than the half swap); it stays so that the defect shows.
    "experiment-mix": (
        Experiment("modes", ("modes",)),
        Experiment("spectrum", ("spectrum",)),
        Experiment("coupling-sweep", ("coupling-sweep",)),
        Experiment("transfer", ("transfer",)),
        Experiment("transfer-scripts", tuple(_SCRIPT_TRANSFER)),
        Experiment("decay-scripts", tuple(_SCRIPT_DECAY + ["--solver", "pseudomode"])),
        Experiment("decay-volterra", tuple(_SCRIPT_DECAY + ["--solver", "volterra"])),
    ),
}
