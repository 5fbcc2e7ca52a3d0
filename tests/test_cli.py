import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import magnoncavity
from magnoncavity import ConfigError
from magnoncavity.cli import EXPERIMENTS, WRITE_CHUNK, RunConfig, main, parse_config, run
from magnoncavity.constants import CONSTANTS, MAX_STATE_VALUES, TWO_PI, US


def read_csv(path):
    header = None
    rows = []
    meta = {}
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append([float(tok) for tok in line.split(",")])
    return header, np.array(rows), meta


# --------------------------------------------------------------- config file

def test_defaults():
    cfg = parse_config(None)
    assert cfg.R_nm == 30.0
    assert cfg.mu0_H0_T == 0.5
    assert cfg.n_max == 7


def test_file_parsing_and_comments():
    cfg = parse_config("R_nm = 50\n# comment line\n\nn_max=3  # trailing\n")
    assert cfg.R_nm == 50.0
    assert cfg.n_max == 3


def test_flag_overrides_file():
    cfg = parse_config("R_nm = 40\n", overrides={"R_nm": "50"})
    assert cfg.R_nm == 50.0


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("R_nm = 40\nbogus_key = 1\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="R_nm"):
        parse_config("R_nm = banana\n")


def test_none_sentinel_for_optional_keys():
    cfg = parse_config("omega0_GHz = none\ndt_ns = 2.5\n")
    assert cfg.omega0_GHz is None
    assert cfg.dt_ns == 2.5


def test_validation_negative_radius():
    with pytest.raises(ConfigError, match="R_nm"):
        parse_config("R_nm = -5\n")


def test_validation_requires_some_field():
    with pytest.raises(ConfigError):
        parse_config("mu0_H0_T = none\n")


def test_external_field_accepted():
    cfg = parse_config("mu0_H0_T = none\nmu0_He_T = 0.5593\n")
    assert cfg.mu0_He_T == 0.5593


# ------------------------------------------------------------- experiments

def test_modes_run_headline_numbers(tmp_path, capsys):
    cfg = parse_config(None)
    cfg.experiment = "modes"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    out = capsys.readouterr().out
    assert "15.66" in out

    header, rows, meta = read_csv(tmp_path / "modes.csv")
    assert header[0] == "n"
    assert rows.shape[0] == 7
    assert rows[0, 1] == pytest.approx(15.6613, rel=1e-4)   # omega/2pi GHz, n = 1
    assert np.all(np.diff(rows[:, 1]) > 0)
    assert rows[0, 5] == pytest.approx(1.0971, rel=1e-3)    # g/2pi MHz

    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["derived"]["omega_K_over_2pi_GHz"] == pytest.approx(15.6613, rel=1e-4)
    assert meta["manifest_hash"] == manifest["config_hash"]


def test_reruns_byte_identical(tmp_path):
    # Every experiment, at a small size: two runs write the same data bytes.
    argvs = {
        "modes": ["modes"],
        "spectrum": ["spectrum"],
        "fieldmap": ["fieldmap", "--n_H0", "3", "--n_omega", "5"],
        "decay": ["decay", "--n_samples", "200"],
        "transfer": ["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3",
                     "--n_samples", "200"],
        "coupling-sweep": ["coupling-sweep", "--n_R", "5"],
    }
    for name, argv in argvs.items():
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / name / sub
            assert main(argv + ["--out", str(out)]) == 0, name
            outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert outputs[0] and outputs[0] == outputs[1], name


def test_spectrum_run(tmp_path):
    # Window below the n = 2 line at 15.99 GHz so the Kittel peak is the max.
    cfg = parse_config("omega_min_GHz = 15.5\nomega_max_GHz = 15.9\nn_omega = 2001\n")
    cfg.experiment = "spectrum"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    _, rows, _ = read_csv(tmp_path / "spectrum.csv")
    assert np.all(rows[:, 1] >= 0)
    peak = rows[int(np.argmax(rows[:, 1])), 0]
    assert peak == pytest.approx(15.6613, abs=0.01)


def test_decay_strong_coupling_minimum(tmp_path):
    text = ("Gamma_rad_per_s = 1e6\nn_max = 1\nR_list_nm = 30\n"
            "t_end_us = 1\nn_samples = 2000\n")
    cfg = parse_config(text)
    cfg.experiment = "decay"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    _, rows, _ = read_csv(tmp_path / "decay_R30nm.csv")
    early = rows[rows[:, 0] < 0.3]             # t < 0.3 us
    assert np.min(early[:, 1]) < 0.1           # deep Rabi dip


def test_decay_solver_choice(tmp_path):
    text = ("Gamma_rad_per_s = 1e6\nn_max = 1\nR_list_nm = 30\n"
            "t_end_us = 0.2\nn_samples = 400\nsolver = volterra\n")
    cfg = parse_config(text)
    cfg.experiment = "decay"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    _, _, meta = read_csv(tmp_path / "decay_R30nm.csv")
    assert meta["solver"] == "volterra"


def test_transfer_run(tmp_path):
    text = ("Gamma_rad_per_s = 1e6\nn_max = 1\nt_end_us = 3\nn_samples = 3000\n")
    cfg = parse_config(text)
    cfg.experiment = "transfer"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    header, rows, meta = read_csv(tmp_path / "transfer.csv")
    assert header == ["t_us", "P1", "P2", "Pb"]
    assert np.max(rows[:, 2]) > 0.9            # near-complete transfer
    assert float(meta["fidelity"]) > 0.9


def test_fieldmap_run(tmp_path):
    cfg = parse_config("n_H0 = 5\nn_omega = 301\n")
    cfg.experiment = "fieldmap"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    _, rows, _ = read_csv(tmp_path / "fieldmap.csv")
    assert rows.shape == (5 * 301, 3)
    assert np.all(rows[:, 2] >= 0)


def test_coupling_sweep_run(tmp_path):
    cfg = parse_config(None)
    cfg.experiment = "coupling-sweep"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    header, rows, _ = read_csv(tmp_path / "coupling_sweep.csv")
    assert header == ["separation_nm", "g_eff_Hz", "g_dip_Hz"]
    assert np.all(rows[:, 1] > rows[:, 2])     # mediated coupling beats vacuum


# -------------------------------------------------------------- exit codes

@pytest.fixture
def no_big_arrays(monkeypatch):
    """Fail at once, before allocating, on a grid or a propagation over the budget."""
    import magnoncavity.dynamics as dynamics

    linspace, fill = np.linspace, dynamics._fill_by_doubling

    def guarded_linspace(start, stop, num=50, *args, **kwargs):
        assert num <= MAX_STATE_VALUES, f"linspace of {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    def guarded_fill(y0, n, powers):
        assert n * len(y0) <= MAX_STATE_VALUES, f"{n} x {len(y0)} state values"
        return fill(y0, n, powers)

    monkeypatch.setattr(np, "linspace", guarded_linspace)
    monkeypatch.setattr(dynamics, "_fill_by_doubling", guarded_fill)


def test_parser_lists_every_key_and_rejects_unknown_experiments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decay", "--help"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out
    keys = [k for k in RunConfig.__dataclass_fields__ if k != "experiment"]
    assert all(f"--{key}" in usage for key in keys + ["config"])
    assert "in [10, 500]; default 30.0" in usage      # R_nm's declared range and default
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_parser_built_once_and_flags_do_not_leak(tmp_path):
    # main reuses one parser per process: one call's flags must not reach the next run.
    from magnoncavity.cli import _build_parser

    assert _build_parser() is _build_parser()
    assert main(["modes", "--R_nm", "50", "--n_max", "2", "--out", str(tmp_path / "a")]) == 0
    assert main(["modes", "--out", str(tmp_path / "b")]) == 0
    config = json.loads((tmp_path / "b" / "manifest.json").read_text())["config"]
    assert config == dataclasses.asdict(RunConfig(experiment="modes", out=str(tmp_path / "b")))


def test_exit_code_2_for_config_error(tmp_path, capsys):
    assert main(["modes", "--R_nm", "-5", "--out", str(tmp_path)]) == 2
    assert "R_nm" in capsys.readouterr().err
    # A value argparse alone would read as an option reaches the validation too.
    assert main(["modes", "--R_nm", "-1e300", "--out", str(tmp_path)]) == 2
    assert "R_nm must lie in" in capsys.readouterr().err


def test_exit_code_2_for_missing_config_file(tmp_path, capsys):
    assert main(["modes", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_exit_code_3_for_domain_error(tmp_path, capsys):
    # Emitter placed inside the sphere is a physics-domain failure, not a parse one.
    code = main(["modes", "--a_over_R", "0.5", "--out", str(tmp_path)])
    assert code == 3
    err = json.loads((tmp_path / "error.json").read_text())
    assert "outside" in err["error"]


def test_main_end_to_end_with_config_file(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("R_nm = 30\nn_max = 2\n")
    out = tmp_path / "out"
    assert main(["modes", "--config", str(cfgfile), "--out", str(out)]) == 0
    _, rows, _ = read_csv(out / "modes.csv")
    assert rows.shape[0] == 2


# 3.34 us at dt = 1 ps: (3.34e6 + 1) x 3 Volterra values just exceed 1e7.
_VOLTERRA_OVER_BUDGET = ["decay", "--solver", "volterra", "--n_max", "1", "--R_list_nm", "30",
                         "--Gamma_rad_per_s", "1e6", "--t_end_us", "3.34", "--dt_ns", "0.001"]


@pytest.mark.parametrize("argv", [
    ["modes", "--R_nm", "nan"],
    ["decay", "--t_end_us", "inf"],
    ["fieldmap", "--n_H0", "0"],
    ["decay", "--R_list_nm", "30,abc"],
    ["decay", "--n_samples", "0"],
    ["decay", "--R_list_nm", ","],
    ["spectrum", "--omega_min_GHz", "20"],
    ["spectrum", "--omega_max_GHz", "20"],
    ["spectrum", "--omega_min_GHz", "20", "--omega_max_GHz", "10"],
    ["spectrum", "--n_omega", "5"],
    ["modes", "--n_max", "1000000"],
    ["decay", "--t_end_us", "1e6", "--n_samples", "10"],
    ["decay", "--dt_ns", "1e-9"],
    ["transfer", "--dt_ns", "1e-320"],
    _VOLTERRA_OVER_BUDGET,
    ["spectrum", "--Gamma_rad_per_s", "1e2"],
    ["spectrum", "--Gamma_rad_per_s", "1e-320"],
    ["spectrum", "--omega_min_GHz", "10", "--omega_max_GHz", "20", "--n_omega", "2000000"],
    ["fieldmap", "--n_omega", "100000000"],
    ["fieldmap", "--n_H0", "100000000"],
    ["fieldmap", "--n_H0", "10001", "--n_omega", "1", "--n_max", "1000"],
    ["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "4000000"],
    ["decay", "--R_list_nm", "5"],
    ["decay", "--R_list_nm", "1000"],
    ["coupling-sweep", "--n_R", "100000000"],
    ["modes", "--R_nm", "1e300"],
    ["modes", "--R_nm", "-1e300"],
    ["coupling-sweep", "--R_min_nm", "5"],
    ["coupling-sweep", "--R_max_nm", "1000"],
    ["fieldmap", "--mu0_H0_min_T", "0.7", "--mu0_H0_max_T", "0.3"],
    ["modes", "--mu0_Ms_T", "1e300"],
    ["modes", "--gamma_GHz_per_T", "1e300"],
    ["modes", "--alpha", "1e300"],
    ["modes", "--mu_B_scale", "1e300"],
    ["spectrum", "--omega_min_GHz", "-1e300", "--omega_max_GHz", "1e300"],
    ["spectrum", "--omega_min_GHz", "1", "--omega_max_GHz", "1e300"],
    ["decay", "--alpha", "1e300"],
    ["decay", "--omega0_GHz", "1e300"],
], ids=["R_nm-nan", "t_end_us-inf", "n_H0-0", "R_list_nm-token", "n_samples-0",
        "R_list_nm-empty", "omega_min-only", "omega_max-only", "omega_min-above-max",
        "n_omega-without-bounds", "n_max-over-budget", "samples-over-budget-t_end",
        "samples-over-budget-dt", "dt-underflows", "volterra-state-over-budget",
        "spectrum-auto-grid-over-budget", "spectrum-auto-grid-spacing-underflows",
        "spectrum-n_omega-over-budget", "fieldmap-n_omega-over-budget",
        "fieldmap-n_H0-over-budget", "fieldmap-mode-table-over-budget",
        "transfer-state-over-budget", "R_list_nm-below-range", "R_list_nm-above-range",
        "coupling-sweep-n_R-over-budget", "R_nm-above-range", "R_nm-exponent-below-range",
        "R_min_nm-below-range",
        "R_max_nm-above-range", "fieldmap-H0-range-reversed", "mu0_Ms_T-above-range",
        "gamma-above-range", "alpha-above-range", "mu_B_scale-above-range",
        "spectrum-window-out-of-range", "omega_max_GHz-above-range", "decay-alpha-above-range",
        "decay-omega0_GHz-above-range"])
def test_exit_code_2_for_bad_values(tmp_path, no_big_arrays, argv):
    # The size budget rejects its cases before any large array is allocated.
    assert main(argv + ["--out", str(tmp_path)]) == 2


# Sizes stay small, so no fuzzed run allocates much.
_FUZZ_SIZES = {"n_samples": 200, "n_omega": 50, "n_H0": 3, "n_R": 5, "n_max": 3}
_FUZZ_KEYS = [f.name for f in dataclasses.fields(RunConfig) if f.name not in ("experiment", "out")]
_FUZZ_VALUES = ["0", "-1", "-1e300", "1e-300", "1e300", "0.5", "2", "none", "volterra"]
_FIELD_TYPES = typing.get_type_hints(RunConfig)


def _domain_edges(field):
    """A ranged key's ends and the nearest value outside each, the finite ones as flag text."""
    lo, hi = field.metadata["range"]
    if int in (typing.get_args(_FIELD_TYPES[field.name]) or (_FIELD_TYPES[field.name],)):
        outside = (lo - 1, hi + 1)
    else:
        outside = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
    return [[repr(v) for v in values if math.isfinite(v)] for values in ((lo, hi), outside)]


_EDGES = {f.name: _domain_edges(f) for f in dataclasses.fields(RunConfig) if "range" in f.metadata}


def _fuzz_values(field):
    """The generic values, and for a ranged key its ends, their outer neighbours and its default."""
    if field.name not in _EDGES:
        return _FUZZ_VALUES
    ends, outside = _EDGES[field.name]
    return _FUZZ_VALUES + ends + outside + ([] if field.default is None else [repr(field.default)])


_FUZZ_CHOICES = {f.name: _fuzz_values(f) for f in dataclasses.fields(RunConfig)}
_FUZZ_ARG = st.sampled_from(_FUZZ_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_FUZZ_CHOICES[key])))


@pytest.mark.parametrize("key", sorted(_EDGES))
def test_declared_range_admits_its_ends_and_names_the_key_outside(key):
    ends, outside = _EDGES[key]
    # mu0_He_T applies only with mu0_H0_T unset (it defaults to 0.5).
    other = {"mu0_H0_T": "none"} if key == "mu0_He_T" else {}
    for value in ends:
        parse_config(None, {**other, key: value})
    for value in outside:
        with pytest.raises(ConfigError, match=f"^{key} must lie in "):
            parse_config(None, {**other, key: value})


def test_He_field_alone_is_refused(tmp_path, capsys):
    # mu0_H0_T defaults to 0.5 T and would win over mu0_He_T in build_cavity.
    assert main(["modes", "--mu0_He_T", "0.9", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "mu0_H0_T" in err and "mu0_He_T" in err and "--mu0_H0_T none" in err
    assert not (tmp_path / "modes.csv").exists()
    assert main(["modes", "--mu0_He_T", "0.9", "--mu0_H0_T", "none",
                 "--out", str(tmp_path)]) == 0
    assert "25.2000 GHz" in capsys.readouterr().out


def _assert_finite_outputs(out: Path) -> None:
    """Every number an exit-0 run writes is finite, but for the two no-value outputs.

    Those are the manifest's `g_eff_over_2pi_kHz: null` (not a number) and
    transfer's `swap_frequency_rad_per_s=nan` header when nothing swaps.
    """
    def refuse(token):
        raise AssertionError(f"manifest.json holds {token}")

    json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
    for path in out.glob("*.csv"):
        _, rows, meta = read_csv(path)
        assert np.all(np.isfinite(rows)), path.name
        for key, text in meta.items():
            try:
                value = float(text)
            except ValueError:
                continue
            exempt = key == "manifest_hash" or (path.name, key) == (
                "transfer.csv", "swap_frequency_rad_per_s")
            assert exempt or math.isfinite(value), (path.name, key, text)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(EXPERIMENTS),
       st.fixed_dictionaries({k: st.integers(1, cap) for k, cap in _FUZZ_SIZES.items()}),
       st.lists(_FUZZ_ARG, max_size=3).map(dict))
def test_any_argv_exits_0_2_or_3(experiment, sizes, values):
    # spectrum takes n_omega only with both omega bounds.
    if experiment == "spectrum":
        sizes.pop("n_omega")
    argv = [experiment]
    for key, value in {**sizes, **values}.items():
        argv += [f"--{key}", str(value)]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", out])
        assert code in (0, 2, 3), argv
        if code == 0:
            _assert_finite_outputs(Path(out))


def test_coupling_sweep_budget_counts_the_broadcast(tmp_path, monkeypatch, capsys):
    # The radius broadcast peaks at 8.5 budget values per radius (its
    # positions, phases and cumprod temporaries), counted as 9: 1 111 111
    # radii are the most the budget admits. Both sides are checked before
    # any radius grid exists.
    class Admitted(Exception):
        pass

    def admitted(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(np, "linspace", admitted)
    assert main(["coupling-sweep", "--n_R", "1111112", "--out", str(tmp_path)]) == 2
    assert "1111112 radii x 9 values" in capsys.readouterr().err
    with pytest.raises(Admitted):
        main(["coupling-sweep", "--n_R", "1111111", "--out", str(tmp_path)])


def test_state_budget_counts_each_solvers_state():
    # 3 340 001 samples at n_max = 1: the Volterra state (c, dc/dt, one
    # history term) is over the budget, the pseudo-mode state (c, b) is not.
    from magnoncavity.cli import build_cavity, build_emitter, build_kernel
    from magnoncavity.dynamics import _time_grid, evolve_volterra

    overrides = dict(zip(_VOLTERRA_OVER_BUDGET[1::2], _VOLTERRA_OVER_BUDGET[2::2]))
    cfg = parse_config(None, {k.lstrip("-"): v for k, v in overrides.items()})
    cavity = build_cavity(cfg, R=30e-9)
    kernel = build_kernel(build_emitter(cfg, cavity), cavity)
    with pytest.raises(ConfigError, match="3 state values"):
        evolve_volterra(kernel, 3.34e-6, 1e-12)
    times, dt = _time_grid(kernel, 3.34e-6, 1e-12, None, len(kernel.weights) + 1)
    assert dt == pytest.approx(1e-12)
    assert times.size == 3_340_001


def test_decay_domain_error_writes_no_data(tmp_path):
    # a = 40 nm is outside the 30 nm sphere but inside the 50 nm one: the
    # 30 nm file written before the failure is removed with the failed run.
    assert main(["decay", "--a_nm", "40", "--out", str(tmp_path)]) == 3
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "DomainError"
    assert not list(tmp_path.glob("decay_R*.csv"))
    # The same for a size error: R = 100 nm propagates, R = 10 nm is over the budget.
    argv = ["decay", "--n_max", "1", "--R_list_nm", "100,10", "--t_end_us", "1000",
            "--n_samples", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "ConfigError"
    assert not list(tmp_path.glob("decay_R*.csv"))


@pytest.mark.parametrize("argv", [
    ["modes", "--Delta_over_g", "0"],
    ["modes", "--a_over_R", "1e300"],
    ["decay", "--R_list_nm", "30", "--mu_B_scale", "1e-320", "--n_samples", "10"],
    ["transfer", "--Delta_over_g", "0", "--Gamma_rad_per_s", "0", "--t_end_us", "0.5"],
    ["modes", "--Delta_over_g", "1e-320"],
], ids=["Delta-zero", "coupling-underflows", "dipole-underflows", "transfer-resonant",
        "g_eff-overflows"])
def test_undefined_g_eff_is_null(tmp_path, argv):
    # g_eff = g^2/Delta has no finite value at Delta = 0 or where it overflows; runs
    # that do not use it still succeed.
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["derived"]["g_eff_over_2pi_kHz"] is None


@pytest.mark.parametrize("argv, error, cause", [
    (["coupling-sweep", "--Delta_over_g", "0"], "DomainError", "Delta = 0"),
    (["spectrum", "--mu0_H0_T", "1e300"], "DomainError", "not finite"),
    (["transfer", "--t_end_us", "1e-300"], "NumericalError", "horizon"),
    (["transfer", "--Delta_over_g", "1e-300"], "NumericalError", "horizon"),
    (["modes", "--mu0_H0_T", "1e300"], "NumericalError",
     "modes.csv column 'omega_over_2pi_GHz' holds a non-finite value"),
    (["decay", "--mu0_H0_T", "1e300"], "DomainError", "kernel weights and rates must be finite"),
    (["transfer", "--mu0_H0_T", "1e300"], "DomainError",
     "kernel weights and rates must be finite"),
    (["coupling-sweep", "--Delta_over_g", "1e-320"], "DomainError",
     "Delta = 0 or g^2/Delta overflows"),
], ids=["sweep-g_eff-undefined", "mode-frequencies-overflow", "swap-horizon-underflows",
        "swap-ripple-period-overflows", "mode-table-overflows", "decay-kernel-overflows",
        "transfer-kernel-overflows", "sweep-g_eff-overflows"])
def test_exit_code_3_for_unresolvable_inputs(tmp_path, argv, error, cause):
    assert main(argv + ["--out", str(tmp_path)]) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["type"] == error
    assert cause in record["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


def test_fieldmap_narrow_linewidth_runs(tmp_path, no_big_arrays):
    # fieldmap reads only the end points of the automatic grids, so a
    # linewidth whose spectrum grid is over the budget still maps.
    assert main(["fieldmap", "--Gamma_rad_per_s", "1e2", "--out", str(tmp_path)]) == 0
    _, rows, _ = read_csv(tmp_path / "fieldmap.csv")
    assert rows.shape == (41 * 2001, 3)


def test_run_validates_its_config(tmp_path):
    # A RunConfig built in Python gets the same checks as one parsed from argv.
    cfg = RunConfig(experiment="spectrum", n_omega=5, out=str(tmp_path))
    assert run(cfg) == 2
    assert "n_omega" in json.loads((tmp_path / "error.json").read_text())["error"]
    assert not (tmp_path / "spectrum.csv").exists()


@pytest.mark.parametrize("R_nm", ["10", "30", "500"])
def test_modes_far_up_the_ladder(tmp_path, R_nm):
    assert main(["modes", "--R_nm", R_nm, "--n_max", "200", "--out", str(tmp_path)]) == 0
    _, rows, _ = read_csv(tmp_path / "modes.csv")
    assert rows.shape == (200, 6)
    assert np.all(np.isfinite(rows))


def test_failed_run_leaves_no_manifest(tmp_path):
    # A failed run into a directory that holds an earlier success must not
    # leave that run's manifest behind to look like its own.
    # Nor that run's data; files no manifest lists are never touched.
    (tmp_path / "notes.csv").write_text("kept\n")
    cfgfile = Path(__file__).parents[1] / "configs" / "transfer.cfg"
    assert main(["transfer", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.json").exists()
    assert main(["transfer", "--out", str(tmp_path)]) == 3   # 1 us is shorter than the swap
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "NumericalError"
    assert not (tmp_path / "manifest.json").exists()
    assert not (tmp_path / "transfer.csv").exists()
    assert (tmp_path / "notes.csv").read_text() == "kept\n"
    # A later success replaces error.json and the earlier run's files.
    assert main(["modes", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "modes.csv", "notes.csv"]


def test_checked_in_configs_run(tmp_path):
    # Each configs/<experiment>.cfg is a working point for that experiment.
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
    assert configs
    for path in configs:
        out = tmp_path / path.stem
        assert main([path.stem, "--config", str(path), "--out", str(out)]) == 0


def test_cli_import_leaves_out_ode_integrators():
    # All dynamics propagate exactly with expm and the swap extractor smooths
    # with a cumulative sum; neither scipy.integrate nor scipy.ndimage loads,
    # and scipy.linalg loads only when something propagates.
    src = str(Path(magnoncavity.__file__).parents[1])
    code = ("import sys, magnoncavity.cli; "
            "print(sorted({'scipy.integrate', 'scipy.ndimage', 'scipy.linalg'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


def test_write_csv_columns_exact_text(tmp_path):
    from magnoncavity.cli import _write_csv

    path = tmp_path / "t.csv"
    _write_csv(path, {"n": np.arange(1, 5), "x": [0.1, 1e-20, 15.661334567890123, np.nan]},
               "abc123", {"R_nm": 30.0})
    assert path.read_text() == ("# manifest_hash=abc123\n# R_nm=30.0\nn,x\n"
                                "1,0.1\n2,1e-20\n3,15.6613345679\n4,nan\n")


@pytest.mark.parametrize("nrows", [
    0, 1, WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1, 2 * WRITE_CHUNK + 3,
], ids=["0", "1", "chunk-1", "chunk", "chunk+1", "2chunk+3"])
def test_write_csv_block_boundaries(tmp_path, nrows):
    # Block formatting must give exactly the text of one `template % row` per row.
    # A text column from _format_column must read as the numbers written with %.12g.
    from magnoncavity.cli import _format_column, _write_csv

    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 15.661334567890123]
    n = np.arange(nrows) + (2**53 - 3)     # odd values past 2**53 have no exact float
    x = np.resize(specials, nrows)
    y = np.linspace(-1.0, 1.0, nrows)
    path = tmp_path / "t.csv"
    _write_csv(path, {"n": n, "x": x, "y": y, "x_text": _format_column(x)}, "abc123", {})
    expected = ["# manifest_hash=abc123", "n,x,y,x_text"] + [
        "%d,%.12g,%.12g,%.12g" % (*row, row[1])
        for row in zip(n.tolist(), x.tolist(), y.tolist())]
    assert path.read_text().split("\n") == expected + [""]


def _write_g12(path, values):
    """Write `values` as one float column, with every warning an error."""
    from magnoncavity.cli import _write_csv

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _write_csv(path, {"x": np.asarray(values, dtype=float)}, "abc123", {})
    return path.read_text()


def _g12_text(values):
    return "# manifest_hash=abc123\nx\n" + "".join("%.12g\n" % v for v in values)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_write_csv_floats_exactly_as_percent_g(values):
    # The bulk encoder writes the bytes of '%.12g' % x for any float.
    with tempfile.TemporaryDirectory() as out:
        assert _write_g12(Path(out) / "t.csv", values) == _g12_text(values)


def test_write_csv_random_bit_patterns(tmp_path):
    # 10**6 float64 bit patterns: every exponent, sign and special value.
    rng = np.random.default_rng(20240601)
    values = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    values = values.tolist()
    assert _write_g12(tmp_path / "t.csv", values) == _g12_text(values)


def _neighbours(x):
    x = np.asarray(x, dtype=float)
    return np.concatenate([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)])


@pytest.mark.parametrize("family", [
    _neighbours([10.0**k for k in range(-300, 301)]),
    _neighbours([1e-4, 1e-5, 9.99999999999e-5, 9.999999999995e-5, 9.9999999999995e-5,
                 1e11, 1e12, 999999999999.0, 999999999999.4, 999999999999.5, 999999999999.6,
                 99999999999.95]),
    _neighbours([999999999999.5 * 10.0**j for j in range(-300, 290)]),
    _neighbours([123456789012.5 * 10.0**j for j in range(-300, 290)]),
    [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
     1e-290, 1e290, 1.7976931348623157e308, -1.7976931348623157e308],
], ids=["powers-of-ten", "notation-switch", "round-half-999", "round-half-123", "specials"])
def test_write_csv_boundary_floats(tmp_path, family):
    # Decade edges, the fixed/exponent switch at 1e-4 and 1e12, 12-digit
    # round-half values and their neighbouring floats, and the specials.
    values = [-v for v in np.asarray(family).tolist()] + np.asarray(family).tolist()
    assert _write_g12(tmp_path / "t.csv", values) == _g12_text(values)


def _recording(monkeypatch, name):
    """Replace magnoncavity.cli.<name> by a wrapper that keeps every result."""
    import magnoncavity.cli as cli

    results = []
    orig = getattr(cli, name)

    def record(*args, **kwargs):
        results.append(orig(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, name, record)
    return results


def _data_lines(path):
    return [line for line in path.read_text().splitlines() if not line.startswith("#")][1:]


def test_fieldmap_text_axes_match_numeric_rows(tmp_path, monkeypatch):
    # The axes are formatted once and their text repeated; every row must
    # still read as the %.12g text of its own (H0, omega, J).
    sweeps = _recording(monkeypatch, "field_sweep_map")
    assert main(["fieldmap", "--n_H0", "3", "--n_omega", "5", "--out", str(tmp_path)]) == 0
    (sweep,) = sweeps
    n_H0, n_omega = sweep.J.shape
    rows = zip(np.repeat(sweep.H0_values * CONSTANTS.mu0, n_omega).tolist(),
               np.tile(sweep.omega_values / TWO_PI / 1e9, n_H0).tolist(),
               sweep.J.ravel().tolist())
    assert _data_lines(tmp_path / "fieldmap.csv") == ["%.12g,%.12g,%.12g" % row for row in rows]


@pytest.mark.parametrize("extra, n_grids", [([], 1), (["--n_max", "1"], 2)],
                         ids=["shared-grid", "grid-per-radius"])
def test_decay_time_axis_matches_each_radius(tmp_path, monkeypatch, extra, n_grids):
    # Radii share one formatted time axis only while their grids are equal;
    # with n_max = 1 the coupling guard gives each radius its own dt.
    series = _recording(monkeypatch, "evolve_pseudomode")
    argv = ["decay", "--R_list_nm", "30,50", "--n_samples", "7", "--out", str(tmp_path)]
    assert main(argv + extra) == 0
    assert len({ts.times.size for ts in series}) == n_grids
    for R, ts in zip((30, 50), series):
        rows = zip((ts.times / US).tolist(), ts.populations.tolist())
        assert _data_lines(tmp_path / f"decay_R{R}nm.csv") == ["%.12g,%.12g" % row for row in rows]


def test_run_config_roundtrip_hash_changes():
    from magnoncavity.cli import _config_hash

    a = RunConfig(experiment="modes")
    b = RunConfig(experiment="modes", R_nm=31.0)
    assert _config_hash(a) != _config_hash(b)
    assert _config_hash(a) == _config_hash(RunConfig(experiment="modes"))
