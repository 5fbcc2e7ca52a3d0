import ast
import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import json
import math
import os
import pkgutil
import re
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
        rows.append(line)
    # loadtxt parses each number as float() does, in bulk.
    return header, np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.array([]), meta


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


def test_transfer_checks_the_configured_modes(tmp_path, capsys):
    # The cavity keeps n_max modes, so mode n = 2 near the detuned Kittel line
    # is named, in the manifest and on stderr with no source line; with
    # n_max = 1 there is nothing to warn about.
    argv = ["transfer", "--Delta_over_g", "40", "--Gamma_rad_per_s", "1e6", "--t_end_us", "12"]
    assert main(argv + ["--out", str(tmp_path / "n7")]) == 0
    (note,) = json.loads((tmp_path / "n7" / "manifest.json").read_text())["warnings"]
    assert note.startswith("mode n = 2 detuned by only 1.81196e+09 rad/s")
    assert capsys.readouterr().err == f"warning: {note}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error", UserWarning)
        assert main(argv + ["--n_max", "1", "--out", str(tmp_path / "n1")]) == 0
    assert json.loads((tmp_path / "n1" / "manifest.json").read_text())["warnings"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_omega0_is_refused_where_nothing_reads_it(tmp_path, capsys, experiment):
    argv = [experiment, "--omega0_GHz", "15.7", "--out", str(tmp_path)]
    if experiment == "decay":
        assert main(argv + ["--R_list_nm", "30", "--n_samples", "200"]) == 0
    else:
        assert main(argv) == 2
        assert "omega0_GHz is read by decay only" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))


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
    """Fail at once, before allocating, on a grid, a read of sampled values
    or a doubling fill over the budget."""
    import magnoncavity.dynamics as dynamics

    linspace, sampler, fill = np.linspace, dynamics._row_sampler, dynamics._fill_by_doubling

    def guarded_linspace(start, stop, num=50, *args, **kwargs):
        assert num <= MAX_STATE_VALUES, f"linspace of {num} points"
        return linspace(start, stop, num, *args, **kwargs)

    def guarded_sampler(y0, n, powers, rows):
        read = sampler(y0, n, powers, rows)

        def guarded_read(i, j):
            assert (j - i) * len(rows) <= MAX_STATE_VALUES, f"{j - i} x {len(rows)} sampled values"
            return read(i, j)
        return guarded_read

    def guarded_fill(y0, n, powers):
        assert n * len(y0) <= MAX_STATE_VALUES, f"{n} x {len(y0)} state values"
        return fill(y0, n, powers)

    monkeypatch.setattr(np, "linspace", guarded_linspace)
    monkeypatch.setattr(dynamics, "_row_sampler", guarded_sampler)
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


@pytest.mark.parametrize("argv, reason", [
    (["modes", "--R_nm", "nan"], "bad value for 'R_nm'"),
    (["decay", "--t_end_us", "inf"], "bad value for 't_end_us'"),
    (["fieldmap", "--n_H0", "0"], "n_H0 must lie in"),
    (["decay", "--R_list_nm", "30,abc"], "bad value for 'R_list_nm'"),
    (["decay", "--n_samples", "0"], "n_samples must lie in"),
    (["decay", "--R_list_nm", ","], "R_list_nm lists no radius"),
    (["spectrum", "--omega_min_GHz", "20"],
     "omega_min_GHz and omega_max_GHz must be set together"),
    (["spectrum", "--omega_max_GHz", "20"],
     "omega_min_GHz and omega_max_GHz must be set together"),
    (["spectrum", "--omega_min_GHz", "20", "--omega_max_GHz", "10"],
     "omega_min_GHz must be below"),
    (["spectrum", "--n_omega", "5"], "n_omega needs omega_min_GHz and omega_max_GHz"),
    (["modes", "--n_max", "1000000"], "n_max must lie in"),
    (["decay", "--t_end_us", "1e6", "--n_samples", "10"],
     "samples x 8 state values exceed the budget"),
    (["decay", "--dt_ns", "1e-9"], "samples x 8 state values exceed the budget"),
    (["transfer", "--dt_ns", "1e-320"], "dt_ns = 1e-320 underflows to 0 s"),
    (["decay", "--t_end_us", "1e-320"], "t_end_us = 1e-320 underflows to 0 s"),
    (_VOLTERRA_OVER_BUDGET, "samples x 3 state values exceed the budget"),
    (["spectrum", "--Gamma_rad_per_s", "1e2"], "frequency points x 7 modes exceed the budget"),
    (["spectrum", "--Gamma_rad_per_s", "1e-320"],
     "inf frequency points x 7 modes exceed the budget"),
    (["spectrum", "--omega_min_GHz", "10", "--omega_max_GHz", "20", "--n_omega", "2000000"],
     "frequency points x 7 modes exceed the budget"),
    (["fieldmap", "--n_omega", "100000000"],
     "41 fields x 100000000 frequency points or modes exceed the budget"),
    (["fieldmap", "--n_H0", "100000000"],
     "100000000 fields x 2001 frequency points or modes exceed the budget"),
    (["fieldmap", "--n_H0", "10001", "--n_omega", "1", "--n_max", "1000"],
     "10001 fields x 1000 frequency points or modes exceed the budget"),
    (["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "4000000"],
     "samples x 3 state values exceed the budget"),
    (["decay", "--R_list_nm", "5"], "R_list_nm entries must lie in"),
    (["decay", "--R_list_nm", "1000"], "R_list_nm entries must lie in"),
    (["coupling-sweep", "--n_R", "100000000"],
     "radii x 9 values of the radius broadcast exceed the budget"),
    (["modes", "--R_nm", "1e300"], "R_nm must lie in"),
    (["modes", "--R_nm", "-1e300"], "R_nm must lie in"),
    (["coupling-sweep", "--R_min_nm", "5"], "R_min_nm must lie in"),
    (["coupling-sweep", "--R_max_nm", "1000"], "R_max_nm must lie in"),
    (["fieldmap", "--mu0_H0_min_T", "0.7", "--mu0_H0_max_T", "0.3"],
     "mu0_H0_min_T must be below mu0_H0_max_T"),
    (["modes", "--mu0_Ms_T", "1e300"], "mu0_Ms_T must lie in"),
    (["modes", "--gamma_GHz_per_T", "1e300"], "gamma_GHz_per_T must lie in"),
    (["modes", "--alpha", "1e300"], "alpha must lie in"),
    (["modes", "--mu_B_scale", "1e300"], "mu_B_scale must lie in"),
    (["spectrum", "--omega_min_GHz", "-1e300", "--omega_max_GHz", "1e300"],
     "omega_min_GHz must lie in"),
    (["spectrum", "--omega_min_GHz", "1", "--omega_max_GHz", "1e300"],
     "omega_max_GHz must lie in"),
    (["decay", "--alpha", "1e300"], "alpha must lie in"),
    (["decay", "--omega0_GHz", "1e300"], "omega0_GHz must lie in"),
], ids=["R_nm-nan", "t_end_us-inf", "n_H0-0", "R_list_nm-token", "n_samples-0",
        "R_list_nm-empty", "omega_min-only", "omega_max-only", "omega_min-above-max",
        "n_omega-without-bounds", "n_max-over-budget", "samples-over-budget-t_end",
        "samples-over-budget-dt", "dt-underflows", "t_end_us-underflows",
        "volterra-state-over-budget",
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
def test_exit_code_2_for_bad_values(tmp_path, capsys, no_big_arrays, argv, reason):
    # The size budget rejects its cases before any large array is allocated;
    # each case is refused for its own reason, not for another.
    assert main(argv + ["--out", str(tmp_path)]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("radii", ["30,30.0000001", "30,30"])
def test_radii_that_share_a_file_are_refused(tmp_path, capsys, radii):
    # Both radii would write decay_R30nm.csv, the second over the first.
    assert main(["decay", "--R_list_nm", radii, "--n_samples", "5", "--out", str(tmp_path)]) == 2
    first, second = radii.split(",")
    assert f"entries {first} and {second} both write decay_R30nm.csv" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


# The keys each experiment reads, written out here as the specification that
# the CLI's declaration must match. Every experiment reads the keys of the
# manifest's `derived` block.
_DERIVED_KEYS = ("mu0_H0_T", "mu0_He_T", "mu0_Ms_T", "gamma_GHz_per_T", "R_nm", "a_nm",
                 "a_over_R", "mu_B_scale", "Delta_over_g")
_LADDER_KEYS = _DERIVED_KEYS + ("n_max", "Gamma_rad_per_s", "alpha")
_READS = {
    "modes": _LADDER_KEYS,
    "spectrum": _LADDER_KEYS + ("omega_min_GHz", "omega_max_GHz", "n_omega"),
    "fieldmap": _LADDER_KEYS + ("mu0_H0_min_T", "mu0_H0_max_T", "n_H0", "n_omega"),
    "decay": _LADDER_KEYS + ("omega0_GHz", "t_end_us", "dt_ns", "n_samples", "solver",
                             "R_list_nm"),
    "transfer": _LADDER_KEYS + ("t_end_us", "dt_ns", "n_samples"),
    "coupling-sweep": _DERIVED_KEYS + ("G_nm", "R_min_nm", "R_max_nm", "n_R"),
}
# (key, the key that overrides it): set, the second leaves the first unread.
_OVERRIDES = [("Gamma_rad_per_s", "alpha"), ("a_over_R", "a_nm"), ("n_samples", "dt_ns")]

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


def _fuzz_arg(keys):
    return st.sampled_from(keys).flatmap(
        lambda key: st.tuples(st.just(key), st.sampled_from(_FUZZ_CHOICES[key])))


def _fuzz_argv(experiment):
    """(experiment, sizes, values), both drawn from the keys it reads."""
    # spectrum takes n_omega only with both omega bounds.
    sizes = {k: st.integers(1, cap) for k, cap in _FUZZ_SIZES.items()
             if k in _READS[experiment] and (experiment, k) != ("spectrum", "n_omega")}
    return st.tuples(st.just(experiment), st.fixed_dictionaries(sizes),
                     st.lists(_fuzz_arg(list(_READS[experiment])), max_size=3).map(dict))


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
@given(st.sampled_from(EXPERIMENTS).flatmap(_fuzz_argv))
def test_any_argv_exits_0_2_or_3(case):
    experiment, sizes, values = case
    # A set dt_ns leaves n_samples unread; a size would make every such run exit 2.
    if "dt_ns" in values:
        sizes.pop("n_samples", None)
    argv = [experiment]
    for key, value in {**sizes, **values}.items():
        argv += [f"--{key}", str(value)]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", out])
        assert code in (0, 2, 3), argv
        if code == 0:
            _assert_finite_outputs(Path(out))


def _is_default(key, raw):
    from magnoncavity.cli import _parse_value

    try:
        return _parse_value(key, raw) == RunConfig.__dataclass_fields__[key].default
    except ValueError:
        return False


_UNREAD_ARG = st.sampled_from([(e, k) for e in EXPERIMENTS for k in _FUZZ_KEYS
                               if k not in _READS[e]]).flatmap(
    lambda pair: st.tuples(st.just(pair), st.sampled_from(
        [v for v in _FUZZ_CHOICES[pair[1]] if not _is_default(pair[1], v)])))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_UNREAD_ARG)
def test_an_unread_key_off_its_default_exits_2(case):
    (experiment, key), value = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            assert main([experiment, f"--{key}", value, "--out", out]) == 2
        assert not list(Path(out).glob("*.csv"))
    assert key in err.getvalue()


# A small working point of each experiment, as flags.
_SMALL_RUNS = {
    "modes": {},
    "spectrum": {"omega_min_GHz": "15", "omega_max_GHz": "17", "n_omega": "21"},
    "fieldmap": {"n_H0": "3", "n_omega": "5"},
    "decay": {"R_list_nm": "30", "n_max": "1", "t_end_us": "0.2", "n_samples": "400"},
    "transfer": {"Gamma_rad_per_s": "1e6", "t_end_us": "3", "n_samples": "5000"},
    "coupling-sweep": {"n_R": "5"},
}
# An in-domain value off each key's default. Where a tuple, the flags after
# it set the run it is compared with (None: back to the default).
_CHANGES = {
    "R_nm": "28", "mu0_H0_T": "0.6", "mu0_He_T": ("1.0", {"mu0_H0_T": "none", "mu0_He_T": "0.9"}),
    "mu0_Ms_T": "0.2", "gamma_GHz_per_T": "29", "Gamma_rad_per_s": "2e6",
    "alpha": ("2e-5", {"Gamma_rad_per_s": None, "alpha": "1e-5"}), "n_max": "2",
    "mu_B_scale": "2", "a_nm": "34", "a_over_R": "1.15", "omega0_GHz": "15.7",
    "Delta_over_g": "8", "G_nm": "8", "t_end_us": "0.25", "n_samples": "500",
    "dt_ns": ("0.4", {"n_samples": None, "dt_ns": "0.5"}), "solver": "volterra",
    "omega_min_GHz": "15.5", "omega_max_GHz": "16.5", "n_omega": "7", "mu0_H0_min_T": "0.35",
    "mu0_H0_max_T": "0.65", "n_H0": "4", "R_list_nm": "35", "R_min_nm": "25", "R_max_nm": "90",
    "n_R": "6",
}
# Sample counts only count below the resolution guard's step, and transfer
# reads n_max only to warn of a mode near the detuned Kittel line.
_CHANGES_IN = {
    ("transfer", "t_end_us"): "3.5", ("transfer", "n_samples"): "6000",
    ("transfer", "dt_ns"): ("0.5", {"n_samples": None, "dt_ns": "0.6"}),
    ("transfer", "n_max"): ("1", {"Delta_over_g": "40", "t_end_us": "12"}),
}


def _change(experiment, key):
    """(value, flags of the run it is compared with) for `key` in `experiment`."""
    change = _CHANGES_IN.get((experiment, key), _CHANGES[key])
    value, base = change if isinstance(change, tuple) else (change, {})
    return value, {**_SMALL_RUNS[experiment], **base}


def _argv(experiment, flags):
    argv = [experiment]
    for key, value in flags.items():
        if value is not None:
            argv += [f"--{key}", value]
    return argv


def _what_a_run_states(argv):
    """A run's data and header lines but the hash, and its manifest's derived and warnings."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--out", str(out)])
        assert code == 0, argv
        files = {p.name: p.read_text().split("\n", 1)[1] for p in sorted(out.glob("*.csv"))}
        manifest = json.loads((out / "manifest.json").read_text())
    return files, manifest["derived"], manifest["warnings"]


@pytest.mark.parametrize("experiment, key", [
    (e, k) for e in EXPERIMENTS for k in RunConfig.__dataclass_fields__
    if k not in ("experiment", "out")])
def test_each_key_changes_a_result_or_is_refused(tmp_path, capsys, experiment, key):
    # A read key moves what a run states; an unread one, off its default, is
    # refused before anything is written.
    value, flags = _change(experiment, key)
    if key not in _READS[experiment]:
        assert main(_argv(experiment, {**flags, key: value}) + ["--out", str(tmp_path)]) == 2
        assert f"{key} is read by " in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))
        return
    assert (_what_a_run_states(_argv(experiment, flags))
            != _what_a_run_states(_argv(experiment, {**flags, key: value})))


@pytest.mark.parametrize("experiment, key, by", [
    (e, key, by) for e in EXPERIMENTS for key, by in _OVERRIDES if key in _READS[e]])
def test_an_overridden_key_is_refused(tmp_path, capsys, experiment, key, by):
    value, flags = _change(experiment, by)
    flags.update({by: value, key: _change(experiment, key)[0]})
    assert main(_argv(experiment, flags) + ["--out", str(tmp_path)]) == 2
    assert f"{key} is not read once {by} is set" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, keys", [
    (["modes", "--n_H0", "5"], ["n_H0"]),
    (["modes", "--solver", "volterra"], ["solver"]),
    (["modes", "--t_end_us", "7"], ["t_end_us"]),
    (["spectrum", "--n_H0", "3"], ["n_H0"]),
    (["coupling-sweep", "--n_max", "3"], ["n_max"]),
    (["transfer", "--config", "transfer.cfg", "--solver", "volterra"], ["solver"]),
    (["transfer", "--config", "transfer.cfg", "--R_list_nm", "50"], ["R_list_nm"]),
    (["decay", "--config", "decay.cfg", "--G_nm", "9"], ["G_nm"]),
    (["fieldmap", "--omega_min_GHz", "15", "--omega_max_GHz", "17"],
     ["omega_min_GHz", "omega_max_GHz"]),
    (["modes", "--alpha", "1e-4", "--Gamma_rad_per_s", "1e6"], ["Gamma_rad_per_s"]),
    (["modes", "--a_nm", "40", "--a_over_R", "1.3"], ["a_over_R"]),
    (["decay", "--dt_ns", "1", "--n_samples", "500"], ["n_samples"]),
], ids=["modes-n_H0", "modes-solver", "modes-t_end_us", "spectrum-n_H0", "coupling-sweep-n_max",
        "transfer-solver", "transfer-R_list_nm", "decay-G_nm", "fieldmap-omega-bounds",
        "alpha-Gamma", "a_nm-a_over_R", "dt_ns-n_samples"])
def test_keys_that_could_not_change_a_run_are_refused(tmp_path, capsys, argv, keys):
    # Each of these once ran, with the data of the run without the key.
    configs = Path(__file__).parents[1] / "configs"
    argv = [str(configs / a) if a.endswith(".cfg") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert all(key in err for key in keys)
    assert not list(tmp_path.glob("*.csv"))


def test_an_unread_key_at_its_default_is_accepted(tmp_path):
    # The hash covers every key, and an unread key can only hold its default.
    assert main(["coupling-sweep", "--n_max", "7", "--out", str(tmp_path / "a")]) == 0
    assert main(["coupling-sweep", "--out", str(tmp_path / "b")]) == 0
    assert ((tmp_path / "a" / "coupling_sweep.csv").read_bytes()
            == (tmp_path / "b" / "coupling_sweep.csv").read_bytes())


def test_declared_readers_match_the_specification(capsys):
    from magnoncavity.cli import _KEYS

    declared = {k: f.metadata["reads"] for k, f in _KEYS.items() if k != "out"}
    assert declared == {k: ", ".join(e for e in EXPERIMENTS if k in _READS[e]) for k in declared}
    assert sum(len(keys) for keys in _READS.values()) == 89
    assert {(k, f.metadata["unless"]) for k, f in _KEYS.items()
            if f.metadata["unless"]} == set(_OVERRIDES)
    # --help names each key's readers from the same declaration.
    with pytest.raises(SystemExit):
        main(["modes", "--help"])
    usage = " ".join(capsys.readouterr().out.split())
    for key, reads in declared.items():
        assert f"default {RunConfig.__dataclass_fields__[key].default}; read by {reads}" in usage


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
    from magnoncavity.dynamics import _time_step, decay_populations

    overrides = dict(zip(_VOLTERRA_OVER_BUDGET[1::2], _VOLTERRA_OVER_BUDGET[2::2]))
    cfg = parse_config(None, {k.lstrip("-"): v for k, v in overrides.items()})
    cavity = build_cavity(cfg, R=30e-9)
    kernel = build_kernel(build_emitter(cfg, cavity), cavity)
    with pytest.raises(ConfigError, match="3 state values"):
        decay_populations(kernel, 3.34e-6, 1e-12, solver="volterra")
    n, dt = _time_step(kernel, 3.34e-6, 1e-12, None, len(kernel.weights) + 1)
    assert dt == pytest.approx(1e-12)
    assert n == 3_340_001


def test_decay_domain_error_writes_no_data(tmp_path):
    # a = 40 nm is outside the 30 nm sphere but inside the 50 nm one: the
    # 30 nm file written before the failure is removed with the failed run.
    assert main(["decay", "--a_nm", "40", "--out", str(tmp_path)]) == 3
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "DomainError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]
    # The same for a size error: R = 100 nm is written, R = 10 nm is over the budget.
    argv = ["decay", "--n_max", "1", "--R_list_nm", "100,10", "--t_end_us", "1000",
            "--n_samples", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "ConfigError"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


def test_failed_write_removes_the_files_written(tmp_path, monkeypatch):
    # An exception of any type, here from the writer of the second radius,
    # removes the first radius's file and leaves no manifest.
    import magnoncavity.cli as cli

    write = cli._write_csv

    def fail_second(path, *args):
        if "R50" in path.name:
            raise OSError("disk full")
        write(path, *args)

    monkeypatch.setattr(cli, "_write_csv", fail_second)
    with pytest.raises(OSError, match="disk full"):
        main(["decay", "--R_list_nm", "30,50", "--n_samples", "7", "--out", str(tmp_path)])
    assert list(tmp_path.iterdir()) == []


def test_decay_holds_one_radius_at_a_time(tmp_path):
    # Each radius's file is written before the next radius propagates, so
    # eight radii peak less than one radius's populations above one radius.
    import tracemalloc

    def peak(radii):
        argv = ["decay", "--n_samples", "20000", "--R_list_nm", radii,
                "--out", str(tmp_path / radii)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("30")      # caches built on a first call stay out of both peaks
    one = peak("30")
    _, rows, _ = read_csv(tmp_path / "30" / "decay_R30nm.csv")
    assert rows.shape == (20001, 2)
    assert peak("30,35,40,50,60,70,80,100") - one < rows[:, 1].nbytes


def test_decay_holds_the_time_text_and_the_sampler(tmp_path):
    # A radius is streamed from its sampler into its file, so a run holds
    # the shared time text (8 or 16 bytes per sample) and O(sqrt(n)) state,
    # with no array of n samples: 1.4 MB traced at the defaults, and at 1e6
    # samples about 17 MB, where the complex amplitudes, the populations and
    # two time arrays took 46 MB.
    import tracemalloc

    def peak(*argv):
        tracemalloc.start()
        try:
            assert main(["decay", *argv, "--out", str(tmp_path / str(len(argv)))]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("--n_samples", "100")      # caches built on a first call stay out of the peaks
    assert peak() < 1.6e6           # 4 x 100 001 samples
    assert peak("--R_list_nm", "30", "--n_samples", "1000000") < 18e6


@pytest.mark.parametrize("k", [WRITE_CHUNK + 5, 5 * WRITE_CHUNK + 5],
                         ids=["second-block", "sixth-block"])
@pytest.mark.parametrize("value, error", [
    (np.nan, "decay_R50nm.csv column 'population' holds a non-finite value"),
    (np.sqrt(1.1), "populations left [0, 1] beyond tolerance"),
], ids=["nan", "above-one"])
def test_bad_population_in_a_later_block_fails_the_run(tmp_path, monkeypatch, value, error, k):
    # Sample k of the second radius, in its second or sixth block, holds a
    # NaN or a population of 1.1, found as the block is streamed: the run
    # exits 3 with the message of a whole-column check, and no data file
    # is left.
    import magnoncavity.dynamics as dynamics

    sampler, made = dynamics._decay_sampler, []

    def injecting(*args):
        read, n, dt = sampler(*args)
        made.append(read)
        radius = len(made)

        def bad_read(i, j):
            c = read(i, j)
            if radius == 2 and i <= k < j:
                c[0, k - i] = value
            return c
        return bad_read, n, dt

    monkeypatch.setattr(dynamics, "_decay_sampler", injecting)
    argv = ["decay", "--R_list_nm", "30,50", "--n_samples", str(6 * WRITE_CHUNK),
            "--out", str(tmp_path)]
    assert main(argv) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert (record["type"], record["error"]) == ("NumericalError", error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


def test_transfer_holds_the_smoothing_window_and_the_sampler(tmp_path):
    # The swap comes from the generator's roots and the populations are
    # streamed into the file, so a run holds O(sqrt(n)) state and one block:
    # 1.3 MB at 1 000 001 samples, where b, Int b, P1, P2, Pb and the times
    # took 72 MB and a smoothing window of 3 ripple periods another 1.5 MB.
    # The default run is refused from the roots before anything propagates
    # (about 20 KB; 0.97 MB with the window).
    import tracemalloc

    def peak(*argv):
        tracemalloc.start()
        try:
            main(["transfer", *argv, "--out", str(tmp_path / str(len(argv)))])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("--n_samples", "100")      # caches built on a first call stay out of the peaks
    assert peak() < 1e5             # 100 001 samples; exits 3, the horizon ends before t*
    assert not (tmp_path / "0" / "transfer.csv").exists()
    assert peak("--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "1000000") < 1.5e6
    _, rows, _ = read_csv(tmp_path / "6" / "transfer.csv")
    assert rows.shape == (1_000_001, 4)


@pytest.mark.parametrize("value, error", [
    (None, None),
    (np.nan, "transfer.csv column 'Pb' holds a non-finite value"),
    (np.sqrt(1.1), "total single-excitation population exceeded 1"),
], ids=["clean", "nan", "above-one"])
def test_bad_transfer_block_fails_the_run(tmp_path, monkeypatch, value, error):
    # The magnon amplitude at a sample of the second block is a NaN or
    # sqrt(1.1). The swap comes from the generator, not from the samples, so
    # the run meets the bad block as it is streamed: it exits 3 with the
    # message of a whole-series check, and no data file is left. Each block
    # is read exactly once, for all three columns.
    import magnoncavity.network as network

    propagator, reads, k = network._propagator, [], WRITE_CHUNK + 5

    def injecting(*args):
        read = propagator(*args)

        def bad_read(i, j):
            reads.append((i, j))
            out = read(i, j)
            if value is not None and i <= k < j:
                out[0, k - i] = value
            return out
        return bad_read

    monkeypatch.setattr(network, "_propagator", injecting)
    argv = ["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "30000",
            "--out", str(tmp_path)]
    if value is None:
        assert main(argv) == 0
        blocks = [(i, min(i + WRITE_CHUNK, 30_001)) for i in range(0, 30_001, WRITE_CHUNK)]
        assert reads == blocks
        return
    assert main(argv) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert (record["type"], record["error"]) == ("NumericalError", error)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.parametrize("argv, name", [
    (["spectrum"], "spectrum.csv"), (["fieldmap", "--n_H0", "2", "--n_omega", "3"], "fieldmap.csv"),
], ids=["spectrum", "fieldmap"])
def test_emitter_position_header_is_plain_floats(tmp_path, argv, name):
    # The same text under every numpy: three Python floats, no np.float64(...).
    assert main(argv + ["--out", str(tmp_path)]) == 0
    _, _, meta = read_csv(tmp_path / name)
    position = ast.literal_eval(meta["emitter_position_m"])
    assert len(position) == 3 and all(type(x) is float for x in position)


def test_successful_run_leaves_exactly_the_files_its_manifest_lists(tmp_path):
    assert main(["decay", "--n_samples", "7", "--out", str(tmp_path)]) == 0
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert files == [f"decay_R{R}nm.csv" for R in (30, 50, 70, 100)]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["manifest.json"])


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
    (["modes", "--mu0_H0_T", "1e300"], "NumericalError",
     "modes.csv column 'omega_over_2pi_GHz' holds a non-finite value"),
    (["decay", "--mu0_H0_T", "1e300"], "DomainError", "kernel weights and rates must be finite"),
    (["transfer", "--mu0_H0_T", "1e300"], "DomainError",
     "kernel weights and rates must be finite"),
    (["coupling-sweep", "--Delta_over_g", "1e-320"], "DomainError",
     "Delta = 0 or g^2/Delta overflows"),
    # |Delta| = 7e206 rad/s: s^2 overflows unless the roots are scaled, and
    # the slow root puts t* at 2e193 s, far past the 1e-306 s horizon.
    (["transfer", "--Delta_over_g", "1e200", "--t_end_us", "1e-300"], "NumericalError",
     "ends before the first swap at t* = 2.27872e+193 s"),
    # dt = 1 ns over a 0.1 ns horizon: one sample, ending long before the swap.
    (["transfer", "--dt_ns", "1", "--t_end_us", "1e-4"], "NumericalError", "horizon"),
], ids=["sweep-g_eff-undefined", "mode-frequencies-overflow", "swap-horizon-underflows",
        "mode-table-overflows", "decay-kernel-overflows",
        "transfer-kernel-overflows", "sweep-g_eff-overflows", "swap-roots-scaled",
        "transfer-single-sample"])
def test_exit_code_3_for_unresolvable_inputs(tmp_path, argv, error, cause):
    assert main(argv + ["--out", str(tmp_path)]) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["type"] == error
    assert cause in record["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


@pytest.mark.parametrize("argv, swap", [
    (["--Delta_over_g", "1e-300"], 4.7113e6),
    (["--Delta_over_g", "0.25", "--t_end_us", "3"], 4.3015e6),
], ids=["swap-ripple-period-overflows", "non-dispersive-swap"])
def test_transfer_swaps_where_no_smoothing_window_fits(tmp_path, argv, swap):
    # Resonant and near-resonant pairs swap within the horizon. A boxcar
    # over 3 detuning periods refused both (the period overflows, or spans
    # more than the horizon); the slow root reads their swap.
    assert main(["transfer", *argv, "--out", str(tmp_path)]) == 0
    _assert_finite_outputs(tmp_path)
    _, _, meta = read_csv(tmp_path / "transfer.csv")
    assert float(meta["swap_frequency_rad_per_s"]) == pytest.approx(swap, rel=1e-4)


@pytest.mark.parametrize("argv, cause", [
    ([], "ends before the first swap at t* = 2.3345"),
    (["--Delta_over_g", "0", "--Gamma_rad_per_s", "3.9e7", "--t_end_us", "3"],
     "the bright mode is overdamped"),
], ids=["default-horizon", "overdamped"])
def test_transfer_without_a_swap_in_reach_exits_3_before_propagating(tmp_path, monkeypatch,
                                                                     argv, cause):
    # The default 1 us horizon ends before the swap time t* = 2.3345 us; at
    # Delta = 0, Gamma >= 4 sqrt(g1^2 + g2^2) damps the bright mode before
    # it swaps anything. Either is refused from the generator's roots, before
    # anything is propagated, and no data file is left.
    import magnoncavity.network as network

    def unused(*args):
        raise AssertionError("propagated")

    monkeypatch.setattr(network, "_propagator", unused)
    assert main(["transfer", *argv, "--out", str(tmp_path)]) == 3
    record = json.loads((tmp_path / "error.json").read_text())
    assert record["type"] == "NumericalError" and cause in record["error"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["error.json"]


def test_transfer_swap_header_does_not_move_with_n_samples(tmp_path):
    # The swap frequency and the fidelities come from the generator at the
    # swap time, not from the sampled populations.
    cfgfile = Path(__file__).parents[1] / "configs" / "transfer.cfg"
    keys = ("# swap_frequency_rad_per_s=", "# fidelity=", "# average_fidelity=")
    headers = []
    for n in ("5000", "100000"):
        out = tmp_path / n
        assert main(["transfer", "--config", str(cfgfile), "--n_samples", n,
                     "--out", str(out)]) == 0
        lines = (out / "transfer.csv").read_bytes().splitlines()
        headers.append([line for line in lines if line.decode().startswith(keys)])
    assert len(headers[0]) == 3 and headers[0] == headers[1]


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


def test_cli_import_leaves_out_ode_integrators(tmp_path):
    # All dynamics propagate exactly with a numpy expm, and the swap comes
    # from the generator's roots; neither scipy.integrate nor scipy.ndimage
    # loads, nor scipy.linalg.
    src = str(Path(magnoncavity.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, magnoncavity.cli; "
            "print(sorted({'scipy.integrate', 'scipy.ndimage', 'scipy.linalg'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.strip() == "[]"
    # Both experiments that propagate run without any scipy module.
    runs = [["decay", "--R_list_nm", "30", "--n_samples", "200"],
            ["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "200"]]
    code = ("import sys; from magnoncavity.cli import main; "
            f"assert all(main(argv + ['--out', {str(tmp_path)!r} + '/' + argv[0]]) == 0 "
            f"for argv in {runs!r}); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env)
    assert out.stdout.splitlines()[-1] == "[]"


def test_public_surface():
    assert sorted(magnoncavity.__all__) == sorted(
        "mode_table spectral_grid field_sweep_map build_kernel decay_populations symmetric_pair "
        "transfer_populations coupling_vs_separation_sweep CavityConfig "
        "MaterialParams EmitterConfig state_from_internal internal_field tesla_to_field "
        "kittel_frequency CONSTANTS ConfigError DomainError NumericalError".split())
    assert all(hasattr(magnoncavity, name) for name in magnoncavity.__all__)
    # A trim must leave every name the benchmark's correctness check imports.
    checks = ast.parse((Path(__file__).parents[1] / "perfbench" / "checks.py").read_text())
    imported = {alias.name for node in ast.walk(checks) if isinstance(node, ast.ImportFrom)
                and node.module == "magnoncavity" for alias in node.names}
    assert imported and imported <= set(magnoncavity.__all__)
    # The reference physics lives in tests/oracles.py, and the removed knobs stay gone.
    moved = set("mode_potential mode_field mode_frequency BOUNDARY_TOL E_PLUS E_MINUS "
                "SusceptibilityTensor susceptibility NumericalSingularity".split())
    for info in pkgutil.iter_modules(magnoncavity.__path__):
        assert not moved & set(vars(importlib.import_module(f"magnoncavity.{info.name}")))
    from magnoncavity.constants import Constants, field_to_tesla, tesla_to_field
    assert not hasattr(magnoncavity.CavityConfig, "volume")
    assert "mu0" not in magnoncavity.MaterialParams.__dataclass_fields__
    assert "c_light" not in Constants.__dataclass_fields__
    assert [len(inspect.signature(f).parameters) for f in (tesla_to_field, field_to_tesla)] == [1, 1]


# The library call each experiment's runner makes, as `cli` binds it.
EXPERIMENT_CALLS = ("mode_table", "spectral_grid", "field_sweep_map", "build_kernel",
                    "decay_populations", "symmetric_pair", "transfer_populations",
                    "coupling_vs_separation_sweep")


def test_exported_calls_are_the_clis():
    # The package exports the very functions that the CLI runs, so the
    # library cannot fork from the experiments.
    import magnoncavity.cli as cli
    import oracles

    for name in EXPERIMENT_CALLS:
        assert name in magnoncavity.__all__
        assert getattr(cli, name) is getattr(magnoncavity, name), name
    # The README's "Library" section: its first paragraph gives the count and
    # lists exactly the exports, and every `name` or `module.name` it cites
    # exists, in the package, one of its modules or tests/oracles.py.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    exports = section.strip().split("\n\n")[0]
    assert f"exports {len(magnoncavity.__all__)} names" in exports
    assert set(re.findall(r"`(\w+)`", exports)) == set(magnoncavity.__all__)
    modules = {info.name: importlib.import_module(f"magnoncavity.{info.name}")
               for info in pkgutil.iter_modules(magnoncavity.__path__)}
    names = {"magnoncavity": magnoncavity, **modules}
    for module in (*modules.values(), oracles, magnoncavity):
        names.update(vars(module))
    cited = re.findall(r"`([A-Za-z_][\w.]*)`", section)
    assert "decay_populations" in cited and "local_extrema" in cited
    for ref in cited:
        head, *attrs = ref.split(".")
        assert head in names, ref
        functools.reduce(getattr, attrs, names[head])


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
    # A text column from TextColumn must read as the numbers written with %.12g.
    from magnoncavity._text import TextColumn
    from magnoncavity.cli import _write_csv

    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 15.661334567890123]
    n = np.arange(nrows) + (2**53 - 3)     # odd values past 2**53 have no exact float
    x = np.resize(specials, nrows)
    y = np.linspace(-1.0, 1.0, nrows)
    path = tmp_path / "t.csv"
    _write_csv(path, {"n": n, "x": x, "y": y, "x_text": TextColumn(x)}, "abc123", {})
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


# Chunks whose text needs fewer words: short integers take one, fixed-notation
# values from 1 up two, and values in (1e-4, 1) three. One added value widens
# its own chunk: the last row is in the first chunk, or alone in the second.
_NARROW_BASES = {
    "integers": lambda n: np.arange(1.0, n + 1),
    "from-1": lambda n: np.random.default_rng(1).uniform(1.0, 1e11, n),
    "below-1": lambda n: np.random.default_rng(2).uniform(1e-4, 1.0, n),
}
_WIDENING = {"none": None, "exponent-below": 9.9e-5, "exponent-above": 1e12, "negative": -0.5,
             "near-tie-fixed": 1.000000000005, "near-tie-exponent": 1.234567890125e-50,
             "subnormal": 5e-324}


@pytest.mark.parametrize("nrows", [WRITE_CHUNK - 1, WRITE_CHUNK, WRITE_CHUNK + 1],
                         ids=["chunk-1", "chunk", "chunk+1"])
@pytest.mark.parametrize("extra", _WIDENING.values(), ids=_WIDENING)
@pytest.mark.parametrize("base", _NARROW_BASES.values(), ids=_NARROW_BASES)
def test_write_csv_narrow_chunks(tmp_path, base, extra, nrows):
    values = base(nrows)
    if extra is not None:
        values[-1] = extra
    values = values.tolist()
    assert _write_g12(tmp_path / "t.csv", values) == _g12_text(values)


def _binades():
    """Each biased exponent 1..2046 gives 2**(b - 1023), the float below it
    and the binade's largest value; exponent 0 gives zero and the smallest
    subnormal, 2047 inf and nan. The bulk path's band starts at 2**-962
    and ends below 2**963. Both signs."""
    low = (np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)).view(np.float64)
    largest = (low.view(np.uint64) | np.uint64(2**52 - 1)).view(np.float64)
    family = np.concatenate([[0.0, 5e-324, np.inf, np.nan], low, np.nextafter(low, -np.inf),
                             largest, _neighbours([2.0**-962, 2.0**963])])
    return np.concatenate([-family, family])


@pytest.mark.parametrize("sep", [",", "\n", "\0"], ids=["comma", "newline", "nul"])
@pytest.mark.parametrize("family", ["bit-patterns", "binades", "near-tie"])
def test_encoder_packs_each_text_left_in_the_fewest_words(family, sep):
    # Each row's words hold '%.12g' % v and the separator from the first
    # byte on, then only NULs, and a block is as many words wide as its
    # widest text needs. The bulk path, Python's text of the values it
    # leaves out and a NUL separator, which takes no room, all pack alike:
    # the near-tie's text, "0.00123456789012", fills two words.
    from magnoncavity._text import encode_g12

    if family == "bit-patterns":
        rng = np.random.default_rng(20240602)
        values = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    elif family == "binades":
        values = _binades()
    else:
        values = np.array([1.0, 0.001234567890125, -0.5])
    texts = [("%.12g%s" % (v, sep)).rstrip("\0").encode() for v in values.tolist()]
    width = -(-max(map(len, texts)) // 8)
    words = np.column_stack(encode_g12(values, sep))
    assert words.shape == (len(values), width)
    assert words.tobytes() == b"".join(t.ljust(8 * width, b"\0") for t in texts)
    # Shorter blocks take fewer words: 8, 16 and 24 bytes per row.
    assert [len(encode_g12(base(WRITE_CHUNK), sep)) for base in _NARROW_BASES.values()] == [
        1, 2, 3]


def test_encoder_peak_is_about_fifty_bytes_per_value():
    # The encoder works in place and frees each array once it is used: over
    # the writer blocks of the default decay's populations, its traced peak,
    # the result's words included, is 49.1-52.5 bytes per value (90-98 when
    # it did not). The block taken is the widest of them, the tenth at
    # 30 nm, whose rare wide texts take a third word.
    import tracemalloc

    from magnoncavity._text import encode_g12
    from magnoncavity.cli import build_cavity, build_emitter
    from magnoncavity.dynamics import build_kernel, decay_populations

    cfg = RunConfig(experiment="decay")
    cavity = build_cavity(cfg, R=30e-9)
    populations, _ = decay_populations(build_kernel(build_emitter(cfg, cavity), cavity), 1e-6,
                                       n_samples=100_000)
    block = populations[9 * WRITE_CHUNK:10 * WRITE_CHUNK]
    encode_g12(block, ",")          # the separator's tables are built on a first call
    tracemalloc.start()
    try:
        assert len(encode_g12(block, ",")) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 56 * WRITE_CHUNK


def test_join_rows_drops_its_word_columns():
    # The row block is made from the columns, then the list is emptied, so
    # that the columns it alone holds are freed before the text is made.
    # Rows wider than a piece are joined in several pieces, to the same text.
    from magnoncavity._text import _JOIN_WORDS, encode_g12, join_rows

    words = [*encode_g12(np.array([0.5, -2.0]), ","), *encode_g12(np.array([1e-9, 3.0]), "\n")]
    assert list(join_rows(words)) == [b"0.5,1e-09\n-2,3\n"]
    assert words == []
    values = np.arange(2000.0)
    words = [*encode_g12(values, ",")] * 39 + [*encode_g12(values, "\n")]
    pieces = list(join_rows(words))
    assert len(pieces) == -(-2000 // (_JOIN_WORDS // 40)) and words == []
    assert b"".join(pieces).decode() == "".join(39 * ("%.12g," % v) + "%.12g\n" % v
                                                for v in values.tolist())


def test_write_csv_every_binade(tmp_path):
    values = _binades().tolist()
    assert _write_g12(tmp_path / "t.csv", values) == _g12_text(values)


def _table_row_values(c, tz, sign):
    """Values of notation class c (e = c - 4 in fixed notation; 16 is
    exponent notation) with 12 - tz significant digits, none of them 0."""
    digits = "123456789123"[:12 - tz]
    exponents = [c - 4] if c < 16 else [-289, -100, -99, -10, -5, 12, 13, 99, 100, 289]
    return [float(f"{sign}{digits[0]}.{digits[1:]}e{e}") for e in exponents]


@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
@pytest.mark.parametrize("tz", range(12), ids=lambda tz: f"tz{tz}")
@pytest.mark.parametrize("c", range(17), ids=lambda c: f"e{c - 4}" if c < 16 else "exp")
def test_write_csv_every_table_row(tmp_path, c, tz, sign):
    # Every row of the digit tables, with either sign: the sign and "0.000"
    # move the digits up by 0 to 48 bits, and an exponent starts in the first
    # or the second word, as the digits' length puts it, with 2 or 3 digits.
    # Each value is written after a ',', a '\n' and, as a text column, NUL.
    from magnoncavity._text import TextColumn
    from magnoncavity.cli import _write_csv

    values = np.array(_table_row_values(c, tz, sign))
    path = tmp_path / "t.csv"
    _write_csv(path, {"x": values, "t": TextColumn(values), "y": values}, "abc123", {})
    assert path.read_text().split("\n")[2:] == [
        "%.12g,%.12g,%.12g" % (v, v, v) for v in values.tolist()] + [""]


# The CPU features that numpy dispatches to at run time on this CPU, and
# the SHA-256 of the file that write_csv makes of the array saved in
# argv[1], one line each; the file is argv[2].
_WRITE_AND_HASH = """
import hashlib, sys
from pathlib import Path
import numpy as np
try:
    from numpy._core import _multiarray_umath as umath
except ImportError:                                     # numpy 1.x
    from numpy.core import _multiarray_umath as umath
from magnoncavity._text import write_csv
print(" ".join(f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)))
write_csv(Path(sys.argv[2]), {"x": np.load(sys.argv[1])}, "abc123", {})
print(hashlib.sha256(Path(sys.argv[2]).read_bytes()).hexdigest())
"""


def test_writer_bytes_do_not_depend_on_simd_dispatch(tmp_path, monkeypatch):
    # 10**6 random bit patterns and one default decay radius's populations,
    # written in a process where numpy dispatches to none of the CPU
    # features it dispatches to here, hash as they do here.
    series = _recording(monkeypatch, "decay_populations")
    assert main(["decay", "--R_list_nm", "30", "--out", str(tmp_path)]) == 0
    rng = np.random.default_rng(20240601)
    bit_patterns = rng.integers(0, 2**64, 10**6, dtype=np.uint64).view(np.float64)
    np.save(tmp_path / "values.npy", np.concatenate([bit_patterns, series[0][0][:]]))
    argv = [str(tmp_path / "values.npy"), str(tmp_path / "here.csv")]
    monkeypatch.setattr(sys, "argv", ["-c", *argv])
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(_WRITE_AND_HASH, {})
    features, digest = here.getvalue().splitlines()
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": features,
           "PYTHONPATH": str(Path(magnoncavity.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _WRITE_AND_HASH, argv[0],
                          str(tmp_path / "simd-off.csv")],
                         capture_output=True, text=True, check=True, env=env)
    assert out.stdout.split("\n") == ["", digest, ""]


def test_text_column_chunks_keep_their_own_width(tmp_path, monkeypatch):
    # Each chunk's rows are as wide as its own longest text needs: 8, 16
    # and 24 bytes here, the last through Python's text of 5e-324, and no
    # chunk is widened after it is stored. Aligned blocks, blocks across
    # chunks and an index all read the %.12g text.
    from magnoncavity._text import TextColumn, join_rows

    chunk = 64
    rng = np.random.default_rng(4)
    values = np.concatenate([np.arange(1.0, chunk + 1), rng.uniform(1.0, 1e11, chunk),
                             np.arange(1.0, chunk - 23)])
    values[-7] = 5e-324
    index = rng.integers(0, values.size, 500)
    column, indexed = TextColumn(values, chunk=chunk), TextColumn(values, index, chunk=chunk)
    assert sum(words.nbytes for words in column.chunks) == chunk * (8 + 16) + (chunk - 24) * 24

    def read(col, start, stop):
        return b"".join(join_rows(col.block(start, stop, ","))).decode()

    def text(vals):
        return "".join("%.12g," % v for v in vals.tolist())

    for start in range(0, values.size, chunk):
        assert read(column, start, start + chunk) == text(values[start:start + chunk])
    for start, stop in [(0, values.size), (5, 70), (60, 140), (127, 129), (130, 500)]:
        assert read(column, start, stop) == text(values[start:stop])
    for start, stop in [(0, 500), (0, chunk), (10, 250), (499, 600)]:
        assert read(indexed, start, stop) == text(values[index[start:stop]])
    # The default decay's shared time text takes one word per sample.
    texts = _recording(monkeypatch, "TextColumn")
    assert main(["decay", "--R_list_nm", "30", "--out", str(tmp_path)]) == 0
    assert sum(words.nbytes for words in texts[0].chunks) == 8 * len(texts[0])


def test_write_csv_mixed_columns(tmp_path):
    # An indexed text axis, two adjacent float columns and an int column,
    # over three chunks whose float columns take different widths.
    from magnoncavity._text import TextColumn
    from magnoncavity.cli import _write_csv

    n = 2 * WRITE_CHUNK + 1
    rng = np.random.default_rng(3)
    axis = np.array([0.5, 2.0, 1e-7, -3.25, 0.0, 123456.789012345])
    index = rng.integers(0, axis.size, n)
    x = rng.uniform(0.0, 1.0, n)
    x[WRITE_CHUNK + 5] = -1e300
    y = 1.0 + 0.25 * np.arange(n)
    y[-1] = 5e-324
    k = rng.integers(-10**6, 10**6, n)
    path = tmp_path / "t.csv"
    _write_csv(path, {"t": TextColumn(axis, index), "x": x, "y": y, "k": k}, "abc123", {})
    expected = ["# manifest_hash=abc123", "t,x,y,k"] + [
        "%.12g,%.12g,%.12g,%d" % row
        for row in zip(axis[index].tolist(), x.tolist(), y.tolist(), k.tolist())]
    assert path.read_text().split("\n") == expected + [""]


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


@pytest.mark.parametrize("radii, extra, n_grids", [
    ("30,50", [], 1), ("30,50", ["--n_max", "1"], 2), ("30,30.001", ["--n_max", "1"], 2)],
    ids=["shared-grid", "grid-per-radius", "same-size-grids"])
def test_decay_time_axis_matches_each_radius(tmp_path, monkeypatch, radii, extra, n_grids):
    # Radii share one formatted time axis, encoded once, only while their
    # grids are equal; with n_max = 1 the coupling guard gives each radius
    # its own dt, and at 30 and 30.001 nm two steps give grids of one size.
    series = _recording(monkeypatch, "decay_populations")
    texts = _recording(monkeypatch, "TextColumn")
    argv = ["decay", "--R_list_nm", radii, "--n_samples", "7", "--out", str(tmp_path)]
    assert main(argv + extra) == 0
    assert len({(len(populations), dt) for populations, dt in series}) == n_grids
    assert len(texts) == n_grids
    for R, (populations, dt) in zip(radii.split(","), series):
        rows = zip((np.arange(len(populations)) * dt / US).tolist(), populations[:].tolist())
        assert _data_lines(tmp_path / f"decay_R{R}nm.csv") == ["%.12g,%.12g" % row for row in rows]


def test_decay_header_records_each_radius_time_step(tmp_path, monkeypatch):
    # With n_max = 1 the coupling guard gives each radius its own dt.
    series = _recording(monkeypatch, "decay_populations")
    argv = ["decay", "--n_max", "1", "--R_list_nm", "30,50", "--n_samples", "7"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert series[0][1] != series[1][1]
    for R, (_, dt) in zip((30, 50), series):
        _, _, meta = read_csv(tmp_path / f"decay_R{R}nm.csv")
        assert float(meta["dt_s"]) == dt


def test_transfer_header_records_the_time_step(tmp_path, monkeypatch):
    results = _recording(monkeypatch, "transfer_populations")
    argv = ["transfer", "--Gamma_rad_per_s", "1e6", "--t_end_us", "3", "--n_samples", "200"]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    _, _, meta = read_csv(tmp_path / "transfer.csv")
    ((_, _, _, metadata),) = results
    assert float(meta["dt_s"]) == metadata["dt_s"]
    assert float(meta["average_fidelity"]) == metadata["average_fidelity"]


def test_run_config_roundtrip_hash_changes():
    from magnoncavity.cli import _config_hash

    a = RunConfig(experiment="modes")
    b = RunConfig(experiment="modes", R_nm=31.0)
    assert _config_hash(a) != _config_hash(b)
    assert _config_hash(a) == _config_hash(RunConfig(experiment="modes"))
    # Pinned: the `# manifest_hash=` line of every default decay file.
    assert _config_hash(RunConfig(experiment="decay")) == "1911ae482f295062"
