import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import magnoncavity
from magnoncavity import ConfigError
from magnoncavity.cli import WRITE_CHUNK, RunConfig, main, parse_config, run
from magnoncavity.constants import CONSTANTS, TWO_PI, US


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

def test_exit_code_2_for_config_error(tmp_path, capsys):
    assert main(["modes", "--R_nm", "-5", "--out", str(tmp_path)]) == 2
    assert "R_nm" in capsys.readouterr().err


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
], ids=["R_nm-nan", "t_end_us-inf", "n_H0-0", "R_list_nm-token", "n_samples-0",
        "R_list_nm-empty", "omega_min-only", "omega_max-only", "omega_min-above-max",
        "n_omega-without-bounds", "n_max-over-budget", "samples-over-budget-t_end",
        "samples-over-budget-dt", "dt-underflows"])
def test_exit_code_2_for_bad_values(tmp_path, argv):
    # The size budget rejects its cases before any large array is allocated.
    assert main(argv + ["--out", str(tmp_path)]) == 2


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
    cfgfile = Path(__file__).parents[1] / "configs" / "transfer.cfg"
    assert main(["transfer", "--config", str(cfgfile), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "manifest.json").exists()
    assert main(["transfer", "--out", str(tmp_path)]) == 3   # 1 us is shorter than the swap
    assert (tmp_path / "error.json").exists()
    assert not (tmp_path / "manifest.json").exists()


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
