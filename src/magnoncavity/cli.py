"""Batch command-line front end.

Commands: modes, spectrum, fieldmap, decay, transfer, coupling-sweep.
Configuration comes from an optional key=value file plus per-key flag
overrides (flags win). Every run writes CSV data files with a '#'-prefixed
metadata header (including a hash of the resolved configuration) and a
JSON manifest; reruns with the same configuration are byte-identical.

Exit codes: 0 ok, 2 configuration error, 3 numerical/domain error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import sys
import time
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._text import TextColumn, block_text, join_rows
from .constants import (CONSTANTS, ConfigError, DomainError, GHz_to_rad_per_s,
                        M3_TO_MM3, NM, NumericalError, TWO_PI, US,
                        tesla_to_field)
from .dynamics import EmitterConfig, build_kernel, evolve_pseudomode, evolve_volterra
from .material import MaterialParams, internal_field, state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_table
from .network import (coupling_vs_separation_sweep, dispersive_coupling,
                      symmetric_pair, transfer_dynamics)
from .spectral import field_sweep_map, spectral_grid

EXPERIMENTS = ("modes", "spectrum", "fieldmap", "decay", "transfer", "coupling-sweep")


# A ranged key declares its closed range, a half-open (0, x] as [_TINY, x], next
# to its default. Fields and a_over_R have no cap; see `_check_finite`.
_TINY = math.ulp(0.0)


def _key(default, lo, hi=math.inf):
    return dataclasses.field(default=default, metadata={"range": (lo, hi)})


@dataclass
class RunConfig:
    """Resolved run configuration; every physical key uses the unit in its name."""

    experiment: str = ""
    # Geometry and material.
    R_nm: float = _key(30.0, 10.0, 500.0)
    mu0_H0_T: float | None = _key(0.5, _TINY)
    mu0_He_T: float | None = _key(None, _TINY)
    mu0_Ms_T: float = _key(0.178, _TINY, 10.0)        # no magnet saturates above ~2.5 T
    gamma_GHz_per_T: float = _key(28.0, _TINY, 1e3)   # 1e3 GHz/T is g ~ 70; spins have g < ~20
    Gamma_rad_per_s: float = _key(1e7, 0.0)
    alpha: float | None = _key(None, 0.0, 1.0)        # above 1 precession is overdamped
    n_max: int = _key(7, 1, 1000)
    mu_B_scale: float = _key(1.0, _TINY, 1e6)         # 1e6 mu_B is a nanomagnet, not a spin
    # Emitter placement and tuning.
    a_nm: float | None = _key(None, _TINY)
    a_over_R: float = _key(1.2, _TINY)
    omega0_GHz: float | None = _key(None, _TINY, 1e4)   # None: tuned to the Kittel mode
    # Dispersive network.
    Delta_over_g: float = 10.0
    G_nm: float = _key(6.0, 0.0, 1e6)   # magnetostatics needs G << 2 cm, the 16 GHz wavelength
    # Time grid.
    t_end_us: float = _key(1.0, _TINY)
    dt_ns: float | None = _key(None, _TINY)
    n_samples: int = _key(100000, 1)
    solver: str = "pseudomode"          # pseudomode | volterra
    # Frequency grid (spectrum). 10 THz, also omega0's cap, tops every magnon band.
    omega_min_GHz: float | None = _key(None, 0.0, 1e4)
    omega_max_GHz: float | None = _key(None, 0.0, 1e4)
    n_omega: int | None = _key(None, 1)
    # Field sweep (fieldmap).
    mu0_H0_min_T: float = _key(0.3, _TINY)
    mu0_H0_max_T: float = _key(0.7, _TINY)
    n_H0: int = _key(41, 1)
    # Radius sweeps.
    R_list_nm: str = "30,50,70,100"
    R_min_nm: float = _key(20.0, 10.0, 500.0)
    R_max_nm: float = _key(100.0, 10.0, 500.0)
    n_R: int = _key(17, 1)
    # Output.
    out: str = "out"


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_RANGES = {f.name: f.metadata["range"] for f in dataclasses.fields(RunConfig) if f.metadata}


def _range_text(key: str) -> str:
    lo, hi = _RANGES[key]
    return ("(0" if lo == _TINY else f"[{lo:g}") + (f", {hi:g}]" if hi < math.inf else ", inf)")


def _parse_value(key: str, raw: str):
    # A key typed `T | None` takes "none"; its values are parsed as T.
    types = typing.get_args(_FIELD_TYPES[key]) or (_FIELD_TYPES[key],)
    raw = raw.strip()
    if type(None) in types and raw.lower() == "none":
        return None
    if int in types:
        return int(raw)
    if float in types:
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{raw!r} is not finite")
        return value
    return raw


def _file_entries(text: str):
    """(where, key, raw) for each key=value line; `where` prefixes its errors."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        yield f"line {lineno}: ", key, raw


def parse_config(text: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Strict key=value parsing; unknown keys are rejected, flags override the file."""
    cfg = RunConfig()
    flags = (("", key, raw) for key, raw in (overrides or {}).items())
    for where, key, raw in itertools.chain(_file_entries(text or ""), flags):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{where}unknown key {key!r}")
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError as exc:
            raise ConfigError(f"{where}bad value for {key!r}: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.experiment and cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}")
    for key, (lo, hi) in _RANGES.items():
        value = getattr(cfg, key)
        if value is not None and not lo <= value <= hi:
            raise ConfigError(f"{key} must lie in {_range_text(key)}, got {value!r}")
    _radii_nm(cfg)
    if cfg.experiment == "spectrum":
        # Both omega bounds (min < max) or neither; n_omega needs both.
        lo, hi = cfg.omega_min_GHz, cfg.omega_max_GHz
        if (lo is None) != (hi is None):
            raise ConfigError("omega_min_GHz and omega_max_GHz must be set together")
        if lo is None and cfg.n_omega is not None:
            raise ConfigError("n_omega needs omega_min_GHz and omega_max_GHz")
        if lo is not None and lo >= hi:
            raise ConfigError("omega_min_GHz must be below omega_max_GHz")
    if cfg.experiment == "fieldmap" and cfg.mu0_H0_min_T >= cfg.mu0_H0_max_T:
        raise ConfigError("mu0_H0_min_T must be below mu0_H0_max_T")
    if (cfg.mu0_H0_T is None) == (cfg.mu0_He_T is None):
        raise ConfigError("set exactly one of mu0_H0_T or mu0_He_T; mu0_H0_T defaults to 0.5, "
                          "so mu0_He_T needs --mu0_H0_T none (mu0_H0_T = none in a file)")
    if cfg.solver not in ("pseudomode", "volterra"):
        raise ConfigError(f"unknown solver {cfg.solver!r}")


def _radii_nm(cfg: RunConfig) -> list[float]:
    """The decay radii listed in R_list_nm: at least one, each in the supported range."""
    try:
        radii = [float(tok) for tok in str(cfg.R_list_nm).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for 'R_list_nm': {exc}") from exc
    lo, hi = _RANGES["R_nm"]
    if not all(lo <= r <= hi for r in radii):
        raise ConfigError(f"R_list_nm entries must lie in R_nm's {_range_text('R_nm')}")
    if not radii:
        raise ConfigError("R_list_nm lists no radius")
    return radii


# ---------------------------------------------------------------------------
# Building physics objects from a RunConfig.

def build_material(cfg: RunConfig) -> MaterialParams:
    return MaterialParams(
        Ms=tesla_to_field(cfg.mu0_Ms_T),
        gamma=TWO_PI * cfg.gamma_GHz_per_T * 1e9,
        Gamma=cfg.Gamma_rad_per_s,
        alpha=cfg.alpha,
    )


def build_cavity(cfg: RunConfig, R: float | None = None, n_max: int | None = None) -> CavityConfig:
    mat = build_material(cfg)
    if cfg.mu0_H0_T is not None:
        fields = state_from_internal(tesla_to_field(cfg.mu0_H0_T), mat)
    else:
        fields = internal_field(tesla_to_field(cfg.mu0_He_T), mat)
    return CavityConfig(R=R if R is not None else cfg.R_nm * NM, mat=mat,
                        fields=fields, n_max=n_max if n_max is not None else cfg.n_max)


def emitter_radius(cfg: RunConfig, cavity: CavityConfig) -> float:
    return cfg.a_nm * NM if cfg.a_nm is not None else cfg.a_over_R * cavity.R


def build_emitter(cfg: RunConfig, cavity: CavityConfig) -> EmitterConfig:
    omega0 = (GHz_to_rad_per_s(cfg.omega0_GHz) if cfg.omega0_GHz is not None
              else kittel_frequency(cavity.fields, cavity.mat))
    return EmitterConfig(position=(emitter_radius(cfg, cavity), 0.0, 0.0),
                         omega0=omega0, dipole_scale=cfg.mu_B_scale)


# ---------------------------------------------------------------------------
# Output plumbing.

WRITE_CHUNK = 4096      # CSV rows per encoded block


def _config_hash(cfg: RunConfig) -> str:
    # Hash only the keys that influence the computed numbers; the output
    # directory must not change the data bytes.
    payload = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _format_column(values, index=None) -> TextColumn:
    """The %.12g text of an axis that many rows or files share, encoded once.

    Written row i holds value index[i], or value i without an index.
    """
    return TextColumn(values, index, WRITE_CHUNK)


def _write_csv(path: Path, columns: dict, manifest_hash: str, meta: dict) -> None:
    """Write 1-D columns (header row = keys) after '#' meta lines.

    A TextColumn (see `_format_column`) is written as its text; a numeric
    column with %d if integer, else %.12g. Rows are encoded WRITE_CHUNK at
    a time, and each block is written as soon as it is encoded.
    """
    cols = [c if isinstance(c, TextColumn) else np.asarray(c) for c in columns.values()]
    seps = [","] * (len(cols) - 1) + ["\n"]
    head = [f"# manifest_hash={manifest_hash}", *(f"# {k}={v}" for k, v in meta.items()),
            ",".join(columns)]
    with path.open("wb") as f:
        f.write(("\n".join(head) + "\n").encode())
        for i in range(0, len(cols[0]), WRITE_CHUNK):
            f.write(join_rows([block_text(c, i, i + WRITE_CHUNK, sep)
                               for c, sep in zip(cols, seps)]))


def _emitter_modes(cfg: RunConfig, cavity: CavityConfig):
    """The cavity's mode table with couplings at the configured emitter."""
    return mode_table(cavity, (emitter_radius(cfg, cavity), 0.0, 0.0), cfg.mu_B_scale)


def _derived_quantities(cfg: RunConfig) -> dict:
    t = _emitter_modes(cfg, build_cavity(cfg, n_max=1))
    g = abs(t.g[0])
    _, g_eff = dispersive_coupling(g, cfg.Delta_over_g)
    return {
        "omega_K_over_2pi_GHz": t.omega[0] / TWO_PI / 1e9,
        "Veff_mm3": t.Veff[0] * M3_TO_MM3,
        "Hzp_A_per_m": t.Hzp[0],
        "g_over_2pi_MHz": g / TWO_PI / 1e6,
        "g_eff_over_2pi_kHz": None if g_eff is None else g_eff / TWO_PI / 1e3,
    }


# ---------------------------------------------------------------------------
# Experiment dispatch.

def run(cfg: RunConfig) -> int:
    """Execute one experiment; writes data + manifest, returns the exit status.

    A run first removes an earlier run's record from `--out`: its manifest,
    its error.json and the data files that manifest lists, and nothing else.
    It writes data files only once every one of them has been computed, so
    a failed run leaves no data behind.
    """
    outdir = Path(cfg.out)
    start = time.monotonic()
    try:
        if not cfg.experiment:
            raise ConfigError("no experiment selected")
        outdir.mkdir(parents=True, exist_ok=True)
        _remove_previous_run(outdir)
        _validate(cfg)
        mhash = _config_hash(cfg)
        derived = _derived_quantities(cfg)
        runner = {
            "modes": _run_modes,
            "spectrum": _run_spectrum,
            "fieldmap": _run_fieldmap,
            "decay": _run_decay,
            "transfer": _run_transfer,
            "coupling-sweep": _run_coupling_sweep,
        }[cfg.experiment]
        outputs = runner(cfg)
        _check_finite(outputs, derived)
    except (ConfigError,) as exc:
        _write_error(outdir, "configuration", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError) as exc:
        _write_error(outdir, cfg.experiment or "setup", exc)
        print(f"error in {cfg.experiment}: {exc}", file=sys.stderr)
        return 3

    for name, (columns, meta) in outputs.items():
        _write_csv(outdir / name, columns, mhash, meta)
    manifest = {
        "config": dataclasses.asdict(cfg),
        "config_hash": mhash,
        "version": __version__,
        "derived": derived,
        "files": list(outputs),
        "duration_s": round(time.monotonic() - start, 6),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"omega_K/(2pi) = {derived['omega_K_over_2pi_GHz']:.4f} GHz")
    print(f"V_eff = {derived['Veff_mm3']:.4e} mm^3")
    print(f"g/(2pi) = {derived['g_over_2pi_MHz']:.4f} MHz")
    for name in outputs:
        print(f"wrote {outdir / name}")
    return 0


def _check_finite(outputs: dict, derived: dict) -> None:
    """Refuse a non-finite data column or `derived` value before anything is written.

    A TextColumn axis comes from `_time_grid` or `omega_grid`, which check it."""
    checked = [(f"{name} column {key!r}", col) for name, (columns, _) in outputs.items()
               for key, col in columns.items() if not isinstance(col, TextColumn)]
    checked += [(f"manifest.json derived {key!r}", v) for key, v in derived.items()
                if v is not None]
    for where, values in checked:
        if not np.all(np.isfinite(values)):
            raise NumericalError(f"{where} holds a non-finite value")


def _remove_previous_run(outdir: Path) -> None:
    try:
        listed = list(json.loads((outdir / "manifest.json").read_text())["files"])
    except (OSError, ValueError, LookupError, TypeError):
        listed = []
    # Bare CSV names only: no manifest makes a run delete anything else.
    for name in listed:
        if isinstance(name, str) and name.endswith(".csv") and Path(name).name == name:
            (outdir / name).unlink(missing_ok=True)
    for name in ("manifest.json", "error.json"):
        (outdir / name).unlink(missing_ok=True)


def _write_error(outdir: Path, stage: str, exc: Exception) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(json.dumps(
            {"stage": stage, "type": type(exc).__name__, "error": str(exc)}, indent=2) + "\n")
    except OSError:
        pass


# Each runner maps a RunConfig to its experiment's library call, and returns
# {file name: (columns, meta)} for `_write_csv`.

def _run_modes(cfg: RunConfig) -> dict:
    t = _emitter_modes(cfg, build_cavity(cfg))
    return {"modes.csv": ({
        "n": t.n,
        "omega_over_2pi_GHz": t.omega / TWO_PI / 1e9,
        "Gamma_rad_per_s": t.Gamma,
        "Veff_mm3": t.Veff * M3_TO_MM3,
        "Hzp_A_per_m": t.Hzp,
        "g_over_2pi_MHz": np.abs(t.g) / TWO_PI / 1e6,
    }, {"R_nm": cfg.R_nm})}


def _run_spectrum(cfg: RunConfig) -> dict:
    cavity = build_cavity(cfg)
    bounds = (None if f is None else GHz_to_rad_per_s(f)
              for f in (cfg.omega_min_GHz, cfg.omega_max_GHz))
    grid = spectral_grid(build_emitter(cfg, cavity), cavity, *bounds, cfg.n_omega)
    return {"spectrum.csv": (
        {"omega_over_2pi_GHz": grid.omegas / TWO_PI / 1e9, "J_rad_per_s": grid.values},
        grid.metadata)}


def _run_fieldmap(cfg: RunConfig) -> dict:
    cavity = build_cavity(cfg)
    sweep = field_sweep_map(tesla_to_field(cfg.mu0_H0_min_T), tesla_to_field(cfg.mu0_H0_max_T),
                            cfg.n_H0, build_emitter(cfg, cavity), cavity, n_omega=cfg.n_omega)
    # Each axis value is encoded once; rows gather their text by index.
    n_H0, n_omega = sweep.J.shape
    return {"fieldmap.csv": ({
        "H0_T": _format_column(sweep.H0_values * CONSTANTS.mu0,
                               np.repeat(np.arange(n_H0), n_omega)),
        "omega_GHz": _format_column(sweep.omega_values / TWO_PI / 1e9,
                                    np.tile(np.arange(n_omega), n_H0)),
        "J": sweep.J.ravel(),
    }, sweep.metadata)}


def _run_decay(cfg: RunConfig) -> dict:
    solver = evolve_volterra if cfg.solver == "volterra" else evolve_pseudomode
    dt = cfg.dt_ns * 1e-9 if cfg.dt_ns is not None else None
    files, times, t_text = {}, None, None
    for R in (r * NM for r in _radii_nm(cfg)):
        cavity = build_cavity(cfg, R=R)
        kernel = build_kernel(build_emitter(cfg, cavity), cavity)
        ts = solver(kernel, cfg.t_end_us * US, dt, cfg.n_samples)
        # Radii usually share one time grid; encode its text once.
        if times is None or not np.array_equal(ts.times, times):
            times, t_text = ts.times, _format_column(ts.times / US)
        files[f"decay_R{R / NM:g}nm.csv"] = ({"t_us": t_text, "population": ts.populations},
                                             {"R_nm": R / NM, "solver": cfg.solver})
        del ts      # keep the populations, free this radius's amplitudes
    return files


def _run_transfer(cfg: RunConfig) -> dict:
    cavity = build_cavity(cfg, n_max=1)
    positions, Delta = symmetric_pair(cavity, emitter_radius(cfg, cavity), cfg.Delta_over_g,
                                      cfg.mu_B_scale)
    dt = cfg.dt_ns * 1e-9 if cfg.dt_ns is not None else None
    result = transfer_dynamics(cavity, positions, Delta, cfg.t_end_us * US, dt, cfg.n_samples,
                               cfg.mu_B_scale)
    return {"transfer.csv": (
        {"t_us": result.times / US, "P1": result.P1, "P2": result.P2, "Pb": result.Pb},
        {"g_rad_per_s": result.metadata["g"],
         "Delta_rad_per_s": result.metadata["Delta"],
         "swap_frequency_rad_per_s": result.swap_frequency,
         "fidelity": result.fidelity})}


def _run_coupling_sweep(cfg: RunConfig) -> dict:
    cavity = build_cavity(cfg)
    sweep = coupling_vs_separation_sweep(cfg.G_nm * NM, cfg.R_min_nm * NM, cfg.R_max_nm * NM,
                                         cfg.n_R, cavity.mat, cavity.fields.H0,
                                         Delta_over_g=cfg.Delta_over_g,
                                         dipole_scale=cfg.mu_B_scale)
    return {"coupling_sweep.csv": ({
        "separation_nm": sweep["separation_m"] / NM,
        "g_eff_Hz": sweep["g_eff_rad_per_s"] / TWO_PI,
        "g_dip_Hz": sweep["g_dip_rad_per_s"] / TWO_PI,
    }, {"G_nm": cfg.G_nm, "Delta_over_g": cfg.Delta_over_g})}


# ---------------------------------------------------------------------------
# Argument parsing.

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # One parser per process: every experiment takes the same keys, so they are declared once.
    parser = argparse.ArgumentParser(prog="magnoncavity",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value configuration file")
    for f in dataclasses.fields(RunConfig):
        if f.name != "experiment":
            domain = f"in {_range_text(f.name)}; " if f.name in _RANGES else ""
            parser.add_argument(f"--{f.name}", type=str, default=None,
                                help=f"{domain}default {f.default}")
    return parser


def _joined_values(argv: list[str]) -> list[str]:
    """argv with each '--key value' pair written '--key=value'.

    argparse reads a value such as -1e300 or -inf as an option, because it
    starts with '-' and is not a plain negative number; joined to its key it
    is parsed and validated like any other value. A key followed by another
    option, or by nothing, is left for argparse to report.
    """
    keys = {"--config"} | {f"--{k}" for k in _FIELD_TYPES if k != "experiment"}
    options = keys | {"-h", "--help"}
    out, i = [], 0
    while i < len(argv):
        if argv[i] in keys and i + 1 < len(argv) and argv[i + 1] not in options:
            out.append(f"{argv[i]}={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(_joined_values(sys.argv[1:] if argv is None else argv))
    try:
        text = args.config.read_text() if args.config else None
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    overrides = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    try:
        cfg = parse_config(text, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
