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
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .constants import (CONSTANTS, ConfigError, DomainError, GHz_to_rad_per_s,
                        M3_TO_MM3, NM, NumericalError, TWO_PI, US,
                        tesla_to_field)
from .dynamics import (EmitterConfig, build_kernel, evolve_pseudomode,
                       evolve_volterra, max_stable_dt)
from .material import MaterialParams, internal_field, state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_table
from .network import (coupling_vs_separation_sweep, effective_coupling,
                      symmetric_pair, transfer_dynamics)
from .spectral import auto_omega_grid, field_sweep_map, spectral_grid

EXPERIMENTS = ("modes", "spectrum", "fieldmap", "decay", "transfer", "coupling-sweep")


@dataclass
class RunConfig:
    """Resolved run configuration; every physical key uses the unit in its name."""

    experiment: str = ""
    # Geometry and material.
    R_nm: float = 30.0
    mu0_H0_T: float | None = 0.5
    mu0_He_T: float | None = None
    mu0_Ms_T: float = 0.178
    gamma_GHz_per_T: float = 28.0
    Gamma_rad_per_s: float = 1e7
    alpha: float | None = None
    n_max: int = 7
    mu_B_scale: float = 1.0
    # Emitter placement and tuning.
    a_nm: float | None = None
    a_over_R: float = 1.2
    omega0_GHz: float | None = None     # None: tuned to the Kittel mode
    # Dispersive network.
    Delta_over_g: float = 10.0
    G_nm: float = 6.0
    # Time grid.
    t_end_us: float = 1.0
    dt_ns: float | None = None
    n_samples: int = 100000
    solver: str = "pseudomode"          # pseudomode | volterra
    # Frequency grid (spectrum).
    omega_min_GHz: float | None = None
    omega_max_GHz: float | None = None
    n_omega: int | None = None
    # Field sweep (fieldmap).
    mu0_H0_min_T: float = 0.3
    mu0_H0_max_T: float = 0.7
    n_H0: int = 41
    # Radius sweeps.
    R_list_nm: str = "30,50,70,100"
    R_min_nm: float = 20.0
    R_max_nm: float = 100.0
    n_R: int = 17
    # Output.
    out: str = "out"


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}

# Size budget, checked before anything large is allocated: the highest mode
# order, and the complex state values that one propagation holds,
# samples * (modes + 1), 16 bytes each (160 MB at the limit).
_MAX_N_MAX = 1000
_MAX_STATE_VALUES = 10_000_000


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype in ("int", "int | None"):
        if raw.lower() == "none" and "None" in ftype:
            return None
        return int(raw)
    if ftype in ("float", "float | None"):
        if raw.lower() == "none" and "None" in ftype:
            return None
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"{raw!r} is not finite")
        return value
    return raw


def parse_config(text: str | None, overrides: dict[str, str] | None = None) -> RunConfig:
    """Strict key=value parsing; unknown keys are rejected, flags override the file."""
    cfg = RunConfig()
    if text:
        for lineno, line in enumerate(text.splitlines(), start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in stripped.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            try:
                setattr(cfg, key, _parse_value(key, raw))
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for key, raw in (overrides or {}).items():
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown key {key!r}")
        try:
            setattr(cfg, key, _parse_value(key, raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if cfg.experiment and cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}; choose from {EXPERIMENTS}")
    for key in ("R_nm", "mu0_Ms_T", "gamma_GHz_per_T", "t_end_us", "mu_B_scale"):
        if getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    if cfg.Gamma_rad_per_s < 0:
        raise ConfigError("Gamma_rad_per_s must be non-negative")
    if cfg.dt_ns is not None and cfg.dt_ns <= 0:
        raise ConfigError("dt_ns must be positive")
    for key in ("n_max", "n_samples", "n_H0", "n_R", "n_omega"):
        if getattr(cfg, key) is not None and getattr(cfg, key) < 1:
            raise ConfigError(f"{key} must be >= 1")
    if cfg.n_max > _MAX_N_MAX:
        raise ConfigError(f"n_max = {cfg.n_max} exceeds the supported maximum {_MAX_N_MAX}")
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
    if cfg.mu0_H0_T is None and cfg.mu0_He_T is None:
        raise ConfigError("one of mu0_H0_T or mu0_He_T is required")
    if cfg.solver not in ("pseudomode", "volterra"):
        raise ConfigError(f"unknown solver {cfg.solver!r}")


def _radii_nm(cfg: RunConfig) -> list[float]:
    """The decay radii listed in R_list_nm: at least one, each a positive number."""
    try:
        radii = [float(tok) for tok in str(cfg.R_list_nm).split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad value for 'R_list_nm': {exc}") from exc
    if not all(math.isfinite(r) and r > 0 for r in radii):
        raise ConfigError("R_list_nm entries must be positive")
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

WRITE_CHUNK = 4096      # CSV rows per formatting call; 512 and 4096 measured fastest


def _config_hash(cfg: RunConfig) -> str:
    # Hash only the keys that influence the computed numbers; the output
    # directory must not change the data bytes.
    payload = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _format_column(values) -> list[str]:
    """The %.12g text of each value, for an axis that many rows or files share."""
    return ["%.12g" % v for v in np.asarray(values).tolist()]


def _write_csv(path: Path, columns: dict, manifest_hash: str, meta: dict) -> None:
    """Write 1-D columns (header row = keys) after '#' meta lines.

    A column given as a list of str (see `_format_column`) is written as is;
    a numeric column with %d if integer, else %.12g. Rows are formatted
    WRITE_CHUNK at a time by one `%` over a repeated row template, and each
    block is written as soon as it is formatted.
    """
    cols = [c if isinstance(c, list) and c and isinstance(c[0], str) else np.asarray(c)
            for c in columns.values()]
    template = ",".join("%s" if isinstance(c, list)
                        else "%d" if np.issubdtype(c.dtype, np.integer) else "%.12g"
                        for c in cols) + "\n"
    ncol, nrows = len(cols), len(cols[0])
    with path.open("w") as f:
        f.write(f"# manifest_hash={manifest_hash}\n")
        f.writelines(f"# {key}={val}\n" for key, val in meta.items())
        f.write(",".join(columns) + "\n")
        for i in range(0, nrows, WRITE_CHUNK):
            rows = min(WRITE_CHUNK, nrows - i)
            # Row-major values of one block; tolist() keeps %d columns as
            # Python ints and makes Python objects for this block only.
            block = [None] * (rows * ncol)
            for j, c in enumerate(cols):
                piece = c[i:i + rows]
                block[j::ncol] = piece if isinstance(piece, list) else piece.tolist()
            f.write((template * rows) % tuple(block))


def _emitter_modes(cfg: RunConfig, cavity: CavityConfig):
    """The cavity's mode table with couplings at the configured emitter."""
    return mode_table(cavity, (emitter_radius(cfg, cavity), 0.0, 0.0), cfg.mu_B_scale)


def _derived_quantities(cfg: RunConfig) -> dict:
    t = _emitter_modes(cfg, build_cavity(cfg, n_max=1))
    g = abs(t.g[0])
    return {
        "omega_K_over_2pi_GHz": t.omega[0] / TWO_PI / 1e9,
        "Veff_mm3": t.Veff[0] * M3_TO_MM3,
        "Hzp_A_per_m": t.Hzp[0],
        "g_over_2pi_MHz": g / TWO_PI / 1e6,
        "g_eff_over_2pi_kHz": effective_coupling(g, cfg.Delta_over_g * g) / TWO_PI / 1e3,
    }


# ---------------------------------------------------------------------------
# Experiment dispatch.

def run(cfg: RunConfig) -> int:
    """Execute one experiment; writes data + manifest, returns the exit status."""
    outdir = Path(cfg.out)
    start = time.monotonic()
    try:
        if not cfg.experiment:
            raise ConfigError("no experiment selected")
        outdir.mkdir(parents=True, exist_ok=True)
        # A previous run's record must not outlive this run if it fails.
        for name in ("manifest.json", "error.json"):
            (outdir / name).unlink(missing_ok=True)
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
        files = runner(cfg, outdir, mhash)
    except (ConfigError,) as exc:
        _write_error(outdir, "configuration", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError) as exc:
        _write_error(outdir, cfg.experiment or "setup", exc)
        print(f"error in {cfg.experiment}: {exc}", file=sys.stderr)
        return 3

    manifest = {
        "config": dataclasses.asdict(cfg),
        "config_hash": mhash,
        "version": __version__,
        "derived": derived,
        "files": files,
        "duration_s": round(time.monotonic() - start, 6),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    print(f"omega_K/(2pi) = {derived['omega_K_over_2pi_GHz']:.4f} GHz")
    print(f"V_eff = {derived['Veff_mm3']:.4e} mm^3")
    print(f"g/(2pi) = {derived['g_over_2pi_MHz']:.4f} MHz")
    for name in files:
        print(f"wrote {outdir / name}")
    return 0


def _write_error(outdir: Path, stage: str, exc: Exception) -> None:
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "error.json").write_text(
            json.dumps({"stage": stage, "error": str(exc)}, indent=2) + "\n")
    except OSError:
        pass


def _run_modes(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    t = _emitter_modes(cfg, build_cavity(cfg))
    _write_csv(outdir / "modes.csv", {
        "n": t.n,
        "omega_over_2pi_GHz": t.omega / TWO_PI / 1e9,
        "Gamma_rad_per_s": t.Gamma,
        "Veff_mm3": t.Veff * M3_TO_MM3,
        "Hzp_A_per_m": t.Hzp,
        "g_over_2pi_MHz": np.abs(t.g) / TWO_PI / 1e6,
    }, mhash, {"R_nm": cfg.R_nm})
    return ["modes.csv"]


def _omega_grid(cfg: RunConfig, cavity: CavityConfig) -> np.ndarray:
    if cfg.omega_min_GHz is not None and cfg.omega_max_GHz is not None:
        npts = 2001 if cfg.n_omega is None else cfg.n_omega
        return np.linspace(GHz_to_rad_per_s(cfg.omega_min_GHz),
                           GHz_to_rad_per_s(cfg.omega_max_GHz), npts)
    return auto_omega_grid(cavity)


def _run_spectrum(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    cavity = build_cavity(cfg)
    emitter = build_emitter(cfg, cavity)
    grid = spectral_grid(_omega_grid(cfg, cavity), emitter, cavity)
    _write_csv(outdir / "spectrum.csv",
               {"omega_over_2pi_GHz": grid.omegas / TWO_PI / 1e9, "J_rad_per_s": grid.values},
               mhash, grid.metadata)
    return ["spectrum.csv"]


def _run_fieldmap(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    cavity = build_cavity(cfg)
    emitter = build_emitter(cfg, cavity)
    H0_values = np.linspace(tesla_to_field(cfg.mu0_H0_min_T),
                            tesla_to_field(cfg.mu0_H0_max_T), cfg.n_H0)
    # A common absolute grid wide enough for every column's peaks.
    lo, hi = (auto_omega_grid(dataclasses.replace(
        cavity, fields=state_from_internal(H0, cavity.mat))) for H0 in H0_values[[0, -1]])
    omegas = np.linspace(lo[0], hi[-1], 2001 if cfg.n_omega is None else cfg.n_omega)
    sweep = field_sweep_map(H0_values, omegas, emitter, cavity)
    # Each axis value is formatted once; repeating the text copies only pointers.
    H0_text = _format_column(sweep.H0_values * CONSTANTS.mu0)
    omega_text = _format_column(sweep.omega_values / TWO_PI / 1e9)
    _write_csv(outdir / "fieldmap.csv", {
        "H0_T": [s for s in H0_text for _ in omega_text],
        "omega_GHz": omega_text * len(H0_text),
        "J": sweep.J.ravel(),
    }, mhash, sweep.metadata)
    return ["fieldmap.csv"]


def _time_step(cfg: RunConfig, kernel) -> float:
    """The output step, checked against the state budget before anything propagates."""
    if cfg.dt_ns is not None:
        dt = cfg.dt_ns * 1e-9
    else:
        dt = min(max_stable_dt(kernel) / 2.0, cfg.t_end_us * US / cfg.n_samples)
    # A float count: an absurd dt gives inf, not an int overflow or a division by 0.
    samples = cfg.t_end_us * US / dt + 1.0 if dt > 0 else math.inf
    values = samples * (len(kernel.weights) + 1)
    if values > _MAX_STATE_VALUES:
        raise ConfigError(f"{samples:.3g} samples x {len(kernel.weights) + 1} state values "
                          f"exceed the budget of {_MAX_STATE_VALUES:g} values")
    return dt


def _run_decay(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    files = []
    times = t_text = None
    for R in (r * NM for r in _radii_nm(cfg)):
        cavity = build_cavity(cfg, R=R)
        emitter = build_emitter(cfg, cavity)
        kernel = build_kernel(emitter, cavity)
        dt = _time_step(cfg, kernel)
        solver = evolve_volterra if cfg.solver == "volterra" else evolve_pseudomode
        ts = solver(kernel, cfg.t_end_us * US, dt)
        # Radii usually share one time grid; format its text once.
        if times is None or not np.array_equal(ts.times, times):
            times, t_text = ts.times, _format_column(ts.times / US)
        name = f"decay_R{R / NM:g}nm.csv"
        _write_csv(outdir / name, {"t_us": t_text, "population": ts.populations},
                   mhash, {"R_nm": R / NM, "solver": cfg.solver})
        files.append(name)
        del ts      # free this radius's amplitudes before the next propagation
    return files


def _run_transfer(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    cavity = build_cavity(cfg, n_max=1)
    a = emitter_radius(cfg, cavity)
    pair = symmetric_pair(cavity, a, Delta_over_g=cfg.Delta_over_g,
                          dipole_scale=cfg.mu_B_scale)
    kernel = build_kernel(pair.emitter1, cavity)
    dt = _time_step(cfg, kernel)
    result = transfer_dynamics(pair, cfg.t_end_us * US, dt)
    _write_csv(outdir / "transfer.csv",
               {"t_us": result.times / US, "P1": result.P1, "P2": result.P2, "Pb": result.Pb},
               mhash, {"g_rad_per_s": result.metadata["g"],
                       "Delta_rad_per_s": result.metadata["Delta"],
                       "swap_frequency_rad_per_s": result.swap_frequency,
                       "fidelity": result.fidelity})
    return ["transfer.csv"]


def _run_coupling_sweep(cfg: RunConfig, outdir: Path, mhash: str) -> list[str]:
    cavity = build_cavity(cfg)
    R_values = np.linspace(cfg.R_min_nm * NM, cfg.R_max_nm * NM, cfg.n_R)
    rows = coupling_vs_separation_sweep(cfg.G_nm * NM, R_values, cavity.mat,
                                        cavity.fields.H0,
                                        Delta_over_g=cfg.Delta_over_g,
                                        dipole_scale=cfg.mu_B_scale)
    _write_csv(outdir / "coupling_sweep.csv", {
        "separation_nm": [r["separation_m"] / NM for r in rows],
        "g_eff_Hz": [r["g_eff_rad_per_s"] / TWO_PI for r in rows],
        "g_dip_Hz": [r["g_dip_rad_per_s"] / TWO_PI for r in rows],
    }, mhash, {"G_nm": cfg.G_nm, "Delta_over_g": cfg.Delta_over_g})
    return ["coupling_sweep.csv"]


# ---------------------------------------------------------------------------
# Argument parsing.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="magnoncavity",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value configuration file")
        for fname in _FIELD_TYPES:
            if fname == "experiment":
                continue
            p.add_argument(f"--{fname}", type=str, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
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
