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
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._text import TextColumn, write_csv as _write_csv
from .constants import (CONSTANTS, ConfigError, DomainError, GHz_to_rad_per_s,
                        M3_TO_MM3, NM, NumericalError, TWO_PI, US,
                        tesla_to_field)
from .dynamics import EmitterConfig, build_kernel, decay_populations, sample_times
from .material import MaterialParams, internal_field, state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_table
from .network import (coupling_vs_separation_sweep, dispersive_coupling,
                      symmetric_pair, transfer_populations)
from .spectral import field_sweep_map, spectral_grid

EXPERIMENTS = ("modes", "spectrum", "fieldmap", "decay", "transfer", "coupling-sweep")


# Each key declares, next to its default, the experiments that read it (all of
# them for the keys of the manifest's `derived` block, mode n = 1 at the
# emitter), the key whose setting leaves it unread, and if ranged its closed
# range, a half-open (0, x] as [_TINY, x]. Fields and a_over_R have no cap; see
# `_check_finite`. `_validate` refuses a key that the run does not read unless
# it holds its default, so the config hash covers the read keys alone.
_TINY = math.ulp(0.0)
_ALL = ", ".join(EXPERIMENTS)
_LADDER = "modes, spectrum, fieldmap, decay, transfer"     # all but coupling-sweep


def _key(default, reads, lo=None, hi=math.inf, unless=None):
    ranged = {} if lo is None else {"range": (lo, hi)}
    return dataclasses.field(default=default,
                             metadata={"reads": reads, "unless": unless, **ranged})


@dataclass
class RunConfig:
    """Resolved run configuration; every physical key uses the unit in its name."""

    experiment: str = ""
    # Geometry and material.
    R_nm: float = _key(30.0, _ALL, 10.0, 500.0)
    mu0_H0_T: float | None = _key(0.5, _ALL, _TINY)
    mu0_He_T: float | None = _key(None, _ALL, _TINY)
    mu0_Ms_T: float = _key(0.178, _ALL, _TINY, 10.0)     # no magnet saturates above ~2.5 T
    # 1e3 GHz/T is g ~ 70; spins have g < ~20.
    gamma_GHz_per_T: float = _key(28.0, _ALL, _TINY, 1e3)
    Gamma_rad_per_s: float = _key(1e7, _LADDER, 0.0, unless="alpha")
    alpha: float | None = _key(None, _LADDER, 0.0, 1.0)  # above 1 precession is overdamped
    n_max: int = _key(7, _LADDER, 1, 1000)               # transfer reads it only to warn
    mu_B_scale: float = _key(1.0, _ALL, _TINY, 1e6)      # 1e6 mu_B is a nanomagnet, not a spin
    # Emitter placement and tuning.
    a_nm: float | None = _key(None, _ALL, _TINY)
    a_over_R: float = _key(1.2, _ALL, _TINY, unless="a_nm")
    omega0_GHz: float | None = _key(None, "decay", _TINY, 1e4)   # None: tuned to the Kittel mode
    # Dispersive network.
    Delta_over_g: float = _key(10.0, _ALL)
    # Magnetostatics needs G << 2 cm, the 16 GHz wavelength.
    G_nm: float = _key(6.0, "coupling-sweep", 0.0, 1e6)
    # Time grid.
    t_end_us: float = _key(1.0, "decay, transfer", _TINY)
    dt_ns: float | None = _key(None, "decay, transfer", _TINY)
    n_samples: int = _key(100000, "decay, transfer", 1, unless="dt_ns")
    solver: str = _key("pseudomode", "decay")            # pseudomode | volterra
    # Frequency grid (spectrum). 10 THz, also omega0's cap, tops every magnon band.
    omega_min_GHz: float | None = _key(None, "spectrum", 0.0, 1e4)
    omega_max_GHz: float | None = _key(None, "spectrum", 0.0, 1e4)
    n_omega: int | None = _key(None, "spectrum, fieldmap", 1)
    # Field sweep (fieldmap).
    mu0_H0_min_T: float = _key(0.3, "fieldmap", _TINY)
    mu0_H0_max_T: float = _key(0.7, "fieldmap", _TINY)
    n_H0: int = _key(41, "fieldmap", 1)
    # Radius sweeps.
    R_list_nm: str = _key("30,50,70,100", "decay")
    R_min_nm: float = _key(20.0, "coupling-sweep", 10.0, 500.0)
    R_max_nm: float = _key(100.0, "coupling-sweep", 10.0, 500.0)
    n_R: int = _key(17, "coupling-sweep", 1)
    # Output.
    out: str = _key("out", _ALL)


_FIELD_TYPES = typing.get_type_hints(RunConfig)
_KEYS = {f.name: f for f in dataclasses.fields(RunConfig) if f.metadata}
_RANGES = {k: f.metadata["range"] for k, f in _KEYS.items() if "range" in f.metadata}


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
    # Last, every key off its default that the run does not read.
    unread = []
    for key, f in _KEYS.items() if cfg.experiment else ():
        reads, by = f.metadata["reads"], f.metadata["unless"]
        if getattr(cfg, key) == f.default:
            continue
        if cfg.experiment not in reads.split(", "):
            unread.append(f"{key} is read by {reads} only; {cfg.experiment} does not use it")
        elif by and getattr(cfg, by) is not None:
            unread.append(f"{key} is not read once {by} is set")
    if unread:
        raise ConfigError("; ".join(unread))


def _decay_file(R: float) -> str:
    """The data file of the decay at radius R (m)."""
    return f"decay_R{R / NM:g}nm.csv"


def _radii_nm(cfg: RunConfig) -> list[float]:
    """The decay radii listed in R_list_nm: at least one, each in the
    supported range, no two with the same data file."""
    tokens = [tok.strip() for tok in str(cfg.R_list_nm).split(",") if tok.strip()]
    try:
        radii = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise ConfigError(f"bad value for 'R_list_nm': {exc}") from exc
    lo, hi = _RANGES["R_nm"]
    if not all(lo <= r <= hi for r in radii):
        raise ConfigError(f"R_list_nm entries must lie in R_nm's {_range_text('R_nm')}")
    if not radii:
        raise ConfigError("R_list_nm lists no radius")
    first: dict[str, str] = {}
    for tok, r in zip(tokens, radii):
        name = _decay_file(r * NM)
        if name in first:
            raise ConfigError(f"R_list_nm entries {first[name]} and {tok} both write {name}")
        first[name] = tok
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

def _config_dict(cfg: RunConfig) -> dict:
    """{key: value} of every RunConfig key. The values are scalars and
    strings, so a shallow copy serves, where `dataclasses.asdict` would
    deep-copy each one."""
    return {key: getattr(cfg, key) for key in _FIELD_TYPES}


def _config_hash(cfg: RunConfig) -> str:
    # Hash only the keys that influence the computed numbers; the output
    # directory must not change the data bytes.
    payload = {k: v for k, v in _config_dict(cfg).items() if k != "out"}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


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
    Each data file is written a block at a time as soon as the experiment
    yields it, and a non-finite value in it is refused; a decay so holds
    one radius's sampler and no whole column. manifest.json is written
    last, as the mark of a finished run. A run that fails, with any
    exception, removes every data file it wrote, so it leaves no data
    behind. The warnings the experiment raises are printed as
    `warning: <message>` and listed in the manifest.
    """
    outdir = Path(cfg.out)
    start = time.monotonic()
    caught: list[warnings.WarningMessage] = []
    written: dict[str, None] = {}       # file names in write order, each once
    finished = False
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
        with warnings.catch_warnings(record=True) as caught:
            for name, (columns, meta) in runner(cfg):
                written[name] = None
                _write_csv(outdir / name, columns, mhash, meta, f"{name} column")
                del columns     # the runner computes the next file without this one
        for key, v in derived.items():      # None is written as null
            if v is not None and not math.isfinite(v):
                raise NumericalError(f"manifest.json derived {key!r} holds a non-finite value")
        manifest = {
            "config": _config_dict(cfg),
            "config_hash": mhash,
            "version": __version__,
            "derived": derived,
            "files": list(written),
            "warnings": [str(w.message) for w in caught],
            "duration_s": round(time.monotonic() - start, 6),
        }
        (outdir / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        finished = True
    except ConfigError as exc:
        _write_error(outdir, "configuration", exc)
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericalError) as exc:
        _write_error(outdir, cfg.experiment or "setup", exc)
        print(f"error in {cfg.experiment}: {exc}", file=sys.stderr)
        return 3
    finally:
        if not finished:
            for name in written:
                (outdir / name).unlink(missing_ok=True)
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)

    print(f"omega_K/(2pi) = {derived['omega_K_over_2pi_GHz']:.4f} GHz")
    print(f"V_eff = {derived['Veff_mm3']:.4e} mm^3")
    print(f"g/(2pi) = {derived['g_over_2pi_MHz']:.4f} MHz")
    for name in written:
        print(f"wrote {outdir / name}")
    return 0


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


# Each runner maps a RunConfig to its experiment's library call, and yields
# (file name, (columns, meta)) for `_write_csv`, one file at a time.

def _run_modes(cfg: RunConfig) -> Iterator[tuple]:
    t = _emitter_modes(cfg, build_cavity(cfg))
    yield "modes.csv", ({
        "n": t.n,
        "omega_over_2pi_GHz": t.omega / TWO_PI / 1e9,
        "Gamma_rad_per_s": t.Gamma,
        "Veff_mm3": t.Veff * M3_TO_MM3,
        "Hzp_A_per_m": t.Hzp,
        "g_over_2pi_MHz": np.abs(t.g) / TWO_PI / 1e6,
    }, {"R_nm": cfg.R_nm})


def _run_spectrum(cfg: RunConfig) -> Iterator[tuple]:
    cavity = build_cavity(cfg)
    bounds = (None if f is None else GHz_to_rad_per_s(f)
              for f in (cfg.omega_min_GHz, cfg.omega_max_GHz))
    grid = spectral_grid(build_emitter(cfg, cavity), cavity, *bounds, cfg.n_omega)
    yield "spectrum.csv", (
        {"omega_over_2pi_GHz": grid.omegas / TWO_PI / 1e9, "J_rad_per_s": grid.values},
        grid.metadata)


def _run_fieldmap(cfg: RunConfig) -> Iterator[tuple]:
    cavity = build_cavity(cfg)
    sweep = field_sweep_map(tesla_to_field(cfg.mu0_H0_min_T), tesla_to_field(cfg.mu0_H0_max_T),
                            cfg.n_H0, build_emitter(cfg, cavity), cavity, n_omega=cfg.n_omega)
    # Each axis value is encoded once; rows gather their text by index.
    n_H0, n_omega = sweep.J.shape
    yield "fieldmap.csv", ({
        "H0_T": TextColumn(sweep.H0_values * CONSTANTS.mu0,
                           np.repeat(np.arange(n_H0, dtype=np.int32), n_omega)),
        "omega_GHz": TextColumn(sweep.omega_values / TWO_PI / 1e9,
                                np.tile(np.arange(n_omega, dtype=np.int32), n_H0)),
        "J": sweep.J.ravel(),
    }, sweep.metadata)


def _run_decay(cfg: RunConfig) -> Iterator[tuple]:
    t_end, dt = _time_keys(cfg)
    grid = None
    for R in (r * NM for r in _radii_nm(cfg)):
        cavity = build_cavity(cfg, R=R)
        kernel = build_kernel(build_emitter(cfg, cavity), cavity)
        populations, step = decay_populations(kernel, t_end, dt, cfg.n_samples, cfg.solver)
        # The times are k * step; radii usually share them, so their text is
        # encoded once, from (n, step), a block at a time.
        if (len(populations), step) != grid:
            grid = len(populations), step
            t_text = TextColumn(sample_times(*grid, US))
        yield _decay_file(R), ({"t_us": t_text, "population": populations},
                               {"R_nm": R / NM, "solver": cfg.solver, "dt_s": step})


def _time_keys(cfg: RunConfig) -> tuple[float, float | None]:
    """t_end and dt in seconds (dt None unless dt_ns is set), each refused
    naming its key if it underflows to 0 s."""
    t_end, dt = cfg.t_end_us * US, None if cfg.dt_ns is None else cfg.dt_ns * 1e-9
    for key, seconds in (("t_end_us", t_end), ("dt_ns", dt)):
        if seconds == 0.0:
            raise ConfigError(f"{key} = {getattr(cfg, key)!r} underflows to 0 s")
    return t_end, dt


def _run_transfer(cfg: RunConfig) -> Iterator[tuple]:
    cavity = build_cavity(cfg)
    positions, Delta = symmetric_pair(cavity, emitter_radius(cfg, cavity), cfg.Delta_over_g,
                                      cfg.mu_B_scale)
    t_end, dt = _time_keys(cfg)
    populations, swap, fidelity, meta = transfer_populations(cavity, positions, Delta, t_end,
                                                             dt, cfg.n_samples, cfg.mu_B_scale)
    t_us = sample_times(len(populations), meta["dt_s"], US)
    yield "transfer.csv", (
        {"t_us": t_us, ("P1", "P2", "Pb"): populations},
        {"g_rad_per_s": meta["g"], "Delta_rad_per_s": meta["Delta"],
         "swap_frequency_rad_per_s": swap, "fidelity": fidelity,
         "average_fidelity": meta["average_fidelity"], "dt_s": meta["dt_s"]})


def _run_coupling_sweep(cfg: RunConfig) -> Iterator[tuple]:
    cavity = build_cavity(cfg)
    sweep = coupling_vs_separation_sweep(cfg.G_nm * NM, cfg.R_min_nm * NM, cfg.R_max_nm * NM,
                                         cfg.n_R, cavity.mat, cavity.fields.H0,
                                         Delta_over_g=cfg.Delta_over_g,
                                         dipole_scale=cfg.mu_B_scale)
    yield "coupling_sweep.csv", ({
        "separation_nm": sweep["separation_m"] / NM,
        "g_eff_Hz": sweep["g_eff_rad_per_s"] / TWO_PI,
        "g_dip_Hz": sweep["g_dip_rad_per_s"] / TWO_PI,
    }, {"G_nm": cfg.G_nm, "Delta_over_g": cfg.Delta_over_g})


# ---------------------------------------------------------------------------
# Argument parsing.

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # One parser per process: every experiment takes the same flags, and
    # `_validate` refuses those its experiment does not read.
    parser = argparse.ArgumentParser(prog="magnoncavity",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value configuration file")
    for key, f in _KEYS.items():
        domain = f"in {_range_text(key)}; " if key in _RANGES else ""
        parser.add_argument(f"--{key}", type=str, default=None,
                            help=f"{domain}default {f.default}; read by {f.metadata['reads']}")
    return parser


def _joined_values(argv: list[str]) -> list[str]:
    """argv with each '--key value' pair written '--key=value'.

    argparse reads a value such as -1e300 or -inf as an option, because it
    starts with '-' and is not a plain negative number; joined to its key it
    is parsed and validated like any other value. A key followed by another
    option, or by nothing, is left for argparse to report.
    """
    keys = {"--config"} | {f"--{k}" for k in _KEYS}
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
    overrides = {k: v for k, v in vars(args).items() if k != "config" and v is not None}
    try:
        cfg = parse_config(args.config.read_text() if args.config else None, overrides)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
