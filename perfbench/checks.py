"""Correctness checks of the first pass's outputs against independent references.

Physics quantities are compared within tolerances, never bytes across
commits: a change of propagator legitimately moves the 12th digit. The
references are closed forms at the paper's working point (mu0*Ms = 0.178 T,
gamma/2pi = 28 GHz/T, mu0*H0 = 0.5 T, emitter at a = 1.2 R), a
``scipy.linalg.expm`` propagation of the pseudo-mode matrix, and the
Volterra solver as an oracle for the pseudo-mode one.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

MU0_MS_T = 0.178
GAMMA_GHZ_PER_T = 28.0
MU0_H0_T = 0.5
A_OVER_R = 1.2
RADII_NM = (30, 50, 70, 100)

EXPM_TOL = 1e-9          # |P - P_expm| at EXPM_SAMPLES times per radius
EXPM_SAMPLES = 40
SOLVER_TOL = 1e-4        # Volterra vs pseudo-mode populations
SWAP_REL_TOL = 0.10      # transfer swap frequency vs g^2/Delta
RIDGE_HALF_WINDOW = 10   # grid points searched on each side of omega_K


def kittel_GHz(mu0_H0_T):
    return GAMMA_GHZ_PER_T * (mu0_H0_T + MU0_MS_T / 3.0)


def read_table(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    """('# key=value' metadata, column names, data) of one CLI CSV file."""
    meta, body = {}, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].strip().partition("=")
            meta[key] = val
        else:
            body.append(line)
    return meta, body[0].split(","), np.loadtxt(body[1:], delimiter=",", ndmin=2)


def _decay_files(outdir: Path) -> dict[int, Path]:
    return {R: outdir / f"decay_R{R}nm.csv" for R in RADII_NM}


def _expm_reference(Gamma: float, n_max: int):
    def check(outdir: Path, dirs: dict[str, Path]) -> list[str]:
        from scipy.linalg import expm

        from magnoncavity import (CavityConfig, EmitterConfig, MaterialParams,
                                  build_kernel, kittel_frequency,
                                  state_from_internal, tesla_to_field)

        mat = MaterialParams(Ms=tesla_to_field(MU0_MS_T),
                             gamma=2.0 * math.pi * GAMMA_GHZ_PER_T * 1e9, Gamma=Gamma)
        fields = state_from_internal(tesla_to_field(MU0_H0_T), mat)
        problems = []
        for R_nm, path in _decay_files(outdir).items():
            if not path.is_file():
                problems.append(f"{path.name} missing")
                continue
            R = R_nm * 1e-9
            cavity = CavityConfig(R=R, mat=mat, fields=fields, n_max=n_max)
            emitter = EmitterConfig(position=(A_OVER_R * R, 0.0, 0.0),
                                    omega0=kittel_frequency(fields, mat))
            kernel = build_kernel(emitter, cavity)
            g = np.sqrt(np.array(kernel.weights))
            # y = (c, b_1..b_n): dc/dt = -i sum g b, db/dt = -i g c + s b.
            A = np.diag(np.concatenate(([0.0], np.array(kernel.rates)))).astype(complex)
            A[0, 1:] = -1j * g
            A[1:, 0] = -1j * g
            _, _, data = read_table(path)
            rows = np.unique(np.linspace(0, len(data) - 1, EXPM_SAMPLES).astype(int))
            err = max(abs(abs(expm(A * data[k, 0] * 1e-6)[0, 0]) ** 2 - data[k, 1])
                      for k in rows)
            if not err <= EXPM_TOL:
                problems.append(f"R = {R_nm} nm: max |P - P_expm| = {err:.3g} > {EXPM_TOL:g}")
        return problems
    return check


def check_modes(outdir: Path, dirs) -> list[str]:
    _, cols, data = read_table(outdir / "modes.csv")
    row = data[list(data[:, cols.index("n")]).index(1)]
    f = row[cols.index("omega_over_2pi_GHz")]
    g = row[cols.index("g_over_2pi_MHz")]
    problems = []
    if not abs(f - 15.66) <= 0.005:
        problems.append(f"omega_K/2pi = {f} GHz, expected 15.66")
    if not abs(g - 1.10) <= 0.005:
        problems.append(f"g/2pi = {g} MHz, expected 1.10")
    return problems


def check_spectrum(outdir: Path, dirs) -> list[str]:
    meta, cols, data = read_table(outdir / "spectrum.csv")
    f, J = data[:, 0], data[:, 1]
    Gamma_GHz = float(meta["Gamma_rad_per_s"]) / (2.0 * math.pi) / 1e9
    fK = kittel_GHz(MU0_H0_T)
    window = np.flatnonzero(np.abs(f - fK) <= 5.0 * Gamma_GHz)
    if window.size < 3:
        return ["spectrum grid does not cover omega_K"]
    k = window[np.argmax(J[window])]
    if k in (window[0], window[-1]) or not abs(f[k] - fK) <= Gamma_GHz / 2.0:
        return [f"peak at {f[k]} GHz is not within Gamma/2 of omega_K/2pi = {fK} GHz"]
    return []


def check_fieldmap(outdir: Path, dirs) -> list[str]:
    _, _, data = read_table(outdir / "fieldmap.csv")
    H0 = np.unique(data[:, 0])
    problems = []
    if data.shape[0] != 41 * 2001 or H0.size != 41:
        problems.append(f"{data.shape[0]} rows over {H0.size} fields, expected 41 x 2001")
    off = []
    for h in H0:
        col = data[data[:, 0] == h]
        k = int(np.argmin(np.abs(col[:, 1] - kittel_GHz(h))))
        lo = max(k - RIDGE_HALF_WINDOW, 0)
        if lo + int(np.argmax(col[lo:k + RIDGE_HALF_WINDOW + 1, 2])) != k:
            off.append(h)
    if off:
        problems.append(f"ridge is off omega_K(H0) in {len(off)} of {H0.size} columns, "
                        f"first at mu0 H0 = {off[0]} T")
    return problems


def check_coupling_sweep(outdir: Path, dirs) -> list[str]:
    _, cols, data = read_table(outdir / "coupling_sweep.csv")
    ratio = data[0, cols.index("g_eff_Hz")] / data[0, cols.index("g_dip_Hz")]
    if not 500.0 <= ratio <= 5000.0:
        return [f"first row g_eff/g_dip = {ratio:.4g}, expected within [500, 5000]"]
    return []


def check_transfer(outdir: Path, dirs) -> list[str]:
    meta, cols, data = read_table(outdir / "transfer.csv")
    g = float(meta["g_rad_per_s"])
    g_eff = g * g / float(meta["Delta_rad_per_s"])
    t_star = data[int(np.argmax(data[:, cols.index("P2")])), 0] * 1e-6
    swap = math.pi / (2.0 * t_star) if t_star > 0 else math.inf
    problems = []
    if not abs(g / (2.0 * math.pi * 1e6) - 1.10) <= 0.005:
        problems.append(f"g/2pi = {g / (2.0 * math.pi * 1e6)} MHz, expected 1.10")
    if not abs(swap - g_eff) <= SWAP_REL_TOL * g_eff:
        problems.append(f"swap frequency {swap:.4g} rad/s vs g^2/Delta = {g_eff:.4g}")
    return problems


def check_volterra(outdir: Path, dirs) -> list[str]:
    reference = dirs.get("decay-scripts")
    if reference is None:
        return ["no pseudo-mode decay output to compare with"]
    problems = []
    for R_nm, path in _decay_files(outdir).items():
        other = _decay_files(reference)[R_nm]
        if not (path.is_file() and other.is_file()):
            problems.append(f"R = {R_nm} nm: output missing")
            continue
        _, _, a = read_table(path)
        _, _, b = read_table(other)
        if a.shape != b.shape or np.any(a[:, 0] != b[:, 0]):
            problems.append(f"R = {R_nm} nm: time grids differ")
            continue
        err = float(np.max(np.abs(a[:, 1] - b[:, 1])))
        if not err <= SOLVER_TOL:
            problems.append(f"R = {R_nm} nm: Volterra vs pseudo-mode {err:.3g} > {SOLVER_TOL:g}")
    return problems


CHECKS = {
    "decay": _expm_reference(Gamma=1e7, n_max=7),
    "decay-scripts": _expm_reference(Gamma=1e6, n_max=1),
    "decay-volterra": check_volterra,
    "fieldmap": check_fieldmap,
    "modes": check_modes,
    "spectrum": check_spectrum,
    "coupling-sweep": check_coupling_sweep,
    "transfer": check_transfer,
    "transfer-scripts": check_transfer,
}


def run_checks(names, dirs: dict[str, Path]) -> dict[str, list[str]]:
    """Problems found per named experiment; ``dirs`` maps every experiment to its output."""
    found = {}
    for name in names:
        try:
            found[name] = CHECKS[name](dirs[name], dirs)
        except Exception as exc:    # a check that cannot run counts as failed
            found[name] = [f"{type(exc).__name__}: {exc}"]
    return found
