"""End-to-end acceptance gate.

One test per headline claim, each printing a single PASS/FAIL line with the
measured value and its tolerance. Run with -s (or read captured output on
failure) to see the summary lines.
"""

import json
import math

import numpy as np
import pytest

from magnoncavity import (CONSTANTS, CavityConfig, EmitterConfig,
                          MaterialParams, build_kernel,
                          dipole_dipole_coupling, effective_coupling,
                          evolve_pseudomode, evolve_volterra,
                          extract_rabi_frequency, first_revival_time,
                          fit_decay_rate, kittel_frequency, max_stable_dt,
                          mode_frequency, mode_potential, mode_table,
                          spectral_density,
                          state_from_internal, symmetric_pair, tesla_to_field,
                          transfer_dynamics)
from magnoncavity.cli import parse_config, run
from magnoncavity.modes import mode_field

from oracles import fd_curl_and_divergence, quantized_mode_oracle

TWO_PI = 2.0 * math.pi
MM3 = 1e9  # m^3 -> mm^3


def check(label: str, ok: bool, detail: str) -> None:
    print(f"[{label}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{label}: {detail}"


def dynamics_cavity(n_max=1, Gamma=1e6, R=30e-9):
    """Strong-coupling working point used by the dynamics criteria."""
    mat = MaterialParams(Ms=tesla_to_field(0.178), Gamma=Gamma)
    fields = state_from_internal(tesla_to_field(0.5), mat)
    return CavityConfig(R=R, mat=mat, fields=fields, n_max=n_max)


def resonant_emitter(cavity, dipole_scale=1.0):
    omega0 = kittel_frequency(cavity.fields, cavity.mat)
    return EmitterConfig(position=(1.2 * cavity.R, 0.0, 0.0), omega0=omega0,
                         dipole_scale=dipole_scale)


# --------------------------------------------------------------- criterion 1

def test_criterion_1_kittel_frequency(tmp_path):
    cfg = parse_config(None)
    cfg.experiment = "modes"
    cfg.out = str(tmp_path)
    assert run(cfg) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    f_GHz = manifest["derived"]["omega_K_over_2pi_GHz"]
    check("criterion 1", abs(f_GHz - 15.66) <= 0.01,
          f"omega_K/(2pi) = {f_GHz:.4f} GHz vs 15.66 +- 0.01 GHz")


# --------------------------------------------------------------- criterion 2

@pytest.mark.xfail(
    strict=True,
    reason=(
        "The quoted reference value 0.3e-13 mm^3 for the n=1 effective volume "
        "is inconsistent with the normalization integral it is attributed to: "
        "the integral evaluates to Veff = 3V(Ms+3H0)/Ms (about 3.2e-12 mm^3 "
        "here), while 0.3e-13 mm^3 equals the reciprocal ratio 3V*Ms/(Ms+3H0). "
        "Every downstream number (g ~ 1 MHz, revival ~ 0.5 us, g_eff ~ 100 kHz) "
        "follows from the larger value, so the implementation keeps the "
        "integral's result and records this expected failure."
    ),
)
def test_criterion_2a_effective_volume_reference_value():
    cavity = dynamics_cavity(n_max=1)
    Veff_mm3 = quantized_mode_oracle(1, cavity)["Veff"] * MM3
    ref = 0.3e-13
    ok = abs(Veff_mm3 - ref) <= 0.2 * ref
    check("criterion 2a", ok,
          f"quadrature Veff = {Veff_mm3:.3e} mm^3 vs {ref:.1e} +- 20%")


def test_criterion_2b_quadrature_matches_closed_form():
    cavity = dynamics_cavity(n_max=1)
    quad = quantized_mode_oracle(1, cavity)["Veff"]
    closed = mode_table(cavity).Veff[0]
    rel = abs(quad - closed) / closed
    check("criterion 2b", rel <= 1e-6,
          f"quadrature vs closed-form Veff relative deviation {rel:.2e} <= 1e-6")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_coupling_magnitude():
    cavity = dynamics_cavity(n_max=1)
    g = abs(mode_table(cavity, resonant_emitter(cavity).position).g[0])
    g_MHz = g / TWO_PI / 1e6
    check("criterion 3", 1.0 / 3.0 <= g_MHz <= 3.0,
          f"g/(2pi) = {g_MHz:.4f} MHz within a factor 3 of 1 MHz")


# --------------------------------------------------------------- criterion 4

def test_criterion_4a_rabi_frequency_consistency():
    cavity = dynamics_cavity()
    emitter = resonant_emitter(cavity)
    kernel = build_kernel(emitter, cavity)
    g = math.sqrt(kernel.K0)
    ts = evolve_pseudomode(kernel, 1e-6, max_stable_dt(kernel) / 2.0)
    Omega = extract_rabi_frequency(ts)
    rel = abs(Omega - 2.0 * g) / (2.0 * g)
    check("criterion 4a", rel <= 0.05,
          f"extracted Omega = {Omega:.4e} rad/s vs 2g = {2 * g:.4e} ({rel:.1%})")


def test_criterion_4b_population_revival():
    cavity = dynamics_cavity()
    kernel = build_kernel(resonant_emitter(cavity), cavity)
    ts = evolve_pseudomode(kernel, 1e-6, max_stable_dt(kernel) / 2.0)
    t_rev = first_revival_time(ts)
    check("criterion 4b", 0.25e-6 <= t_rev <= 1.0e-6,
          f"first revival at {t_rev * 1e6:.3f} us vs 0.5 us within a factor 2")


def test_criterion_4c_rabi_decreases_with_radius():
    mat = MaterialParams(Ms=tesla_to_field(0.178), Gamma=1e6)
    fields = state_from_internal(tesla_to_field(0.5), mat)
    omegas = []
    for R in [30e-9, 50e-9, 70e-9, 100e-9]:
        cavity = CavityConfig(R=R, mat=mat, fields=fields, n_max=1)
        emitter = EmitterConfig(position=(1.2 * R, 0.0, 0.0),
                                omega0=kittel_frequency(fields, mat))
        kernel = build_kernel(emitter, cavity)
        omegas.append(extract_rabi_frequency(evolve_pseudomode(kernel, 3.2e-6)))
    mono = all(b < a for a, b in zip(omegas, omegas[1:]))
    check("criterion 4c", mono,
          "Rabi frequency decreases over R = 30..100 nm: "
          + ", ".join(f"{w / TWO_PI / 1e6:.3f} MHz" for w in omegas))


# --------------------------------------------------------------- criterion 5

def test_criterion_5a_cross_solver_agreement():
    cavity = dynamics_cavity()
    kernel = build_kernel(resonant_emitter(cavity), cavity)
    dt = max_stable_dt(kernel) / 2.0
    a = evolve_volterra(kernel, 1e-6, dt)
    b = evolve_pseudomode(kernel, 1e-6, dt)
    dev = float(np.max(np.abs(a.populations - b.populations)))
    check("criterion 5a", dev <= 1e-4,
          f"Volterra vs pseudo-mode max |c_e|^2 deviation {dev:.2e} <= 1e-4")


def test_criterion_5b_markovian_rate():
    cavity = dynamics_cavity()
    emitter = resonant_emitter(cavity, dipole_scale=0.01)
    kernel = build_kernel(emitter, cavity)
    # J already contains the scaled couplings, so 2*pi*J(omega0) is the rate.
    expected = TWO_PI * spectral_density(emitter.omega0, emitter, cavity)
    ts = evolve_pseudomode(kernel, 1.2e-4, 1e-8)
    rate = fit_decay_rate(ts)
    rel = abs(rate - expected) / expected
    check("criterion 5b", rel <= 0.05,
          f"fitted rate {rate:.4e}/s vs 2 pi J(omega0) = {expected:.4e}/s ({rel:.1%})")


# --------------------------------------------------------------- criterion 6

def test_criterion_6_spectral_structure():
    cavity = dynamics_cavity(n_max=7, Gamma=1e7)
    emitter = resonant_emitter(cavity)
    Gamma = 1e7
    worst = 0.0
    for n in range(1, 8):
        wn = mode_frequency(n, cavity.fields, cavity.mat)
        grid = np.linspace(wn - 5 * Gamma, wn + 5 * Gamma, 4001)
        J = spectral_density(grid, emitter, cavity)
        assert np.all(J >= 0)
        worst = max(worst, abs(float(grid[int(np.argmax(J))]) - wn))
    ok_peaks = worst <= Gamma / 2.0

    # Normalized ridge: the peak sits at omega/omega_K = 1 for every H0.
    mat = cavity.mat
    ridge_dev = 0.0
    for mu0H0 in (0.3, 0.5, 0.7):
        fields = state_from_internal(tesla_to_field(mu0H0), mat)
        cav = CavityConfig(R=cavity.R, mat=mat, fields=fields, n_max=1)
        wK = kittel_frequency(fields, mat)
        em = EmitterConfig(position=(1.2 * cav.R, 0, 0), omega0=wK)
        grid = np.linspace(wK - 20 * Gamma, wK + 20 * Gamma, 8001)
        peak = grid[int(np.argmax(spectral_density(grid, em, cav)))]
        ridge_dev = max(ridge_dev, abs(peak / wK - 1.0))
    ok_ridge = ridge_dev <= Gamma / (2.0 * kittel_frequency(cavity.fields, mat))

    check("criterion 6", ok_peaks and ok_ridge,
          f"peak offsets <= {worst:.3e} rad/s (limit Gamma/2 = {Gamma / 2:.1e}); "
          f"J >= 0; normalized ridge deviation {ridge_dev:.2e}")


# --------------------------------------------------------------- criterion 7

def test_criterion_7_dispersive_transfer():
    cavity = dynamics_cavity(Gamma=0.0)
    positions, Delta = symmetric_pair(cavity, a=36e-9, Delta_over_g=10.0)
    res = transfer_dynamics(cavity, positions, Delta, t_end=3.0e-6, dt=1.0e-9)
    g = res.metadata["g"]
    g_eff = effective_coupling(g, Delta)
    rel_swap = abs(res.swap_frequency - g_eff) / g_eff

    from magnoncavity import has_fast_ripples
    ripples = has_fast_ripples(res)

    g_eff_kHz = g_eff / TWO_PI / 1e3
    ok_geff = 100.0 / 3.0 <= g_eff_kHz <= 300.0

    g_dip = dipole_dipole_coupling(72e-9)
    direct = CONSTANTS.mu0 * CONSTANTS.muB**2 / (CONSTANTS.hbar * TWO_PI * (72e-9) ** 3)
    ok_dip = (abs(g_dip / TWO_PI - 70.0) <= 0.01 * 70.0 * 2 and
              abs(g_dip - direct) <= 1e-10 * direct)

    ratio = g_eff / g_dip
    ok_ratio = 500.0 <= ratio <= 5000.0

    check("criterion 7",
          rel_swap <= 0.10 and ripples and ok_geff and ok_dip and ok_ratio,
          f"swap {res.swap_frequency:.4e} vs g_eff {g_eff:.4e} ({rel_swap:.1%}); "
          f"ripples={ripples}; g_eff/(2pi) = {g_eff_kHz:.1f} kHz; "
          f"g_dip/(2pi) = {g_dip / TWO_PI:.2f} Hz; g_eff/g_dip = {ratio:.0f}")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_property_suite(tmp_path):
    cavity = dynamics_cavity(n_max=3)
    R = cavity.R

    # Exterior field curl- and divergence-free to 1e-6 (relative).
    field_ok = True
    for n in (1, 2, 3):
        def f(r, n=n):
            return mode_field(n, r, cavity)

        r = np.array([1.7 * R, -0.6 * R, 0.8 * R])
        curl, div = fd_curl_and_divergence(f, r, 1e-6 * R)
        ref = np.max(np.abs(f(r))) / R
        field_ok &= float(np.max(np.abs(curl))) <= 1e-6 * ref
        field_ok &= abs(div) <= 1e-6 * ref

    # Potential continuity across the surface to 1e-10 (relative).
    cont_ok = True
    rng = np.random.default_rng(7)
    for n in (1, 3, 5, 7):
        for _ in range(10):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            lo = mode_potential(n, (1.0 - 2e-12) * R * u, R)
            hi = mode_potential(n, (1.0 + 2e-12) * R * u, R)
            scale = max(abs(lo), abs(hi))
            if scale > 0:
                cont_ok &= abs(lo - hi) / scale <= 1e-10

    # Norm conservation at Gamma = 0 to 1e-9.
    lossless = dynamics_cavity(n_max=3, Gamma=0.0)
    kernel = build_kernel(resonant_emitter(lossless), lossless)
    ts = evolve_pseudomode(kernel, 5e-8, max_stable_dt(kernel) / 2.0)
    total = ts.populations + np.sum(np.abs(ts.mode_amplitudes) ** 2, axis=0)
    norm_dev = float(np.max(np.abs(total - 1.0)))
    norm_ok = norm_dev <= 1e-9

    # Population bounds on a lossy run.
    lossy = build_kernel(resonant_emitter(dynamics_cavity()), dynamics_cavity())
    lossy_ts = evolve_pseudomode(lossy, 1e-6, max_stable_dt(lossy) / 2.0)
    pop_ok = bool(np.all(lossy_ts.populations <= 1.0 + 1e-9)
                  and np.all(lossy_ts.populations >= -1e-9))

    # Determinism: identical configuration twice, byte-identical CSV.
    blobs = []
    for sub in ("first", "second"):
        cfg = parse_config("n_max = 2\n")
        cfg.experiment = "modes"
        cfg.out = str(tmp_path / sub)
        assert run(cfg) == 0
        blobs.append((tmp_path / sub / "modes.csv").read_bytes())
    det_ok = blobs[0] == blobs[1]

    check("criterion 8", field_ok and cont_ok and norm_ok and pop_ok and det_ok,
          f"curl/div<=1e-6: {field_ok}; continuity<=1e-10: {cont_ok}; "
          f"norm dev {norm_dev:.1e}<=1e-9; populations bounded: {pop_ok}; "
          f"byte-identical reruns: {det_ok}")
