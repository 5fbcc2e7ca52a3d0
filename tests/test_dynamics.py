import math

import numpy as np
import pytest

from magnoncavity import (CavityConfig, ConfigError, DomainError, EmitterConfig,
                          MemoryKernel, NumericalError, TimeSeries,
                          build_kernel, evolve_pseudomode, evolve_volterra,
                          extract_rabi_frequency, first_revival_time,
                          fit_decay_rate, kittel_frequency, max_stable_dt,
                          mode_table, state_from_internal, tesla_to_field)
from oracles import volterra_history_oracle


def resonant_kernel(cavity, dipole_scale=1.0):
    omega0 = kittel_frequency(cavity.fields, cavity.mat)
    emitter = EmitterConfig(position=(1.2 * cavity.R, 0, 0), omega0=omega0,
                            dipole_scale=dipole_scale)
    return build_kernel(emitter, cavity), emitter


# -------------------------------------------------------------------- kernel

def test_empty_kernel_freezes_population():
    ts = evolve_pseudomode(MemoryKernel(weights=(), rates=()), 1e-7, 1e-9)
    assert np.all(ts.populations == 1.0)
    ts = evolve_volterra(MemoryKernel(weights=(), rates=()), 1e-7, 1e-9)
    assert np.all(ts.populations == 1.0)
    # No mode, no resolution guard: the step must come from dt or n_samples.
    ts = evolve_pseudomode(MemoryKernel(weights=(), rates=()), 1e-7, n_samples=100)
    assert ts.times.size == 101
    with pytest.raises(ConfigError, match="finite"):
        evolve_pseudomode(MemoryKernel(weights=(), rates=()), 1e-7)


def test_kernel_zero_lag_is_total_weight(cavity_narrow):
    kernel, emitter = resonant_kernel(cavity_narrow)
    g_n = mode_table(cavity_narrow, emitter.position).g
    assert kernel.K0 == pytest.approx(np.sum(np.abs(g_n) ** 2), rel=1e-12)
    assert kernel(0.0) == pytest.approx(kernel.K0)


def test_kernel_envelope_decays_at_half_linewidth(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    Gamma = cavity_narrow.mat.Gamma
    tau = 3.0 / Gamma
    assert abs(kernel(tau)) == pytest.approx(kernel.K0 * math.exp(-Gamma * tau / 2.0),
                                             rel=1e-9)


def test_kernel_rates_encode_detunings(cavity, emitter):
    kernel = build_kernel(emitter, cavity)
    t = mode_table(cavity, emitter.position)
    assert np.allclose(kernel.weights, np.abs(t.g) ** 2)
    rates = np.array(kernel.rates)
    assert np.allclose(rates.imag, emitter.omega0 - t.omega)
    assert np.allclose(rates.real, -t.Gamma / 2.0)


def test_negative_weight_rejected():
    with pytest.raises(Exception):
        MemoryKernel(weights=(-1.0,), rates=(0.0 + 0.0j,))


@pytest.mark.parametrize("weights, rates", [
    ((math.nan,), (0.0j,)), ((math.inf,), (0.0j,)),
    ((1.0,), (complex(0.0, math.inf),)), ((1.0, 1.0), (0.0j, complex(math.nan, 0.0))),
], ids=["nan-weight", "inf-weight", "inf-rate", "nan-rate"])
def test_non_finite_kernel_rejected(weights, rates):
    # An overflowed mode table is refused where its kernel is built.
    with pytest.raises(DomainError, match="must be finite"):
        MemoryKernel(weights=weights, rates=rates)


# ----------------------------------------------------------------- dt guard

def test_dt_guard_binding_constraint(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    limit = max_stable_dt(kernel)
    g = math.sqrt(max(kernel.weights))
    # On resonance the coupling bound 1/(10 g)/10 is the tightest.
    assert limit == pytest.approx(1.0 / (100.0 * g), rel=1e-12)
    with pytest.raises(ConfigError, match="coupling"):
        evolve_pseudomode(kernel, 1e-7, 10.0 * limit)


def test_nonpositive_dt_rejected(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    with pytest.raises(ConfigError):
        evolve_volterra(kernel, 1e-7, 0.0)


# ---------------------------------------------------------- closed-form runs

def test_resonant_lossless_rabi_is_cosine_squared(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    t_end = 2.0 * math.pi / g
    ts = evolve_pseudomode(kernel, t_end, max_stable_dt(kernel) / 2.0)
    exact = np.cos(g * ts.times) ** 2
    assert np.max(np.abs(ts.populations - exact)) < 1e-8


def test_rabi_extraction_matches_2g(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    ts = evolve_pseudomode(kernel, 2.0 * math.pi / g, max_stable_dt(kernel) / 2.0)
    assert extract_rabi_frequency(ts) == pytest.approx(2.0 * g, rel=2e-3)
    assert first_revival_time(ts) == pytest.approx(math.pi / g, rel=2e-3)


def test_detuned_dip_depth(yig_lossless, fields):
    # Delta = 10 g: transferred fraction 4g^2/(4g^2 + Delta^2) = 1/26.
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, emitter = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    det = EmitterConfig(position=emitter.position, omega0=emitter.omega0 + 10.0 * g)
    kernel = build_kernel(det, cavity)
    Omega = math.sqrt(4.0 * g**2 + (10.0 * g) ** 2)
    ts = evolve_pseudomode(kernel, 2.5 * math.pi / Omega, max_stable_dt(kernel) / 4.0)
    depth = 1.0 - np.min(ts.populations)
    assert depth == pytest.approx(4.0 / 104.0, rel=1e-3)


def test_norm_conserved_without_loss(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=3)
    kernel, _ = resonant_kernel(cavity)
    ts = evolve_pseudomode(kernel, 5e-8, max_stable_dt(kernel) / 2.0)
    total = ts.populations + np.sum(np.abs(ts.mode_amplitudes) ** 2, axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-9


def test_exceptional_point_closed_form():
    # g = Gamma/4 gives a double root of the pseudo-mode matrix (defective,
    # ill-conditioned eigenvectors): P(t) = exp(-Gamma t/2) (1 + Gamma t/4)^2.
    Gamma = 1e7
    kernel = MemoryKernel(weights=(Gamma**2 / 16.0,), rates=(-Gamma / 2.0,))
    ts = evolve_pseudomode(kernel, 40.0 / Gamma, max_stable_dt(kernel) / 2.0)
    exact = np.exp(-Gamma * ts.times / 2.0) * (1.0 + Gamma * ts.times / 4.0) ** 2
    assert np.max(np.abs(ts.populations - exact)) < 1e-12


def test_markovian_rate_matches_golden_rule(yig, fields):
    # Weak coupling g << Gamma: population decays at 4 g^2/Gamma.
    cavity = CavityConfig(R=30e-9, mat=yig, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity, dipole_scale=0.05)
    g2 = kernel.K0
    Gamma = yig.Gamma
    expected = 4.0 * g2 / Gamma
    ts = evolve_pseudomode(kernel, 4e-5, 1e-8)
    assert fit_decay_rate(ts) == pytest.approx(expected, rel=0.05)


# ----------------------------------------------------------- solver checks

def test_cross_solver_agreement(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    dt = max_stable_dt(kernel) / 2.0
    t_end = 1.0e-6
    a = evolve_volterra(kernel, t_end, dt)
    b = evolve_pseudomode(kernel, t_end, dt)
    assert np.max(np.abs(a.populations - b.populations)) < 1e-4


def test_volterra_second_order_convergence(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    t_end = 3e-7
    # Commensurate steps so the fine grid subsamples onto the coarse one.
    dt = t_end / math.ceil(t_end / (max_stable_dt(kernel) / 2.0))
    coarse = evolve_volterra(kernel, t_end, dt)
    fine = evolve_volterra(kernel, t_end, dt / 2.0)
    assert np.max(np.abs(coarse.populations - fine.populations[::2])) < 1e-5


@pytest.mark.parametrize("material, n_max, detuning", [
    ("yig_narrow", 1, 0.0), ("yig", 7, 0.0), ("yig_lossless", 1, 0.0), ("yig_narrow", 1, 10.0),
], ids=["n_max-1", "n_max-7", "Gamma-0", "detuned"])
def test_volterra_matches_literal_history(request, fields, material, n_max, detuning):
    # The recursion over one history term per mode, filled by doubling, must
    # give the amplitudes of the literal O(N^2) trapezoid sum; Gamma = 0
    # puts every |z_m| = exp(Re s_m dt) at 1.
    cavity = CavityConfig(R=30e-9, mat=request.getfixturevalue(material),
                          fields=fields, n_max=n_max)
    kernel, emitter = resonant_kernel(cavity)
    if detuning:
        shifted = EmitterConfig(position=emitter.position,
                                omega0=emitter.omega0 + detuning * math.sqrt(kernel.K0))
        kernel = build_kernel(shifted, cavity)
    dt = max_stable_dt(kernel) / 2.0
    t_end = 3000 * dt
    c = evolve_volterra(kernel, t_end, dt).amplitudes
    assert c.size == 3001
    assert np.max(np.abs(c - volterra_history_oracle(kernel, t_end, dt))) <= 1e-12


def test_volterra_at_a_million_samples(cavity_narrow):
    # Doubling the step map 20 times must not grow its error: at dt = 3 ps
    # the scheme's own error is far below the tolerance.
    kernel, _ = resonant_kernel(cavity_narrow)
    a = evolve_volterra(kernel, 3e-6, 3e-12)
    b = evolve_pseudomode(kernel, 3e-6, 3e-12)
    assert a.times.size == 1_000_001
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) <= 1e-8


def test_population_bounds_enforced():
    with pytest.raises(NumericalError):
        TimeSeries(times=np.array([0.0, 1.0]), populations=np.array([1.0, 1.5]))


# ------------------------------------------------------------- radius sweep

def radius_sweep_rabi(mat, Rs):
    """Rabi frequency per radius: one resonant Kittel-mode kernel, guard/2 steps."""
    fields = state_from_internal(tesla_to_field(0.5), mat)
    kernels = (resonant_kernel(CavityConfig(R=R, mat=mat, fields=fields, n_max=1))[0]
               for R in Rs)
    return [extract_rabi_frequency(evolve_pseudomode(k, 3.2e-6)) for k in kernels]


def test_radius_sweep_monotone_with_loss(yig_narrow):
    omegas = radius_sweep_rabi(yig_narrow, [30e-9, 50e-9, 70e-9, 100e-9])
    assert all(b < a for a, b in zip(omegas, omegas[1:]))


def test_radius_sweep_coupling_exponent(yig_lossless):
    # Gamma = 0 isolates the geometric scaling; damping biases t_min late.
    Rs = [30e-9, 50e-9, 70e-9, 100e-9]
    omegas = radius_sweep_rabi(yig_lossless, Rs)
    # Log-log slope of -3/2: g ~ 1/sqrt(Veff) ~ R^-1.5 at fixed a/R.
    slope, _ = np.polyfit(np.log(Rs), np.log(omegas), 1)
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_coupling_linear_in_dipole_factor(cavity_narrow):
    k1, _ = resonant_kernel(cavity_narrow, dipole_scale=1.0)
    k2, _ = resonant_kernel(cavity_narrow, dipole_scale=2.0)
    assert k2.K0 == pytest.approx(4.0 * k1.K0, rel=1e-12)


# --------------------------------------------------------------- extractors

def test_extractors_need_enough_horizon(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    short = evolve_pseudomode(kernel, 5e-9, max_stable_dt(kernel) / 2.0)
    with pytest.raises(NumericalError):
        extract_rabi_frequency(short)
    with pytest.raises(NumericalError):
        first_revival_time(short)
