import math

import numpy as np
import pytest

from magnoncavity import (CavityConfig, ConfigError, DomainError,
                          EmitterConfig, NumericalError, TwoEmitterConfig,
                          coupling_vs_separation_sweep,
                          dipole_dipole_coupling, effective_coupling,
                          has_fast_ripples, kittel_frequency, mode_table,
                          symmetric_pair, transfer_dynamics)
from magnoncavity.network import _boxcar, _check_single_mode_validity


@pytest.fixture(scope="module")
def dispersive_cfg(cavity_narrow):
    return symmetric_pair(cavity_narrow, a=1.2 * cavity_narrow.R, Delta_over_g=10.0)


@pytest.fixture(scope="module")
def dispersive_run(dispersive_cfg):
    return transfer_dynamics(dispersive_cfg, t_end=3.0e-6, dt=1.0e-9)


def lossless_cavity(yig_lossless, fields, R=30e-9):
    return CavityConfig(R=R, mat=yig_lossless, fields=fields, n_max=1)


# ------------------------------------------------------------- configuration

def test_symmetric_pair_geometry(dispersive_cfg, cavity_narrow):
    cfg = dispersive_cfg
    p1 = np.array(cfg.emitter1.position)
    p2 = np.array(cfg.emitter2.position)
    assert np.allclose(p1, -p2)
    assert cfg.gap == pytest.approx(0.2 * cavity_narrow.R, rel=1e-12)
    omega_K = kittel_frequency(cavity_narrow.fields, cavity_narrow.mat)
    assert cfg.emitter1.omega0 == pytest.approx(omega_K + cfg.Delta, rel=1e-14)
    g = abs(mode_table(cavity_narrow, cfg.emitter1.position).g[0])
    assert cfg.Delta == pytest.approx(10.0 * g, rel=1e-12)


def test_emitters_must_be_outside(cavity_narrow):
    inside = EmitterConfig((0.5 * cavity_narrow.R, 0, 0), 1e11)
    outside = EmitterConfig((2.0 * cavity_narrow.R, 0, 0), 1e11)
    with pytest.raises(DomainError):
        TwoEmitterConfig(cavity=cavity_narrow, emitter1=inside, emitter2=outside,
                         Delta=1e7)


def test_asymmetric_placement_rejected(cavity_narrow):
    omega_K = kittel_frequency(cavity_narrow.fields, cavity_narrow.mat)
    e1 = EmitterConfig((1.2 * cavity_narrow.R, 0, 0), omega_K + 1e8)
    e2 = EmitterConfig((-1.5 * cavity_narrow.R, 0, 0), omega_K + 1e8)
    cfg = TwoEmitterConfig(cavity=cavity_narrow, emitter1=e1, emitter2=e2, Delta=1e8)
    with pytest.raises(NumericalError):
        transfer_dynamics(cfg, t_end=1e-7, dt=1e-9)


def test_single_mode_validity_warning(cavity):
    # Kittel detuning within a factor 10 of the n = 2 splitting triggers a warning.
    cfg = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=40.0)
    with pytest.warns(UserWarning, match="single-mode"):
        _check_single_mode_validity(cfg)


# --------------------------------------------------------- closed-form limit

def test_resonant_bright_state_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0: P1 = (1+cos(sqrt(2) g t))^2/4, P2 = (1-cos)^2/4,
    # Pb = sin^2(sqrt(2) g t)/2; P2 reaches 1 at t = pi/(sqrt(2) g).
    cavity = lossless_cavity(yig_lossless, fields)
    cfg = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, cfg.emitter1.position).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    res = transfer_dynamics(cfg, t_end=t_end, dt=1e-9)
    c = np.cos(math.sqrt(2.0) * g * res.times)
    assert np.max(np.abs(res.P1 - (1 + c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(res.P2 - (1 - c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(res.Pb - (1 - c**2) / 2.0)) < 1e-7
    assert np.max(res.P2) > 1.0 - 1e-4  # grid-limited: the true peak is 1


def test_resonant_magnon_start_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0, excitation starting in the magnon: only the bright
    # state couples, Pb = cos^2(sqrt(2) g t), P1 = P2 = sin^2(sqrt(2) g t)/2.
    cavity = lossless_cavity(yig_lossless, fields)
    cfg = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, cfg.emitter1.position).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    res = transfer_dynamics(cfg, t_end=t_end, dt=1e-9, initial_state=(0.0, 0.0, 1.0))
    s = np.sin(math.sqrt(2.0) * g * res.times)
    assert np.max(np.abs(res.Pb - (1 - s**2))) < 1e-12
    assert np.max(np.abs(res.P1 - s**2 / 2.0)) < 1e-12
    assert np.max(np.abs(res.P2 - s**2 / 2.0)) < 1e-12


def test_decoupled_receiver_reduces_to_single_emitter(yig_lossless, fields):
    # dipole_scale = 0 on emitter 2 must reproduce the one-emitter detuned decay.
    from magnoncavity import MemoryKernel, evolve_pseudomode

    cavity = lossless_cavity(yig_lossless, fields)
    omega_K = kittel_frequency(fields, cavity.mat)
    probe = EmitterConfig((1.2 * cavity.R, 0, 0), omega_K)
    g = abs(mode_table(cavity, probe.position).g[0])
    Delta = 10.0 * g
    e1 = EmitterConfig((1.2 * cavity.R, 0, 0), omega_K + Delta)
    e2 = EmitterConfig((-1.2 * cavity.R, 0, 0), omega_K + Delta, dipole_scale=0.0)
    cfg = TwoEmitterConfig(cavity=cavity, emitter1=e1, emitter2=e2, Delta=Delta)
    res = transfer_dynamics(cfg, t_end=3e-7, dt=1e-9)
    kernel = MemoryKernel(weights=(g * g,), rates=(1j * Delta,))
    single = evolve_pseudomode(kernel, 3e-7, 1e-9)
    assert np.max(np.abs(res.P1 - single.populations)) < 1e-10
    assert np.max(res.P2) == 0.0
    assert math.isnan(res.swap_frequency)


def test_label_swap_symmetry(dispersive_cfg, dispersive_run):
    # Starting the excitation on emitter 2 mirrors the populations exactly:
    # identical couplings make the equations symmetric under 1 <-> 2.
    mirrored = transfer_dynamics(dispersive_cfg, t_end=3.0e-6, dt=1.0e-9,
                                 initial_state=(0.0, 1.0, 0.0))
    assert np.array_equal(mirrored.P1, dispersive_run.P2)
    assert np.array_equal(mirrored.P2, dispersive_run.P1)
    assert np.array_equal(mirrored.Pb, dispersive_run.Pb)


def test_initial_state_must_be_normalized(dispersive_cfg):
    with pytest.raises(DomainError):
        transfer_dynamics(dispersive_cfg, t_end=1e-7, dt=1e-9,
                          initial_state=(2.0, 0.0, 0.0))


# --------------------------------------------------------- dispersive regime

def test_swap_frequency_matches_g_eff(dispersive_cfg, dispersive_run):
    g = dispersive_run.metadata["g"]
    g_eff = effective_coupling(g, dispersive_cfg.Delta)
    assert dispersive_run.swap_frequency == pytest.approx(g_eff, rel=0.10)


def test_transfer_fidelity_with_loss(dispersive_run):
    assert 0.9 < dispersive_run.fidelity < 1.0


def test_transfer_fidelity_lossless(yig_lossless, fields):
    cavity = lossless_cavity(yig_lossless, fields)
    cfg = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    res = transfer_dynamics(cfg, t_end=3.0e-6, dt=1.0e-9)
    # The reported fidelity sits at the smoothed peak, slightly below the
    # ripple tops, so it lands just under the ideal 1 - O((g/Delta)^2).
    assert res.fidelity > 0.95


def test_fast_ripples_present(dispersive_run):
    assert has_fast_ripples(dispersive_run)


@pytest.mark.parametrize("width", [7, 4, 60])
def test_boxcar_matches_edge_clamped_moving_average(width):
    # Odd, even, and wider than the series: the window centred like
    # scipy.ndimage.uniform_filter1d(mode="nearest"), edges clamped.
    x = np.random.default_rng(1).random(50)
    idx = np.arange(x.size)[:, None] - width // 2 + np.arange(width)[None, :]
    naive = x[np.clip(idx, 0, x.size - 1)].mean(axis=1)
    np.testing.assert_allclose(_boxcar(x, width), naive, rtol=0, atol=1e-13)


def test_magnon_population_bound(dispersive_cfg, dispersive_run):
    g = dispersive_run.metadata["g"]
    bound = 4.0 * (g / dispersive_cfg.Delta) ** 2 + 1e-3
    assert np.max(dispersive_run.Pb) <= bound


def test_transfer_dt_guard(dispersive_cfg):
    with pytest.raises(ConfigError):
        transfer_dynamics(dispersive_cfg, t_end=1e-6, dt=1e-7)


# ---------------------------------------------------- coupling scale context

def test_effective_coupling_formula():
    assert effective_coupling(2.0e6, 2.0e7) == pytest.approx(2.0e5)
    with pytest.raises(DomainError):
        effective_coupling(1e6, 0.0)


def test_dipole_dipole_hand_value():
    # mu0*muB^2/(hbar*(2pi)^2*d^3) = 69.55 Hz at d = 72 nm.
    g = dipole_dipole_coupling(72e-9)
    assert g / (2 * math.pi) == pytest.approx(69.55, rel=0.01)


def test_dipole_dipole_distance_law():
    assert dipole_dipole_coupling(36e-9) / dipole_dipole_coupling(72e-9) == (
        pytest.approx(8.0, rel=1e-12))
    with pytest.raises(DomainError):
        dipole_dipole_coupling(0.0)


def test_separation_sweep_enhancement(yig_narrow):
    from magnoncavity import tesla_to_field

    rows = coupling_vs_separation_sweep(
        G=6e-9, R_values=[30e-9, 50e-9, 70e-9, 100e-9],
        mat=yig_narrow, H0=tesla_to_field(0.5))
    assert [r["R_m"] for r in rows] == [30e-9, 50e-9, 70e-9, 100e-9]
    assert rows[0]["separation_m"] == pytest.approx(72e-9, rel=1e-12)
    ratios = [r["g_eff_rad_per_s"] / r["g_dip_rad_per_s"] for r in rows]
    # Magnon-mediated coupling beats the vacuum baseline by orders of magnitude,
    # and the margin grows with the sphere size at fixed gap.
    assert 500 < ratios[0] < 5000
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_separation_sweep_validation(yig_narrow):
    from magnoncavity import tesla_to_field

    with pytest.raises(DomainError):
        coupling_vs_separation_sweep(G=-1e-9, R_values=[30e-9], mat=yig_narrow,
                                     H0=tesla_to_field(0.5))
    with pytest.raises(DomainError):
        coupling_vs_separation_sweep(G=6e-9, R_values=[-30e-9], mat=yig_narrow,
                                     H0=tesla_to_field(0.5))
