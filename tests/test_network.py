import math

import numpy as np
import pytest

from magnoncavity import (CavityConfig, ConfigError, DomainError,
                          NumericalError, coupling_vs_separation_sweep,
                          dipole_dipole_coupling, dispersive_coupling, effective_coupling,
                          has_fast_ripples, mode_table,
                          symmetric_pair, transfer_dynamics)
from magnoncavity import network
from magnoncavity.network import _boxcar


@pytest.fixture(scope="module")
def dispersive_pair(cavity_narrow):
    """(positions, Delta) of the antipodal pair at a = 1.2R, Delta = 10 g."""
    return symmetric_pair(cavity_narrow, a=1.2 * cavity_narrow.R, Delta_over_g=10.0)


@pytest.fixture(scope="module")
def dispersive_run(cavity_narrow, dispersive_pair):
    return transfer_dynamics(cavity_narrow, *dispersive_pair, t_end=3.0e-6, dt=1.0e-9)


def lossless_cavity(yig_lossless, fields, R=30e-9):
    return CavityConfig(R=R, mat=yig_lossless, fields=fields, n_max=1)


# ------------------------------------------------------------- configuration

def test_symmetric_pair_geometry(dispersive_pair, cavity_narrow):
    positions, Delta = dispersive_pair
    assert positions.shape == (2, 3)
    assert np.allclose(positions[0], -positions[1])
    gap = np.linalg.norm(positions[0]) - cavity_narrow.R
    assert gap == pytest.approx(0.2 * cavity_narrow.R, rel=1e-12)
    g = abs(mode_table(cavity_narrow, positions[0]).g[0])
    assert Delta == pytest.approx(10.0 * g, rel=1e-12)


def test_emitters_must_be_outside(cavity_narrow):
    positions = [(0.5 * cavity_narrow.R, 0, 0), (2.0 * cavity_narrow.R, 0, 0)]
    with pytest.raises(DomainError, match="outside the sphere"):
        transfer_dynamics(cavity_narrow, positions, 1e7, t_end=1e-7, dt=1e-9)


def test_positions_must_be_two_points(cavity_narrow):
    with pytest.raises(DomainError, match=r"\(2, 3\)"):
        transfer_dynamics(cavity_narrow, (1.2 * cavity_narrow.R, 0, 0), 1e7,
                          t_end=1e-7, dt=1e-9)


def test_asymmetric_placement_rejected(cavity_narrow):
    positions = [(1.2 * cavity_narrow.R, 0, 0), (-1.5 * cavity_narrow.R, 0, 0)]
    with pytest.raises(NumericalError):
        transfer_dynamics(cavity_narrow, positions, 1e8, t_end=1e-7, dt=1e-9)


def test_transfer_reads_one_mode_table(cavity, monkeypatch):
    # Both couplings, the linewidth and the higher modes come from one table
    # over the two positions, equal to one table per position.
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mode_table(*args, **kwargs)

    monkeypatch.setattr(network, "mode_table", counted)
    res = transfer_dynamics(cavity, positions, Delta, t_end=3e-6, dt=1e-9,
                            dipole_scale=(1.0, 0.0))
    assert len(calls) == 1
    g = mode_table(*calls[0]).g
    assert np.array_equal(g[0], mode_table(cavity, positions[0], 1.0).g)
    assert np.array_equal(g[1], mode_table(cavity, positions[1], 0.0).g)
    assert res.metadata["g"] == abs(g[0, 0])


def test_single_mode_validity_warning(cavity):
    # Kittel detuning within a factor 10 of the n = 2 splitting triggers a warning.
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=40.0)
    with pytest.warns(UserWarning, match="mode n = 2 .*single-mode"):
        transfer_dynamics(cavity, positions, Delta, t_end=12e-6, dt=1e-9)


# --------------------------------------------------------- closed-form limit

def test_resonant_bright_state_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0: P1 = (1+cos(sqrt(2) g t))^2/4, P2 = (1-cos)^2/4,
    # Pb = sin^2(sqrt(2) g t)/2; P2 reaches 1 at t = pi/(sqrt(2) g).
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, positions[0]).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    res = transfer_dynamics(cavity, positions, Delta, t_end=t_end, dt=1e-9)
    c = np.cos(math.sqrt(2.0) * g * res.times)
    assert np.max(np.abs(res.P1 - (1 + c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(res.P2 - (1 - c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(res.Pb - (1 - c**2) / 2.0)) < 1e-7
    assert np.max(res.P2) > 1.0 - 1e-4  # grid-limited: the true peak is 1


def test_resonant_magnon_start_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0, excitation starting in the magnon: only the bright
    # state couples, Pb = cos^2(sqrt(2) g t), P1 = P2 = sin^2(sqrt(2) g t)/2.
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, positions[0]).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    res = transfer_dynamics(cavity, positions, Delta, t_end=t_end, dt=1e-9,
                            initial_state=(0.0, 0.0, 1.0))
    s = np.sin(math.sqrt(2.0) * g * res.times)
    assert np.max(np.abs(res.Pb - (1 - s**2))) < 1e-12
    assert np.max(np.abs(res.P1 - s**2 / 2.0)) < 1e-12
    assert np.max(np.abs(res.P2 - s**2 / 2.0)) < 1e-12


def test_decoupled_receiver_reduces_to_single_emitter(yig_lossless, fields):
    # dipole_scale = 0 on emitter 2 must reproduce the one-emitter detuned decay.
    from magnoncavity import MemoryKernel, evolve_pseudomode

    cavity = lossless_cavity(yig_lossless, fields)
    positions = [(1.2 * cavity.R, 0, 0), (-1.2 * cavity.R, 0, 0)]
    g = abs(mode_table(cavity, positions[0]).g[0])
    Delta = 10.0 * g
    res = transfer_dynamics(cavity, positions, Delta, t_end=3e-7, dt=1e-9,
                            dipole_scale=(1.0, 0.0))
    kernel = MemoryKernel(weights=(g * g,), rates=(1j * Delta,))
    single = evolve_pseudomode(kernel, 3e-7, 1e-9)
    assert np.max(np.abs(res.P1 - single.populations)) < 1e-10
    assert np.max(res.P2) == 0.0
    assert math.isnan(res.swap_frequency)


def test_label_swap_symmetry(cavity_narrow, dispersive_pair, dispersive_run):
    # Starting the excitation on emitter 2 mirrors the populations exactly:
    # identical couplings make the equations symmetric under 1 <-> 2.
    mirrored = transfer_dynamics(cavity_narrow, *dispersive_pair, t_end=3.0e-6, dt=1.0e-9,
                                 initial_state=(0.0, 1.0, 0.0))
    assert np.array_equal(mirrored.P1, dispersive_run.P2)
    assert np.array_equal(mirrored.P2, dispersive_run.P1)
    assert np.array_equal(mirrored.Pb, dispersive_run.Pb)


def test_initial_state_must_be_normalized(cavity_narrow, dispersive_pair):
    with pytest.raises(DomainError):
        transfer_dynamics(cavity_narrow, *dispersive_pair, t_end=1e-7, dt=1e-9,
                          initial_state=(2.0, 0.0, 0.0))


# --------------------------------------------------------- dispersive regime

def test_swap_frequency_matches_g_eff(dispersive_pair, dispersive_run):
    g = dispersive_run.metadata["g"]
    g_eff = effective_coupling(g, dispersive_pair[1])
    assert dispersive_run.swap_frequency == pytest.approx(g_eff, rel=0.10)


def test_transfer_fidelity_with_loss(dispersive_run):
    assert 0.9 < dispersive_run.fidelity < 1.0


def test_transfer_fidelity_lossless(yig_lossless, fields):
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    res = transfer_dynamics(cavity, positions, Delta, t_end=3.0e-6, dt=1.0e-9)
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


def test_magnon_population_bound(dispersive_pair, dispersive_run):
    g = dispersive_run.metadata["g"]
    bound = 4.0 * (g / dispersive_pair[1]) ** 2 + 1e-3
    assert np.max(dispersive_run.Pb) <= bound


def test_transfer_dt_guard(cavity_narrow, dispersive_pair):
    with pytest.raises(ConfigError):
        transfer_dynamics(cavity_narrow, *dispersive_pair, t_end=1e-6, dt=1e-7)


# ---------------------------------------------------- coupling scale context

def test_effective_coupling_formula():
    assert effective_coupling(2.0e6, 2.0e7) == pytest.approx(2.0e5)
    with pytest.raises(DomainError):
        effective_coupling(1e6, 0.0)


def test_dispersive_coupling_has_no_g_eff_where_it_is_not_finite():
    assert dispersive_coupling(2.0e6, 10.0) == (2.0e7, pytest.approx(2.0e5))
    assert dispersive_coupling(2.0e6, 0.0) == (0.0, None)
    # Delta = 2e-314 is subnormal and g^2/Delta overflows.
    Delta, g_eff = dispersive_coupling(2.0e6, 1e-320)
    assert Delta > 0 and g_eff is None
    _, g_eff = dispersive_coupling(np.array([2.0e6, 2.0e-6]), 1e-320)
    assert g_eff is None


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

    cols = coupling_vs_separation_sweep(
        G=6e-9, R_min=30e-9, R_max=90e-9, n_R=4,
        mat=yig_narrow, H0=tesla_to_field(0.5))
    assert cols["R_m"].tolist() == [30e-9, 50e-9, 70e-9, 90e-9]
    assert cols["separation_m"][0] == pytest.approx(72e-9, rel=1e-12)
    ratios = (cols["g_eff_rad_per_s"] / cols["g_dip_rad_per_s"]).tolist()
    # Magnon-mediated coupling beats the vacuum baseline by orders of magnitude,
    # and the margin grows with the sphere size at fixed gap.
    assert 500 < ratios[0] < 5000
    assert all(b > a for a, b in zip(ratios, ratios[1:]))


def test_separation_sweep_matches_per_radius_tables(yig_narrow):
    # The sweep evaluates one mode table broadcast over the radius; each
    # radius's own one-mode table is the reference. Only the order of the
    # power evaluation may differ, so a few units in the last place.
    from magnoncavity import CavityConfig, state_from_internal, tesla_to_field

    H0 = tesla_to_field(0.5)
    cols = coupling_vs_separation_sweep(G=6e-9, R_min=10e-9, R_max=500e-9, n_R=50,
                                        mat=yig_narrow, H0=H0, Delta_over_g=7.0,
                                        dipole_scale=3.0)
    fields = state_from_internal(H0, yig_narrow)
    for R, g, g_eff in zip(cols["R_m"], cols["g_rad_per_s"], cols["g_eff_rad_per_s"]):
        cavity = CavityConfig(R=R, mat=yig_narrow, fields=fields, n_max=1)
        ref = abs(mode_table(cavity, (R + 6e-9, 0.0, 0.0), 3.0).g[0])
        assert g == pytest.approx(ref, rel=1e-14)
        assert g_eff == pytest.approx(effective_coupling(ref, 7.0 * ref), rel=1e-14)
    np.testing.assert_allclose(cols["g_dip_rad_per_s"],
                               [dipole_dipole_coupling(s) for s in cols["separation_m"]],
                               rtol=1e-14)


def test_separation_sweep_validation(yig_narrow):
    from magnoncavity import tesla_to_field

    with pytest.raises(DomainError):
        coupling_vs_separation_sweep(G=-1e-9, R_min=30e-9, R_max=30e-9, n_R=1, mat=yig_narrow,
                                     H0=tesla_to_field(0.5))
    with pytest.raises(DomainError):
        coupling_vs_separation_sweep(G=6e-9, R_min=-30e-9, R_max=-30e-9, n_R=1, mat=yig_narrow,
                                     H0=tesla_to_field(0.5))
    with pytest.raises(DomainError, match="Delta = 0"):
        coupling_vs_separation_sweep(G=6e-9, R_min=30e-9, R_max=30e-9, n_R=1, mat=yig_narrow,
                                     H0=tesla_to_field(0.5), Delta_over_g=0.0)
