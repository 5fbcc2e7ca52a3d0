import dataclasses
import math

import numpy as np
import pytest

from magnoncavity import (CavityConfig, ConfigError, DomainError,
                          coupling_vs_separation_sweep, mode_table,
                          symmetric_pair, transfer_populations)
from magnoncavity import network
from magnoncavity._text import WRITE_CHUNK
from magnoncavity.constants import TWO_PI
from magnoncavity.dynamics import sample_times
from magnoncavity.network import (dipole_dipole_coupling, dispersive_coupling,
                                  effective_coupling)
from oracles import (boxcar_oracle, decay_series, eigen_swap_oracle, has_fast_ripples,
                     swap_oracle)


def transfer(*args, **kwargs):
    """`transfer_populations` with its populations read whole: (P, swap,
    fidelity, metadata), where P maps "P1", "P2" and "Pb" to arrays."""
    populations, swap, fidelity, metadata = transfer_populations(*args, **kwargs)
    return dict(zip(("P1", "P2", "Pb"), populations[:])), swap, fidelity, metadata


def times_of(P, metadata):
    """The sample times k * dt of the populations P, in s."""
    return sample_times(P["P1"].size, metadata["dt_s"], 1.0)[:]


@pytest.fixture(scope="module")
def dispersive_pair(cavity_narrow):
    """(positions, Delta) of the antipodal pair at a = 1.2R, Delta = 10 g."""
    return symmetric_pair(cavity_narrow, a=1.2 * cavity_narrow.R, Delta_over_g=10.0)


@pytest.fixture(scope="module")
def dispersive_run(cavity_narrow, dispersive_pair):
    return transfer(cavity_narrow, *dispersive_pair, t_end=3.0e-6, dt=1.0e-9)


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
        transfer_populations(cavity_narrow, positions, 1e7, t_end=1e-7, dt=1e-9)


def test_positions_must_be_two_points(cavity_narrow):
    with pytest.raises(DomainError, match=r"\(2, 3\)"):
        transfer_populations(cavity_narrow, (1.2 * cavity_narrow.R, 0, 0), 1e7,
                             t_end=1e-7, dt=1e-9)


def test_asymmetric_placement_runs(cavity_narrow, dispersive_pair):
    # Equal dipoles at radii 1.2 R and 1.25 R: the (beta, b, I) form takes
    # g1 != g2, and the swap follows g1 g2/Delta. It equals the run with the
    # dipoles (1, 1 + 1e-15) to rounding.
    positions = [(1.2 * cavity_narrow.R, 0, 0), (-1.25 * cavity_narrow.R, 0, 0)]
    Delta = dispersive_pair[1]
    P, swap, _, _ = transfer(cavity_narrow, positions, Delta, t_end=3.0e-6, dt=1.0e-9)
    g1, g2 = np.abs(mode_table(cavity_narrow, positions).g[:, 0])
    assert g2 < 0.9 * g1
    assert swap == pytest.approx(g1 * g2 / Delta, rel=0.02)
    nudged, nudged_swap, _, _ = transfer(cavity_narrow, positions, Delta, t_end=3.0e-6,
                                         dt=1.0e-9, dipole_scale=(1.0, 1.0 + 1e-15))
    assert swap == pytest.approx(nudged_swap, rel=1e-12)
    assert np.max(np.abs(P["P2"] - nudged["P2"])) < 1e-12


def test_asymmetric_pair_records_both_couplings(cavity_narrow, dispersive_pair):
    # At radii 1.2 R and 1.25 R (R = 30 nm, Gamma = 1e6 rad/s, n_max = 1)
    # g1 = 6.893e6 and g2 = 6.099e6 rad/s, and the swap follows g1 g2/Delta
    # (6.099e5 rad/s), not g1^2/Delta (6.893e5 rad/s); the slow root puts
    # the exact swap at 6.038e5 rad/s.
    positions = [(1.2 * cavity_narrow.R, 0, 0), (-1.25 * cavity_narrow.R, 0, 0)]
    Delta = dispersive_pair[1]
    _, swap, _, metadata = transfer(cavity_narrow, positions, Delta, t_end=3.0e-6, dt=1.0e-9)
    g1, g2 = np.abs(mode_table(cavity_narrow, positions).g[:, 0])
    assert (metadata["g"], metadata["g2"]) == (g1, g2)
    assert g1 == pytest.approx(6.893e6, rel=1e-3)
    assert g2 == pytest.approx(6.099e6, rel=1e-3)
    assert swap == pytest.approx(6.038e5, rel=1e-3)
    assert swap == pytest.approx(g1 * g2 / Delta, rel=0.01)
    assert swap < 0.9 * g1 * g1 / Delta


def test_receiver_on_the_z_axis_is_decoupled(cavity_narrow, dispersive_pair):
    # The Kittel mode's coupling vanishes on the z axis (g = 0): nothing
    # swaps: the swap is NaN and the fidelity 0.
    positions = [(1.2 * cavity_narrow.R, 0, 0), (0, 0, 1.2 * cavity_narrow.R)]
    assert mode_table(cavity_narrow, positions[1]).g[0] == 0.0
    P, swap, fidelity, _ = transfer(cavity_narrow, positions, dispersive_pair[1], t_end=3.0e-6,
                                    dt=1.0e-9)
    assert np.max(P["P2"]) == 0.0
    assert math.isnan(swap) and fidelity == 0.0


def test_transfer_reads_one_mode_table(cavity, monkeypatch):
    # Both couplings, the linewidth and the higher modes come from one table
    # over the two positions, equal to one table per position.
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return mode_table(*args, **kwargs)

    monkeypatch.setattr(network, "mode_table", counted)
    _, _, _, metadata = transfer(cavity, positions, Delta, t_end=3e-6, dt=1e-9,
                                 dipole_scale=(1.0, 0.0))
    assert len(calls) == 1
    g = mode_table(*calls[0]).g
    assert np.array_equal(g[0], mode_table(cavity, positions[0], 1.0).g)
    assert np.array_equal(g[1], mode_table(cavity, positions[1], 0.0).g)
    assert (metadata["g"], metadata["g2"]) == (abs(g[0, 0]), abs(g[1, 0]))


def test_single_mode_validity_warning(cavity):
    # Kittel detuning within a factor 10 of the n = 2 splitting triggers a warning.
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=40.0)
    with pytest.warns(UserWarning, match="mode n = 2 .*single-mode"):
        transfer_populations(cavity, positions, Delta, t_end=12e-6, dt=1e-9)


# --------------------------------------------------------- closed-form limit

def test_resonant_bright_state_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0: P1 = (1+cos(sqrt(2) g t))^2/4, P2 = (1-cos)^2/4,
    # Pb = sin^2(sqrt(2) g t)/2; P2 reaches 1 at t = pi/(sqrt(2) g).
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, positions[0]).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    P, _, _, metadata = transfer(cavity, positions, Delta, t_end=t_end, dt=1e-9)
    c = np.cos(math.sqrt(2.0) * g * times_of(P, metadata))
    assert np.max(np.abs(P["P1"] - (1 + c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(P["P2"] - (1 - c) ** 2 / 4.0)) < 1e-7
    assert np.max(np.abs(P["Pb"] - (1 - c**2) / 2.0)) < 1e-7
    assert np.max(P["P2"]) > 1.0 - 1e-4  # grid-limited: the true peak is 1


def test_resonant_magnon_start_solution(yig_lossless, fields):
    # Gamma = 0, Delta = 0, excitation starting in the magnon: only the bright
    # state couples, Pb = cos^2(sqrt(2) g t), P1 = P2 = sin^2(sqrt(2) g t)/2.
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=0.0)
    g = abs(mode_table(cavity, positions[0]).g[0])
    t_end = 1.2 * math.pi / (math.sqrt(2.0) * g)
    P, _, _, metadata = transfer(cavity, positions, Delta, t_end=t_end, dt=1e-9,
                                 initial_state=(0.0, 0.0, 1.0))
    s = np.sin(math.sqrt(2.0) * g * times_of(P, metadata))
    assert np.max(np.abs(P["Pb"] - (1 - s**2))) < 1e-12
    assert np.max(np.abs(P["P1"] - s**2 / 2.0)) < 1e-12
    assert np.max(np.abs(P["P2"] - s**2 / 2.0)) < 1e-12


def test_decoupled_receiver_reduces_to_single_emitter(yig_lossless, fields):
    # dipole_scale = 0 on emitter 2 must reproduce the one-emitter detuned decay.
    from magnoncavity.dynamics import MemoryKernel

    cavity = lossless_cavity(yig_lossless, fields)
    positions = [(1.2 * cavity.R, 0, 0), (-1.2 * cavity.R, 0, 0)]
    g = abs(mode_table(cavity, positions[0]).g[0])
    Delta = 10.0 * g
    P, swap, _, _ = transfer(cavity, positions, Delta, t_end=3e-7, dt=1e-9,
                             dipole_scale=(1.0, 0.0))
    kernel = MemoryKernel(weights=(g * g,), rates=(1j * Delta,))
    _, single = decay_series(kernel, 3e-7, 1e-9)
    assert np.max(np.abs(P["P1"] - single)) < 1e-10
    assert np.max(P["P2"]) == 0.0
    assert math.isnan(swap)


def test_label_swap_symmetry(cavity_narrow, dispersive_pair, dispersive_run):
    # Starting the excitation on emitter 2 mirrors the populations exactly:
    # identical couplings make the equations symmetric under 1 <-> 2.
    mirrored, _, _, _ = transfer(cavity_narrow, *dispersive_pair, t_end=3.0e-6, dt=1.0e-9,
                                 initial_state=(0.0, 1.0, 0.0))
    P = dispersive_run[0]
    assert np.array_equal(mirrored["P1"], P["P2"])
    assert np.array_equal(mirrored["P2"], P["P1"])
    assert np.array_equal(mirrored["Pb"], P["Pb"])


def test_initial_state_must_be_normalized(cavity_narrow, dispersive_pair):
    with pytest.raises(DomainError):
        transfer_populations(cavity_narrow, *dispersive_pair, t_end=1e-7, dt=1e-9,
                             initial_state=(2.0, 0.0, 0.0))


# --------------------------------------------------------- dispersive regime

def test_swap_frequency_matches_g_eff(dispersive_pair, dispersive_run):
    _, swap, _, metadata = dispersive_run
    g_eff = effective_coupling(metadata["g"], dispersive_pair[1])
    assert swap == pytest.approx(g_eff, rel=0.10)


def test_transfer_fidelity_with_loss(dispersive_run):
    assert 0.9 < dispersive_run[2] < 1.0


def test_transfer_fidelity_lossless(yig_lossless, fields):
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    _, _, fidelity, _ = transfer(cavity, positions, Delta, t_end=3.0e-6, dt=1.0e-9)
    # P2 at the slow root's swap time, just under the ideal 1 - O((g/Delta)^2).
    assert fidelity > 0.95


def test_fast_ripples_present(dispersive_run):
    assert has_fast_ripples(dispersive_run[0]["P1"])


@pytest.mark.parametrize("width", [7, 4, 60])
def test_boxcar_matches_edge_clamped_moving_average(width):
    # Odd, even, and wider than the series: the window centred like
    # scipy.ndimage.uniform_filter1d(mode="nearest"), edges clamped. The
    # swap oracle smooths with it.
    x = np.random.default_rng(1).random(50)
    idx = np.arange(x.size)[:, None] - width // 2 + np.arange(width)[None, :]
    naive = x[np.clip(idx, 0, x.size - 1)].mean(axis=1)
    np.testing.assert_allclose(boxcar_oracle(x, width), naive, rtol=0, atol=1e-13)


@pytest.mark.parametrize("case, size", [
    ("decoupled-resonant", 2), ("resonant", 4095), ("resonant", 4096), ("resonant", 4097),
    ("dispersive", 1000), ("dispersive", 4096), ("dispersive", WRITE_CHUNK),
    ("dispersive", 10_000), ("target-P1", 3001), ("decoupled", 3001)])
def test_streamed_transfer_is_transfer_dynamics(cavity_narrow, yig_lossless, fields, case, size):
    # Read a writer's block at a time, the populations are the whole read's
    # (`[:]`) bit for bit; the swap and both fidelities are the eigenvalue
    # oracle's. `size` is the number of samples, or for "dispersive" the
    # samples per 3 detuning periods, over 100 001 samples.
    lossless = lossless_cavity(yig_lossless, fields)
    resonant, _ = symmetric_pair(lossless, a=1.2 * lossless.R, Delta_over_g=0.0)
    dispersive, Delta = symmetric_pair(cavity_narrow, a=1.2 * cavity_narrow.R, Delta_over_g=10.0)
    on_axis = (0, 0, 1.2 * cavity_narrow.R)     # the Kittel mode's g vanishes here
    state = (0.0, 1.0, 0.0) if case == "target-P1" else (1.0, 0.0, 0.0)
    if case.endswith("resonant"):
        # Past the first swap, or one 1 ns step when the receiver is decoupled.
        g = abs(mode_table(lossless, resonant[0]).g[0])
        t_end = 1e-9 if size == 2 else 1.2 * math.pi / (math.sqrt(2.0) * g)
        positions = [resonant[0], on_axis] if case.startswith("decoupled") else resonant
        args = lossless, positions, 0.0, t_end, t_end / (size - 1)
    elif case == "dispersive":
        dt = 3.0 * (TWO_PI / Delta) / size
        args = cavity_narrow, dispersive, Delta, 100_000 * dt, dt
    else:
        positions = [dispersive[0], on_axis] if case == "decoupled" else dispersive
        args = cavity_narrow, positions, Delta, (size - 1) * 1e-9, 1e-9
    P, *whole = transfer(*args, initial_state=state)     # [swap, fidelity, metadata]
    populations, swap, fidelity, metadata = transfer_populations(*args, initial_state=state)
    n = P["P1"].size
    assert n == (100_001 if case == "dispersive" else size)
    assert len(populations) == n and metadata == whole[2]
    blocks = [populations[i:i + WRITE_CHUNK] for i in range(0, n, WRITE_CHUNK)]
    for key, column in zip(("P1", "P2", "Pb"), zip(*blocks)):
        assert np.concatenate(column).tobytes() == P[key].tobytes(), key
    assert repr((swap, fidelity)) == repr(tuple(whole[:2]))
    g1, g2 = metadata["g"], metadata["g2"]
    expected = eigen_swap_oracle(g1, g2, args[2], metadata["Gamma"], state)
    assert (swap, fidelity, metadata["average_fidelity"]) == pytest.approx(expected, rel=1e-12,
                                                                           nan_ok=True)
    assert math.isnan(swap) == case.startswith("decoupled")


# (Delta/g, start): a magnon start at Delta = 0 leaves about 1e-31 in the
# target at t*, and at 40 g about 5e-4 known to about 1e-15, so those have
# no relative digits to compare and are left out.
_ORACLE_POINTS = [(D, state) for D in (0.0, 0.25, 1.0, 10.0, -10.0, 40.0)
                  for state in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
                  if not (state[2] and D in (0.0, 40.0))]


@pytest.mark.parametrize("Gamma", [0.0, 1e6, 1e7])
@pytest.mark.parametrize("Delta_over_g, state", _ORACLE_POINTS,
                         ids=[f"{D:g}g-{'12b'[state.index(1.0)]}" for D, state in _ORACLE_POINTS])
def test_swap_is_the_eigenvalue_oracle(yig_lossless, fields, Delta_over_g, state, Gamma):
    # Unequal couplings (radii 1.2 R and 1.25 R): the slow root of the
    # bright block's quadratic, and one expm at t*, against the eigenvalues
    # and a scipy expm of the plain (c1, c2, b) generator.
    mat = dataclasses.replace(yig_lossless, Gamma=Gamma)
    cavity = CavityConfig(R=30e-9, mat=mat, fields=fields, n_max=1)
    positions = [(1.2 * cavity.R, 0, 0), (-1.25 * cavity.R, 0, 0)]
    g1, g2 = np.abs(mode_table(cavity, positions).g[:, 0])
    Delta = Delta_over_g * g1
    _, swap, fidelity, metadata = transfer_populations(cavity, positions, Delta, 2e-5,
                                                       n_samples=10, initial_state=state)
    assert metadata["Gamma"] == Gamma
    expected = eigen_swap_oracle(g1, g2, Delta, Gamma, state)
    assert (swap, fidelity, metadata["average_fidelity"]) == pytest.approx(expected, rel=1e-12)


def test_swap_is_the_smoothed_peak_where_the_boxcar_is_unbiased(yig_lossless, fields):
    # Without loss and at Delta = 10 g the boxcar over 3 ripple periods
    # leaves the slow swap alone: the smoothed peak of 100 001 samples,
    # 675 882 rad/s, is the slow root's 676 071 within 0.1 %.
    cavity = lossless_cavity(yig_lossless, fields)
    positions, Delta = symmetric_pair(cavity, a=1.2 * cavity.R, Delta_over_g=10.0)
    P, swap, _, metadata = transfer(cavity, positions, Delta, t_end=3e-6, n_samples=100_000)
    assert P["P2"].size == 100_001
    smoothed, _ = swap_oracle(times_of(P, metadata), P["P2"], Delta)
    assert swap == pytest.approx(676_071, rel=1e-5)
    assert smoothed == pytest.approx(swap, rel=1e-3)


def test_magnon_population_bound(dispersive_pair, dispersive_run):
    P, _, _, metadata = dispersive_run
    bound = 4.0 * (metadata["g"] / dispersive_pair[1]) ** 2 + 1e-3
    assert np.max(P["Pb"]) <= bound


def test_transfer_dt_guard(cavity_narrow, dispersive_pair):
    with pytest.raises(ConfigError):
        transfer_populations(cavity_narrow, *dispersive_pair, t_end=1e-6, dt=1e-7)


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
