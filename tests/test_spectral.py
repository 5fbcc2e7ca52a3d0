import dataclasses
import math

import numpy as np
import pytest

from magnoncavity import (CavityConfig, DomainError, EmitterConfig, field_sweep_map,
                          mode_table, spectral_grid, state_from_internal, tesla_to_field)
from magnoncavity.spectral import SpectralGrid, omega_grid, spectral_density

from oracles import lorentzian_terms_oracle, mode_frequency


def mode_couplings(cavity, emitter):
    """(omega_n, |g_n|, Gamma_n) of the mode table at the emitter."""
    t = mode_table(cavity, emitter.position, emitter.dipole_scale)
    return t.omega, np.abs(t.g), t.Gamma


def test_mode_couplings_shapes(cavity, emitter):
    t = mode_table(cavity, emitter.position, emitter.dipole_scale)
    assert t.omega.shape == t.g.shape == t.Gamma.shape == (cavity.n_max,)
    assert np.all(np.diff(t.omega) > 0)
    # On the +x axis every mode's phase factor is 1: g_n is real and positive.
    assert np.all(t.g.real > 0) and np.all(t.g.imag == 0)
    assert np.allclose(t.Gamma, cavity.mat.Gamma)


def test_density_non_negative(cavity, emitter):
    grid = omega_grid(cavity)
    J = spectral_density(grid, emitter, cavity)
    assert np.all(J >= 0)


def test_scalar_and_array_paths_agree(cavity, emitter):
    omega_n, _, _ = mode_couplings(cavity, emitter)
    w = omega_n[0] + 3e6
    scalar = spectral_density(w, emitter, cavity)
    assert isinstance(scalar, float)
    array = spectral_density(np.array([w]), emitter, cavity)
    assert scalar == array[0]


def test_peaks_sit_at_mode_frequencies(cavity, emitter):
    omega_n, _, _ = mode_couplings(cavity, emitter)
    grid = omega_grid(cavity)
    J = spectral_density(grid, emitter, cavity)
    step = grid[1] - grid[0]
    interior = (J[1:-1] >= J[:-2]) & (J[1:-1] > J[2:])
    peaks = grid[1:-1][interior]
    assert peaks.size == cavity.n_max
    for wn in omega_n:
        assert np.min(np.abs(peaks - wn)) <= step


def test_resonant_peak_height(cavity, emitter):
    # 2*pi*J(omega_n) = 4 g_n^2/Gamma at an isolated peak.
    omega_n, g_n, Gamma_n = mode_couplings(cavity, emitter)
    rate = 2.0 * math.pi * spectral_density(float(omega_n[0]), emitter, cavity)
    assert rate == pytest.approx(4.0 * g_n[0] ** 2 / Gamma_n[0], rel=1e-4)


def test_peak_height_scales_inverse_linewidth(cavity, fields, yig, emitter):
    from magnoncavity import CavityConfig, MaterialParams

    heights = {}
    for Gamma in (1e7, 3e7):
        mat = MaterialParams(Ms=yig.Ms, Gamma=Gamma)
        cav = CavityConfig(R=cavity.R, mat=mat, fields=fields, n_max=1)
        w1 = mode_frequency(1, fields, mat)
        heights[Gamma] = spectral_density(w1, emitter, cav)
    assert heights[1e7] / heights[3e7] == pytest.approx(3.0, rel=0.02)


def test_integral_over_peak_recovers_g_squared(cavity, emitter):
    # Finite +-10 Gamma window captures (2/pi) arctan(20) of the Lorentzian.
    omega_n, g_n, Gamma_n = mode_couplings(cavity, emitter)
    w1, g1, G1 = omega_n[0], g_n[0], Gamma_n[0]
    grid = np.linspace(w1 - 10 * G1, w1 + 10 * G1, 20001)
    area = np.trapezoid(spectral_density(grid, emitter, cavity), grid)
    captured = (2.0 / math.pi) * math.atan(20.0)
    assert area / g1**2 == pytest.approx(captured, rel=1e-3)


def test_peak_heights_fall_with_distance(cavity, emitter):
    # g ~ a^-3 for the dipolar mode, so the resonant J falls as a^-6.
    omega_n, _, _ = mode_couplings(cavity, emitter)
    far = EmitterConfig(position=(2 * emitter.position[0], 0, 0), omega0=emitter.omega0)
    J_near = spectral_density(float(omega_n[0]), emitter, cavity)
    J_far = spectral_density(float(omega_n[0]), far, cavity)
    assert J_far / J_near == pytest.approx(1.0 / 64.0, rel=0.10)


def test_auto_grid_covers_all_peaks(cavity, emitter):
    grid = omega_grid(cavity)
    Gamma = cavity.mat.Gamma
    assert grid[0] < mode_frequency(1, cavity.fields, cavity.mat) - 10 * Gamma
    assert grid[-1] > mode_frequency(cavity.n_max, cavity.fields, cavity.mat) + 10 * Gamma
    assert np.max(np.diff(grid)) <= Gamma / 10.0 * 1.001


def test_auto_grid_rejects_zero_linewidth(cavity, yig_lossless, fields):
    from magnoncavity import CavityConfig

    cav = CavityConfig(R=cavity.R, mat=yig_lossless, fields=fields, n_max=1)
    with pytest.raises(DomainError):
        omega_grid(cav)


def test_spectral_grid_metadata_and_validation(cavity, emitter):
    sg = spectral_grid(emitter, cavity, 9e10, 1.1e11, 101)
    assert np.array_equal(sg.omegas, np.linspace(9e10, 1.1e11, 101))
    assert sg.metadata["R_m"] == cavity.R
    assert sg.metadata["n_max"] == cavity.n_max
    with pytest.raises(DomainError):
        SpectralGrid(omegas=np.array([1.0, 1.0, 2.0]), values=np.zeros(3))


def test_field_sweep_columns_match_single_evaluations(cavity, emitter):
    H0 = tesla_to_field(0.5)
    m = field_sweep_map(0.9 * H0, 1.1 * H0, 3, emitter, cavity, 9e10, 1.1e11, 401)
    assert m.J.shape == (3, 401)
    assert m.H0_values[1] == cavity.fields.H0
    # The middle row must equal a direct evaluation at the template cavity.
    direct = spectral_density(m.omega_values, emitter, cavity)
    assert np.array_equal(m.J[1], direct)


def test_field_sweep_peak_tracks_kittel_line(cavity, emitter, yig):
    H0s = [tesla_to_field(v) for v in (0.4, 0.5, 0.6)]
    for H0 in H0s:
        w1 = yig.gamma_tilde * (H0 + yig.Ms / 3.0)
        m = field_sweep_map(H0, H0, 1, emitter, cavity, w1 - 5e8, w1 + 5e8, 2001)
        omegas = m.omega_values
        peak = omegas[int(np.argmax(m.J[0]))]
        assert peak == pytest.approx(w1, abs=2 * (omegas[1] - omegas[0]))


def test_field_sweep_input_validation(cavity, emitter):
    with pytest.raises(DomainError):
        field_sweep_map(1.0, 2.0, 0, emitter, cavity)
    with pytest.raises(DomainError):
        field_sweep_map(-1.0, -1.0, 1, emitter, cavity)


def test_field_sweep_auto_grid_spans_every_field(cavity, emitter):
    # Without bounds the common grid covers the lowest field's Kittel peak
    # and the highest field's n_max peak, each with room to spare.
    H_lo, H_hi = tesla_to_field(0.3), tesla_to_field(0.7)
    m = field_sweep_map(H_lo, H_hi, 5, emitter, cavity)
    assert m.omega_values.size == 2001
    lo, hi = (mode_table(cavity, H0=H).omega for H in (H_lo, H_hi))
    Gamma = cavity.mat.Gamma
    assert m.omega_values[0] < lo[0] - 10 * Gamma
    assert m.omega_values[-1] > hi[-1] + 10 * Gamma


def _peak_grid(omega_n, pad, n_points=4001):
    """Explicit bounds from pad below the first line to pad above the last."""
    return np.linspace(omega_n[0] - pad, omega_n[-1] + pad, n_points)


@pytest.mark.parametrize("n_max", [1, 7, 8, 50, 300])
def test_mode_by_mode_sum_matches_broadcast_oracle(cavity, emitter, n_max):
    cav = dataclasses.replace(cavity, n_max=n_max)
    t = mode_table(cav, emitter.position, emitter.dipole_scale)
    grid = _peak_grid(t.omega, 20 * cavity.mat.Gamma)
    J = spectral_density(grid, emitter, cav)
    terms = lorentzian_terms_oracle(grid, t.omega, t.weights, t.Gamma)
    # J adds the terms in mode order, exactly ...
    assert np.array_equal(J, sum(terms.T, np.zeros(grid.size)))
    # ... so, the terms being positive, it agrees with np.sum's order (pairwise
    # from 8 terms) within 2 (n_max - 1) eps relative.
    ref = terms.sum(axis=-1)
    assert np.all(ref > 0)
    assert np.all(np.abs(J - ref) <= 2 * (n_max - 1) * np.finfo(float).eps * ref)
    scalar = spectral_density(float(grid[1234]), emitter, cav)
    assert isinstance(scalar, float) and scalar == J[1234]


def test_field_sweep_rows_equal_spectral_density_at_many_modes(cavity, emitter):
    cav = dataclasses.replace(cavity, n_max=50)
    H0 = cav.fields.H0
    m = field_sweep_map(0.9 * H0, 1.1 * H0, 3, emitter, cav, 9e10, 1.1e11, 401)
    for H, row in zip(m.H0_values, m.J):
        at_H = dataclasses.replace(cav, fields=state_from_internal(H, cav.mat))
        assert np.array_equal(row, spectral_density(m.omega_values, emitter, at_H))


def test_lossless_density_is_zero_off_the_lines(cavity, yig_lossless, fields, emitter):
    # Gamma = 0: every term is 0 / (omega - omega_n)^2 where no grid point
    # sits on a line, without a RuntimeWarning (which pytest makes an error).
    cav = CavityConfig(R=cavity.R, mat=yig_lossless, fields=fields, n_max=7)
    t = mode_table(cav, emitter.position, emitter.dipole_scale)
    grid = _peak_grid(t.omega, 20 * cavity.mat.Gamma, 4000)
    assert not np.any(np.isin(t.omega, grid))
    J = spectral_density(grid, emitter, cav)
    assert np.array_equal(J, lorentzian_terms_oracle(grid, t.omega, t.weights, t.Gamma).sum(-1))
    assert np.array_equal(J, np.zeros_like(grid))
