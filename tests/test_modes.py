import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnoncavity import (CONSTANTS, CavityConfig, DomainError,
                          kittel_frequency, mode_table, state_from_internal)

from oracles import (E_MINUS, E_PLUS, cavity_volume, fd_curl_and_divergence,
                     fd_gradient_of_potential, mode_field, mode_frequency, mode_potential,
                     quantization_integral, quantized_mode_oracle)

GHZ = 2.0 * math.pi * 1e9


# ---------------------------------------------------------------- frequencies

def test_kittel_frequency_hand_value(cavity):
    # 28 GHz/T * (0.5 + 0.178/3) T = 15.66133... GHz
    assert kittel_frequency(cavity.fields, cavity.mat) / GHZ == pytest.approx(
        28.0 * (0.5 + 0.178 / 3.0), rel=1e-12)


def test_kittel_same_code_path_as_n1(cavity):
    assert kittel_frequency(cavity.fields, cavity.mat) == mode_frequency(
        1, cavity.fields, cavity.mat)


def test_frequencies_increase_and_saturate(cavity):
    omegas = [mode_frequency(n, cavity.fields, cavity.mat) for n in range(1, 40)]
    assert all(b > a for a, b in zip(omegas, omegas[1:]))
    limit = cavity.mat.gamma_tilde * (cavity.fields.H0 + cavity.mat.Ms / 2.0)
    assert omegas[-1] < limit
    assert omegas[-1] / limit == pytest.approx(1.0, abs=2e-3)


def test_branch_band_edges(cavity):
    lo = cavity.mat.gamma_tilde * (cavity.fields.H0 + cavity.mat.Ms / 3.0)
    for n in range(1, 10):
        w = mode_frequency(n, cavity.fields, cavity.mat)
        assert lo <= w < cavity.mat.gamma_tilde * (cavity.fields.H0 + cavity.mat.Ms / 2.0)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(min_value=1, max_value=30))
def test_frequency_closed_form(n, cavity):
    w = mode_frequency(n, cavity.fields, cavity.mat)
    expected = cavity.mat.gamma_tilde * (
        cavity.fields.H0 + cavity.mat.Ms * n / (2 * n + 1))
    assert w == pytest.approx(expected, rel=1e-14)


def test_invalid_mode_order(cavity):
    with pytest.raises(DomainError):
        mode_frequency(0, cavity.fields, cavity.mat)
    with pytest.raises(DomainError):
        mode_field(0, [(1e-9, 0, 0)], cavity)


# ------------------------------------------------------- potential and field

def test_potential_continuity_across_surface(cavity, rng):
    R = cavity.R
    for n in (1, 2, 3, 5):
        for _ in range(20):
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            inside = mode_potential(n, (1.0 - 1e-8) * R * u, R)
            outside = mode_potential(n, (1.0 + 1e-8) * R * u, R)
            scale = max(abs(inside), abs(outside), R**n * 1e-12)
            assert abs(inside - outside) / scale < 1e-6


def test_potential_exterior_power_law(cavity):
    R = cavity.R
    p = np.array([2.1 * R, 0.7 * R, -1.3 * R])
    for n in (1, 2, 4):
        ratio = mode_potential(n, 2.0 * p, R) / mode_potential(n, p, R)
        assert ratio == pytest.approx(2.0 ** -(n + 1), rel=1e-12)


def test_field_matches_fd_gradient(cavity, rng):
    R = cavity.R
    for n in (1, 2, 3):
        for r in [np.array([0.4 * R, 0.2 * R, -0.3 * R]),
                  np.array([1.5 * R, -0.8 * R, 0.9 * R]),
                  R * rng.normal(size=3) * 0.25,
                  R * (rng.normal(size=3) + 3.0)]:
            got = mode_field(n, r, cavity)
            want = fd_gradient_of_potential(n, r, R)
            assert np.allclose(got, want, rtol=1e-6, atol=1e-6 * np.max(np.abs(want)))


def test_field_curl_and_divergence_free(cavity):
    R = cavity.R

    for n in (1, 2, 3):
        def f(r, n=n):
            return mode_field(n, r, cavity)

        for r in (np.array([0.3 * R, 0.25 * R, 0.2 * R]),
                  np.array([1.8 * R, -0.9 * R, 1.1 * R])):
            curl, div = fd_curl_and_divergence(f, r, 1e-6 * R)
            ref = np.max(np.abs(f(r))) / R
            assert np.max(np.abs(curl)) < 1e-5 * ref
            assert abs(div) < 1e-5 * ref


def test_interior_field_is_co_rotating_circular(cavity, rng):
    # Interior H is exactly e(-) polarized: zero overlap with e(+).
    R = cavity.R
    for n in (1, 2, 4):
        r = 0.3 * R * rng.normal(size=3)
        H = mode_field(n, r, cavity)
        assert abs(np.vdot(E_PLUS, H)) < 1e-12 * np.linalg.norm(H)
        assert abs(np.vdot(E_MINUS, H)) == pytest.approx(np.linalg.norm(H), rel=1e-12)
        assert H[2] == 0.0


def test_uniform_interior_field_n1(cavity, rng):
    R = cavity.R
    vals = [mode_field(1, 0.5 * R * rng.normal(size=3) / 3.0, cavity) for _ in range(5)]
    for v in vals[1:]:
        assert np.allclose(v, vals[0], rtol=0, atol=1e-15)


def test_exterior_field_power_law(cavity):
    # Equatorial |H| falls as a^-(n+2) outside the sphere.
    R = cavity.R
    for n in (1, 2, 3):
        h1 = np.linalg.norm(mode_field(n, (2.0 * R, 0.0, 0.0), cavity))
        h2 = np.linalg.norm(mode_field(n, (4.0 * R, 0.0, 0.0), cavity))
        assert h2 / h1 == pytest.approx(2.0 ** -(n + 2), rel=1e-12)


def test_surface_shell_evaluates_as_exterior(cavity):
    R = cavity.R
    on = mode_field(1, (R, 0.0, 0.0), cavity)
    just_out = mode_field(1, (R * (1 + 1e-13), 0.0, 0.0), cavity)
    assert np.allclose(on, just_out, rtol=1e-9)


def test_field_vectorized_shape(cavity):
    pts = np.array([[[0.5 * cavity.R, 0, 0], [2 * cavity.R, 0, 0]]])
    out = mode_field(1, pts, cavity)
    assert out.shape == (1, 2, 3)
    single = mode_field(1, pts[0, 1], cavity)
    assert np.allclose(out[0, 1], single)


@pytest.mark.parametrize("n", [20, 50])
def test_high_order_field_at_nanometre_radius(n, yig, fields):
    # The shape field is R^(n-1) times a function of r/R. At R = 30 nm and
    # n = 50 that scale (1e-367) is below the double range, so the field must
    # read 0 there, not nan; at n = 20 it is an ordinary number.
    pts = np.array([[1.2, 0.3, -0.4], [0.5, -0.2, 0.1], [2.0, 0.0, 0.0]])
    R = 30e-9
    small = mode_field(n, R * pts, CavityConfig(R=R, mat=yig, fields=fields))
    unit = mode_field(n, pts, CavityConfig(R=1.0, mat=yig, fields=fields))
    assert np.all(np.isfinite(small))
    np.testing.assert_allclose(small, unit * R ** (n - 1), rtol=1e-12, atol=0)
    phi = mode_potential(n, R * pts, R)
    assert np.all(np.isfinite(phi))
    np.testing.assert_allclose(phi, mode_potential(n, pts, 1.0) * R**n, rtol=1e-12, atol=0)


def test_field_undefined_at_origin(cavity):
    with pytest.raises(DomainError):
        mode_field(1, (0.0, 0.0, 0.0), cavity)


# -------------------------------------------------------------- quantization

def shape_scale(t, n, R):
    """Amplitude that makes the unnormalized mode_field carry one quantum, from Hzp."""
    return t.Hzp[n - 1] / (math.sqrt(2.0) * n * R ** (n - 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quantization_against_quadrature(n, cavity):
    # Closed-form normalization vs independent Gauss-Legendre quadrature
    # with a finite-difference tensor derivative.
    t = mode_table(cavity)
    oracle = quantized_mode_oracle(n, cavity)
    assert shape_scale(t, n, cavity.R) == pytest.approx(oracle["scale"], rel=1e-6)
    assert t.Hzp[n - 1] == pytest.approx(oracle["Hzp"], rel=1e-6)
    assert t.Veff[n - 1] == pytest.approx(oracle["Veff"], rel=1e-6)


def test_one_quantum_of_energy(cavity):
    t = mode_table(cavity)
    energy = shape_scale(t, 1, cavity.R) ** 2 * quantization_integral(1, cavity)
    assert energy == pytest.approx(CONSTANTS.hbar * t.omega[0], rel=1e-8)


def test_veff_closed_form_n1(cavity):
    # Veff = 3V (Ms + 3 H0)/Ms for the uniform mode.
    Ms, H0 = cavity.mat.Ms, cavity.fields.H0
    expected = 3.0 * cavity_volume(cavity) * (Ms + 3.0 * H0) / Ms
    assert mode_table(cavity).Veff[0] == pytest.approx(expected, rel=1e-12)


def test_working_point_numbers(cavity):
    t = mode_table(cavity)
    assert t.Veff[0] == pytest.approx(3.198e-21, rel=1e-3)   # m^3
    assert t.Hzp[0] == pytest.approx(50.81, rel=1e-3)        # A/m
    assert t.omega[0] / GHZ == pytest.approx(15.6613, rel=1e-4)


def test_veff_scales_with_volume(yig, fields):
    v30 = mode_table(CavityConfig(R=30e-9, mat=yig, fields=fields)).Veff[0]
    v60 = mode_table(CavityConfig(R=60e-9, mat=yig, fields=fields)).Veff[0]
    assert v60 / v30 == pytest.approx(8.0, rel=1e-12)


def test_hzp_consistent_with_veff(cavity):
    t = mode_table(cavity)
    for n in (1, 2, 3):
        assert CONSTANTS.mu0 * t.Hzp[n - 1] ** 2 * t.Veff[n - 1] == pytest.approx(
            CONSTANTS.hbar * t.omega[n - 1], rel=1e-12)


def test_mode_list(cavity):
    t = mode_table(cavity)
    assert t.n.tolist() == list(range(1, cavity.n_max + 1))
    assert all(b > a for a, b in zip(t.omega, t.omega[1:]))
    assert np.array_equal(t.omega, [mode_frequency(n, cavity.fields, cavity.mat)
                                    for n in t.n.tolist()])


@pytest.mark.parametrize("n", [1, 2, 3, 10, 20, 50])
def test_table_against_quadrature_at_one_metre(n, yig, fields):
    # At R = 1 m nothing in the quadrature oracle under- or overflows, even at n = 50.
    cav = CavityConfig(R=1.0, mat=yig, fields=fields, n_max=50)
    t = mode_table(cav)
    oracle = quantized_mode_oracle(n, cav)
    assert t.Hzp[n - 1] == pytest.approx(oracle["Hzp"], rel=1e-6)
    assert t.Veff[n - 1] == pytest.approx(oracle["Veff"], rel=1e-6)


@pytest.mark.parametrize("R", [10e-9, 30e-9, 500e-9])
def test_table_radius_scaling_is_exact(R, yig, fields):
    # At fixed a/R, Veff ~ R^3 and Hzp, |g| ~ R^-3/2 for every retained mode.
    ref = mode_table(CavityConfig(R=1.0, mat=yig, fields=fields, n_max=50), (1.2, 0.0, 0.0))
    t = mode_table(CavityConfig(R=R, mat=yig, fields=fields, n_max=50), (1.2 * R, 0.0, 0.0))
    assert np.all(np.isfinite(t.Veff) & np.isfinite(t.Hzp) & np.isfinite(t.g))
    np.testing.assert_allclose(t.Veff, ref.Veff * R**3, rtol=1e-12, atol=0)
    np.testing.assert_allclose(t.Hzp, ref.Hzp * R**-1.5, rtol=1e-12, atol=0)
    np.testing.assert_allclose(np.abs(t.g), np.abs(ref.g) * R**-1.5, rtol=1e-12, atol=0)


def coupling_sums(R, position, yig, fields):
    """(sum of |g_n|^2 up to n_max, as a function of n_max; its closed form).

    |g_n|^2 = |g_1|^2 C_n n (2n + 1) y^(n-1) / (3/2), C_n = binom(2n, n)/4^n
    and y = (R/r)^2 sin^2(theta), so sum C_n y^n = (1 - y)^(-1/2) sums the
    series to |g_1|^2 / (1 - y)^(5/2)."""
    def total(n_max):
        cav = CavityConfig(R=R, mat=yig, fields=fields, n_max=n_max)
        return float(np.sum(mode_table(cav, position).weights))

    r = np.linalg.norm(position)
    y = (R / r) ** 2 * (position[0] ** 2 + position[1] ** 2) / r ** 2
    return total, total(1) / (1.0 - y) ** 2.5


@pytest.mark.parametrize("R, position", [
    (10e-9, (1.2, 0.0, 0.0)), (30e-9, (1.2, 0.0, 0.0)), (500e-9, (1.2, 0.0, 0.0)),
    (30e-9, (-0.3, 1.1, -0.4)),             # oblique: y = 0.61
], ids=["1e-08", "3e-08", "5e-07", "3e-08-oblique"])
def test_coupling_sum_converges_in_n_max(R, position, yig, fields):
    total, closed = coupling_sums(R, R * np.array(position), yig, fields)
    assert math.isfinite(total(200))
    assert total(200) == pytest.approx(total(50), rel=1e-6)
    assert total(1000) == pytest.approx(closed, rel=1e-12)


def test_default_truncation_keeps_its_share_of_the_coupling_sum(cavity, emitter, yig, fields):
    # At R = 30 nm, a = 1.2 R the default n_max = 7 holds 0.6545 of the sum.
    total, closed = coupling_sums(cavity.R, np.array(emitter.position), yig, fields)
    assert total(cavity.n_max) / closed == pytest.approx(0.6545, abs=5e-5)


# ------------------------------------------------------------------ coupling

def test_coupling_hand_value(cavity, emitter):
    # g/2pi = 1.0971 MHz for R = 30 nm, equatorial emitter at a = 1.2 R.
    g = abs(mode_table(cavity, emitter.position).g[0])
    assert g / (2 * math.pi) == pytest.approx(1.0971e6, rel=1e-3)


def test_coupling_closed_form_projection(cavity, emitter):
    # <e(+), H_out> at the equator is (2n+1) R^(2n+1) / (sqrt(2) a^(n+2)) times scale.
    a = emitter.position[0]
    t = mode_table(cavity, emitter.position)
    for n in (1, 2, 3):
        scale = shape_scale(t, n, cavity.R)
        proj = abs(np.vdot(E_PLUS, scale * mode_field(n, np.array(emitter.position), cavity)))
        expected = scale * (2 * n + 1) * cavity.R ** (2 * n + 1) / (
            math.sqrt(2.0) * a ** (n + 2))
        assert proj == pytest.approx(expected, rel=1e-12)
        assert abs(t.g[n - 1]) == pytest.approx(
            math.sqrt(2.0) * CONSTANTS.mu0 * CONSTANTS.muB * proj / CONSTANTS.hbar,
            rel=1e-12)


def test_coupling_phase_follows_the_mode(cavity):
    # g_n carries e^(-i(n+1) phi): the antipodal emitter sees (-1)^(n+1) g_n,
    # and a quarter turn multiplies g_n by (-i)^(n+1).
    a = 1.2 * cavity.R
    g = mode_table(cavity, (a, 0.0, 0.0)).g
    n = np.arange(1, cavity.n_max + 1)
    np.testing.assert_allclose(mode_table(cavity, (-a, 0.0, 0.0)).g, (-1.0) ** (n + 1) * g,
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(mode_table(cavity, (0.0, a, 0.0)).g, (-1j) ** (n + 1) * g,
                               rtol=1e-12, atol=1e-12 * np.abs(g).max())


@pytest.mark.parametrize("n_max", [1, 7, 50])
@pytest.mark.parametrize("direction", [(1.0, 0.0, 0.0), (0.3, -0.5, 0.8)],
                         ids=["x-axis", "oblique"])
def test_antipodal_couplings_have_equal_magnitude(yig, fields, n_max, direction):
    # Emitters at r and -r get g_n and (-1)^(n+1) g_n bit for bit, so equal
    # |g_n|: transfer_populations relies on this, and does not check it.
    cavity = CavityConfig(R=30e-9, mat=yig, fields=fields, n_max=n_max)
    r = 1.2 * cavity.R * np.array(direction) / np.linalg.norm(direction)
    g1, g2 = mode_table(cavity, [r, -r]).g
    n = np.arange(1, n_max + 1)
    assert np.all(np.abs(g1) > 0)
    assert np.array_equal(g2, np.where(n % 2 == 1, g1, -g1))
    assert np.array_equal(np.abs(g1), np.abs(g2))


def test_coupling_distance_law(cavity):
    g_near = abs(mode_table(cavity, (1.2 * cavity.R, 0, 0)).g[0])
    g_far = abs(mode_table(cavity, (2.4 * cavity.R, 0, 0)).g[0])
    assert g_near / g_far == pytest.approx(8.0, rel=1e-12)


def test_coupling_linear_in_dipole_scale(cavity, emitter):
    boosted = mode_table(cavity, emitter.position, dipole_scale=7.0).g[0]
    assert abs(boosted) == pytest.approx(7.0 * abs(mode_table(cavity, emitter.position).g[0]),
                                         rel=1e-12)


def test_coupling_rejects_interior_emitter(cavity):
    with pytest.raises(DomainError):
        mode_table(cavity, (0.5 * cavity.R, 0, 0))


def test_table_broadcasts_over_H0(cavity, emitter):
    # Each row of a table over several H0 equals the table of that H0 alone.
    H0s = cavity.fields.H0 * np.array([0.8, 1.0, 1.3])
    sweep = mode_table(cavity, emitter.position, H0=H0s)
    assert sweep.g.shape == (3, cavity.n_max)
    for k, H0 in enumerate(H0s):
        fields = state_from_internal(H0, cavity.mat)
        single = mode_table(CavityConfig(R=cavity.R, mat=cavity.mat, fields=fields,
                                         n_max=cavity.n_max), emitter.position)
        for name in ("omega", "Gamma", "Veff", "Hzp", "g"):
            assert np.array_equal(getattr(sweep, name)[k], getattr(single, name)), name
