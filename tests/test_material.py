import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from magnoncavity import (DomainError, MaterialParams, internal_field,
                          state_from_internal, tesla_to_field)

from oracles import susceptibility


def test_static_chi_is_Ms_over_H0(yig, fields):
    s = susceptibility(0.0, fields.H0, yig)
    assert s.chi == pytest.approx(0.356, rel=1e-12)  # Ms/H0 = 0.178/0.5
    assert s.kappa == 0.0


def test_pole_divergence(yig_lossless, fields):
    wH = yig_lossless.gamma_tilde * fields.H0
    s = susceptibility(wH * (1.0 - 1e-9), fields.H0, yig_lossless)
    assert abs(s.chi) > 1e6


def test_pole_exact_raises(yig_lossless, fields):
    wH = yig_lossless.gamma_tilde * fields.H0
    with pytest.raises(DomainError):
        susceptibility(wH, fields.H0, yig_lossless)


def test_nonpositive_H0_rejected(yig):
    with pytest.raises(DomainError):
        susceptibility(1e9, -1.0, yig)


def test_tensor_assembly(yig, fields):
    s = susceptibility(5e10, fields.H0, yig)
    t = s.tensor
    assert t[0, 0] == t[1, 1] == s.chi
    assert t[0, 1] == 1j * s.kappa
    assert t[1, 0] == -1j * s.kappa
    assert t[2, 2] == 0.0


def test_hermiticity_at_zero_damping(yig_lossless, fields):
    # chi_xy = conj(chi_yx) holds exactly for Gamma = 0 (kappa real).
    s = susceptibility(3e10, fields.H0, yig_lossless)
    t = s.tensor
    assert t[0, 1] == np.conj(t[1, 0])
    assert s.kappa.imag == 0.0


def test_internal_field_definition(yig):
    x = 1234.5
    st_ = internal_field(yig.Ms / 3.0 + x, yig)
    assert st_.H0 == pytest.approx(x, rel=1e-9)
    assert st_.Hd == -yig.Ms / 3.0


def test_internal_field_working_point(yig):
    # mu0*He = 0.5593333... T realizes mu0*H0 = 0.5 T for mu0*Ms = 0.178 T.
    He = tesla_to_field(0.5 + 0.178 / 3.0)
    st_ = internal_field(He, yig)
    assert st_.H0 == pytest.approx(tesla_to_field(0.5), rel=1e-12)


def test_internal_field_large_He_limit(yig):
    He = 1e12
    assert internal_field(He, yig).H0 / He == pytest.approx(1.0, abs=1e-3)


def test_unsaturated_regime_rejected(yig):
    with pytest.raises(DomainError, match="saturate"):
        internal_field(yig.Ms / 3.0, yig)


def test_state_from_internal_round_trip(yig, fields):
    st_ = state_from_internal(fields.H0, yig)
    assert internal_field(st_.He, yig).H0 == pytest.approx(fields.H0, rel=1e-14)


def test_passivity_on_grid(yig, fields):
    # Im chi > 0 for omega > 0 with Gamma > 0.
    omegas = np.linspace(1e8, 3e11, 400)
    ims = [susceptibility(w, fields.H0, yig).chi.imag for w in omegas]
    assert all(v > 0 for v in ims)


@settings(deadline=None, max_examples=50)
@given(omega=st.floats(min_value=1e8, max_value=3e11))
def test_reality_symmetry_lossless(omega, yig_lossless, fields):
    # chi(-w) = chi(w)* and kappa(-w) = -kappa(w)* at Gamma = 0.
    wH = yig_lossless.gamma_tilde * fields.H0
    if abs(omega - wH) < 1e-3 * wH:
        return  # skip the pole neighbourhood
    sp = susceptibility(omega, fields.H0, yig_lossless)
    sm = susceptibility(-omega, fields.H0, yig_lossless)
    assert sm.chi == np.conj(sp.chi)
    assert sm.kappa == -np.conj(sp.kappa)


def test_resonance_location(yig_lossless, fields):
    wH = yig_lossless.gamma_tilde * fields.H0
    grid = np.linspace(0.9 * wH, 1.1 * wH, 4001)
    grid = grid[np.abs(grid - wH) > 1e-5 * wH]
    vals = [abs(susceptibility(w, fields.H0, yig_lossless).chi) for w in grid]
    peak = grid[int(np.argmax(vals))]
    step = grid[1] - grid[0]
    assert abs(peak - wH) <= 2 * step


def test_gamma_from_alpha(fields):
    mat = MaterialParams(Ms=tesla_to_field(0.178), alpha=1e-4)
    expected = 2 * 1e-4 * mat.gamma_tilde * fields.H0
    assert mat.damping_rate(fields.H0) == pytest.approx(expected, rel=1e-12)
    # Recomputed when H0 changes.
    assert mat.damping_rate(2 * fields.H0) == pytest.approx(2 * expected, rel=1e-12)


def test_invalid_material_params():
    with pytest.raises(DomainError):
        MaterialParams(Ms=-1.0)
    with pytest.raises(DomainError):
        MaterialParams(Ms=1.0, Gamma=-1.0)
