"""Magnon spectral density seen by a circularly polarized spin transition.

Lorentzian mode sum with weights from the quantized modes:

    J(omega) = sum_n |g_n|^2 * (Gamma/(2*pi)) / ((omega - omega_n)^2 + (Gamma/2)^2)

normalized so that the Markovian golden-rule decay rate is 2*pi*J(omega0)
(= 4 g^2/Gamma at an isolated resonant peak) and Int J domega over one
isolated peak recovers |g_n|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, TWO_PI, check_budget
from .modes import CavityConfig, mode_table


def _lorentzian_sum(omega, omega_n, weight_n, Gamma_n):
    """sum_n weight_n (Gamma_n/2pi) / ((omega - omega_n)^2 + (Gamma_n/2)^2), omega's shape.

    Mode by mode, in place: J and one scratch array of omega's shape are all
    it holds, at any number of modes. Each term is rounded as in an
    (omega, n) broadcast of the formula, and J adds the terms in mode order,
    which is how np.sum reduces a last axis shorter than 8: below 8 modes J
    is bitwise that broadcast's np.sum over n, above it differs by rounding.
    """
    om = np.asarray(omega, dtype=float)
    J = np.zeros(om.shape)
    term = np.empty(om.shape)
    # Per-mode constants as array expressions: a Python float's ** 2 calls
    # libm pow, which need not round to the square.
    modes = zip(omega_n.tolist(), weight_n.tolist(),
                (Gamma_n / TWO_PI).tolist(), ((Gamma_n / 2.0) ** 2).tolist())
    for w_n, weight, height, half_width_sq in modes:
        np.subtract(om, w_n, out=term)
        np.square(term, out=term)
        term += half_width_sq
        np.divide(height, term, out=term)
        term *= weight
        J += term
    return J


def spectral_density(omega, emitter, cavity: CavityConfig):
    """J(omega) in rad/s; omega may be a scalar or an array."""
    t = mode_table(cavity, emitter.position, emitter.dipole_scale)
    J = _lorentzian_sum(omega, t.omega, t.weights, t.Gamma)
    if np.isscalar(omega) or np.asarray(omega).ndim == 0:
        return float(J)
    return J


@dataclass(frozen=True)
class SpectralGrid:
    """J(omega) samples on a strictly increasing grid, with run metadata."""

    omegas: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.any(np.diff(self.omegas) <= 0):
            raise DomainError("frequency grid must be strictly increasing")


DEFAULT_N_OMEGA = 2001     # points of a grid given by its bounds, and of a field map's


def omega_grid(cavity: CavityConfig, omega_min: float | None = None,
               omega_max: float | None = None, n_omega: int | None = None,
               H0_span: tuple[float, float] | None = None) -> np.ndarray:
    """Frequency grid (rad/s), checked against the size budget first.

    The budget counts points x modes, the Lorentzian terms of J on the grid:
    it bounds work, not stored values, since `spectral_density` holds two
    arrays of the grid's points at any number of modes.

    Given bounds, n_omega points (default DEFAULT_N_OMEGA). Else from the
    Kittel line at the lower internal field of H0_span (default the cavity's)
    to the n_max line at the higher, padded by 20 linewidths and spaced by
    a tenth of the narrower linewidth unless n_omega is given.
    """
    npts = DEFAULT_N_OMEGA if n_omega is None else n_omega
    if omega_min is None:
        t = mode_table(cavity, H0=H0_span or (cavity.fields.H0,) * 2)
        Gamma = float(t.Gamma.min())
        if Gamma <= 0:
            raise DomainError("auto grid needs Gamma > 0 (zero-width peaks)")
        omega_min = float(t.omega[0, 0] - 20.0 * t.Gamma[0, 0])
        omega_max = float(t.omega[1, -1] + 20.0 * t.Gamma[1, -1])
        if not math.isfinite(omega_max - omega_min):
            raise DomainError(f"mode frequencies up to {omega_max:g} rad/s are not finite")
        if n_omega is None:     # a whole float, so a spacing that underflows gives inf
            npts = float(np.ceil((omega_max - omega_min) / (Gamma / 10.0))) + 1.0
    check_budget(npts * cavity.n_max, f"{npts:.3g} frequency points x {cavity.n_max} modes")
    return np.linspace(omega_min, omega_max, int(npts))


def spectral_grid(emitter, cavity: CavityConfig, omega_min: float | None = None,
                  omega_max: float | None = None, n_omega: int | None = None) -> SpectralGrid:
    """J on `omega_grid(cavity, omega_min, omega_max, n_omega)`, with run metadata."""
    omegas = omega_grid(cavity, omega_min, omega_max, n_omega)
    values = spectral_density(omegas, emitter, cavity)
    meta = {
        "R_m": cavity.R,
        "H0_A_per_m": cavity.fields.H0,
        "n_max": cavity.n_max,
        "Gamma_rad_per_s": cavity.mat.damping_rate(cavity.fields.H0),
        "emitter_position_m": np.asarray(emitter.position, dtype=float).tolist(),
    }
    return SpectralGrid(omegas=omegas, values=values, metadata=meta)


@dataclass(frozen=True)
class FieldSweepMap:
    """J(H0, omega) matrix; plot with a nonlinear color scale (peaks are narrow)."""

    H0_values: np.ndarray        # A/m
    omega_values: np.ndarray     # rad/s
    J: np.ndarray                # shape (len(H0_values), len(omega_values))
    metadata: dict = field(default_factory=dict)


def field_sweep_map(H0_min: float, H0_max: float, n_H0: int, emitter,
                    cavity_template: CavityConfig, omega_min: float | None = None,
                    omega_max: float | None = None,
                    n_omega: int | None = None) -> FieldSweepMap:
    """J over n_H0 fields from H0_min to H0_max on one `omega_grid` of n_omega points.

    The grid spans every field's peaks unless bounds are given.
    """
    n_omega = DEFAULT_N_OMEGA if n_omega is None else n_omega
    if n_H0 < 1 or n_omega < 1:
        raise DomainError("sweep ranges must be non-empty")
    # The map and the mode table hold a row per field.
    width = max(n_omega, cavity_template.n_max)
    check_budget(n_H0 * width, f"{n_H0} fields x {width} frequency points or modes")
    if min(H0_min, H0_max) <= 0:
        raise DomainError("all H0 values must be positive")
    H0_values = np.linspace(H0_min, H0_max, n_H0)
    omega_values = omega_grid(cavity_template, omega_min, omega_max, n_omega,
                              H0_span=(H0_min, H0_max))

    t = mode_table(cavity_template, emitter.position, emitter.dipole_scale, H0=H0_values)
    # Row by row, each mode by mode: besides the map, two rows are held at any
    # n_max, and each row is bitwise the `spectral_density` of its field.
    J = np.empty((H0_values.size, omega_values.size))
    for row, args in zip(J, zip(t.omega, t.weights, t.Gamma)):
        row[:] = _lorentzian_sum(omega_values, *args)

    meta = {
        "R_m": cavity_template.R,
        "n_max": cavity_template.n_max,
        "emitter_position_m": np.asarray(emitter.position, dtype=float).tolist(),
        "color_scale_note": "peak heights span decades; use a nonlinear color scale",
    }
    return FieldSweepMap(H0_values=H0_values, omega_values=omega_values, J=J, metadata=meta)
