"""Magnon spectral density seen by a circularly polarized spin transition.

Lorentzian mode sum with weights from the quantized modes:

    J(omega) = sum_n |g_n|^2 * (Gamma/(2*pi)) / ((omega - omega_n)^2 + (Gamma/2)^2)

normalized so that the Markovian golden-rule decay rate is 2*pi*J(omega0)
(= 4 g^2/Gamma at an isolated resonant peak) and Int J domega over one
isolated peak recovers |g_n|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .constants import DomainError, TWO_PI
from .modes import CavityConfig, mode_frequency, mode_table


def _lorentzian_sum(omega, omega_n, weight_n, Gamma_n):
    om = np.asarray(omega, dtype=float)[..., None]
    lor = (Gamma_n / TWO_PI) / ((om - omega_n) ** 2 + (Gamma_n / 2.0) ** 2)
    return np.sum(weight_n * lor, axis=-1)


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


def auto_omega_span(cavity: CavityConfig, pad_linewidths: float = 20.0,
                    points_per_linewidth: float = 10.0) -> tuple[float, float, float]:
    """(first, last, count) of `auto_omega_grid`, known before anything is allocated.

    The count is a whole float, so a spacing that underflows gives inf.
    """
    Gamma = cavity.mat.damping_rate(cavity.fields.H0)
    if Gamma <= 0:
        raise DomainError("auto grid needs Gamma > 0 (zero-width peaks)")
    lo = mode_frequency(1, cavity.fields, cavity.mat) - pad_linewidths * Gamma
    hi = mode_frequency(cavity.n_max, cavity.fields, cavity.mat) + pad_linewidths * Gamma
    step = Gamma / points_per_linewidth
    return lo, hi, float(np.ceil((hi - lo) / step)) + 1.0


def auto_omega_grid(cavity: CavityConfig, pad_linewidths: float = 20.0,
                    points_per_linewidth: float = 10.0) -> np.ndarray:
    """Grid covering all retained peaks, spacing Gamma/points_per_linewidth."""
    lo, hi, count = auto_omega_span(cavity, pad_linewidths, points_per_linewidth)
    return np.linspace(lo, hi, int(count))


def spectral_grid(omegas: np.ndarray, emitter, cavity: CavityConfig) -> SpectralGrid:
    values = spectral_density(omegas, emitter, cavity)
    meta = {
        "R_m": cavity.R,
        "H0_A_per_m": cavity.fields.H0,
        "n_max": cavity.n_max,
        "Gamma_rad_per_s": cavity.mat.damping_rate(cavity.fields.H0),
        "emitter_position_m": list(np.asarray(emitter.position, dtype=float)),
    }
    return SpectralGrid(omegas=np.asarray(omegas, dtype=float), values=values, metadata=meta)


@dataclass(frozen=True)
class FieldSweepMap:
    """J(H0, omega) matrix; plot with a nonlinear color scale (peaks are narrow)."""

    H0_values: np.ndarray        # A/m
    omega_values: np.ndarray     # rad/s
    J: np.ndarray                # shape (len(H0_values), len(omega_values))
    metadata: dict = field(default_factory=dict)


def field_sweep_map(H0_values, omega_values, emitter,
                    cavity_template: CavityConfig) -> FieldSweepMap:
    """Sweep the internal field: one mode table over all H0, J one H0 row at a time."""
    H0_values = np.asarray(H0_values, dtype=float)
    omega_values = np.asarray(omega_values, dtype=float)
    if H0_values.size == 0 or omega_values.size == 0:
        raise DomainError("sweep ranges must be non-empty")
    if np.any(H0_values <= 0):
        raise DomainError("all H0 values must be positive")

    t = mode_table(cavity_template, emitter.position, emitter.dipole_scale, H0=H0_values)
    # Row by row: a (H0, omega, n) broadcast would hold n times the map in memory.
    J = np.empty((H0_values.size, omega_values.size))
    for row, args in zip(J, zip(t.omega, t.weights, t.Gamma)):
        row[:] = _lorentzian_sum(omega_values, *args)

    meta = {
        "R_m": cavity_template.R,
        "n_max": cavity_template.n_max,
        "emitter_position_m": list(np.asarray(emitter.position, dtype=float)),
        "color_scale_note": "peak heights span decades; use a nonlinear color scale",
    }
    return FieldSweepMap(H0_values=H0_values, omega_values=omega_values, J=J, metadata=meta)
