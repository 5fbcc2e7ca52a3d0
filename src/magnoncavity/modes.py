"""Magnetostatic modes of a gyrotropic sphere on the (n, m=n) branch.

Scalar potential (quasi-statics, H = -grad(phi)), with w = x - i*y:

    interior (r < R):   phi_n = w^n
    exterior (r > R):   phi_n = R^(2n+1) * w^n / r^(2n+1)

Both are harmonic, share the angular dependence sin^n(theta) e^(-i n phi),
and match at r = R, which fixes the exterior amplitude. The interior field

    H_in = -grad(w^n) = -n*sqrt(2)*w^(n-1) e(-)          e(-) = (e_x - i e_y)/sqrt(2)

is circularly polarized everywhere inside; for n = 1 it is homogeneous.
The branch frequencies are

    omega_n = gamma*mu0*(H0 + Ms*n/(2n+1)),   n = 1 the Kittel mode.

Quantization fixes the overall amplitude through the dispersive-energy
normalization (Gamma = 0 inside the integral):

    Int mu0 H*·d(omega[I+chi])/domega|_omega_n ·H d^3r = hbar*omega_n.

For the e(-)-polarized interior field the tensor derivative collapses to
the scalar D_n = d/domega[omega(1 + chi + kappa)] = 1 + wH*wM/(wH-omega_n)^2,
and both Dirichlet integrals have closed forms:

    Int_int |grad phi_n|^2 =  n    * R^(2n+1) * S_n
    Int_ext |grad phi_n|^2 = (n+1) * R^(2n+1) * S_n
    S_n = 2*pi^(3/2) * Gamma(n+1)/Gamma(n+3/2)

so the normalization integral is mu0*s^2*R^(2n+1)*S_n*(n*D_n + n + 1) with
amplitude s. For n = 1 this reproduces Veff = 3V(Ms + 3H0)/Ms with
V = 4*pi*R^3/3 and the exterior dipole field Hzp*R^3*(3 r@r/r^5 - I/r^3)·e(-).

The spin-mode coupling takes the co-rotating circular projection of the
zero-point field at the emitter (transition dipole magnitude sqrt(2)*muB):

    hbar*g = sqrt(2)*mu0*muB*|<e(+), H_mode(r_emitter)>|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import CONSTANTS, DomainError
from .material import MaterialParams, StaticFieldState

# Surface shell this thin (relative to R) is evaluated as exterior.
BOUNDARY_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


# Circular unit vectors e(+-) = (e_x +- i e_y)/sqrt(2).
E_PLUS = np.array([1.0 / _SQRT2, 1j / _SQRT2, 0.0], dtype=complex)
E_MINUS = np.array([1.0 / _SQRT2, -1j / _SQRT2, 0.0], dtype=complex)


@dataclass(frozen=True)
class CavityConfig:
    """Sphere radius, material, static fields and mode truncation."""

    R: float
    mat: MaterialParams
    fields: StaticFieldState
    n_max: int = 7

    def __post_init__(self) -> None:
        if self.R <= 0:
            raise DomainError("R must be positive")
        if self.n_max < 1:
            raise DomainError("n_max must be >= 1")

    @property
    def volume(self) -> float:
        return 4.0 * math.pi * self.R**3 / 3.0


def mode_frequency(n: int, fields: StaticFieldState, mat: MaterialParams) -> float:
    """omega_n = gamma*mu0*(H0 + Ms*n/(2n+1)) on the (n, n) branch."""
    if n < 1:
        raise DomainError(f"mode order n must be >= 1, got {n}")
    return mat.gamma_tilde * (fields.H0 + mat.Ms * n / (2.0 * n + 1.0))


def kittel_frequency(fields: StaticFieldState, mat: MaterialParams) -> float:
    """Uniform-mode frequency gamma*mu0*(H0 + Ms/3); same code path as n = 1."""
    return mode_frequency(1, fields, mat)


def mode_potential(n: int, r, R: float):
    """Unnormalized scalar potential of the (n, n) mode at points r (..., 3)."""
    if n < 1:
        raise DomainError(f"mode order n must be >= 1, got {n}")
    r = np.asarray(r, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    w = x - 1j * y
    rad = np.sqrt(x * x + y * y + z * z)
    exterior = rad >= R * (1.0 - BOUNDARY_TOL)
    phi = np.where(exterior, R ** (2 * n + 1) * w**n / np.where(exterior, rad, 1.0) ** (2 * n + 1), w**n)
    return phi


def mode_field(n: int, r, cavity: CavityConfig):
    """Unnormalized H = -grad(phi) of the (n, n) mode at points r (..., 3).

    Points within BOUNDARY_TOL*R of the surface evaluate as exterior.
    """
    if n < 1:
        raise DomainError(f"mode order n must be >= 1, got {n}")
    R = cavity.R
    r = np.asarray(r, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    rad = np.sqrt(x * x + y * y + z * z)
    if np.any(rad == 0.0):
        raise DomainError("mode field is not defined at the origin")
    w = x - 1j * y

    H = np.zeros(r.shape, dtype=complex)
    interior = rad < R * (1.0 - BOUNDARY_TOL)
    exterior = ~interior

    # Interior: -grad(w^n) = -n w^(n-1) (1, -i, 0).
    wi = w[interior] ** (n - 1)
    H[..., 0][interior] = -n * wi
    H[..., 1][interior] = 1j * n * wi

    # Exterior: -grad(R^(2n+1) w^n r^-(2n+1)).
    re = rad[exterior]
    we = w[exterior]
    pref = R ** (2 * n + 1) * re ** -(2 * n + 1)
    wn1 = we ** (n - 1)
    wn = we**n
    radial = (2 * n + 1) * wn / (re * re)
    H[..., 0][exterior] = pref * (-n * wn1 + radial * x[exterior])
    H[..., 1][exterior] = pref * (1j * n * wn1 + radial * y[exterior])
    H[..., 2][exterior] = pref * (radial * z[exterior])
    return H


def _angular_integral(n: int) -> float:
    """S_n = Int |sin^n(theta) e^(-i n phi)|^2 dOmega = 2 pi^(3/2) n! / Gamma(n+3/2)."""
    return 2.0 * math.pi * math.sqrt(math.pi) * math.gamma(n + 1) / math.gamma(n + 1.5)


def dispersive_energy_factor(n: int, cavity: CavityConfig) -> float:
    """D_n = d/domega[omega(1 + chi + kappa)] at omega_n, Gamma = 0."""
    wH = cavity.mat.gamma_tilde * cavity.fields.H0
    wM = cavity.mat.gamma_tilde * cavity.mat.Ms
    omega = mode_frequency(n, cavity.fields, cavity.mat)
    return 1.0 + wH * wM / (wH - omega) ** 2


@dataclass(frozen=True)
class MagnonMode:
    """A quantized (n, m=n) mode: frequency, linewidth, zero-point field.

    scale multiplies the unnormalized mode_field shape so that one quantum
    carries hbar*omega; Hzp is the peak interior amplitude and
    Veff = hbar*omega/(mu0*Hzp^2).
    """

    n: int
    m: int
    omega: float
    Gamma: float
    Veff: float
    Hzp: float
    scale: float
    cavity: CavityConfig

    def field(self, r) -> np.ndarray:
        """Zero-point field H(r) in A/m at points r (..., 3); thread-safe."""
        return self.scale * mode_field(self.n, r, self.cavity)


def quantize_mode(n: int, cavity: CavityConfig) -> MagnonMode:
    """Normalize mode n against the dispersive-energy integral (closed form)."""
    omega = mode_frequency(n, cavity.fields, cavity.mat)
    D_n = dispersive_energy_factor(n, cavity)
    S_n = _angular_integral(n)
    R = cavity.R
    shape_integral = R ** (2 * n + 1) * S_n * (n * D_n + n + 1)
    if not (shape_integral > 0 and math.isfinite(shape_integral)):
        raise AssertionError("mode normalization integral must be finite and positive")
    scale = math.sqrt(CONSTANTS.hbar * omega / (CONSTANTS.mu0 * shape_integral))
    # Peak interior |H| of the shape field: sqrt(2)*n*R^(n-1) at the equator surface.
    Hzp = scale * _SQRT2 * n * R ** (n - 1)
    Veff = CONSTANTS.hbar * omega / (CONSTANTS.mu0 * Hzp * Hzp)
    return MagnonMode(
        n=n,
        m=n,
        omega=omega,
        Gamma=cavity.mat.damping_rate(cavity.fields.H0),
        Veff=Veff,
        Hzp=Hzp,
        scale=scale,
        cavity=cavity,
    )


def magnon_modes(cavity: CavityConfig) -> list[MagnonMode]:
    """All quantized modes up to the configured truncation order."""
    return [quantize_mode(n, cavity) for n in range(1, cavity.n_max + 1)]


def coupling_strength(mode: MagnonMode, emitter) -> float:
    """Spin-single-magnon coupling g (rad/s, magnitude) at the emitter position.

    Projects the zero-point field on the co-rotating circular unit vector:
    hbar*g = sqrt(2)*mu0*muB*|<e(+), H(r)>|, scaled by the emitter's dipole factor.
    """
    r = np.asarray(emitter.position, dtype=float)
    if np.linalg.norm(r) <= mode.cavity.R:
        raise DomainError("emitter must sit outside the sphere")
    H = mode.field(r)
    proj = np.vdot(E_PLUS, H)
    dipole = _SQRT2 * CONSTANTS.muB * getattr(emitter, "dipole_scale", 1.0)
    return abs(CONSTANTS.mu0 * dipole * proj) / CONSTANTS.hbar
