"""Magnetostatic modes of a gyrotropic sphere on the (n, m=n) branch.

The (n, m = n) family is the equatorial branch of Walker's modes
(Phys. Rev. 105, 390 (1957)). Scalar potential (quasi-statics,
H = -grad(phi)), with w = x - i*y:

    interior (r < R):   phi_n = w^n
    exterior (r > R):   phi_n = (R/r)^(2n+1) * w^n

Both are harmonic, share the angular dependence sin^n(theta) e^(-i n phi),
and match at r = R, which fixes the exterior amplitude. The interior field

    H_in = -grad(w^n) = -n*sqrt(2)*w^(n-1) e(-)          e(-) = (e_x - i e_y)/sqrt(2)

is circularly polarized everywhere inside; for n = 1 it is homogeneous.
This module evaluates only the closed forms below; the potentials, fields
and the susceptibility chi live with the test oracles. The branch
frequencies are

    omega_n = gamma*mu0*(H0 + Ms*n/(2n+1)),   n = 1 the Kittel mode.

Quantization fixes the overall amplitude through the dispersive-energy
normalization (Gamma = 0 inside the integral):

    Int mu0 H*·d(omega[I+chi])/domega|_omega_n ·H d^3r = hbar*omega_n.

For the e(-)-polarized interior field the tensor derivative collapses to
the scalar D_n = d/domega[omega(1 + chi + kappa)] = 1 + wH*wM/(wH-omega_n)^2
= 1 + (wH/wM)*((2n+1)/n)^2, and both Dirichlet integrals have closed forms:

    Int_int |grad phi_n|^2 =  n    * R^(2n+1) * S_n
    Int_ext |grad phi_n|^2 = (n+1) * R^(2n+1) * S_n
    S_n = 2*pi^(3/2) * Gamma(n+1)/Gamma(n+3/2)

so the normalization integral is mu0*s^2*R^(2n+1)*N_n with amplitude s and
N_n = S_n*(n*D_n + n + 1). `mode_table` works in rho = r/R, where R enters
only as an overall power: with s_n = sqrt(hbar*omega_n/(mu0*N_n)),

    Hzp_n  = sqrt(2)*n*s_n * R^(-3/2)         (peak interior |H|, equator surface)
    Veff_n = N_n/(2 n^2) * R^3                (= hbar*omega_n/(mu0*Hzp_n^2))

For n = 1 this reproduces Veff = 3V(Ms + 3H0)/Ms with V = 4*pi*R^3/3.

The spin-mode coupling takes the co-rotating circular projection of the
zero-point field at the emitter (transition dipole magnitude sqrt(2)*muB).
Outside the sphere <e(+), H> = s_n*R^(-3/2)*(2n+1)*u^(n+1)*rho^-(n+2)/sqrt(2)
with u = (x - i*y)/r, so

    hbar*g_n = sqrt(2)*mu0*muB*<e(+), H_mode(r_emitter)>
             = mu0*muB*(2n+1)*s_n*R^(-3/2)*u^(n+1)*rho^-(n+2),

complex, with the e^(-i(n+1)phi) phase of the (n, n) mode at the emitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS, DomainError
from .material import MaterialParams, StaticFieldState

_SQRT2 = math.sqrt(2.0)


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


def _branch_frequency(mat: MaterialParams, H0, n):
    """omega_n = gamma*mu0*(H0 + Ms*n/(2n+1)) on the (n, n) branch; arrays broadcast."""
    return mat.gamma_tilde * (H0 + mat.Ms * n / (2.0 * n + 1.0))


def kittel_frequency(fields: StaticFieldState, mat: MaterialParams) -> float:
    """Uniform-mode frequency gamma*mu0*(H0 + Ms/3): the n = 1 line of `mode_table`."""
    return _branch_frequency(mat, fields.H0, 1)


@dataclass(frozen=True)
class ModeTable:
    """Quantized (n, n) modes as arrays over n = 1..n_max (the last axis).

    Leading axes follow the H0 values the table was built for. omega and
    Gamma are in rad/s, Veff in m^3, Hzp in A/m; g is the complex coupling
    in rad/s at the emitter position, or None when none was given.
    """

    n: np.ndarray
    omega: np.ndarray
    Gamma: np.ndarray
    Veff: np.ndarray
    Hzp: np.ndarray
    g: np.ndarray | None

    @property
    def weights(self) -> np.ndarray:
        """|g_n|^2, the weight of each mode in the kernel and the spectral density."""
        return self.g.real**2 + self.g.imag**2


# Overflows stay silent here: MemoryKernel, omega_grid and the CLI's gate refuse them.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def mode_table(cavity: CavityConfig, position=None, dipole_scale: float = 1.0,
               H0=None, R=None) -> ModeTable:
    """Closed-form mode ladder up to cavity.n_max, optionally at an emitter.

    H0 (A/m) and R (m), scalars or arrays, replace the cavity's internal
    field and radius, and the table takes their broadcast leading axes.
    position is (x, y, z) or an array (..., 3) that broadcasts with R.
    dipole_scale (an array broadcasts with g) multiplies the transition dipole.
    """
    mat = cavity.mat
    R = cavity.R if R is None else np.asarray(R, dtype=float)[..., None]
    n = np.arange(1, cavity.n_max + 1)
    H0 = np.asarray(cavity.fields.H0 if H0 is None else H0, dtype=float)[..., None]
    omega = _branch_frequency(mat, H0, n)
    D = 1.0 + H0 / mat.Ms * ((2.0 * n + 1.0) / n) ** 2
    # lgamma keeps S_n finite where n! and Gamma(n + 3/2) alone overflow.
    S = 2.0 * math.pi * math.sqrt(math.pi) * np.exp(
        [math.lgamma(k + 1.0) - math.lgamma(k + 1.5) for k in n.tolist()])
    N = S * (n * D + n + 1.0)
    s = np.sqrt(CONSTANTS.hbar * omega / (CONSTANTS.mu0 * N))
    g = None
    if position is not None:
        position = np.asarray(position, dtype=float)
        x, y = position[..., :1], position[..., 1:2]
        r = np.linalg.norm(position, axis=-1)[..., None]
        if np.any(r <= R):
            raise DomainError("emitter must sit outside the sphere")
        u = x / r - 1j * (y / r)
        # u^(n+1) with |u| <= 1 and rho^-(n+2) <= 1 underflow to 0, never overflow.
        phase = np.cumprod(np.repeat(u, n.size + 1, axis=-1), axis=-1)[..., 1:]
        g = (CONSTANTS.mu0 * CONSTANTS.muB * dipole_scale / CONSTANTS.hbar
             * (2 * n + 1) * s * R**-1.5 * phase * (R / r) ** (n + 2))
    return ModeTable(n=n, omega=omega,
                     Gamma=np.broadcast_to(mat.damping_rate(H0), omega.shape),
                     Veff=N / (2.0 * n * n) * R**3, Hzp=_SQRT2 * n * s * R**-1.5, g=g)

