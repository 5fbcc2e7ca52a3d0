"""Two spins coupled through the single dipolar magnon mode: the couplings.

`symmetric_pair` places the two emitters and detunes them from the Kittel
mode by Delta. In the dispersive window |Delta| >> g the magnon mediates an
effective spin-spin coupling g_eff ~ g^2/Delta; the vacuum dipole-dipole
baseline at separation d is g_dip/(2pi) = mu0*muB^2/(hbar*(2pi)^2*d^3).
`coupling_vs_separation_sweep` gives both over a range of radii. The
transfer these couplings drive, `transfer_populations`, is a propagation and
lives in `dynamics`.
"""

from __future__ import annotations

import numpy as np

from .constants import HBAR, MU0, MU_B, DomainError, TWO_PI, check_budget
from .material import MaterialParams, state_from_internal
from .modes import CavityConfig, mode_table


def symmetric_pair(cavity: CavityConfig, a: float, Delta_over_g: float = 10.0,
                   dipole_scale: float = 1.0) -> tuple[np.ndarray, float]:
    """Positions (+-a, 0, 0) (m) and the detuning Delta = Delta_over_g * g (rad/s)."""
    g = abs(mode_table(cavity, (a, 0.0, 0.0), dipole_scale).g[0])
    return np.array([(a, 0.0, 0.0), (-a, 0.0, 0.0)]), dispersive_coupling(g, Delta_over_g)[0]


def effective_coupling(g, Delta):
    """Dispersive magnon-mediated coupling g_eff = g^2/Delta (rad/s); arrays allowed."""
    if np.any(Delta == 0):
        raise DomainError("dispersive formula g^2/Delta is invalid at Delta = 0")
    return g * g / Delta


def dispersive_coupling(g, Delta_over_g: float):
    """(Delta = Delta_over_g * g, g_eff = g^2/Delta) in rad/s; g_eff is None where it
    has no finite value: at Delta = 0, or where g^2/Delta overflows."""
    with np.errstate(over="ignore"):        # an overflowed g_eff is None, below
        Delta = Delta_over_g * g
        g_eff = None if np.any(Delta == 0) else effective_coupling(g, Delta)
    return Delta, (None if g_eff is None or not np.all(np.isfinite(g_eff)) else g_eff)


def dipole_dipole_coupling(separation):
    """Vacuum dipole-dipole coupling at distance `separation` (m; arrays allowed), in rad/s."""
    if np.any(separation <= 0):
        raise DomainError("separation must be positive")
    g_dip_hz = MU0 * MU_B**2 / (HBAR * TWO_PI**2 * separation**3)
    return TWO_PI * g_dip_hz


# The sweep's peak, in 16-byte budget values per radius: R, a and the
# (n_R, 3) emitter positions (2.5), the mode table's r and phase u (1.5), its
# repeat and cumprod of u (4) and one coupling temporary (1). tracemalloc
# measures a peak of 136 bytes, 8.5 values, per radius.
_SWEEP_VALUES_PER_RADIUS = 9


def coupling_vs_separation_sweep(G: float, R_min: float, R_max: float, n_R: int,
                                 mat: MaterialParams, H0: float,
                                 Delta_over_g: float = 10.0,
                                 dipole_scale: float = 1.0) -> dict[str, np.ndarray]:
    """Columns R, 2a, g, g_eff, g_dip (m, rad/s) for a = R + G over n_R radii R_min..R_max."""
    if G < 0:
        raise DomainError("gap G must be non-negative")
    if min(R_min, R_max) <= 0:
        raise DomainError("R values must be positive")
    check_budget(n_R * _SWEEP_VALUES_PER_RADIUS,
                 f"{n_R} radii x {_SWEEP_VALUES_PER_RADIUS} values of the radius broadcast")
    R = np.linspace(R_min, R_max, n_R)
    a = R + G
    position = np.outer(a, (1.0, 0.0, 0.0))
    # The table below replaces the cavity's radius by each of R.
    cavity = CavityConfig(R=R_max, mat=mat, fields=state_from_internal(H0, mat), n_max=1)
    g = np.abs(mode_table(cavity, position, dipole_scale, R=R).g[:, 0])
    _, g_eff = dispersive_coupling(g, Delta_over_g)
    if g_eff is None:
        raise DomainError("g_eff = g^2/Delta is not finite: Delta = 0 or g^2/Delta overflows")
    return {"R_m": R, "separation_m": 2.0 * a, "g_rad_per_s": g,
            "g_eff_rad_per_s": g_eff, "g_dip_rad_per_s": dipole_dipole_coupling(2.0 * a)}
