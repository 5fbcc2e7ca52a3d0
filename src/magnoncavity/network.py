"""Two spins dispersively coupled through the single dipolar magnon mode.

Single-excitation amplitudes (c1, c2, b) in the frame rotating at the common
spin frequency omega0, with Delta = omega0 - omega_K, and g1, g2 and Gamma read
from one `mode_table` over the two emitter positions:

    dc1/dt = -i g1 b
    dc2/dt = -i g2 b
    db/dt  = -i (g1 c1 + g2 c2) + (i Delta - Gamma/2) b

Magnon loss enters as the non-Hermitian -i Gamma/2 term, equivalent to the
Lindblad evolution restricted to at most one excitation. The magnon sees the
spins only through the bright sum beta = g1 c1 + g2 c2, so the system is
propagated exactly (matrix exponential) in (beta, b, I = Int b dt), and each
spin follows from c_j(t) = c_j(0) - i g_j I(t). In the dispersive
window |Delta| >> g the magnon mediates an effective spin-spin coupling
g_eff ~ g^2/Delta; the vacuum dipole-dipole baseline at separation d is
g_dip/(2pi) = mu0*muB^2/(hbar*(2pi)^2*d^3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import CONSTANTS, DomainError, NumericalError, TWO_PI, check_budget
from .dynamics import MemoryKernel, POPULATION_TOL, _time_grid, propagate
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
    g_dip_hz = CONSTANTS.mu0 * CONSTANTS.muB**2 / (
        CONSTANTS.hbar * TWO_PI**2 * separation**3
    )
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


@dataclass(frozen=True)
class TransferResult:
    """Populations P1, P2, Pb over time plus extracted swap frequency and fidelity."""

    times: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    Pb: np.ndarray
    swap_frequency: float
    fidelity: float
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        total = self.P1 + self.P2 + self.Pb
        if np.any(total > 1.0 + POPULATION_TOL):
            raise NumericalError("total single-excitation population exceeded 1")


COUPLING_SYMMETRY_TOL = 1e-10


def transfer_dynamics(cavity: CavityConfig, positions, Delta: float, t_end: float,
                      dt: float | None = None, n_samples: int | None = None, dipole_scale=1.0,
                      initial_state: tuple[complex, complex, complex] = (1.0, 0.0, 0.0)
                      ) -> TransferResult:
    """Single-excitation transfer from emitter 1 to emitter 2 via the Kittel mode.

    positions (2, 3) in m, Delta = omega0 - omega_K in rad/s, dipole_scale one
    factor or one per emitter."""
    if np.shape(positions) != (2, 3):
        raise DomainError(f"positions must have shape (2, 3), got {np.shape(positions)}")
    scale = np.broadcast_to(np.asarray(dipole_scale, dtype=float), (2,))
    table = mode_table(cavity, positions, scale[:, None])
    g1, g2 = np.abs(table.g[:, 0])
    # Antipodal emitters of equal dipole must get equal |g|: checked, not assumed.
    if scale[0] == scale[1] and abs(g1 - g2) > COUPLING_SYMMETRY_TOL * max(g1, g2):
        raise NumericalError("antipodal couplings differ beyond tolerance")

    # A higher mode within 10x the Kittel detuning breaks the single-mode picture.
    det = np.abs(table.omega[0] + Delta - table.omega[1:])
    if np.any(det < 10.0 * abs(Delta)):
        k = int(np.argmin(det))
        warnings.warn(f"mode n = {table.n[k + 1]} detuned by only {det[k]:g} rad/s "
                      f"(< 10x the Kittel detuning {abs(Delta):g}); "
                      "single-mode approximation may be inaccurate", stacklevel=2)

    Gamma = table.Gamma[0]
    # Same step rule, guard and budget as the single-emitter solvers; the
    # state is (beta, b, I).
    times, _ = _time_grid(MemoryKernel(weights=(g1 * g1, g2 * g2),
                                       rates=(1j * Delta - Gamma / 2.0,) * 2),
                          t_end, dt, n_samples, 3)
    y0 = np.array(initial_state, dtype=complex)
    norm = np.sum(np.abs(y0) ** 2)
    if abs(norm - 1.0) > POPULATION_TOL:
        raise DomainError("initial state must be normalized in the single-excitation sector")
    # (beta, b, I): dbeta/dt = -i (g1^2 + g2^2) b, db/dt = -i beta + (i Delta - Gamma/2) b,
    # dI/dt = b. Unlike expm of the (c1, c2, b) matrix, which is not bitwise
    # permutation-equivariant, this form makes a label swap exactly symmetric.
    A = np.array([[0.0, -1j * (g1 * g1 + g2 * g2), 0.0],
                  [-1j, 1j * Delta - Gamma / 2.0, 0.0],
                  [0.0, 1.0, 0.0]])
    _, b, I = propagate(A, [g1 * y0[0] + g2 * y0[1], y0[2], 0.0], times).T
    P1 = np.abs(y0[0] - 1j * g1 * I) ** 2
    P2 = np.abs(y0[1] - 1j * g2 * I) ** 2
    Pb = np.abs(b) ** 2

    # Track the population of whichever emitter starts empty.
    target = P2 if abs(y0[0]) >= abs(y0[1]) else P1
    swap, fidelity = _extract_swap(times, target, Delta)
    return TransferResult(times=times, P1=P1, P2=P2, Pb=Pb,
                          swap_frequency=swap, fidelity=fidelity,
                          metadata={"g": g1, "Delta": Delta, "Gamma": Gamma})


def _extract_swap(times: np.ndarray, P2: np.ndarray, Delta: float) -> tuple[float, float]:
    """Slow swap frequency pi/(2 t*) from the first broad maximum of P2.

    Fast ripples at the detuning scale are smoothed away before peak finding;
    t_end must extend past the first half-swap for the extraction to be valid.
    """
    if Delta != 0:
        ripple_period = TWO_PI / abs(Delta)
        window = 3.0 * ripple_period / (times[1] - times[0])     # in samples
        if not window < times.size:
            raise NumericalError("smoothing over 3 detuning ripple periods needs more than "
                                 "the whole horizon; extend t_end or raise |Delta|")
        smooth = _boxcar(P2, max(3, int(round(window))))
    else:
        smooth = P2
    if np.ptp(smooth) < 1e-12:
        # Decoupled receiver: nothing swaps, no rate to extract.
        return math.nan, float(np.max(P2))
    k = int(np.argmax(smooth))
    if k == 0 or k == times.size - 1:
        raise NumericalError("no interior P2 maximum; extend t_end to cover a half swap")
    t_star = float(times[k])
    return math.pi / (2.0 * t_star), float(P2[k])


def _boxcar(x: np.ndarray, width: int) -> np.ndarray:
    """Moving average over `width` samples, edge values repeated past both ends.

    Window i covers x[i - width//2 : i - width//2 + width]; a cumulative sum
    keeps it O(N) at any width.
    """
    csum = np.cumsum(np.pad(x, (width // 2 + 1, (width - 1) // 2), mode="edge"))
    return (csum[width:] - csum[:-width]) / width


def has_fast_ripples(result: TransferResult, min_count: int = 5) -> bool:
    """Detect the fast modulation riding on the slow swap: count local maxima of P1."""
    p = result.P1
    rising = p[1:-1] > p[:-2]
    falling = p[1:-1] >= p[2:]
    return int(np.sum(rising & falling)) >= min_count
