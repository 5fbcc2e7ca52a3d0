"""Two spins dispersively coupled through the single dipolar magnon mode.

Single-excitation amplitudes (c1, c2, b) in the frame rotating at the common
spin frequency omega0, with Delta = omega0 - omega_K:

    dc1/dt = -i g b
    dc2/dt = -i g b
    db/dt  = -i g (c1 + c2) + (i Delta - Gamma/2) b

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

from .constants import CONSTANTS, DomainError, NumericalError, TWO_PI
from .dynamics import EmitterConfig, MemoryKernel, POPULATION_TOL, _check_dt, propagate
from .material import MaterialParams, state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_frequency, mode_table


@dataclass(frozen=True)
class TwoEmitterConfig:
    """Cavity plus two antipodal emitters and the common detuning Delta = omega0 - omega_K."""

    cavity: CavityConfig
    emitter1: EmitterConfig
    emitter2: EmitterConfig
    Delta: float

    def __post_init__(self) -> None:
        for e in (self.emitter1, self.emitter2):
            if np.linalg.norm(e.position) <= self.cavity.R:
                raise DomainError("both emitters must sit outside the sphere")

    @property
    def gap(self) -> float:
        return float(np.linalg.norm(self.emitter1.position)) - self.cavity.R


def symmetric_pair(cavity: CavityConfig, a: float, Delta_over_g: float = 10.0,
                   dipole_scale: float = 1.0) -> TwoEmitterConfig:
    """Emitters at (+-a, 0, 0), omega0 = omega_K + Delta with Delta = Delta_over_g * g."""
    omega_K = kittel_frequency(cavity.fields, cavity.mat)
    g = abs(mode_table(cavity, (a, 0.0, 0.0), dipole_scale).g[0])
    Delta = Delta_over_g * g
    omega0 = omega_K + Delta
    e1 = EmitterConfig(position=(a, 0.0, 0.0), omega0=omega0, dipole_scale=dipole_scale)
    e2 = EmitterConfig(position=(-a, 0.0, 0.0), omega0=omega0, dipole_scale=dipole_scale)
    return TwoEmitterConfig(cavity=cavity, emitter1=e1, emitter2=e2, Delta=Delta)


def effective_coupling(g: float, Delta: float) -> float:
    """Dispersive magnon-mediated coupling g_eff = g^2/Delta (rad/s)."""
    if Delta == 0:
        raise DomainError("dispersive formula g^2/Delta is invalid at Delta = 0")
    return g * g / Delta


def dipole_dipole_coupling(separation: float) -> float:
    """Vacuum dipole-dipole coupling at distance `separation`, in rad/s."""
    if separation <= 0:
        raise DomainError("separation must be positive")
    g_dip_hz = CONSTANTS.mu0 * CONSTANTS.muB**2 / (
        CONSTANTS.hbar * TWO_PI**2 * separation**3
    )
    return TWO_PI * g_dip_hz


def coupling_vs_separation_sweep(G: float, R_values, mat: MaterialParams, H0: float,
                                 Delta_over_g: float = 10.0,
                                 dipole_scale: float = 1.0) -> list[dict]:
    """Rows of (2a, g, g_eff, g_dip) for a = R + G across sphere radii."""
    if G < 0:
        raise DomainError("gap G must be non-negative")
    fields = state_from_internal(H0, mat)
    rows = []
    for R in R_values:
        if R <= 0:
            raise DomainError("R values must be positive")
        a = R + G
        cavity = CavityConfig(R=R, mat=mat, fields=fields, n_max=1)
        g = abs(mode_table(cavity, (a, 0.0, 0.0), dipole_scale).g[0])
        rows.append({
            "R_m": R,
            "separation_m": 2.0 * a,
            "g_rad_per_s": g,
            "g_eff_rad_per_s": effective_coupling(g, Delta_over_g * g),
            "g_dip_rad_per_s": dipole_dipole_coupling(2.0 * a),
        })
    return rows


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


def transfer_dynamics(cfg: TwoEmitterConfig, t_end: float, dt: float,
                      initial_state: tuple[complex, complex, complex] = (1.0, 0.0, 0.0)
                      ) -> TransferResult:
    """Single-excitation transfer from emitter 1 to emitter 2 via the Kittel mode."""
    g1, g2 = (abs(mode_table(cfg.cavity, e.position, e.dipole_scale).g[0])
              for e in (cfg.emitter1, cfg.emitter2))
    # Antipodal placement must give equal magnitudes; computed independently
    # and checked rather than assumed.
    if cfg.emitter1.dipole_scale == cfg.emitter2.dipole_scale:
        ref = max(g1, g2)
        if ref > 0 and abs(g1 - g2) > COUPLING_SYMMETRY_TOL * ref:
            raise NumericalError("antipodal couplings differ beyond tolerance")

    _check_single_mode_validity(cfg)

    Gamma = cfg.cavity.mat.damping_rate(cfg.cavity.fields.H0)
    Delta = cfg.Delta
    # Same resolution guard as the single-emitter solvers.
    _check_dt(MemoryKernel(weights=(g1 * g1, g2 * g2),
                           rates=(1j * Delta - Gamma / 2.0,) * 2), dt)

    times = np.arange(int(round(t_end / dt)) + 1) * dt
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


def _check_single_mode_validity(cfg: TwoEmitterConfig) -> None:
    """Warn when higher modes are not far detuned compared with the Kittel detuning."""
    omega0 = cfg.emitter1.omega0
    for n in range(2, cfg.cavity.n_max + 1):
        det = abs(omega0 - mode_frequency(n, cfg.cavity.fields, cfg.cavity.mat))
        if det < 10.0 * abs(cfg.Delta):
            warnings.warn(
                f"mode n = {n} detuned by only {det:g} rad/s "
                f"(< 10x the Kittel detuning {abs(cfg.Delta):g}); "
                "single-mode approximation may be inaccurate",
                stacklevel=2,
            )


def _extract_swap(times: np.ndarray, P2: np.ndarray, Delta: float) -> tuple[float, float]:
    """Slow swap frequency pi/(2 t*) from the first broad maximum of P2.

    Fast ripples at the detuning scale are smoothed away before peak finding;
    t_end must extend past the first half-swap for the extraction to be valid.
    """
    if Delta != 0:
        ripple_period = TWO_PI / abs(Delta)
        dt = times[1] - times[0]
        width = max(3, int(round(3.0 * ripple_period / dt)))
        smooth = _boxcar(P2, width)
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
