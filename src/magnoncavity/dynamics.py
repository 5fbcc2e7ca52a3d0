"""Non-Markovian decay of a spin emitter into the magnon modes.

Rotating-frame amplitude c(t) (c_tilde, slowly varying at omega0) obeys

    dc/dt = -Int_0^t K(t - t') c(t') dt',
    K(tau) = sum_n |g_n|^2 exp[(i(omega0 - omega_n) - Gamma_n/2) tau],

the closed-contour transform of the Lorentzian spectral density. Two
independent solvers are provided and cross-validated:

  * evolve_volterra   -- literal trapezoidal-history discretization of the
                         integro-differential equation, O(N^2).
  * evolve_pseudomode -- equivalent linear ODE system y' = A y (one damped
                         auxiliary amplitude per Lorentzian), sampled
                         exactly by matrix-exponential propagation,
                         O(N * modes). Production path.

Both evolve_pseudomode and the two-spin transfer solve a constant
non-Hermitian y' = A y through `propagate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConfigError, DomainError, NumericalError
from .material import state_from_internal
from .modes import CavityConfig, kittel_frequency, mode_table

POPULATION_TOL = 1e-9


@dataclass(frozen=True)
class EmitterConfig:
    """Spin position (m), transition frequency (rad/s), dipole scale factor.

    The transition dipole is circular with magnitude sqrt(2)*muB; dipole_scale
    multiplies it (1.0 = a bare electron spin).
    """

    position: tuple[float, float, float]
    omega0: float
    dipole_scale: float = 1.0


@dataclass(frozen=True)
class MemoryKernel:
    """K(tau) = sum_k weights[k] * exp(rates[k] * tau).

    weights are the |g_n|^2 (rad^2/s^2); rates are i*(omega0 - omega_n) - Gamma_n/2.
    """

    weights: tuple[float, ...]
    rates: tuple[complex, ...]

    def __post_init__(self) -> None:
        if any(w < 0 for w in self.weights):
            raise DomainError("kernel weights must be non-negative")

    @property
    def K0(self) -> float:
        return float(sum(self.weights))

    def __call__(self, tau):
        tau = np.asarray(tau, dtype=float)
        if not self.weights:
            return np.zeros(tau.shape, dtype=complex)
        w = np.array(self.weights)
        s = np.array(self.rates)
        return np.sum(w * np.exp(s * tau[..., None]), axis=-1)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled populations |c_e(t)|^2 with optional mode amplitudes."""

    times: np.ndarray
    populations: np.ndarray
    amplitudes: np.ndarray | None = None
    mode_amplitudes: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.populations
        if np.any(p < -POPULATION_TOL) or np.any(p > 1.0 + POPULATION_TOL):
            raise NumericalError("populations left [0, 1] beyond tolerance")


def build_kernel(emitter: EmitterConfig, cavity: CavityConfig) -> MemoryKernel:
    """One exponential term per retained mode, from the quantized couplings."""
    t = mode_table(cavity, emitter.position, emitter.dipole_scale)
    rates = 1j * (emitter.omega0 - t.omega) - t.Gamma / 2.0
    return MemoryKernel(weights=tuple(t.weights), rates=tuple(rates))


def _dt_bounds(kernel: MemoryKernel) -> dict[str, float]:
    """Resolution bound on dt per constraint: detuning, linewidth, coupling."""
    bounds = {}
    if kernel.weights:
        det = max(abs(s.imag) for s in kernel.rates)
        if det > 0:
            bounds["max detuning"] = 2.0 * math.pi / det / 10.0
        Gamma = max(-2.0 * s.real for s in kernel.rates)
        if Gamma > 0:
            bounds["linewidth"] = 1.0 / Gamma / 10.0
        gmax = math.sqrt(max(kernel.weights))
        if gmax > 0:
            bounds["max coupling"] = 1.0 / (10.0 * gmax) / 10.0
    return bounds


def max_stable_dt(kernel: MemoryKernel) -> float:
    """Resolution guard: dt must not exceed min(2pi/max|detuning|, 1/Gamma, 1/(10 g_max))/10."""
    return min(_dt_bounds(kernel).values(), default=math.inf)


def _check_dt(kernel: MemoryKernel, dt: float) -> None:
    if dt <= 0:
        raise ConfigError("dt must be positive")
    bounds = _dt_bounds(kernel)
    limit = min(bounds.values(), default=math.inf)
    if dt > limit:
        binding = min(bounds, key=bounds.get)
        raise ConfigError(
            f"dt = {dt:g} s exceeds the resolution guard {limit:g} s "
            f"(binding constraint: {binding})"
        )


def propagate(A: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact samples expm(A t_k) y0 of y' = A y, one row per time t_k = k*dt.

    Filled by doubling: once rows [0, m) are known, rows [m, 2m) are those
    rows times expm(A t_m), so N samples cost about log2(N) small expm calls
    and no per-sample Python loop.
    """
    from scipy.linalg import expm   # loaded only by the experiments that propagate

    Y = np.empty((times.size, A.shape[0]), dtype=complex)
    Y[0] = y0
    m = 1
    while m < times.size:
        k = min(m, times.size - m)
        np.matmul(Y[:k], expm(A * times[m]).T, out=Y[m:m + k])
        m += k
    return Y


def evolve_volterra(kernel: MemoryKernel, t_end: float, dt: float) -> TimeSeries:
    """Trapezoidal-history integration of the Volterra equation.

    Crank-Nicolson in time with a trapezoid rule over the full history;
    second order in dt, cost O(N^2).
    """
    _check_dt(kernel, dt)
    N = int(round(t_end / dt))
    times = np.arange(N + 1) * dt
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0

    if not kernel.weights:
        return TimeSeries(times=times, populations=np.ones(N + 1),
                          amplitudes=np.ones(N + 1, dtype=complex))

    Kgrid = kernel(times)
    K0 = Kgrid[0]
    Krev = Kgrid[::-1].copy()    # Krev[N - j] = K(t_j), so each history is a contiguous slice
    f_prev = 0.0 + 0.0j          # dc/dt at t_0 (history integral is empty)
    denom = 1.0 + dt * dt * K0 / 4.0
    for k in range(N):
        # Trapezoid over history for the integral at t_{k+1}, excluding the
        # as-yet-unknown endpoint term (dt/2)*K(0)*c_{k+1}.
        hist = np.dot(Krev[N - k - 1:N], c[: k + 1]) - 0.5 * Kgrid[k + 1] * c[0]
        A = dt * hist
        c_next = (c[k] + 0.5 * dt * f_prev - 0.5 * dt * A) / denom
        c[k + 1] = c_next
        f_prev = -(A + 0.5 * dt * K0 * c_next)

    return TimeSeries(times=times, populations=np.abs(c) ** 2, amplitudes=c,
                      metadata={"solver": "volterra", "dt_s": dt})


def evolve_pseudomode(kernel: MemoryKernel, t_end: float, dt: float) -> TimeSeries:
    """Exact propagation of the equivalent damped-mode linear system.

    y = (c, b_1..b_n): dc/dt = -i sum_n g_n b_n, db_n/dt = -i g_n c + s_n b_n.
    """
    _check_dt(kernel, dt)
    times = np.arange(int(round(t_end / dt)) + 1) * dt
    if not kernel.weights:
        return TimeSeries(times=times, populations=np.ones(times.size),
                          amplitudes=np.ones(times.size, dtype=complex))

    g = np.sqrt(np.array(kernel.weights))
    A = np.diag(np.array((0.0, *kernel.rates), dtype=complex))
    A[0, 1:] = -1j * g
    A[1:, 0] = -1j * g
    y0 = np.zeros(1 + g.size, dtype=complex)
    y0[0] = 1.0
    y = propagate(A, y0, times).T
    c = y[0]
    return TimeSeries(times=times, populations=np.abs(c) ** 2, amplitudes=c,
                      mode_amplitudes=y[1:],
                      metadata={"solver": "pseudomode", "dt_s": dt})


def radius_sweep_dynamics(R_values, mat, H0: float, t_end: float,
                          a_over_R: float = 1.2, n_max: int = 1,
                          dt: float | None = None,
                          dipole_scale: float = 1.0) -> dict[float, TimeSeries]:
    """Resonant decay dynamics per sphere radius, omega0 retuned to the Kittel mode."""
    out: dict[float, TimeSeries] = {}
    fields = state_from_internal(H0, mat)
    for R in R_values:
        if not (10e-9 <= R <= 500e-9):
            raise DomainError(f"R = {R:g} m outside the supported [10, 500] nm range")
        cavity = CavityConfig(R=R, mat=mat, fields=fields, n_max=n_max)
        omega0 = kittel_frequency(fields, mat)
        emitter = EmitterConfig(position=(a_over_R * R, 0.0, 0.0), omega0=omega0,
                                dipole_scale=dipole_scale)
        kernel = build_kernel(emitter, cavity)
        step = dt if dt is not None else max_stable_dt(kernel) / 2.0
        out[R] = evolve_pseudomode(kernel, t_end, step)
    return out


def extract_rabi_frequency(ts: TimeSeries) -> float:
    """Omega = pi/t_min from the first local minimum of the population."""
    p = ts.populations
    for k in range(1, p.size - 1):
        if p[k] < p[k - 1] and p[k] <= p[k + 1]:
            return math.pi / ts.times[k]
    raise NumericalError("no population minimum found; horizon too short?")


def first_revival_time(ts: TimeSeries) -> float:
    """Time of the first local population maximum after the first minimum."""
    p = ts.populations
    k = 1
    while k < p.size - 1 and not (p[k] < p[k - 1] and p[k] <= p[k + 1]):
        k += 1
    while k < p.size - 1 and not (p[k] > p[k - 1] and p[k] >= p[k + 1]):
        k += 1
    if k >= p.size - 1:
        raise NumericalError("no population revival found; horizon too short?")
    return float(ts.times[k])


def fit_decay_rate(ts: TimeSeries, floor: float = 1e-3) -> float:
    """Exponential rate from a linear fit of log population (Markovian regime)."""
    mask = ts.populations > floor
    mask[0] = False  # log(1) anchors the fit too strongly at t = 0
    if mask.sum() < 10:
        raise NumericalError("too few points above the fit floor")
    slope, _ = np.polyfit(ts.times[mask], np.log(ts.populations[mask]), 1)
    return float(-slope)
