"""Non-Markovian decay of a spin emitter into the magnon modes.

Rotating-frame amplitude c(t) (c_tilde, slowly varying at omega0) obeys

    dc/dt = -Int_0^t K(t - t') c(t') dt',
    K(tau) = sum_n |g_n|^2 exp[(i(omega0 - omega_n) - Gamma_n/2) tau],

the closed-contour transform of the Lorentzian spectral density. Two
independent solvers are provided and cross-validated:

  * evolve_volterra   -- Crank-Nicolson discretization of the
                         integro-differential equation with a trapezoid
                         rule over the history. Because K is a sum of
                         exponentials, the history sum is carried by a
                         recursion of one term per mode, so each step is
                         one fixed linear map; O(N * modes). The literal
                         O(N^2) history sum is the test oracle.
  * evolve_pseudomode -- equivalent linear ODE system y' = A y (one damped
                         auxiliary amplitude per Lorentzian), sampled
                         exactly by matrix-exponential propagation,
                         O(N * modes). Production path.

Both solvers and the two-spin transfer fill their samples by the same
doubling (`_fill_by_doubling`): evolve_pseudomode and the transfer through
`propagate`, evolve_volterra from the powers of its step map. All three take
their grid from `_time_grid`, the one home of the step rule, which also
checks the state against the size budget (`constants.check_budget`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ConfigError, DomainError, NumericalError, check_budget
from .modes import CavityConfig, mode_table

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
    Both must be finite: an overflowed mode table is refused here, before any
    time grid is sized from it.
    """

    weights: tuple[float, ...]
    rates: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not (np.all(np.isfinite(self.weights)) and np.all(np.isfinite(self.rates))):
            raise DomainError("kernel weights and rates must be finite; a mode frequency, "
                              "coupling or detuning overflowed")
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
    with np.errstate(invalid="ignore"):     # inf - inf: refused by MemoryKernel
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


def _time_grid(kernel: MemoryKernel, t_end: float, dt: float | None,
               n_samples: int | None, width: int) -> tuple[np.ndarray, float]:
    """Sample times k*dt up to t_end, and dt, for a state of `width` values.

    dt is the given one, else min(guard/2, t_end/n_samples), else guard/2.
    It must pass the resolution guard, and samples x width the size budget,
    before the grid is allocated.
    """
    bounds = _dt_bounds(kernel)
    limit = min(bounds.values(), default=math.inf)
    if dt is None:
        dt = limit / 2.0
        if n_samples is not None:
            dt = min(dt, t_end / n_samples)
    if not 0 < dt < math.inf:
        raise ConfigError("dt must be positive and finite")
    if dt > limit:
        raise ConfigError(f"dt = {dt:g} s exceeds the resolution guard {limit:g} s "
                          f"(binding constraint: {min(bounds, key=bounds.get)})")
    samples = t_end / dt + 1.0
    check_budget(samples * width, f"{samples:.3g} samples x {width} state values")
    return np.arange(int(round(t_end / dt)) + 1) * dt, dt


def _fill_by_doubling(y0: np.ndarray, n: int, powers) -> np.ndarray:
    """Rows y_k = M^k y0 for k < n, where `powers` yields M, M^2, M^4, ...

    Once rows [0, m) are known, rows [m, 2m) are those rows times (M^m)^T,
    so n samples take about log2(n) matrix products and no per-sample loop.
    """
    Y = np.empty((n, len(y0)), dtype=complex)
    Y[0] = y0
    m = 1
    while m < n:
        k = min(m, n - m)
        np.matmul(Y[:k], next(powers).T, out=Y[m:m + k])
        m += k
    return Y


def propagate(A: np.ndarray, y0: np.ndarray, times: np.ndarray) -> np.ndarray:
    """Exact samples expm(A t_k) y0 of y' = A y, one row per time t_k = k*dt.

    Filled by doubling with M = expm(A dt): about log2(N) small expm calls.
    """
    from scipy.linalg import expm   # loaded only by the experiments that propagate

    # Doubling asks for M^m only while m < times.size, so times[m] exists.
    powers = (expm(A * times[1 << i]) for i in itertools.count())
    return _fill_by_doubling(y0, times.size, powers)


def _squares(T: np.ndarray):
    """T, T^2, T^4, ...: each square is formed only when it is asked for."""
    while True:
        yield T
        T = T @ T


def evolve_volterra(kernel: MemoryKernel, t_end: float, dt: float | None = None,
                    n_samples: int | None = None) -> TimeSeries:
    """Trapezoidal-history integration of the Volterra equation.

    Crank-Nicolson in time with a trapezoid rule over the full history;
    second order in dt. With z_m = exp(s_m dt), the history at step k is
    sum_m w_m P_m(k), where P_m(k) = z_m (P_m(k-1) + c_k) and
    P_m(-1) = -c_0/2. So x_k = (c_k, f_k, P(k-1)), with f the derivative,
    advances by one constant (modes + 2)-square map T, and the samples are
    filled by doubling; cost O(N * modes). The step follows `_time_grid`.
    """
    times, dt = _time_grid(kernel, t_end, dt, n_samples, len(kernel.weights) + 2)
    if not kernel.weights:
        return TimeSeries(times=times, populations=np.ones(times.size),
                          amplitudes=np.ones(times.size, dtype=complex))

    z = np.exp(np.array(kernel.rates) * dt)
    wz = np.array(kernel.weights) * z
    K0 = kernel.K0
    denom = 1.0 + dt * dt * K0 / 4.0
    # dt * history = a . x_k; it leaves out the as-yet-unknown endpoint
    # term (dt/2) K(0) c_{k+1}.
    a = dt * np.concatenate(([wz.sum(), 0.0], wz))
    T = np.zeros((a.size, a.size), dtype=complex)
    T[0, :2] = 1.0, 0.5 * dt                 # c_{k+1}
    T[0] = (T[0] - 0.5 * dt * a) / denom
    T[1] = -(a + 0.5 * dt * K0 * T[0])       # f_{k+1}
    T[2:, 0] = z                             # P(k) = z (P(k-1) + c_k)
    T[2:, 2:] = np.diag(z)
    x0 = np.full(a.size, -0.5, dtype=complex)
    x0[:2] = 1.0, 0.0
    # A copy, so the series keeps c and not the whole (N + 1, modes + 2) state.
    c = _fill_by_doubling(x0, times.size, _squares(T))[:, 0].copy()

    return TimeSeries(times=times, populations=np.abs(c) ** 2, amplitudes=c,
                      metadata={"solver": "volterra", "dt_s": dt})


def evolve_pseudomode(kernel: MemoryKernel, t_end: float, dt: float | None = None,
                      n_samples: int | None = None) -> TimeSeries:
    """Exact propagation of the equivalent damped-mode linear system.

    y = (c, b_1..b_n): dc/dt = -i sum_n g_n b_n, db_n/dt = -i g_n c + s_n b_n.
    The step follows `_time_grid`.
    """
    times, dt = _time_grid(kernel, t_end, dt, n_samples, len(kernel.weights) + 1)
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
