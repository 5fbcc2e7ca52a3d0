"""Non-Markovian decay of a spin emitter into the magnon modes.

Rotating-frame amplitude c(t) (c_tilde, slowly varying at omega0) obeys

    dc/dt = -Int_0^t K(t - t') c(t') dt',
    K(tau) = sum_n |g_n|^2 exp[(i(omega0 - omega_n) - Gamma_n/2) tau],

the closed-contour transform of the Lorentzian spectral density.
`decay_populations` samples |c|^2 by either of two independent solvers,
cross-validated against each other:

  * "volterra"   -- Crank-Nicolson discretization of the
                    integro-differential equation with a trapezoid rule over
                    the history, carried by a recursion of one term per mode;
                    O(N * modes). The literal O(N^2) history sum is the test
                    oracle.
  * "pseudomode" -- the equivalent linear ODE system y' = A y (one damped
                    auxiliary amplitude per Lorentzian), sampled exactly by
                    matrix-exponential propagation, O(N * modes). The default.

The matrix exponential is this module's own numpy scaling and squaring with
[13/13] Pade values (`_doubling_powers`), fitted to the powers
expm(A dt 2^i) the doubling fill asks for; nothing here imports scipy. A
small generator's Pade values, one per unsquared power and one base for the
squared ones, come from one stacked evaluation, bit for bit those of one
evaluation each; a wide generator's come one matrix at a time.

Both solvers and the two-spin transfer sample only the components they read
(c for decay; b and Int b for the transfer) by the same two-level doubling
(`_row_sampler`): the pseudo-mode decay and the transfer through
`_propagator`, the Volterra decay from the powers of its step map. A state
of w values over N samples so costs O(N w) and keeps O(sqrt(N) w), not
O(N w^2) and N x w. The sampler gives any range of samples on demand:
`decay_populations` and `network.transfer_populations` return `Samples`,
which a caller reads a block at a time, or whole with `[:]`: the decay's
block is one column, the transfer's the tuple of its three. All take their
step from `_time_step`, the one home of the step rule, which also checks
samples x state width against the size budget (`constants.check_budget`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .constants import ConfigError, DomainError, NumericalError, check_budget
from .modes import CavityConfig, mode_table

POPULATION_TOL = 1e-9
# Samples per tile of the sampler's reads (`_row_sampler`): every range, the
# whole read included, is cut from products of T = max(2, 4096/B) rows of B
# samples: 4096 samples up to B = 2048, and 2B above. check_budget keeps B
# at most 4096, so a CSV block (`_text.WRITE_CHUNK`) is one or two tiles.
_TILE_SAMPLES = 4096


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


def _check_populations(p: np.ndarray) -> np.ndarray:
    """p, refused if it leaves [0, 1] beyond POPULATION_TOL."""
    if (p < -POPULATION_TOL).any() or (p > 1.0 + POPULATION_TOL).any():
        raise NumericalError("populations left [0, 1] beyond tolerance")
    return p


class Samples:
    """Samples k < n of a series, computed by `block(i, j)` for i <= k < j.

    `len()` and `[i:j]` read like an array's, negative and open bounds
    included, so a writer can take the series a block at a time without
    ever holding all of it; `[:]` is the whole series. A block is an array,
    or a tuple of arrays, one per column, that one computation gives."""

    def __init__(self, n: int, block):
        self.n, self.block = n, block

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, key: slice) -> np.ndarray:
        if not isinstance(key, slice):
            raise TypeError(f"Samples are read in slices, not with {type(key).__name__} keys")
        i, j, step = key.indices(self.n)
        if step != 1:
            raise ValueError(f"Samples are read in slices of step 1, not {step}")
        return self.block(i, max(i, j))


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


def _time_step(kernel: MemoryKernel, t_end: float, dt: float | None,
               n_samples: int | None, width: int) -> tuple[int, float]:
    """The number n of sample times k*dt up to t_end, and dt, for a state of
    `width` values.

    dt is the given one, else min(guard/2, t_end/n_samples), else guard/2.
    It must pass the resolution guard, and samples x width the size budget.
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
    return int(round(t_end / dt)) + 1, dt


def sample_times(n: int, dt: float, unit: float) -> Samples:
    """The sample times k * dt, k < n, in units of `unit` s, a block at a time."""
    return Samples(n, lambda i, j: np.arange(i, j, dtype=float) * dt / unit)


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


def _row_sampler(y0, n: int, powers, rows):
    """read(i, j): components `rows` of y_k = M^k y0 for i <= k < j, as a
    (len(rows), j - i) array, where k < n and `powers` yields M, M^2, M^4, ...

    With k = h B + l, B = 2^ceil(c/2) and c = ceil(log2 n) powers in all,
    y_k[r] = (e_r^T M^(hB)) (M^l y0). One fill gives the B states M^l y0
    from the first powers; a second gives the H = ceil(n/B) rows
    e_r^T M^(hB) from the rest, transposed. Only these are kept, O(sqrt(n) w)
    values for a w-value state. A read is cut from fixed tiles: per
    component, the product (T, w) @ (w, B) of T = max(2, _TILE_SAMPLES/B)
    rows h, aligned to multiples of T, with the states. So every read takes
    each sample from the same product, and any range has the bits of the
    whole read at any w; a read computes every tile it touches, so n
    samples read in ranges aligned to the tiles cost O(n w); and each
    component is computed the same way whatever other rows are asked for.
    """
    count = (n - 1).bit_length()
    B = 1 << (count + 1) // 2
    H = -(-n // B)
    states = _fill_by_doubling(y0, B, powers)
    later = list(itertools.islice(powers, (H - 1).bit_length()))
    lefts = []
    for r in rows:
        e_r = np.zeros(len(y0), dtype=complex)
        e_r[r] = 1.0
        lefts.append(_fill_by_doubling(e_r, H, (M.T for M in later)))
    lefts = np.stack(lefts)
    del later
    T = max(2, _TILE_SAMPLES // B)
    span = T * B

    def read(i: int, j: int) -> np.ndarray:
        t0, t1 = i // span, max(i // span + 1, -(-j // span))
        out = np.empty((len(lefts), max(0, min(t1 * T, H) - t0 * T), B), dtype=complex)
        for t in range(t0, t1):
            np.matmul(lefts[:, t * T:(t + 1) * T], states.T,
                      out=out[:, (t - t0) * T:(t - t0 + 1) * T])
        return out.reshape(len(lefts), -1)[:, i - t0 * span:j - t0 * span]

    return read


def _propagator(A: np.ndarray, y0, n: int, dt: float, rows):
    """The `_row_sampler` of the components `rows` of expm(A k dt) y0, k < n.

    It asks for M^(2^i) = expm(A dt 2^i), from `_doubling_powers`, only
    while 2^i < n: ceil(log2 n) powers, none for a single sample.
    """
    count = (n - 1).bit_length()
    powers = _doubling_powers(A * dt, count) if count else iter(())
    return _row_sampler(y0, n, powers, rows)


def _squares(T: np.ndarray):
    """T, T^2, T^4, ...: each square is formed only when it is asked for."""
    while True:
        yield T
        T = T @ T


# The [13/13] Pade coefficients of exp, and theta_13: at a scaled argument
# below it the Pade value's relative backward error is at most 2^-53
# (Higham, SIAM J. Matrix Anal. Appl. 26, 1179 (2005), Table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
           33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
# Values per array of one stacked `_pade13` call (64 KiB of complex128). Up
# to w = 15 the at most 17 Pade values of a 100 001-sample propagation share
# one call, where about 20 numpy operations per value cost more than their
# arithmetic. From w = 46 up (w^2 > half this) each matrix is its own call,
# so the Pade temporaries of a wide generator stay those of one matrix.
# Stacks of 1 MiB per array ran 5-17 % slower than one call per matrix at
# w = 51-181 (2-vCPU Xeon, 2 MiB L2 per core); at 64 KiB, within 1 %.
_PADE_CHUNK_VALUES = 1 << 12


def _pade13(B: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant of exp at B, or at each matrix of a stack
    B of shape (m, n, n).

    r = (V - U)^-1 (V + U) with U odd and V even in B. Each matrix of a
    stack gets the same operations as alone, bit for bit. The powers and U
    are freed before the solve, so about five arrays of B's shape besides B
    are alive at the peak: per chunk of `_PADE_CHUNK_VALUES` values at most,
    as `_doubling_powers` stacks them.
    """
    b = _PADE13
    B2 = B @ B
    B4 = B2 @ B2
    B6 = B2 @ B4
    U = B6 @ (b[13] * B6 + b[11] * B4 + b[9] * B2) + b[7] * B6 + b[5] * B4 + b[3] * B2
    V = B6 @ (b[12] * B6 + b[10] * B4 + b[8] * B2) + b[6] * B6 + b[4] * B4 + b[2] * B2
    del B2, B4, B6
    d = np.arange(B.shape[-1])
    U[..., d, d] += b[1]
    V[..., d, d] += b[0]
    U = B @ U
    P = V + U
    V -= U
    del U
    return np.linalg.solve(V, P)


def _squarings(B: np.ndarray) -> int:
    """s = ceil(log2(eta/theta_13)): expm(2^i B) needs max(0, s + i) squarings.

    eta = max(||B^8||^(1/8), ||B^10||^(1/10)) in the 1-norm (Al-Mohy & Higham,
    SIAM J. Matrix Anal. Appl. 31, 970 (2009)). The powers are taken of
    B/||B||, whose powers have norms <= 1 and cannot overflow; ||B|| and eta
    are raised to the smallest normal float, so that neither the division nor
    log2 fails. A nilpotent B (eta = 0) so gets s near log2(||B||) - 1024.
    """
    tiny = np.finfo(float).tiny
    scale = max(np.abs(B).sum(axis=0).max(), tiny)
    C2 = np.linalg.matrix_power(B / scale, 2)
    C8 = np.linalg.matrix_power(C2, 4)
    eta = max(np.abs(C8).sum(axis=0).max() ** (1 / 8),
              np.abs(C8 @ C2).sum(axis=0).max() ** (1 / 10), tiny)
    return math.ceil(math.log2(scale) + math.log2(eta) - math.log2(_THETA13))


def _doubling_powers(B: np.ndarray, count: int):
    """expm(2^i B) for i < count, by scaling and squaring from one norm estimate.

    Power i needs max(0, s + i) squarings, s = `_squarings(B)`. The powers
    that need none are Pade values of their own. The others are the Pade
    value of 2^-s B squared s + i times, each the square of the one before:
    a separate scaling and squaring per power, since 2^i B is exact.
    Squaring a smaller power instead would double its rounding error at
    every step. All the Pade values, the unsquared powers and the base
    2^-s B, come in order from stacked `_pade13` calls of at most
    `_PADE_CHUNK_VALUES` values per array: one call for a small B, one call
    per value for a wide one. Each power is yielded as it is asked for, and
    a chunk is computed only when its first value is.
    """
    s = _squarings(B)
    n_pade = min(count, max(0, -s))
    exponents = np.arange(n_pade + (n_pade < count))
    exponents[n_pade:] = -s
    values = _pade_values(B, np.ldexp(1.0, exponents))
    yield from itertools.islice(values, n_pade)
    if n_pade < count:
        # The base is the last value: unpacking it ends `values`, so that
        # only the squaring chain holds it.
        yield from itertools.islice(_squares(*values), max(0, s), s + count)


def _pade_values(B: np.ndarray, scales: np.ndarray):
    """The Pade values of scale * B for each of `scales`, in order, a chunk
    of `_PADE_CHUNK_VALUES` values per stacked `_pade13` call."""
    size = max(1, _PADE_CHUNK_VALUES // B.size)
    for k in range(0, scales.size, size):
        yield from _pade13(B * scales[k:k + size, None, None])


def decay_populations(kernel: MemoryKernel, t_end: float, dt: float | None = None,
                      n_samples: int | None = None,
                      solver: str = "pseudomode") -> tuple[Samples, float]:
    """The populations |c(t_k)|^2 at t_k = k dt as `Samples`, and dt.

    `solver` "pseudomode" propagates y = (c, b_1..b_n) exactly:
    dc/dt = -i sum_n g_n b_n, db_n/dt = -i g_n c + s_n b_n, with g_n^2 and
    s_n the kernel's weights and rates. "volterra" integrates the memory
    equation by `_decay_sampler`'s recursion. The step follows `_time_step`.

    Each block is computed as it is read and refused if it leaves [0, 1]
    beyond POPULATION_TOL. Any range has the bits of the same range of the
    whole read `[:]`, since both are cut from the sampler's fixed tiles."""
    read, n, dt = _decay_sampler(kernel, t_end, dt, n_samples, solver)
    return Samples(n, lambda i, j: _check_populations(_abs_square(read(i, j)[0]))), dt


def _abs_square(c: np.ndarray) -> np.ndarray:
    p = np.abs(c)
    return np.square(p, out=p)


def _decay_sampler(kernel: MemoryKernel, t_end: float, dt: float | None,
                   n_samples: int | None, solver: str) -> tuple:
    """(read, n, dt): the sampler read(i, j) of c by `solver`, "pseudomode"
    or "volterra", over the n sample times k*dt of `_time_step`.

    "volterra" is Crank-Nicolson in time with a trapezoid rule over the
    full history, second order in dt. With z_m = exp(s_m dt), the history
    at step k is sum_m w_m P_m(k), where P_m(k) = z_m (P_m(k-1) + c_k) and
    P_m(-1) = -c_0/2. So x_k = (c_k, f_k, P(k-1)), with f the derivative,
    advances by one constant (modes + 2)-square map T, and c is sampled
    from its powers by `_row_sampler`; cost O(N * modes).
    """
    if solver not in ("pseudomode", "volterra"):
        raise ConfigError(f"unknown solver {solver!r}")
    w = len(kernel.weights)
    n, dt = _time_step(kernel, t_end, dt, n_samples, w + 1 + (solver == "volterra"))
    if not w:
        return (lambda i, j: np.ones((1, j - i), dtype=complex)), n, dt
    if solver == "pseudomode":
        y0 = np.zeros(1 + w, dtype=complex)
        y0[0] = 1.0
        return _propagator(_pseudomode_matrix(kernel), y0, n, dt, (0,)), n, dt

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
    return _row_sampler(x0, n, _squares(T), (0,)), n, dt


def _pseudomode_matrix(kernel: MemoryKernel) -> np.ndarray:
    """The generator A of y = (c, b_1..b_n) in the pseudo-mode decay's y' = A y."""
    g = np.sqrt(np.array(kernel.weights))
    A = np.diag(np.array((0.0, *kernel.rates), dtype=complex))
    A[0, 1:] = -1j * g
    A[1:, 0] = -1j * g
    return A
