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
propagated exactly (matrix exponential) in (beta, b, I = Int b dt), of which
only b and I are sampled, and each spin follows from
c_j(t) = c_j(0) - i g_j I(t). beta and b obey lambda^2 - s lambda + G^2 = 0,
s = i Delta - Gamma/2 and G^2 = g1^2 + g2^2, whose slow root gives the swap
and its time before anything propagates. `transfer_populations` returns the
populations as `dynamics.Samples`, computed a block at a time as they are
read. In the dispersive window |Delta| >> g the magnon mediates an effective
spin-spin coupling g_eff ~ g^2/Delta; the vacuum dipole-dipole baseline at
separation d is g_dip/(2pi) = mu0*muB^2/(hbar*(2pi)^2*d^3).
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np

from .constants import CONSTANTS, DomainError, NumericalError, TWO_PI, check_budget
from .dynamics import (MemoryKernel, POPULATION_TOL, Samples, _abs_square, _doubling_powers,
                       _propagator, _time_step)
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


def _check_total(P1: np.ndarray, P2: np.ndarray, Pb: np.ndarray) -> tuple[np.ndarray, ...]:
    """(P1, P2, Pb), refused if their total exceeds 1 beyond POPULATION_TOL."""
    if np.any(P1 + P2 + Pb > 1.0 + POPULATION_TOL):
        raise NumericalError("total single-excitation population exceeded 1")
    return P1, P2, Pb


def transfer_populations(cavity: CavityConfig, positions, Delta: float, t_end: float,
                         dt: float | None = None, n_samples: int | None = None,
                         dipole_scale=1.0,
                         initial_state: tuple[complex, complex, complex] = (1.0, 0.0, 0.0)
                         ) -> tuple[dict[str, Samples], float, float, dict]:
    """Single-excitation transfer from emitter 1 to emitter 2 via the Kittel
    mode: the populations {"P1", "P2", "Pb"} as `Samples` at the times
    k * dt, the swap frequency, the fidelity and the metadata
    {g, g2, Delta, Gamma, dt_s, average_fidelity}.

    positions (2, 3) in m, Delta = omega0 - omega_K in rad/s, dipole_scale
    one factor or one per emitter. The swap, its time t* and both fidelities
    come from the generator's slow root (`_swap`) before anything is
    propagated; a horizon that ends before t* is refused. A block of the
    populations is then computed as it is read, once for all three columns,
    and refused if their total exceeds 1 beyond POPULATION_TOL. Any range
    has the bits of the same range of the whole read `[:]`.
    """
    if np.shape(positions) != (2, 3):
        raise DomainError(f"positions must have shape (2, 3), got {np.shape(positions)}")
    scale = np.broadcast_to(np.asarray(dipole_scale, dtype=float), (2,))
    table = mode_table(cavity, positions, scale[:, None])
    g1, g2 = np.abs(table.g[:, 0])

    # A higher mode within 10x the Kittel detuning breaks the single-mode picture.
    det = np.abs(table.omega[0] + Delta - table.omega[1:])
    if np.any(det < 10.0 * abs(Delta)):
        k = int(np.argmin(det))
        warnings.warn(f"mode n = {table.n[k + 1]} detuned by only {det[k]:g} rad/s "
                      f"(< 10x the Kittel detuning {abs(Delta):g}); "
                      "single-mode approximation may be inaccurate", stacklevel=2)

    Gamma = table.Gamma[0]
    s = 1j * Delta - Gamma / 2.0
    # Same step rule, guard and budget as the single-emitter solvers; the
    # state is (beta, b, I).
    n, dt = _time_step(MemoryKernel(weights=(g1 * g1, g2 * g2), rates=(s,) * 2),
                       t_end, dt, n_samples, 3)
    y0 = np.array(initial_state, dtype=complex)
    norm = np.sum(np.abs(y0) ** 2)
    if abs(norm - 1.0) > POPULATION_TOL:
        raise DomainError("initial state must be normalized in the single-excitation sector")
    # (beta, b, I): dbeta/dt = -i (g1^2 + g2^2) b, db/dt = -i beta + s b,
    # dI/dt = b. Unlike expm of the (c1, c2, b) matrix, which is not bitwise
    # permutation-equivariant, this form makes a label swap exactly symmetric.
    A = np.array([[0.0, -1j * (g1 * g1 + g2 * g2), 0.0],
                  [-1j, s, 0.0],
                  [0.0, 1.0, 0.0]])
    x0 = [g1 * y0[0] + g2 * y0[1], y0[2], 0.0]
    # Track the population of whichever emitter starts empty.
    target = (y0[1], g2) if abs(y0[0]) >= abs(y0[1]) else (y0[0], g1)
    swap, fidelity, average = _swap(A, x0, target, g1, g2, (n - 1) * dt)
    read = _propagator(A, x0, n, dt, (1, 2))

    # One sampler read gives a block of all three columns. Each column is
    # handed out once and then dropped, so none outlives its encoding.
    unread: dict[tuple[int, int, int], np.ndarray] = {}

    def population(k: int, i: int, j: int) -> np.ndarray:
        if (k, i, j) not in unread:
            b, I = read(i, j)
            unread.clear()
            unread.update(((c, i, j), p) for c, p in enumerate(_check_total(
                _spin_population(y0[0], g1, I), _spin_population(y0[1], g2, I), _abs_square(b))))
        return unread.pop((k, i, j))

    columns = {name: Samples(n, functools.partial(population, k))
               for k, name in enumerate(("P1", "P2", "Pb"))}
    return columns, swap, fidelity, {"g": g1, "g2": g2, "Delta": Delta, "Gamma": Gamma,
                                     "dt_s": dt, "average_fidelity": average}


def _swap(A: np.ndarray, x0, target: tuple[complex, float], g1: float, g2: float,
          horizon: float) -> tuple[float, float, float]:
    """(swap frequency, fidelity, average fidelity) of the (beta, b, I)
    generator A, whose bright block has the characteristic polynomial
    lambda^2 - s lambda + G^2, s = A[1, 1] and G^2 = g1^2 + g2^2.

    The slow root lambda_s, of the two the one with the smaller |Im|, gives
    the swap frequency |Im lambda_s|/2 and the swap time t* = pi/|Im lambda_s|.
    The fidelity is |c0 - i g I(t*)|^2 for the target (c0, g) and the start
    x0; the average fidelity is 1/2 + |f|/3 + |f|^2/6 with f = c2(t*) from
    c(0) = (1, 0, 0) (Bose, Phys. Rev. Lett. 91, 207901 (2003)). Both come
    from one expm(A t*). With g1 g2 = 0 nothing swaps: (nan, 0, 1/2).
    """
    if g1 * g2 == 0:
        return math.nan, 0.0, 0.5
    s, G = complex(A[1, 1]), math.hypot(g1, g2)
    # The roots, scaled by m so that no square overflows: the larger one
    # without cancellation, the other from the product of the two, G^2.
    m = max(abs(s), G)
    q = m * ((s / m) ** 2 / 4.0 - (G / m) ** 2) ** 0.5
    fast = s / 2.0 + (q if (s.conjugate() * q).real >= 0 else -q)
    rate = min(abs(fast.imag), abs((G * (G / fast)).imag))
    if rate == 0:
        raise NumericalError(f"the bright mode is overdamped (Gamma >= 4 sqrt(g1^2 + g2^2) "
                             f"= {4.0 * G:g} rad/s at Delta = 0): the spins never swap")
    t_star = math.pi / rate
    if horizon < t_star:
        raise NumericalError(f"the horizon {horizon:g} s ends before the first swap at "
                             f"t* = {t_star:.6g} s; extend t_end")
    to_I = next(_doubling_powers(A * t_star, 1))[2]      # I(t*) = to_I @ x(0)
    c0, g = target
    f = float(g1 * g2 * abs(to_I[0]))
    return rate / 2.0, float(abs(c0 - 1j * g * (to_I @ x0)) ** 2), 0.5 + f / 3.0 + f * f / 6.0


def _spin_population(c0: complex, g: float, I: np.ndarray) -> np.ndarray:
    """|c0 - i g I|^2, built in place by the operations of that expression, in its order."""
    P = np.multiply(1j * g, I)
    np.subtract(c0, P, out=P)
    P = np.abs(P)
    return np.square(P, out=P)
