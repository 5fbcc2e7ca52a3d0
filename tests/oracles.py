"""Reference physics and independent numerical oracles used by the test suite.

The package has only the closed forms of magnoncavity.modes. The objects
they come from live here: the (n, n) potentials, fields and frequencies,
and the gyrotropic susceptibility about a static internal field H0 e_z,

    chi   = wH*wM / (wH^2 - w^2 - i*Gamma*w)        (diagonal, xx = yy)
    kappa = w*wM  / (wH^2 - w^2 - i*Gamma*w)        (off-diagonal)

with wH = gamma*mu0*H0 and wM = gamma*mu0*Ms, assembled as

    chi_xx = chi_yy = chi,  chi_xy = +i*kappa,  chi_yx = -i*kappa,  chi_zz = 0.

Circular eigenvectors e(+-) = (e_x +- i e_y)/sqrt(2) diagonalize the tensor:
(I + chi)·e(-) = (1 + chi + kappa) e(-), which carries the resonance at
w = wH for the bulk and selects the rotation sense of the magnon modes.

The oracles avoid the closed forms: the normalization integral is evaluated
by Gauss-Legendre quadrature with a finite-difference tensor derivative, and
gradients of the scalar potential are taken by central differences. The
Volterra oracle sums the trapezoid history literally at every step, the
Lorentzian oracle builds the spectral density's terms as one broadcast, the
doubling-power oracle takes one Pade value per power, the extremum
oracles are the loops that `local_extrema` replaced, and the eigenvalue
swap oracle takes `np.linalg.eigvals` and a scipy expm of the plain
(c1, c2, b) generator, where `dynamics._swap` solves the bright block's
quadratic. The smoothed swap oracle reads the swap from the first peak of
the boxcar-smoothed series instead, which is unbiased only without loss
and far from resonance.

The memory kernel's values K(tau), which only the Volterra oracle and the
kernel tests evaluate, and `field_to_tesla` (H to mu0*H), which only the
unit tests call, live here too, as do the extractors that only tests
read, on whole arrays: the resolution guard `max_stable_dt`,
`local_extrema` and the Rabi, revival, decay-rate and ripple extractors
built on it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from magnoncavity import CavityConfig, DomainError, MaterialParams, NumericalError, decay_populations
from magnoncavity.constants import HBAR, MU0
from magnoncavity.dynamics import _pade13, _squarings, _squares, sample_times
from magnoncavity.material import StaticFieldState

# Surface shell this thin (relative to R) is evaluated as exterior.
BOUNDARY_TOL = 1e-12

_SQRT2 = math.sqrt(2.0)


# Circular unit vectors e(+-) = (e_x +- i e_y)/sqrt(2).
E_PLUS = np.array([1.0 / _SQRT2, 1j / _SQRT2, 0.0], dtype=complex)
E_MINUS = np.array([1.0 / _SQRT2, -1j / _SQRT2, 0.0], dtype=complex)


def field_to_tesla(H: float) -> float:
    """Convert a field H (A/m) into the induction mu0*H (T)."""
    if not math.isfinite(H):
        raise DomainError(f"non-finite field: {H!r}")
    return H * MU0


def cavity_volume(cavity: CavityConfig) -> float:
    """Sphere volume 4 pi R^3 / 3."""
    return 4.0 * math.pi * cavity.R**3 / 3.0


def mode_frequency(n: int, fields: StaticFieldState, mat: MaterialParams) -> float:
    """omega_n = gamma*mu0*(H0 + Ms*n/(2n+1)) on the (n, n) branch."""
    if n < 1:
        raise DomainError(f"mode order n must be >= 1, got {n}")
    return mat.gamma_tilde * (fields.H0 + mat.Ms * n / (2.0 * n + 1.0))


def mode_potential(n: int, r, R: float):
    """Unnormalized scalar potential of the (n, n) mode at points r (..., 3)."""
    if n < 1:
        raise DomainError(f"mode order n must be >= 1, got {n}")
    r = np.asarray(r, dtype=float)
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    w = x - 1j * y
    rad = np.sqrt(x * x + y * y + z * z)
    exterior = rad >= R * (1.0 - BOUNDARY_TOL)
    phi = np.where(exterior, (R / np.where(exterior, rad, R)) ** (2 * n + 1) * w**n, w**n)
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

    # Exterior: -grad((R/r)^(2n+1) w^n); R/r <= 1 keeps the radial factor finite.
    re = rad[exterior]
    we = w[exterior]
    pref = (R / re) ** (2 * n + 1)
    wn1 = we ** (n - 1)
    wn = we**n
    radial = (2 * n + 1) * wn / (re * re)
    H[..., 0][exterior] = pref * (-n * wn1 + radial * x[exterior])
    H[..., 1][exterior] = pref * (1j * n * wn1 + radial * y[exterior])
    H[..., 2][exterior] = pref * (radial * z[exterior])
    return H


@dataclass(frozen=True)
class SusceptibilityTensor:
    chi: complex
    kappa: complex

    @property
    def tensor(self) -> np.ndarray:
        """Assembled 3x3 complex tensor."""
        c, k = self.chi, self.kappa
        return np.array(
            [
                [c, 1j * k, 0.0],
                [-1j * k, c, 0.0],
                [0.0, 0.0, 0.0],
            ],
            dtype=complex,
        )


def susceptibility(omega: float, H0: float, mat: MaterialParams) -> SusceptibilityTensor:
    """chi and kappa at angular frequency omega for internal field H0."""
    if H0 <= 0:
        raise DomainError("H0 must be positive")
    wH = mat.gamma_tilde * H0
    wM = mat.gamma_tilde * mat.Ms
    Gamma = mat.damping_rate(H0)
    den = wH * wH - omega * omega - 1j * Gamma * omega
    if den == 0:
        raise NumericalSingularity(omega, wH)
    chi = wH * wM / den
    kappa = omega * wM / den
    return SusceptibilityTensor(chi=chi, kappa=kappa)


class NumericalSingularity(DomainError):
    """Susceptibility evaluated exactly at the undamped resonance pole."""

    def __init__(self, omega: float, wH: float) -> None:
        super().__init__(
            f"susceptibility pole: omega = {omega:g} rad/s hits the undamped "
            f"resonance gamma*mu0*H0 = {wH:g} rad/s with Gamma = 0"
        )


def fd_energy_tensor_derivative(omega: float, H0: float, mat: MaterialParams,
                                delta_rel: float = 1e-6) -> np.ndarray:
    """d/domega [omega (I + chi(omega))] by central differences, Gamma = 0."""
    lossless = MaterialParams(Ms=mat.Ms, gamma=mat.gamma, Gamma=0.0)
    d = delta_rel * omega

    def T(w):
        return w * (np.eye(3, dtype=complex) + susceptibility(w, H0, lossless).tensor)

    return (T(omega + d) - T(omega - d)) / (2.0 * d)


def quantization_integral(n: int, cavity, n_rad: int = 80, n_theta: int = 80) -> float:
    """Quadrature of Int mu0 h* . d(omega[I+chi])/domega . h d^3r for the shape field.

    Interior uses the finite-difference tensor derivative; exterior uses the
    identity tensor with the radial integral mapped to u = R/r in (0, 1].
    The integrand magnitude is azimuthally invariant, so phi integrates to 2*pi.
    """
    R = cavity.R
    omega = mode_frequency(n, cavity.fields, cavity.mat)
    dT = fd_energy_tensor_derivative(omega, cavity.fields.H0, cavity.mat)

    xr, wr = np.polynomial.legendre.leggauss(n_rad)
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    theta = 0.5 * np.pi * (xt + 1.0)
    wtheta = 0.5 * np.pi * wt

    def density(points, tensor):
        h = mode_field(n, points, cavity)
        return np.real(np.einsum("...i,ij,...j->...", h.conj(), tensor, h))

    def shell_value(r_abs, tensor):
        pts = np.stack([r_abs[:, None] * np.sin(theta)[None, :],
                        np.zeros((r_abs.size, theta.size)),
                        r_abs[:, None] * np.cos(theta)[None, :]], axis=-1)
        dens = density(pts, tensor)
        return dens @ (wtheta * np.sin(theta))

    # Interior: r in (0, R).
    r_in = 0.5 * R * (xr + 1.0)
    w_in = 0.5 * R * wr
    inner = shell_value(r_in, dT) * r_in**2 @ w_in

    # Exterior: substitute u = R/r, dr = -(R/u^2) du, u in (0, 1).
    u = 0.5 * (xr + 1.0)
    wu = 0.5 * wr
    r_out = R / u
    outer = (shell_value(r_out, np.eye(3, dtype=complex)) * r_out**2 * (R / u**2)) @ wu

    return float(2.0 * np.pi * MU0 * (inner + outer))


def quantized_mode_oracle(n: int, cavity) -> dict:
    """Zero-point amplitude and effective volume from the quadrature route."""
    omega = mode_frequency(n, cavity.fields, cavity.mat)
    integral = quantization_integral(n, cavity)
    scale = np.sqrt(HBAR * omega / integral)
    Hzp = scale * np.sqrt(2.0) * n * cavity.R ** (n - 1)
    Veff = HBAR * omega / (MU0 * Hzp**2)
    return {"scale": scale, "Hzp": Hzp, "Veff": Veff}


def fd_gradient_of_potential(n: int, r, R: float, h_rel: float = 1e-6) -> np.ndarray:
    """-grad(phi) by second-order central differences (field oracle)."""
    r = np.asarray(r, dtype=float)
    h = h_rel * np.linalg.norm(r)
    grad = np.zeros(3, dtype=complex)
    for k in range(3):
        dr = np.zeros(3)
        dr[k] = h
        grad[k] = (mode_potential(n, r + dr, R) - mode_potential(n, r - dr, R)) / (2.0 * h)
    return -grad


def fd_curl_and_divergence(field_fn, r, h: float) -> tuple[np.ndarray, complex]:
    """Central-difference curl and divergence of a complex vector field."""
    J = np.zeros((3, 3), dtype=complex)  # J[i, j] = d field_i / d x_j
    for j in range(3):
        dr = np.zeros(3)
        dr[j] = h
        J[:, j] = (field_fn(r + dr) - field_fn(r - dr)) / (2.0 * h)
    curl = np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])
    return curl, np.trace(J)


def lorentzian_terms_oracle(omega, omega_n, weight_n, Gamma_n) -> np.ndarray:
    """The (omega, n) broadcast of the spectral density's terms

        weight_n (Gamma_n/2pi) / ((omega - omega_n)^2 + (Gamma_n/2)^2),

    rounded as spectral._lorentzian_sum rounds each; J is their sum over n."""
    om = np.asarray(omega, dtype=float)[..., None]
    lor = (Gamma_n / (2.0 * math.pi)) / ((om - omega_n) ** 2 + (Gamma_n / 2.0) ** 2)
    return weight_n * lor


def kernel_values(kernel, tau) -> np.ndarray:
    """K(tau) = sum_k weights[k] * exp(rates[k] * tau) of a MemoryKernel, at each tau."""
    tau = np.asarray(tau, dtype=float)
    if not kernel.weights:
        return np.zeros(tau.shape, dtype=complex)
    w = np.array(kernel.weights)
    s = np.array(kernel.rates)
    return np.sum(w * np.exp(s * tau[..., None]), axis=-1)


def volterra_history_oracle(kernel, t_end: float, dt: float) -> np.ndarray:
    """Amplitudes c_k of the trapezoidal-history Volterra scheme, summed literally.

    Crank-Nicolson in time with the trapezoid history rebuilt at every step
    from the kernel samples: O(N^2), the reference for the Volterra
    solver's recursion.
    """
    N = int(round(t_end / dt))
    times = np.arange(N + 1) * dt
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0

    Kgrid = kernel_values(kernel, times)
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
    return c


def doubling_powers_oracle(B, count: int):
    """expm(2^i B) for i < count as `dynamics._doubling_powers` yields them,
    with a `_pade13` call of its own for each Pade value: each unsquared
    power, then the base 2^-s B of the squared ones."""
    s = _squarings(B)
    n_pade = min(count, max(0, -s))
    yield from (_pade13(B * 2.0**i) for i in range(n_pade))
    if n_pade < count:
        yield from itertools.islice(_squares(_pade13(B * 2.0**-s)), max(0, s), s + count)


def max_stable_dt(kernel) -> float:
    """Resolution guard: dt must not exceed min(2pi/max|detuning|, 1/Gamma, 1/(10 g_max))/10,
    each term where its scale is positive; inf without one."""
    if not kernel.weights:
        return math.inf
    det = max(abs(s.imag) for s in kernel.rates)
    Gamma = max(-2.0 * s.real for s in kernel.rates)
    gmax = math.sqrt(max(kernel.weights))
    return min(2.0 * math.pi / det / 10.0 if det > 0 else math.inf,
               1.0 / Gamma / 10.0 if Gamma > 0 else math.inf,
               1.0 / (10.0 * gmax) / 10.0 if gmax > 0 else math.inf)


def decay_series(kernel, t_end: float, dt: float | None = None, n_samples: int | None = None,
                 solver: str = "pseudomode") -> tuple[np.ndarray, np.ndarray]:
    """(times k * dt, populations) of `decay_populations`, read whole with `[:]`."""
    populations, dt = decay_populations(kernel, t_end, dt, n_samples, solver)
    return sample_times(len(populations), dt, 1.0)[:], populations[:]


def local_extrema(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the interior local minima and maxima of p, each ascending.

    k is a minimum where p[k] < p[k-1] and p[k] <= p[k+1], and a maximum
    where p[k] > p[k-1] and p[k] >= p[k+1]; a NaN at or beside k rules it out.
    """
    mid, left, right = p[1:-1], p[:-2], p[2:]
    minima = np.flatnonzero((mid < left) & (mid <= right)) + 1
    maxima = np.flatnonzero((mid > left) & (mid >= right)) + 1
    return minima, maxima


def extract_rabi_frequency(times: np.ndarray, p: np.ndarray) -> float:
    """Omega = pi/t_min from the first local minimum of the population p."""
    minima, _ = local_extrema(p)
    if not minima.size:
        raise NumericalError("no population minimum found; horizon too short?")
    return math.pi / times[minima[0]]


def first_revival_time(times: np.ndarray, p: np.ndarray) -> float:
    """Time of the first local population maximum after the first minimum."""
    minima, maxima = local_extrema(p)
    revivals = maxima[maxima > minima[0]] if minima.size else maxima[:0]
    if not revivals.size:
        raise NumericalError("no population revival found; horizon too short?")
    return float(times[revivals[0]])


def fit_decay_rate(times: np.ndarray, p: np.ndarray, floor: float = 1e-3) -> float:
    """Exponential rate from a linear fit of log population (Markovian regime)."""
    mask = p > floor
    mask[0] = False  # log(1) anchors the fit too strongly at t = 0
    if mask.sum() < 10:
        raise NumericalError("too few points above the fit floor")
    slope, _ = np.polyfit(times[mask], np.log(p[mask]), 1)
    return float(-slope)


def has_fast_ripples(P1: np.ndarray, min_count: int = 5) -> bool:
    """Detect the fast modulation riding on the slow swap: count local maxima of P1."""
    return local_extrema(P1)[1].size >= min_count


def rabi_frequency_oracle(times: np.ndarray, p: np.ndarray) -> float:
    """Omega = pi/t_min from the first local minimum, found by a per-sample loop."""
    for k in range(1, p.size - 1):
        if p[k] < p[k - 1] and p[k] <= p[k + 1]:
            return math.pi / times[k]
    raise NumericalError("no population minimum found; horizon too short?")


def revival_time_oracle(times: np.ndarray, p: np.ndarray) -> float:
    """Time of the first local maximum after the first minimum, by per-sample loops."""
    k = 1
    while k < p.size - 1 and not (p[k] < p[k - 1] and p[k] <= p[k + 1]):
        k += 1
    while k < p.size - 1 and not (p[k] > p[k - 1] and p[k] >= p[k + 1]):
        k += 1
    if k >= p.size - 1:
        raise NumericalError("no population revival found; horizon too short?")
    return float(times[k])


def fast_ripples_oracle(P1: np.ndarray, min_count: int = 5) -> bool:
    """At least min_count local maxima of P1, counted from shifted comparisons."""
    rising = P1[1:-1] > P1[:-2]
    falling = P1[1:-1] >= P1[2:]
    return int(np.sum(rising & falling)) >= min_count


def boxcar_oracle(x: np.ndarray, width: int) -> np.ndarray:
    """Moving average over `width` samples, edge values repeated past both
    ends, from one cumulative sum of the whole padded series."""
    csum = np.cumsum(np.pad(x, (width // 2 + 1, (width - 1) // 2), mode="edge"))
    return (csum[width:] - csum[:-width]) / width


def swap_oracle(times: np.ndarray, P2: np.ndarray, Delta: float) -> tuple[float, float]:
    """(pi/(2 t*), P2 at t*) from the first maximum of the whole P2, smoothed
    over 3 ripple periods 2 pi/|Delta| (not at Delta = 0), with the
    streamed extractor's errors."""
    if Delta != 0:
        window = 3.0 * (2.0 * math.pi / abs(Delta)) / (times[1] - times[0])
        if not window < times.size:
            raise NumericalError("smoothing over 3 detuning ripple periods needs more than "
                                 "the whole horizon; extend t_end or raise |Delta|")
        smooth = boxcar_oracle(P2, max(3, int(round(window))))
    else:
        smooth = P2
    if np.ptp(smooth) < 1e-12:
        return math.nan, float(np.max(P2))
    k = int(np.argmax(smooth))
    if k == 0 or k == times.size - 1:
        raise NumericalError("no interior P2 maximum; extend t_end to cover a half swap")
    return math.pi / (2.0 * float(times[k])), float(P2[k])


def eigen_swap_oracle(g1: float, g2: float, Delta: float, Gamma: float,
                      initial_state=(1.0, 0.0, 0.0)) -> tuple[float, float, float]:
    """(swap frequency, fidelity, average fidelity) from `np.linalg.eigvals`
    and `scipy.linalg.expm` of the plain (c1, c2, b) generator, where
    `dynamics._swap` solves the bright block's quadratic in (beta, b, I).

    Of the three eigenvalues, the one nearest 0 is the dark state
    g2 c1 - g1 c2; of the two bright ones, the one with the smaller |Im|
    gives the swap |Im|/2 and t* = pi/|Im|. The fidelity is the population
    at t* of the emitter that starts empty, and the average fidelity
    1/2 + |f|/3 + |f|^2/6 with f = c2(t*) from c(0) = (1, 0, 0).
    """
    from scipy.linalg import expm

    if g1 * g2 == 0:
        return math.nan, 0.0, 0.5
    M = np.array([[0.0, 0.0, -1j * g1],
                  [0.0, 0.0, -1j * g2],
                  [-1j * g1, -1j * g2, 1j * Delta - Gamma / 2.0]])
    lam = np.linalg.eigvals(M)
    bright = np.delete(lam, np.argmin(np.abs(lam)))
    rate = float(np.min(np.abs(bright.imag)))
    U = expm(M * (math.pi / rate))
    target = 1 if abs(initial_state[0]) >= abs(initial_state[1]) else 0
    f = abs(U[1, 0])
    return (rate / 2.0, float(abs(U[target] @ np.asarray(initial_state, dtype=complex)) ** 2),
            0.5 + f / 3.0 + f * f / 6.0)
