"""Independent numerical oracles used by the test suite.

These deliberately avoid the closed forms in magnoncavity.modes: the
normalization integral is evaluated by Gauss-Legendre quadrature with a
finite-difference tensor derivative, and gradients of the scalar potential
are taken by central differences. The Volterra oracle sums the trapezoid
history literally at every step instead of carrying it by recursion.
"""

import numpy as np

from magnoncavity import CONSTANTS, MaterialParams, mode_field, mode_frequency, mode_potential
from magnoncavity.material import susceptibility


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

    return float(2.0 * np.pi * CONSTANTS.mu0 * (inner + outer))


def quantized_mode_oracle(n: int, cavity) -> dict:
    """Zero-point amplitude and effective volume from the quadrature route."""
    omega = mode_frequency(n, cavity.fields, cavity.mat)
    integral = quantization_integral(n, cavity)
    scale = np.sqrt(CONSTANTS.hbar * omega / integral)
    Hzp = scale * np.sqrt(2.0) * n * cavity.R ** (n - 1)
    Veff = CONSTANTS.hbar * omega / (CONSTANTS.mu0 * Hzp**2)
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


def volterra_history_oracle(kernel, t_end: float, dt: float) -> np.ndarray:
    """Amplitudes c_k of the trapezoidal-history Volterra scheme, summed literally.

    Crank-Nicolson in time with the trapezoid history rebuilt at every step
    from the kernel samples: O(N^2), the reference for evolve_volterra's
    recursion.
    """
    N = int(round(t_end / dt))
    times = np.arange(N + 1) * dt
    c = np.zeros(N + 1, dtype=complex)
    c[0] = 1.0

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
    return c
