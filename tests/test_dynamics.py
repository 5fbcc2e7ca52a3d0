import collections
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from magnoncavity import (CavityConfig, ConfigError, DomainError, EmitterConfig,
                          NumericalError, build_kernel, decay_populations,
                          kittel_frequency, mode_table, state_from_internal, tesla_to_field)
from magnoncavity import dynamics
from magnoncavity._text import WRITE_CHUNK
from magnoncavity.dynamics import (MemoryKernel, _doubling_powers, _pade13, _propagator,
                                   _pseudomode_matrix, _squarings, sample_times)
from oracles import (decay_series, doubling_powers_oracle, extract_rabi_frequency,
                     fast_ripples_oracle, first_revival_time, fit_decay_rate, has_fast_ripples,
                     local_extrema, max_stable_dt, rabi_frequency_oracle, revival_time_oracle,
                     volterra_history_oracle)


def amplitudes(kernel, t_end, dt, solver="pseudomode"):
    """c at every sample of `decay_populations`' grid, from its sampler."""
    read, n, _ = dynamics._decay_sampler(kernel, t_end, dt, None, solver)
    return read(0, n)[0]


def unit_vector(w):
    """(1, 0, ..., 0) in C^w: all amplitude in the first component."""
    e = np.zeros(w, dtype=complex)
    e[0] = 1.0
    return e


def resonant_kernel(cavity, dipole_scale=1.0):
    omega0 = kittel_frequency(cavity.fields, cavity.mat)
    emitter = EmitterConfig(position=(1.2 * cavity.R, 0, 0), omega0=omega0,
                            dipole_scale=dipole_scale)
    return build_kernel(emitter, cavity), emitter


# -------------------------------------------------------------------- kernel

def test_empty_kernel_freezes_population():
    _, p = decay_series(MemoryKernel(weights=(), rates=()), 1e-7, 1e-9)
    assert np.all(p == 1.0)
    _, p = decay_series(MemoryKernel(weights=(), rates=()), 1e-7, 1e-9, solver="volterra")
    assert np.all(p == 1.0)
    # No mode, no resolution guard: the step must come from dt or n_samples.
    times, _ = decay_series(MemoryKernel(weights=(), rates=()), 1e-7, n_samples=100)
    assert times.size == 101
    with pytest.raises(ConfigError, match="finite"):
        decay_populations(MemoryKernel(weights=(), rates=()), 1e-7)


def test_kernel_zero_lag_is_total_weight(cavity_narrow):
    kernel, emitter = resonant_kernel(cavity_narrow)
    g_n = mode_table(cavity_narrow, emitter.position).g
    assert kernel.K0 == pytest.approx(np.sum(np.abs(g_n) ** 2), rel=1e-12)
    assert kernel(0.0) == pytest.approx(kernel.K0)


def test_kernel_envelope_decays_at_half_linewidth(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    Gamma = cavity_narrow.mat.Gamma
    tau = 3.0 / Gamma
    assert abs(kernel(tau)) == pytest.approx(kernel.K0 * math.exp(-Gamma * tau / 2.0),
                                             rel=1e-9)


def test_kernel_rates_encode_detunings(cavity, emitter):
    kernel = build_kernel(emitter, cavity)
    t = mode_table(cavity, emitter.position)
    assert np.allclose(kernel.weights, np.abs(t.g) ** 2)
    rates = np.array(kernel.rates)
    assert np.allclose(rates.imag, emitter.omega0 - t.omega)
    assert np.allclose(rates.real, -t.Gamma / 2.0)


def test_negative_weight_rejected():
    with pytest.raises(Exception):
        MemoryKernel(weights=(-1.0,), rates=(0.0 + 0.0j,))


@pytest.mark.parametrize("weights, rates", [
    ((math.nan,), (0.0j,)), ((math.inf,), (0.0j,)),
    ((1.0,), (complex(0.0, math.inf),)), ((1.0, 1.0), (0.0j, complex(math.nan, 0.0))),
], ids=["nan-weight", "inf-weight", "inf-rate", "nan-rate"])
def test_non_finite_kernel_rejected(weights, rates):
    # An overflowed mode table is refused where its kernel is built.
    with pytest.raises(DomainError, match="must be finite"):
        MemoryKernel(weights=weights, rates=rates)


# ----------------------------------------------------------------- dt guard

def test_dt_guard_binding_constraint(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    limit = max_stable_dt(kernel)
    g = math.sqrt(max(kernel.weights))
    # On resonance the coupling bound 1/(10 g)/10 is the tightest.
    assert limit == pytest.approx(1.0 / (100.0 * g), rel=1e-12)
    with pytest.raises(ConfigError, match="coupling"):
        decay_populations(kernel, 1e-7, 10.0 * limit)


def test_nonpositive_dt_rejected(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    with pytest.raises(ConfigError):
        decay_populations(kernel, 1e-7, 0.0, solver="volterra")


# ---------------------------------------------------------- closed-form runs

def test_resonant_lossless_rabi_is_cosine_squared(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    t_end = 2.0 * math.pi / g
    times, p = decay_series(kernel, t_end, max_stable_dt(kernel) / 2.0)
    exact = np.cos(g * times) ** 2
    assert np.max(np.abs(p - exact)) < 1e-8


def test_rabi_extraction_matches_2g(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    ts = decay_series(kernel, 2.0 * math.pi / g, max_stable_dt(kernel) / 2.0)
    assert extract_rabi_frequency(*ts) == pytest.approx(2.0 * g, rel=2e-3)
    assert first_revival_time(*ts) == pytest.approx(math.pi / g, rel=2e-3)


def test_detuned_dip_depth(yig_lossless, fields):
    # Delta = 10 g: transferred fraction 4g^2/(4g^2 + Delta^2) = 1/26.
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=1)
    kernel, emitter = resonant_kernel(cavity)
    g = math.sqrt(kernel.K0)
    det = EmitterConfig(position=emitter.position, omega0=emitter.omega0 + 10.0 * g)
    kernel = build_kernel(det, cavity)
    Omega = math.sqrt(4.0 * g**2 + (10.0 * g) ** 2)
    _, p = decay_series(kernel, 2.5 * math.pi / Omega, max_stable_dt(kernel) / 4.0)
    depth = 1.0 - np.min(p)
    assert depth == pytest.approx(4.0 / 104.0, rel=1e-3)


def test_norm_conserved_without_loss(yig_lossless, fields):
    cavity = CavityConfig(R=30e-9, mat=yig_lossless, fields=fields, n_max=3)
    kernel, _ = resonant_kernel(cavity)
    dt = max_stable_dt(kernel) / 2.0
    times, p = decay_series(kernel, 5e-8, dt)
    # The mode amplitudes b_n: every component of the same propagation.
    A = _pseudomode_matrix(kernel)
    y = _propagator(A, unit_vector(A.shape[0]), times.size, dt, range(A.shape[0]))(0, times.size)
    assert np.array_equal(y[0], amplitudes(kernel, 5e-8, dt))
    total = p + np.sum(np.abs(y[1:]) ** 2, axis=0)
    assert np.max(np.abs(total - 1.0)) < 1e-9


def test_exceptional_point_closed_form():
    # g = Gamma/4 gives a double root of the pseudo-mode matrix (defective,
    # ill-conditioned eigenvectors): P(t) = exp(-Gamma t/2) (1 + Gamma t/4)^2.
    Gamma = 1e7
    kernel = MemoryKernel(weights=(Gamma**2 / 16.0,), rates=(-Gamma / 2.0,))
    times, p = decay_series(kernel, 40.0 / Gamma, max_stable_dt(kernel) / 2.0)
    exact = np.exp(-Gamma * times / 2.0) * (1.0 + Gamma * times / 4.0) ** 2
    assert np.max(np.abs(p - exact)) < 1e-12


def test_markovian_rate_matches_golden_rule(yig, fields):
    # Weak coupling g << Gamma: population decays at 4 g^2/Gamma.
    cavity = CavityConfig(R=30e-9, mat=yig, fields=fields, n_max=1)
    kernel, _ = resonant_kernel(cavity, dipole_scale=0.05)
    g2 = kernel.K0
    Gamma = yig.Gamma
    expected = 4.0 * g2 / Gamma
    assert fit_decay_rate(*decay_series(kernel, 4e-5, 1e-8)) == pytest.approx(expected, rel=0.05)


# ----------------------------------------------------------- solver checks

def test_cross_solver_agreement(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    dt = max_stable_dt(kernel) / 2.0
    t_end = 1.0e-6
    _, a = decay_series(kernel, t_end, dt, solver="volterra")
    _, b = decay_series(kernel, t_end, dt)
    assert np.max(np.abs(a - b)) < 1e-4


def test_volterra_second_order_convergence(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    t_end = 3e-7
    # Commensurate steps so the fine grid subsamples onto the coarse one.
    dt = t_end / math.ceil(t_end / (max_stable_dt(kernel) / 2.0))
    _, coarse = decay_series(kernel, t_end, dt, solver="volterra")
    _, fine = decay_series(kernel, t_end, dt / 2.0, solver="volterra")
    assert np.max(np.abs(coarse - fine[::2])) < 1e-5


@pytest.mark.parametrize("material, n_max, detuning", [
    ("yig_narrow", 1, 0.0), ("yig", 7, 0.0), ("yig_lossless", 1, 0.0), ("yig_narrow", 1, 10.0),
], ids=["n_max-1", "n_max-7", "Gamma-0", "detuned"])
def test_volterra_matches_literal_history(request, fields, material, n_max, detuning):
    # The recursion over one history term per mode, filled by doubling, must
    # give the amplitudes of the literal O(N^2) trapezoid sum; Gamma = 0
    # puts every |z_m| = exp(Re s_m dt) at 1.
    cavity = CavityConfig(R=30e-9, mat=request.getfixturevalue(material),
                          fields=fields, n_max=n_max)
    kernel, emitter = resonant_kernel(cavity)
    if detuning:
        shifted = EmitterConfig(position=emitter.position,
                                omega0=emitter.omega0 + detuning * math.sqrt(kernel.K0))
        kernel = build_kernel(shifted, cavity)
    dt = max_stable_dt(kernel) / 2.0
    t_end = 3000 * dt
    c = amplitudes(kernel, t_end, dt, "volterra")
    assert c.size == 3001
    assert np.max(np.abs(c - volterra_history_oracle(kernel, t_end, dt))) <= 1e-12


def test_volterra_at_a_million_samples(cavity_narrow):
    # Doubling the step map 20 times must not grow its error: at dt = 3 ps
    # the scheme's own error is far below the tolerance.
    kernel, _ = resonant_kernel(cavity_narrow)
    a = amplitudes(kernel, 3e-6, 3e-12, "volterra")
    b = amplitudes(kernel, 3e-6, 3e-12)
    assert a.size == 1_000_001
    assert np.max(np.abs(a - b)) <= 1e-8


def test_population_bounds_enforced(monkeypatch):
    # A population of 1.5 is refused where its block is read.
    def sampler(*args):
        return (lambda i, j: np.full((1, j - i), math.sqrt(1.5), dtype=complex)), 2, 1.0

    monkeypatch.setattr(dynamics, "_decay_sampler", sampler)
    populations, _ = decay_populations(MemoryKernel(weights=(), rates=()), 1.0, 1.0)
    with pytest.raises(NumericalError, match="populations left"):
        populations[:]


@pytest.mark.parametrize("key, expected", [
    (slice(None), list(range(10))), (slice(-3, None), [7, 8, 9]), (slice(2, 5), [2, 3, 4]),
    (slice(5, 2), []), (slice(-20, 3), [0, 1, 2]), (slice(8, 50, 1), [8, 9])])
def test_samples_read_slices_like_an_array(key, expected):
    times = sample_times(10, 1.0, 1.0)
    assert len(times) == 10
    assert times[key].tolist() == expected == np.arange(10.0)[key].tolist()


@pytest.mark.parametrize("key", [slice(None, None, 2), slice(None, None, -1), slice(8, 2, -2)],
                         ids=["step-2", "reversed", "negative-step"])
def test_samples_refuse_a_step_other_than_one(key):
    # A block is a run of consecutive samples; a stride or a reversal is
    # refused, not read as the run it would skip or not read at all.
    with pytest.raises(ValueError, match="step 1"):
        sample_times(10, 1.0, 1.0)[key]


# --------------------------------------------------------------- propagator

def propagator_case(request, name):
    """(A, dt, count): a generator, its step and the number of doubling powers."""
    if name in ("decay-default", "decay-coarse-step"):
        A = _pseudomode_matrix(build_kernel(request.getfixturevalue("emitter"),
                                            request.getfixturevalue("cavity")))
        # The CLI default grid (1 us, 100 000 steps), and a step so coarse
        # that the first power already needs squarings.
        return (A, 1e-11, 17) if name == "decay-default" else (A, 1e-8, 4)
    if name == "transfer":
        # transfer_populations' (beta, b, I) generator, its entries 1 to 2 g^2.
        kernel, _ = resonant_kernel(request.getfixturevalue("cavity_narrow"))
        g = math.sqrt(kernel.K0)
        A = np.array([[0.0, -2j * g * g, 0.0], [-1j, 10j * g - 0.5e6, 0.0], [0.0, 1.0, 0.0]])
        return A, 1e-11, 17
    if name == "exceptional-point":
        Gamma = 1e7     # g = Gamma/4: a defective double eigenvalue
        return np.array([[0.0, -0.25j * Gamma], [-0.25j * Gamma, -Gamma / 2.0]]), 2e-9, 11
    return np.zeros((3, 3), dtype=complex), 1e-9, 5


PROPAGATOR_CASES = ["decay-default", "decay-coarse-step", "transfer", "exceptional-point",
                    "zero"]


@pytest.mark.parametrize("name", PROPAGATOR_CASES)
def test_doubling_powers_match_scipy_expm(request, name):
    A, dt, count = propagator_case(request, name)
    B = A * dt
    powers = list(itertools.islice(_doubling_powers(B, count), count + 1))
    assert len(powers) == count
    for i, M in enumerate(powers):
        ref = expm(B * 2.0**i)
        assert np.max(np.abs(M - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, i)
    if name == "decay-coarse-step":
        assert _squarings(B) > 0


@pytest.mark.parametrize("name", PROPAGATOR_CASES)
def test_squared_powers_are_exact_squares(request, name):
    # From the first power that needs squaring on, each power is the one
    # before squared, bit for bit.
    A, dt, count = propagator_case(request, name)
    first = max(1, 1 - _squarings(A * dt))
    powers = list(_doubling_powers(A * dt, count))
    assert all(np.array_equal(powers[i], powers[i - 1] @ powers[i - 1])
               for i in range(first, count))


@pytest.mark.parametrize("name", ["decay-default", "decay-coarse-step"])
def test_no_square_is_formed_unasked(request, monkeypatch, name):
    # The last power, expm(2^(count-1) B), is the Pade value of 2^-s B
    # squared count - 1 + s times; no square beyond it is formed.
    formed = []

    def squares(T):
        while True:
            yield T
            formed.append(T)
            T = T @ T

    monkeypatch.setattr(dynamics, "_squares", squares)
    A, dt, count = propagator_case(request, name)
    assert len(list(itertools.islice(_doubling_powers(A * dt, count), count + 1))) == count
    assert len(formed) == max(0, count - 1 + _squarings(A * dt))


@pytest.mark.parametrize("name", PROPAGATOR_CASES)
def test_stacked_pade_is_each_slice(request, name):
    # One stacked call gives each matrix the bits of a call of its own: the
    # case's arguments 2^i B, and random stacks of widths 1 to 51.
    A, dt, count = propagator_case(request, name)
    rng = np.random.default_rng(count)
    stacks = [A * dt * np.ldexp(1.0, np.arange(-3, count))[:, None, None]]
    for w in (1, 2, 3, 8, 51):
        X = rng.normal(size=(4, w, w)) + 1j * rng.normal(size=(4, w, w))
        stacks.append(X * rng.uniform(0.01, 5.0, size=(4, 1, 1)) / w)
    for S in stacks:
        values = _pade13(S)
        assert values.shape == S.shape
        for j in range(len(S)):
            assert values[j].tobytes() == _pade13(S[j]).tobytes(), (name, S.shape, j)


@pytest.mark.parametrize("count", [1, 5, 13, 17])
@pytest.mark.parametrize("name", PROPAGATOR_CASES)
def test_doubling_powers_match_one_pade_call_per_value(request, name, count):
    # The powers from stacked Pade values, unsquared and squared, are bit for
    # bit those of one `_pade13` call per value.
    A, dt, _ = propagator_case(request, name)
    powers = list(_doubling_powers(A * dt, count))
    expected = list(doubling_powers_oracle(A * dt, count))
    assert len(powers) == len(expected) == count
    for i, (M, E) in enumerate(zip(powers, expected)):
        assert M.tobytes() == E.tobytes(), (name, count, i)


@pytest.fixture(scope="module")
def wide_step(yig, fields):
    """(B, count): A dt of a 301-wide pseudo-mode generator (n_max 300) at the
    step of `decay --n_max 300 --R_list_nm 30 --n_samples 2000`, and a count
    that takes both unsquared and squared powers."""
    cavity = CavityConfig(R=30e-9, mat=yig, fields=fields, n_max=300)
    B = _pseudomode_matrix(resonant_kernel(cavity)[0]) * 6.05e-11
    count = 5
    assert B.shape == (301, 301) and 0 < -_squarings(B) < count
    return B, count


def test_pade_calls_per_propagation(request, monkeypatch, wide_step):
    # A small generator's Pade values come from one stacked call; a wide
    # one's come one matrix per call.
    shapes = []
    pade13 = dynamics._pade13

    def recording(B):
        shapes.append(B.shape)
        return pade13(B)

    monkeypatch.setattr(dynamics, "_pade13", recording)
    for name in PROPAGATOR_CASES:
        A, dt, _ = propagator_case(request, name)
        w = A.shape[0]
        assert w <= 8
        shapes.clear()
        _propagator(A, unit_vector(w), 100_001, dt, (0,))
        assert len(shapes) == 1 and shapes[0][1:] == (w, w), name
    B, count = wide_step
    shapes.clear()
    _propagator(B, unit_vector(301), 2 ** (count - 1) + 1, 1.0, (0,))
    assert shapes == [(1, 301, 301)] * (1 - _squarings(B))


def test_wide_pade_peak_is_one_call_per_value(wide_step):
    # Consumed one power at a time, a wide generator's stacked powers hold
    # no more memory than one `_pade13` call per value. Slack: 4 KiB, for the
    # exponent array and generator frames, against 1.4 MiB per 301-square
    # matrix; the peak is about seven such matrices.
    B, count = wide_step

    def peak(powers):
        tracemalloc.start()
        try:
            collections.deque(powers, maxlen=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stacked = peak(_doubling_powers(B, count))
    per_value = peak(doubling_powers_oracle(B, count))
    assert 6 * B.nbytes < per_value
    assert stacked <= per_value + 4096


def test_one_sample_grid_asks_for_no_power(monkeypatch):
    # A single sample is y0 itself: no step, so no power is formed.
    def refuse(*args):
        raise AssertionError("a power was asked for")

    monkeypatch.setattr(dynamics, "_doubling_powers", refuse)
    y0 = np.array([1.0, 0.0], dtype=complex)
    Y = _propagator(np.ones((2, 2)), y0, 1, 0.0, (0, 1))(0, 1)
    assert Y.shape == (2, 1) and np.array_equal(Y[:, 0], y0)


@pytest.mark.parametrize("n", [1, 2, 3, 512, 513, 100_001])
@pytest.mark.parametrize("name", ["decay-default", "transfer", "zero"])
def test_propagate_matches_scipy_expm(request, name, n):
    # Every component of expm(A t_k) y0 at both ends, around the split
    # (k = B - 1, B, B + 1) and at random k, for a generic y0.
    A, dt, _ = propagator_case(request, name)
    w = A.shape[0]
    rng = np.random.default_rng(n)
    y0 = rng.normal(size=w) + 1j * rng.normal(size=w)
    y0 /= np.linalg.norm(y0)
    times = np.arange(n) * dt
    Y = _propagator(A, y0, n, dt, range(w))(0, n)
    assert Y.shape == (w, n)
    B = 2 ** (((n - 1).bit_length() + 1) // 2)     # the sampler's split k = h B + l
    ks = {0, 1, B - 1, B, B + 1, n - 1, *rng.integers(0, n, 6).tolist()}
    for k in sorted(k for k in ks if k < n):
        ref = expm(A * times[k]) @ y0
        assert np.max(np.abs(Y[:, k] - ref)) <= 1e-12 * np.max(np.abs(ref)), (name, n, k)


@pytest.mark.parametrize("name", ["decay-default", "transfer"])
def test_row_subset_is_bitwise_the_full_call(request, name):
    # Each component is computed alone: asking for fewer rows, or in another
    # order, changes no bit of the rows asked for.
    A, dt, _ = propagator_case(request, name)
    w = A.shape[0]
    y0 = unit_vector(w)
    for n in (3, 513, 100_001):
        full = _propagator(A, y0, n, dt, range(w))(0, n)
        for rows in [(0,), (w - 1,), (1, 2), (w - 1, 0)]:
            assert np.array_equal(_propagator(A, y0, n, dt, rows)(0, n), full[list(rows)])


def test_sampler_never_holds_the_whole_state(request, monkeypatch):
    # The fills hold about sqrt(n) states, not n: at n = 100 001, B = 512
    # states M^l y0 and H = 196 rows e_r^T M^(hB).
    lengths = []
    fill = dynamics._fill_by_doubling

    def recording_fill(y0, n, powers):
        lengths.append(n)
        return fill(y0, n, powers)

    monkeypatch.setattr(dynamics, "_fill_by_doubling", recording_fill)
    A, dt, _ = propagator_case(request, "decay-default")
    c = _propagator(A, unit_vector(A.shape[0]), 100_001, dt, (0,))(0, 100_001)
    assert c.shape == (1, 100_001)
    assert lengths == [512, 196]


@pytest.mark.parametrize("n", [1, 2, 511, 512, 513, 4095, 4097, WRITE_CHUNK - 1, WRITE_CHUNK + 1,
                               100_001])
@pytest.mark.parametrize("solver", ["pseudomode", "volterra"])
def test_streamed_blocks_are_the_whole_series(cavity, solver, n):
    # Read a writer's block at a time, a single sample, one row h of the
    # split k = h B + l, or any range, the populations and amplitudes have
    # the bits of the whole read `[:]`. The sizes straddle a default
    # radius's B = 512, the sampler's 4096-sample tiles and the writer's
    # block.
    kernel, _ = resonant_kernel(cavity)
    dt = max_stable_dt(kernel) / 2.0
    populations, step = decay_populations(kernel, (n - 1) * dt, dt, solver=solver)
    read, _, _ = dynamics._decay_sampler(kernel, (n - 1) * dt, dt, None, solver)
    whole, c = populations[:], amplitudes(kernel, (n - 1) * dt, dt, solver)
    assert step == dt and len(populations) == whole.size == n
    blocks = [populations[i:i + WRITE_CHUNK] for i in range(0, n, WRITE_CHUNK)]
    assert np.concatenate(blocks).tobytes() == whole.tobytes()
    B = 2 ** (((n - 1).bit_length() + 1) // 2)
    rng = np.random.default_rng(n)
    ranges = [(0, 1), (n - 1, n), (0, B), (B, 2 * B), (n - B, n), (n // 2, n // 2 + 1),
              *(sorted(rng.integers(0, n + 1, 2).tolist()) for _ in range(20))]
    for i, j in ((i, min(j, n)) for i, j in ranges if 0 <= i < n):
        assert populations[i:j].tobytes() == whole[i:j].tobytes(), (i, j)
        assert read(i, j)[0].tobytes() == c[i:j].tobytes(), (i, j)


@pytest.mark.parametrize("n", [1000, 2000])
@pytest.mark.parametrize("w", [150, 301])
def test_unaligned_reads_are_the_whole_read_at_wide_states(w, n):
    # Every range is cut from the sampler's fixed tiles, so it has the bits
    # of the whole read at any state width, although BLAS rounds a product of
    # some rows of a wide fill otherwise than those rows of a larger product.
    # Only the products' bits matter here, so the powers are random unitary
    # matrices.
    rng = np.random.default_rng(w * n)

    def powers():
        while True:
            q, _ = np.linalg.qr(rng.normal(size=(w, w)) + 1j * rng.normal(size=(w, w)))
            yield q

    y0 = rng.normal(size=w) + 1j * rng.normal(size=w)
    read = dynamics._row_sampler(y0, n, powers(), (0, w - 1))
    whole = read(0, n)
    for i, j in (sorted(rng.integers(0, n + 1, 2).tolist()) for _ in range(40)):
        assert read(i, j).tobytes() == whole[:, i:j].tobytes(), (i, j)


@pytest.mark.parametrize("scale, expected", [
    (0.0, -2046), (1e250, 829), (1e-300, -999), (math.ulp(0.0), -1076)])
def test_squarings_cannot_overflow(scale, expected):
    # Under the suite's error::RuntimeWarning, no power overflows or
    # underflows into log2(0); a nilpotent matrix needs no squarings at any
    # of the at most 64 doubling powers.
    B = scale * np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
    assert _squarings(B) == expected
    assert _squarings(np.array([[0.0, scale], [0.0, 0.0]])) < -64


# ------------------------------------------------------------- radius sweep

def radius_sweep_rabi(mat, Rs):
    """Rabi frequency per radius: one resonant Kittel-mode kernel, guard/2 steps."""
    fields = state_from_internal(tesla_to_field(0.5), mat)
    kernels = (resonant_kernel(CavityConfig(R=R, mat=mat, fields=fields, n_max=1))[0]
               for R in Rs)
    return [extract_rabi_frequency(*decay_series(k, 3.2e-6)) for k in kernels]


def test_radius_sweep_monotone_with_loss(yig_narrow):
    omegas = radius_sweep_rabi(yig_narrow, [30e-9, 50e-9, 70e-9, 100e-9])
    assert all(b < a for a, b in zip(omegas, omegas[1:]))


def test_radius_sweep_coupling_exponent(yig_lossless):
    # Gamma = 0 isolates the geometric scaling; damping biases t_min late.
    Rs = [30e-9, 50e-9, 70e-9, 100e-9]
    omegas = radius_sweep_rabi(yig_lossless, Rs)
    # Log-log slope of -3/2: g ~ 1/sqrt(Veff) ~ R^-1.5 at fixed a/R.
    slope, _ = np.polyfit(np.log(Rs), np.log(omegas), 1)
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_coupling_linear_in_dipole_factor(cavity_narrow):
    k1, _ = resonant_kernel(cavity_narrow, dipole_scale=1.0)
    k2, _ = resonant_kernel(cavity_narrow, dipole_scale=2.0)
    assert k2.K0 == pytest.approx(4.0 * k1.K0, rel=1e-12)


# --------------------------------------------------------------- extractors

def test_extractors_need_enough_horizon(cavity_narrow):
    kernel, _ = resonant_kernel(cavity_narrow)
    short = decay_series(kernel, 5e-9, max_stable_dt(kernel) / 2.0)
    with pytest.raises(NumericalError):
        extract_rabi_frequency(*short)
    with pytest.raises(NumericalError):
        first_revival_time(*short)


def _outcome(extract, *args):
    try:
        return extract(*args)
    except NumericalError as exc:
        return type(exc), str(exc)


# A small value set, so that plateaus and ties occur, plus NaN.
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, math.nan]), max_size=12))
def test_local_extrema_matches_the_loops(values):
    p = np.array(values)
    minima, maxima = local_extrema(p)
    inner = range(1, p.size - 1)
    assert minima.tolist() == [k for k in inner if p[k] < p[k - 1] and p[k] <= p[k + 1]]
    assert maxima.tolist() == [k for k in inner if p[k] > p[k - 1] and p[k] >= p[k + 1]]
    times = 0.5 * np.arange(1, p.size + 1)
    assert _outcome(extract_rabi_frequency, times, p) == _outcome(rabi_frequency_oracle, times, p)
    assert _outcome(first_revival_time, times, p) == _outcome(revival_time_oracle, times, p)
    for count in (1, 2, 5):
        assert has_fast_ripples(p, count) == fast_ripples_oracle(p, count)
