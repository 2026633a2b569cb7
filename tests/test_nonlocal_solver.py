import dataclasses
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.fft import fft, ifft, next_fast_len
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve, toeplitz

from demonscatter.channels import ChannelSet, extract_channel
from demonscatter.errors import GridError, ModelError, ResolutionWarning, SolverError
from demonscatter.kernels import OpticalParameters, build_kernel
from demonscatter.local_solver import LocalPotentialModel, solve_local
from demonscatter.nonlocal_solver import (
    SLAB,
    NonlocalKernel,
    _green_weights,
    _system_matrix,
    _trapezoid_weights,
    solve_nonlocal,
)
from demonscatter.symmetry import SymmetryClass
from demonscatter.units import SUPPORT_REL, RabiProfile, make_grid

from oracles import PAPER_DELTA, PAPER_PROFILE
from test_symmetry import paper_kernel, random_bordered, random_smooth, symmetrized


def smooth_envelope(x):
    env = np.exp(-((x / 0.55) ** 6))
    env[np.abs(x) > 1.4] = 0.0
    return env


def gaussian_kernel(grid, amp, cx, cy, w):
    x = grid.points
    env = smooth_envelope(x)
    K = amp * np.exp(
        -(((x[:, None] - cx) ** 2 + (x[None, :] - cy) ** 2) / w**2)
    )
    return K * env[:, None] * env[None, :]


def test_zero_kernel_free():
    grid = make_grid(-1.5, 1.5, 401)
    kernel = NonlocalKernel(grid=grid, K=np.zeros((401, 401)))
    assert kernel.support == (0, 1)  # one node kept, so the solve still runs
    a = solve_nonlocal(kernel, 5.0)
    assert a.T == 1.0 and a.Tt == 1.0
    assert a.R == 0.0 and a.Rt == 0.0


@pytest.mark.parametrize("n", [3, SLAB - 1, SLAB, SLAB + 1, 2 * SLAB + 1])
@pytest.mark.parametrize("spike", [False, True])
def test_kmax_is_the_max_norm(n, spike):
    K = random_bordered(n, np.random.default_rng(n))
    if spike:  # the largest entry in the last, possibly partial, slab
        K[n - 2, n - 2] = 1e3
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=K)
    assert kernel.kmax == np.max(np.abs(kernel.K))
    assert type(kernel.kmax) is float


def test_kmax_paper_kernel_and_zero_kernel():
    kernel = paper_kernel(2001)
    assert kernel.kmax == np.max(np.abs(kernel.K))
    zero = NonlocalKernel(grid=make_grid(-1.5, 1.5, 41), K=np.zeros((41, 41)))
    assert zero.kmax == 0.0


def test_kernel_fields_cannot_be_reassigned():
    K0 = random_bordered(41, np.random.default_rng(3))
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, 41), K=K0)
    kmax, support = kernel.kmax, kernel.support
    for name, value in (("K", kernel.K * 1e6), ("kmax", 1e6), ("support", (0, 41)),
                        ("grid", kernel.grid)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(kernel, name, value)
    assert (kernel.kmax, kernel.support) == (kmax, support)


def test_kernel_samples_are_a_read_only_view_of_the_callers_array():
    K0 = random_bordered(41, np.random.default_rng(3))
    assert K0.dtype == complex
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, 41), K=K0)
    with pytest.raises(ValueError):
        kernel.K[0, 0] = 1
    assert np.shares_memory(kernel.K, K0)  # no copy made
    assert K0.flags.writeable              # and the caller's array is untouched


def test_local_limit_matches_coupled_solver():
    # narrow Gaussian in (x-y) times a smooth barrier approximates a local
    # potential; compare against solve_local on that potential
    n = 2001
    grid = make_grid(-1.5, 1.5, n)
    x = grid.points
    sigma = 0.01
    v_loc = 6.0 * np.exp(-((x / 0.4) ** 2)) * smooth_envelope(x)
    delta_approx = np.exp(-(((x[:, None] - x[None, :]) / sigma) ** 2)) / (
        sigma * np.sqrt(np.pi)
    )
    K = delta_approx * 0.5 * (v_loc[:, None] + v_loc[None, :])
    a_nl = solve_nonlocal(NonlocalKernel(grid=grid, K=K), 5.0)

    V = (v_loc + 0.0j).reshape(n, 1, 1)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V
    )
    a_l = extract_channel(solve_local(model, 12.5).S, 0)
    for name in ("T", "R", "Tt", "Rt"):
        assert abs(getattr(a_nl, name) - getattr(a_l, name)) < 1e-3


def test_hermitian_kernel_flux_conservation():
    grid = make_grid(-1.5, 1.5, 1201)
    A = gaussian_kernel(grid, 3.0 + 2.0j, 0.2, -0.1, 0.3)
    K = A + np.conj(A.T)
    a = solve_nonlocal(NonlocalKernel(grid=grid, K=K), 6.0)
    t2, r2, tt2, rt2 = a.probabilities
    assert t2 + r2 == pytest.approx(1.0, abs=1e-4)
    assert tt2 + rt2 == pytest.approx(1.0, abs=1e-4)


def test_transpose_symmetric_kernel_reciprocity():
    grid = make_grid(-1.5, 1.5, 1201)
    A = gaussian_kernel(grid, 2.0 - 1.5j, 0.25, -0.2, 0.3)
    K = A + A.T
    a = solve_nonlocal(NonlocalKernel(grid=grid, K=K), 6.0)
    assert abs(a.T) == pytest.approx(abs(a.Tt), abs=1e-6)


def test_paper_kernel_half_demon():
    grid = make_grid(-1.5, 1.5, 2001)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    a = solve_nonlocal(build_kernel(params, grid), 8.0)
    t2, r2, tt2, rt2 = a.probabilities
    assert t2 == pytest.approx(0.5, abs=0.02)
    assert rt2 == pytest.approx(0.5, abs=0.03)
    assert r2 <= 0.02 and tt2 <= 0.02


def test_quadrature_order_at_least_two():
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    amps = {}
    for n in (751, 1501, 3001):
        grid = make_grid(-1.5, 1.5, n)
        amps[n] = solve_nonlocal(build_kernel(params, grid), 8.0)
    ref = amps[3001]
    err = {
        n: max(
            abs(getattr(amps[n], name) - getattr(ref, name))
            for name in ("T", "R", "Tt", "Rt")
        )
        for n in (751, 1501)
    }
    # halving h should cut the error by at least ~4 (order >= 2)
    assert err[1501] < err[751] / 3.0


def test_kernel_shape_validation():
    grid = make_grid(-1.5, 1.5, 101)
    with pytest.raises(ModelError):
        NonlocalKernel(grid=grid, K=np.zeros((50, 50)))


def test_kernel_edge_decay_validation():
    grid = make_grid(-1.5, 1.5, 101)
    with pytest.raises(ModelError):
        NonlocalKernel(grid=grid, K=np.ones((101, 101)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_non_finite_kernel_rejected(bad):
    grid = make_grid(-1.5, 1.5, 101)
    K = np.zeros((101, 101), dtype=complex)
    K[50, 40] = bad
    with pytest.raises(ModelError, match="finite"):
        NonlocalKernel(grid=grid, K=K)


def test_resolution_warning():
    grid = make_grid(-1.5, 1.5, 101)
    with pytest.warns(ResolutionWarning):
        solve_nonlocal(NonlocalKernel(grid=grid, K=np.zeros((101, 101))), 50.0)


def test_spacing_that_cannot_carry_the_wave_is_rejected():
    # k h = 3 > sqrt(6): the floor both solvers share, raised before the warning
    grid = make_grid(-1.5, 1.5, 9)
    kernel = NonlocalKernel(grid=grid, K=np.zeros((9, 9)))
    model = LocalPotentialModel(grid=grid, channels=ChannelSet((0.0,)), V=np.zeros((9, 1, 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(GridError, match="sqrt\\(6\\)"):
            solve_nonlocal(kernel, 8.0)
        with pytest.raises(GridError, match="sqrt\\(6\\)"):
            solve_local(model, 32.0)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
@pytest.mark.parametrize("entry", [(3, 5), (5, 3), (4, 4)])
def test_non_finite_system_matrix_is_a_solver_error(monkeypatch, bad, entry):
    """lu_factor and lu_solve do not scan for infs or NaNs; a non-finite
    system still fails as a solve.  An infinite pivot alone would give a
    finite psi."""
    module = sys.modules["demonscatter.nonlocal_solver"]

    def with_bad_entry(*args):
        M = _system_matrix(*args)
        M[entry] = bad
        return M

    monkeypatch.setattr(module, "_system_matrix", with_bad_entry)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SolverError):
            solve_nonlocal(paper_kernel(201), 8.0)


def test_singular_system_matrix_is_a_solver_error(monkeypatch):
    """lu_factor only warns on an exactly singular M; the non-finite psi
    that follows is the SolverError."""
    monkeypatch.setattr(sys.modules["demonscatter.nonlocal_solver"], "_system_matrix",
                        lambda Ks, *args: np.zeros(Ks.shape, dtype=complex))
    with pytest.warns(LinAlgWarning, match="exactly zero"), \
            np.errstate(divide="ignore", invalid="ignore"), \
            pytest.raises(SolverError, match="non-finite solution"):
        solve_nonlocal(paper_kernel(201), 8.0)


def test_wavenumber_must_be_positive():
    grid = make_grid(-1.5, 1.5, 101)
    kernel = NonlocalKernel(grid=grid, K=np.zeros((101, 101)))
    with pytest.raises(ValueError):
        solve_nonlocal(kernel, 0.0)


# ------------------------------------------------ Green's weights and sweeps


def green_row(k, h, n):
    """First row g of the symmetric Toeplitz Green's matrix: w[m] for m < n."""
    w0, c, rho = _green_weights(k, h)
    g = c * rho ** np.arange(n)
    g[0] = w0
    return g


def fft_toeplitz_product(g, A):
    """toeplitz(g, g) @ A by circulant embedding: the FFT product that the
    two-sweep recurrence replaced, kept here as an oracle."""
    n, block = len(g), 128
    L = next_fast_len(2 * n - 1)
    fc = fft(np.concatenate([g, np.zeros(L - 2 * n + 1), g[:0:-1]]))
    out = np.empty((A.shape[1], n), dtype=complex)
    for j in range(0, A.shape[1], block):
        fa = fft(A[:, j:j + block].T, n=L, axis=1)
        fa *= fc
        out[j:j + block] = ifft(fa, axis=1, overwrite_x=True)[:, :n]
    return out.T


@pytest.mark.parametrize("n", [61, 1201, 2001])
@pytest.mark.parametrize("product", [lambda g, A: toeplitz(g, g) @ A, fft_toeplitz_product],
                         ids=["dense", "fft"])
def test_system_matrix_matches_toeplitz_product(n, product):
    k, h = 8.0, 3.0 / (n - 1)
    rng = np.random.default_rng(n)
    K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    wy = _trapezoid_weights(n, h)
    ref = product(green_row(k, h, n), 2.0 * K * wy)
    # an exact power-of-two scale makes G A of order 1, so the identity in
    # M = I - G A costs no digits of the comparison
    scale = 2.0 ** -np.round(np.log2(np.max(np.abs(ref))))
    K *= scale
    ref *= scale
    M = _system_matrix(K, wy, k, h)
    assert M.flags.c_contiguous
    M.flat[::n + 1] -= 1.0
    M += ref
    assert np.max(np.abs(M)) <= 1e-12 * np.max(np.abs(ref))


def mp_green_weights(k, h):
    """(w[0], c) at 50 digits: w[0] = (kh - sin kh - 2i sin^2(kh/2)) / (h k^3)
    and c = -2i sin^2(kh/2) / (h k^3)."""
    with mpmath.workdps(50):
        k, h = mpmath.mpf(k), mpmath.mpf(h)
        kh, hk3 = k * h, h * k**3
        s2 = 2 * mpmath.sin(kh / 2) ** 2
        return complex(mpmath.mpc(kh - mpmath.sin(kh), -s2) / hk3), complex(-1j * s2 / hk3)


@pytest.mark.parametrize("k", [0.1, 1.0, 8.0])
@pytest.mark.parametrize("kh", np.logspace(-6, 0, 13))
def test_green_weights_match_mpmath(k, kh):
    # Re w[0] ~ kh^3 / 6 and Im w[0] = Im c ~ kh^2 / 2 (over h k^3) are each
    # correct to a few ulps; 1 - cos(kh) and kh - sin(kh) taken as
    # differences fail this by orders of magnitude
    w0, c, rho = _green_weights(k, kh / k)
    ref0, ref_c = mp_green_weights(k, kh / k)
    for got, ref in ((w0.real, ref0.real), (w0.imag, ref0.imag), (c.imag, ref_c.imag)):
        assert abs(got - ref) <= 1e-15 * abs(ref)
    assert c.real == 0.0
    assert rho == np.exp(1j * k * (kh / k))


# ------------------------------------------- solve on the kernel's support


def full_grid_solve(kernel, k):
    """The n x n Nystroem solve on the whole grid: the oracle for the solve
    on the kernel's support."""
    grid = kernel.grid
    n, h, x = grid.n, grid.spacing, grid.points
    wy = _trapezoid_weights(n, h)
    M = _system_matrix(kernel.K, wy, k, h)
    sqrt_k = np.sqrt(k)
    phi = np.empty((n, 2), dtype=complex)
    phi[:, 0] = np.exp(1j * k * x) / sqrt_k
    phi[:, 1] = np.exp(-1j * k * x) / sqrt_k
    psi = lu_solve(lu_factor(M.T, overwrite_a=True), phi, trans=1)
    v_psi = kernel.K @ (wy[:, None] * psi)
    e_minus = wy * np.exp(-1j * k * x)
    e_plus = wy * np.exp(1j * k * x)
    pref = sqrt_k / (1j * k)
    return (
        1.0 + pref * np.sum(e_minus * v_psi[:, 0]),
        pref * np.sum(e_plus * v_psi[:, 0]),
        1.0 + pref * np.sum(e_plus * v_psi[:, 1]),
        pref * np.sum(e_minus * v_psi[:, 1]),
    )


def amplitude_gap(kernel, k):
    a = solve_nonlocal(kernel, k)
    ref = full_grid_solve(kernel, k)
    return max(abs(x - y) for x, y in zip((a.T, a.R, a.Tt, a.Rt), ref))


def criterion_2_kernels(count, grid):
    """The first draws of the criterion-2 cross-check (same rng, same order)."""
    rng = np.random.default_rng(5)
    for _ in range(count):
        profile = RabiProfile(
            b=rng.uniform(20.0, 180.0),
            c=rng.uniform(20.0, 120.0),
            x0=rng.uniform(0.0, 0.35),
        )
        delta = rng.uniform(10.0, 140.0)
        yield build_kernel(
            OpticalParameters(delta=delta, gamma=0.0, profile=profile, E=32.0),
            grid,
        )


def window(x, a, b):
    """Smooth bump that is exactly zero outside [a, b]."""
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    s = np.clip((x - c) / r, -1.0, 1.0)
    return np.where(np.abs(s) < 1.0, np.cos(0.5 * np.pi * s) ** 4, 0.0)


def two_lobe_kernel(grid):
    """Two lobes coupled across an exactly zero gap |x| < 0.2."""
    x = grid.points
    u, v = window(x, -1.1, -0.2), window(x, 0.2, 0.9)
    return (
        (3.0 + 1.0j) * np.outer(u, u)
        + (1.0 - 2.0j) * np.outer(v, v)
        + 1.5j * np.outer(u, v)
    )


def rank_one_kernel(grid):
    """u v^T whose row support [-1.1, 0.3] and column support [-0.4, 1.2]
    differ; the solve's support is their hull."""
    x = grid.points
    u = window(x, -1.1, 0.3) * np.exp(2.0j * x)
    v = window(x, -0.4, 1.2) * (2.0 - x)
    return np.outer(u, v)


def test_whole_grid_support_is_bit_identical_to_full_solve():
    # end rows at 1e-13 kmax pass the 1e-12 edge rule but exceed eps kmax,
    # so the support is the whole grid and the solve is the n x n one
    n = 601
    grid = make_grid(-1.5, 1.5, n)
    K = gaussian_kernel(grid, 3.0 + 2.0j, 0.2, -0.1, 0.3)
    kmax = np.max(np.abs(K))
    K[0, :] = K[-1, :] = 1e-13 * kmax
    kernel = NonlocalKernel(grid=grid, K=K)
    assert kernel.support == (0, n)
    a = solve_nonlocal(kernel, 6.0)
    assert (a.T, a.R, a.Tt, a.Rt) == full_grid_solve(kernel, 6.0)


def test_support_solve_matches_full_solve_on_criterion_2_draws():
    grid = make_grid(-1.5, 1.5, 2001)
    for kernel in criterion_2_kernels(4, grid):
        assert kernel.support[1] - kernel.support[0] < grid.n
        assert amplitude_gap(kernel, 8.0) <= 1e-14


@pytest.mark.parametrize("gamma", [0.0, 3.0])
def test_support_solve_matches_full_solve_on_paper_kernel(gamma):
    grid = make_grid(-1.5, 1.5, 2001)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=gamma, profile=PAPER_PROFILE, E=32.0
    )
    assert amplitude_gap(build_kernel(params, grid), 8.0) <= 1e-14


def test_support_solve_matches_full_solve_on_symmetrized_kernels():
    grid = make_grid(-1.5, 1.5, 601)
    base = random_smooth(grid, np.random.default_rng(7))
    for cls in SymmetryClass:
        if cls is SymmetryClass.Trivial:
            continue
        kernel = NonlocalKernel(grid=grid, K=symmetrized(base, cls))
        assert kernel.support[1] - kernel.support[0] < grid.n
        assert amplitude_gap(kernel, 6.0) <= 1e-14


@pytest.mark.parametrize("make", [two_lobe_kernel, rank_one_kernel])
def test_support_solve_matches_full_solve_on_split_supports(make):
    grid = make_grid(-1.5, 1.5, 601)
    assert amplitude_gap(NonlocalKernel(grid=grid, K=make(grid)), 6.0) <= 1e-14


def test_support_is_hull_of_row_and_column_supports():
    grid = make_grid(-1.5, 1.5, 601)
    x = grid.points
    K = rank_one_kernel(grid)
    kernel = NonlocalKernel(grid=grid, K=K)
    lo, hi = kernel.support
    # row support from the u window, column support from the v window
    assert (x[lo], x[hi - 1]) == (x[x > -1.1][0], x[x < 1.2][-1])
    A = np.abs(K)
    cut = SUPPORT_REL * np.max(A)
    node_max = np.maximum(A.max(axis=1), A.max(axis=0))
    assert np.all(node_max[:lo] <= cut) and np.all(node_max[hi:] <= cut)
    assert node_max[lo] > cut and node_max[hi - 1] > cut


def test_paper_kernel_factors_only_its_support(monkeypatch):
    module = sys.modules["demonscatter.nonlocal_solver"]
    shapes = []

    def recording(a, **kwargs):
        shapes.append(a.shape)
        return lu_factor(a, **kwargs)

    monkeypatch.setattr(module, "lu_factor", recording)
    grid = make_grid(-1.5, 1.5, 2001)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    solve_nonlocal(build_kernel(params, grid), 8.0)
    assert shapes == [(1348, 1348)]


def test_kernel_construction_makes_no_n_by_n_temporary():
    grid = make_grid(-1.5, 1.5, 2001)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    tracemalloc.start()
    try:
        NonlocalKernel(grid=grid, K=K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8e6  # one complex n x n array is 64 MB at n = 2001


def test_solve_peak_memory_is_one_system_matrix():
    # the system matrix M is the one m x m array; no product or padded
    # temporary of that size is made beside it
    kernel = paper_kernel(2001)
    m = kernel.support[1] - kernel.support[0]
    tracemalloc.start()
    try:
        solve_nonlocal(kernel, 8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * m * m * 16, f"solve peak {peak / 1e6:.1f} MB at m = {m}"


@pytest.mark.parametrize("k", [np.nan, np.inf])
def test_wavenumber_must_be_finite(k):
    grid = make_grid(-1.5, 1.5, 101)
    kernel = NonlocalKernel(grid=grid, K=np.zeros((101, 101)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            solve_nonlocal(kernel, k)
