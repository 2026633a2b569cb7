import numpy as np
import pytest
from scipy.linalg import toeplitz

from demonscatter.channels import ChannelSet, extract_channel
from demonscatter.errors import ModelError, ResolutionWarning
from demonscatter.kernels import OpticalParameters, build_kernel
from demonscatter.local_solver import LocalPotentialModel, solve_local
from demonscatter.nonlocal_solver import (
    NonlocalKernel,
    _green_weights,
    _toeplitz_product,
    solve_nonlocal,
)
from demonscatter.units import RabiProfile, make_grid

PAPER_PROFILE = RabiProfile(b=165.874, c=103.876, x0=0.16455)


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
    a = solve_nonlocal(NonlocalKernel(grid=grid, K=np.zeros((401, 401))), 5.0)
    assert a.T == 1.0 and a.Tt == 1.0
    assert a.R == 0.0 and a.Rt == 0.0


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
        delta=91.211, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    a = solve_nonlocal(build_kernel(params, grid), 8.0)
    t2, r2, tt2, rt2 = a.probabilities
    assert t2 == pytest.approx(0.5, abs=0.02)
    assert rt2 == pytest.approx(0.5, abs=0.03)
    assert r2 <= 0.02 and tt2 <= 0.02


def test_quadrature_order_at_least_two():
    params = OpticalParameters(
        delta=91.211, gamma=0.0, profile=PAPER_PROFILE, E=32.0
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


def test_wavenumber_must_be_positive():
    grid = make_grid(-1.5, 1.5, 101)
    kernel = NonlocalKernel(grid=grid, K=np.zeros((101, 101)))
    with pytest.raises(ValueError):
        solve_nonlocal(kernel, 0.0)


@pytest.mark.parametrize("n", [61, 1201])
def test_toeplitz_product_matches_dense(n):
    rng = np.random.default_rng(n)
    g = _green_weights(8.0, 3.0 / (n - 1), n)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    ref = toeplitz(g, g) @ A
    assert np.max(np.abs(_toeplitz_product(g, A) - ref)) <= 1e-12 * np.max(np.abs(ref))
