"""Single-channel scattering on a nonlocal complex kernel V(x, y).

Nystroem discretization of the Lippmann-Schwinger equation with the 1D
outgoing-wave Green's function G(x, x') = e^{ik|x-x'|}/(2ik).  The kink of
the Green's function at x = x' is handled by product integration (exact
integration of e^{ik|s|} against piecewise-linear hats); the smooth kernel
integral uses trapezoidal weights.  One dense LU factorization serves both
incidence directions; right incidence is a mirrored incident wave, not a
kernel transposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.linalg import lu_factor, lu_solve

from .channels import ChannelAmplitudes
from .errors import ModelError, ResolutionWarning, SolverError
from .units import Grid

#: Minimum points per wavelength before a ResolutionWarning.
MIN_POINTS_PER_WAVELENGTH = 20

#: Relative magnitude allowed for the kernel at the grid ends.
END_DECAY_REL = 1e-12


@dataclass
class NonlocalKernel:
    """Complex kernel samples K[i, j] = V(x_i, x_j) on a square grid.

    The optional descriptor records the closed-form optical parameters the
    kernel was built from, so it can be regenerated at other resolutions or
    energies (the kernel is energy dependent).
    """

    grid: Grid
    K: np.ndarray
    descriptor: Optional[object] = field(default=None, repr=False)

    def __post_init__(self):
        K = np.asarray(self.K, dtype=complex)
        n = self.grid.n
        if K.shape != (n, n):
            raise ModelError(f"kernel must be {n}x{n}, got {K.shape}")
        self.K = K
        kmax = np.max(np.abs(K))
        if not np.isfinite(kmax):
            raise ModelError("kernel samples must be finite")
        if kmax > 0:
            edge = max(
                np.max(np.abs(K[0, :])),
                np.max(np.abs(K[-1, :])),
                np.max(np.abs(K[:, 0])),
                np.max(np.abs(K[:, -1])),
            )
            if edge > END_DECAY_REL * kmax:
                raise ModelError(
                    f"kernel not negligible at grid ends "
                    f"(edge/max = {edge / kmax:.3e})"
                )


def _green_weights(k: float, h: float, n: int) -> np.ndarray:
    """Product-integration weights of the outgoing Green's function.

    w[m] = integral of e^{ik|x|}/(2ik) against the unit hat centred m cells
    away; exact for piecewise-linear densities, so the |x-x'| kink costs no
    accuracy order.
    """
    kh = k * h
    m = np.arange(n)
    f_hat = 2.0 * (1.0 - np.cos(kh)) / (h * k * k)
    w = np.exp(1j * kh * m) * f_hat
    w[0] = 2.0 * (1j / k - (np.exp(1j * kh) - 1.0) / (h * k * k))
    return w / (2j * k)


def _toeplitz_product(g: np.ndarray, A: np.ndarray) -> np.ndarray:
    """toeplitz(g, g) @ A by circulant embedding, without forming the matrix.

    The symmetric Toeplitz matrix of first column g is the leading n x n
    block of the circulant of c = [g, 0..., g[:0:-1]], which FFTs
    diagonalize.  A is transformed 128 columns at a time, so no padded
    temporary exceeds 128 x len(c).  The result is Fortran-ordered.
    """
    n, block = len(g), 128
    L = next_fast_len(2 * n - 1)
    fc = fft(np.concatenate([g, np.zeros(L - 2 * n + 1), g[:0:-1]]))
    out = np.empty((A.shape[1], n), dtype=complex)
    for j in range(0, A.shape[1], block):
        fa = fft(A[:, j:j + block].T, n=L, axis=1)
        fa *= fc
        out[j:j + block] = ifft(fa, axis=1, overwrite_x=True)[:, :n]
    return out.T


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def solve_nonlocal(kernel: NonlocalKernel, k: float) -> ChannelAmplitudes:
    """Flux-normalized amplitudes T, R, Tt, Rt at wavenumber k > 0."""
    if k <= 0:
        raise ValueError(f"wavenumber must be positive, got k={k}")
    grid = kernel.grid
    n, h, x = grid.n, grid.spacing, grid.points
    ppw = (2.0 * np.pi / k) / h
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        warnings.warn(
            f"only {ppw:.1f} points per wavelength "
            f"(< {MIN_POINTS_PER_WAVELENGTH}); refine the grid",
            ResolutionWarning,
        )

    wy = _trapezoid_weights(n, h)
    action = 2.0 * kernel.K * wy[None, :]          # psi -> 2 (V psi) samples
    # M = I - G @ action, G the symmetric (not Hermitian) Toeplitz matrix
    # of the Green's function weights
    M = _toeplitz_product(_green_weights(k, h, n), action)
    M *= -1.0
    M.flat[::n + 1] += 1.0

    sqrt_k = np.sqrt(k)
    phi = np.empty((n, 2), dtype=complex)
    phi[:, 0] = np.exp(1j * k * x) / sqrt_k        # left incidence
    phi[:, 1] = np.exp(-1j * k * x) / sqrt_k       # right incidence
    try:
        lu = lu_factor(M, overwrite_a=True)
        psi = lu_solve(lu, phi)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular linear system: {exc}") from exc
    if not np.all(np.isfinite(psi)):
        raise SolverError("non-finite solution; near-singular linear system")

    v_psi = (action @ psi) / 2.0                    # (V psi)(x_l), both waves
    e_minus = wy * np.exp(-1j * k * x)               # smooth integrand
    e_plus = wy * np.exp(1j * k * x)
    pref = sqrt_k / (1j * k)

    T = 1.0 + pref * np.sum(e_minus * v_psi[:, 0])
    R = pref * np.sum(e_plus * v_psi[:, 0])
    Tt = 1.0 + pref * np.sum(e_plus * v_psi[:, 1])
    Rt = pref * np.sum(e_minus * v_psi[:, 1])
    return ChannelAmplitudes(T=complex(T), R=complex(R), Tt=complex(Tt), Rt=complex(Rt))
