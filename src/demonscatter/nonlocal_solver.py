"""Single-channel scattering on a nonlocal complex kernel V(x, y).

Nystroem discretization of the Lippmann-Schwinger equation with the 1D
outgoing-wave Green's function G(x, x') = e^{ik|x-x'|}/(2ik).  The kink of
the Green's function at x = x' is handled by product integration (exact
integration of e^{ik|s|} against piecewise-linear hats); the smooth kernel
integral uses trapezoidal weights.  One dense LU factorization serves both
incidence directions; right incidence is a mirrored incident wave, not a
kernel transposition.

The system is built and solved on the kernel's support only: the node
interval [lo, hi) outside which every row and column of K is at most
SUPPORT_REL times its max-norm.  With those entries set to zero the full
system is block-triangular, and the unknowns outside the support feed
neither V psi nor the amplitudes, so the m x m solve (m = hi - lo) is the
full solve of that kernel, not an approximation.  A kernel whose support is
the whole grid runs the full n x n solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np
from scipy.fft import fft, ifft, next_fast_len
from scipy.linalg import lu_factor, lu_solve

from .channels import ChannelAmplitudes
from .errors import ModelError, SolverError
from .units import END_DECAY_REL, Grid, check_resolution

#: Relative magnitude below which a row or column of K lies off the
#: kernel's support: float64 rounding of the largest entry, so dropping it
#: is within the dense LU's own backward error.
SUPPORT_REL = np.finfo(float).eps

#: Rows of K per slab of the max-modulus pass (and of symmetry's residual pass).
SLAB = 16


@dataclass(frozen=True)
class NonlocalKernel:
    """Complex kernel samples K[i, j] = V(x_i, x_j) on a square grid.

    The kernel is immutable: K is held as a read-only view of the caller's
    complex array (not a copy), so support and kmax, derived from the
    samples once, cannot go stale.
    """

    grid: Grid
    K: np.ndarray
    #: Node interval (lo, hi) of the kernel's support, derived from K.
    support: Tuple[int, int] = field(init=False, repr=False, compare=False)
    #: Max-norm max |K|, derived from K.
    kmax: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K = np.asarray(self.K, dtype=complex).view()
        K.flags.writeable = False
        n = self.grid.n
        if K.shape != (n, n):
            raise ModelError(f"kernel must be {n}x{n}, got {K.shape}")
        object.__setattr__(self, "K", K)
        # row and column max-moduli, SLAB rows at a time: no n x n temporary
        row_max, col_max = np.empty(n), np.zeros(n)
        for a in range(0, n, SLAB):
            slab = np.abs(K[a:a + SLAB])
            row_max[a:a + SLAB] = np.max(slab, axis=1)
            np.maximum(col_max, np.max(slab, axis=0), out=col_max)
        if not np.all(np.isfinite(row_max)):  # np.max propagates NaN
            raise ModelError("kernel samples must be finite")
        kmax = float(np.max(row_max))
        object.__setattr__(self, "kmax", kmax)
        if kmax > 0:
            edge = max(row_max[0], row_max[-1], col_max[0], col_max[-1])
            if edge > END_DECAY_REL * kmax:
                raise ModelError(
                    f"kernel not negligible at grid ends "
                    f"(edge/max = {edge / kmax:.3e})"
                )
        # the hull of the row and column supports; a zero kernel keeps one
        # node, so its solve still runs
        nodes = np.flatnonzero(np.maximum(row_max, col_max) > SUPPORT_REL * kmax)
        support = (int(nodes[0]), int(nodes[-1]) + 1) if len(nodes) else (0, 1)
        object.__setattr__(self, "support", support)


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
    if not (np.isfinite(k) and k > 0):
        raise ValueError(f"wavenumber must be positive and finite, got k={k}")
    grid = kernel.grid
    h = grid.spacing
    check_resolution(k, h)

    lo, hi = kernel.support
    m, x = hi - lo, grid.points[lo:hi]
    wy = _trapezoid_weights(grid.n, h)[lo:hi]
    action = 2.0 * kernel.K[lo:hi, lo:hi] * wy[None, :]  # psi -> 2 (V psi)
    # M = I - G @ action, G the symmetric (not Hermitian) Toeplitz matrix
    # of the Green's function weights
    M = _toeplitz_product(_green_weights(k, h, m), action)
    M *= -1.0
    M.flat[::m + 1] += 1.0

    sqrt_k = np.sqrt(k)
    phi = np.empty((m, 2), dtype=complex)
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
