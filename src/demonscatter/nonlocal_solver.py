"""Single-channel scattering on a nonlocal complex kernel V(x, y).

Nystroem discretization of the Lippmann-Schwinger equation with the 1D
outgoing-wave Green's function G(x, x') = e^{ik|x-x'|}/(2ik).  The kink of
the Green's function at x = x' is handled by product integration (exact
integration of e^{ik|s|} against piecewise-linear hats); the smooth kernel
integral uses trapezoidal weights.  The Green's matrix is semiseparable, so
its product with the kernel is two row sweeps, with no FFT and no m x m
temporary.  One dense LU factorization serves both incidence directions;
right incidence is a mirrored incident wave, not a kernel transposition.

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
from scipy.linalg import lu_factor, lu_solve

from .channels import ChannelAmplitudes
from .errors import ModelError, SolverError
from .units import SUPPORT_REL, Grid, _check_end_decay, check_resolution

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
        kmax = float(np.max(row_max))
        _check_end_decay("kernel", kmax, max(row_max[0], row_max[-1], col_max[0], col_max[-1]))
        object.__setattr__(self, "kmax", kmax)
        # the hull of the row and column supports; a zero kernel keeps one
        # node, so its solve still runs
        nodes = np.flatnonzero(np.maximum(row_max, col_max) > SUPPORT_REL * kmax)
        support = (int(nodes[0]), int(nodes[-1]) + 1) if len(nodes) else (0, 1)
        object.__setattr__(self, "support", support)


def _green_weights(k: float, h: float):
    """Product-integration weights of the outgoing Green's function.

    w[m] = integral of e^{ik|x|}/(2ik) against the unit hat centred m cells
    away; exact for piecewise-linear densities, so the |x-x'| kink costs no
    accuracy order.  Returns (w[0], c, rho): off the diagonal w[m] = c rho^m
    with rho = e^{ikh}.  No weight loses digits to cancellation: 1 - cos(kh)
    is 2 sin^2(kh/2), and kh - sin(kh) is a Taylor series below kh = 1.
    """
    kh = k * h
    s2 = 2.0 * np.sin(kh / 2.0) ** 2  # 1 - cos(kh)
    if kh < 1.0:  # the first omitted term is kh^19/19!
        d = 1.0
        for j in range(16, 2, -2):
            d = 1.0 - kh * kh / (j * (j + 1)) * d
        d *= kh**3 / 6.0
    else:
        d = kh - np.sin(kh)
    return complex(d, -s2) / (h * k**3), -1j * s2 / (h * k**3), np.exp(1j * kh)


def _system_matrix(Ks: np.ndarray, wy: np.ndarray, k: float, h: float) -> np.ndarray:
    """M = I - G A with A = 2 Ks diag(wy), C-ordered, built row by row.

    G, the symmetric Toeplitz matrix of the Green's weights, is
    semiseparable: (G A)_i = c (L_i + U_i) + (w[0] - c) A_i with the forward
    sweep L_i = rho L_{i-1} + A_i and the backward sweep
    U_i = rho (U_{i+1} + A_{i+1}).  Each sweep carries one row; M is the
    only m x m array made.
    """
    w0, c, rho = _green_weights(k, h)
    m = len(wy)
    a = -2.0 * c * wy          # row i of -c A is Ks[i] * a
    b = -2.0 * (w0 - c) * wy   # row i of -(w[0] - c) A is Ks[i] * b
    M = np.empty((m, m), dtype=complex)
    row, u = np.empty(m, dtype=complex), np.zeros(m, dtype=complex)
    np.multiply(Ks[0], a, out=M[0])
    for i in range(1, m):      # M[i] = -c L_i
        np.multiply(M[i - 1], rho, out=M[i])
        np.multiply(Ks[i], a, out=row)
        M[i] += row
    for i in range(m - 1, -1, -1):  # u = -c U_i
        np.multiply(Ks[i], a, out=row)
        M[i] += u
        u += row
        u *= rho
        np.multiply(Ks[i], b, out=row)
        M[i] += row
    M.flat[:: m + 1] += 1.0
    return M


def _trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2.0
    return w


def check_wavenumber(k: float):
    """Raise ValueError unless k is finite and k^3, which the Green's weights
    divide by, is a positive normal float."""
    if not (np.isfinite(k) and k > 0 and k**3 >= np.finfo(float).tiny):
        raise ValueError(f"wavenumber must be positive and finite, with k^3 >= 2.2e-308, "
                         f"got k={k}")


def solve_nonlocal(kernel: NonlocalKernel, k: float) -> ChannelAmplitudes:
    """Flux-normalized amplitudes T, R, Tt, Rt at wavenumber k > 0."""
    check_wavenumber(k)
    grid = kernel.grid
    h = grid.spacing
    check_resolution(k, h)

    lo, hi = kernel.support
    x = grid.points[lo:hi]
    wy, Ks = _trapezoid_weights(grid.n, h)[lo:hi], kernel.K[lo:hi, lo:hi]
    M = _system_matrix(Ks, wy, k, h)

    sqrt_k = np.sqrt(k)
    plus, minus = np.exp(1j * k * x), np.exp(-1j * k * x)
    phi = np.stack((plus, minus), axis=1) / sqrt_k  # left incidence, right incidence
    # M is C-ordered, so M.T is F-contiguous: LAPACK factors it in place.
    # K was checked finite when the kernel was built, so neither call scans
    # its input again.
    lu = lu_factor(M.T, overwrite_a=True, check_finite=False)
    psi = lu_solve(lu, phi, trans=1, check_finite=False)
    # a non-finite entry of M stays non-finite in the LU and spreads to psi,
    # except an infinite pivot, which zeroes its unknown: check both.  An
    # exactly singular M only warns in lu_factor and shows up here too.
    if not (np.isfinite(psi).all() and np.isfinite(lu[0].diagonal()).all()):
        raise SolverError("non-finite solution; near-singular linear system")

    v_psi = Ks @ (wy[:, None] * psi)                 # (V psi)(x_l), both waves
    e_minus, e_plus = wy * minus, wy * plus          # smooth integrand
    pref = sqrt_k / (1j * k)

    T = 1.0 + pref * np.sum(e_minus * v_psi[:, 0])
    R = pref * np.sum(e_plus * v_psi[:, 0])
    Tt = 1.0 + pref * np.sum(e_plus * v_psi[:, 1])
    Rt = pref * np.sum(e_minus * v_psi[:, 1])
    return ChannelAmplitudes(T=complex(T), R=complex(R), Tt=complex(Tt), Rt=complex(Rt))
