"""Coupled-channel solver for local matrix potentials on a grid.

Solves the stationary multichannel Schroedinger equation

    -1/2 psi''(x) + (V(x) + diag(eps)) psi(x) = E psi(x)

with a Numerov-class boundary-value discretization: fourth-order interior
stencil plus radiation boundary conditions built from the *discrete* free
dispersion relation, so incoming/outgoing plane waves (and decaying closed
channel exponentials) are exact solutions of the discrete equations at the
grid ends.  The system is block tridiagonal, so it is assembled straight
into LAPACK band storage and factored once per (model, E); only the
incidences a caller reads are back-substituted (all of them in
`solve_local`, one channel's two in `solve_channel`).  A boundary-value solve
cannot overflow on strongly closed channels, unlike naive marching.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .channels import (
    ChannelAmplitudes,
    ChannelKinematics,
    ChannelSet,
    SMatrix,
    branch_sqrt,
    check_channel_index,
    kinematics,
    unitarity_defect,
)
from .errors import ModelError, SolverError
from .units import (
    END_DECAY_REL,
    Grid,
    RabiProfile,
    check_resolution,
    default_grid,
    rabi_eval,
)


@dataclass(frozen=True)
class LocalPotentialModel:
    """Matrix potential V(x) sampled on a grid, with channel thresholds.

    V has shape (n, N, N).  The potential must be negligible at both grid
    ends (radiation boundary conditions are imposed there).  The model is
    immutable: V is held as a read-only view of the caller's complex array
    (not a copy), so hermitian_flag, derived from the samples once, cannot
    go stale.  It is true for real thresholds and V = V^H within 1e-12 of
    the max-norm.
    """

    grid: Grid
    channels: ChannelSet
    V: np.ndarray
    hermitian_flag: bool = field(init=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=complex).view()
        V.flags.writeable = False
        n, nch = self.grid.n, self.channels.n_channels
        if V.shape != (n, nch, nch):
            raise ModelError(
                f"V must have shape {(n, nch, nch)}, got {V.shape}"
            )
        object.__setattr__(self, "V", V)
        vmax = np.max(np.abs(V))
        if not np.isfinite(vmax):
            raise ModelError("potential samples must be finite")
        if vmax > 0:
            end_mag = max(np.max(np.abs(V[0])), np.max(np.abs(V[-1])))
            if end_mag > END_DECAY_REL * vmax:
                raise ModelError(
                    f"potential not negligible at grid ends "
                    f"(|V_end|/|V|_max = {end_mag / vmax:.3e})"
                )
        eps_real = all(e.imag == 0 for e in self.channels.thresholds)
        object.__setattr__(self, "hermitian_flag", bool(eps_real and (
            vmax == 0 or np.max(np.abs(V - V.conj().transpose(0, 2, 1))) <= 1e-12 * vmax
        )))


@dataclass
class ScatterSolution:
    """S-matrix plus per-solve diagnostics."""

    S: SMatrix
    kinematics: ChannelKinematics
    unitarity_defect: float


def build_two_level_model(
    profile: RabiProfile,
    delta: float,
    gamma: float = 0.0,
    grid: Optional[Grid] = None,
) -> LocalPotentialModel:
    """Two-level atom crossing a laser beam, as a two-channel local model.

    Ground channel threshold 0; the eliminated level carries the detuning
    and decay as the complex threshold eps_2 = -(2 delta + i gamma)/2, so
    Feshbach elimination of channel 2 reproduces the separable nonlocal
    kernel with q^2 = 2 E (1 + mu).  The coupling is V_12 = Omega(x)/2,
    V_21 = Omega(x)*/2; the model is Hermitian iff gamma = 0.

    The reference design (optimize.PAPER_POINT at v = 8) depends on each
    of these conventions:

    - the profile's default width w = sqrt(2)/10;
    - the coupling Omega/2, not Omega;
    - the threshold eps_2 = -(2 delta + i gamma)/2, i.e. -delta at gamma = 0;
    - the energy E = v^2/2 of the ground channel (k = v);
    - the profile evaluated at -x, which puts the -i b lobe at +x0.

    With all five it is a ½T/R(0.48) device (D = 0.48).  Changing any
    single one moves some probability by more than 0.1; evaluating at +x
    swaps the two sides (D = -0.48).
    """
    if gamma < 0:
        raise ValueError(f"decay rate must be >= 0, got gamma={gamma}")
    if grid is None:
        grid = default_grid()
    eps2 = -(2.0 * delta + 1j * gamma) / 2.0
    channels = ChannelSet(thresholds=(0.0, eps2), labels=("ground", "excited"))
    # incidence-axis orientation: the -i*b lobe sits at +x0 (downstream of
    # left incidence), which makes the reference design left-transmitting
    omega = rabi_eval(profile, -grid.points)
    V = np.zeros((grid.n, 2, 2), dtype=complex)
    V[:, 0, 1] = omega / 2.0
    V[:, 1, 0] = np.conj(omega) / 2.0
    return LocalPotentialModel(grid=grid, channels=channels, V=V)


def _bloch_factors(k: np.ndarray, h: float) -> np.ndarray:
    """Discrete Numerov propagation factor lambda_j = e^{i K_j h} per channel.

    K_j solves the free Numerov dispersion; the root is chosen inside the
    unit circle (decaying/outgoing), or with positive imaginary part on it.
    """
    y = -(np.asarray(k, dtype=complex) * h) ** 2  # h^2 * W_free
    c = (1.0 + 5.0 * y / 12.0) / (1.0 - y / 12.0)
    root = np.sqrt(c * c - 1.0)
    lam1 = c + root
    lam2 = c - root
    lam = np.where(np.abs(lam1) <= np.abs(lam2), lam1, lam2)
    on_circle = np.abs(np.abs(lam) - 1.0) < 1e-13
    # open channel: both roots on the unit circle; rightward wave has Im > 0
    pick_pos = np.where(lam1.imag >= lam2.imag, lam1, lam2)
    return np.where(on_circle, pick_pos, lam)


def _assemble(model: LocalPotentialModel, E: float):
    """Numerov system in zgbtrf's band storage, and the per-channel Bloch factors.

    Returns (u, ab, lam): the system has u = 2 nch - 1 sub- and
    super-diagonals, and ab[2u + i - j, j] holds its entry A[i, j] (rows
    0..u-1 are the LU's fill-in space).
    """
    grid, channels = model.grid, model.channels
    n, nch = grid.n, channels.n_channels
    h = grid.spacing
    eps = np.array(channels.thresholds, dtype=complex)

    W = 2.0 * model.V + (2.0 * (eps - E))[None, :, None] * np.eye(nch)[None, :, :]
    eye = np.eye(nch, dtype=complex)
    P = eye[None, :, :] - (h * h / 12.0) * W        # multiplies neighbours
    Q = -(2.0 * eye[None, :, :] + (10.0 * h * h / 12.0) * W)  # multiplies centre

    lam = _bloch_factors(branch_sqrt(2.0 * (E - eps)), h)

    # interior row m*nch + a couples to column (m + s)*nch + b through the
    # block entry (a, b) of P, Q, P at shift s = -1, 0, +1
    u = 2 * nch - 1
    ab = np.zeros((3 * u + 1, n * nch), dtype=complex, order="F")
    for s, blocks in ((-1, P[:-2]), (0, Q[1:-1]), (1, P[2:])):
        for a in range(nch):
            for b in range(nch):
                start = (1 + s) * nch + b
                ab[2 * u + a - b - s * nch, start:start + (n - 2) * nch:nch] = blocks[:, a, b]

    # boundary rows: psi_j(1) - lam_j^-1 psi_j(0) and
    #                psi_j(n-2) - lam_j^-1 psi_j(n-1)
    top = (n - 1) * nch
    ab[2 * u - nch, nch:2 * nch] = 1.0
    ab[2 * u + nch, top - nch:top] = 1.0
    ab[2 * u, :nch] = ab[2 * u, top:] = -1.0 / lam
    return u, ab, lam


def _factor(model: LocalPotentialModel, E: float):
    """Kinematics at E and the banded LU (u, lu, piv, lam) of the Numerov system."""
    kin = kinematics(model.channels, E)
    check_resolution(np.max(kin.k_open), model.grid.spacing)
    u, ab, lam = _assemble(model, E)
    if not np.all(np.isfinite(ab)):
        raise ValueError("array must not contain infs or NaNs")
    lu, piv, info = zgbtrf(ab, u, u, overwrite_ab=1)
    if info > 0:
        raise SolverError("singular linear system: singular matrix")
    return kin, (u, lu, piv, lam)


def _columns(model: LocalPotentialModel, kin: ChannelKinematics, factors, cols):
    """Blocks (T, R, Tt, Rt) of S, n_open x len(cols) each, back-substituting
    only the left and right incidences of the open channels cols."""
    u, lu, piv, lam = factors
    grid, nch = model.grid, model.channels.n_channels
    top = (grid.n - 1) * nch
    open_idx, k_open = kin.open_indices, kin.k_open
    inc = open_idx[cols]
    m = len(inc)
    B = np.zeros((grid.n * nch, 2 * m), dtype=complex, order="F")
    src = (lam[inc] - 1.0 / lam[inc]) / np.sqrt(k_open[cols])
    if not np.all(np.isfinite(src)):
        raise ValueError("array must not contain infs or NaNs")
    B[inc, np.arange(m)] = src              # left incidence, bottom BC row
    B[top + inc, np.arange(m, 2 * m)] = src  # right incidence, top BC row
    psi, _info = zgbtrs(lu, u, u, B, piv, overwrite_b=1)
    if not np.all(np.isfinite(psi)):
        raise SolverError("non-finite solution; near-singular linear system")

    # outgoing coefficients at the ends (incident wave removed), flux
    # normalized and converted to e^{+-ikx} waves
    left, right = psi[open_idx], psi[top + open_idx]
    incident = np.diag(1.0 / np.sqrt(k_open))[:, cols]
    sqrt_k = np.sqrt(k_open)[:, None]
    ph_left = np.exp(1j * k_open * grid.x_min)     # e^{+ikx} at the left end
    ph_right = np.exp(-1j * k_open * grid.x_max)   # e^{-ikx} at the right end
    return (
        right[:, :m] * sqrt_k * ph_right[:, None] * ph_left[cols][None, :],
        (left[:, :m] - incident) * sqrt_k * ph_left[:, None] * ph_left[cols][None, :],
        left[:, m:] * sqrt_k * ph_left[:, None] * ph_right[cols][None, :],
        (right[:, m:] - incident) * sqrt_k * ph_right[:, None] * ph_right[cols][None, :],
    )


def solve_local(model: LocalPotentialModel, E: float) -> ScatterSolution:
    """Flux-normalized S-matrix at total energy E, with its unitarity defect."""
    kin, factors = _factor(model, E)
    S = SMatrix(*_columns(model, kin, factors, np.arange(kin.n_open)))
    defect = unitarity_defect(S) if model.hermitian_flag else float("nan")
    return ScatterSolution(S=S, kinematics=kin, unitarity_defect=defect)


def solve_channel(model: LocalPotentialModel, E: float, i0: int = 0) -> ChannelAmplitudes:
    """extract_channel(solve_local(model, E).S, i0), bit for bit, from only
    open channel i0's two incidences: no rest of S and no unitarity defect."""
    kin, factors = _factor(model, E)
    check_channel_index(i0, kin.n_open)
    return ChannelAmplitudes(*(complex(block[i0, 0])
                               for block in _columns(model, kin, factors, [i0])))
