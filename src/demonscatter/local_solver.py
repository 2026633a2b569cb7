"""Coupled-channel solver for local matrix potentials on a grid.

Solves the stationary multichannel Schroedinger equation

    -1/2 psi''(x) + (V(x) + diag(eps)) psi(x) = E psi(x)

with a Numerov-class boundary-value discretization: fourth-order interior
stencil plus radiation boundary conditions built from the *discrete* free
dispersion relation, so incoming/outgoing plane waves (and decaying closed
channel exponentials) are exact solutions of the discrete equations where
V vanishes.  So the band covers only the potential's support (the model's
`support`), and exact Bloch phases lambda^j carry its boundary rows' source
and end values to the grid ends (Arnold, Ehrhardt & Sofronov, Commun. Math.
Sci. 1, 501 (2003)).  One function, `_bloch`, gives the boundary rows, the
incidence source and the gradient that dispersion without cancellation, so
they keep full precision just above a channel threshold.  The system is block
tridiagonal, so a stack of models on one grid at one E is one block-diagonal
band, assembled at once and solved by one zgbtrf and one zgbtrs for only the
incidences a caller reads (all open channels' in `solve_local`, channel 0's
two in `solve_channel`; both are stacks of one).  A boundary-value solve
cannot overflow on strongly closed channels, unlike naive marching, and scalar
checks on h, the model's vmax = max|V| and |E - eps_j| show the band finite
before it is built (`_factor`).

`solve_channel_jacobian` adds the exact derivatives of channel 0's
amplitudes with respect to parameters of V and of the thresholds of channels
>= 1, by the adjoint method on the same LU: one transposed back-substitution
for the channel's two end rows, then products with the analytic derivative of
the stencil and of the boundary rows' Bloch factors, scaled to amplitudes by
`_columns`' own map.  `two_level_derivatives` gives those parameter
derivatives for the two-level model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Tuple

import numpy as np
from scipy.linalg.lapack import zgbtrf, zgbtrs

from .channels import (
    ChannelAmplitudes,
    ChannelSet,
    SMatrix,
    kinematics,
    unitarity_defect,
)
from .errors import GridError, ModelError, SolverError, ThresholdSingularityError
from .units import (
    END_DECAY_REL,
    SUPPORT_REL,
    Grid,
    RabiProfile,
    _check_end_decay,
    _rabi,
    check_resolution,
    default_grid,
    rabi_gradient,
)


@dataclass(frozen=True)
class LocalPotentialModel:
    """Matrix potential V(x) sampled on a grid, with channel thresholds.

    V has shape (n, N, N).  The potential must be negligible at both grid
    ends (radiation boundary conditions are imposed there).  The model is
    immutable: V is held as a read-only view of the caller's complex array
    (not a copy), so vmax, support and hermitian_flag, derived from the
    samples once (hermitian_flag on first use), cannot go stale.
    """

    grid: Grid
    channels: ChannelSet
    V: np.ndarray
    #: Max-norm max |V|, derived from V; it bounds the Numerov band (_factor).
    vmax: float = field(init=False, repr=False, compare=False)
    #: Node interval (lo, hi) of the Numerov band, derived from V: _covering
    #: the nodes with max_ab |V_ab| > SUPPORT_REL vmax; (0, n) for a zero V.
    support: Tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        V = np.asarray(self.V, dtype=complex).view()
        V.flags.writeable = False
        n, nch = self.grid.n, self.channels.n_channels
        if V.shape != (n, nch, nch):
            raise ModelError(
                f"V must have shape {(n, nch, nch)}, got {V.shape}"
            )
        object.__setattr__(self, "V", V)
        node_max = np.abs(V).max(axis=(1, 2))
        vmax = float(node_max.max())
        _check_end_decay("potential", vmax, max(node_max[0], node_max[-1]))
        object.__setattr__(self, "vmax", vmax)
        support = _covering(node_max > SUPPORT_REL * vmax, n, 0) if vmax else (0, n)
        object.__setattr__(self, "support", support)

    @cached_property
    def hermitian_flag(self) -> bool:
        """True for real thresholds and V = V^H within 1e-12 of the max-norm."""
        V, vmax = self.V, self.vmax
        return bool(all(e.imag == 0 for e in self.channels.thresholds) and (
            vmax == 0 or np.max(np.abs(V - V.conj().transpose(0, 2, 1))) <= 1e-12 * vmax))


def _covering(above: np.ndarray, lo: int, hi: int) -> Tuple[int, int]:
    """(lo, hi) widened, within the grid, to 2 nodes left and 3 right of each
    node flagged in above: the Numerov rows a band on it drops or replaces by
    boundary rows (nodes <= lo, >= hi - 1) involve no flagged node."""
    nodes = np.flatnonzero(above)
    if len(nodes):
        lo, hi = min(lo, max(int(nodes[0]) - 2, 0)), max(hi, min(int(nodes[-1]) + 3, len(above)))
    return lo, hi


@dataclass
class ScatterSolution:
    """S-matrix plus per-solve diagnostics."""

    S: SMatrix
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

    A spacing above sqrt(2) w, which a lobe's core g >= e^{-1/2} can miss,
    raises GridError; a profile with b or c nonzero that vanishes on the grid, ModelError.
    """
    return _two_level_models([profile], [delta], gamma, grid)[0][0]


def _two_level_models(profiles, deltas, gamma: float = 0.0, grid: Optional[Grid] = None):
    """build_two_level_model of each (profile, delta), sampled in one pass, and their lobes."""
    if gamma < 0:
        raise ValueError(f"decay rate must be >= 0, got gamma={gamma}")
    if grid is None:
        grid = default_grid()
    # incidence-axis orientation: the -i*b lobe sits at +x0 (downstream of
    # left incidence), which makes the reference design left-transmitting
    omega, lobes = _rabi(profiles, -grid.points)
    V = np.zeros((len(profiles), 2, 2, grid.n), dtype=complex)  # channel-major, for _assemble
    np.divide(omega, 2.0, out=V[:, 0, 1])
    np.divide(np.conj(omega, out=omega), 2.0, out=V[:, 1, 0])
    models = []
    for p, delta, v in zip(profiles, deltas, V):
        if grid.spacing > math.sqrt(2.0) * p.w:
            raise GridError(f"spacing h={grid.spacing:.4g} exceeds sqrt(2) times the profile "
                            f"width w={p.w:.4g}; refine the grid")
        channels = ChannelSet(thresholds=(0.0, -(2.0 * delta + 1j * gamma) / 2.0))
        models.append(LocalPotentialModel(grid=grid, channels=channels, V=v.transpose(2, 0, 1)))
        if models[-1].vmax == 0 and (p.b or p.c):
            raise ModelError(f"profile (x0={p.x0:.4g}, w={p.w:.4g}) vanishes on the grid")
    return models, lobes


def two_level_derivatives(profile: RabiProfile, lobes):
    """(dV, deps): the derivatives of build_two_level_model(profile, delta,
    gamma, grid) with respect to p = (b, c, x0, delta), as solve_channel_jacobian
    reads them, from the profile's lobes (_two_level_models).  Only the coupling
    V_12 = Omega/2, V_21 = Omega*/2 depends on b, c and x0, and only the
    threshold eps_2 = -delta - i gamma/2 on delta."""
    d_coupling = np.zeros((4,) + lobes.shape[1:], dtype=complex)
    np.multiply(rabi_gradient(profile, lobes), 0.5, out=d_coupling[:3])
    deps = np.zeros((4, 2))
    deps[3, 1] = -1.0
    return {(0, 1): d_coupling, (1, 0): d_coupling.conj()}, deps


#: Bound on max(1, h^2) (max|V| + max_j |E - eps_j|) for a finite band (_factor).
BAND_LIMIT = 1e300


def _bloch(k: np.ndarray, h: float):
    """Free Numerov dispersion per channel: (lambda, s, g) with the Bloch
    factor lambda = e^{iKh} = c + i s, s = sin Kh and g = d(-1/lambda)/d eps_j.

    lambda^2 - 2 c lambda + 1 = 0 with c = (1 + 5y/12)/(1 - y/12), y = -(kh)^2.
    All three come from d = c - 1 = (y/2)/(1 - y/12), exact where c rounds to
    1 near a threshold: s^2 = -d (2 + d), and g = c'/(i s lambda) with
    c' = dc/d eps_j = h^2 (6 + d)^2/36.  The root has |lambda| <= 1 (decaying
    or outgoing): |c + is|^2 - |c - is|^2 = 4 Im(c conj(s)), so s flips where
    that is positive; it is exactly 0 for an open channel, which keeps s > 0.
    """
    y = -(np.asarray(k, dtype=complex) * h) ** 2  # h^2 * W_free
    d = 0.5 * y / (1.0 - y / 12.0)
    c = 1.0 + d
    s = np.sqrt(-d * (2.0 + d))
    np.negative(s, out=s, where=(c * s.conj()).imag > 0)
    lam = c + 1j * s
    with np.errstate(divide="ignore", invalid="ignore"):  # g is infinite at k = 0
        return lam, s, h * h * (6.0 + d) ** 2 / (36j * s * lam)


def _assemble(models, E: float, k: np.ndarray, supports):
    """Numerov systems of a stack of models on one grid, member i's on the
    node interval supports[i] = (lo, hi) at energy E where its channel
    wavenumbers are k[i], as one block-diagonal system in zgbtrf's band
    storage, and _bloch(k, h).

    Returns (u, ab, ends, bloch): the system has u = 2 nch - 1 sub- and
    super-diagonals, and ab[2u + r - c, c] holds A[r, c] (rows 0..u-1 are the
    LU's fill-in space).  The members' nodes lo..hi-1 run one after another,
    member i's from node ends[i][0] to ends[i][1]; no entry couples two members.
    """
    grid, nch = models[0].grid, models[0].channels.n_channels
    h, sizes = grid.spacing, [hi - lo for lo, hi in supports]
    *first, n = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    ends = [(i, i + size - 1) for i, size in zip(first, sizes)]
    # column c nch + b of A holds, in rows (c - 1) nch .. (c + 2) nch - 1,
    # entry (a, b) of P[c] = I - (h^2/12) W[c], Q[c] = -2 I - (10 h^2/12) W[c]
    # and P[c], W = 2 V + 2 diag(eps - E): cols[b, t nch + a, c] for t = 0, 1, 2
    cols = np.empty((nch, 3 * nch, n), dtype=complex)
    P, Q, P2 = (cols[:, t * nch:(t + 1) * nch].transpose(1, 0, 2) for t in range(3))
    diagonals = cols.reshape(3 * nch * nch, n)  # row b 3 nch + t nch + a
    eps = np.array([model.channels.thresholds for model in models], dtype=complex)
    for model, (lo, hi), i, e in zip(models, supports, first, 2.0 * (eps - E)):  # W, in P
        np.multiply(model.V[lo:hi].transpose(1, 2, 0), 2.0, out=P[..., i:i + hi - lo])
        diagonals[::3 * nch + 1, i:i + hi - lo] += e[:, None]
    np.multiply(P, -10.0 * h * h / 12.0, out=Q)
    np.multiply(P, -h * h / 12.0, out=P)
    diagonals[::3 * nch + 1] += 1.0     # P's diagonal
    diagonals[nch::3 * nch + 1] -= 2.0  # Q's diagonal
    P2[...] = P
    # a member's end nodes are the boundary rows
    # psi_j(1) - psi_j(0)/lam_j and psi_j(n-2) - psi_j(n-1)/lam_j
    bloch = _bloch(k, h)
    for (i, j), lam in zip(ends, bloch[0]):
        P[..., i] = P2[..., j] = 0.0  # rows outside the member
        P[..., i + 1] = P2[..., j - 1] = np.eye(nch)
        Q[..., i] = Q[..., j] = np.diag(-1.0 / lam)

    u = 2 * nch - 1
    rows = 3 * u + 1
    ab = np.zeros((rows, n * nch), dtype=complex, order="F")
    # column c nch + b's run starts at ab[2u - nch - b, c nch + b]
    band = np.ndarray(cols.shape, dtype=complex, buffer=ab, offset=(2 * u - nch) * ab.itemsize,
                      strides=tuple(ab.itemsize * s for s in (rows - 1, 1, rows * nch)))
    band[...] = cols
    return u, ab, ends, bloch


def _factor(models, E: float, supports):
    """Open channels at E of a stack of models on one grid and the banded LU
    (u, lu, piv, ends, k, bloch, supports) of their one Numerov system on
    supports[i] = (lo, hi), from one zgbtrf; member i's kinematics is (k[i], opens[i]).

    Scalar checks show each band finite before it is built, or raise a
    ValueError with no numpy warning.  A Numerov-row entry is at most
    2 + 2 max(1, h^2) (vmax + max_j |E - eps_j|): ModelError above BAND_LIMIT.
    A boundary row holds 1 and -1/lambda_j, and _bloch divides by 1 - y/12,
    |y| = |k_j h|^2 = 2 h^2 |E - eps_j|.  An open channel has y < 0 (and
    |y| < 6, check_resolution); any other must keep |y| <= 6 or |y| >= 24
    (GridError between).  Then |1 - y/12| >= max(1/2, |y|/24), |c - 1| <= 12
    and 1/27 <= |lambda_j| <= 1.
    """
    h, kins = models[0].grid.spacing, []
    for model in models:
        gaps = [complex(E) - eps for eps in model.channels.thresholds]  # no numpy, no warning
        e = [math.hypot(d.real, d.imag) for d in gaps]
        if max(h * h, 1.0) * (model.vmax + max(e)) > BAND_LIMIT:
            raise ModelError(f"Numerov band would overflow: max|V| = {model.vmax:.3g}, "
                             f"max|E - eps_j| = {max(e):.3g}, h = {h:.4g}")
        if any(6.0 < 2.0 * h * h * ej < 24.0 and not (d.imag == 0.0 and d.real > 0.0)
               for d, ej in zip(gaps, e)):
            raise GridError(f"spacing h={h:.4g} puts a closed channel's |k| h between "
                            f"sqrt(6) and 2 sqrt(6); refine the grid")
        kins.append(kinematics(model.channels, E))
        k, open = kins[-1]
        check_resolution(max(k[open].real.tolist()), h)
    k = np.array([k for k, _open in kins])
    u, ab, ends, bloch = _assemble(models, E, k, supports)
    lu, piv, info = zgbtrf(ab, u, u, overwrite_ab=1)
    if info > 0:
        raise SolverError("singular linear system: singular matrix")
    return [open for _k, open in kins], (u, lu, piv, ends, k, bloch, supports)


def _columns(factors, grid: Grid, read):
    """Amplitudes out[i, end, j, c] of member i's channels read[j] (open ones)
    at the left (0) and right (1) ends, under the left (c < m) and then the right
    incidences of those m channels; the stack's psi (one column per incidence),
    from one zgbtrs; and amplitudes(v), from end values v[..., i, end, j, c]."""
    u, lu, piv, ends, k, (lam, s, _g), supports = factors
    m, k_read = len(read), k[:, read].real
    sqrt_k = np.sqrt(k_read)
    # off the band the solution is free discrete waves lambda^j: f[i, end, j]
    # carries channel read[j] between the band's end node and the grid's (1 at 0, n)
    f = lam[:, None, read] ** np.array([(lo, grid.n - hi) for lo, hi in supports])[..., None]
    # member i's channel read[j] at its end node ends[i][end]: the boundary row
    # that takes incidence c = end m + j, and the end value out[i, end, j]
    rows = np.array(ends)[..., None] * lam.shape[1] + read
    B = np.zeros((lu.shape[1], 2 * m), dtype=complex, order="F")
    B[rows, np.arange(2 * m).reshape(2, m)] = (2j * s[:, read] / sqrt_k)[:, None] * f
    psi = zgbtrs(lu, u, u, B, piv, overwrite_b=1)[0]
    if not np.isfinite(psi).all():
        raise SolverError("non-finite solution; near-singular linear system")

    # outgoing coefficients at the left (0) and right (1) ends, incident wave
    # removed (out[i, e, j, e m + j]), carried to the grid's ends by f,
    # flux normalized and converted to e^{+ikx} / e^{-ikx} waves
    flat, step = psi[rows].reshape(len(lam), 2, -1), 2 * m + 1
    flat[:, 0, ::step] -= 1.0 / sqrt_k * f[:, 0]
    flat[:, 1, m::step] -= 1.0 / sqrt_k * f[:, 1]
    phase = np.exp(1j * (np.array((grid.x_min, -grid.x_max))[:, None] * k_read[:, None]))

    def amplitudes(v):
        return (v * sqrt_k[:, None, :, None] * (phase * f)[..., None]
                * phase.reshape(-1, 1, 1, 2 * m))

    return amplitudes(flat.reshape(-1, 2, m, 2 * m)), psi, amplitudes


#: (end, incidence) of T, R, Tt and Rt in _columns' out[end, j, c]; 0 is left, 1 right.
_AMPLITUDES = ((1, 0), (0, 0), (0, 1), (1, 1))
_ENDS, _INCIDENCES = zip(*_AMPLITUDES)


def solve_local(model: LocalPotentialModel, E: float) -> ScatterSolution:
    """Flux-normalized S-matrix at total energy E, with its unitarity defect."""
    (read,), factors = _factor([model], E, [model.support])
    m = len(read)
    out = _columns(factors, model.grid, read)[0][0]
    S = SMatrix(*(out[end, :, inc * m:(inc + 1) * m] for end, inc in _AMPLITUDES))
    defect = unitarity_defect(S) if model.hermitian_flag else float("nan")
    return ScatterSolution(S=S, unitarity_defect=defect)


def solve_channel(model: LocalPotentialModel, E: float) -> ChannelAmplitudes:
    """extract_channel(solve_local(model, E).S, 0), bit for bit, from only
    channel 0's two incidences: no rest of S and no unitarity defect.
    Channel 0, the incident channel, must be open at E (see kinematics)."""
    return _solve_channels([model], E)[0]


def _solve_channels(models, E: float):
    """[solve_channel(model, E) for model in models] bit for bit, from one assembly,
    one zgbtrf and one zgbtrs; the models share a grid."""
    factors = _factor(models, E, [model.support for model in models])[1]
    out = _columns(factors, models[0].grid, [0])[0]
    return [ChannelAmplitudes(*a) for a in out[:, _ENDS, 0, _INCIDENCES].tolist()]


def solve_channel_jacobian(model: LocalPotentialModel, E: float, dV: dict, deps: np.ndarray):
    """solve_channel(model, E) and the derivatives of channel 0's amplitudes
    (T, R, Tt, Rt) with respect to p parameters, shape (4, p).

    dV maps each channel pair (a, b) whose entry V_ab moves with the
    parameters to dV_ab/dp, shape (p, n); deps is d eps/dp, shape (p, nch).
    dV is read on a band over model.support and every node where some
    |dV_ab/dp_q| exceeds END_DECAY_REL times its largest, the share of V the
    grid ends may drop.  When that band is model.support (two_level_derivatives
    unless b or c is ~0), the amplitudes are solve_channel's bit for bit.
    Channel 0's threshold sets the incident wave and _columns' amplitude map,
    which also scales d psi_end / dp: a nonzero deps[:, 0] raises ValueError.
    Adjoint method on the one LU: A^T y = e for channel 0's two end rows is
    one more back-substitution, and then d psi_end / dp_q = -y^T (dA/dp_q) psi,
    where dA/dp_q is the analytic derivative of the Numerov rows (through
    W = 2 V + 2 diag(eps - E)) and of the boundary rows (through -1/lambda_j,
    whose derivative is _bloch's g, infinite at an exact threshold: moving the
    threshold of a channel that sits there raises ThresholdSingularityError).
    """
    deps = np.asarray(deps, dtype=complex)  # a real @ complex matmul would leave BLAS
    if deps[:, 0].any():
        raise ValueError("deps[:, 0] moves channel 0's threshold, which must stay fixed")
    modulus = np.abs(list(dV.values())).reshape(-1, model.grid.n)  # every dV_ab/dp_q
    moves = modulus > END_DECAY_REL * modulus.max(axis=1, keepdims=True)
    factors = _factor([model], E, [_covering(moves.any(axis=0), *model.support)])[1]
    (out,), psi, amplitudes = _columns(factors, model.grid, [0])
    u, lu, piv, _ends, _k, (_lam, _s, (g,)), ((lo, hi),) = factors
    grid, nch = model.grid, model.channels.n_channels
    n, h = hi - lo, grid.spacing
    e = np.zeros((n * nch, 2), dtype=complex, order="F")
    e[0, 0] = e[(n - 1) * nch, 1] = 1.0   # channel 0 at the left end, the right end
    y, _info = zgbtrs(lu, u, u, e, piv, trans=1, overwrite_b=1)
    # contiguous (end r or incidence c, channel, node) arrays
    y, psi = (np.ascontiguousarray(v.T.reshape(2, n, nch).transpose(0, 2, 1)) for v in (y, psi))
    if not np.isfinite(g).all():  # a channel exactly at its threshold
        moved = np.flatnonzero(~np.isfinite(g) & deps.any(axis=0))
        if moved.size:
            raise ThresholdSingularityError(f"channel {moved[0]} is exactly at threshold at "
                                            f"E={E}, and a parameter moves that threshold")

    # boundary rows psi_j(1) - psi_j(0)/lambda_j and psi_j(n-2) - psi_j(n-1)/lambda_j
    y_ends, psi_ends = (v[:, :, ::n - 1].copy() for v in (y, psi))
    edges = y_ends.transpose(1, 0, 2) @ psi_ends.transpose(1, 2, 0)
    # g is infinite at a threshold that no parameter moves: form deps * g where deps != 0
    deps_g = np.multiply(deps, g, out=np.zeros(deps.shape, dtype=complex), where=deps != 0)
    G = deps_g @ edges.reshape(nch, 4)
    # Numerov row m = 1..n-2 applies -(h^2/12) (dW[m-1], 10 dW[m], dW[m+1])
    # to psi at nodes m-1, m, m+1; gather those rows' y per node (the end
    # nodes' y zeroed, so the shifts run over the flattened arrays)
    y[:, :, 0] = y[:, :, -1] = 0.0
    Y = 10.0 * y
    flat_y, flat_Y = y.reshape(-1), Y.reshape(-1)
    flat_Y[1:] += flat_y[:-1]
    flat_Y[:-1] += flat_y[1:]
    # sum_j Y[r, a, j] dW_ab[j] psi[c, b, j] with dW = 2 dV + 2 diag(deps),
    # (r, c) flattened to r * 2 + c
    diagonal = Y.transpose(1, 0, 2) @ psi.transpose(1, 2, 0)
    interior = deps @ diagonal.reshape(nch, 4)
    for (a, b), d in dV.items():
        interior += d[:, lo:hi] @ (Y[:, a, None] * psi[None, :, b]).reshape(4, n).T
    G -= (h * h / 6.0) * interior

    return (ChannelAmplitudes(*out[_ENDS, 0, _INCIDENCES].tolist()),
            amplitudes(-G.reshape(-1, 2, 1, 2))[:, _ENDS, 0, _INCIDENCES].T)
