"""Reference constructions and checks that only the tests use.

The no-go verification (criteria 5 and 6, `test_nogo.py`) reads the channel
inequalities, draws Haar unitaries, splits a full S-matrix into its blocks and
builds explicit boundary S-matrices; the symmetry tests apply a class
transform to a whole kernel, and the local solver's tests mirror, conjugate or
transpose a whole model and integrate its equations adaptively.  None of this
runs in the program, so it lives here rather than in `demonscatter`.
"""

import numpy as np
from scipy.integrate import solve_ivp

from demonscatter.channels import ChannelAmplitudes, ChannelSet, SMatrix
from demonscatter.local_solver import LocalPotentialModel
from demonscatter.optimize import PAPER_POINT
from demonscatter.symmetry import SymmetryClass
from demonscatter.units import RabiProfile

#: The reference design's laser profile (b, c, x0) and detuning.
PAPER_PROFILE = RabiProfile(*PAPER_POINT[:3])
PAPER_DELTA = PAPER_POINT[3]


def check_bounds(a: ChannelAmplitudes, tol: float = 1e-10):
    """Slacks of the four channel inequalities; negative slack = violation.

    Order: 1-(|T|^2+|R|^2), 1-(|Tt|^2+|Rt|^2), 1-(|T|^2+|Rt|^2),
    1-(|Tt|^2+|R|^2).  All four are >= 0 for amplitudes drawn from any
    unitary S-matrix.
    """
    t2, r2, tt2, rt2 = a.probabilities
    slacks = (
        1.0 - (t2 + r2),
        1.0 - (tt2 + rt2),
        1.0 - (t2 + rt2),
        1.0 - (tt2 + r2),
    )
    return slacks, bool(any(s < -tol for s in slacks))


_HALF = np.sqrt(0.5)

#: Explicit 4x4 unitary completions (2 channels).  Columns are the outgoing
#: amplitude vectors (R-side ch0, R-side ch1, L-side ch0, L-side ch1) for
#: the incoming basis (L ch0, L ch1, R ch0, R ch1); block layout of
#: SMatrix.full() is [[T, Rt], [R, Tt]].
_BOUNDARY_COLUMNS = {
    "half-demon": [
        (_HALF, 0.0, 0.0, _HALF),
        (0.0, 1.0, 0.0, 0.0),
        (_HALF, 0.0, 0.0, -_HALF),
        (0.0, 0.0, 1.0, 0.0),
    ],
    "T/A": [
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ],
    "A/R": [
        (0.0, 1.0, 0.0, 0.0),
        (0.0, 0.0, 1.0, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ],
    "R/T-half": [
        (0.0, _HALF, _HALF, 0.0),
        (1.0, 0.0, 0.0, 0.0),
        (0.0, -_HALF, _HALF, 0.0),
        (0.0, 0.0, 0.0, 1.0),
    ],
}


def construct_boundary_smatrix(kind: str) -> SMatrix:
    """Explicit 2-channel unitary realizing a D = +-1/2 device in channel 0.

    Kinds: "half-demon" (|T|^2 = |Rt|^2 = 1/2), "T/A" (one-way T-filter),
    "A/R" (one-way R-filter), "R/T-half" (the mirrored D = -1/2 case).
    """
    if kind not in _BOUNDARY_COLUMNS:
        raise ValueError(
            f"unknown kind {kind!r}; choose from {sorted(_BOUNDARY_COLUMNS)}"
        )
    cols = np.array(_BOUNDARY_COLUMNS[kind], dtype=complex).T
    return smatrix_from_full(cols)


def smatrix_from_full(S) -> SMatrix:
    """The SMatrix whose full() is the 2N x 2N matrix S, [[T, Rt], [R, Tt]];
    SMatrix's own check raises ValueError for any other shape."""
    S = np.asarray(S, dtype=complex)
    n = S.shape[0] // 2
    return SMatrix(T=S[:n, :n], Rt=S[:n, n:], R=S[n:, :n], Tt=S[n:, n:])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


def transform(K: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    """Image of the kernel matrix under the class transform (an involution)."""
    flip, transpose, conjugate = cls.value
    M = K
    if flip:
        M = M[::-1, ::-1]
    if transpose:
        M = M.T
    if conjugate:
        M = np.conj(M)
    return M


def port_smatrix(S: SMatrix) -> np.ndarray:
    """S in port order [[R, Tt], [T, Rt]]: rows the outgoing waves, columns the
    incoming ones, the left end's channels first."""
    return np.block([[S.R, S.Tt], [S.T, S.Rt]])


def flipped(model: LocalPotentialModel) -> LocalPotentialModel:
    """The model mirrored, V(-x), on a grid symmetric about x = 0."""
    return LocalPotentialModel(grid=model.grid, channels=model.channels, V=model.V[::-1])


def conjugated(model: LocalPotentialModel) -> LocalPotentialModel:
    """The model with V and the thresholds complex conjugated."""
    channels = ChannelSet(tuple(e.conjugate() for e in model.channels.thresholds))
    return LocalPotentialModel(grid=model.grid, channels=channels, V=model.V.conj())


def transposed(model: LocalPotentialModel) -> LocalPotentialModel:
    """The model with V(x) transposed in the channel indices."""
    return LocalPotentialModel(grid=model.grid, channels=model.channels,
                               V=model.V.transpose(0, 2, 1))


def ode_smatrix(V, thresholds, E, x_min, x_max) -> SMatrix:
    """Flux-normalized S at total energy E of psi'' = 2 (V(x) + diag eps - E) psi
    on [x_min, x_max], free outside, with phase origin x = 0: an oracle that
    shares no code with the Numerov solve, not even its wavenumbers or open set.

    V(x) returns the nch x nch matrix at x in closed form.  One DOP853 run
    from x_max to x_min per start column: e^{i k_j x} in every channel
    (outgoing, or decaying for a closed one), then e^{-i k_j x} in every open
    one.  At x_min each channel splits into its e^{+-i k x} parts from (psi,
    psi'), and each incidence is one nch x nch solve for a unit incident wave
    and no incoming (open) or left-growing (closed) wave on the left.  A closed
    channel with kappa (x_max - x_min) above ~30 makes that solve ill-conditioned.
    """
    eps = np.asarray(thresholds, dtype=complex)
    nch = len(eps)
    k = np.sqrt(2.0 * (E - eps))
    k = np.where(k.imag < 0, -k, k)
    opened = np.flatnonzero((eps.imag == 0) & (eps.real < E))
    starts = [(j, 1) for j in range(nch)] + [(j, -1) for j in opened]
    W = np.diag(eps - E)

    def rhs(x, y):
        return np.concatenate([y[nch:], 2.0 * (V(x) + W) @ y[:nch]])

    # the e^{+ikx} (A) and e^{-ikx} (B) coefficients at x_min of each start column
    A, B = (np.empty((nch, len(starts)), dtype=complex) for _ in range(2))
    for c, (j, sign) in enumerate(starts):
        y0 = np.zeros(2 * nch, dtype=complex)
        y0[j] = np.exp(sign * 1j * k[j] * x_max)
        y0[nch + j] = sign * 1j * k[j] * y0[j]
        y = solve_ivp(rhs, (x_max, x_min), y0, method="DOP853", rtol=1e-12, atol=1e-14).y[:, -1]
        A[:, c] = (y[:nch] + y[nch:] / (1j * k)) / 2.0 * np.exp(-1j * k * x_min)
        B[:, c] = (y[:nch] - y[nch:] / (1j * k)) / 2.0 * np.exp(1j * k * x_min)
    sqrt_k = np.sqrt(k[opened].real)
    out, inc = A[:, :nch], np.eye(nch)[:, opened] / sqrt_k
    left = np.linalg.solve(out, inc)                  # outgoing weights, left incidence
    right = np.linalg.solve(out, -A[:, nch:] / sqrt_k)  # right incidence
    return SMatrix(T=left[opened] * sqrt_k[:, None],
                   R=(B[:, :nch] @ left)[opened] * sqrt_k[:, None],
                   Tt=(B[:, :nch] @ right + B[:, nch:] / sqrt_k)[opened] * sqrt_k[:, None],
                   Rt=right[opened] * sqrt_k[:, None])
