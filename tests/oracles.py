"""Reference constructions and checks that only the tests use.

The no-go verification (criteria 5 and 6, `test_nogo.py`) reads the channel
inequalities, draws Haar unitaries, splits a full S-matrix into its blocks and
builds explicit boundary S-matrices; the symmetry tests apply a class
transform to a whole kernel, and the local solver's tests mirror, conjugate or
transpose a whole model.  None of this runs in the program, so it lives here
rather than in `demonscatter`.
"""

import numpy as np

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
