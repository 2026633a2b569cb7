"""Demon parameter D, no-go bounds, boundary structure and device codes.

D = (|T|^2 - |R|^2 + |Rt|^2 - |Tt|^2) / 2 measures the distance of a
device to a left-transmitting one-way barrier (D = 1 would be the ideal
T/R demon); unitarity of the full S-matrix restricts D to [-1/2, 1/2].
This module evaluates D, checks the channel inequalities behind the bound,
classifies the D = +-1/2 boundary cases, maps devices to two-sided letter
codes, and produces the allowed-|Tt|^2 bounds of the D = 0 analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channels import ChannelAmplitudes, SMatrix, kinematics
from .errors import InconsistentBoundaryError, InfeasiblePairError
from .local_solver import LocalPotentialModel, solve_channel
from .units import velocity_to_energy

#: Tolerance of the device codes, and classify_boundary's default.
CODE_TOL = 0.02

#: Feasibility slack for the D=0 bounds (roundoff on exactly-unitary input).
FEAS_TOL = 1e-9


def demon_parameter(a: ChannelAmplitudes) -> float:
    """D per the defining formula; unclamped, so non-unitary input shows."""
    t2, r2, tt2, rt2 = a.probabilities
    return 0.5 * (t2 + (1.0 - r2) + rt2 + (1.0 - tt2)) - 1.0


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


@dataclass(frozen=True)
class BoundaryClassification:
    """Which D = +-1/2 boundary (if any) the amplitudes sit on."""

    boundary: Optional[str]        # "+1/2", "-1/2" or None
    details: dict


def classify_boundary(
    a: ChannelAmplitudes, tol: float = CODE_TOL
) -> BoundaryClassification:
    """Check the necessary structure at the D = +-1/2 boundaries.

    At D = +1/2 unitarity forces |Tt| = |R| = 0 and |T|^2 + |Rt|^2 = 1;
    at D = -1/2 the mirrored statement, with the incidence sides swapped.
    Amplitudes at a boundary without that structure cannot come from a
    unitary S-matrix and raise InconsistentBoundaryError.
    """
    D = demon_parameter(a)
    if D > 0.5 + tol or D < -0.5 - tol:
        raise InconsistentBoundaryError(
            f"D = {D:.6f} outside [-1/2, 1/2]: not from a unitary S-matrix"
        )
    # the boundary, the two amplitudes that must vanish there and the two
    # whose squares must sum to 1
    if abs(D - 0.5) <= tol:
        side, zero, full = "+1/2", ("Tt", "R"), ("T", "Rt")
    elif abs(D + 0.5) <= tol:
        side, zero, full = "-1/2", ("T", "Rt"), ("Tt", "R")
    else:
        return BoundaryClassification(None, {})
    details = {f"|{name}|": abs(getattr(a, name)) for name in zero}
    details["sum_defect"] = abs(sum(abs(getattr(a, name)) ** 2 for name in full) - 1.0)
    ok = all(details[f"|{name}|"] <= np.sqrt(tol) for name in zero) and \
        details["sum_defect"] <= tol
    if ok:
        return BoundaryClassification(side, details)
    # near the boundary but structurally distinguishable: possible for a
    # unitary S-matrix (then simply not on the boundary), impossible otherwise
    if check_bounds(a, tol)[1]:
        raise InconsistentBoundaryError(
            f"D = {side} but boundary structure violated: {details}"
        )
    return BoundaryClassification(None, details)


def _side_code(p_t: float, p_r: float) -> str:
    """Letter code of one incidence side from its two probabilities, to CODE_TOL."""
    if p_t >= 1.0 - CODE_TOL:
        return "T"
    if p_r >= 1.0 - CODE_TOL:
        return "R"
    if p_t <= CODE_TOL and p_r <= CODE_TOL:
        return "A"
    parts = []
    for p, letter in ((p_t, "T"), (p_r, "R")):
        if p <= CODE_TOL:
            continue
        if abs(p - 0.5) <= CODE_TOL:
            parts.append(f"½{letter}")
        else:
            parts.append(f"{letter}({p:.2f})")
    return "".join(parts) if parts else "A"


def device_code(a: ChannelAmplitudes) -> str:
    """Two-sided letter code "left-effect/right-effect".

    T = transmitted, R = reflected, A = absorbed out of the channel;
    half-strength fragments carry a one-half prefix (the half-demon is
    "half-T/half-R" rendered with vulgar fractions).
    """
    t2, r2, tt2, rt2 = a.probabilities
    return f"{_side_code(t2, r2)}/{_side_code(tt2, rt2)}"


@dataclass(frozen=True)
class DemonReport:
    """D, the four probabilities and the device code of one amplitude set."""

    D: float
    probabilities: tuple
    code: str

    @classmethod
    def from_amplitudes(cls, a: ChannelAmplitudes):
        return cls(D=demon_parameter(a), probabilities=a.probabilities, code=device_code(a))


@dataclass(frozen=True)
class DZeroBounds:
    """Allowed range of |Tt|^2 at D = 0 for given (|T|^2, |Rt|^2)."""

    lower: float
    upper: float
    region: str


def dzero_bounds(t2: float, rt2: float) -> DZeroBounds:
    """Bounds max(0, 2 t2 + rt2 - 1) <= |Tt|^2 <= min(1 - rt2, t2 + rt2).

    Region labels follow which of the two candidates is active on each
    side: A = (0, 1-rt2), B = (0, t2+rt2), C = (2t2+rt2-1, t2+rt2),
    D = (2t2+rt2-1, 1-rt2); ties resolve toward the earlier letter.
    """
    if not (0.0 <= t2 <= 1.0) or not (0.0 <= rt2 <= 1.0):
        raise InfeasiblePairError(
            f"probabilities must lie in [0, 1], got ({t2}, {rt2})"
        )
    if rt2 > 1.0 - t2 + FEAS_TOL:
        raise InfeasiblePairError(
            f"infeasible pair: |Rt|^2 = {rt2} > 1 - |T|^2 = {1.0 - t2}"
        )
    lo_c = 2.0 * t2 + rt2 - 1.0
    up_c = t2 + rt2
    lower = max(0.0, lo_c)
    upper = min(1.0 - rt2, up_c)
    # tie-break toward A < B < C < D on region boundaries
    if lo_c <= 0.0:
        region = "A" if 1.0 - rt2 <= up_c else "B"
    else:
        region = "C" if up_c <= 1.0 - rt2 else "D"
    upper = min(max(upper, lower), 1.0)  # clamp roundoff on the feasibility edge
    return DZeroBounds(lower=lower, upper=upper, region=region)


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
    return SMatrix.from_full(cols)


def sweep_demon(system: LocalPotentialModel, velocities):
    """One (v, DemonReport) pair per velocity for a local model.

    Every velocity must be finite and positive, and channel 0 open at its
    E = v^2/2, all checked before the first solve; each is then solved by
    `solve_channel`.
    """
    velocities = list(velocities)
    energies = []
    for v in velocities:
        if v <= 0:
            raise ValueError(f"velocities must be positive, got {v}")
        energies.append(velocity_to_energy(v))
        kinematics(system.channels, energies[-1])
    return [(v, DemonReport.from_amplitudes(solve_channel(system, E)))
            for v, E in zip(velocities, energies)]
