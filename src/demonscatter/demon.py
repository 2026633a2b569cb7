"""Demon parameter D, device codes and the D = 0 bounds.

D = (|T|^2 - |R|^2 + |Rt|^2 - |Tt|^2) / 2 measures the distance of a
device to a left-transmitting one-way barrier (D = 1 would be the ideal
T/R demon); unitarity of the full S-matrix restricts D to [-1/2, 1/2].
This module evaluates D, maps devices to two-sided letter codes, sweeps D
over velocities, and produces the allowed-|Tt|^2 bounds of the D = 0
analysis.  The checks of the bound itself (the channel inequalities and
explicit boundary S-matrices) are test oracles, in tests/oracles.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .channels import ChannelAmplitudes, kinematics
from .local_solver import LocalPotentialModel, solve_channel
from .units import velocity_to_energy

#: Tolerance of the device codes.
CODE_TOL = 0.02

#: Feasibility slack for the D=0 bounds (roundoff on exactly-unitary input).
FEAS_TOL = 1e-9


def demon_parameter(a: ChannelAmplitudes) -> float:
    """D per the defining formula; unclamped, so non-unitary input shows."""
    t2, r2, tt2, rt2 = a.probabilities
    return 0.5 * (t2 + (1.0 - r2) + rt2 + (1.0 - tt2)) - 1.0


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
    return "".join(parts)


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
        raise ValueError(
            f"probabilities must lie in [0, 1], got ({t2}, {rt2})"
        )
    if rt2 > 1.0 - t2 + FEAS_TOL:
        raise ValueError(
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
