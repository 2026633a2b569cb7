"""Channel bookkeeping and the flux-normalized S-matrix container.

The S-matrix for N open channels is the 2N x 2N block matrix

    S = [[T, Rt],
         [R, Tt]]

with T, R the transmission/reflection amplitude matrices for left incidence
and Tt, Rt their right-incidence counterparts.  Amplitudes are flux
normalized (plane waves scaled by 1/sqrt(k)), so squared moduli are
probabilities.  Only open channels appear in S; closed channels live inside
the solvers.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import ChannelIndexError, NonPositiveEnergyError

@dataclass(frozen=True)
class ChannelSet:
    """Asymptotic channels with internal-state thresholds eps_j.

    Thresholds are kept in the order supplied.  They may be complex (an
    eliminated lossy level contributes -i gamma/2); a channel can only be
    open if its threshold is real.
    """

    thresholds: tuple

    def __post_init__(self):
        eps = tuple(complex(e) for e in self.thresholds)
        if len(eps) == 0:
            raise ValueError("at least one channel required")
        if not all(map(cmath.isfinite, eps)):
            raise ValueError("thresholds must be finite")
        object.__setattr__(self, "thresholds", eps)

    @property
    def n_channels(self) -> int:
        return len(self.thresholds)


def branch_sqrt(z):
    """sqrt with branch Im >= 0 (and Re >= 0 on the real line)."""
    r = np.sqrt(np.asarray(z, dtype=complex))  # Re r >= 0, as C99's csqrt
    return np.where(r.imag < 0, -r, r)


def kinematics(channels: ChannelSet, E: float):
    """(k, open) at total energy E: k_j = sqrt(2 (E - eps_j)) with the branch
    Im k_j >= 0, and the indices of the open channels, those with real k_j > 0
    (closed ones have purely imaginary k_j).

    Channel 0 is the incident channel, the one whose amplitudes the demon
    parameter D describes, so it must be open: NonPositiveEnergyError unless
    its threshold is real and below E (a lossy channel 0 is never open).
    Open channel 0 is then channel 0 of every S the solvers return.  A
    threshold so far from E that 2 (E - eps_j) overflows is a ValueError,
    found on Python scalars, before any numpy arithmetic could warn.
    """
    if not np.isfinite(E):
        raise ValueError("energy must be finite")
    if not all(cmath.isfinite(2.0 * (complex(E) - eps)) for eps in channels.thresholds):
        raise ValueError(f"a threshold lies so far from E={E} that 2 (E - eps) overflows")
    eps = np.array(channels.thresholds, dtype=complex)
    open_mask = (eps.imag == 0.0) & (E > eps.real)
    if not open_mask[0]:
        eps0 = channels.thresholds[0]
        raise NonPositiveEnergyError(
            f"channel 0 is lossy (threshold {eps0}) and never open" if eps0.imag
            else f"energy must exceed the channel-0 threshold {eps0.real}, got E={E}"
        )
    return branch_sqrt(2.0 * (E - eps)), np.flatnonzero(open_mask)


@dataclass(frozen=True)
class SMatrix:
    """2N x 2N flux-normalized S-matrix stored as its four N x N blocks."""

    T: np.ndarray
    R: np.ndarray
    Tt: np.ndarray
    Rt: np.ndarray

    def __post_init__(self):
        blocks = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in
                  (self.T, self.R, self.Tt, self.Rt)]
        n = blocks[0].shape[0]
        for b in blocks:
            if b.shape != (n, n):
                raise ValueError(
                    f"all blocks must be {n}x{n}, got shapes "
                    f"{[bb.shape for bb in blocks]}"
                )
        for name, b in zip(("T", "R", "Tt", "Rt"), blocks):
            object.__setattr__(self, name, b)

    @property
    def n_open(self) -> int:
        return self.T.shape[0]

    def full(self) -> np.ndarray:
        """Assemble the 2N x 2N matrix [[T, Rt], [R, Tt]]."""
        return np.block([[self.T, self.Rt], [self.R, self.Tt]])


@dataclass(frozen=True)
class ChannelAmplitudes:
    """The four amplitudes of one selected channel i0."""

    T: complex
    R: complex
    Tt: complex
    Rt: complex

    @property
    def probabilities(self):
        """(|T|^2, |R|^2, |Tt|^2, |Rt|^2)."""
        return (
            abs(self.T) ** 2,
            abs(self.R) ** 2,
            abs(self.Tt) ** 2,
            abs(self.Rt) ** 2,
        )


def unitarity_defect(S: SMatrix) -> float:
    """max-norm deviation of S†S and SS† from the identity."""
    M = S.full()
    eye = np.eye(M.shape[0])
    d1 = np.max(np.abs(M.conj().T @ M - eye))
    d2 = np.max(np.abs(M @ M.conj().T - eye))
    return float(max(d1, d2))


def extract_channel(S: SMatrix, i0: int) -> ChannelAmplitudes:
    """Diagonal amplitudes T, R, Tt, Rt of channel i0."""
    if not 0 <= i0 < S.n_open:
        raise ChannelIndexError(f"channel {i0} out of range for {S.n_open} open channels")
    return ChannelAmplitudes(
        T=complex(S.T[i0, i0]),
        R=complex(S.R[i0, i0]),
        Tt=complex(S.Tt[i0, i0]),
        Rt=complex(S.Rt[i0, i0]),
    )

