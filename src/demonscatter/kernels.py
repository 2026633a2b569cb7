"""Effective nonlocal kernel from eliminating the laser-coupled level.

Projecting the two-channel model onto its ground channel yields the
separable, energy-dependent complex kernel

    V(x, y) = (1/4) e^{i q |x-y|} / (i q) * W(x) W(y)*

with W the coupling profile, q^2 = 2 E (1 + mu) and
mu = (2 delta + i gamma) / (2 E), branch Im q >= 0.  The same kernel is
also evaluated numerically from the sampled two-channel model via the
eliminated channel's outgoing Green's function as a consistency reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .channels import branch_sqrt
from .errors import (
    NonPositiveEnergyError,
    ThresholdSingularityError,
    UnsupportedModelError,
)
from .local_solver import LocalPotentialModel
from .nonlocal_solver import NonlocalKernel
from .units import Grid, RabiProfile, rabi_eval


@dataclass(frozen=True)
class OpticalParameters:
    """Detuning, decay, coupling profile and total energy of one design."""

    delta: float
    gamma: float
    profile: RabiProfile
    E: float

    def __post_init__(self):
        for name in ("delta", "gamma", "E"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.gamma < 0:
            raise ValueError(f"decay rate must be >= 0, got gamma={self.gamma}")
        if self.E <= 0:
            raise NonPositiveEnergyError(f"energy must be > 0, got E={self.E}")


def compute_mu(delta: float, gamma: float, E: float) -> complex:
    """mu = (2 delta + i gamma) / (2 E) in reduced units."""
    if E <= 0:
        raise NonPositiveEnergyError(f"energy must be > 0, got E={E}")
    return (2.0 * delta + 1j * gamma) / (2.0 * E)


def compute_q(E: float, mu: complex) -> complex:
    """q = sqrt(2E) (1 + mu)^{1/2} on the branch with Im q >= 0."""
    if E <= 0:
        raise NonPositiveEnergyError(f"energy must be > 0, got E={E}")
    return complex(branch_sqrt(2.0 * E * (1.0 + complex(mu))))


def _green_phase(grid: Grid, q: complex) -> np.ndarray:
    """e^{i q |x_i - x_j|} on the uniform grid, from n exponentials.

    It depends only on |i - j|: the symmetric Toeplitz matrix of its first
    column (toeplitz(e) alone would conjugate the first row).
    """
    e = np.exp(1j * q * (grid.points - grid.points[0]))
    return toeplitz(e, e)


def build_kernel(params: OpticalParameters, grid: Grid) -> NonlocalKernel:
    """Closed-form effective kernel of the design on the given grid."""
    q = compute_q(params.E, compute_mu(params.delta, params.gamma, params.E))
    if q == 0:
        raise ThresholdSingularityError(
            "effective wavenumber q = 0: kernel singular at threshold"
        )
    # same incidence-axis orientation as the two-channel model builder
    omega = rabi_eval(params.profile, -grid.points)
    K = _green_phase(grid, q)
    K *= 0.25 / (1j * q) * omega[:, None]
    K *= np.conj(omega)[None, :]
    return NonlocalKernel(grid=grid, K=K)


def feshbach_reference(model: LocalPotentialModel, E: float, i0: int = 0) -> NonlocalKernel:
    """Effective kernel of channel i0, evaluated from the sampled model.

    Eliminates the other channel through its outgoing-wave Green's function
    (the +i0 energy prescription realized exactly, not by a finite shift).
    Restricted to two-channel models whose diagonal potential vanishes, the
    family whose elimination is exactly solvable.
    """
    if model.channels.n_channels != 2:
        raise UnsupportedModelError(
            f"elimination implemented for 2 channels, got "
            f"{model.channels.n_channels}"
        )
    if i0 not in (0, 1):
        raise UnsupportedModelError(f"channel index must be 0 or 1, got {i0}")
    vmax = np.max(np.abs(model.V))
    diag_mag = max(
        np.max(np.abs(model.V[:, 0, 0])), np.max(np.abs(model.V[:, 1, 1]))
    )
    if vmax > 0 and diag_mag > 1e-12 * vmax:
        raise UnsupportedModelError(
            "elimination requires vanishing diagonal potential blocks"
        )
    other = 1 - i0
    eps = model.channels.thresholds[other]
    q = complex(branch_sqrt(2.0 * (E - eps)))
    if q == 0:
        raise ThresholdSingularityError(
            "eliminated channel exactly at threshold: Green's function singular"
        )
    K = _green_phase(model.grid, q)
    K *= (model.V[:, i0, other] / (1j * q))[:, None]
    K *= model.V[:, other, i0][None, :]
    return NonlocalKernel(grid=model.grid, K=K)
