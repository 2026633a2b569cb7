"""Effective nonlocal kernel from eliminating the laser-coupled level.

Eliminating channel 1 of a two-channel model with vanishing diagonal
potential (Feshbach projection onto channel 0) leaves the separable,
energy-dependent complex kernel

    K(x, y) = V_01(x) e^{i q |x-y|} / (i q) V_10(y),

with q = sqrt(2 (E - eps_1)) on the branch Im q >= 0: the eliminated
channel's outgoing-wave Green's function.  build_kernel applies it to the
two-level atom-laser model, so the model builder alone fixes the paper's
conventions (coupling, threshold, orientation of the profile).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .channels import branch_sqrt
from .errors import (
    ModelError,
    NonPositiveEnergyError,
    ThresholdSingularityError,
)
from .local_solver import BAND_LIMIT, LocalPotentialModel, build_two_level_model
from .nonlocal_solver import NonlocalKernel
from .units import Grid, RabiProfile, check_resolution


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


def build_kernel(params: OpticalParameters, grid: Grid) -> NonlocalKernel:
    """Effective kernel of the design on the given grid: the excited
    channel of its two-level model, eliminated by feshbach_reference."""
    model = build_two_level_model(params.profile, params.delta, params.gamma, grid)
    return feshbach_reference(model, params.E)


def feshbach_reference(model: LocalPotentialModel, E: float) -> NonlocalKernel:
    """Effective kernel of channel 0 at energy E, from the sampled model.

    Eliminates channel 1 through its outgoing-wave Green's function (the
    +i0 energy prescription realized exactly, not by a finite shift).
    Restricted to two-channel models whose diagonal potential vanishes, the
    family whose elimination is exactly solvable.  The grid must resolve the
    eliminated channel's |q| as check_resolution asks of an open channel.
    """
    if model.channels.n_channels != 2:
        raise ModelError(
            f"elimination implemented for 2 channels, got "
            f"{model.channels.n_channels}"
        )
    if model.vmax > 0 and np.abs(model.V[:, (0, 1), (0, 1)]).max() > 1e-12 * model.vmax:
        raise ModelError(
            "elimination requires vanishing diagonal potential blocks"
        )
    q = complex(branch_sqrt(2.0 * (E - model.channels.thresholds[1])))
    if q == 0:
        raise ThresholdSingularityError(
            "eliminated channel exactly at threshold: Green's function singular"
        )
    check_resolution(abs(q), model.grid.spacing)
    if model.vmax * model.vmax / abs(q) > BAND_LIMIT:  # bounds every |K(x, y)|
        raise ModelError(f"kernel would overflow: max|V|^2/|q| > {BAND_LIMIT:.0e}")
    # e^{i q |x_i - x_j|} depends only on |i - j|: the symmetric Toeplitz matrix
    # of its first column (toeplitz(e) alone would conjugate the first row)
    x = model.grid.points
    e = np.exp(1j * q * (x - x[0]))
    K = toeplitz(e, e)
    K *= (model.V[:, 0, 1] / (1j * q))[:, None]
    # a strided view as the broadcast operand slows the n x n product
    K *= np.ascontiguousarray(model.V[:, 1, 0])[None, :]
    return NonlocalKernel(grid=model.grid, K=K)
