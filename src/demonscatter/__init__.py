"""1D multichannel quantum scattering and Maxwell-demon analysis.

Computes flux-normalized S-matrices for local matrix potentials and
nonlocal complex kernels, quantifies distance-to-demon behavior through
the parameter D, classifies kernel symmetries, and numerically designs
quantum-optical asymmetric devices.

The package exports the names that its users import from it; everything
else is imported from its own module (e.g. `demonscatter.channels.SMatrix`).
"""

from .channels import ChannelSet, extract_channel
from .demon import DemonReport, sweep_demon
from .kernels import OpticalParameters, build_kernel
from .local_solver import LocalPotentialModel, build_two_level_model, solve_local
from .nonlocal_solver import NonlocalKernel, solve_nonlocal
from .optimize import DeviceTarget, optimize, refine_paper_point
from .symmetry import classify, verify_predictions
from .units import RabiProfile, default_grid, make_grid

__version__ = "0.1.0"
