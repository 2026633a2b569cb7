"""1D multichannel quantum scattering and Maxwell-demon analysis.

Computes flux-normalized S-matrices for local matrix potentials and
nonlocal complex kernels, quantifies distance-to-demon behavior through
the parameter D, classifies kernel symmetries, and numerically designs
quantum-optical asymmetric devices.

DEMONSCATTER_THREADS caps the BLAS thread pools if this package is imported
before numpy; an explicit OMP_, OPENBLAS_ or MKL_NUM_THREADS value wins.
"""

import os

if os.environ.get("DEMONSCATTER_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["DEMONSCATTER_THREADS"])

from .channels import (
    ChannelAmplitudes,
    ChannelKinematics,
    ChannelSet,
    SMatrix,
    extract_channel,
    haar_unitary,
    kinematics,
    unitarity_defect,
)
from .demon import (
    DemonReport,
    DZeroBounds,
    check_bounds,
    classify_boundary,
    construct_boundary_smatrix,
    demon_parameter,
    device_code,
    dzero_bounds,
    sweep_demon,
)
from .kernels import (
    OpticalParameters,
    build_kernel,
    feshbach_reference,
)
from .local_solver import (
    LocalPotentialModel,
    ScatterSolution,
    build_two_level_model,
    solve_channel,
    solve_local,
)
from .nonlocal_solver import NonlocalKernel, solve_nonlocal
from .optimize import (
    DeviceTarget,
    OptimizationResult,
    PAPER_POINT,
    cost,
    optimize,
    refine_paper_point,
)
from .symmetry import (
    SymmetryClass,
    SymmetryReport,
    classify,
    predicted_relations,
    verify_predictions,
)
from .units import (
    Grid,
    RabiProfile,
    default_grid,
    make_grid,
    rabi_eval,
    velocity_to_energy,
)

__version__ = "0.1.0"
