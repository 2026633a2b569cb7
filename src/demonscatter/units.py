"""Reduced unit system, uniform spatial grids, the Gaussian Rabi profile
and the resolution guards both solvers share.

Everything downstream works in reduced units hbar = m = d = 1: velocities in
v_d = hbar/(m d), times in tau = m d^2/hbar, energies in hbar^2/(m d^2),
lengths in d.  All public I/O is already in these units, so nothing here
converts; grids, profiles and velocities reject non-finite values.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, ModelError, ResolutionWarning

#: Half-width of the default computational box, in units of d.  Exceeds the
#: effective potential width (|x| <= 1) so truncation error is negligible.
DEFAULT_BOX_HALF = 1.5

#: Default number of grid points.
DEFAULT_NPOINTS = 2001

#: Default Gaussian width of the Rabi profile, sqrt(2)/10 in units of d.
DEFAULT_WIDTH = np.sqrt(2.0) / 10.0

#: Minimum points per shortest open wavelength before a ResolutionWarning.
MIN_POINTS_PER_WAVELENGTH = 20

#: Relative magnitude a potential or kernel may keep at the grid ends.
END_DECAY_REL = 1e-12

#: Relative magnitude below which a node lies off a potential's or kernel's
#: support: float64 rounding of the largest sample, so dropping it is within
#: the solvers' own backward error.
SUPPORT_REL = np.finfo(float).eps


def _check_end_decay(what: str, peak: float, edge: float):
    """Raise ModelError unless peak, the samples' max modulus, is finite and edge,
    their max modulus on the grid's end nodes, is at most END_DECAY_REL * peak."""
    if not math.isfinite(peak):  # max propagates NaN
        raise ModelError(f"{what} samples must be finite")
    if edge > END_DECAY_REL * peak:
        raise ModelError(f"{what} not negligible at grid ends "
                         f"(edge/max = {edge / peak:.3e} > {END_DECAY_REL:.0e})")


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n points on [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int
    #: The n nodes, derived from x_min, x_max and n; read-only.
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a finite span has finite ends; an overflowing one would break linspace
        if not math.isfinite(float(self.x_max) - float(self.x_min)):
            raise GridError(f"grid ends and span must be finite: [{self.x_min}, {self.x_max}]")
        if self.x_min >= self.x_max:
            raise GridError(
                f"invalid range: x_min={self.x_min} must be < x_max={self.x_max}"
            )
        if self.n < 3:
            raise GridError(f"too few points: n={self.n} < 3")
        points = np.linspace(self.x_min, self.x_max, self.n)
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    @property
    def spacing(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    @property
    def symmetric(self) -> bool:
        """True if the grid is symmetric about x = 0."""
        return abs(self.x_min + self.x_max) < 1e-12 * (self.x_max - self.x_min)


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Uniform grid with first point x_min and last point x_max."""
    return Grid(x_min=x_min, x_max=x_max, n=int(n))


def default_grid() -> Grid:
    return make_grid(-DEFAULT_BOX_HALF, DEFAULT_BOX_HALF, DEFAULT_NPOINTS)


@dataclass(frozen=True)
class RabiProfile:
    """Two-Gaussian Rabi frequency Omega(x) = -i b g(x+x0) + c g(x-x0).

    g(x) = exp(-x^2/w^2).  b, c are real amplitudes in 1/tau, x0 the lobe
    offset and w the Gaussian width, both in d.  Omega is evaluated as is
    on any grid; a model built from it must decay to END_DECAY_REL at the
    ends of its grid.

    The reference design (optimize.PAPER_POINT) relies on the default
    width w = sqrt(2)/10 and the phase -i on the b lobe, which sits at -x0
    here; the model builders evaluate the profile at -x, which moves that
    lobe to +x0 on the incidence axis.  Width 0.1 or 0.2, or the phase +i,
    +1 or -1, brings D from 0.48 down to 0.22 or below.
    """

    b: float
    c: float
    x0: float = 0.0
    w: float = DEFAULT_WIDTH

    def __post_init__(self):
        for name in ("b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        check_width(self.w)
        reach = abs(self.x0) + DEFAULT_BOX_HALF  # the largest |x +- x0| on the default box
        if not math.isfinite(reach * reach / (self.w * self.w)):
            raise ValueError(f"x0 must be finite, with finite ((|x0| + {DEFAULT_BOX_HALF})/w)^2; "
                             f"got x0={self.x0}, w={self.w}")


def check_width(w: float):
    """Raise ValueError unless w^2, which the Gaussians divide by, is a positive normal float."""
    if not (w > 0 and sys.float_info.min <= w * w <= sys.float_info.max):
        raise ValueError(f"width must be finite and positive with a normal square, got w={w}")


def _rabi(profiles, x):
    """(Omega, lobes) of a stack of profiles at x; lobes stacks t+- = x +- x0, exp(-t+-^2/w^2)."""
    x = np.asarray(x, dtype=float)
    b, c, x0, scale = np.array([(p.b, p.c, p.x0, -p.w**2)
                                for p in profiles]).T[(...,) + (None,) * x.ndim]
    lobes = np.empty((4, len(profiles)) + x.shape)
    np.add(x, (x0, -x0), out=lobes[:2])  # t+-
    with np.errstate(over="ignore"):  # a square that overflows gives g = exact 0
        np.exp(np.square(lobes[:2]) / scale, out=lobes[2:])
    return -1j * b * lobes[2] + c * lobes[3], lobes


def rabi_eval(profile: RabiProfile, x):
    """Evaluate Omega(x); accepts scalars or arrays, returns complex."""
    omega = _rabi([profile], x)[0][0]
    return complex(omega) if np.ndim(omega) == 0 else omega


def rabi_gradient(profile: RabiProfile, lobes) -> np.ndarray:
    """dOmega/d(b, c, x0) from the profile's member of _rabi's lobes, shape (3,) + lobes[0].shape.

    g'(t) = -2 t/w^2 g(t), and x0 enters the b lobe as +x0 and the c lobe
    as -x0.
    """
    t_plus, t_minus, g_plus, g_minus = lobes
    grad = np.zeros((3,) + t_plus.shape, dtype=complex)
    np.negative(g_plus, out=grad[0].imag)
    grad[1].real = g_minus
    np.multiply((2.0 * profile.c / profile.w**2) * t_minus, g_minus, out=grad[2].real)
    np.multiply((2.0 * profile.b / profile.w**2) * t_plus, g_plus, out=grad[2].imag)
    return grad


def check_resolution(k: float, h: float):
    """Raise GridError from kh = sqrt(6), where Numerov's free dispersion
    cos Kh = (1 - 5t/12)/(1 + t/12), t = (kh)^2, reaches -1: there an open
    channel has no propagating discrete wave (and the Nystrom solve, which
    shares this floor, is far from converged).  Warn if spacing h gives
    fewer than MIN_POINTS_PER_WAVELENGTH at k."""
    if k * h >= math.sqrt(6.0):
        raise GridError(f"spacing h={h:.4g} carries no wave of k={k:.4g} "
                        f"(k h = {k * h:.3g} >= sqrt(6)); refine the grid")
    ppw = (2.0 * np.pi / k) / h
    if ppw < MIN_POINTS_PER_WAVELENGTH:
        warnings.warn(
            f"only {ppw:.1f} points per shortest open wavelength "
            f"(< {MIN_POINTS_PER_WAVELENGTH}); refine the grid",
            ResolutionWarning,
            stacklevel=2,
        )


def velocity_to_energy(v: float) -> float:
    """E = v^2/2 in reduced units; for the ground channel k = v."""
    if not math.isfinite(v):
        raise ValueError(f"velocity must be finite, got {v}")
    if v < 0:
        raise ValueError(f"velocity must be >= 0, got {v}")
    if not math.isfinite(float(v) * float(v)):
        raise ValueError(f"velocity must have a finite square, got {v}")
    if v > 0 and 0.5 * v * v == 0.0:
        raise ValueError(f"velocity {v} is so small that its energy v^2/2 underflows to 0")
    return 0.5 * v * v
