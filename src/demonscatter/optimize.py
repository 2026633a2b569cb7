"""Gradient-based design of asymmetric devices over (b, c, x0, Delta).

Minimizes the weighted squared deviation of the achieved channel-0
probabilities (|T|^2, |R|^2, |Tt|^2, |Rt|^2) from a target device, at a
single design velocity v0 with gamma = 0.  A seeded screening pass ranks
random draws from PARAM_BOX by their cost; L-BFGS-B (box-bounded
quasi-Newton; Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1190
(1995)) then descends from the best of them, with restarts, confined to
PARAM_BOX.  Every evaluation builds the two-level model and reads channel 0
alone from the coupled-channel solve: screening draws SCREEN_CHUNK at a time
as one stack, a descent evaluation through `solve_channel_jacobian`, which
adds the exact gradient by the adjoint method on the same LU.

The search runs on a design grid derived from the physics (`design_grid`):
the caller's box, with only as many points as the shortest local wavelength
over PARAM_BOX needs; screening ranks on a grid from the same rule at half
the points per wavelength.  Screening rows of the search log hold
screening-grid costs, descent rows design-grid costs.  The returned point is
solved once more on the caller's grid, so a result's cost, probabilities, D
and converged flag are those of the caller's grid.
`scipy.optimize` loads on the first `optimize` call, not on import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .demon import demon_parameter
from .errors import ModelError
from .local_solver import (
    _solve_channels,
    _two_level_models,
    build_two_level_model,
    solve_channel_jacobian,
    two_level_derivatives,
)
from .units import (DEFAULT_WIDTH, Grid, RabiProfile, check_width, default_grid, make_grid,
                    velocity_to_energy)

#: Search box for (b, c, x0, Delta); covers the reference optimum.
PARAM_BOX = np.array([(0.0, 400.0), (0.0, 400.0), (0.0, 0.5), (0.0, 200.0)])

#: Design-grid points per shortest local wavelength (see design_grid).  The
#: probabilities at PAPER_POINT and at the 16 corners of PARAM_BOX then lie
#: within 5e-7 of their n = 16001 values at v0 = 8, and within 1e-6 for v0
#: from 4 to 16 and widths w down to 0.02.
DESIGN_POINTS_PER_WAVELENGTH = 50

#: Screening-grid points per shortest local wavelength; screened costs only rank.
#: At v0 = 8 (n = 362, not 723), seeds 1-8 x TARGETS x 200 draws: same top 10 in
#: 24/24 rankings, same full order in 22/24 (ranks 50, 111 differ), costs within 1.4e-5.
SCREEN_POINTS_PER_WAVELENGTH = 25

#: Screening draws solved as one stack; at n = 362, 10 beat 1, 5 and 25 per draw.
SCREEN_CHUNK = 10

#: Largest target weight: with |p - t| <= 1, the cost and its gradient stay
#: finite (the same margin to the float range as local_solver.BAND_LIMIT).
WEIGHT_LIMIT = 1e300

#: Cost below which a run counts as converged.
CONVERGED_COST = 1e-3

#: The published half-demon design point (b, c, x0, Delta).
PAPER_POINT = (165.874, 103.876, 0.16455, 91.211)

#: Common targets: probabilities (|T|^2, |R|^2, |Tt|^2, |Rt|^2).
TARGETS = {
    "half-demon": (0.5, 0.0, 0.0, 0.5),
    "T/A": (1.0, 0.0, 0.0, 0.0),
    "A/R": (0.0, 0.0, 0.0, 1.0),
}


@dataclass(frozen=True)
class DeviceTarget:
    """Target probabilities with per-component weights."""

    probabilities: tuple
    weights: tuple = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        p = tuple(float(v) for v in self.probabilities)
        w = tuple(float(v) for v in self.weights)
        if len(p) != 4 or len(w) != 4:
            raise ValueError("need exactly four targets and four weights")
        if not all(0.0 <= v <= 1.0 for v in p):
            raise ValueError(f"targets must lie in [0, 1], got {p}")
        if not all(0.0 <= v <= WEIGHT_LIMIT for v in w) or not any(v > 0 for v in w):
            raise ValueError(f"weights must be finite, in [0, {WEIGHT_LIMIT:.0e}] "
                             f"and not all zero, got {w}")
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "weights", w)

    @classmethod
    def named(cls, name: str) -> "DeviceTarget":
        if name not in TARGETS:
            raise ValueError(f"unknown target {name!r}; choose from {sorted(TARGETS)}")
        return cls(probabilities=TARGETS[name])


@dataclass
class OptimizationResult:
    """Best parameters found plus the bookkeeping of the search."""

    parameters: tuple          # (b, c, x0, Delta)
    cost: float
    probabilities: tuple
    D: float
    evaluations: int
    converged: bool
    initial_cost: Optional[float] = None
    log: list = field(default_factory=list, repr=False)  # screening-, then design-grid costs


def _check_design(v0: float, w: float):
    """Reject a design velocity that is not finite and positive or whose square
    overflows (velocity_to_energy), and a width that RabiProfile rejects."""
    if not 0.0 < v0 < np.inf:
        raise ValueError(f"design velocity must be finite and positive, got {v0}")
    velocity_to_energy(v0)
    check_width(w)


def design_grid(grid: Grid, v0: float, w: float = DEFAULT_WIDTH) -> Grid:
    """The grid one search runs on: grid's box, n set by the worst case of PARAM_BOX.

    The shortest local wavelength belongs to the lower eigenvalue of
    V + diag(0, -Delta), -(Delta + sqrt(Delta^2 + |Omega|^2))/2, and
    |Omega|^2 <= b^2 + c^2, so over the box
    k_max^2 = 2 E + Delta_max + sqrt(Delta_max^2 + b_max^2 + c_max^2).
    The profile's power spectrum has rms wavenumber 1/w, so the grid gives
    DESIGN_POINTS_PER_WAVELENGTH points to the wavelength of
    hypot(k_max, 1/w).  n depends on v0 and w only, never on a candidate,
    so the cost landscape does not jump with Delta.  A grid that is no
    finer than that is returned itself.
    """
    _check_design(v0, w)
    return _resolved(grid, v0, w, DESIGN_POINTS_PER_WAVELENGTH)


def _resolved(grid: Grid, v0: float, w: float, points_per_wavelength: int) -> Grid:
    """design_grid's rule at points_per_wavelength; callers check v0 and w."""
    b, c, _x0, delta = PARAM_BOX[:, 1]
    k_max = np.sqrt(v0 * v0 + delta + np.hypot(delta, np.hypot(b, c)))
    h = 2.0 * np.pi / (points_per_wavelength * np.hypot(k_max, 1.0 / w))
    n = int(np.ceil((grid.x_max - grid.x_min) / h)) + 1
    return grid if n >= grid.n else make_grid(grid.x_min, grid.x_max, n)


def _evaluate(params, target: DeviceTarget, v0: float, w: float, grid: Grid,
              gradient: bool = False):
    """(cost, channel-0 amplitudes, d cost/d params if gradient else None) at params."""
    return _evaluations([params], target, v0, w, grid, gradient)[0]


def _evaluations(points, target: DeviceTarget, v0: float, w: float, grid: Grid,
                 gradient: bool = False):
    """_evaluate at each of points, bit for bit, from one model stack and, without
    gradient, one stacked solve; callers check v0 and w once."""
    profiles = [RabiProfile(*map(float, params[:3]), w=w) for params in points]
    models, lobes = _two_level_models(profiles, [float(p[3]) for p in points], grid=grid)
    E = velocity_to_energy(v0)
    solved = ([solve_channel_jacobian(model, E, *two_level_derivatives(profile, own))
               for model, profile, own in zip(models, profiles, lobes.swapaxes(0, 1))]
              if gradient else [(amps, None) for amps in _solve_channels(models, E)])
    out = []
    for amps, jac in solved:
        deviations = list(zip(target.weights, amps.probabilities, target.probabilities))
        cost_, grad = float(sum(wt * (a - t) ** 2 for wt, a, t in deviations)), None
        if gradient:  # d|a_k|^2/dp = 2 Re(conj(a_k) da_k/dp)
            a = np.array([amps.T, amps.R, amps.Tt, amps.Rt])
            weights = np.array([2.0 * wt * (p - t) for wt, p, t in deviations])
            grad = weights @ (2.0 * (a.conj()[:, None] * jac).real)
        out.append((cost_, amps, grad))
    return out


def _result(params, cost_: float, amps, evaluations: int, **extra) -> OptimizationResult:
    """Result at params from the cost and amplitudes already computed there."""
    return OptimizationResult(
        parameters=params,
        cost=cost_,
        probabilities=amps.probabilities,
        D=demon_parameter(amps),
        evaluations=evaluations,
        converged=cost_ < CONVERGED_COST,
        **extra,
    )


class _BudgetSpent(Exception):
    """Raised by the objective when a descent has used its evaluations."""


def cost(params, target: DeviceTarget, v0: float, w: float = DEFAULT_WIDTH,
         grid: Optional[Grid] = None) -> float:
    """Weighted squared deviation of achieved from target probabilities."""
    _check_design(v0, w)
    return _evaluate(params, target, v0, w, grid if grid is not None else default_grid())[0]


def optimize(
    target: DeviceTarget,
    v0: float = 8.0,
    w: float = DEFAULT_WIDTH,
    init=None,
    seed: int = 1,
    budget: int = 5000,
    restarts: int = 8,
    grid: Optional[Grid] = None,
) -> OptimizationResult:
    """L-BFGS-B with exact gradients and random restarts over PARAM_BOX.

    The descents run on design_grid(grid, v0, w); the best point they
    reach is then solved once more on `grid` (default_grid() if None),
    which the result's cost, probabilities, D and converged flag refer to.
    A grid no finer than the design grid is searched itself, with no extra
    solve.

    A screening pass ranks min(budget // 4, 25 * restarts) seeded uniform
    draws from PARAM_BOX by cost alone, on design_grid's rule at
    SCREEN_POINTS_PER_WAVELENGTH; the descents start from the best of
    them, after `init` if given (an explicit (b, c, x0, Delta), clipped to
    PARAM_BOX), one descent each until one converges.  Screening rows of the
    log hold screening-grid costs, descent rows design-grid costs.  `budget`
    caps the evaluations across screening and all descents, a
    cost-and-gradient counting as one; if it runs out the best-so-far is
    returned with converged=False unless it already beat the threshold.
    """
    if budget < 100:
        raise ValueError(f"budget must be >= 100 evaluations, got {budget}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    caller = grid if grid is not None else default_grid()
    b, c, x0, delta = PARAM_BOX[:, 1]
    # the widest lobes must decay in the box, or the search stops at the first of
    # them, and fit its spacing (GridError), or the design grids' n overflows
    try:
        build_two_level_model(RabiProfile(b=b, c=c, x0=x0, w=w), delta, grid=caller)
    except ModelError as exc:
        raise ModelError(f"width w={w:.4g} with PARAM_BOX's x0 = {x0}: {exc}") from exc
    grid = design_grid(caller, v0, w)
    screen = _resolved(caller, v0, w, SCREEN_POINTS_PER_WAVELENGTH)
    from scipy.optimize import minimize   # deferred: costs ~0.2 s to import
    rng = np.random.default_rng(seed)
    lo, span = PARAM_BOX[:, 0], PARAM_BOX[:, 1] - PARAM_BOX[:, 0]

    limit = budget   # evaluations allowed before the current descent stops
    log = []
    best = (np.inf, None, None)   # cost, normalized point, amplitudes

    # the search runs in box-normalized coordinates u in [0, 1]^4 (a point, or rows solved
    # SCREEN_CHUNK at a time), so all four parameters carry comparable step sizes
    def f(u, gradient=False, on=grid):
        nonlocal best
        if len(log) >= limit:
            raise _BudgetSpent
        us = np.reshape(u, (-1, 4))
        points = lo + us * span
        out = sum((_evaluations(points[i:i + SCREEN_CHUNK], target, v0, w, on, gradient)
                   for i in range(0, len(us), SCREEN_CHUNK)), [])
        for row, p, (c, amps, _grad) in zip(us, points, out):
            log.append((len(log) + 1, tuple(float(v) for v in p), c))
            if on is grid and c < best[0]:
                best = (c, np.array(row, dtype=float), amps)
        return (out[0][0], out[0][2] * span) if gradient else [c for c, _a, _g in out]

    def run(u0, maxfev):
        # L-BFGS-B checks its maxfun only between iterations, so a line
        # search could overrun it; f enforces the cap instead
        nonlocal limit
        limit = len(log) + maxfev
        try:
            minimize(f, np.clip(u0, 0.0, 1.0), args=(True,), jac=True,
                     method="L-BFGS-B", bounds=[(0.0, 1.0)] * 4)
        except _BudgetSpent:
            pass

    # cheap screening pass ranks random draws; the restarts descend from the
    # most promising ones (the landscape is multimodal)
    draws = rng.random((min(budget // 4, 25 * restarts), 4))
    ranked = draws[np.argsort(f(draws, on=screen), kind="stable")]
    starts = []
    if init is not None:
        starts.append((np.asarray(init, dtype=float) - lo) / span)
    starts.extend(ranked)

    # per-run budget sized for `restarts` runs plus a reserve of two; further
    # ranked starts are tried if budget is left after that
    per_restart = max(100, (budget - len(log)) // (restarts + 2))
    for start in starts:
        remaining = budget - len(log)
        if remaining <= 0:
            break
        run(start, min(per_restart, remaining))
        if best[0] < CONVERGED_COST:
            break
    params = tuple(float(v) for v in lo + best[1] * span)
    cost_, amps = best[0], best[2]
    if grid is not caller:
        cost_, amps, _ = _evaluate(params, target, v0, w, caller)
    return _result(params, cost_, amps, len(log), log=log)


def refine_paper_point(
    v0: float = 8.0,
    budget: int = 2000,
    grid: Optional[Grid] = None,
) -> OptimizationResult:
    """Polish the published design point against the half-demon target.

    Reports the cost at the published parameters on `grid` and the result
    of optimize (searched on the design grid, reported on `grid`) with
    `budget` as given; a budget <= 0 returns the initial point unchanged.
    """
    _check_design(v0, DEFAULT_WIDTH)
    if grid is None:
        grid = default_grid()
    target = DeviceTarget.named("half-demon")
    # optimize checks the budget before the initial point is solved
    result = None if budget <= 0 else optimize(target, v0=v0, init=PAPER_POINT,
                                                budget=budget, restarts=1, grid=grid)
    initial_cost, amps, _ = _evaluate(PAPER_POINT, target, v0, DEFAULT_WIDTH, grid)
    if result is None:
        return _result(PAPER_POINT, initial_cost, amps, 1, initial_cost=initial_cost)
    result.initial_cost = initial_cost
    return result
