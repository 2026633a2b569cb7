import itertools
import sys

import numpy as np
import pytest

from demonscatter.channels import extract_channel
from demonscatter.demon import demon_parameter
from demonscatter.errors import ModelError
import demonscatter.local_solver as local_solver
from demonscatter.local_solver import build_two_level_model, solve_local
from demonscatter.optimize import (
    PAPER_POINT,
    PARAM_BOX,
    SCREEN_CHUNK,
    SCREEN_POINTS_PER_WAVELENGTH,
    TARGETS,
    DeviceTarget,
    _evaluate,
    _evaluations,
    _resolved,
    cost,
    design_grid,
    optimize,
    refine_paper_point,
)
from demonscatter.units import DEFAULT_WIDTH, RabiProfile, default_grid, make_grid

COARSE = make_grid(-1.5, 1.5, 1001)

#: Largest gap of any probability between the design grid and the default
#: grid that the design-grid rule allows at v0 = 8.
DESIGN_GRID_ERROR = 1e-6


def test_target_validation():
    with pytest.raises(ValueError):
        DeviceTarget(probabilities=(1.2, 0, 0, 0))
    with pytest.raises(ValueError):
        DeviceTarget(probabilities=(0.5, 0, 0, 0.5), weights=(0, 0, 0, 0))
    with pytest.raises(ValueError):
        DeviceTarget(probabilities=(0.5, 0, 0, 0.5), weights=(1, 1, -1, 1))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            DeviceTarget(probabilities=(0.5, 0, 0, 0.5), weights=(bad, 1, 1, 1))
    with pytest.raises(ValueError):
        DeviceTarget.named("demon")


def test_cost_self_consistency():
    params = (100.0, 80.0, 0.2, 50.0)
    model = build_two_level_model(
        RabiProfile(b=params[0], c=params[1], x0=params[2]), params[3],
        grid=COARSE,
    )
    achieved = extract_channel(solve_local(model, 32.0).S, 0).probabilities
    c = cost(params, DeviceTarget(probabilities=achieved), 8.0, grid=COARSE)
    assert c == pytest.approx(0.0, abs=1e-12)


def test_cost_free_particle_vs_half_demon():
    c = cost((0.0, 0.0, 0.1, 50.0), DeviceTarget.named("half-demon"), 8.0,
             grid=COARSE)
    # (1,0,1,0) vs (0.5,0,0,0.5): 0.25 + 0 + 1 + 0.25
    assert c == pytest.approx(1.5, abs=1e-6)


def test_cost_paper_point():
    c = cost(PAPER_POINT, DeviceTarget.named("half-demon"), 8.0)
    assert c <= 4 * 0.02**2


def test_cost_sign_flip_invariance():
    target = DeviceTarget.named("half-demon")
    b, c0, x0, d = 120.0, 90.0, 0.15, 60.0
    c_plus = cost((b, c0, x0, d), target, 8.0, grid=COARSE)
    c_minus = cost((-b, -c0, x0, d), target, 8.0, grid=COARSE)
    assert c_plus == pytest.approx(c_minus, rel=1e-10)


def test_cost_invalid_inputs():
    target = DeviceTarget.named("half-demon")
    with pytest.raises(ValueError):
        cost(PAPER_POINT, target, 0.0)
    with pytest.raises(ValueError):
        cost(PAPER_POINT, target, 8.0, w=0.0)


def test_optimize_budget_precondition():
    with pytest.raises(ValueError):
        optimize(DeviceTarget.named("half-demon"), budget=50)


@pytest.mark.parametrize("restarts", [0, -1])
def test_optimize_needs_a_restart(restarts, solve_calls):
    with pytest.raises(ValueError, match="restarts"):
        optimize(DeviceTarget.named("half-demon"), budget=200, restarts=restarts)
    assert solve_calls == []


@pytest.mark.parametrize("v0, w", [(np.inf, 0.14), (np.nan, 0.14), (-np.inf, 0.14),
                                   (8.0, np.nan), (8.0, np.inf)])
def test_non_finite_design_is_rejected_before_any_solve(v0, w, solve_calls):
    target = DeviceTarget.named("half-demon")
    with pytest.raises(ValueError, match="finite"):
        design_grid(default_grid(), v0, w)
    with pytest.raises(ValueError, match="finite"):
        cost(PAPER_POINT, target, v0, w, grid=COARSE)
    with pytest.raises(ValueError, match="finite"):
        optimize(target, v0=v0, w=w, budget=200, restarts=1, grid=COARSE)
    assert solve_calls == []


def test_width_whose_widest_lobes_reach_the_box_ends_is_rejected_before_any_solve(
        solve_calls):
    """At w = 0.3 the lobes at x0 = 0.5 keep 1.5e-5 of their peak at |x| = 1.5."""
    with pytest.raises(ModelError, match=r"w=0\.3 .*not negligible at grid ends"):
        optimize(DeviceTarget.named("half-demon"), w=0.3, budget=100, restarts=1,
                 grid=make_grid(-1.5, 1.5, 41))
    assert solve_calls == []


@pytest.mark.parametrize("v0", [0.0, -1.0, np.nan, np.inf])
def test_refine_rejects_bad_velocity_before_any_solve(v0, solve_calls):
    with pytest.raises(ValueError, match="design velocity"):
        refine_paper_point(v0, budget=0)
    assert solve_calls == []


@pytest.mark.parametrize("budget", [1, 50, 99])
def test_refine_passes_its_budget_to_optimize_before_any_solve(budget, solve_calls):
    """optimize's floor of 100 evaluations holds for refine_paper_point too."""
    with pytest.raises(ValueError, match="budget must be >= 100"):
        refine_paper_point(8.0, budget=budget, grid=make_grid(-1.5, 1.5, 401))
    assert solve_calls == []


def test_optimize_checks_the_design_once(monkeypatch, solve_calls):
    module = sys.modules["demonscatter.optimize"]
    checks = []
    real_check = module._check_design
    monkeypatch.setattr(module, "_check_design",
                        lambda v0, w: checks.append((v0, w)) or real_check(v0, w))
    optimize(DeviceTarget.named("half-demon"), budget=100, restarts=1,
             grid=make_grid(-1.5, 1.5, 401))
    assert len(checks) == 1
    assert len(solve_calls) > 1


def test_optimize_determinism():
    target = DeviceTarget.named("half-demon")
    r1 = optimize(target, seed=3, budget=150, restarts=1, grid=COARSE)
    r2 = optimize(target, seed=3, budget=150, restarts=1, grid=COARSE)
    assert r1.parameters == r2.parameters
    assert r1.cost == r2.cost
    assert r1.evaluations == r2.evaluations


def test_optimize_with_init_near_paper_converges():
    r = optimize(
        DeviceTarget.named("half-demon"),
        init=PAPER_POINT,
        budget=600,
        restarts=1,
    )
    assert r.converged
    assert r.probabilities[0] == pytest.approx(0.5, abs=0.02)
    assert r.probabilities[3] == pytest.approx(0.5, abs=0.03)


def test_optimize_respects_no_go_bound():
    r = optimize(
        DeviceTarget.named("half-demon"),
        init=PAPER_POINT,
        budget=200,
        restarts=1,
        grid=COARSE,
    )
    assert r.D <= 0.5 + 1e-6
    for _, _, c in r.log:
        assert c >= 0.0


def test_refine_paper_point():
    r = refine_paper_point(8.0, budget=400)
    assert r.initial_cost <= 4 * 0.02**2
    assert r.cost < 1e-3
    assert r.converged


def test_refine_zero_budget_returns_initial():
    r = refine_paper_point(8.0, budget=0)
    assert r.parameters == PAPER_POINT
    assert r.cost == r.initial_cost
    assert r.evaluations == 1


def test_refine_off_design_velocity_costs_more():
    c8 = refine_paper_point(8.0, budget=0).initial_cost
    c4 = refine_paper_point(4.0, budget=0).initial_cost
    assert c4 > c8


@pytest.fixture
def solve_calls(monkeypatch):
    """Count the models whose Numerov systems are factored, one per solve.

    A screening evaluation solves as a member of a stack of draws, a descent
    evaluation through solve_channel_jacobian; local_solver._factor factors
    every member of a stack once, in one zgbtrf.
    """
    calls = []
    real_factor = local_solver._factor

    def counting(models, *args):
        factors = real_factor(models, *args)
        calls.extend(models)
        return factors

    monkeypatch.setattr(local_solver, "_factor", counting)
    return calls


def _amplitudes_at(params, grid=None):
    b, c, x0, delta = params
    model = build_two_level_model(RabiProfile(b=b, c=c, x0=x0), delta, grid=grid)
    return extract_channel(solve_local(model, 32.0).S, 0)


def test_refine_zero_budget_solves_once(solve_calls):
    r = refine_paper_point(8.0, budget=0)
    assert len(solve_calls) == 1
    amps = _amplitudes_at(PAPER_POINT)
    assert r.probabilities == amps.probabilities
    assert r.D == demon_parameter(amps)


def test_optimize_reports_on_callers_grid(solve_calls):
    target = DeviceTarget.named("half-demon")
    budget, restarts = 150, 1
    r = optimize(target, budget=budget, restarts=restarts, grid=COARSE)
    assert design_grid(COARSE, 8.0).n < COARSE.n
    # every evaluation solves on the design grid, then the result once on COARSE
    assert len(solve_calls) == r.evaluations + 1
    amps = _amplitudes_at(r.parameters, COARSE)
    assert r.probabilities == amps.probabilities
    assert r.D == demon_parameter(amps)
    deviations = [a - t for a, t in zip(amps.probabilities, target.probabilities)]
    assert r.cost == pytest.approx(sum(d * d for d in deviations), rel=1e-12)
    # the descent rows, after the screening rows, hold design-grid costs:
    # within the design grid's error of cost
    slack = sum(2 * abs(d) * DESIGN_GRID_ERROR + DESIGN_GRID_ERROR**2
                for d in deviations)
    descent = r.log[min(budget // 4, 25 * restarts):]
    assert abs(min(c for _, _, c in descent) - r.cost) <= slack


@pytest.mark.parametrize("v0", [1e5, 1e10, 1e154])
def test_design_grid_never_refines_the_callers_grid(v0):
    """However fast the design, the search never asks for more nodes than
    the caller's grid has: at these velocities that grid is returned itself."""
    grid = default_grid()
    assert design_grid(grid, v0) is grid


def test_optimize_solves_once_per_evaluation(solve_calls):
    """On a grid no finer than the design grid the search runs on it."""
    grid = make_grid(-1.5, 1.5, 401)
    assert design_grid(grid, 8.0) is grid
    budget, restarts = 150, 1
    r = optimize(DeviceTarget.named("half-demon"), budget=budget, restarts=restarts, grid=grid)
    assert len(solve_calls) == r.evaluations
    # the reported point is the best descent row (the screening rows come
    # first), not a re-solve of it
    amps = _amplitudes_at(r.parameters, grid)
    assert r.probabilities == amps.probabilities
    assert r.D == demon_parameter(amps)
    assert r.cost == min(c for _, _, c in r.log[min(budget // 4, 25 * restarts):])


def screen_grid(grid, v0=8.0):
    """The grid optimize screens on: design_grid's rule at the screening density."""
    return _resolved(grid, v0, DEFAULT_WIDTH, SCREEN_POINTS_PER_WAVELENGTH)


@pytest.mark.parametrize("name, seed", [("half-demon", 5), ("T/A", 1), ("A/R", 4),
                                        ("half-demon", 1), ("A/R", 1)])
def test_screening_grid_ranks_the_descent_starts_as_the_design_grid_does(name, seed):
    """The benchmark's designs and criterion 9's: the starts the descents use,
    the first `restarts` of the screening order, do not depend on its grid."""
    budget, restarts = 5000, 8
    draws = np.random.default_rng(seed).random((min(budget // 4, 25 * restarts), 4))
    points = PARAM_BOX[:, 0] + draws * np.ptp(PARAM_BOX, axis=1)
    target = DeviceTarget.named(name)
    screen, design = screen_grid(default_grid()), design_grid(default_grid(), 8.0)
    assert screen.n < design.n
    orders = []
    for grid in (screen, design):
        costs = [_evaluate(p, target, 8.0, DEFAULT_WIDTH, grid)[0] for p in points]
        orders.append(sorted(range(len(points)), key=costs.__getitem__)[:restarts])
    assert orders[0] == orders[1]


def test_screening_rows_hold_screening_costs_and_never_become_the_result():
    grid = make_grid(-1.5, 1.5, 401)
    screen = screen_grid(grid)
    assert screen.n < design_grid(grid, 8.0).n == grid.n
    target = DeviceTarget.named("half-demon")
    budget, restarts = 150, 1
    r = optimize(target, budget=budget, restarts=restarts, grid=grid)
    screened = min(budget // 4, 25 * restarts)
    for i, (_i, p, c) in enumerate(r.log):
        on, gradient = (screen, False) if i < screened else (grid, True)
        assert c == _evaluate(p, target, 8.0, DEFAULT_WIDTH, on, gradient)[0], i
    assert r.cost == min(c for _, _, c in r.log[screened:])


def draws(seed, count):
    """count seeded uniform points of PARAM_BOX."""
    u = np.random.default_rng(seed).random((count, 4))
    return PARAM_BOX[:, 0] + u * np.ptp(PARAM_BOX, axis=1)


def test_stacked_screening_gives_each_draw_its_own_bits():
    """Draws with x0 over [0, 0.5], so members of different supports share one
    band buffer, in chunks of SCREEN_CHUNK with a ragged last chunk: each
    member's cost and amplitudes are its batch-of-one evaluation's bit for bit,
    and reversing the order of the draws changes no bit."""
    grid = screen_grid(default_grid())
    target = DeviceTarget.named("half-demon")
    count = 2 * SCREEN_CHUNK + 3
    points = draws(7, count)
    points[:, 2] = np.linspace(0.0, 0.5, count)
    models = [build_two_level_model(RabiProfile(*p[:3]), p[3], grid=grid) for p in points]
    assert len({model.support for model in models}) > count // 2
    alone = [_evaluate(p, target, 8.0, DEFAULT_WIDTH, grid)[:2] for p in points]
    for order in (slice(None), slice(None, None, -1)):
        chunks = [points[order][i:i + SCREEN_CHUNK] for i in range(0, count, SCREEN_CHUNK)]
        stacked = [r[:2] for chunk in chunks
                   for r in _evaluations(chunk, target, 8.0, DEFAULT_WIDTH, grid)]
        assert stacked == alone[order]


@pytest.mark.parametrize("x0, message", [(1.4, "potential not negligible at grid ends"),
                                         (50.0, "vanishes on the grid")],
                         ids=["end-decay", "vanishing-lobe"])
def test_a_failing_stack_member_raises_as_it_does_alone(x0, message):
    """A draw whose lobe reaches the box ends, or lies off the grid, in the
    middle of a stack raises the exception its own evaluation raises."""
    grid = screen_grid(default_grid())
    target = DeviceTarget.named("half-demon")
    points = draws(8, 5)
    points[2, 2] = x0
    with pytest.raises(ModelError, match=message) as alone:
        _evaluate(points[2], target, 8.0, DEFAULT_WIDTH, grid)
    with pytest.raises(ModelError) as stacked:
        _evaluations(points, target, 8.0, DEFAULT_WIDTH, grid)
    assert type(stacked.value) is type(alone.value)
    assert str(stacked.value) == str(alone.value)


def test_screening_assembles_once_per_chunk(solve_calls, monkeypatch):
    """The screening draws are assembled SCREEN_CHUNK at a time, and each is
    factored once; every descent evaluation is a stack of one."""
    assembled = []
    assemble = local_solver._assemble

    def counting(models, *args):
        assembled.append(len(models))
        return assemble(models, *args)

    monkeypatch.setattr(local_solver, "_assemble", counting)
    budget, restarts = 150, 1
    r = optimize(DeviceTarget.named("half-demon"), budget=budget, restarts=restarts,
                 grid=make_grid(-1.5, 1.5, 401))
    screened = min(budget // 4, 25 * restarts)
    full, rest = divmod(screened, SCREEN_CHUNK)
    chunks = [SCREEN_CHUNK] * full + [rest] * (rest > 0)
    assert assembled[:len(chunks)] == chunks
    assert assembled[len(chunks):] == [1] * (r.evaluations - screened)
    assert len(solve_calls) == r.evaluations


def test_design_grid_keeps_box_and_grows_with_velocity_and_narrow_width():
    for grid in (default_grid(), COARSE, make_grid(-3.0, 2.0, 4001),
                 make_grid(-1.5, 1.5, 201)):
        d = design_grid(grid, 8.0)
        assert d.n <= grid.n
        assert (d.x_min, d.x_max) == (grid.x_min, grid.x_max)
    fine = make_grid(-1.5, 1.5, 100001)
    by_v0 = [design_grid(fine, v0).n for v0 in (0.5, 1, 2, 4, 8, 16, 32, 64)]
    assert by_v0 == sorted(by_v0)
    by_w = [design_grid(fine, 8.0, w).n for w in (0.4, 0.2, 0.1, 0.05, 0.02)]
    assert by_w == sorted(by_w)
    assert design_grid(default_grid(), 8.0).n < default_grid().n
    with pytest.raises(ValueError):
        design_grid(default_grid(), 0.0)
    with pytest.raises(ValueError):
        design_grid(default_grid(), 8.0, w=0.0)


def test_design_grid_error_over_param_box():
    grid = default_grid()
    coarse = design_grid(grid, 8.0)
    for params in [PAPER_POINT, *itertools.product(*PARAM_BOX)]:
        gap = np.subtract(_amplitudes_at(params, coarse).probabilities,
                          _amplitudes_at(params, grid).probabilities)
        assert np.max(np.abs(gap)) <= DESIGN_GRID_ERROR, params


#: The paper point and five seeded draws from PARAM_BOX.
GRADIENT_POINTS = [PAPER_POINT, *(
    tuple(PARAM_BOX[:, 0] + u * np.ptp(PARAM_BOX, axis=1))
    for u in np.random.default_rng(7).random((5, 4)))]


def gradient_and_differences(params, target, grid):
    """d cost/d (b, c, x0, Delta) of a cost-and-gradient evaluation, and central
    differences of cost with steps of 1e-5 of PARAM_BOX's span."""
    _c, _amps, grad = _evaluate(params, target, 8.0, DEFAULT_WIDTH, grid, gradient=True)
    differences = []
    for q, step in enumerate(1e-5 * np.ptp(PARAM_BOX, axis=1)):
        shift = np.zeros(4)
        shift[q] = step
        differences.append((cost(np.add(params, shift), target, 8.0, grid=grid)
                            - cost(np.subtract(params, shift), target, 8.0, grid=grid))
                           / (2 * step))
    return grad, np.array(differences)


@pytest.mark.parametrize("params", GRADIENT_POINTS)
def test_gradient_matches_central_differences(params):
    grid = design_grid(default_grid(), 8.0)
    for name in TARGETS:
        grad, differences = gradient_and_differences(params, DeviceTarget.named(name), grid)
        # every component, Delta and x0 included, to 1e-6 relative
        assert np.all(np.abs(grad - differences) <= 1e-6 * np.abs(differences)), name


def test_gradient_check_catches_a_dropped_bloch_factor_term(monkeypatch):
    """Delta moves the channel-1 Bloch factor in both boundary rows; without
    that term of dA/dDelta the Delta component fails the check above."""
    grid = design_grid(default_grid(), 8.0)
    target = DeviceTarget.named("half-demon")
    bloch = local_solver._bloch

    def without_g(k, h):
        lam, s, g = bloch(k, h)
        return lam, s, np.zeros_like(g)

    monkeypatch.setattr(local_solver, "_bloch", without_g)
    grad, differences = gradient_and_differences(PAPER_POINT, target, grid)
    error = np.abs(grad - differences) / np.abs(differences)
    assert np.all(error[:3] <= 1e-6)
    assert error[3] > 1e-6


@pytest.mark.parametrize("v0", [1e-7, 1e-9])
def test_gradient_is_finite_just_above_threshold(v0):
    """At k = v0 channel 0's (k h)^2 is far below the rounding of cos Kh;
    the gradient handed to L-BFGS-B must still be a number."""
    c, _amps, grad = _evaluate(PAPER_POINT, DeviceTarget.named("half-demon"), v0,
                               DEFAULT_WIDTH, design_grid(default_grid(), v0), gradient=True)
    assert np.isfinite(c) and np.all(np.isfinite(grad))


@pytest.mark.parametrize("name, seed", [("A/R", 2), ("half-demon", 4)])
def test_seeds_that_ran_out_of_budget_converge(name, seed):
    """Under Nelder-Mead these two runs ended at 2.4e-3 (A/R) or spent all
    5,000 evaluations (half-demon)."""
    r = optimize(DeviceTarget.named(name), v0=8.0, seed=seed, budget=5000, restarts=8)
    assert r.converged
    assert r.evaluations < 5000


@pytest.mark.parametrize("restarts", [1, 2])
def test_budget_is_a_hard_cap(restarts):
    grid = make_grid(-1.5, 1.5, 401)
    names = sorted(TARGETS)
    spent = []
    for budget in [*range(100, 212, 8), 211]:
        r = optimize(DeviceTarget.named(names[budget % 3]), seed=budget, budget=budget,
                     restarts=restarts, grid=grid)
        assert r.evaluations <= budget
        assert [i for i, _p, _c in r.log] == list(range(1, r.evaluations + 1))
        spent.append(r.evaluations == budget)
    assert any(spent)  # the cap binds, mid-descent, in some of these runs


@pytest.mark.parametrize("init", [None, PAPER_POINT], ids=["draws", "init"])
def test_every_descent_starts_at_init_or_a_ranked_draw(init, monkeypatch):
    """No descent restarts where an earlier one stopped: with a target that
    no device reaches, the descents end with budget left, and the run stops
    there rather than descend again from the best point."""
    import scipy.optimize

    starts = []
    minimize = scipy.optimize.minimize

    def recording(fun, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return minimize(fun, x0, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "minimize", recording)
    budget, restarts, seed = 2000, 1, 1
    r = optimize(DeviceTarget(probabilities=(1.0, 1.0, 1.0, 1.0)), init=init, seed=seed,
                 budget=budget, restarts=restarts, grid=make_grid(-1.5, 1.5, 401))
    lo, span = PARAM_BOX[:, 0], np.ptp(PARAM_BOX, axis=1)
    screened = min(budget // 4, 25 * restarts)
    draws = np.random.default_rng(seed).random((screened, 4))
    costs = [c for _i, _p, c in r.log[:screened]]
    expected = [] if init is None else [np.clip((np.asarray(init) - lo) / span, 0.0, 1.0)]
    expected += [draws[i] for i in sorted(range(screened), key=costs.__getitem__)]
    assert not r.converged and r.evaluations < budget
    assert 1 < len(starts) <= len(expected)
    for i, (start, u) in enumerate(zip(starts, expected)):
        assert np.array_equal(start, u), i
