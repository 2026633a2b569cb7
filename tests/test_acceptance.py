"""Acceptance gate: nine end-to-end criteria, one test (and one printed
pass/fail line) per criterion.  Tolerances are stated inline; helpers live in
the unit-test modules where possible.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from demonscatter.channels import (
    extract_channel,
    unitarity_defect,
)
from demonscatter.demon import demon_parameter, dzero_bounds
from demonscatter.kernels import OpticalParameters, build_kernel
from demonscatter.local_solver import (
    LocalPotentialModel,
    build_two_level_model,
    solve_local,
)
from demonscatter.nonlocal_solver import NonlocalKernel, solve_nonlocal
from demonscatter.optimize import DeviceTarget, optimize, refine_paper_point
from demonscatter.symmetry import SymmetryClass, classify, verify_predictions
from demonscatter.units import RabiProfile, make_grid

from oracles import (
    PAPER_DELTA,
    PAPER_PROFILE,
    check_bounds,
    construct_boundary_smatrix,
    haar_unitary,
    smatrix_from_full,
)
from test_local_solver import barrier_model, barrier_t2_exact, random_hermitian_model


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def timed():
    return time.perf_counter()


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_paper_half_demon():
    """The published point is a ½T/R(0.48) device, as the README states.

    The model gives |Rt|^2 = 0.4772 there, not 0.50.  That value is
    converged (grid n = 61..16001, box half-width 1.5..3), the dense Nystrom
    solve of the Feshbach kernel agrees (0.4772), and rounding of the
    published digits moves it by <= 1.5e-5.  No point near the design meets
    all five checks at |Rt|^2 = 0.50 +- 0.02, even with v and w free (best
    worst-case margin -3e-4, at |Rt|^2 = D = 0.4797).  So the |Rt|^2 check
    is centred on 0.48.  Each single change of convention (coupling Omega
    for Omega/2, eps_2 = +delta, lobe phase +i, mirrored orientation) still
    fails it.
    """
    t0 = timed()
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    a = extract_channel(solve_local(model, 32.0).S, 0)
    dt = timed() - t0
    t2, r2, tt2, rt2 = a.probabilities
    D = demon_parameter(a)
    checks = {
        "|T|^2=0.50+-0.02": abs(t2 - 0.5) <= 0.02,
        "|Rt|^2=0.48+-0.02": abs(rt2 - 0.48) <= 0.02,
        "|Tt|^2<=0.02": tt2 <= 0.02,
        "|R|^2<=0.02": r2 <= 0.02,
        "D=0.50+-0.02": abs(D - 0.5) <= 0.02,
        "runtime<10s": dt < 10.0,
    }
    ok = all(checks.values())
    report(
        1, ok,
        f"T2={t2:.4f} R2={r2:.4f} Tt2={tt2:.4f} Rt2={rt2:.4f} "
        f"D={D:.4f} {dt:.1f}s"
    )
    assert ok, {k: v for k, v in checks.items() if not v}


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_solver_cross_validation():
    t0 = timed()
    rng = np.random.default_rng(5)
    grid = make_grid(-1.5, 1.5, 2001)
    E = 32.0
    worst = 0.0
    for _ in range(20):
        profile = RabiProfile(
            b=rng.uniform(20.0, 180.0),
            c=rng.uniform(20.0, 120.0),
            x0=rng.uniform(0.0, 0.35),
        )
        delta = rng.uniform(10.0, 140.0)
        model = build_two_level_model(profile, delta, grid=grid)
        a_loc = extract_channel(solve_local(model, E).S, 0)
        kernel = build_kernel(
            OpticalParameters(delta=delta, gamma=0.0, profile=profile, E=E),
            grid,
        )
        a_nl = solve_nonlocal(kernel, np.sqrt(2 * E))
        diff = max(
            abs(abs(x) - abs(y))
            for x, y in zip(
                (a_loc.T, a_loc.R, a_loc.Tt, a_loc.Rt),
                (a_nl.T, a_nl.R, a_nl.Tt, a_nl.Rt),
            )
        )
        worst = max(worst, diff)
    dt = timed() - t0
    ok = worst < 1e-4 and dt < 300.0
    report(2, ok, f"20 draws, worst |amplitude| gap {worst:.2e}, {dt:.0f}s")
    assert ok


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_analytic_barrier_oracle():
    t0 = timed()
    model = barrier_model(10.0, 1.0, 9001)
    energies = np.linspace(1.0, 50.0, 50)
    worst = 0.0
    for E in energies:
        t2 = abs(extract_channel(solve_local(model, E).S, 0).T) ** 2
        worst = max(worst, abs(t2 - barrier_t2_exact(10.0, 1.0, E)))
    dt = timed() - t0
    ok = worst < 1e-6 and dt < 30.0
    report(3, ok, f"50 energies, worst |T|^2 error {worst:.2e}, {dt:.0f}s")
    assert ok


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_unitarity():
    t0 = timed()
    rng = np.random.default_rng(11)
    coarse = make_grid(-1.5, 1.5, 2001)
    fine = make_grid(-1.5, 1.5, 3001)
    defects_c, defects_f = [], []
    for _ in range(100):
        model = random_hermitian_model(rng, coarse)
        defects_c.append(solve_local(model, 30.0).unitarity_defect)
        refined = LocalPotentialModel(
            grid=fine,
            channels=model.channels,
            V=np.stack(
                [
                    np.interp(fine.points, coarse.points, model.V[:, a, b].real)
                    + 1j
                    * np.interp(fine.points, coarse.points, model.V[:, a, b].imag)
                    for a in range(model.V.shape[1])
                    for b in range(model.V.shape[2])
                ],
                axis=1,
            ).reshape(fine.n, model.V.shape[1], model.V.shape[2]),
        )
        defects_f.append(solve_local(refined, 30.0).unitarity_defect)
    dt = timed() - t0
    worst = max(defects_c)
    ok = worst < 1e-6 and sum(defects_f) < sum(defects_c) and dt < 300.0
    report(
        4, ok,
        f"100 models, worst defect {worst:.2e}, refined total "
        f"{sum(defects_f):.2e} < {sum(defects_c):.2e}, {dt:.0f}s"
    )
    assert ok


# ---------------------------------------------------------------- criterion 5


@lru_cache(maxsize=1)
def haar_samples():
    """Per-channel (t2, r2, tt2, rt2, D, slacks) for 1e4 Haar S-matrices."""
    rng = np.random.default_rng(42)
    out = []
    for _ in range(10_000):
        n = int(rng.integers(1, 4))
        S = smatrix_from_full(haar_unitary(2 * n, rng))
        for i in range(n):
            a = extract_channel(S, i)
            slacks, _ = check_bounds(a)
            out.append(a.probabilities + (demon_parameter(a),) + (slacks,))
    return out


def test_criterion_5_no_go_bound():
    t0 = timed()
    min_slack = min(min(s[5]) for s in haar_samples())
    d_ok = all(-0.5 - 1e-10 <= s[4] <= 0.5 + 1e-10 for s in haar_samples())
    forbidden = any(
        s[0] > 0.5 + 1e-8 and s[3] > 0.5 + 1e-8 for s in haar_samples()
    )
    tight = True
    for kind in ("half-demon", "T/A", "A/R", "R/T-half"):
        S = construct_boundary_smatrix(kind)
        D = demon_parameter(extract_channel(S, 0))
        tight &= abs(abs(D) - 0.5) < 1e-12 and unitarity_defect(S) < 1e-12
    dt = timed() - t0
    ok = min_slack >= -1e-10 and d_ok and not forbidden and tight and dt < 60.0
    report(
        5, ok,
        f"1e4 Haar samples, min slack {min_slack:.1e}, boundary matrices "
        f"|D|=1/2 to 1e-12, {dt:.0f}s"
    )
    assert ok


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_boundary_structure():
    t0 = timed()
    rng = np.random.default_rng(9)
    S0 = construct_boundary_smatrix("half-demon").full()
    candidates = [extract_channel(smatrix_from_full(S0), 0)]
    for _ in range(2000):
        eps = rng.uniform(0.0, 0.3)
        H = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        H = 0.5 * (H + H.conj().T)
        w, U = np.linalg.eigh(H)
        Q = (U * np.exp(1j * eps * w)) @ U.conj().T
        candidates.append(extract_channel(smatrix_from_full(Q @ S0), 0))
    near = [a for a in candidates if abs(demon_parameter(a) - 0.5) < 1e-3]
    haar_near = [s for s in haar_samples() if abs(s[4] - 0.5) < 1e-3]
    structure_ok = all(
        abs(a.Tt) < 0.05
        and abs(a.R) < 0.05
        and abs(abs(a.T) ** 2 + abs(a.Rt) ** 2 - 1.0) < 0.05
        for a in near
    ) and all(
        np.sqrt(s[2]) < 0.05
        and np.sqrt(s[1]) < 0.05
        and abs(s[0] + s[3] - 1.0) < 0.05
        for s in haar_near
    )
    dt = timed() - t0
    ok = len(near) >= 10 and structure_ok and dt < 60.0
    report(
        6, ok,
        f"{len(near) + len(haar_near)} amplitude sets with |D-1/2|<1e-3, "
        f"all satisfy boundary structure, {dt:.0f}s"
    )
    assert ok


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_symmetry_selection_rules():
    t0 = timed()
    from test_symmetry import BASE, GRID, symmetrized

    all_ok = True
    details = []
    for cls in SymmetryClass:
        if cls is SymmetryClass.Trivial:
            continue
        kernel = NonlocalKernel(grid=GRID, K=symmetrized(BASE, cls))
        rep = verify_predictions(kernel, 6.0)
        good = cls in rep.report.satisfied and rep.all_hold
        all_ok &= good
        if not good:
            details.append(f"{cls.name}: {rep.violations}")
    grid = make_grid(-1.5, 1.5, 2001)
    paper = build_kernel(
        OpticalParameters(delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE,
                          E=32.0),
        grid,
    )
    trivial_only = classify(paper).trivial_only
    dt = timed() - t0
    ok = all_ok and trivial_only and dt < 120.0
    report(
        7, ok,
        f"7 class kernels obey predicted relations at 1e-4, bundled kernel "
        f"Trivial-only={trivial_only}, {dt:.0f}s" + ("; " + "; ".join(details)
                                                     if details else "")
    )
    assert ok


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_dzero_region_data():
    t0 = timed()
    b10 = dzero_bounds(1.0, 0.0)
    b01 = dzero_bounds(0.0, 1.0)
    forced = (b10.lower, b10.upper, b01.lower, b01.upper) == (1.0, 1.0, 0.0, 0.0)
    inside = True
    n_sym = 0
    for t2, r2, tt2, rt2, D, _ in haar_samples():
        if abs(D) < 1e-8:
            n_sym += 1
            b = dzero_bounds(min(t2, 1.0), min(rt2, 1.0 - t2))
            inside &= b.lower - 1e-8 <= tt2 <= b.upper + 1e-8
    dt = timed() - t0
    ok = forced and inside and n_sym > 0 and dt < 60.0
    report(8, ok, f"forced points exact, {n_sym} D=0 samples inside bounds, "
                  f"{dt:.0f}s")
    assert ok


# ---------------------------------------------------------------- criterion 9


def test_criterion_9_optimizer():
    t0 = timed()
    polish = refine_paper_point(8.0, budget=2000)
    results = {
        name: optimize(DeviceTarget.named(name), v0=8.0, seed=1, budget=5000,
                       restarts=8)
        for name in ("half-demon", "T/A", "A/R")
    }
    dt = timed() - t0
    ok = (
        polish.cost < 1e-3
        and all(r.converged for r in results.values())
        and dt < 900.0
    )
    costs = ", ".join(f"{k}={r.cost:.2e}" for k, r in results.items())
    report(9, ok, f"polish cost {polish.cost:.2e}, {costs}, {dt:.0f}s")
    assert ok
