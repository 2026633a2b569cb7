"""The three workloads: inputs made from a seed, one round of program calls,
and the checks on each round's outputs.

A round is a fixed list of operations (one optimizer design, one S-matrix
solve, or one kernel cross-check).  Every round of a run is the same list,
so the share of failed operations does not depend on how many rounds fit in
the measured time.  An operation fails when the program raises or when one
of its checks fails; neither stops the run.

The checks compare against properties the method must have or against
values the benchmark computes itself: the closed-form barrier transmission,
the amplitude relations of a symmetry class, the Nystrom solve of a
design's Feshbach kernel.  Nothing is compared with stored output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import demonscatter as ds
import demonscatter.cli as cli


# ---------------------------------------------------------------- helpers


@dataclass
class Run:
    """What a round needs from its run: the tracer of a traced run, which
    labels its spans with the operation, and the meter of an untraced run,
    which times each program call (see calibrate.py)."""

    tracer: object = None
    meter: object = None

    def call(self, label, fn):
        if self.tracer is not None:
            self.tracer.op = label
        return fn() if self.meter is None else self.meter.call(fn)


def attempt(label, fn, solves, run):
    """Run one operation; a raising program call fails it, not the run."""
    try:
        out = (run or Run()).call(label, fn)
    except Exception as exc:  # any program error is this operation's failure
        return {"op": label, "out": None, "solves": solves,
                "error": f"{type(exc).__name__}: {exc}"}
    return {"op": label, "out": out, "solves": solves, "error": None}


def demon_d(p):
    """D = (|T|^2 - |R|^2 + |Rt|^2 - |Tt|^2) / 2 from (|T|^2, |R|^2, |Tt|^2, |Rt|^2)."""
    t2, r2, tt2, rt2 = p
    return 0.5 * (t2 - r2 + rt2 - tt2)


def moduli(a):
    return (abs(a.T), abs(a.R), abs(a.Tt), abs(a.Rt))


def amplitude_gap(m1, m2):
    return max(abs(x - y) for x, y in zip(m1, m2))


def expect(fails, ok, message):
    if not ok:
        fails.append(message)


def quiet_cli(argv):
    """cli.main with its progress line kept off the benchmark's stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def draw_design(rng):
    """(b, c, x0, delta) from the box the solver cross-check is specified on."""
    return (float(rng.uniform(20.0, 180.0)), float(rng.uniform(20.0, 120.0)),
            float(rng.uniform(0.0, 0.35)), float(rng.uniform(10.0, 140.0)))


# ---------------------------------------------------------------- design

DESIGN_V0 = 8.0
DESIGN_BUDGET = 5000
DESIGN_RESTARTS = 8
REFINE_BUDGET = 2000
#: Optimizer seeds of the named designs.  They are fixed, not drawn from
#: --seed: across optimizer seeds 1 to 8 one design's evaluation count varies
#: eleven-fold (446 to 5000 for the half-demon), which would make wall_s
#: measure the seed instead of the code.
DESIGN_SEEDS = {"half-demon": 5, "T/A": 1, "A/R": 4}
DESIGN_TARGETS = {
    "half-demon": (0.5, 0.0, 0.0, 0.5),
    "T/A": (1.0, 0.0, 0.0, 0.0),
    "A/R": (0.0, 0.0, 0.0, 1.0),
}
CONVERGED = 1e-3
AMPLITUDE_TOL = 1e-4


class Design:
    """Nelder-Mead designs of the named devices plus the paper-point polish."""

    name = "design"

    def __init__(self, seed, out_dir):
        jobs = list(DESIGN_SEEDS) + ["refine"]
        order = np.random.default_rng(seed).permutation(len(jobs))
        self.jobs = [jobs[i] for i in order]
        self._oracle = {}

    def round(self, run=None):
        ops = []
        for job in self.jobs:
            ops.append(attempt(job, lambda job=job: self._design(job), 0, run))
            if ops[-1]["error"] is None:
                ops[-1]["solves"] = ops[-1]["out"].evaluations
        return ops

    @staticmethod
    def _design(job):
        if job == "refine":
            return ds.refine_paper_point(DESIGN_V0, REFINE_BUDGET)
        return ds.optimize(ds.DeviceTarget.named(job), v0=DESIGN_V0,
                           seed=DESIGN_SEEDS[job], budget=DESIGN_BUDGET,
                           restarts=DESIGN_RESTARTS)

    def counters(self, ops):
        evaluations = repeats = 0
        for op in ops:
            res = op["out"]
            if res is None:
                continue
            evaluations += res.evaluations
            seen = {params for _i, params, _c in res.log}
            repeats += len(res.log) - len(seen)
        return {"optimize.evaluations": evaluations,
                "optimize.repeat_evals": repeats}

    def _nystrom(self, params):
        """|T|, |R|, |Tt|, |Rt| of the design's Feshbach kernel, dense Nystrom."""
        if params not in self._oracle:
            b, c, x0, delta = params
            E = 0.5 * DESIGN_V0 * DESIGN_V0
            kernel = ds.build_kernel(
                ds.OpticalParameters(delta=delta, gamma=0.0,
                                     profile=ds.RabiProfile(b=b, c=c, x0=x0), E=E),
                ds.default_grid())
            self._oracle[params] = moduli(ds.solve_nonlocal(kernel, DESIGN_V0))
        return self._oracle[params]

    def check(self, op):
        res, fails = op["out"], []
        target = DESIGN_TARGETS["half-demon" if op["op"] == "refine" else op["op"]]
        p = tuple(res.probabilities)
        recomputed = sum((a - t) ** 2 for a, t in zip(p, target))
        expect(fails, abs(recomputed - res.cost) <= 1e-9,
               f"cost {res.cost} but probabilities give {recomputed}")
        expect(fails, abs(demon_d(p) - res.D) <= 1e-12,
               f"D {res.D} but probabilities give {demon_d(p)}")
        expect(fails, abs(res.D) <= 0.5 + 1e-9, f"|D| = {abs(res.D)} > 1/2")
        expect(fails, res.cost < CONVERGED and res.converged,
               f"not converged: cost {res.cost}")
        nl = self._nystrom(tuple(res.parameters))
        gap = amplitude_gap(tuple(math.sqrt(max(v, 0.0)) for v in p), nl)
        expect(fails, gap <= AMPLITUDE_TOL,
               f"|amplitude| differs from the Nystrom solve by {gap:.2e}")
        return fails


# ---------------------------------------------------------------- sweep

SWEEP_VELOCITIES = (2.0, 10.0, 30)       # two-level designs, as vmin vmax nv
HERMITIAN_VELOCITIES = (4.0, 10.0, 30)   # above every threshold (|eps| <= 5)
HERMITIAN_CHANNELS = (2, 2, 3, 3)
BARRIER = (10.0, 1.0, 9001)              # height, width, grid points
BARRIER_ENERGIES = (1.0, 50.0, 40)
N_SWEEP_DESIGNS = 4
N_CLI_SWEEPS = 2
UNITARITY_TOL = 1e-6
BARRIER_TOL = 1e-6
SWEEP_MATCH_TOL = 1e-8
CSV_TOL = 1e-9


def random_hermitian_model(rng, grid, nch):
    """Smooth Hermitian nch-channel potential with real thresholds in [-5, 5]."""
    x = grid.points
    env = np.exp(-((x / 0.6) ** 6))
    env[np.abs(x) > 1.45] = 0.0
    V = np.zeros((grid.n, nch, nch), dtype=complex)
    for a in range(nch):
        for b in range(a, nch):
            cx, w = rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.5)
            amp = rng.normal() * 5 + (1j * rng.normal() * 5 if b != a else 0)
            bump = amp * np.exp(-(((x - cx) / w) ** 2)) * env
            V[:, a, b] += bump
            if b != a:
                V[:, b, a] += np.conj(bump)
    thresholds = tuple(sorted(float(e) for e in rng.uniform(-5.0, 5.0, nch)))
    return thresholds, V


def barrier_potential(height, width, n):
    """Rectangular barrier with its edges on grid nodes (half height there)."""
    grid = ds.make_grid(-1.5, 1.5, n)
    V = np.zeros((n, 1, 1))
    V[np.abs(grid.points) < width / 2 - 1e-12, 0, 0] = height
    V[np.isclose(np.abs(grid.points), width / 2), 0, 0] = height / 2
    return grid, V


def barrier_t2(height, width, E):
    """Closed-form |T|^2 of a rectangular barrier, hbar = m = 1."""
    if E < height:
        kappa = math.sqrt(2.0 * (height - E))
        s = math.sinh(kappa * width) / kappa
    elif E > height:
        kp = math.sqrt(2.0 * (E - height))
        s = math.sin(kp * width) / kp
    else:
        s = width
    return 1.0 / (1.0 + height * height * s * s / (2.0 * E))


class Sweep:
    """D(v) sweeps of fixed models, two of them through the CLI."""

    name = "sweep"

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.designs = [draw_design(rng) for _ in range(N_SWEEP_DESIGNS)]
        self.velocities = list(np.linspace(*SWEEP_VELOCITIES))
        self.grid = ds.default_grid()
        self.hermitian = [random_hermitian_model(rng, self.grid, nch)
                          for nch in HERMITIAN_CHANNELS]
        self.h_velocities = list(np.linspace(*HERMITIAN_VELOCITIES))
        self.barrier_grid, self.barrier_V = barrier_potential(*BARRIER)
        energies = np.sort(rng.uniform(BARRIER_ENERGIES[0], BARRIER_ENERGIES[1],
                                       BARRIER_ENERGIES[2]))
        self.b_velocities = [math.sqrt(2.0 * E) for E in energies]
        self.csv_paths = [Path(out_dir) / f"sweep-cli-{i}.csv"
                          for i in range(N_CLI_SWEEPS)]
        self._oracle = None

    def _models(self):
        """The Hermitian and barrier models, rebuilt each round from their samples."""
        models = [(f"hermitian{i}",
                   ds.LocalPotentialModel(grid=self.grid,
                                          channels=ds.ChannelSet(thresholds=th),
                                          V=V), self.h_velocities)
                  for i, (th, V) in enumerate(self.hermitian)]
        models.append(("barrier",
                       ds.LocalPotentialModel(grid=self.barrier_grid,
                                              channels=ds.ChannelSet(thresholds=(0.0,)),
                                              V=self.barrier_V), self.b_velocities))
        return models

    @staticmethod
    def _cli_argv(design, path):
        b, c, x0, delta = design
        vmin, vmax, nv = SWEEP_VELOCITIES
        return ["sweep", "--b", repr(b), "--c", repr(c), "--x0", repr(x0),
                "--delta", repr(delta), "--vmin", repr(vmin), "--vmax", repr(vmax),
                "--nv", str(nv), "--out", str(path)]

    @staticmethod
    def _per_velocity(label, velocities, fn, run):
        """One sweep call, split into one operation per velocity."""
        whole = attempt(label, fn, len(velocities), run)
        out, error = whole["out"], whole["error"]
        if error is None and len(out) != len(velocities):
            out, error = None, f"{len(out)} results for {len(velocities)} velocities"
        return [{"op": f"{label}@{i}", "out": None if error else out[i],
                 "solves": 1, "error": error}
                for i in range(len(velocities))]

    def _design_sweep(self, i):
        """Sweep of design i: CSV rows through the CLI, or in-process reports."""
        if i < N_CLI_SWEEPS:
            code = quiet_cli(self._cli_argv(self.designs[i], self.csv_paths[i]))
            if code != 0:
                raise RuntimeError(f"cli sweep exited {code}")
            return read_sweep_csv(self.csv_paths[i])
        b, c, x0, delta = self.designs[i]
        model = ds.build_two_level_model(ds.RabiProfile(b=b, c=c, x0=x0), delta)
        return ds.sweep_demon(model, self.velocities)

    def round(self, run=None):
        ops = []
        for i in range(len(self.designs)):
            ops += self._per_velocity(f"design{i}", self.velocities,
                                      lambda i=i: self._design_sweep(i), run)
        for label, model, velocities in self._models():
            ops += self._per_velocity(
                label, velocities,
                lambda model=model, velocities=velocities: ds.sweep_demon(model, velocities),
                run)
        return ops

    def counters(self, ops):
        return {}

    def _reference(self, op_label):
        """The benchmark's own S-matrix solve for one operation and, for the CLI
        sweeps, the in-process report the CSV must reproduce.  Made once per
        run; if a solve raises, its operation and the ones after it fail."""
        if self._oracle is not None:
            return self._oracle[op_label]
        ref = self._oracle = {}
        for i, (b, c, x0, delta) in enumerate(self.designs):
            model = ds.build_two_level_model(ds.RabiProfile(b=b, c=c, x0=x0), delta)
            reports = ds.sweep_demon(model, self.velocities) if i < N_CLI_SWEEPS else None
            for j, v in enumerate(self.velocities):
                S = ds.solve_local(model, 0.5 * v * v).S
                ref[f"design{i}@{j}"] = (v, S, reports[j][1] if reports else None, None)
        for label, model, velocities in self._models():
            for j, v in enumerate(velocities):
                S = ds.solve_local(model, 0.5 * v * v).S
                exact = barrier_t2(BARRIER[0], BARRIER[1], 0.5 * v * v) \
                    if label == "barrier" else None
                ref[f"{label}@{j}"] = (v, S, None, exact)
        return ref[op_label]

    def check(self, op):
        v, S, inproc, exact_t2 = self._reference(op["op"])
        fails = []
        M = S.full()
        defect = float(np.linalg.norm(M.conj().T @ M - np.eye(M.shape[0]), 2))
        expect(fails, defect < UNITARITY_TOL, f"||S^H S - I|| = {defect:.2e}")
        own = tuple(abs(S_block[0, 0]) ** 2 for S_block in (S.T, S.R, S.Tt, S.Rt))
        if inproc is None:                       # a sweep_demon report
            rv, rep = op["out"]
            p, D, code = tuple(rep.probabilities), rep.D, None
        else:                                    # a row of the CLI's CSV
            rv, p, D, code = op["out"]
            expect(fails, code == inproc.code,
                   f"CSV code {code!r}, in-process {inproc.code!r}")
            gap = max(abs(x - y) for x, y in
                      zip(p + (D,), tuple(inproc.probabilities) + (inproc.D,)))
            expect(fails, gap <= CSV_TOL, f"CSV differs from in-process by {gap:.2e}")
        expect(fails, abs(rv - v) <= 1e-11 * v, f"velocity {rv} for {v}")
        gap = amplitude_gap(p, own)
        expect(fails, gap <= SWEEP_MATCH_TOL,
               f"probabilities differ from the S-matrix by {gap:.2e}")
        expect(fails, abs(demon_d(p) - D) <= 1e-9,
               f"D {D} but probabilities give {demon_d(p)}")
        expect(fails, abs(D) <= 0.5 + 1e-9, f"|D| = {abs(D)} > 1/2")
        if exact_t2 is not None:
            err = abs(p[0] - exact_t2)
            expect(fails, err <= BARRIER_TOL, f"barrier |T|^2 off by {err:.2e}")
        return fails


def read_sweep_csv(path):
    """(v, (|T|^2, |R|^2, |Tt|^2, |Rt|^2), D, code) per row of a sweep CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [(float(r["v"]),
             (float(r["T2"]), float(r["R2"]), float(r["Tt2"]), float(r["Rt2"])),
             float(r["D"]), r["code"]) for r in rows]


# ---------------------------------------------------------------- nonlocal

NONLOCAL_E = 32.0
NONLOCAL_K = 8.0                 # ground-channel wavenumber sqrt(2 E)
N_NONLOCAL_DESIGNS = 2
SYM_GRID_N = 1201
SYM_K = 6.0
D_NONZERO = 1e-3
RELATION_TOL = 1e-4

#: (flip x -> -x, transpose, conjugate) of each non-trivial class.
SYMMETRY_CLASSES = {
    "Hermiticity": (False, True, True),
    "Parity": (True, False, False),
    "ParityPseudohermiticity": (True, True, True),
    "TimeReversal": (False, False, True),
    "TimeReversalPseudohermiticity": (False, True, False),
    "PT": (True, False, True),
    "PTPseudohermiticity": (True, True, False),
}

#: Amplitude relations each class forces: the moduli |T| = |Tt| and
#: |R| = |Rt|, and D = 0 where both hold.  ParityPseudohermiticity maps left
#: incidence onto itself, so it fixes phases only.
CLASS_RELATIONS = {
    "Hermiticity": ("|T|=|Tt|", "|R|=|Rt|", "D=0"),
    "Parity": ("|T|=|Tt|", "|R|=|Rt|", "D=0"),
    "ParityPseudohermiticity": (),
    "TimeReversal": ("|R|=|Rt|",),
    "TimeReversalPseudohermiticity": ("|T|=|Tt|",),
    "PT": ("|T|=|Tt|",),
    "PTPseudohermiticity": ("|R|=|Rt|",),
}


def relation_violation(relation, mods):
    t, r, tt, rt = mods
    if relation == "|T|=|Tt|":
        return abs(t - tt)
    if relation == "|R|=|Rt|":
        return abs(r - rt)
    return abs(demon_d((t * t, r * r, tt * tt, rt * rt)))


def random_smooth_kernel(grid, rng, nbumps=4, scale=3.0):
    """Sum of complex Gaussian bumps in (x, y), vanishing near the grid ends."""
    x = grid.points
    env = np.exp(-((x / 0.55) ** 6))
    env[np.abs(x) > 1.4] = 0.0
    A = np.zeros((grid.n, grid.n), dtype=complex)
    for _ in range(nbumps):
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.15, 0.35)
        amp = (rng.normal() + 1j * rng.normal()) * scale
        A += amp * np.exp(-(((x[:, None] - cx) ** 2 + (x[None, :] - cy) ** 2) / w**2))
    return A * env[:, None] * env[None, :]


def symmetrize(A, flags):
    """(A + image of A under the class transform) / 2."""
    flip, transpose, conjugate = flags
    M = A[::-1, ::-1] if flip else A
    M = M.T if transpose else M
    M = np.conj(M) if conjugate else M
    return 0.5 * (A + M)


class Nonlocal:
    """Feshbach cross-checks of seeded designs and the symmetry selection rules."""

    name = "nonlocal"

    def __init__(self, seed, out_dir):
        rng = np.random.default_rng(seed)
        self.designs = [draw_design(rng) for _ in range(N_NONLOCAL_DESIGNS)]
        self.grid = ds.default_grid()
        self.sym_grid = ds.make_grid(-1.5, 1.5, SYM_GRID_N)
        base = random_smooth_kernel(self.sym_grid, rng)
        self.sym_kernels = [(name, symmetrize(base, flags))
                            for name, flags in SYMMETRY_CLASSES.items()]

    def _cross_check(self, design):
        b, c, x0, delta = design
        profile = ds.RabiProfile(b=b, c=c, x0=x0)
        kernel = ds.build_kernel(
            ds.OpticalParameters(delta=delta, gamma=0.0, profile=profile,
                                 E=NONLOCAL_E), self.grid)
        a_nl = ds.solve_nonlocal(kernel, NONLOCAL_K)
        trivial_only = ds.classify(kernel).trivial_only
        model = ds.build_two_level_model(profile, delta, grid=self.grid)
        a_loc = ds.extract_channel(ds.solve_local(model, NONLOCAL_E).S, 0)
        return moduli(a_nl), moduli(a_loc), trivial_only

    def _selection_rule(self, cls_name, K):
        vr = ds.verify_predictions(ds.NonlocalKernel(grid=self.sym_grid, K=K), SYM_K)
        satisfied = {c.name for c in vr.report.satisfied}
        return cls_name, cls_name in satisfied, moduli(vr.amplitudes)

    def round(self, run=None):
        ops = []
        for i, design in enumerate(self.designs):
            ops.append(attempt(f"design{i}", lambda d=design: self._cross_check(d),
                               2, run))
        for cls_name, K in self.sym_kernels:
            ops.append(attempt(cls_name, lambda n=cls_name, K=K: self._selection_rule(n, K),
                               1, run))
        return ops

    def counters(self, ops):
        return {}

    def check(self, op):
        fails = []
        if op["op"].startswith("design"):
            nl, loc, trivial_only = op["out"]
            gap = amplitude_gap(nl, loc)
            expect(fails, gap <= AMPLITUDE_TOL,
                   f"solve_local and solve_nonlocal differ by {gap:.2e}")
            D = demon_d(tuple(m * m for m in nl))
            expect(fails, abs(D) <= D_NONZERO or trivial_only,
                   f"D = {D:.3f} but the kernel is not Trivial-only")
        else:
            cls_name, in_class, mods = op["out"]
            expect(fails, in_class, f"{cls_name} kernel not classified as {cls_name}")
            for rel in CLASS_RELATIONS[cls_name]:
                err = relation_violation(rel, mods)
                expect(fails, err <= RELATION_TOL, f"{cls_name}: {rel} off by {err:.2e}")
        return fails


WORKLOADS = {cls.name: cls for cls in (Design, Sweep, Nonlocal)}
