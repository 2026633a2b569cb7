"""Command-line front end.

Subcommands: scatter, scatter-nonlocal, kernel, regions, classify, sweep,
optimize, refine-paper.  Each takes an optional JSON config (--config) whose
keys match the command's flags.  Its entries are turned into flag tokens
and parsed by the command's own parser ahead of the command line, so a file
value is typed and checked exactly as the same flag is, and flags override
file values; unknown keys are rejected.  Exit codes: 0 success, 2 config
error (any ValueError or OSError, and argparse's usage errors), 3 compute
error (any other toolkit error).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import serialize
from .channels import extract_channel
from .demon import FEAS_TOL, DemonReport, dzero_bounds, sweep_demon
from .errors import ConfigError, DemonScatterError
from .kernels import OpticalParameters, build_kernel
from .local_solver import build_two_level_model, solve_local
from .nonlocal_solver import solve_nonlocal
from .optimize import DeviceTarget, optimize, refine_paper_point
from .symmetry import (
    REL_TOL,
    check_tolerance,
    classify,
    verify_predictions,
)
from .units import (
    DEFAULT_BOX_HALF,
    DEFAULT_NPOINTS,
    DEFAULT_WIDTH,
    RabiProfile,
    make_grid,
    velocity_to_energy,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3


def _grid_from(args):
    return make_grid(-args.box, args.box, args.n)


def _profile_from(args) -> RabiProfile:
    """The laser profile; b, c and delta are required by every command that
    builds a model or a kernel from it, so all three are checked here."""
    for key in ("b", "c", "delta"):
        if getattr(args, key) is None:
            raise ConfigError(f"missing required parameter {key!r}")
    return RabiProfile(b=args.b, c=args.c, x0=args.x0, w=args.w)


def _reject_given(args, defaults: dict, reason: str):
    """Raise ConfigError if any key of defaults is set away from its default
    (NaN differs from every default): the reason says why it would be ignored."""
    given = [key for key, default in defaults.items() if getattr(args, key) != default]
    if given:
        raise ConfigError(f"{reason}; drop {given}")


def _model_from(args):
    """The --model file (with no profile or grid flag), else the flags' model."""
    if args.model is None:
        return build_two_level_model(
            _profile_from(args), args.delta, args.gamma, _grid_from(args)
        )
    _reject_given(args, {**_PROFILE, **_GRID}, "--model sets the profile and grid")
    return serialize.read_model(args.model)


def _kernel_from(args):
    """The Feshbach kernel at the ground-channel energy E = v^2/2."""
    E = velocity_to_energy(args.v)
    params = OpticalParameters(
        profile=_profile_from(args), delta=args.delta, gamma=args.gamma, E=E
    )
    return build_kernel(params, _grid_from(args))


def cmd_scatter(args) -> int:
    model = _model_from(args)
    sol = solve_local(model, velocity_to_energy(args.v))
    rep = DemonReport.from_amplitudes(extract_channel(sol.S, 0))
    serialize.write_smatrix(
        args.out, sol.S, diagnostics={"unitarity_defect": sol.unitarity_defect}
    )
    serialize.write_sweep_csv(args.report, [(args.v, rep)])
    print(f"v={args.v} D={rep.D:.6f} code={rep.code}")
    return EXIT_OK


def cmd_scatter_nonlocal(args) -> int:
    amps = solve_nonlocal(_kernel_from(args), args.v)
    rep = DemonReport.from_amplitudes(amps)
    serialize.write_sweep_csv(args.out, [(args.v, rep)])
    print(f"v={args.v} D={rep.D:.6f} code={rep.code}")
    return EXIT_OK


def cmd_kernel(args) -> int:
    kernel = _kernel_from(args)
    serialize.write_kernel_csv(args.out, kernel, polar=not args.cartesian)
    print(f"E={velocity_to_energy(args.v)} max|K|={kernel.kmax:.6g}")
    return EXIT_OK


def cmd_regions(args) -> int:
    res = args.resolution
    if res < 2:
        raise ConfigError(f"resolution must be >= 2, got {res}")
    ax = np.linspace(0.0, 1.0, res)
    rows = []
    for t2 in ax:
        for rt2 in ax:
            if rt2 > 1.0 - t2 + FEAS_TOL:
                continue
            rows.append((t2, rt2, dzero_bounds(t2, rt2)))
    serialize.write_regions_csv(args.out, rows)
    print(f"{len(rows)} feasible points at resolution {res}")
    return EXIT_OK


def cmd_classify(args) -> int:
    check_tolerance(args.tol)
    kernel = _kernel_from(args)
    report = classify(kernel, args.tol)
    verification = None
    if args.verify:
        # solved at the ground-channel wavenumber k = v of the kernel's energy
        verification = verify_predictions(kernel, args.v, report=report)
    serialize.write_json(
        args.out, serialize.symmetry_report_to_dict(report, verification)
    )
    satisfied = sorted(n for n, ok in report.verdicts.items() if ok)
    print("satisfied:", " ".join(satisfied))
    if report.trivial_only:
        print("Trivial only")
    return EXIT_OK


def cmd_sweep(args) -> int:
    velocities = args.velocities
    if velocities is None:
        if not (math.isfinite(args.vmin) and math.isfinite(args.vmax)):
            raise ConfigError(f"vmin and vmax must be finite, got {args.vmin}, {args.vmax}")
        velocities = list(np.linspace(args.vmin, args.vmax, args.nv))
    else:
        _reject_given(args, _RANGE, "--velocities replaces --vmin, --vmax and --nv")
    if not velocities:
        raise ConfigError("at least one velocity is required")
    model = _model_from(args)
    reports = sweep_demon(model, velocities)
    serialize.write_sweep_csv(args.out, reports)
    print(f"{len(reports)} velocities swept")
    return EXIT_OK


def cmd_optimize(args) -> int:
    probabilities = args.probabilities
    if probabilities is None:
        probabilities = DeviceTarget.named(args.target).probabilities
    else:
        _reject_given(args, _TARGET, "--probabilities replaces --target")
    target = DeviceTarget(probabilities=probabilities, weights=args.weights)
    result = optimize(target, v0=args.v0, w=args.w, seed=args.seed,
                      budget=args.budget, restarts=args.restarts,
                      grid=_grid_from(args))
    serialize.write_json(args.out, serialize.optimization_result_to_dict(result))
    if args.log is not None:
        serialize.write_optimization_log_csv(args.log, result.log)
    print(
        f"cost={result.cost:.6g} converged={result.converged} "
        f"evals={result.evaluations}"
    )
    return EXIT_OK


def cmd_refine_paper(args) -> int:
    result = refine_paper_point(v0=args.v0, budget=args.budget, grid=_grid_from(args))
    serialize.write_json(args.out, serialize.optimization_result_to_dict(result))
    print(
        f"initial_cost={result.initial_cost:.6g} final_cost={result.cost:.6g} "
        f"converged={result.converged}"
    )
    return EXIT_OK


# Config keys with their defaults; None means "not given".
_PROFILE = {"b": None, "c": None, "x0": 0.0, "w": DEFAULT_WIDTH, "delta": None,
            "gamma": 0.0}
_GRID = {"n": DEFAULT_NPOINTS, "box": DEFAULT_BOX_HALF}
_RANGE = {"vmin": 1.0, "vmax": 10.0, "nv": 10}
_TARGET = {"target": "half-demon"}

#: Subcommand -> (handler, {config key: default}); each key is also a --flag.
_COMMANDS = {
    "scatter": (cmd_scatter, {"model": None, **_PROFILE, "v": 8.0, **_GRID,
                              "out": "smatrix.json", "report": "demon_report.csv"}),
    "scatter-nonlocal": (cmd_scatter_nonlocal, {**_PROFILE, "v": 8.0, **_GRID,
                                                "out": "demon_report.csv"}),
    "kernel": (cmd_kernel, {**_PROFILE, "v": 8.0, **_GRID, "out": "kernel.csv",
                            "cartesian": False}),
    "regions": (cmd_regions, {"resolution": 101, "out": "regions.csv"}),
    "classify": (cmd_classify, {**_PROFILE, "v": 8.0, **_GRID, "tol": REL_TOL,
                                "verify": False, "out": "symmetry.json"}),
    "sweep": (cmd_sweep, {"model": None, **_PROFILE, "velocities": None, **_RANGE,
                          **_GRID, "out": "sweep.csv"}),
    "optimize": (cmd_optimize, {**_TARGET, "probabilities": None,
                                "weights": (1.0, 1.0, 1.0, 1.0), "v0": 8.0,
                                "w": DEFAULT_WIDTH, "seed": 1, "budget": 5000,
                                "restarts": 8, **_GRID, "out": "optimize.json",
                                "log": None}),
    "refine-paper": (cmd_refine_paper, {"v0": 8.0, "budget": 2000, **_GRID,
                                        "out": "refine.json"}),
}

_FLAG_TYPES = {
    "model": str, "out": str, "report": str, "log": str, "target": str,
    "n": int, "nv": int, "seed": int, "budget": int, "restarts": int,
    "resolution": int,
    "verify": "store_true", "cartesian": "store_true",
    "velocities": "floats", "probabilities": "floats", "weights": "floats",
}


def _config_argv(path, keys) -> list:
    """The config file's entries as flag tokens.

    A scalar becomes --key=value (the = form lets -1e-05 parse), a list one
    token per element, a switch the bare flag when true and nothing when
    false.  A JSON value that no flag spelling matches is a ConfigError.
    """
    cfg = serialize.read_json(path, "config")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    argv = []
    for key, val in cfg.items():
        kind = _FLAG_TYPES.get(key, float)
        switch, listed = kind == "store_true", kind == "floats"
        if switch and isinstance(val, bool):
            argv += [f"--{key}"] if val else []
        elif listed and isinstance(val, list) and all(map(serialize.is_number, val)):
            argv += [f"--{key}", *map(str, val)]
        elif not (switch or listed) and (isinstance(val, str) or serialize.is_number(val)):
            argv.append(f"--{key}={val}")
        else:
            raise ConfigError(f"config key {key!r} cannot take the value {val!r}")
    return argv


def _build_parser():
    """The top-level parser and each subcommand's own parser."""
    parser = argparse.ArgumentParser(
        prog="demonscatter",
        description="1D multichannel scattering and Maxwell-demon analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_handler, defaults) in _COMMANDS.items():
        p = commands[name] = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key, default in defaults.items():
            kind = _FLAG_TYPES.get(key, float)
            if kind == "store_true":
                p.add_argument(f"--{key}", action="store_true", default=default)
            elif kind == "floats":
                p.add_argument(f"--{key}", type=float, nargs="+", default=default)
            else:
                p.add_argument(f"--{key}", type=kind, default=default)
    return parser, commands


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    handler, defaults = _COMMANDS[args.command]
    try:
        if args.config:
            flags = argv[argv.index(args.command) + 1:]
            args = commands[args.command].parse_args(
                _config_argv(args.config, defaults) + flags)
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DemonScatterError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
