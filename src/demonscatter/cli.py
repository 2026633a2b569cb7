"""Command-line front end.

Subcommands: scatter, scatter-nonlocal, kernel, regions, classify, sweep,
optimize, refine-paper.  Each takes an optional JSON config (--config) whose
keys match the command's flags; flags override file values and unknown keys
are rejected.  Exit codes: 0 success, 2 config error, 3 compute error.
DEMONSCATTER_THREADS caps the linear-algebra thread pools.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys


def _cap_threads():
    n = os.environ.get("DEMONSCATTER_THREADS")
    if n:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(var, n)


_cap_threads()

import numpy as np  # noqa: E402  (thread caps must precede the import)

from . import serialize  # noqa: E402
from .channels import extract_channel  # noqa: E402
from .demon import DemonReport, dzero_bounds, sweep_demon  # noqa: E402
from .errors import (  # noqa: E402
    ConfigError,
    DemonScatterError,
    GridError,
    NegativeVelocityError,
    NonPositiveEnergyError,
)
from .kernels import OpticalParameters, build_kernel  # noqa: E402
from .local_solver import build_two_level_model, solve_local  # noqa: E402
from .nonlocal_solver import solve_nonlocal  # noqa: E402
from .optimize import DeviceTarget, optimize, refine_paper_point  # noqa: E402
from .symmetry import check_tolerance, classify, verify_predictions  # noqa: E402
from .units import (  # noqa: E402
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


def _merge_config(args: argparse.Namespace, parser_keys) -> dict:
    """File config overridden by explicit flags; unknown file keys rejected."""
    cfg = {}
    if args.config:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(cfg) - set(parser_keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in parser_keys:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            cfg[key] = val
    return cfg


def _grid_from(cfg: dict):
    half = float(cfg.get("box", DEFAULT_BOX_HALF))
    n = int(cfg.get("n", DEFAULT_NPOINTS))
    return make_grid(-half, half, n)


def _profile_from(cfg: dict) -> RabiProfile:
    """The laser profile; b, c and delta are required by every command that
    builds a model or a kernel from it, so all three are checked here."""
    for key in ("b", "c", "delta"):
        if key not in cfg:
            raise ConfigError(f"missing required parameter {key!r}")
    return RabiProfile(
        b=float(cfg["b"]),
        c=float(cfg["c"]),
        x0=float(cfg.get("x0", 0.0)),
        w=float(cfg.get("w", DEFAULT_WIDTH)),
    )


def _model_from(cfg: dict):
    if "model" in cfg:
        return serialize.read_model(cfg["model"])
    return build_two_level_model(
        _profile_from(cfg),
        float(cfg["delta"]),
        float(cfg.get("gamma", 0.0)),
        _grid_from(cfg),
    )


def _energy_from(cfg: dict) -> float:
    """E if given, else the ground-channel energy of v (default 8); an E and
    a v given together must agree."""
    if "E" not in cfg:
        return velocity_to_energy(float(cfg.get("v", 8.0)))
    E = float(cfg["E"])
    if "v" in cfg and not math.isclose(velocity_to_energy(float(cfg["v"])), E,
                                       rel_tol=1e-12):
        raise ConfigError(f"E={E} disagrees with v={cfg['v']} (E = v^2/2)")
    return E


def _kernel_from(cfg: dict, E: float):
    params = OpticalParameters(
        profile=_profile_from(cfg),
        delta=float(cfg["delta"]),
        gamma=float(cfg.get("gamma", 0.0)),
        E=E,
    )
    return build_kernel(params, _grid_from(cfg))


def cmd_scatter(cfg: dict) -> int:
    model = _model_from(cfg)
    v = float(cfg.get("v", 8.0))
    sol = solve_local(model, velocity_to_energy(v))
    amps = extract_channel(sol.S, 0)
    rep = DemonReport.from_amplitudes(amps)
    serialize.write_smatrix(
        cfg.get("out", "smatrix.json"),
        sol.S,
        diagnostics={"unitarity_defect": sol.unitarity_defect},
    )
    serialize.write_sweep_csv(cfg.get("report", "demon_report.csv"), [(v, rep)])
    print(f"v={v} D={rep.D:.6f} code={rep.code}")
    return EXIT_OK


def cmd_scatter_nonlocal(cfg: dict) -> int:
    v = float(cfg.get("v", 8.0))
    amps = solve_nonlocal(_kernel_from(cfg, _energy_from(cfg)), v)
    rep = DemonReport.from_amplitudes(amps)
    serialize.write_sweep_csv(cfg.get("out", "demon_report.csv"), [(v, rep)])
    print(f"v={v} D={rep.D:.6f} code={rep.code}")
    return EXIT_OK


def cmd_kernel(cfg: dict) -> int:
    E = _energy_from(cfg)
    kernel = _kernel_from(cfg, E)
    serialize.write_kernel_csv(
        cfg.get("out", "kernel.csv"), kernel, polar=not cfg.get("cartesian", False)
    )
    print(f"E={E} max|K|={kernel.kmax:.6g}")
    return EXIT_OK


def cmd_regions(cfg: dict) -> int:
    res = int(cfg.get("resolution", 101))
    if res < 2:
        raise ConfigError(f"resolution must be >= 2, got {res}")
    ax = np.linspace(0.0, 1.0, res)
    rows = []
    for t2 in ax:
        for rt2 in ax:
            if rt2 > 1.0 - t2 + 1e-12:
                continue
            rows.append((t2, rt2, dzero_bounds(t2, rt2)))
    serialize.write_regions_csv(cfg.get("out", "regions.csv"), rows)
    print(f"{len(rows)} feasible points at resolution {res}")
    return EXIT_OK


def cmd_classify(cfg: dict) -> int:
    E = _energy_from(cfg)
    rel_tol = float(cfg.get("tol", 1e-8))
    check_tolerance(rel_tol)
    kernel = _kernel_from(cfg, E)
    report = classify(kernel, rel_tol)
    verification = None
    if cfg.get("verify", False):
        # solved at the ground-channel wavenumber of the kernel's energy
        verification = verify_predictions(kernel, math.sqrt(2.0 * E), report=report)
    serialize.write_json(
        cfg.get("out", "symmetry.json"),
        serialize.symmetry_report_to_dict(report, verification),
    )
    satisfied = sorted(n for n, ok in report.verdicts.items() if ok)
    print("satisfied:", " ".join(satisfied))
    if report.trivial_only:
        print("Trivial only")
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    model = _model_from(cfg)
    if "velocities" in cfg:
        velocities = [float(v) for v in cfg["velocities"]]
    else:
        velocities = list(
            np.linspace(
                float(cfg.get("vmin", 1.0)),
                float(cfg.get("vmax", 10.0)),
                int(cfg.get("nv", 10)),
            )
        )
    if not velocities:
        raise ConfigError("at least one velocity is required")
    reports = sweep_demon(model, velocities)
    serialize.write_sweep_csv(cfg.get("out", "sweep.csv"), reports)
    print(f"{len(reports)} velocities swept")
    return EXIT_OK


def cmd_optimize(cfg: dict) -> int:
    # the name is checked even when explicit probabilities replace it
    named = DeviceTarget.named(cfg.get("target", "half-demon"))
    target = DeviceTarget(
        probabilities=tuple(cfg.get("probabilities", named.probabilities)),
        weights=tuple(cfg.get("weights", (1.0, 1.0, 1.0, 1.0))),
    )
    result = optimize(
        target,
        v0=float(cfg.get("v0", 8.0)),
        w=float(cfg.get("w", DEFAULT_WIDTH)),
        seed=int(cfg.get("seed", 1)),
        budget=int(cfg.get("budget", 5000)),
        restarts=int(cfg.get("restarts", 8)),
        grid=_grid_from(cfg),
    )
    serialize.write_json(
        cfg.get("out", "optimize.json"), serialize.optimization_result_to_dict(result)
    )
    if "log" in cfg:
        serialize.write_optimization_log_csv(cfg["log"], result.log)
    print(
        f"cost={result.cost:.6g} converged={result.converged} "
        f"evals={result.evaluations}"
    )
    return EXIT_OK


def cmd_refine_paper(cfg: dict) -> int:
    result = refine_paper_point(
        v0=float(cfg.get("v0", 8.0)),
        budget=int(cfg.get("budget", 2000)),
        grid=_grid_from(cfg),
    )
    serialize.write_json(
        cfg.get("out", "refine.json"), serialize.optimization_result_to_dict(result)
    )
    print(
        f"initial_cost={result.initial_cost:.6g} final_cost={result.cost:.6g} "
        f"converged={result.converged}"
    )
    return EXIT_OK


_PROFILE = ("b", "c", "x0", "w", "delta", "gamma")

#: Subcommand -> (handler, config keys); each key is also a --flag.
_COMMANDS = {
    "scatter": (cmd_scatter, ("model", *_PROFILE, "v", "n", "box", "out", "report")),
    "scatter-nonlocal": (cmd_scatter_nonlocal, (*_PROFILE, "v", "n", "box", "out")),
    "kernel": (cmd_kernel, (*_PROFILE, "v", "E", "n", "box", "out", "cartesian")),
    "regions": (cmd_regions, ("resolution", "out")),
    "classify": (cmd_classify,
                 (*_PROFILE, "v", "E", "n", "box", "tol", "verify", "out")),
    "sweep": (cmd_sweep, ("model", *_PROFILE, "velocities", "vmin", "vmax", "nv",
                          "n", "box", "out")),
    "optimize": (cmd_optimize, ("target", "probabilities", "weights", "v0", "w",
                                "seed", "budget", "restarts", "n", "box", "out",
                                "log")),
    "refine-paper": (cmd_refine_paper, ("v0", "budget", "n", "box", "out")),
}

_FLAG_TYPES = {
    "model": str, "out": str, "report": str, "log": str, "target": str,
    "n": int, "nv": int, "seed": int, "budget": int, "restarts": int,
    "resolution": int,
    "verify": "store_true", "cartesian": "store_true",
    "velocities": "floats", "probabilities": "floats", "weights": "floats",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="demonscatter",
        description="1D multichannel scattering and Maxwell-demon analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        for key in keys:
            kind = _FLAG_TYPES.get(key, float)
            flag = f"--{key}"
            if kind == "store_true":
                p.add_argument(flag, action="store_true", default=None)
            elif kind == "floats":
                p.add_argument(flag, type=float, nargs="+")
            else:
                p.add_argument(flag, type=kind)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler, keys = _COMMANDS[args.command]
    try:
        return handler(_merge_config(args, keys))
    except (ConfigError, GridError, NegativeVelocityError,
            NonPositiveEnergyError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DemonScatterError as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
