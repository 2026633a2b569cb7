"""JSON model import; JSON/CSV export of S-matrices and analysis tables.

JSON numbers are written with full round-trip precision (repr) and NaN or
inf as null; CSV uses 12 significant digits.  Complex values are [re, im] pairs.
"""

from __future__ import annotations

import json
from itertools import repeat

import numpy as np

from .channels import ChannelSet, SMatrix
from .errors import ConfigError
from .local_solver import LocalPotentialModel
from .nonlocal_solver import NonlocalKernel
from .units import make_grid

CSV_FMT = "%.12g"


def is_number(val) -> bool:
    """A JSON number: an int or a float, not a bool.  Model files and CLI
    configs both read numbers by this rule."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _unpair(v) -> complex:
    if is_number(v):
        return complex(v)
    if isinstance(v, (list, tuple)) and len(v) == 2 and all(map(is_number, v)):
        return complex(v[0], v[1])
    raise ValueError(f"expected a number or [re, im] pair, got {v!r}")


def _strict(val):
    """val with every non-finite float, in any dict, list or tuple, as None."""
    if isinstance(val, dict):
        return {key: _strict(v) for key, v in val.items()}
    if isinstance(val, (list, tuple)):
        return list(map(_strict, val))
    return None if isinstance(val, float) and not np.isfinite(val) else val


def write_json(path, doc: dict):
    """Write doc as indented strict JSON, NaN and inf as null, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(_strict(doc), fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_smatrix(path, S: SMatrix, diagnostics: dict):
    """{n_open, blocks: {T, R, Rt, Tt} as row-major [re, im] entries, diagnostics}."""
    blocks = {name: [[z.real, z.imag] for z in getattr(S, name).ravel().tolist()]
              for name in ("T", "R", "Rt", "Tt")}
    write_json(path, {"n_open": S.n_open, "blocks": blocks, "diagnostics": diagnostics})


def model_from_dict(d: dict) -> LocalPotentialModel:
    """Model import: {grid: {xmin, xmax, n}, thresholds: [...], V: [...]}.

    The grid ends are numbers and n an integer.  V is one row-major
    N_ch x N_ch matrix per grid point, entries numbers or [re, im] pairs.
    A malformed document raises ConfigError before the grid is allocated;
    a well-formed one with an invalid grid raises make_grid's GridError.
    """
    try:
        g = d["grid"]
        xmin, xmax, n = g["xmin"], g["xmax"], g["n"]
        if not (is_number(xmin) and is_number(xmax) and is_number(n) and isinstance(n, int)):
            raise ValueError(f"grid needs numbers xmin and xmax and an integer n, got {g!r}")
        channels = ChannelSet(thresholds=tuple(_unpair(t) for t in d["thresholds"]))
        nch = channels.n_channels
        raw_v = d["V"]
        if len(raw_v) != n:
            raise ValueError(f"V must have one matrix per grid point ({n}), got {len(raw_v)}")
        V = np.array([[_unpair(v) for v in mat] for mat in raw_v], dtype=complex)
        if V.size != n * nch * nch:
            raise ValueError(f"V must have {nch * nch} entries per grid point")
        xmin, xmax = float(xmin), float(xmax)
    except KeyError as exc:
        raise ConfigError(f"malformed model document: missing {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed model document: {exc}") from exc
    return LocalPotentialModel(grid=make_grid(xmin, xmax, n), channels=channels,
                               V=V.reshape(n, nch, nch))


def read_json(path, what: str):
    """The JSON document in the file; an unreadable file or one that is not
    JSON raises ConfigError("cannot read <what> <path>: ...")."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:   # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def read_model(path) -> LocalPotentialModel:
    return model_from_dict(read_json(path, "model"))


def _write_csv(path, header, row_format, rows):
    """CSV: the header, then row_format % row per row, CRLF-ended; no field
    needs quoting, so these are the bytes csv.writer would write."""
    line = row_format + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(line % row for row in rows)


def write_kernel_csv(path, kernel: NonlocalKernel, polar: bool = True):
    """Kernel surface CSV: x, y, |K|, arg K (polar) or x, y, Re K, Im K."""
    x = kernel.grid.points.tolist()
    parts = (np.abs, np.angle) if polar else (np.real, np.imag)
    rows = (row for xi, k_row in zip(x, kernel.K)
            for row in zip(repeat(xi), x, *(f(k_row).tolist() for f in parts)))
    _write_csv(path, ["x", "y", "absK", "argK"] if polar else ["x", "y", "reK", "imK"],
               ",".join([CSV_FMT] * 4), rows)


def write_sweep_csv(path, reports):
    """Demon sweep CSV: v, |T|^2, |R|^2, |Tt|^2, |Rt|^2, D, code."""
    _write_csv(path, ["v", "T2", "R2", "Tt2", "Rt2", "D", "code"],
               ",".join([CSV_FMT] * 6 + ["%s"]),
               ((v, *rep.probabilities, rep.D, rep.code) for v, rep in reports))


def write_regions_csv(path, rows):
    """D=0 region CSV: t2, rt2, lower, upper, region."""
    _write_csv(path, ["t2", "rt2", "lower", "upper", "region"],
               ",".join([CSV_FMT] * 4 + ["%s"]),
               ((t2, rt2, b.lower, b.upper, b.region) for t2, rt2, b in rows))


def symmetry_report_to_dict(report, verification=None) -> dict:
    doc = {
        "classes": {
            name: {"residual": report.residuals[name], "verdict": report.verdicts[name]}
            for name in report.residuals
        },
        "tol": report.tol,
        "predictions": sorted(report.predictions),
        "trivial_only": report.trivial_only,
    }
    if verification is not None:
        doc["verification"] = {
            "violations": verification.violations,
            "tol": verification.tol,
            "all_hold": verification.all_hold,
        }
    return doc


def optimization_result_to_dict(result) -> dict:
    doc = {
        "parameters": {
            k: v for k, v in zip(("b", "c", "x0", "delta"), result.parameters)
        },
        "cost": result.cost,
        "probabilities": list(result.probabilities),
        "D": result.D,
        "evaluations": result.evaluations,
        "converged": result.converged,
    }
    if result.initial_cost is not None:
        doc["initial_cost"] = result.initial_cost
    return doc


def write_optimization_log_csv(path, log):
    """Evaluation log CSV: index, b, c, x0, delta, cost."""
    _write_csv(path, ["eval", "b", "c", "x0", "delta", "cost"],
               ",".join(["%d"] + [CSV_FMT] * 5),
               ((idx, *params, c) for idx, params, c in log))
