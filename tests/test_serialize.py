import csv
import json

import numpy as np
import pytest

from demonscatter.channels import ChannelAmplitudes
from demonscatter.demon import DemonReport, dzero_bounds
from demonscatter.errors import ConfigError, GridError
from demonscatter.kernels import OpticalParameters, build_kernel
from demonscatter.nonlocal_solver import NonlocalKernel
from demonscatter.optimize import PAPER_POINT
from demonscatter.serialize import (
    CSV_FMT,
    model_from_dict,
    read_model,
    write_json,
    write_kernel_csv,
    write_optimization_log_csv,
    write_regions_csv,
    write_smatrix,
    write_sweep_csv,
)
from demonscatter.units import make_grid

from oracles import PAPER_DELTA, PAPER_PROFILE, haar_unitary, smatrix_from_full


def write_model(path, model):
    """Write model as the JSON document that read_model and the CLI's --model read."""
    def pair(z):
        return [z.real, z.imag]

    doc = {
        "grid": {"xmin": model.grid.x_min, "xmax": model.grid.x_max, "n": model.grid.n},
        "thresholds": [pair(t) for t in model.channels.thresholds],
        "V": [[pair(z) for z in mat.ravel()] for mat in model.V],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def test_smatrix_file_roundtrip(tmp_path):
    S = smatrix_from_full(haar_unitary(6, np.random.default_rng(2)))
    path = tmp_path / "s.json"
    write_smatrix(path, S, diagnostics={"unitarity_defect": 1e-13})
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["diagnostics"]["unitarity_defect"] == 1e-13
    n = doc["n_open"]
    for name in ("T", "R", "Rt", "Tt"):
        block = np.array([complex(re, im) for re, im in doc["blocks"][name]])
        assert np.array_equal(block.reshape(n, n), getattr(S, name))


def test_json_writes_non_finite_floats_as_null(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"a": [1.5, np.nan, (np.float64(np.inf), -0.0)],
                      "b": {"c": -np.inf, "d": True, "e": None, "f": 3}})
    expected = {"a": [1.5, None, [None, -0.0]], "b": {"c": None, "d": True, "e": None, "f": 3}}
    assert path.read_text() == json.dumps(expected, indent=1) + "\n"


def test_model_roundtrip(tmp_path):
    grid = make_grid(-1.5, 1.5, 51)
    x = grid.points
    V = np.zeros((51, 2, 2), dtype=complex)
    bump = np.exp(-((x / 0.3) ** 2))
    bump[np.abs(x) > 1.4] = 0.0
    V[:, 0, 1] = (1 + 2j) * bump
    V[:, 1, 0] = (1 - 2j) * bump
    from demonscatter.channels import ChannelSet
    from demonscatter.local_solver import LocalPotentialModel

    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0, -3.0)), V=V
    )
    path = tmp_path / "model.json"
    write_model(path, model)
    back = read_model(path)
    assert back.grid.n == 51
    assert back.channels.thresholds == model.channels.thresholds
    assert np.allclose(back.V, model.V)


def test_model_from_dict_validation():
    with pytest.raises(ConfigError):
        model_from_dict({"grid": {"xmin": -1, "xmax": 1, "n": 5},
                         "thresholds": [0.0]})
    with pytest.raises(ConfigError):
        model_from_dict({"grid": {"xmin": -1, "xmax": 1, "n": 5},
                         "thresholds": [0.0], "V": [[0.0]] * 3})


def model_doc(**grid):
    """A well-formed model document: n = 41 zero samples of two channels."""
    g = {"xmin": -1.5, "xmax": 1.5, "n": 41, **grid}
    return {"grid": g, "thresholds": [0.0, [5.0, 0.0]],
            "V": [[0.0, 0.0, 0.0, [0.0, 0.0]] for _ in range(g["n"])]}


def edited(path, value):
    """model_doc() with doc[path[0]]...[path[-1]] = value."""
    doc = node = model_doc()
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


#: Malformed model documents, each a ConfigError (exit 2 through --model).
MALFORMED_MODELS = {
    "V-entry-string-pair": edited(("V", 20, 0), ["1", 0]),
    "V-number": edited(("V",), 5),
    "V-rows-numbers": edited(("V",), [0.0] * 41),
    "V-ragged": edited(("V", 20), [0.0, 0.0, 0.0]),
    "n-fraction": edited(("grid", "n"), 41.9),
    "n-bool": edited(("grid", "n"), True),
    "xmin-string": edited(("grid", "xmin"), "-1.5"),
    "V-true-mid-grid": edited(("V", 20, 1), True),
    "threshold-bool": edited(("thresholds", 1), [5.0, False]),
    "n-huge-short-V": edited(("grid", "n"), 10**9),
    "V-three-entries-per-node": edited(("V",), [[0.0, 0.0, 0.0]] * 41),
}


def test_model_doc_is_well_formed():
    model = model_from_dict(model_doc())
    assert (model.grid.n, model.channels.thresholds) == (41, (0j, 5 + 0j))
    assert not model.V.any()


@pytest.mark.parametrize("doc", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_document_is_config_error(doc):
    with pytest.raises(ConfigError, match="^malformed model document: "):
        model_from_dict(doc)


@pytest.mark.parametrize("grid, message", [
    ({"xmin": 1.5, "xmax": -1.5}, "invalid range"),
    ({"xmin": 1.5, "xmax": 1.5}, "invalid range"),
    ({"n": 2}, "too few points: n=2 < 3"),
    ({"n": 0}, "too few points: n=0 < 3"),
])
def test_well_formed_document_with_an_invalid_grid_is_grid_error(grid, message):
    with pytest.raises(GridError, match=message):
        model_from_dict(model_doc(**grid))


def test_kernel_csv(tmp_path):
    grid = make_grid(-1.5, 1.5, 21)
    kernel = build_kernel(
        OpticalParameters(
            delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0,
        ),
        grid,
    )
    path = tmp_path / "k.csv"
    write_kernel_csv(path, kernel)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,y,absK,argK"
    assert len(lines) == 1 + 21 * 21


def test_sweep_csv(tmp_path):
    from demonscatter.channels import ChannelAmplitudes

    rep = DemonReport.from_amplitudes(
        ChannelAmplitudes(T=np.sqrt(0.5), R=0, Tt=0, Rt=np.sqrt(0.5))
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(path, [(8.0, rep)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "v,T2,R2,Tt2,Rt2,D,code"
    assert lines[1].endswith("½T/½R")


def test_regions_csv(tmp_path):
    rows = [(1.0, 0.0, dzero_bounds(1.0, 0.0)), (0.0, 1.0, dzero_bounds(0.0, 1.0))]
    path = tmp_path / "regions.csv"
    write_regions_csv(path, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t2,rt2,lower,upper,region"
    assert lines[1].startswith("1,0,1,1")
    assert lines[2].startswith("0,1,0,0")


def csv_writer_reference(path, header, rows):
    """The csv.writer path that serialize's one writer replaced, kept as its
    oracle: floats as CSV_FMT, anything else as str."""
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows([CSV_FMT % x if isinstance(x, float) else x for x in row] for row in rows)


def test_tables_are_the_bytes_csv_writer_writes(tmp_path):
    kernel = build_kernel(OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0), make_grid(-2.0, 2.0, 41))
    # zeros of each sign pair at the ends, where argK reads signed zeros
    K = kernel.K.copy()
    K[0, :4] = K[-1, -4:] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    kernel = NonlocalKernel(grid=kernel.grid, K=K)
    x = kernel.grid.points
    reports = [(v, DemonReport.from_amplitudes(ChannelAmplitudes(*a))) for v, a in [
        (8.0, (np.sqrt(0.5), 0, 0, np.sqrt(0.5))), (np.float64(2.5), (0.3, 0.6j, 1e-7, -0.4)),
        (3, (1.0, 0, 0, 0))]]
    regions = [(t2, rt2, dzero_bounds(t2, rt2)) for t2, rt2 in [(1.0, 0.0), (0.25, 0.5)]]
    log = [(1, PAPER_POINT, 7.04e-4), (2, (0.0, 400.0, 0.5, 1e-9), 2.0)]
    cases = [
        (write_kernel_csv, (kernel,), ["x", "y", "absK", "argK"],
         [(x[i], x[j], np.abs(K[i])[j], np.angle(K[i])[j]) for i in range(41) for j in range(41)]),
        (write_kernel_csv, (kernel, False), ["x", "y", "reK", "imK"],
         [(x[i], x[j], K[i].real[j], K[i].imag[j]) for i in range(41) for j in range(41)]),
        (write_sweep_csv, (reports,), ["v", "T2", "R2", "Tt2", "Rt2", "D", "code"],
         [(v, *rep.probabilities, rep.D, rep.code) for v, rep in reports]),
        (write_regions_csv, (regions,), ["t2", "rt2", "lower", "upper", "region"],
         [(t2, rt2, b.lower, b.upper, b.region) for t2, rt2, b in regions]),
        (write_optimization_log_csv, (log,), ["eval", "b", "c", "x0", "delta", "cost"],
         [(i, *params, c) for i, params, c in log]),
    ]
    for write, args, header, rows in cases:
        write(tmp_path / "file.csv", *args)
        csv_writer_reference(tmp_path / "reference.csv", header, rows)
        assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
