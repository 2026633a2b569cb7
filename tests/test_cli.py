import csv
import json
import warnings

import numpy as np
import pytest

from demonscatter import cli, errors
from demonscatter.cli import main
from demonscatter.channels import ChannelSet
from demonscatter.local_solver import LocalPotentialModel, build_two_level_model
from demonscatter.optimize import PAPER_POINT, WEIGHT_LIMIT, OptimizationResult
from demonscatter.symmetry import verify_predictions
from demonscatter.units import RabiProfile, make_grid

from test_serialize import MALFORMED_MODELS, write_model

PAPER_FLAGS = [token for key, value in zip(("b", "c", "x0", "delta"), PAPER_POINT)
               for token in (f"--{key}", str(value))]


def run(argv):
    return main(argv)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_scatter_free_particle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["scatter", "--b", "0", "--c", "0", "--delta", "1",
              "--n", "501", "--v", "8"])
    assert rc == 0
    rows = read_csv(tmp_path / "demon_report.csv")
    assert abs(float(rows[0]["D"])) < 1e-8


def test_scatter_paper_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["scatter"] + PAPER_FLAGS + ["--v", "8"])
    assert rc == 0
    rows = read_csv(tmp_path / "demon_report.csv")
    assert float(rows[0]["D"]) == pytest.approx(0.5, abs=0.02)
    doc = json.loads((tmp_path / "smatrix.json").read_text())
    assert doc["n_open"] == 2


def test_lossy_scatter_writes_strict_json(tmp_path, monkeypatch):
    """solve_local reports no unitarity defect (NaN) for a non-Hermitian
    model; the record holds null there, which a strict parser reads."""
    monkeypatch.chdir(tmp_path)
    assert run(["scatter", "--b", "50", "--c", "40", "--x0", "0.1", "--delta", "20",
                "--gamma", "2", "--n", "401"]) == 0

    def reject(token):
        raise ValueError(f"not a JSON token: {token}")

    doc = json.loads((tmp_path / "smatrix.json").read_text(), parse_constant=reject)
    assert doc["diagnostics"]["unitarity_defect"] is None


def test_scatter_missing_model(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["scatter", "--model", "nope.json"]) == 2


def test_unknown_config_key(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"resolution": 11, "bogus": 1}')
    assert run(["regions", "--config", str(cfg)]) == 2


def test_kernel_paper_peak_location(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["kernel"] + PAPER_FLAGS + ["--v", "8", "--n", "241"])
    assert rc == 0
    rows = read_csv(tmp_path / "kernel.csv")
    best = max(rows, key=lambda r: float(r["absK"]))
    assert float(best["x"]) == pytest.approx(0.16455, abs=0.05)
    assert float(best["y"]) == pytest.approx(0.16455, abs=0.05)


def test_kernel_zero_profile(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["kernel", "--b", "0", "--c", "0", "--delta", "1", "--n", "41"])
    assert rc == 0
    rows = read_csv(tmp_path / "kernel.csv")
    assert all(float(r["absK"]) == 0.0 for r in rows)


def test_kernel_q_zero_exit_code(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["kernel"] + PAPER_FLAGS[:6] + ["--delta", "-32", "--v", "8",
              "--n", "41"])
    assert rc == 3


ERROR_CLASSES = [obj for obj in vars(errors).values() if isinstance(obj, type)
                 and issubclass(obj, Exception) and not issubclass(obj, Warning)]


@pytest.mark.parametrize("exc", ERROR_CLASSES, ids=lambda exc: exc.__name__)
def test_exit_code_follows_the_error_class(exc, monkeypatch, capsys):
    # a ValueError is a config error, whatever else it is; every other
    # toolkit error is a compute error
    def handler(args):
        raise exc("boom")

    monkeypatch.setitem(cli._COMMANDS, "regions", (handler, cli._COMMANDS["regions"][1]))
    config = issubclass(exc, ValueError)
    assert run(["regions"]) == (2 if config else 3)
    kind = "config" if config else "compute"
    assert capsys.readouterr().err == f"{kind} error: boom\n"


def test_regions(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["regions", "--resolution", "21"])
    assert rc == 0
    rows = read_csv(tmp_path / "regions.csv")
    for r in rows:
        assert float(r["rt2"]) <= 1.0 - float(r["t2"]) + 1e-12
    pts = {(float(r["t2"]), float(r["rt2"])): r for r in rows}
    assert float(pts[(1.0, 0.0)]["lower"]) == 1.0
    assert float(pts[(1.0, 0.0)]["upper"]) == 1.0
    assert float(pts[(0.0, 1.0)]["lower"]) == 0.0
    assert float(pts[(0.0, 1.0)]["upper"]) == 0.0


def test_regions_bad_resolution(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["regions", "--resolution", "1"]) == 2


def test_classify_paper_kernel(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["classify"] + PAPER_FLAGS + ["--n", "601"])
    assert rc == 0
    doc = json.loads((tmp_path / "symmetry.json").read_text())
    assert doc["trivial_only"]
    satisfied = [n for n, v in doc["classes"].items() if v["verdict"]]
    assert satisfied == ["Trivial"]


def test_classify_verifies_at_the_kernel_energy(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wavenumbers = []

    def spy(kernel, k, *args, **kwargs):
        wavenumbers.append(k)
        return verify_predictions(kernel, k, *args, **kwargs)

    monkeypatch.setattr(cli, "verify_predictions", spy)
    assert run(["classify", "--b", "50", "--c", "40", "--x0", "0.1", "--delta", "20",
                "--n", "201", "--v", "10", "--verify"]) == 0
    assert wavenumbers == [10.0]


def test_sweep_free_particle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["sweep", "--b", "0", "--c", "0", "--delta", "1", "--n", "501",
              "--vmin", "1", "--vmax", "10", "--nv", "10"])
    assert rc == 0
    rows = read_csv(tmp_path / "sweep.csv")
    assert len(rows) == 10
    assert all(abs(float(r["D"])) < 1e-8 for r in rows)


def test_sweep_reproducible(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    args = ["sweep", "--b", "50", "--c", "40", "--x0", "0.1", "--delta", "20",
            "--n", "501", "--vmin", "2", "--vmax", "6", "--nv", "3"]
    run(args + ["--out", "a.csv"])
    run(args + ["--out", "b.csv"])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_refine_paper_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["refine-paper", "--budget", "300"])
    assert rc == 0
    doc = json.loads((tmp_path / "refine.json").read_text())
    assert doc["initial_cost"] <= 4 * 0.02**2
    assert doc["converged"]


def test_optimize_cli_small_budget(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = run(["optimize", "--target", "half-demon", "--seed", "1",
              "--budget", "150", "--restarts", "1", "--n", "501",
              "--log", "log.csv"])
    assert rc == 0
    doc = json.loads((tmp_path / "optimize.json").read_text())
    assert doc["evaluations"] <= 150
    log_rows = read_csv(tmp_path / "log.csv")
    assert len(log_rows) == doc["evaluations"]


def test_scatter_nonlocal_matches_scatter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run(["scatter"] + PAPER_FLAGS + ["--v", "8", "--report", "local.csv"]) == 0
    assert run(["scatter-nonlocal"] + PAPER_FLAGS + ["--v", "8",
               "--out", "nonlocal.csv"]) == 0
    (local,), (nonlocal_,) = read_csv("local.csv"), read_csv("nonlocal.csv")
    for key in ("T2", "R2", "Tt2", "Rt2"):
        assert float(nonlocal_[key]) == pytest.approx(float(local[key]), abs=1e-4)
    assert nonlocal_["code"] == local["code"] == "½T/R(0.48)"


def _with(key, value):
    """PAPER_FLAGS with --key set to value (appended if absent)."""
    out = list(PAPER_FLAGS)
    if f"--{key}" in out:
        out[out.index(f"--{key}") + 1] = value
    else:
        out += [f"--{key}", value]
    return out


BAD_INPUT = {
    "scatter-b-nan": ["scatter"] + _with("b", "nan") + ["--v", "8"],
    "scatter-x0-nan": ["scatter"] + _with("x0", "nan") + ["--v", "8"],
    "scatter-box-nan": ["scatter"] + _with("box", "nan") + ["--v", "8"],
    "scatter-w-inf": ["scatter"] + _with("w", "inf") + ["--v", "8"],
    # at E = 0 channel 0 is closed, so open channel 0 would be the excited one
    "scatter-v-zero": ["scatter"] + _with("v", "0"),
    "sweep-nv-zero": ["sweep"] + _with("nv", "0"),
    # the kernel's energy E = v^2/2 enters as --v, so it is checked there
    "kernel-v-nan": ["kernel"] + _with("v", "nan") + ["--n", "41"],
    "kernel-v-negative": ["kernel"] + _with("v", "-1") + ["--n", "41"],
    "classify-tol-nan": ["classify"] + _with("tol", "nan") + ["--n", "41"],
    "classify-tol-negative": ["classify"] + _with("tol", "-1") + ["--n", "41"],
    "scatter-nonlocal-delta-nan": ["scatter-nonlocal"] + _with("delta", "nan"),
    # k h > sqrt(6) on an open channel: no propagating discrete wave; the
    # spacing exceeds sqrt(2) w too, and the model rejects that first
    "scatter-n-3": ["scatter"] + _with("n", "3"),
    "sweep-n-3": ["sweep"] + _with("n", "3"),
    "scatter-nonlocal-n-9": ["scatter-nonlocal"] + _with("n", "9"),
    # the kernel's eliminated channel, |q| = 15.7, is held to the same floor
    # (here too the profile's width rule fires first)
    "kernel-n-3": ["kernel"] + _with("n", "3"),
    "classify-n-3": ["classify"] + _with("n", "3"),
    # delta is required wherever a model or a kernel is built
    "scatter-nonlocal-no-delta": ["scatter-nonlocal"] + PAPER_FLAGS[:6],
    "kernel-no-delta": ["kernel"] + PAPER_FLAGS[:6] + ["--n", "41"],
    "classify-no-delta": ["classify"] + PAPER_FLAGS[:6] + ["--n", "41"],
    # a lobe that reaches the box ends, lobes outside the box, lobes that
    # vanish on the grid, and a width the spacing cannot resolve
    **{f"{cmd}-x0-{x0}": [cmd] + _with("x0", x0) + ["--n", "201"]
       for cmd in ("scatter", "kernel", "classify") for x0 in ("1.4", "5")},
    "scatter-x0-10": ["scatter"] + _with("x0", "10"),
    "scatter-w-1e-3": ["scatter"] + _with("w", "1e-3"),
    "optimize-v0-inf": ["optimize", "--v0", "inf", "--budget", "200"],
    "optimize-v0-nan": ["optimize", "--v0", "nan", "--budget", "200"],
    "optimize-w-nan": ["optimize", "--w", "nan", "--budget", "200"],
    "optimize-restarts-zero": ["optimize", "--restarts", "0", "--budget", "200"],
    "optimize-restarts-negative": ["optimize", "--restarts", "-1",
                                   "--budget", "200"],
    "optimize-weights-nan": ["optimize", "--probabilities", "0.5", "0", "0", "0.5",
                             "--weights", "nan", "1", "1", "1"],
    "optimize-named-weights-inf": ["optimize", "--target", "T/A",
                                   "--weights", "inf", "1", "1", "1"],
    # finite, but the cost gradient would overflow to NaN
    "optimize-weights-1e308": ["optimize", "--weights", "0", "0", "0", "1e308"],
    "optimize-bogus-target-with-probabilities": ["optimize", "--target", "bogus",
                                                 "--probabilities", "0.5", "0", "0",
                                                 "0.5"],
    # the probabilities replace the target, so a named target would do nothing
    "optimize-target-with-probabilities": ["optimize", "--target", "T/A",
                                           "--probabilities", "0.5", "0", "0", "0.5",
                                           "--budget", "100", "--restarts", "1",
                                           "--n", "201"],
}


@pytest.mark.parametrize("argv", BAD_INPUT.values(), ids=BAD_INPUT.keys())
def test_bad_input_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # rejected before any numerics run
        assert run(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == []


#: A width whose square overflows a float (w^2 in rabi_eval), on every
#: command that builds the profile, and a wavenumber whose cube underflows
#: (k^3 in the Green's weights): an OverflowError and a ZeroDivisionError
#: out of main before they were rejected where the input enters.
OUT_OF_RANGE = {
    **{f"{cmd}-w-1e300": [cmd, "--b", "50", "--c", "40", "--x0", "0.1", "--delta", "20",
                          "--w", "1e300", "--n", "201"]
       for cmd in ("scatter", "scatter-nonlocal", "kernel", "classify", "sweep")},
    "optimize-w-1e300": ["optimize", "--w", "1e300", "--budget", "100", "--n", "201"],
    "classify-E-1e-300-verify": ["classify", "--b", "50", "--c", "40", "--delta", "20",
                                 "--n", "301", "--v", "1.4142135623730952e-150",
                                 "--verify"],
}


@pytest.mark.parametrize("argv", OUT_OF_RANGE.values(), ids=OUT_OF_RANGE.keys())
def test_out_of_range_width_or_wavenumber_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(tmp_path.iterdir()) == []


def test_optimize_runs_at_the_largest_weight_without_numpy_warnings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["optimize", "--weights", "0", "0", "0", repr(WEIGHT_LIMIT),
                    "--budget", "100", "--restarts", "1", "--n", "401"]) == 0


@pytest.mark.parametrize("command, thresholds, flags", [
    ("scatter", (-1 - 1j, 0.0), ["--v", "4"]),               # lossy channel 0
    ("sweep", (5.0, 0.0), ["--velocities", "4", "2"]),       # closed at v = 2
], ids=["scatter-lossy", "sweep-closed"])
def test_closed_channel_0_model_is_config_error(command, thresholds, flags, tmp_path,
                                                monkeypatch, capsys):
    # only channel 1 is open at some velocity: its amplitudes must not be
    # reported as channel 0's
    monkeypatch.chdir(tmp_path)
    base = build_two_level_model(RabiProfile(b=50.0, c=40.0, x0=0.1), 20.0,
                                 grid=make_grid(-1.5, 1.5, 201))
    write_model("model.json", LocalPotentialModel(
        grid=base.grid, channels=ChannelSet(thresholds=thresholds), V=base.V))
    assert run([command, "--model", "model.json"] + flags) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("command, flags", [
    ("scatter", ["--v", "4", "--n", "3", "--box", "0.2", "--b", "nan"]),
    ("scatter", ["--v", "4", "--x0", "0.1"]),
    ("sweep", ["--velocities", "4", "--n", "601"]),
    ("sweep", ["--velocities", "4", "--gamma", "nan"]),
], ids=["scatter-grid-and-nan", "scatter-x0", "sweep-n", "sweep-nan"])
def test_profile_or_grid_flag_next_to_model_is_config_error(command, flags, tmp_path,
                                                             monkeypatch, capsys):
    # the file fixes the profile and the grid: such a flag would do nothing
    monkeypatch.chdir(tmp_path)
    write_model("model.json", build_two_level_model(
        RabiProfile(b=50.0, c=40.0, x0=0.1), 20.0, grid=make_grid(-1.5, 1.5, 201)))
    assert run([command, "--model", "model.json"] + flags) == 2
    assert capsys.readouterr().err.startswith("config error: --model")
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]
    # a flag at its default is indistinguishable from no flag
    assert run([command, "--model", "model.json", "--x0", "0", "--n", "2001"]
               + flags[:2]) == 0


PROFILE_CFG = {"b": 50.0, "c": 40.0, "x0": 0.1, "w": 0.14, "delta": 20.0,
               "gamma": 0.0}

#: Every config key of every subcommand, with a value that runs quickly.
FULL_CONFIGS = {
    "scatter": {"model": "model.json", **PROFILE_CFG, "v": 4.0, "n": 201,
                "box": 1.5, "out": "s.json", "report": "r.csv"},
    "scatter-nonlocal": {**PROFILE_CFG, "v": 4.0, "n": 201, "box": 1.5,
                         "out": "r.csv"},
    "kernel": {**PROFILE_CFG, "v": 4.0, "n": 41, "box": 1.5,
               "out": "k.csv", "cartesian": True},
    "regions": {"resolution": 5, "out": "regions.csv"},
    "classify": {**PROFILE_CFG, "v": 4.0, "n": 101, "box": 1.5,
                 "tol": 1e-8, "verify": True, "out": "sym.json"},
    "sweep": {"model": "model.json", **PROFILE_CFG, "velocities": [2.0, 3.0],
              "vmin": 2.0, "vmax": 3.0, "nv": 2, "n": 201, "box": 1.5,
              "out": "sweep.csv"},
    "optimize": {"target": "half-demon", "probabilities": [0.5, 0.0, 0.0, 0.5],
                 "weights": [1.0, 1.0, 1.0, 1.0], "v0": 8.0, "w": 0.14,
                 "seed": 1, "budget": 100, "restarts": 1, "n": 401, "box": 1.5,
                 "out": "opt.json", "log": "log.csv"},
    "refine-paper": {"v0": 8.0, "budget": 0, "n": 201, "box": 1.5,
                     "out": "refine.json"},
}
ALL_KEYS = set().union(*FULL_CONFIGS.values())


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
def test_config_with_every_key_is_accepted(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    model = build_two_level_model(RabiProfile(b=50.0, c=40.0, x0=0.1), 20.0,
                                  grid=make_grid(-1.5, 1.5, 201))
    write_model("model.json", model)
    cfg = FULL_CONFIGS[command]
    # a model file excludes the profile and grid keys, and a velocity list the
    # range keys, so each set runs alone
    excluded = {"model": set(PROFILE_CFG) | {"n", "box"},
                "velocities": {"vmin", "vmax", "nv"}}
    configs = [cfg] if "model" not in cfg else [
        {k: v for k, v in cfg.items() if k not in excluded},
        {k: v for k, v in cfg.items() if k not in set().union(*excluded.values())}]
    for config in configs:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        assert run([command, "--config", "cfg.json"]) == 0


@pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
def test_config_keys_of_other_commands_rejected(command, tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    foreign = sorted(ALL_KEYS - set(FULL_CONFIGS[command]))
    cfg = {**FULL_CONFIGS[command], **{key: 1 for key in foreign}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run([command, "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == f"config error: unknown config keys: {foreign}\n"


@pytest.mark.parametrize("argv, probabilities, weights", [
    (["--target", "T/A", "--weights", "0", "0", "0", "1"],
     (1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
    (["--target", "A/R"], (0.0, 0.0, 0.0, 1.0), (1.0, 1.0, 1.0, 1.0)),
    (["--probabilities", "0.5", "0", "0", "0.5", "--weights", "2", "1", "1", "1"],
     (0.5, 0.0, 0.0, 0.5), (2.0, 1.0, 1.0, 1.0)),
    ([], (0.5, 0.0, 0.0, 0.5), (1.0, 1.0, 1.0, 1.0)),
])
def test_optimize_target_takes_the_configured_weights(
    argv, probabilities, weights, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    targets = []

    def fake_optimize(target, **kwargs):
        targets.append(target)
        return OptimizationResult(parameters=(0.0, 0.0, 0.0, 0.0), cost=0.0,
                                  probabilities=probabilities, D=0.0,
                                  evaluations=0, converged=True)

    monkeypatch.setattr(cli, "optimize", fake_optimize)
    assert run(["optimize"] + argv) == 0
    (target,) = targets
    assert target.probabilities == probabilities
    assert target.weights == weights


def exit_code(argv):
    """main's return value, or the code of argparse's usage error."""
    try:
        return run(argv)
    except SystemExit as exc:
        return exc.code


SMALL_CFG = {**PROFILE_CFG, "n": 201, "box": 1.5}

#: Config values that the same flag would reject, or that no flag can spell.
BAD_CONFIGS = {
    "scatter-v-list": ("scatter", {**SMALL_CFG, "v": [1]}),
    "scatter-v-bool": ("scatter", {**SMALL_CFG, "v": True}),
    "scatter-n-fraction": ("scatter", {**SMALL_CFG, "n": 200.9}),
    "sweep-velocities-scalar": ("sweep", {**SMALL_CFG, "velocities": 5}),
    "classify-verify-string": ("classify", {**SMALL_CFG, "verify": "no"}),
}


@pytest.mark.parametrize("command, cfg", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_bad_config_value_exits_2(command, cfg, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert exit_code([command, "--config", "cfg.json"]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("command", ["kernel", "classify"])
def test_energy_has_no_flag_or_key_but_v(command, tmp_path, monkeypatch, capsys):
    # E = v^2/2 is given as --v, as in every other subcommand
    monkeypatch.chdir(tmp_path)
    assert exit_code([command, *EDGE_PROFILE, "--E", "50"]) == 2
    assert "unrecognized arguments: --E 50" in capsys.readouterr().err
    (tmp_path / "cfg.json").write_text(json.dumps({**SMALL_CFG, "E": 50.0}))
    assert run([command, "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == "config error: unknown config keys: ['E']\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("flag", ["--vmin=5", "--vmax=nan", "--nv=7"])
def test_range_flag_next_to_velocities_is_config_error(flag, tmp_path, monkeypatch, capsys):
    # the list fixes the velocities: such a flag would do nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**SMALL_CFG, "velocities": [2.0, 3.0]}))
    for argv in (["sweep", *PAPER_FLAGS, "--velocities", "2", "3", flag],
                 ["sweep", "--config", "cfg.json", flag]):
        assert run(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --velocities")
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    # a flag at its default is indistinguishable from no flag
    assert run(["sweep", "--config", "cfg.json", "--vmin", "1", "--nv", "10"]) == 0


@pytest.mark.parametrize("argv, v", [
    (["scatter", *PAPER_FLAGS, "--n", "201", "--v", "1e-300"], "1e-300"),
    (["kernel", *PAPER_FLAGS, "--n", "41", "--v", "1e-200"], "1e-200"),
    (["sweep", *PAPER_FLAGS, "--n", "201", "--velocities", "1e-300"], "1e-300"),
    (["optimize", "--budget", "100", "--restarts", "1", "--n", "41", "--v0", "1e-200"], "1e-200"),
], ids=["scatter", "kernel", "sweep", "optimize"])
def test_velocity_whose_energy_underflows_is_named(argv, v, tmp_path, monkeypatch, capsys):
    # not "energy must exceed the channel-0 threshold 0.0, got E=0.0"
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and v in err, err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cfg, flags", [
    ({"target": "T/A"}, ["--probabilities", "0.5", "0", "0", "0.5"]),
    ({"probabilities": [0.5, 0.0, 0.0, 0.5]}, ["--target", "A/R"]),
])
def test_target_next_to_probabilities_is_config_error(cfg, flags, tmp_path, monkeypatch,
                                                      capsys):
    # the probabilities fix the target, by flag or config key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert run(["optimize", "--config", "cfg.json"] + flags) == 2
    assert capsys.readouterr().err == (
        "config error: --probabilities replaces --target; drop ['target']\n")
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]
    # the target at its default is indistinguishable from no target
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"target": "half-demon", "probabilities": [0.5, 0.0, 0.0, 0.5]}))
    assert run(["optimize", "--config", "cfg.json", "--budget", "100", "--restarts", "1",
                "--n", "201"]) == 0


def test_config_that_is_not_an_object_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]\n")
    assert run(["scatter", "--config", "list.json"]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"
    assert [p.name for p in tmp_path.iterdir()] == ["list.json"]


def test_config_value_parses_as_its_flag(tmp_path, monkeypatch):
    # a negative exponent reaches the flag as --x0=-1e-05
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({**SMALL_CFG, "x0": -1e-05}))
    assert run(["scatter", "--config", "cfg.json", "--report", "file.csv"]) == 0
    flags = [f"--{key}={val}" for key, val in SMALL_CFG.items() if key != "x0"]
    assert run(["scatter", *flags, "--x0=-1e-05", "--report", "flag.csv"]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_flags_override_config_values(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(json.dumps(
        {**SMALL_CFG, "velocities": [2.0, 3.0], "out": "file.csv"}))
    assert run(["sweep", "--config", "sweep.json", "--velocities", "4", "5", "6",
                "--out", "flag.csv"]) == 0
    assert [float(r["v"]) for r in read_csv("flag.csv")] == [4.0, 5.0, 6.0]
    assert not (tmp_path / "file.csv").exists()
    (tmp_path / "classify.json").write_text(json.dumps({**SMALL_CFG, "verify": False}))
    assert run(["classify", "--config", "classify.json", "--verify"]) == 0
    assert "verification" in json.loads((tmp_path / "symmetry.json").read_text())


@pytest.mark.parametrize("argv", [
    ["scatter", "--model", "model.json"],
    ["scatter", "--b", "1", "--c", "1", "--delta", "1", "--box", "0.5"],
], ids=["nan-sample", "box-cuts-the-profile"])
def test_model_error_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_model("model.json", build_two_level_model(
        RabiProfile(b=50.0, c=40.0, x0=0.1), 20.0, grid=make_grid(-1.5, 1.5, 201)))
    doc = json.loads((tmp_path / "model.json").read_text())
    doc["V"][100][1] = [float("nan"), 0.0]  # one sample of V_01
    (tmp_path / "model.json").write_text(json.dumps(doc))
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("doc", MALFORMED_MODELS.values(), ids=MALFORMED_MODELS)
def test_malformed_model_file_exits_2(doc, tmp_path, monkeypatch, capsys):
    """A config error line, no output file and no numpy RuntimeWarning."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "model.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["scatter", "--model", "model.json"]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed model document: ")
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["model.json"]


@pytest.mark.parametrize("kind", ["model", "config"])
@pytest.mark.parametrize("content", [b"not json", b"\xff"])
def test_file_that_is_not_json_is_named(kind, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nj.json").write_bytes(content)
    assert run(["scatter", f"--{kind}", "nj.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read {kind} nj.json: ")
    assert "Traceback" not in err


def test_output_path_that_is_a_directory_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    assert run(["regions", "--resolution", "5", "--out", "out"]) == 2
    assert capsys.readouterr().err.startswith("config error:")


#: Edge values for every numeric flag: floats (list flags take one element)
#: and ints.  Passed as --key=value, so argparse reads "-inf" as a value.
EDGE_FLOATS = ["nan", "inf", "-inf", "0", "-0.0", "-1", "1e-300", "1e300", "1e307", "1e308"]
EDGE_INTS = ["-1", "0", "1", "2", "3"]
EDGE_PROFILE = ["--b", "50", "--c", "40", "--x0", "0.1", "--delta", "20", "--n", "41"]
#: Each command on a small grid with the smallest budget.
EDGE_BASE = {"scatter": EDGE_PROFILE, "scatter-nonlocal": EDGE_PROFILE, "kernel": EDGE_PROFILE,
             "classify": EDGE_PROFILE, "sweep": EDGE_PROFILE, "regions": [],
             "optimize": ["--budget", "100", "--restarts", "1", "--n", "41"],
             "refine-paper": ["--budget", "100", "--n", "41"]}
EDGE_KEYS = [(command, key) for command, (_handler, defaults) in cli._COMMANDS.items()
             for key in defaults if cli._FLAG_TYPES.get(key, float) in (float, int, "floats")]


@pytest.mark.parametrize("command, key", EDGE_KEYS, ids=[f"{c}-{k}" for c, k in EDGE_KEYS])
def test_numeric_flag_at_its_edge_values(command, key, tmp_path, monkeypatch, capsys):
    """Exit 0 or 2, never an exception out of main; no file left on exit 2;
    no numpy RuntimeWarning on any exit."""
    monkeypatch.chdir(tmp_path)
    wrong = []
    for value in EDGE_INTS if cli._FLAG_TYPES.get(key) is int else EDGE_FLOATS:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = exit_code([command, *EDGE_BASE[command], f"--{key}={value}"])
            except Exception as exc:  # noqa: BLE001 - reported below
                rc = repr(exc)
        left = sorted(p.name for p in tmp_path.iterdir())
        runtime = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
        if rc not in (0, 2) or (rc == 2 and left) or runtime:
            wrong.append((value, rc, left, runtime))
        for path in tmp_path.iterdir():
            path.unlink()
    capsys.readouterr()
    assert wrong == []
