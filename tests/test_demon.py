import itertools
import sys

import numpy as np
import pytest

from demonscatter import local_solver
from demonscatter.channels import (
    ChannelAmplitudes,
    ChannelSet,
    extract_channel,
    unitarity_defect,
)
from demonscatter.demon import (
    DemonReport,
    demon_parameter,
    device_code,
    dzero_bounds,
    sweep_demon,
)
from demonscatter.errors import NonPositiveEnergyError
from demonscatter.local_solver import LocalPotentialModel, build_two_level_model
from demonscatter.units import make_grid
from oracles import (
    PAPER_DELTA,
    PAPER_PROFILE,
    check_bounds,
    construct_boundary_smatrix,
    haar_unitary,
    smatrix_from_full,
)
from test_local_solver import random_hermitian_model


def amps(t2, r2, tt2, rt2):
    return ChannelAmplitudes(
        T=np.sqrt(t2), R=np.sqrt(r2), Tt=np.sqrt(tt2), Rt=np.sqrt(rt2)
    )


def test_demon_parameter_values():
    assert demon_parameter(amps(1, 0, 0, 1)) == pytest.approx(1.0)
    assert demon_parameter(amps(0.5, 0, 0, 0.5)) == pytest.approx(0.5)
    assert demon_parameter(amps(1, 0, 1, 0)) == pytest.approx(0.0)


def test_demon_antisymmetry():
    rng = np.random.default_rng(2)
    for _ in range(50):
        t, r, tt, rt = rng.random(4)
        a = ChannelAmplitudes(T=t, R=r, Tt=tt, Rt=rt)
        swapped = ChannelAmplitudes(T=tt, R=rt, Tt=t, Rt=r)
        assert demon_parameter(a) == pytest.approx(-demon_parameter(swapped))


def test_check_bounds_ideal_demon_violates():
    slacks, violated = check_bounds(amps(1, 0, 0, 1))
    assert violated
    assert slacks[2] == pytest.approx(-1.0)


def test_check_bounds_half_demon():
    slacks, violated = check_bounds(amps(0.5, 0, 0, 0.5))
    assert not violated
    assert slacks[2] == pytest.approx(0.0)


def test_check_bounds_free_particle():
    slacks, violated = check_bounds(amps(1, 0, 1, 0))
    assert not violated
    assert slacks == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_check_bounds_minus_half_demon():
    a = amps(0, 0.5, 0.5, 0)
    slacks, violated = check_bounds(a)
    assert demon_parameter(a) == pytest.approx(-0.5)
    assert not violated
    assert slacks[3] == pytest.approx(0.0)


def test_check_bounds_past_the_boundary_violates():
    # D = 0.9, past the +1/2 boundary: no unitary S has these amplitudes
    a = amps(0.9, 0, 0, 0.9)
    slacks, violated = check_bounds(a)
    assert demon_parameter(a) == pytest.approx(0.9)
    assert violated
    assert slacks[2] == pytest.approx(-0.8)


def test_check_bounds_interior_point():
    a = amps(0.5, 0.5, 0.5, 0.5)
    slacks, violated = check_bounds(a)
    assert demon_parameter(a) == pytest.approx(0.0)
    assert not violated
    assert slacks == pytest.approx((0.0, 0.0, 0.0, 0.0))


def test_boundary_structure_on_probability_grid():
    """1 - 2D = |R|^2 + |Tt|^2 + s3, so D = +1/2 within the bounds forces
    R = Tt = 0 and |T|^2 + |Rt|^2 = 1; D = -1/2 mirrors it with T = Rt = 0."""
    levels = (0.0, 1e-4, 0.01, 0.1, 0.25, 0.5, 0.6, 0.9, 1.0)
    hits = {"+1/2": 0, "-1/2": 0, "violated": 0}
    for t2, r2, tt2, rt2 in itertools.product(levels, repeat=4):
        a = amps(t2, r2, tt2, rt2)
        D = demon_parameter(a)
        if check_bounds(a)[1]:
            hits["violated"] += 1
            continue
        assert -0.5 - 1e-12 <= D <= 0.5 + 1e-12
        if abs(D - 0.5) <= 1e-12:
            hits["+1/2"] += 1
            assert (r2, tt2) == (0.0, 0.0)
            assert t2 + rt2 == pytest.approx(1.0)
        elif abs(D + 0.5) <= 1e-12:
            hits["-1/2"] += 1
            assert (t2, rt2) == (0.0, 0.0)
            assert tt2 + r2 == pytest.approx(1.0)
    # the grid reaches both boundaries and the violating region
    assert all(hits.values()), hits


def test_device_codes():
    assert device_code(amps(0.5, 0, 0, 0.5)) == "½T/½R"
    assert device_code(amps(1, 0, 0, 0)) == "T/A"
    assert device_code(amps(0, 0, 0, 1)) == "A/R"
    assert device_code(amps(0.5, 0.5, 0, 0)) == "½T½R/A"
    assert device_code(amps(1, 0, 1, 0)) == "T/T"


def test_dzero_bounds_forced_points():
    b = dzero_bounds(1.0, 0.0)
    assert (b.lower, b.upper) == (1.0, 1.0)
    b = dzero_bounds(0.0, 1.0)
    assert (b.lower, b.upper) == (0.0, 0.0)


def test_dzero_bounds_partial_tr_device():
    b = dzero_bounds(0.5, 0.0)
    assert (b.lower, b.upper) == (0.0, 0.5)
    assert b.lower <= 0.0 <= b.upper  # the TR/A device sits inside


def test_dzero_bounds_regions():
    assert dzero_bounds(0.1, 0.1).region == "B"
    assert dzero_bounds(0.1, 0.6).region == "A"
    assert dzero_bounds(0.85, 0.05).region == "C"
    assert dzero_bounds(0.6, 0.35).region == "D"


def test_dzero_bounds_ordering_everywhere():
    for t2 in np.linspace(0, 1, 41):
        for rt2 in np.linspace(0, 1 - t2, 30):
            b = dzero_bounds(t2, rt2)
            assert 0.0 <= b.lower <= b.upper <= 1.0


def test_dzero_bounds_infeasible():
    with pytest.raises(ValueError, match=r"infeasible pair: \|Rt\|\^2 = 0\.5 > 1 - \|T\|\^2"):
        dzero_bounds(0.8, 0.5)
    with pytest.raises(ValueError, match=r"probabilities must lie in \[0, 1\], got \(-0\.1, 0\.5\)"):
        dzero_bounds(-0.1, 0.5)


@pytest.mark.parametrize("kind", ["half-demon", "T/A", "A/R", "R/T-half"])
def test_boundary_smatrices(kind):
    S = construct_boundary_smatrix(kind)
    assert unitarity_defect(S) < 1e-12
    D = demon_parameter(extract_channel(S, 0))
    assert abs(abs(D) - 0.5) < 1e-12


def test_boundary_smatrix_amplitudes():
    a = extract_channel(construct_boundary_smatrix("T/A"), 0)
    assert a.probabilities == pytest.approx((1, 0, 0, 0))
    a = extract_channel(construct_boundary_smatrix("A/R"), 0)
    assert a.probabilities == pytest.approx((0, 0, 0, 1))
    a = extract_channel(construct_boundary_smatrix("half-demon"), 0)
    assert a.probabilities == pytest.approx((0.5, 0, 0, 0.5))


def test_boundary_smatrix_unknown_kind():
    with pytest.raises(ValueError):
        construct_boundary_smatrix("demon")


def test_haar_no_go_bound():
    rng = np.random.default_rng(31)
    for _ in range(300):
        n = int(rng.integers(1, 4))
        S = smatrix_from_full(haar_unitary(2 * n, rng))
        for i in range(n):
            a = extract_channel(S, i)
            D = demon_parameter(a)
            assert -0.5 - 1e-10 <= D <= 0.5 + 1e-10
            t2, _, _, rt2 = a.probabilities
            assert not (t2 > 0.5 + 1e-8 and rt2 > 0.5 + 1e-8)


def test_single_channel_always_dzero():
    rng = np.random.default_rng(8)
    for _ in range(100):
        S = smatrix_from_full(haar_unitary(2, rng))
        assert abs(demon_parameter(extract_channel(S, 0))) < 1e-12


def test_sweep_free_particle():
    import numpy as np

    from demonscatter.channels import ChannelSet
    from demonscatter.local_solver import LocalPotentialModel
    from demonscatter.units import make_grid

    grid = make_grid(-1.5, 1.5, 301)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((301, 1, 1)),
    )
    reports = sweep_demon(model, np.arange(1.0, 11.0))
    assert len(reports) == 10
    for _, rep in reports:
        assert abs(rep.D) < 1e-6


def test_sweep_paper_model_peaks_near_design_velocity():
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    reports = dict(sweep_demon(model, [6.0, 8.0, 10.0]))
    assert reports[8.0].D == pytest.approx(0.5, abs=0.02)
    assert reports[8.0].D > reports[6.0].D
    assert reports[8.0].D > reports[10.0].D


def test_sweep_rejects_nonpositive_velocity():
    grid = make_grid(-1.5, 1.5, 301)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((301, 1, 1)),
    )
    with pytest.raises(ValueError):
        sweep_demon(model, [0.0])


@pytest.mark.parametrize("velocities, message", [
    ([2.0, -1.0], "velocities must be positive, got -1.0"),
    ([2.0, 3.0, 0.0], "velocities must be positive, got 0.0"),
    ([2.0, np.nan], "velocity must be finite, got nan"),
    ([2.0, np.inf, -1.0], "velocity must be finite, got inf"),
])
def test_sweep_checks_every_velocity_before_any_solve(velocities, message, monkeypatch):
    grid = make_grid(-1.5, 1.5, 301)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((301, 1, 1)),
    )
    solves = []
    monkeypatch.setattr(sys.modules["demonscatter.demon"], "solve_channel",
                        lambda *args: solves.append(args))
    with pytest.raises(ValueError) as exc:
        sweep_demon(model, velocities)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message
    assert solves == []


def test_sweep_rejects_closed_channel_0(monkeypatch):
    # channel 0 is open at v = 4 (E = 8) but closed at v = 2 (E = 2), where
    # only channel 1 is open: its amplitudes must not stand in for channel 0's,
    # and the sweep fails before it factors the v = 4 point
    base = random_hermitian_model(np.random.default_rng(2), make_grid(-1.5, 1.5, 601), 2)
    model = LocalPotentialModel(grid=base.grid, channels=ChannelSet(thresholds=(5.0, 0.0)),
                                V=base.V)
    factorizations = []
    monkeypatch.setattr(local_solver, "zgbtrf",
                        lambda *args, **kw: factorizations.append(args))
    with pytest.raises(NonPositiveEnergyError,
                       match="^energy must exceed the channel-0 threshold 5.0, got E=2.0$"):
        sweep_demon(model, [4.0, 2.0])
    assert factorizations == []


def test_demon_report_fields():
    rep = DemonReport.from_amplitudes(amps(0.5, 0, 0, 0.5))
    assert rep.D == pytest.approx(0.5)
    assert rep.code == "½T/½R"
