"""The paper's no-go theorem as properties of solver output.

For any Hermitian multichannel system, the diagonal amplitudes of each open
channel obey the four channel inequalities of check_bounds, so its demon
parameter D stays in [-1/2, 1/2] and never approaches a demon (D = 1).
With loss the S-matrix is a contraction and the same bounds hold.  The
properties are checked on random local models (open and closed channels)
and on the effective nonlocal kernel that Feshbach elimination makes of a
two-channel model.

The bound is algebra on one slack: 1 - 2D = |R|^2 + |Tt|^2 + s3, with
s3 = 1 - |T|^2 - |Rt|^2 the third slack of check_bounds.  s3 is the squared
norm of the rest of S's row for the right-going port of the channel: the
flux that other channels' incidences send into that port, plus absorption
when the model is lossy.  The local-model properties check that port
identity, and its mirror for s4 and the left-going port, on every open
channel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonscatter.channels import ChannelSet, extract_channel
from demonscatter.demon import CODE_TOL, demon_parameter
from demonscatter.kernels import feshbach_reference
from demonscatter.local_solver import LocalPotentialModel, solve_local
from demonscatter.nonlocal_solver import solve_nonlocal
from demonscatter.units import make_grid

from oracles import check_bounds
from test_local_solver import random_hermitian_model

GRID = make_grid(-1.5, 1.5, 601)
TOL = 1e-8
#: Rounding allowance of the port identity, on top of the unitarity defect.
PORT_TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)
#: E above the lowest threshold, so channel 0 is open; the thresholds span
#: [-5, 5), so the other channels are often closed
gaps = st.floats(0.5, 9.5)


def assert_bounds(amps):
    slacks, _ = check_bounds(amps)
    assert min(slacks) >= -TOL, slacks
    assert -0.5 - TOL <= demon_parameter(amps) <= 0.5 + TOL


def port_excess(S, i):
    """(s3 - inflow, s4 - inflow) of open channel i.

    The inflow of an outgoing port of channel i is the flux it receives from
    every incidence but the two of channel i: the rest of its row of S, the
    row of T and Rt for s3 (right-going) and of R and Tt for s4 (left-going).
    Each excess is 1 minus the squared norm of that row: 0 up to the
    unitarity defect for a Hermitian model, the port's absorption (>= 0)
    for a lossy one.
    """
    slacks, _ = check_bounds(extract_channel(S, i))
    full, n = S.full(), S.n_open
    return tuple(slack - np.sum(np.abs(np.delete(full[row], [i, n + i])) ** 2)
                 for row, slack in ((i, slacks[2]), (n + i, slacks[3])))


def drawn_model(seed, nch, gap, gamma=0.0):
    """random_hermitian_model with loss gamma on every channel but 0, and E."""
    model = random_hermitian_model(np.random.default_rng(seed), GRID, nch)
    eps = model.channels.thresholds
    lossy = ChannelSet(thresholds=(eps[0],) + tuple(e - 0.5j * gamma for e in eps[1:]))
    return LocalPotentialModel(grid=GRID, channels=lossy, V=model.V), eps[0].real + gap


def feshbach_kernel(seed, E, scale=1.0):
    """Effective kernel of channel 0 of a random Hermitian two-channel model
    with zero diagonal (the family feshbach_reference eliminates exactly)
    and its coupling scaled by scale."""
    model = random_hermitian_model(np.random.default_rng(seed), GRID, 2)
    V = scale * model.V
    V[:, 0, 0] = V[:, 1, 1] = 0.0
    eps = model.channels.thresholds
    channels = ChannelSet(thresholds=(0.0, eps[1] - eps[0]))
    return feshbach_reference(LocalPotentialModel(grid=GRID, channels=channels, V=V), E)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, nch=st.integers(2, 4), gap=gaps)
def test_hermitian_models_obey_the_bound(seed, nch, gap):
    model, E = drawn_model(seed, nch, gap)
    solution = solve_local(model, E)
    S = solution.S
    for i in range(S.n_open):
        assert_bounds(extract_channel(S, i))
        for excess in port_excess(S, i):
            assert abs(excess) <= solution.unitarity_defect + PORT_TOL, (i, excess)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=seeds, nch=st.integers(2, 4), gap=gaps, gamma=st.floats(0.1, 20.0))
def test_lossy_models_obey_the_bound(seed, nch, gap, gamma):
    model, E = drawn_model(seed, nch, gap, gamma)
    assert not model.hermitian_flag
    S = solve_local(model, E).S
    for i in range(S.n_open):
        assert_bounds(extract_channel(S, i))
        assert min(port_excess(S, i)) >= -PORT_TOL, i


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=seeds, E=st.floats(0.5, 12.0), scale=st.floats(1.0, 10.0))
def test_feshbach_kernels_obey_the_demon_bound(seed, E, scale):
    amps = solve_nonlocal(feshbach_kernel(seed, E, scale), np.sqrt(2.0 * E))
    assert -0.5 - TOL <= demon_parameter(amps) <= 0.5 + TOL
    assert min(check_bounds(amps)[0]) >= -CODE_TOL


@pytest.mark.xfail(strict=True, reason="second-order Nystroem error: with its eliminated "
                   "channel closed, this kernel's smallest slack is -3.33e-6 at n = 601")
def test_feshbach_kernel_slacks_hold_to_1e_8():
    slacks, _ = check_bounds(solve_nonlocal(feshbach_kernel(0, 2.0), 2.0))
    assert min(slacks) >= -TOL, slacks
