import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import toeplitz

from demonscatter.channels import ChannelSet
from demonscatter.errors import (
    ModelError,
    NonPositiveEnergyError,
    ThresholdSingularityError,
)
from demonscatter.kernels import (
    OpticalParameters,
    build_kernel,
    feshbach_reference,
)
from demonscatter.local_solver import LocalPotentialModel, build_two_level_model
from demonscatter.units import RabiProfile, make_grid, rabi_eval

from oracles import PAPER_DELTA, PAPER_PROFILE


def closed_form(profile, q, grid):
    """The paper's kernel 0.25 Omega(x) Omega(y)* e^{iq|x-y|}/(iq), with the
    profile evaluated at -x (the incidence-axis orientation), in the
    operation order of the closed-form builder that elimination replaced."""
    x = grid.points
    omega = rabi_eval(profile, -x)
    e = np.exp(1j * q * (x - x[0]))  # e^{iq|x_i - x_j|} depends on |i - j| only
    K = toeplitz(e, e) * (0.25 / (1j * q) * omega[:, None])
    K *= np.conj(omega)[None, :]
    return K


def paper_q(E, delta, gamma):
    """q = sqrt(2E + 2 delta + i gamma) on the branch Im q >= 0."""
    q = cmath.sqrt(complex(2.0 * E + 2.0 * delta, gamma))
    return -q if q.imag < 0 else q


def test_zero_profile_zero_kernel():
    grid = make_grid(-1.5, 1.5, 101)
    params = OpticalParameters(
        delta=1.0, gamma=0.0, profile=RabiProfile(b=0.0, c=0.0), E=32.0
    )
    assert np.all(build_kernel(params, grid).K == 0)


def test_diagonal_negative_imaginary():
    grid = make_grid(-1.5, 1.5, 401)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    d = np.diagonal(K)
    nz = np.abs(d) > 0
    assert np.all(d[nz].imag < 0)
    assert np.allclose(d[nz].real, 0.0, atol=1e-15 * np.max(np.abs(d)))


def test_kernel_not_hermitian():
    grid = make_grid(-1.5, 1.5, 401)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    assert np.max(np.abs(K - np.conj(K.T))) > 1e-3 * np.max(np.abs(K))


def test_kernel_energy_dependent():
    grid = make_grid(-1.5, 1.5, 201)
    mk = lambda E: build_kernel(
        OpticalParameters(delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=E),
        grid,
    ).K
    assert np.max(np.abs(mk(32.0) - mk(20.0))) > 0


def test_q_zero_error():
    grid = make_grid(-1.5, 1.5, 101)
    params = OpticalParameters(
        delta=-32.0, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    with pytest.raises(ThresholdSingularityError):
        build_kernel(params, grid)


def test_kernels_match_elementwise_formula():
    # criterion-2 draws (on a coarser grid), then lossy draws and draws whose
    # eliminated channel is closed (E + delta < 0), where the branch
    # Im q >= 0 decides the kernel
    rng = np.random.default_rng(5)
    grid = make_grid(-1.5, 1.5, 1001)
    draws = []
    for kind in ("criterion 2", "lossy", "closed"):
        for _ in range(20 if kind == "criterion 2" else 8):
            profile = RabiProfile(
                b=rng.uniform(20.0, 180.0),
                c=rng.uniform(20.0, 120.0),
                x0=rng.uniform(0.0, 0.35),
            )
            E = 32.0 if kind == "criterion 2" else rng.uniform(5.0, 60.0)
            delta = -E - rng.uniform(1.0, 80.0) if kind == "closed" else rng.uniform(10.0, 140.0)
            gamma = rng.uniform(0.5, 100.0) if kind == "lossy" else 0.0
            draws.append((kind, profile, delta, gamma, E))
    for kind, profile, delta, gamma, E in draws:
        q = paper_q(E, delta, gamma)
        assert (q.imag > 0) == (kind != "criterion 2")
        ref = closed_form(profile, q, grid)
        params = OpticalParameters(delta=delta, gamma=gamma, profile=profile, E=E)
        K = build_kernel(params, grid).K
        assert np.max(np.abs(K - ref)) <= 1e-15 * np.max(np.abs(ref)), kind
        # the Toeplitz phase equals e^{iq|x_i - x_j|} to rounding
        x, omega = grid.points, rabi_eval(profile, -grid.points)
        green = np.exp(1j * q * np.abs(x[:, None] - x[None, :])) / (1j * q)
        entrywise = 0.25 * omega[:, None] * np.conj(omega)[None, :] * green
        assert np.max(np.abs(entrywise - ref)) <= 1e-12 * np.max(np.abs(ref)), kind


def test_feshbach_zero_coupling():
    grid = make_grid(-1.5, 1.5, 101)
    model = build_two_level_model(RabiProfile(b=0.0, c=0.0), 91.211, grid=grid)
    assert np.all(feshbach_reference(model, 32.0).K == 0)


def test_feshbach_gamma_case_q():
    # Delta=0, gamma=64, E=32: q = 8 (1+i)^{1/2}
    grid = make_grid(-1.5, 1.5, 201)
    params = OpticalParameters(
        delta=0.0, gamma=64.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    ref = closed_form(PAPER_PROFILE, 8.0 * np.sqrt(1 + 1j), grid)
    assert np.allclose(K, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def test_feshbach_requires_two_channels():
    import numpy as np

    from demonscatter.channels import ChannelSet
    from demonscatter.local_solver import LocalPotentialModel

    grid = make_grid(-1.5, 1.5, 51)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((51, 1, 1)),
    )
    with pytest.raises(ModelError, match="elimination implemented for 2 channels, got 1"):
        feshbach_reference(model, 32.0)


def test_feshbach_requires_vanishing_diagonal():
    # a width-0.2 lobe decays at the box ends, so only the diagonal rule rejects it
    grid = make_grid(-1.5, 1.5, 201)
    V = np.zeros((201, 2, 2), dtype=complex)
    V[:, 0, 1] = V[:, 1, 0] = V[:, 1, 1] = np.exp(-(grid.points / 0.2) ** 2)
    model = LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds=(0.0, -20.0)), V=V)
    with pytest.raises(ModelError, match="vanishing diagonal"):
        feshbach_reference(model, 32.0)


def test_optical_parameters_validation():
    with pytest.raises(ValueError):
        OpticalParameters(delta=0.0, gamma=-1.0, profile=PAPER_PROFILE, E=32.0)
    with pytest.raises(NonPositiveEnergyError):
        OpticalParameters(delta=0.0, gamma=0.0, profile=PAPER_PROFILE, E=0.0)


DELTA = st.floats(min_value=-1e4, max_value=1e4)
GAMMA = st.floats(min_value=0.0, max_value=1e4)
ENERGY = st.floats(min_value=1e-6, max_value=1e6)


@given(delta=DELTA, gamma=GAMMA, E=ENERGY)
def test_optical_parameters_accept_finite_fields(delta, gamma, E):
    params = OpticalParameters(delta=delta, gamma=gamma, profile=PAPER_PROFILE, E=E)
    assert (params.delta, params.gamma, params.E) == (delta, gamma, E)


@given(delta=DELTA, gamma=GAMMA, E=ENERGY,
       field=st.sampled_from(["delta", "gamma", "E"]),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_optical_parameters_reject_non_finite_field(delta, gamma, E, field, bad):
    fields = {"delta": delta, "gamma": gamma, "E": E, field: bad}
    with pytest.raises(ValueError):
        OpticalParameters(profile=PAPER_PROFILE, **fields)
