import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from demonscatter.errors import (
    NonPositiveEnergyError,
    ThresholdSingularityError,
    UnsupportedModelError,
)
from demonscatter.kernels import (
    OpticalParameters,
    build_kernel,
    compute_mu,
    compute_q,
    feshbach_reference,
)
from demonscatter.local_solver import build_two_level_model
from demonscatter.units import RabiProfile, make_grid, rabi_eval

PAPER_PROFILE = RabiProfile(b=165.874, c=103.876, x0=0.16455)


def test_mu_values():
    assert compute_mu(0.0, 0.0, 5.0) == 0.0
    assert compute_mu(91.211, 0.0, 32.0) == pytest.approx(91.211 / 32.0)
    assert compute_mu(0.0, 64.0, 32.0) == pytest.approx(1j)
    with pytest.raises(NonPositiveEnergyError):
        compute_mu(1.0, 0.0, 0.0)


def test_q_values():
    assert type(compute_q(32.0, 0.0)) is complex
    assert compute_q(32.0, 0.0) == pytest.approx(8.0)
    q = compute_q(32.0, 91.211 / 32.0)
    assert q == pytest.approx(8.0 * np.sqrt(1 + 91.211 / 32.0))
    assert abs(q - 15.698) < 1e-3
    below = compute_q(32.0, -2.0)
    assert below.real == pytest.approx(0.0, abs=1e-12)
    assert below.imag == pytest.approx(8.0)


def test_q_branch_property():
    rng = np.random.default_rng(9)
    for _ in range(200):
        mu = complex(rng.normal(scale=3), rng.normal(scale=3))
        E = float(rng.uniform(0.1, 100))
        assert compute_q(E, mu).imag >= 0


def test_zero_profile_zero_kernel():
    grid = make_grid(-1.5, 1.5, 101)
    params = OpticalParameters(
        delta=1.0, gamma=0.0, profile=RabiProfile(b=0.0, c=0.0), E=32.0
    )
    assert np.all(build_kernel(params, grid).K == 0)


def test_diagonal_negative_imaginary():
    grid = make_grid(-1.5, 1.5, 401)
    params = OpticalParameters(
        delta=91.211, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    d = np.diagonal(K)
    nz = np.abs(d) > 0
    assert np.all(d[nz].imag < 0)
    assert np.allclose(d[nz].real, 0.0, atol=1e-15 * np.max(np.abs(d)))


def test_kernel_not_hermitian():
    grid = make_grid(-1.5, 1.5, 401)
    params = OpticalParameters(
        delta=91.211, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    K = build_kernel(params, grid).K
    assert np.max(np.abs(K - np.conj(K.T))) > 1e-3 * np.max(np.abs(K))


def test_kernel_energy_dependent():
    grid = make_grid(-1.5, 1.5, 201)
    mk = lambda E: build_kernel(
        OpticalParameters(delta=91.211, gamma=0.0, profile=PAPER_PROFILE, E=E),
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


def test_feshbach_matches_closed_form():
    grid = make_grid(-1.5, 1.5, 401)
    for gamma in (0.0, 64.0):
        model = build_two_level_model(PAPER_PROFILE, 91.211, gamma, grid)
        ref = feshbach_reference(model, 32.0)
        params = OpticalParameters(
            delta=91.211, gamma=gamma, profile=PAPER_PROFILE, E=32.0
        )
        K = build_kernel(params, grid).K
        rel = np.max(np.abs(ref.K - K)) / np.max(np.abs(K))
        assert rel < 1e-8


def test_kernels_match_elementwise_formula():
    # criterion-2 draws (on a coarser grid): the Toeplitz phase equals
    # e^{iq|x_i - x_j|} to rounding
    rng = np.random.default_rng(5)
    grid = make_grid(-1.5, 1.5, 1001)
    x, E = grid.points, 32.0
    for _ in range(20):
        profile = RabiProfile(
            b=rng.uniform(20.0, 180.0),
            c=rng.uniform(20.0, 120.0),
            x0=rng.uniform(0.0, 0.35),
        )
        delta = rng.uniform(10.0, 140.0)
        q = compute_q(E, compute_mu(delta, 0.0, E))
        green = np.exp(1j * q * np.abs(x[:, None] - x[None, :])) / (1j * q)
        omega = rabi_eval(profile, -x)
        model = build_two_level_model(profile, delta, grid=grid)
        expected = {
            "build_kernel": 0.25 * green * omega[:, None] * np.conj(omega)[None, :],
            "feshbach_reference": (
                model.V[:, 0, 1][:, None] * green * model.V[:, 1, 0][None, :]
            ),
        }
        params = OpticalParameters(delta=delta, gamma=0.0, profile=profile, E=E)
        got = {
            "build_kernel": build_kernel(params, grid).K,
            "feshbach_reference": feshbach_reference(model, E).K,
        }
        for name, K in got.items():
            ref = expected[name]
            assert np.max(np.abs(K - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_feshbach_zero_coupling():
    grid = make_grid(-1.5, 1.5, 101)
    model = build_two_level_model(RabiProfile(b=0.0, c=0.0), 91.211, grid=grid)
    assert np.all(feshbach_reference(model, 32.0).K == 0)


def test_feshbach_gamma_case_q():
    # Delta=0, gamma=64, E=32: q = 8 (1+i)^{1/2}
    grid = make_grid(-1.5, 1.5, 201)
    model = build_two_level_model(PAPER_PROFILE, 0.0, 64.0, grid)
    ref = feshbach_reference(model, 32.0)
    params = OpticalParameters(
        delta=0.0, gamma=64.0, profile=PAPER_PROFILE, E=32.0
    )
    built = build_kernel(params, grid)
    assert np.allclose(ref.K, built.K, atol=1e-10 * np.max(np.abs(built.K)))
    q = compute_q(32.0, 1j)
    assert q == pytest.approx(8.0 * np.sqrt(1 + 1j))


def test_feshbach_requires_two_channels():
    import numpy as np

    from demonscatter.channels import ChannelSet
    from demonscatter.local_solver import LocalPotentialModel

    grid = make_grid(-1.5, 1.5, 51)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((51, 1, 1)),
    )
    with pytest.raises(UnsupportedModelError):
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
