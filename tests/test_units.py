import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from demonscatter.errors import GridError, ResolutionWarning
from demonscatter.units import (
    DEFAULT_WIDTH,
    RabiProfile,
    _rabi,
    check_resolution,
    default_grid,
    make_grid,
    rabi_eval,
    rabi_gradient,
    velocity_to_energy,
)


def test_make_grid_four_points():
    g = make_grid(-1.5, 1.5, 4)
    assert np.allclose(g.points, [-1.5, -0.5, 0.5, 1.5])


def test_grid_points_are_read_only():
    g = make_grid(-1.5, 1.5, 5)
    with pytest.raises(ValueError, match="read-only"):
        g.points[0] = 9.0
    assert g.points[0] == g.x_min == -1.5


def test_make_grid_default_spacing():
    g = make_grid(-1.5, 1.5, 2001)
    assert g.spacing == pytest.approx(0.0015)


def test_make_grid_invalid_range():
    with pytest.raises(GridError):
        make_grid(0.0, 0.0, 10)


def test_make_grid_too_few_points():
    with pytest.raises(GridError):
        make_grid(-1.0, 1.0, 2)


def test_rabi_single_gaussians():
    assert rabi_eval(RabiProfile(b=0, c=1, x0=0, w=1), 0.0) == pytest.approx(1.0)
    assert rabi_eval(RabiProfile(b=1, c=0, x0=0, w=1), 0.0) == pytest.approx(-1j)


def test_rabi_paper_parameters_high_precision():
    # oracle: arbitrary-precision evaluation of the two exponentials
    b, c, x0 = 165.874, 103.876, 0.16455
    w = DEFAULT_WIDTH
    with mpmath.workdps(40):
        wm = mpmath.sqrt(2) / 10
        g = lambda x: mpmath.e ** (-(x * x) / (wm * wm))
        expected = mpmath.mpc(0, -b) * g(mpmath.mpf("0.16455")) + c * g(
            mpmath.mpf("-0.16455")
        )
        expected_abs = float(mpmath.fabs(expected))
    got = rabi_eval(RabiProfile(b=b, c=c, x0=x0, w=w), 0.0)
    assert abs(got) == pytest.approx(expected_abs, rel=1e-12)


def test_rabi_linear_in_amplitudes():
    x = 0.3
    p1 = RabiProfile(b=2.0, c=0.0, x0=0.1)
    p2 = RabiProfile(b=0.0, c=3.0, x0=0.1)
    p12 = RabiProfile(b=2.0, c=3.0, x0=0.1)
    assert rabi_eval(p12, x) == pytest.approx(rabi_eval(p1, x) + rabi_eval(p2, x))


def test_rabi_far_field_is_exact_zero_without_warning():
    """Far from both lobes the Gaussians underflow to exact zero, also where
    the squares overflow, with no numpy warning."""
    prof = RabiProfile(b=165.874, c=103.876, x0=0.16455)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(rabi_eval(prof, [-1e300, -1e200, -40.0, 40.0, 1e200, 1e300]) == 0.0)
        lobes = _rabi([prof], [-1e100, -40.0, 40.0, 1e100])[1][:, 0]
        assert np.all(rabi_gradient(prof, lobes) == 0.0)


def test_rabi_invalid_width():
    with pytest.raises(ValueError):
        RabiProfile(b=1.0, c=1.0, w=0.0)


def test_velocity_to_energy():
    assert velocity_to_energy(8.0) == 32.0
    assert velocity_to_energy(0.0) == 0.0
    assert velocity_to_energy(1.0) == 0.5
    with pytest.raises(ValueError, match=r"velocity must be >= 0, got -1\.0"):
        velocity_to_energy(-1.0)
    # 0.5 v^2 rounds to 0: E = 0 would be blamed on a threshold, not on v
    for v in (1e-300, 2e-162):
        with pytest.raises(ValueError, match=f"^velocity {v} is so small that its energy"):
            velocity_to_energy(v)
    assert 0.0 < velocity_to_energy(1e-155) < 2.3e-308  # subnormal, kept


def test_default_grid_symmetric():
    g = default_grid()
    assert g.symmetric
    assert g.n == 2001


FINITE = st.floats(min_value=-1e6, max_value=1e6)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@given(x_min=FINITE, width=st.floats(min_value=1e-3, max_value=1e3),
       n=st.integers(min_value=3, max_value=50))
def test_grid_accepts_finite_range(x_min, width, n):
    g = make_grid(x_min, x_min + width, n)
    assert len(g.points) == n and np.all(np.isfinite(g.points))


@given(end=FINITE, bad=NON_FINITE, bad_is_min=st.booleans())
def test_grid_rejects_non_finite_end(end, bad, bad_is_min):
    ends = (bad, end) if bad_is_min else (end, bad)
    with pytest.raises(GridError):
        make_grid(*ends, 11)


@given(b=FINITE, c=FINITE, x0=FINITE, w=st.floats(min_value=1e-3, max_value=10.0))
def test_rabi_profile_accepts_finite_fields(b, c, x0, w):
    assert RabiProfile(b=b, c=c, x0=x0, w=w).w == w


@given(b=FINITE, c=FINITE, x0=FINITE, w=st.floats(min_value=1e-3, max_value=10.0),
       field=st.sampled_from(["b", "c", "x0", "w"]), bad=NON_FINITE)
def test_rabi_profile_rejects_non_finite_field(b, c, x0, w, field, bad):
    fields = {"b": b, "c": c, "x0": x0, "w": w, field: bad}
    with pytest.raises(ValueError):
        RabiProfile(**fields)


@given(v=st.floats(min_value=0.0, max_value=1e100))
def test_velocity_to_energy_finite(v):
    if v > 0 and 0.5 * v * v == 0.0:
        with pytest.raises(ValueError, match=f"^velocity {v} is so small"):
            velocity_to_energy(v)
    else:
        assert velocity_to_energy(v) == 0.5 * v * v


@given(bad=NON_FINITE)
def test_velocity_to_energy_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        velocity_to_energy(bad)


@pytest.mark.parametrize("h", [1e-3, 0.375, 1.5])
def test_resolution_floor_is_kh_sqrt6(h):
    """Numerov's cos Kh = (1 - 5t/12)/(1 + t/12), t = (kh)^2, is -1 at
    kh = sqrt(6): at or above it no open wave propagates, and the check
    raises before it warns."""
    floor = math.sqrt(6.0)
    for kh in (floor, math.nextafter(floor, 10.0), 3.0, 1e3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(GridError, match="sqrt\\(6\\)"):
                check_resolution(kh / h, h)
    with pytest.warns(ResolutionWarning):
        check_resolution(math.nextafter(floor, 0.0) / h, h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        check_resolution(2.0 * math.pi / (20.0 * h), h)
