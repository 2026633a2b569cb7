import cmath
import dataclasses
import itertools
import warnings

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import zgbtrf, zgbtrs
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

import demonscatter.local_solver as local_solver
from demonscatter.channels import (
    ChannelSet,
    SMatrix,
    branch_sqrt,
    extract_channel,
    kinematics,
    unitarity_defect,
)
from demonscatter.errors import (
    GridError,
    ModelError,
    NonPositiveEnergyError,
    ResolutionWarning,
    SolverError,
    ThresholdSingularityError,
)
from demonscatter.demon import sweep_demon
from demonscatter.local_solver import (
    LocalPotentialModel,
    _assemble,
    _bloch,
    build_two_level_model,
    solve_channel,
    solve_channel_jacobian,
    solve_local,
    two_level_derivatives,
)
from demonscatter.optimize import PAPER_POINT, PARAM_BOX, design_grid
from demonscatter.units import (SUPPORT_REL, RabiProfile, _rabi, default_grid, make_grid,
                                rabi_eval)

from oracles import (PAPER_DELTA, PAPER_PROFILE, conjugated, flipped, ode_smatrix, port_smatrix,
                     transposed)


def barrier_model(v0, width, n, half_box=1.5):
    """Rectangular barrier with edges on grid nodes (half-value there)."""
    grid = make_grid(-half_box, half_box, n)
    V = np.zeros((n, 1, 1))
    inner = np.abs(grid.points) < width / 2 - 1e-12
    edge = np.isclose(np.abs(grid.points), width / 2)
    V[inner, 0, 0] = v0
    V[edge, 0, 0] = v0 / 2
    return LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V)


def barrier_t2_exact(v0, width, E):
    """Closed-form |T|^2 in arbitrary precision."""
    with mpmath.workdps(40):
        E, v0, a = mpmath.mpf(E), mpmath.mpf(v0), mpmath.mpf(width)
        if E == v0:
            # removable singularity: sin(kp a)/kp -> a
            val = 1 / (1 + v0 * a**2 / 2)
        elif E < v0:
            kappa = mpmath.sqrt(2 * (v0 - E))
            s = mpmath.sinh(kappa * a)
            val = 1 / (1 + v0**2 * s**2 / (4 * E * (v0 - E)))
        else:
            kp = mpmath.sqrt(2 * (E - v0))
            s = mpmath.sin(kp * a)
            val = 1 / (1 + v0**2 * s**2 / (4 * E * (E - v0)))
        return float(val)


def random_hermitian_model(rng, grid, nch=None):
    """Hermitian model of Gaussian bumps, real thresholds in [-5, 5).

    nch channels, or a random 2 or 3 when nch is None.
    """
    x = grid.points
    env = np.exp(-((x / 0.6) ** 6))
    env[np.abs(x) > 1.45] = 0.0
    if nch is None:
        nch = int(rng.integers(2, 4))
    V = np.zeros((grid.n, nch, nch), dtype=complex)
    for a in range(nch):
        for b in range(a, nch):
            cx = rng.uniform(-0.5, 0.5)
            w = rng.uniform(0.2, 0.5)
            amp = rng.normal() * 5 + (1j * rng.normal() * 5 if b != a else 0)
            bump = amp * np.exp(-(((x - cx) / w) ** 2)) * env
            V[:, a, b] += bump
            if b != a:
                V[:, b, a] += np.conj(bump)
    thresholds = tuple(sorted(rng.uniform(-5.0, 5.0, nch)))
    return LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=thresholds), V=V
    )


def coo_numerov_matrix(model, E, nodes=None):
    """Numerov system on the nodes [lo, hi) (default: the whole grid)
    assembled from COO triplets, and the Bloch factors.

    The sparse assembly that the band-storage one replaced, kept as its
    oracle.
    """
    grid, channels = model.grid, model.channels
    lo, hi = nodes or (0, grid.n)
    n, nch, h = hi - lo, channels.n_channels, grid.spacing
    eps = np.array(channels.thresholds, dtype=complex)
    W = 2.0 * model.V[lo:hi] + (2.0 * (eps - E))[None, :, None] * np.eye(nch)[None, :, :]
    eye = np.eye(nch, dtype=complex)
    P = eye[None, :, :] - (h * h / 12.0) * W
    Q = -(2.0 * eye[None, :, :] + (10.0 * h * h / 12.0) * W)
    lam = _bloch(branch_sqrt(2.0 * (E - eps)), h)[0]

    rows, cols, data = [], [], []
    m = np.arange(1, n - 1)
    a_idx, b_idx = np.meshgrid(np.arange(nch), np.arange(nch), indexing="ij")
    for shift, blocks in ((-1, P[m - 1]), (0, Q[m]), (1, P[m + 1])):
        rows.append((m[:, None, None] * nch + a_idx[None, :, :]).ravel())
        cols.append(((m + shift)[:, None, None] * nch + b_idx[None, :, :]).ravel())
        data.append(blocks.ravel())
    j = np.arange(nch)
    top = (n - 1) * nch
    for r, c, d in ((j, nch + j, np.ones(nch)), (j, j, -1.0 / lam),
                    (top + j, top - nch + j, np.ones(nch)), (top + j, top + j, -1.0 / lam)):
        rows.append(r)
        cols.append(c)
        data.append(np.asarray(d, dtype=complex))
    A = csc_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n * nch, n * nch),
    )
    return A, lam


def superlu_smatrix(model, E):
    """S-matrix of the COO system factored by SuperLU (oracle, as above)."""
    grid, eps = model.grid, np.array(model.channels.thresholds, dtype=complex)
    n, nch = grid.n, len(eps)
    top = (n - 1) * nch
    A, lam = coo_numerov_matrix(model, E)
    k = branch_sqrt(2.0 * (E - eps))
    open_idx = np.flatnonzero((eps.imag == 0.0) & (E > eps.real))
    k_open = k[open_idx].real
    n_open = len(open_idx)
    B = np.zeros((n * nch, 2 * n_open), dtype=complex)
    src = (lam[open_idx] - 1.0 / lam[open_idx]) / np.sqrt(k_open)
    for col, (i, s) in enumerate(zip(open_idx, src)):
        B[i, col] = s
        B[top + i, n_open + col] = s
    psi = splu(A).solve(B).reshape(n, nch, 2 * n_open)

    left, right = psi[0][open_idx], psi[n - 1][open_idx]
    incident = np.diag(1.0 / np.sqrt(k_open))
    sqrt_k = np.sqrt(k_open)[:, None]
    ph_left = np.exp(1j * k_open * grid.x_min)
    ph_right = np.exp(-1j * k_open * grid.x_max)
    return SMatrix(
        T=right[:, :n_open] * sqrt_k * ph_right[:, None] * ph_left[None, :],
        R=(left[:, :n_open] - incident) * sqrt_k * ph_left[:, None] * ph_left[None, :],
        Tt=left[:, n_open:] * sqrt_k * ph_left[:, None] * ph_right[None, :],
        Rt=(right[:, n_open:] - incident) * sqrt_k * ph_right[:, None] * ph_right[None, :],
    )


def test_free_particle():
    grid = make_grid(-1.5, 1.5, 501)
    model = LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)),
        V=np.zeros((501, 1, 1)),
    )
    a = extract_channel(solve_local(model, 8.0).S, 0)
    assert a.T == pytest.approx(1.0, abs=1e-8)
    assert abs(a.R) < 1e-10
    assert a.Tt == pytest.approx(1.0, abs=1e-8)
    assert abs(a.Rt) < 1e-10


def test_barrier_matches_analytic():
    model = barrier_model(10.0, 1.0, 3001)
    for E in (2.0, 8.0, 15.0, 40.0):
        sol = solve_local(model, E)
        t2 = abs(extract_channel(sol.S, 0).T) ** 2
        assert t2 == pytest.approx(barrier_t2_exact(10.0, 1.0, E), abs=1e-6)


def test_barrier_unitarity():
    model = barrier_model(10.0, 1.0, 2001)
    sol = solve_local(model, 8.0)
    assert sol.unitarity_defect < 1e-6


def test_convergence_sweep_barrier():
    t2_exact = barrier_t2_exact(10.0, 1.0, 8.0)
    errs = []
    for n in (751, 1501, 3001):
        t = extract_channel(solve_local(barrier_model(10.0, 1.0, n), 8.0).S, 0).T
        errs.append(abs(abs(t) ** 2 - t2_exact))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_two_level_zero_coupling_is_free():
    model = build_two_level_model(RabiProfile(b=0.0, c=0.0), 91.211)
    assert np.all(model.V == 0)
    a = extract_channel(solve_local(model, 32.0).S, 0)
    assert abs(a.T) == pytest.approx(1.0, abs=1e-8)
    assert abs(a.R) < 1e-8


def test_two_level_hermitian_iff_gamma_zero():
    herm = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    assert herm.hermitian_flag
    lossy = build_two_level_model(PAPER_PROFILE, PAPER_DELTA, gamma=1.0)
    assert not lossy.hermitian_flag


def test_hermitian_flag_cannot_be_declared():
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    for flag in (True, False, None):
        with pytest.raises(TypeError):
            LocalPotentialModel(grid=model.grid, channels=model.channels,
                                V=model.V, hermitian_flag=flag)


def test_hermitian_flag_is_derived_from_the_samples():
    rng = np.random.default_rng(17)
    grid = make_grid(-1.5, 1.5, 301)
    for _ in range(5):
        model = random_hermitian_model(rng, grid)
        assert model.hermitian_flag is True
        nch = model.channels.n_channels
        lossy = tuple(model.channels.thresholds[:-1]) + (
            model.channels.thresholds[-1] - 0.5j,
        )
        assert LocalPotentialModel(
            grid=grid, channels=ChannelSet(thresholds=lossy), V=model.V
        ).hermitian_flag is False
        V = model.V.copy()
        V[:, 0, nch - 1] *= 1.0 + 1e-6  # V != V^H, thresholds still real
        assert LocalPotentialModel(
            grid=grid, channels=model.channels, V=V
        ).hermitian_flag is False


def test_model_fields_cannot_be_reassigned():
    model = random_hermitian_model(np.random.default_rng(4), make_grid(-1.5, 1.5, 101), 2)
    for name, value in (("V", model.V * 1e6), ("hermitian_flag", False),
                        ("channels", model.channels), ("grid", model.grid)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, name, value)
    assert model.hermitian_flag is True


def test_model_samples_are_a_read_only_view_of_the_callers_array():
    V0 = random_hermitian_model(np.random.default_rng(4), make_grid(-1.5, 1.5, 101), 2).V.copy()
    model = LocalPotentialModel(grid=make_grid(-1.5, 1.5, 101),
                                channels=ChannelSet(thresholds=(0.0, 1.0)), V=V0)
    with pytest.raises(ValueError):
        model.V[0] = 1
    assert np.shares_memory(model.V, V0)  # no copy made
    assert V0.flags.writeable             # and the caller's array is untouched


def test_paper_model_half_demon_values():
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    sol = solve_local(model, 32.0)
    t2, r2, tt2, rt2 = extract_channel(sol.S, 0).probabilities
    assert t2 == pytest.approx(0.5, abs=0.02)
    assert r2 <= 0.02
    assert tt2 <= 0.02
    assert rt2 == pytest.approx(0.5, abs=0.03)
    assert sol.unitarity_defect < 1e-6


def test_paper_model_self_convergence():
    probs = []
    for n in (1001, 2001, 4001):
        model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA, grid=make_grid(-1.5, 1.5, n))
        probs.append(np.abs(solve_local(model, 32.0).S.full()) ** 2)
    diffs = [np.max(np.abs(b - a)) for a, b in zip(probs, probs[1:])]
    assert all(d < 1e-3 for d in diffs)


def test_random_hermitian_models_unitary():
    rng = np.random.default_rng(17)
    grid = make_grid(-1.5, 1.5, 1501)
    for _ in range(5):
        sol = solve_local(random_hermitian_model(rng, grid), 30.0)
        assert sol.unitarity_defect < 1e-6


def test_parity_symmetric_model():
    # even coupling profile: |T| = |Tt| and |R| = |Rt|
    prof = RabiProfile(b=0.0, c=150.0, x0=0.0)
    model = build_two_level_model(prof, 91.211)
    a = extract_channel(solve_local(model, 32.0).S, 0)
    assert abs(a.T) == pytest.approx(abs(a.Tt), abs=1e-6)
    assert abs(a.R) == pytest.approx(abs(a.Rt), abs=1e-6)


def test_end_decay_enforced():
    grid = make_grid(-1.5, 1.5, 101)
    V = np.ones((101, 1, 1))
    with pytest.raises(ModelError):
        LocalPotentialModel(
            grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V
        )


@pytest.mark.parametrize("shape", [(100, 1, 1), (101, 2, 2), (101, 1)],
                         ids=["short", "two-channel", "no-channel-axes"])
def test_potential_of_the_wrong_shape_rejected(shape):
    with pytest.raises(ModelError, match=r"^V must have shape \(101, 1, 1\), got "):
        LocalPotentialModel(grid=make_grid(-1.5, 1.5, 101),
                            channels=ChannelSet(thresholds=(0.0,)), V=np.zeros(shape))


def test_non_finite_potential_rejected():
    grid = make_grid(-1.5, 1.5, 101)
    V = np.zeros((101, 1, 1), dtype=complex)
    V[50] = np.nan
    with pytest.raises(ModelError):
        LocalPotentialModel(
            grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V
        )


def test_resolution_warning():
    model = barrier_model(10.0, 1.0, 101)
    with pytest.warns(ResolutionWarning):
        solve_local(model, 800.0)


def bloch_reference(k, h):
    """(lambda, s, g) of the free Numerov dispersion in 60-digit arithmetic,
    from its textbook form: lambda is the root of lambda^2 - 2 c lambda + 1
    inside the unit circle, or with Im lambda > 0 on it, s = (lambda - c)/i,
    and g = d(-1/lambda)/d eps by a central difference (dy/d eps = 2 h^2)."""
    with mpmath.workdps(60):
        k, h = mpmath.mpc(k), mpmath.mpf(h)

        def root(y):
            c = (1 + 5 * y / 12) / (1 - y / 12)
            r = mpmath.sqrt(c * c - 1)
            if abs(abs(c + r) - 1) < mpmath.mpf(10) ** -45:  # both on the circle
                return c + r if (c + r).imag > 0 else c - r
            return c + r if abs(c + r) < 1 else c - r

        y = -(k * h) ** 2
        lam = root(y)
        c = (1 + 5 * y / 12) / (1 - y / 12)
        step = mpmath.mpf(10) ** -15 * abs(k) ** 2
        g = (1 / root(y - 2 * h * h * step) - 1 / root(y + 2 * h * h * step)) / (2 * step)
        return complex(lam), complex((lam - c) / 1j), complex(g)


@pytest.mark.parametrize("kh", [1e-9, 1e-6, 1e-3, 0.1, 1.0, 2.0])
@pytest.mark.parametrize("kind", ["open", "closed", "lossy-0.3", "lossy-0.8", "lossy-1.3"])
def test_bloch_matches_mpmath(kind, kh):
    """lambda, sin Kh and d(-1/lambda)/d eps to 1e-14 relative, from
    threshold (kh = 1e-9, where c rounds to 1) to kh = 2."""
    h = 3.0 / 2000
    if kind == "open":
        k = kh / h + 0j
    elif kind == "closed":
        k = 1j * kh / h
    else:
        k = kh / h * cmath.exp(1j * float(kind.split("-")[1]))
    got = _bloch(np.array([k]), h)
    for value, ref in zip(got, bloch_reference(k, h)):
        assert abs(complex(value[0]) - ref) <= 1e-14 * abs(ref)


def test_bloch_root_is_outgoing_or_decaying():
    h = 3.0 / 2000
    k = np.geomspace(1e-9, 2.0, 400) / h
    lam, s, _g = _bloch(k + 0j, h)
    # open: on the unit circle to rounding, moving away from the boundary
    assert np.all(np.abs(np.abs(lam) - 1.0) <= 2 * np.finfo(float).eps)
    assert np.all(lam.imag > 0) and np.array_equal(lam.imag, s.real)
    # closed (either sign of k, and as kinematics makes it) and lossy: inside
    for kk in (1j * k, -1j * k, branch_sqrt(-k * k + 0j), k * cmath.exp(0.3j), k * 1j ** 0.9):
        assert np.all(np.abs(_bloch(kk, h)[0]) < 1.0)


@pytest.mark.parametrize("seed", [1, 3])
def test_unitary_just_above_a_threshold(seed):
    """Just above eps_1, (k h)^2 is far below the rounding of c = cos Kh."""
    model = random_hermitian_model(np.random.default_rng(seed), make_grid(-1.5, 1.5, 601), 3)
    eps1 = model.channels.thresholds[1]
    for offset in (1e-12, 1e-9, 1e-6, 1e-3):
        sol = solve_local(model, eps1 + offset)
        assert sol.S.n_open == 2
        assert sol.unitarity_defect <= 1e-10, offset


def oracle_cases():
    """The 100 models of acceptance criterion 4, the paper point, and the
    paper profile with a lossy (closed) excited channel."""
    rng = np.random.default_rng(11)
    grid = make_grid(-1.5, 1.5, 2001)
    cases = [(random_hermitian_model(rng, grid), 30.0) for _ in range(100)]
    cases.append((build_two_level_model(PAPER_PROFILE, PAPER_DELTA), 32.0))
    cases.append((build_two_level_model(PAPER_PROFILE, PAPER_DELTA, gamma=3.0), 32.0))
    return cases


def test_matches_superlu_oracle():
    worst = 0.0
    for model, E in oracle_cases():
        S = solve_local(model, E).S.full()
        worst = max(worst, np.max(np.abs(S - superlu_smatrix(model, E).full())))
    assert worst <= 1e-9


def test_band_storage_matches_coo_matrix():
    # seed 3 draws a 3-channel model: band width u = 5
    model = random_hermitian_model(np.random.default_rng(3), make_grid(-1.5, 1.5, 41))
    assert model.support != (0, 41)
    u, ab, _ends, (lam, _s, _g) = _assemble([model], 30.0, kinematics(model.channels, 30.0)[0][None],
                                             [model.support])
    A, lam_ref = coo_numerov_matrix(model, 30.0, model.support)
    A = A.toarray()
    i, j = np.indices(A.shape)
    inside = np.abs(i - j) <= u
    assert np.array_equal(ab[(2 * u + i - j)[inside], j[inside]], A[inside])
    assert not A[~inside].any()
    assert not ab[:u].any()  # zgbtrf's fill-in rows start empty
    assert np.array_equal(lam[0], lam_ref)


def solve_banded_solution(model, E, nodes):
    """S-matrix and defect of one solve_banded call on all 2 n_open
    incidences, with the Numerov system on the nodes [lo, hi) and the Bloch
    phases lambda^lo (left) and lambda^(n - hi) (right) carrying its end
    values to the grid's ends.

    The solve that the factor and back-substitution steps replaced, kept as
    their oracle.  _assemble's rows u..3u are solve_banded's band storage.
    """
    grid, channels = model.grid, model.channels
    (lo, hi), nch = nodes, channels.n_channels
    n = hi - lo
    k, open_idx = kinematics(channels, E)
    k_open = k[open_idx].real
    u, ab, _ends, ((lam,), (sin_kh,), _g) = _assemble([model], E, k[None], [nodes])
    n_open = len(open_idx)
    f_left, f_right = lam[open_idx] ** np.array([[lo], [grid.n - hi]])
    B = np.zeros((n * nch, 2 * n_open), dtype=complex)
    src = 2j * sin_kh[open_idx] / np.sqrt(k_open)  # lambda - 1/lambda
    for col, (i, s) in enumerate(zip(open_idx, src)):
        B[i, col] = s * f_left[col]
        B[(n - 1) * nch + i, n_open + col] = s * f_right[col]
    psi = solve_banded((u, u), ab[u:], B).reshape(n, nch, 2 * n_open)
    left, right = psi[0][open_idx], psi[n - 1][open_idx]
    incident = 1.0 / np.sqrt(k_open)
    sqrt_k = np.sqrt(k_open)[:, None]
    ph_left = np.exp(1j * k_open * grid.x_min)
    ph_right = np.exp(-1j * k_open * grid.x_max)
    S = SMatrix(
        T=right[:, :n_open] * sqrt_k * (ph_right * f_right)[:, None] * ph_left[None, :],
        R=((left[:, :n_open] - np.diag(incident * f_left)) * sqrt_k
           * (ph_left * f_left)[:, None] * ph_left[None, :]),
        Tt=left[:, n_open:] * sqrt_k * (ph_left * f_left)[:, None] * ph_right[None, :],
        Rt=((right[:, n_open:] - np.diag(incident * f_right)) * sqrt_k
            * (ph_right * f_right)[:, None] * ph_right[None, :]),
    )
    return S, (unitarity_defect(S) if model.hermitian_flag else float("nan"))


def full_grid_solve(model, E):
    """solve_local's S-matrix and defect with the Numerov system on the whole
    grid: the arithmetic that the solve on the support replaced, kept as its
    oracle."""
    return solve_banded_solution(model, E, (0, model.grid.n))


def test_factor_and_back_substitution_match_solve_banded_bit_for_bit():
    # all 102 systems have 2 or 3 channels, so solve_banded takes its
    # general banded (gbsv) path, not the tridiagonal one
    for model, E in oracle_cases():
        sol = solve_local(model, E)
        S, defect = solve_banded_solution(model, E, model.support)
        assert np.array_equal(sol.S.full(), S.full())
        assert np.array_equal(sol.unitarity_defect, defect, equal_nan=True)


def with_lossy_last_channel(model):
    """The model with -1.5i added to its highest threshold: that channel is
    closed and the model is no longer Hermitian."""
    eps = model.channels.thresholds
    channels = ChannelSet(thresholds=eps[:-1] + (eps[-1] - 1.5j,))
    return LocalPotentialModel(grid=model.grid, channels=channels, V=model.V)


def test_solve_channel_matches_full_smatrix_channel_0():
    rng = np.random.default_rng(23)
    grid = make_grid(-1.5, 1.5, 801)
    n_closed = n_lossy = 0
    for nch in (1, 2, 3, 4):
        for _ in range(3):
            model = random_hermitian_model(rng, grid, nch)
            models = [model] + ([with_lossy_last_channel(model)] if nch > 1 else [])
            for m in models:
                # all channels open at E = 30; only the lowest just above it
                for E in (30.0, min(e.real for e in m.channels.thresholds) + 0.1):
                    S = solve_local(m, E).S
                    n_closed += S.n_open < nch
                    n_lossy += not m.hermitian_flag
                    assert solve_channel(m, E) == extract_channel(S, 0)
    assert n_closed >= 20 and n_lossy == 18


def test_a_stack_of_draws_is_one_lapack_pair(monkeypatch):
    """_solve_channels factors a stack of ten two-level draws with one zgbtrf
    and back-substitutes it with one zgbtrs, since the members' systems are one
    block-diagonal band, and gives each draw solve_channel's bits."""
    points = PARAM_BOX[:, 0] + np.random.default_rng(11).random((10, 4)) * np.ptp(PARAM_BOX, axis=1)
    models = [build_two_level_model(RabiProfile(*p[:3]), p[3]) for p in points]
    alone = [solve_channel(model, 32.0) for model in models]
    calls = []

    def recording(name):
        real = getattr(local_solver, name)

        def call(*args, **kw):
            calls.append(name)
            return real(*args, **kw)
        return call

    for name in ("zgbtrf", "zgbtrs"):
        monkeypatch.setattr(local_solver, name, recording(name))
    assert local_solver._solve_channels(models, 32.0) == alone
    assert calls == ["zgbtrf", "zgbtrs"]


@pytest.mark.parametrize("nch", [3, 4])
def test_stack_members_get_the_bits_of_their_own_solve(nch):
    """Stacks of 2 to 7 random models of different supports, each Hermitian,
    non-Hermitian or lossy, whose open channels at E differ from member to
    member: _solve_channels gives each member solve_channel's bits alone (the
    one zgbtrf and zgbtrs of the block-diagonal band are each member's own)."""
    rng = np.random.default_rng(70 + nch)
    grid, E = make_grid(-1.5, 1.5, 301), 4.0
    open_sets, supports = set(), set()
    for size in range(2, 8):
        models = []
        for _ in range(size):
            thresholds = (0.0, *sorted(rng.uniform(-5.0, 10.0, nch - 1)))
            base = LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds),
                                       V=random_hermitian_model(rng, grid, nch).V)
            variants = (base, with_non_hermitian_coupling(base, rng), with_lossy_last_channel(base))
            models.append(variants[rng.integers(3)])
            open_sets.add(tuple(kinematics(models[-1].channels, E)[1]))
            supports.add(models[-1].support)
        assert local_solver._solve_channels(models, E) == [solve_channel(m, E) for m in models]
    assert len(open_sets) > 2 and len(supports) > 10


def physics_cases(n):
    """Twelve random local models on the default box at n nodes, nch 2 to 4:
    the odd ones non-Hermitian, every fourth with a lossy last channel.  The
    same seeds give the same models at any n."""
    box = default_grid()
    for seed in range(12):
        rng = np.random.default_rng(90 + seed)
        model = random_hermitian_model(rng, make_grid(box.x_min, box.x_max, n), 2 + seed % 3)
        model = with_non_hermitian_coupling(model, rng) if seed % 2 else model
        yield with_lossy_last_channel(model) if seed % 4 == 3 else model


def test_mirrored_and_conjugated_models_give_their_smatrix_relations():
    """Every entry of S in port order against the exact relations of the
    discrete system, at E = 30 above every threshold: the mirrored model
    V(-x) gives P S P, P swapping the two ends, and the conjugated model V*
    (real thresholds only) gives (S*)^-1.  Each gap was ~1e-13."""
    E, lossy = 30.0, 0
    for model in physics_cases(601):
        S = port_smatrix(solve_local(model, E).S)
        P = np.roll(np.eye(len(S)), len(S) // 2, axis=0)
        assert np.max(np.abs(port_smatrix(solve_local(flipped(model), E).S) - P @ S @ P)) <= 1e-10
        if all(e.imag == 0 for e in model.channels.thresholds):
            gap = port_smatrix(solve_local(conjugated(model), E).S) - np.linalg.inv(S.conj())
            assert np.max(np.abs(gap)) <= 1e-10
        else:
            lossy += 1
    assert lossy == 3


def test_transposed_model_gives_the_transposed_smatrix_to_fourth_order():
    """The transposed model V^T gives S^T only up to Numerov's O(h^4): the
    largest gap over the models falls by >= 12 (16 for h^4) from n = 601 to
    n = 1201, and at n = 601 it stays below 3e-8, 3.5 times the 8.4e-9
    measured."""
    E, gaps = 30.0, []
    for n in (601, 1201):
        gaps.append(max(np.max(np.abs(port_smatrix(solve_local(transposed(model), E).S)
                                      - port_smatrix(solve_local(model, E).S).T))
                        for model in physics_cases(n)))
    assert gaps[0] <= 3e-8 and gaps[0] >= 12.0 * gaps[1], gaps


def paper_coupling(x):
    """build_two_level_model's V at PAPER_POINT in closed form: the coupling
    Omega(-x)/2 and its conjugate, Omega(x) = -i b g(x + x0) + c g(x - x0)."""
    p = PAPER_PROFILE
    omega = -1j * p.b * np.exp(-((p.x0 - x) / p.w) ** 2) + p.c * np.exp(-((-x - p.x0) / p.w) ** 2)
    return np.array([[0.0, omega / 2.0], [np.conj(omega) / 2.0, 0.0]])


def test_criterion_1_model_matches_the_ode_oracle():
    """Criterion 1's S on the default grid against the adaptive integration of
    its continuous equations, which shares no code with the Numerov solve
    (3.0e-8 measured); channel 0's four probabilities agree to 1e-6."""
    S = solve_local(build_two_level_model(PAPER_PROFILE, PAPER_DELTA), 32.0).S
    grid = default_grid()
    exact = ode_smatrix(paper_coupling, (0.0, -PAPER_DELTA), 32.0, grid.x_min, grid.x_max)
    assert np.max(np.abs(S.full() - exact.full())) <= 1e-7
    assert np.allclose(extract_channel(S, 0).probabilities,
                       extract_channel(exact, 0).probabilities, rtol=0.0, atol=1e-6)


def gaussian_model(rng, nch, non_hermitian):
    """random_hermitian_model's Gaussian bumps (without its cut at |x| > 1.45,
    where the envelope is e^-198) as (V, thresholds), V(x) in closed form;
    non_hermitian adds a bump to V_0,nch-1 alone, as with_non_hermitian_coupling."""
    # bump i is M[i] exp(-((x - cx[i]) / w[i])^2) times the envelope
    M, cx, w = [], [], []
    for a in range(nch):
        for b in range(a, nch):
            cx.append(rng.uniform(-0.5, 0.5))
            w.append(rng.uniform(0.2, 0.5))
            M.append(np.zeros((nch, nch), dtype=complex))
            M[-1][a, b] = rng.normal() * 5 + (1j * rng.normal() * 5 if b != a else 0)
            M[-1][b, a] = np.conj(M[-1][a, b])
    thresholds = tuple(sorted(rng.uniform(-5.0, 5.0, nch)))
    if non_hermitian:
        M.append(np.zeros((nch, nch), dtype=complex))
        M[-1][0, nch - 1] = (rng.normal() + 1j * rng.normal()) * 3.0
        cx.append(0.0)
        w.append(0.25)
    M, cx, w = np.array(M).reshape(len(M), -1), np.array(cx), np.array(w)

    def V(x):
        x = np.asarray(x, dtype=float)[..., None]
        return (np.exp(-(((x - cx) / w) ** 2) - (x / 0.6) ** 6) @ M).reshape(x.shape[:-1] + (nch, nch))

    return V, thresholds


def test_random_models_match_the_ode_oracle_to_fourth_order():
    """Every entry of S for six Gaussian models (nch 2, 3, 4, twice; the
    second three with non-Hermitian coupling) at E = eps_0 + U(1, 12), one
    with a closed channel, against the adaptive integration of their
    continuous equations: below 3e-8 at n = 601 (1.4e-9 to 8.7e-9 measured),
    and falling by >= 12 (16 for h^4) to n = 1201 on every draw."""
    rng = np.random.default_rng(2036)
    box, closed = default_grid(), 0
    for i, nch in enumerate((2, 3, 4, 2, 3, 4)):
        V, thresholds = gaussian_model(rng, nch, non_hermitian=i >= 3)
        E = thresholds[0] + rng.uniform(1.0, 12.0)
        exact = ode_smatrix(V, thresholds, E, box.x_min, box.x_max).full()
        gaps = []
        for n in (601, 1201):
            grid = make_grid(box.x_min, box.x_max, n)
            model = LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds), V=V(grid.points))
            gaps.append(np.max(np.abs(solve_local(model, E).S.full() - exact)))
        assert gaps[0] <= 3e-8 and gaps[0] >= 12.0 * gaps[1], (i, gaps)
        closed += len(exact) < 2 * nch
    assert closed > 0


@pytest.mark.parametrize("entries, support", [
    ({50: 1.0}, (48, 53)),
    ({40: 2.0, 60: 1j}, (38, 63)),                      # V_01 at 40, V_10 at 60
    ({50: 1.0, 30: SUPPORT_REL}, (48, 53)),             # at SUPPORT_REL vmax: off
    ({50: 1.0, 30: np.nextafter(SUPPORT_REL, 1.0)}, (28, 53)),
    ({1: 1.0, 98: 1.0}, (0, 101)),                      # clipped to the grid
    ({50: 1.0, 0: 1e-13, 100: 1e-13}, (0, 101)),        # ends above SUPPORT_REL vmax
    ({}, (0, 101)),                                     # zero V: the whole grid
])
def test_support_covers_the_nodes_above_support_rel(entries, support):
    """The hull of the nodes whose max_ab |V_ab| exceeds SUPPORT_REL vmax,
    widened by 2 nodes on the left and 3 on the right, within the grid."""
    V = np.zeros((101, 2, 2), dtype=complex)
    for i, (node, value) in enumerate(entries.items()):
        V[node, i % 2, 1 - i % 2] = value
    model = LocalPotentialModel(grid=make_grid(-1.5, 1.5, 101),
                                channels=ChannelSet(thresholds=(0.0, 1.0)), V=V)
    assert model.support == support


def test_solve_on_a_whole_grid_support_is_the_full_grid_solve_bit_for_bit():
    """V above SUPPORT_REL vmax on both end nodes: the band is the whole grid,
    every Bloch phase is exactly 1, and the bits are the full-grid solve's
    (2 and 3 channels, as solve_banded's general banded path needs)."""
    rng = np.random.default_rng(13)
    grid = make_grid(-1.5, 1.5, 601)
    for nch in (2, 3):
        base = random_hermitian_model(rng, grid, nch)
        V = base.V.copy()
        V[[0, -1]] = 1e-13 * base.vmax * np.eye(nch)
        model = LocalPotentialModel(grid=grid, channels=base.channels, V=V)
        assert model.support == (0, grid.n)
        for m in (model, with_lossy_last_channel(model)):
            sol = solve_local(m, 30.0)
            S, defect = full_grid_solve(m, 30.0)
            assert np.array_equal(sol.S.full(), S.full())
            assert np.array_equal(sol.unitarity_defect, defect, equal_nan=True)


def test_solve_on_the_support_matches_the_full_grid_solve():
    """The 102 oracle cases, and on ten of their models: an energy with the
    upper channels closed, the lossy model, and 1e-9 and 1e-7 above each
    threshold.  Every band is shorter than the grid."""
    cases = oracle_cases()
    extra = []
    for model, _E in cases[:10]:
        eps = sorted(e.real for e in model.channels.thresholds)
        extra.append((model, eps[0] + 0.5))
        extra.append((with_lossy_last_channel(model), 30.0))
        extra += [(model, e + offset) for e in eps for offset in (1e-9, 1e-7)]
    assert sum(len(kinematics(m.channels, E)[1]) < m.channels.n_channels for m, E in extra) >= 20
    worst = 0.0
    for model, E in cases + extra:
        assert model.support != (0, model.grid.n)
        S = solve_local(model, E).S.full()
        worst = max(worst, np.max(np.abs(S - full_grid_solve(model, E)[0].full())))
    assert worst <= 1e-9


def test_solve_on_the_barrier_support_matches_the_full_grid_solve():
    """n = 9001, barrier edges on nodes 3000 and 6000: a third of the grid."""
    model = barrier_model(10.0, 1.0, 9001)
    assert model.support == (2998, 6003)
    for E in (1.0, 9.0, 10.0, 11.0, 32.0, 50.0):
        S = solve_local(model, E).S.full()
        assert np.max(np.abs(S - full_grid_solve(model, E)[0].full())) <= 1e-8, E


def test_paper_model_factors_only_its_support(monkeypatch):
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA)
    lo, hi = model.support
    assert hi - lo < 0.7 * model.grid.n
    shapes = []
    real_zgbtrf = local_solver.zgbtrf

    def recording(ab, *args, **kw):
        shapes.append(ab.shape)
        return real_zgbtrf(ab, *args, **kw)

    monkeypatch.setattr(local_solver, "zgbtrf", recording)
    solve_channel(model, 32.0)
    solve_local(model, 32.0)
    u = 2 * 2 - 1
    assert shapes == [(3 * u + 1, (hi - lo) * 2)] * 2


def test_closed_channel_0_is_rejected_before_factorization(monkeypatch):
    model = random_hermitian_model(np.random.default_rng(5), make_grid(-1.5, 1.5, 401), 3)
    eps = model.channels.thresholds
    E = eps[0].real + 0.1
    assert len(kinematics(model.channels, E)[1]) < 3
    # thresholds reversed: channel 0 is closed at E while the lowest one is open
    reversed_model = LocalPotentialModel(
        grid=model.grid, channels=ChannelSet(thresholds=eps[::-1]), V=model.V[:, ::-1, ::-1])
    factorizations = []
    monkeypatch.setattr(local_solver, "zgbtrf",
                        lambda *args, **kw: factorizations.append(args))
    for solve in (solve_local, solve_channel):
        with pytest.raises(NonPositiveEnergyError,
                           match=f"channel-0 threshold {eps[-1].real}, got E={E}"):
            solve(reversed_model, E)
    assert factorizations == []


def test_singular_factorization_raises_solver_error(monkeypatch):
    model = build_two_level_model(PAPER_PROFILE, PAPER_DELTA, grid=make_grid(-1.5, 1.5, 401))
    real_zgbtrf = local_solver.zgbtrf

    def singular(*args, **kw):
        lu, piv, _info = real_zgbtrf(*args, **kw)
        return lu, piv, 7  # as zgbtrf reports an exactly zero pivot U[6, 6]

    monkeypatch.setattr(local_solver, "zgbtrf", singular)
    for solve in (solve_local, solve_channel):
        with pytest.raises(SolverError, match="singular linear system"):
            solve(model, 32.0)


def test_non_finite_band_is_rejected():
    # finite samples whose Numerov band would overflow: W = 2 V = inf
    grid = make_grid(-1.5, 1.5, 101)
    V = np.zeros((101, 1, 1), dtype=complex)
    V[50] = 1e308
    model = LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V)
    for solve in (solve_local, solve_channel):
        with pytest.raises(ModelError, match="Numerov band would overflow"):
            solve(model, 8.0)


def overflowing_model(kind):
    """|V| = 1e308 inside the box, or a channel closed by 1e308."""
    grid = make_grid(-1.5, 1.5, 101)
    V = np.zeros((101, 2, 2), dtype=complex)
    if kind == "potential":
        V[50, 0, 1] = V[50, 1, 0] = 1e308
        return LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds=(0.0, 1.0)), V=V)
    V[40:60, 0, 1] = V[40:60, 1, 0] = 3.0
    return LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds=(0.0, 1e308)), V=V)


JACOBIAN_ARGS = ({(0, 1): np.ones((1, 101))}, np.zeros((1, 2)))


@pytest.mark.parametrize("solve", [
    solve_local, solve_channel, lambda m, E: solve_channel_jacobian(m, E, *JACOBIAN_ARGS),
    lambda m, E: sweep_demon(m, [4.0]),
], ids=["solve_local", "solve_channel", "solve_channel_jacobian", "sweep_demon"])
@pytest.mark.parametrize("kind", ["potential", "threshold"])
def test_overflow_fails_early_and_quietly(kind, solve, monkeypatch):
    """The scalar guards in _factor and kinematics (sweep_demon's pre-pass)
    reject the model before any band arithmetic, with no numpy
    RuntimeWarning on the way."""
    assembled = []
    monkeypatch.setattr(local_solver, "_assemble", lambda *args: assembled.append(args))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = overflowing_model(kind)
        with pytest.raises(ValueError):
            solve(model, 8.0)
    assert assembled == []


@pytest.mark.parametrize("kind, inside, outside", [
    ("potential", 1.0 - 1e-9, 1.0 + 1e-9),    # max(1, h^2) (vmax + e) / BAND_LIMIT
    ("closed", 6.0 * (1.0 - 1e-9), 6.0 * (1.0 + 1e-9)),   # (|k| h)^2 of channel 1
    ("far-closed", 24.0 * (1.0 + 1e-9), 24.0 * (1.0 - 1e-9)),
    ("lossy", 1e6, 12.0),
], ids=["potential", "closed", "far-closed", "lossy"])
def test_guard_admits_its_edge_with_a_finite_band(kind, inside, outside):
    """Just inside the guard of _factor every band entry is finite and every
    Bloch factor has |lambda| >= 1/27, as its docstring proves; just outside
    it the solve refuses.  Far above the window around |k| h = sqrt(12) a
    closed channel is solved, as before the guard."""
    grid = make_grid(-1.5, 1.5, 101)
    h2, E = grid.spacing ** 2, 8.0
    V = np.zeros((101, 2, 2), dtype=complex)
    V[40:60, 0, 1] = V[40:60, 1, 0] = 3.0

    def model(x):
        if kind == "potential":
            V[50, 0, 1] = V[50, 1, 0] = x * local_solver.BAND_LIMIT - 1.0
            return LocalPotentialModel(grid=grid, channels=ChannelSet((0.0, -1.0)), V=V)
        eps1 = E + x / (2.0 * h2) if kind != "lossy" else E - 1j * x / (2.0 * h2)
        return LocalPotentialModel(grid=grid, channels=ChannelSet((0.0, eps1)), V=V)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        admitted = model(inside)
        k, _open = kinematics(admitted.channels, E)
        _u, ab, _ends, (lam, _s, _g) = _assemble([admitted], E, k[None], [admitted.support])
        assert np.isfinite(ab).all() and np.all(np.abs(lam) >= 1.0 / 27.0)
        if kind != "potential":
            assert all(map(cmath.isfinite, solve_channel(admitted, E).probabilities))
        with pytest.raises(ModelError if kind == "potential" else GridError):
            solve_channel(model(outside), E)


def strided_band_assembly(model, E, k, nodes):
    """The band assembly that _assemble replaced, kept as its oracle: W, P
    and Q temporaries node by node, then one strided write per block entry,
    for the Numerov system on the nodes [lo, hi)."""
    grid, channels = model.grid, model.channels
    (lo, hi), nch = nodes, channels.n_channels
    n, h = hi - lo, grid.spacing
    eps = np.array(channels.thresholds, dtype=complex)
    W = 2.0 * model.V[lo:hi] + (2.0 * (eps - E))[None, :, None] * np.eye(nch)[None, :, :]
    eye = np.eye(nch, dtype=complex)
    P = eye[None, :, :] - (h * h / 12.0) * W
    Q = -(2.0 * eye[None, :, :] + (10.0 * h * h / 12.0) * W)
    u = 2 * nch - 1
    ab = np.zeros((3 * u + 1, n * nch), dtype=complex, order="F")
    for s, blocks in ((-1, P[:-2]), (0, Q[1:-1]), (1, P[2:])):
        for a in range(nch):
            for b in range(nch):
                start = (1 + s) * nch + b
                ab[2 * u + a - b - s * nch, start:start + (n - 2) * nch:nch] = blocks[:, a, b]
    top = (n - 1) * nch
    ab[2 * u - nch, nch:2 * nch] = 1.0
    ab[2 * u + nch, top - nch:top] = 1.0
    ab[2 * u, :nch] = ab[2 * u, top:] = -1.0 / _bloch(k, h)[0]
    return u, ab


def adjoint_reference(model, E, dV, deps, nodes):
    """solve_channel_jacobian's derivatives by the arithmetic it replaced
    (fancy-indexed end gathers, neighbour sums along the node axis), on the
    oracle band over the nodes [lo, hi), with channel 0's Bloch phases
    lambda^lo and lambda^(n - hi) at the two ends: kept as its oracle."""
    grid, nch = model.grid, model.channels.n_channels
    (lo, hi), h = nodes, grid.spacing
    n = hi - lo
    top = (n - 1) * nch
    k, _open = kinematics(model.channels, E)
    u, ab = strided_band_assembly(model, E, k, nodes)
    lam, s, g = _bloch(k, h)
    f_left, f_right = lam[0] ** np.array([lo, grid.n - hi])
    lu, piv, _info = zgbtrf(ab, u, u)
    B = np.zeros((n * nch, 2), dtype=complex, order="F")
    B[0, 0], B[top, 1] = 2j * s[0] / np.sqrt(k[0].real) * np.array([f_left, f_right])
    psi, _info = zgbtrs(lu, u, u, B, piv)
    e = np.zeros((n * nch, 2), dtype=complex, order="F")
    e[0, 0] = e[top, 1] = 1.0
    y, _info = zgbtrs(lu, u, u, e, piv, trans=1)
    y, psi = (np.ascontiguousarray(v.T.reshape(2, n, nch).transpose(0, 2, 1)) for v in (y, psi))
    deps = np.asarray(deps, dtype=complex)
    edges = y[:, :, [0, -1]].transpose(1, 0, 2) @ psi[:, :, [0, -1]].transpose(1, 2, 0)
    G = (deps * g) @ edges.reshape(nch, 4)
    y[:, :, [0, -1]] = 0.0
    Y = 10.0 * y
    Y[:, :, 1:] += y[:, :, :-1]
    Y[:, :, :-1] += y[:, :, 1:]
    interior = deps @ (Y.transpose(1, 0, 2) @ psi.transpose(1, 2, 0)).reshape(nch, 4)
    for (a, b), d in dV.items():
        interior += d[:, lo:hi] @ (Y[:, a, None] * psi[None, :, b]).reshape(4, n).T
    G -= (h * h / 6.0) * interior
    k0 = float(k[0].real)
    left, right = cmath.exp(1j * k0 * grid.x_min), cmath.exp(-1j * k0 * grid.x_max)
    left_end, right_end = left * f_left, right * f_right
    scale = np.sqrt(k0) * np.array([right_end * left, left_end * left, left_end * right,
                                    right_end * right])
    return -(G[:, [2, 0, 1, 3]] * scale).T


def derivatives(profile, grid):
    """two_level_derivatives of profile on grid, from its lobes there."""
    return two_level_derivatives(profile, _rabi([profile], -grid.points)[1][:, 0])


def with_non_hermitian_coupling(model, rng):
    """The model with a bump added to V_01 alone."""
    x = model.grid.points
    V = model.V.copy()
    V[:, 0, -1] += (rng.normal() + 1j * rng.normal()) * 3.0 * np.exp(-((x / 0.25) ** 2))
    return LocalPotentialModel(grid=model.grid, channels=model.channels, V=V)


@pytest.mark.parametrize("nch", [1, 2, 3, 4])
def test_band_and_adjoint_match_the_arithmetic_they_replaced(nch):
    """Each member's band of _assemble on a stack of the Hermitian,
    non-Hermitian and lossy models (the one buffer split at the members'
    end nodes) equals the oracle's (signed zeros aside), and the Jacobian matches the
    oracle's adjoint to 1e-14 relative, for each model, at E = 30 and just
    above thresholds, both on the model's support; dV moves V only where V
    is above SUPPORT_REL vmax."""
    rng = np.random.default_rng(40 + nch)
    grid = make_grid(-1.5, 1.5, 301)
    for _ in range(2):
        base = random_hermitian_model(rng, grid, nch)
        models = [base, with_non_hermitian_coupling(base, rng)]
        models += [with_lossy_last_channel(base)] if nch > 1 else []
        assert base.support != (0, grid.n)
        for model in models:
            moved = np.abs(model.V).max(axis=(1, 2)) > SUPPORT_REL * model.vmax
            eps = sorted(e.real for e in model.channels.thresholds if e.imag == 0)
            for E in (30.0, eps[0] + 1e-9, eps[-1] + 1e-7):
                k = np.array([kinematics(m.channels, E)[0] for m in models])
                ab, ends = _assemble(models, E, k, [m.support for m in models])[1:3]
                bands = [ab[:, i * nch:(j + 1) * nch] for i, j in ends]
                for m, k_m, band in zip(models, k, bands):
                    assert np.array_equal(band, strided_band_assembly(m, E, k_m, m.support)[1])
                p = 3
                dV = {(a, b): (rng.normal(size=(p, grid.n)) + 1j * rng.normal(size=(p, grid.n)))
                      * moved for a in range(nch) for b in range(nch) if rng.random() < 0.7}
                deps = rng.normal(size=(p, nch))
                deps[:, 0] = 0.0
                jac = solve_channel_jacobian(model, E, dV, deps)[1]
                ref = adjoint_reference(model, E, dV, deps, model.support)
                assert np.max(np.abs(jac - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("nch", [1, 3, 4])
def test_jacobian_matches_central_differences_of_the_amplitudes(nch):
    """The Jacobian meets central differences of solve_channel's amplitudes,
    which hold no copy of its amplitude map, to 1e-6 of each parameter's
    largest derivative (an entry can be ~1e-3 of it, where the differences'
    rounding shows): Hermitian, non-Hermitian and lossy models whose support
    lies strictly inside the grid (so channel 0's Bloch carries lambda^lo and
    lambda^(n - hi) are not 1), with the top channel closed at E for nch > 1.
    The parameters are two dV bumps and, for nch > 1, moves of channel 1's
    (open) threshold and of the closed one."""
    rng = np.random.default_rng(60 + nch)
    grid, E, step = make_grid(-2.0, 2.0, 401), 30.0, 1e-4
    thresholds = {1: (0.0,), 3: (0.0, 4.0, 40.0), 4: (0.0, -3.0, 5.0, 40.0)}[nch]
    V = random_hermitian_model(rng, grid, nch).V
    base = LocalPotentialModel(grid=grid, channels=ChannelSet(thresholds), V=V)
    models = [base, with_non_hermitian_coupling(base, rng)]
    models += [with_lossy_last_channel(base)] if nch > 1 else []
    p = 4 if nch > 1 else 2
    deps = np.zeros((p, nch))
    if nch > 1:
        deps[2, 1] = deps[3, -1] = 1.0
    for model in models:
        lo, hi = model.support
        assert 0 < lo and hi < grid.n
        bump = np.exp(-((grid.points / 0.3) ** 2)) * (np.abs(model.V).max(axis=(1, 2))
                                                      > SUPPORT_REL * model.vmax)
        dense = np.zeros((p, grid.n, nch, nch), dtype=complex)
        dense[0, :, 0, 0] = np.roll(bump, 5)
        dense[1, :, 0, -1] += (1.0 + 2.0j) * bump
        dense[1, :, -1, 0] += (3.0 - 1.0j) * bump
        dV = {(a, b): dense[:, :, a, b] for a in range(nch) for b in range(nch)
              if dense[:, :, a, b].any()}
        jac = solve_channel_jacobian(model, E, dV, deps)[1]

        def amplitudes(q, t):
            eps = tuple(e + t * d for e, d in zip(model.channels.thresholds, deps[q]))
            moved = LocalPotentialModel(grid=grid, channels=ChannelSet(eps),
                                        V=model.V + t * dense[q])
            a = solve_channel(moved, E)
            return np.array([a.T, a.R, a.Tt, a.Rt])

        for q in range(p):
            differences = (amplitudes(q, step) - amplitudes(q, -step)) / (2 * step)
            gap = np.max(np.abs(jac[:, q] - differences))
            assert gap <= 1e-6 * np.max(np.abs(differences)), (q, gap)


def test_moving_channel_0_threshold_is_rejected_before_factoring(monkeypatch):
    """Channel 0's wavenumber sets the incident wave and the amplitude map,
    which the Jacobian does not differentiate: a parameter that moves its
    threshold raises ValueError naming channel 0 before anything is factored
    (accepted, the eps_0 column was 200 times its size off central
    differences on this model)."""
    grid = make_grid(-1.5, 1.5, 601)
    V = np.zeros((grid.n, 2, 2), dtype=complex)
    V[:, 0, 1] = V[:, 1, 0] = 5.0 * np.exp(-((grid.points / 0.25) ** 2))
    model = LocalPotentialModel(grid=grid, channels=ChannelSet((0.0, 10.0)), V=V)
    factored = []
    monkeypatch.setattr(local_solver, "_factor", lambda *args: factored.append(args))
    with pytest.raises(ValueError, match="channel 0"):
        solve_channel_jacobian(model, 30.0, {}, np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert factored == []


def test_jacobian_is_finite_with_a_channel_exactly_at_threshold():
    """Channel 1 exactly at threshold (Delta = -32 at E = 32): its Bloch
    derivative g is infinite, but only Delta moves that threshold, so the
    b, c and x0 derivatives stay finite and match central differences of
    the amplitudes.  With the Delta row as well, the Jacobian raises
    ThresholdSingularityError, with no numpy warning."""
    grid = make_grid(-1.5, 1.5, 723)
    params = np.array([50.0, 40.0, 0.1])

    def amplitudes(p):
        a = solve_channel(build_two_level_model(RabiProfile(*p), -32.0, grid=grid), 32.0)
        return np.array([a.T, a.R, a.Tt, a.Rt])

    profile = RabiProfile(*params)
    model = build_two_level_model(profile, -32.0, grid=grid)
    dV, deps = derivatives(profile, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ThresholdSingularityError, match="channel 1 is exactly at threshold"):
            solve_channel_jacobian(model, 32.0, dV, deps)
        amps, jac = solve_channel_jacobian(model, 32.0, {ab: d[:3] for ab, d in dV.items()},
                                           deps[:3])
    assert np.array_equal(np.array([amps.T, amps.R, amps.Tt, amps.Rt]), amplitudes(params))
    assert np.all(np.isfinite(jac[:, :3]))
    for q, step in enumerate((4e-3, 4e-3, 5e-6)):  # 1e-5 of PARAM_BOX's spans
        shift = np.zeros(3)
        shift[q] = step
        differences = (amplitudes(params + shift) - amplitudes(params - shift)) / (2 * step)
        assert np.all(np.abs(jac[:, q] - differences) <= 1e-6 * np.abs(differences)), q


def test_jacobian_matches_the_whole_grid_adjoint_at_the_box_corners(monkeypatch):
    """At PAPER_POINT and the 16 corners of PARAM_BOX (design grid, E = 32)
    the Jacobian is within 1e-9 of the whole-grid adjoint oracle's max-norm.
    Where its band is the model's support the amplitudes are solve_channel's
    bit for bit.  At x0 = 0.5 with b = 0 or c = 0, V lacks the lobe that b or
    c would add; dV moves V there, and the band widens to cover it."""
    grid = design_grid(default_grid(), 8.0)
    bands = []
    real_factor = local_solver._factor

    def recording(models, E, supports):
        bands.extend(supports)
        return real_factor(models, E, supports)

    monkeypatch.setattr(local_solver, "_factor", recording)
    widened = []
    for b, c, x0, delta in [PAPER_POINT, *itertools.product(*PARAM_BOX)]:
        profile = RabiProfile(b, c, x0)
        model = build_two_level_model(profile, delta, grid=grid)
        dV, deps = derivatives(profile, grid)
        amps, jac = solve_channel_jacobian(model, 32.0, dV, deps)
        ref = adjoint_reference(model, 32.0, dV, deps, (0, grid.n))
        assert np.max(np.abs(jac - ref)) <= 1e-9 * np.max(np.abs(ref)), (b, c, x0, delta)
        alone = solve_channel(model, 32.0)
        if bands[-2] == model.support:
            assert amps == alone
        else:
            widened.append((b, c, x0))
            gaps = [getattr(amps, f) - getattr(alone, f) for f in ("T", "R", "Tt", "Rt")]
            assert max(map(abs, gaps)) <= 1e-11
    assert sorted(widened) == [(0.0, 400.0, 0.5)] * 2 + [(400.0, 0.0, 0.5)] * 2


def cut_rabi(profiles, x):
    """_rabi as it was before the cut at |x| = 1.5 was removed, kept as its
    oracle: both lobes, and so Omega and its gradient, exact zero wherever
    |x| >= 1.5, whatever the grid."""
    x = np.asarray(x, dtype=float)
    outside = np.abs(x) >= 1.5
    t = np.where(outside, 0.0, x)
    lobes = np.zeros((4, len(profiles)) + x.shape)
    omega = np.zeros((len(profiles),) + x.shape, dtype=complex)
    for i, profile in enumerate(profiles):
        lobes[:2, i] = t + profile.x0, t - profile.x0
        lobes[2:, i] = np.exp(np.square(lobes[:2, i]) / -profile.w**2)
        lobes[2:, i, outside] = 0.0
        omega[i] = -1j * profile.b * lobes[2, i] + profile.c * lobes[3, i]
    return omega, lobes


def test_uncut_profile_gives_the_cut_profiles_bits_on_the_default_box(monkeypatch):
    """On [-1.5, 1.5] the cut zeroed only the two end nodes, where the true
    tails are far below rounding: S at PAPER_POINT and the design Jacobian
    on seeded PARAM_BOX draws are bit-identical with and without it."""
    b, c, x0, delta = PAPER_POINT
    rng = np.random.default_rng(24)
    draws = PARAM_BOX[:, 0] + rng.random((20, 4)) * (PARAM_BOX[:, 1] - PARAM_BOX[:, 0])

    def results():
        out = []
        for n in (723, 2001):
            S = solve_local(build_two_level_model(RabiProfile(b, c, x0), delta,
                                                  grid=make_grid(-1.5, 1.5, n)), 32.0).S
            out.append(S.full())
        grid = make_grid(-1.5, 1.5, 723)
        for p in draws:
            profile = RabiProfile(*p[:3])
            (model,), lobes = local_solver._two_level_models([profile], [p[3]], grid=grid)
            amps, jac = solve_channel_jacobian(model, 32.0,
                                               *two_level_derivatives(profile, lobes[:, 0]))
            out += [np.array([amps.T, amps.R, amps.Tt, amps.Rt]), jac]
        return out

    uncut = results()
    monkeypatch.setattr(local_solver, "_rabi", cut_rabi)
    cut = results()
    assert all(np.array_equal(u, c_) for u, c_ in zip(uncut, cut))


def test_coupling_is_the_profile_on_a_wide_box():
    """On [-3, 3] a lobe at 1.4 reaches past |x| = 1.5: every node carries
    Omega(-x)/2, none of them zeroed beyond 1.5."""
    grid = make_grid(-3.0, 3.0, 601)
    profile = RabiProfile(b=165.874, c=103.876, x0=1.4)
    V = build_two_level_model(profile, 91.211, grid=grid).V
    assert np.array_equal(V[:, 0, 1], rabi_eval(profile, -grid.points) / 2.0)
    assert np.all(V[np.abs(grid.points) > 1.5, 0, 1] != 0.0)
