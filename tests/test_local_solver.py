import mpmath
import numpy as np
import pytest
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from demonscatter.channels import ChannelSet, SMatrix, branch_sqrt, extract_channel
from demonscatter.errors import ModelError, ResolutionWarning
from demonscatter.local_solver import (
    LocalPotentialModel,
    _assemble,
    _bloch_factors,
    build_two_level_model,
    convergence_sweep,
    solve_local,
)
from demonscatter.units import RabiProfile, make_grid


def barrier_model(v0, width, n, half_box=1.5):
    """Rectangular barrier with edges on grid nodes (half-value there)."""
    grid = make_grid(-half_box, half_box, n)
    V = np.zeros((n, 1, 1))
    inner = np.abs(grid.points) < width / 2 - 1e-12
    edge = np.isclose(np.abs(grid.points), width / 2)
    V[inner, 0, 0] = v0
    V[edge, 0, 0] = v0 / 2
    return LocalPotentialModel(
        grid=grid, channels=ChannelSet(thresholds=(0.0,)), V=V,
        rebuild=lambda g: barrier_model(v0, width, g.n, half_box),
    )


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


def random_hermitian_model(rng, grid):
    """Hermitian 2- or 3-channel model of Gaussian bumps, real thresholds."""
    x = grid.points
    env = np.exp(-((x / 0.6) ** 6))
    env[np.abs(x) > 1.45] = 0.0
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


def coo_numerov_matrix(model, E):
    """Numerov system assembled from COO triplets, and the Bloch factors.

    The sparse assembly that the band-storage one replaced, kept as its
    oracle.
    """
    grid, channels = model.grid, model.channels
    n, nch, h = grid.n, channels.n_channels, grid.spacing
    eps = np.array(channels.thresholds, dtype=complex)
    W = 2.0 * model.V + (2.0 * (eps - E))[None, :, None] * np.eye(nch)[None, :, :]
    eye = np.eye(nch, dtype=complex)
    P = eye[None, :, :] - (h * h / 12.0) * W
    Q = -(2.0 * eye[None, :, :] + (10.0 * h * h / 12.0) * W)
    lam = _bloch_factors(branch_sqrt(2.0 * (E - eps)), h)

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


PAPER_PROFILE = RabiProfile(b=165.874, c=103.876, x0=0.16455)


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
    model = barrier_model(10.0, 1.0, 501)
    sols = convergence_sweep(model, 8.0, [751, 1501, 3001])
    t2_exact = barrier_t2_exact(10.0, 1.0, 8.0)
    errs = [abs(abs(extract_channel(s.S, 0).T) ** 2 - t2_exact) for s in sols]
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_convergence_sweep_requires_ascending():
    model = barrier_model(10.0, 1.0, 501)
    with pytest.raises(ValueError):
        convergence_sweep(model, 8.0, [1001, 501])


def test_two_level_zero_coupling_is_free():
    model = build_two_level_model(RabiProfile(b=0.0, c=0.0), 91.211)
    assert np.all(model.V == 0)
    a = extract_channel(solve_local(model, 32.0).S, 0)
    assert abs(a.T) == pytest.approx(1.0, abs=1e-8)
    assert abs(a.R) < 1e-8


def test_two_level_hermitian_iff_gamma_zero():
    herm = build_two_level_model(PAPER_PROFILE, 91.211)
    assert herm.hermitian_flag
    lossy = build_two_level_model(PAPER_PROFILE, 91.211, gamma=1.0)
    assert not lossy.hermitian_flag


def test_hermitian_flag_cannot_be_declared():
    model = build_two_level_model(PAPER_PROFILE, 91.211)
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
    assert model.regenerated(make_grid(-1.5, 1.5, 201)).hermitian_flag is True


def test_paper_model_half_demon_values():
    model = build_two_level_model(PAPER_PROFILE, 91.211)
    sol = solve_local(model, 32.0)
    t2, r2, tt2, rt2 = extract_channel(sol.S, 0).probabilities
    assert t2 == pytest.approx(0.5, abs=0.02)
    assert r2 <= 0.02
    assert tt2 <= 0.02
    assert rt2 == pytest.approx(0.5, abs=0.03)
    assert sol.unitarity_defect < 1e-6


def test_paper_model_self_convergence():
    model = build_two_level_model(PAPER_PROFILE, 91.211)
    sols = convergence_sweep(model, 32.0, [1001, 2001, 4001])
    diffs = [s.convergence_estimate for s in sols[1:]]
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


def test_matches_superlu_oracle():
    # the 100 models of acceptance criterion 4, the paper point, and the
    # paper profile with a lossy (closed) excited channel
    rng = np.random.default_rng(11)
    grid = make_grid(-1.5, 1.5, 2001)
    cases = [(random_hermitian_model(rng, grid), 30.0) for _ in range(100)]
    cases.append((build_two_level_model(PAPER_PROFILE, 91.211), 32.0))
    cases.append((build_two_level_model(PAPER_PROFILE, 91.211, gamma=3.0), 32.0))
    worst = 0.0
    for model, E in cases:
        S = solve_local(model, E).S.full()
        worst = max(worst, np.max(np.abs(S - superlu_smatrix(model, E).full())))
    assert worst <= 1e-9


def test_band_storage_matches_coo_matrix():
    # seed 3 draws a 3-channel model: band width u = 5
    model = random_hermitian_model(np.random.default_rng(3), make_grid(-1.5, 1.5, 41))
    u, ab, lam = _assemble(model, 30.0)
    A, lam_ref = coo_numerov_matrix(model, 30.0)
    A = A.toarray()
    i, j = np.indices(A.shape)
    inside = np.abs(i - j) <= u
    assert np.array_equal(ab[(u + i - j)[inside], j[inside]], A[inside])
    assert not A[~inside].any()
    assert np.array_equal(lam, lam_ref)
