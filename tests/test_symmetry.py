import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from demonscatter import symmetry
from demonscatter.channels import ChannelAmplitudes
from demonscatter.kernels import OpticalParameters, build_kernel
from demonscatter.nonlocal_solver import NonlocalKernel
from demonscatter.serialize import symmetry_report_to_dict, write_json
from demonscatter.symmetry import (
    FORCED,
    REL_TOL,
    SLAB,
    VIOLATION,
    SymmetryClass,
    SymmetryReport,
    classify,
    predicted_relations,
    verify_predictions,
)
from demonscatter.units import SUPPORT_REL, RabiProfile, make_grid

from oracles import PAPER_DELTA, PAPER_PROFILE, transform


def random_smooth(grid, rng, nbumps=4, scale=3.0):
    x = grid.points
    env = np.exp(-((x / 0.55) ** 6))
    env[np.abs(x) > 1.4] = 0.0
    A = np.zeros((grid.n, grid.n), dtype=complex)
    for _ in range(nbumps):
        cx, cy = rng.uniform(-0.5, 0.5, 2)
        w = rng.uniform(0.15, 0.35)
        amp = (rng.normal() + 1j * rng.normal()) * scale
        A += amp * np.exp(
            -(((x[:, None] - cx) ** 2 + (x[None, :] - cy) ** 2) / w**2)
        )
    return A * env[:, None] * env[None, :]


def symmetrized(A, cls):
    return 0.5 * (A + transform(A, cls))


GRID = make_grid(-1.5, 1.5, 1201)
RNG = np.random.default_rng(7)
BASE = random_smooth(GRID, RNG)


def test_transform_involution():
    for cls in SymmetryClass:
        assert np.array_equal(transform(transform(BASE, cls), cls), BASE)


def test_real_symmetric_even_kernel_all_residuals_zero():
    x = GRID.points
    K = np.exp(-((x[:, None]) ** 2 + (x[None, :]) ** 2) / 0.1)
    K[np.abs(x) > 1.4, :] = 0.0
    K[:, np.abs(x) > 1.4] = 0.0
    residuals = classify(NonlocalKernel(grid=GRID, K=K)).residuals
    for cls in SymmetryClass:
        # grid points are not exactly sign-symmetric in floating point, so
        # allow roundoff-level residuals on the parity classes
        assert residuals[cls.name] < 1e-14


def test_symmetrized_kernels_have_zero_residual():
    for cls in SymmetryClass:
        if cls is SymmetryClass.Trivial:
            continue
        kernel = NonlocalKernel(grid=GRID, K=symmetrized(BASE, cls))
        assert classify(kernel).residuals[cls.name] < 1e-13 * np.max(np.abs(BASE))


def test_paper_kernel_trivial_only():
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    kernel = build_kernel(params, GRID)
    report = classify(kernel)
    assert report.trivial_only
    kmax = np.max(np.abs(kernel.K))
    for name, r in report.residuals.items():
        if name != "Trivial":
            assert r > 1e-3 * kmax


def test_pt_odd_imaginary_local_kernel():
    # i f(x) with f real odd on the diagonal: PT residual 0, Hermiticity > 0
    x = GRID.points
    f = x * np.exp(-((x / 0.4) ** 2))
    f[np.abs(x) > 1.201] = 0.0
    sigma = 0.05
    da = np.exp(-(((x[:, None] - x[None, :]) / sigma) ** 2))
    mask = (np.abs(x) <= 1.201).astype(float)
    K = 1j * 0.5 * (f[:, None] + f[None, :]) * da * mask[:, None] * mask[None, :]
    residuals = classify(NonlocalKernel(grid=GRID, K=K)).residuals
    assert residuals["PT"] < 1e-13
    assert residuals["Hermiticity"] > 1e-3


def test_local_real_kernel_tr_pseudohermitian():
    x = GRID.points
    f = np.exp(-((x / 0.4) ** 2))
    f[np.abs(x) > 1.201] = 0.0
    da = np.exp(-(((x[:, None] - x[None, :]) / 0.05) ** 2))
    mask = (np.abs(x) <= 1.201).astype(float)
    K = 0.5 * (f[:, None] + f[None, :]) * da * mask[:, None] * mask[None, :]
    kernel = NonlocalKernel(grid=GRID, K=K)
    assert classify(kernel).residuals["TimeReversalPseudohermiticity"] == 0.0


def test_parity_requires_symmetric_grid():
    grid = make_grid(-1.0, 2.0, 301)
    x = grid.points
    K = np.exp(-(((x[:, None] - 0.5) ** 2 + (x[None, :] - 0.5) ** 2) / 0.05))
    K[np.abs(x - 0.5) > 0.45, :] = 0.0
    K[:, np.abs(x - 0.5) > 0.45] = 0.0
    report = classify(NonlocalKernel(grid=grid, K=K))
    assert np.isnan(report.residuals["Parity"])
    assert not report.verdicts["Parity"]


@pytest.mark.parametrize("rel_tol", [np.float64(REL_TOL), np.float32(REL_TOL), np.float64(0.0)])
def test_numpy_scalar_tolerance_gives_a_report_json_can_write(tmp_path, rel_tol):
    """tol is a float and every verdict a bool whatever scalar type rel_tol
    has, so write_json takes the report; the verdicts are the float's."""
    params = OpticalParameters(delta=20.0, gamma=0.0, profile=RabiProfile(b=0.0, c=40.0), E=50.0)
    kernel = build_kernel(params, make_grid(-1.5, 1.5, 301))
    report = classify(kernel, rel_tol)
    assert type(report.tol) is float
    assert all(type(v) is bool for v in report.verdicts.values())
    assert report.verdicts == classify(kernel, float(rel_tol)).verdicts
    path = tmp_path / "sym.json"
    write_json(path, symmetry_report_to_dict(report))
    doc = json.loads(path.read_text())
    assert doc["tol"] == report.tol
    assert {name: c["verdict"] for name, c in doc["classes"].items()} == report.verdicts


def test_predicted_relations():
    assert predicted_relations({SymmetryClass.Hermiticity}) == {
        "|T|=|Tt|", "|R|=|Rt|", "D=0",
    }
    assert predicted_relations({SymmetryClass.TimeReversalPseudohermiticity}) == {
        "|T|=|Tt|", "D=(|Rt|^2-|R|^2)/2",
    }
    assert predicted_relations({SymmetryClass.TimeReversal}) == {
        "|R|=|Rt|", "D=(|T|^2-|Tt|^2)/2",
    }
    assert predicted_relations({SymmetryClass.Trivial}) == set()


@pytest.mark.parametrize("cls", list(SymmetryClass))
def test_forced_relations_follow_from_the_transform_flags(cls):
    """An independent rule: |T| = |Tt| holds iff flip != transpose and
    |R| = |Rt| iff flip != conjugate.  Both give D = 0; one alone gives the
    D form that substituting it into D's definition leaves."""
    flip, transpose, conjugate = cls.value
    t_pair, r_pair = flip != transpose, flip != conjugate
    expected = {"|T|=|Tt|"} if t_pair else set()
    if r_pair:
        expected.add("|R|=|Rt|")
    if t_pair and r_pair:
        expected.add("D=0")
    elif t_pair:
        expected.add("D=(|Rt|^2-|R|^2)/2")
    elif r_pair:
        expected.add("D=(|T|^2-|Tt|^2)/2")
    assert predicted_relations({cls}) == expected


def test_violation_table_on_hand_computed_amplitudes():
    # |T|, |R|, |Tt|, |Rt| = 0.6, 0.3, 0.5, 0.4, so D = (0.36 - 0.09 + 0.16 - 0.25)/2 = 0.09
    a = ChannelAmplitudes(T=0.6, R=0.3j, Tt=-0.5, Rt=0.4j)
    expected = {
        "|T|=|Tt|": 0.1,
        "|R|=|Rt|": 0.1,
        "D=0": 0.09,
        "D=(|Rt|^2-|R|^2)/2": 0.09 - 0.035,
        "D=(|T|^2-|Tt|^2)/2": 0.09 - 0.055,
    }
    assert set(VIOLATION) == set(expected) == set().union(*FORCED.values())
    for relation, value in expected.items():
        assert VIOLATION[relation](a) == pytest.approx(value, abs=1e-15), relation


def test_symmetry_report_derives_its_sets_from_verdicts():
    """satisfied, trivial_only and predictions follow from the verdicts, and
    the report is frozen."""
    verdicts = dict.fromkeys((cls.name for cls in SymmetryClass), False)
    verdicts.update(Trivial=True, TimeReversal=True)
    report = SymmetryReport(verdicts, tol=1e-8, kernel=NonlocalKernel(grid=GRID, K=BASE))
    assert report.satisfied == {SymmetryClass.Trivial, SymmetryClass.TimeReversal}
    assert not report.trivial_only
    assert report.predictions == {"|R|=|Rt|", "D=(|T|^2-|Tt|^2)/2"}
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.tol = 1.0


@pytest.mark.parametrize("node, imag", [((100, 200), 2.0**-20), ((10, 20), 2.0**-61)])
def test_residual_at_tol_is_satisfied(node, imag):
    # kmax = 1 exactly, so tol = rel_tol; TimeReversal's residual is 2 |Im K|.
    # 2^-20 sits in the support hull [100, 201); 2^-61 sits off it, where only
    # the whole-kernel rescan (tol < 4 eps kmax) sees it
    n = 301
    K = np.zeros((n, n), dtype=complex)
    K[150, 100:201] = 1.0
    K[node] = 1j * imag
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=K)
    assert kernel.kmax == 1.0 and kernel.support == (100, 201)
    r = 2.0 * imag
    at = classify(kernel, r)
    assert at.tol == r and at.verdicts["TimeReversal"] is True
    assert SymmetryClass.TimeReversal in at.satisfied
    below = classify(kernel, float(np.nextafter(r, 0.0)))
    assert below.verdicts["TimeReversal"] is False
    assert at.residuals["TimeReversal"] == below.residuals["TimeReversal"] == r


def test_time_reversal_residual_is_twice_the_largest_imaginary_part():
    # K - conj(K) = 2i Im K holds bit for bit on finite K: x - x is 0 and
    # y - (-y) is 2y, so max |K - conj(K)| is exactly 2 max |Im K|
    for cls in SymmetryClass:
        K = symmetrized(BASE, cls)
        residual = classify(NonlocalKernel(grid=GRID, K=K)).residuals["TimeReversal"]
        assert residual == 2.0 * np.max(np.abs(K.imag)), cls
    # real on the off-centre support [20, 120) with kmax = 1, so tol = rel_tol;
    # imaginary parts below SUPPORT_REL everywhere, the largest off the hull
    # [20, 281), where only the whole-kernel rescan reads it
    n, lo, hi = 301, 20, 120
    rng = np.random.default_rng(33)
    K = random_bordered(n, rng).imag * 1j * (0.1 * SUPPORT_REL)
    K[lo:hi, lo:hi] += rng.uniform(-0.5, 0.5, (hi - lo, hi - lo))
    K[lo, lo] = 1.0
    K[5, 290] = 0.75j * SUPPORT_REL
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=K)
    assert kernel.kmax == 1.0 and kernel.support == (lo, hi)
    r = 2.0 * float(np.max(np.abs(K.imag)))
    assert r == 1.5 * SUPPORT_REL
    at = classify(kernel, r)
    assert at.residuals["TimeReversal"] == r and at.verdicts["TimeReversal"] is True
    below = classify(kernel, float(np.nextafter(r, 0.0)))
    assert below.verdicts["TimeReversal"] is False


def test_closure_hermiticity_and_tr():
    A = BASE
    K = symmetrized(symmetrized(A, SymmetryClass.Hermiticity), SymmetryClass.TimeReversal)
    residuals = classify(NonlocalKernel(grid=GRID, K=K)).residuals
    r_h = residuals["Hermiticity"]
    r_t = residuals["TimeReversal"]
    r_tp = residuals["TimeReversalPseudohermiticity"]
    assert r_tp <= r_h + r_t + 1e-12


@pytest.mark.parametrize(
    "cls",
    [c for c in SymmetryClass if c is not SymmetryClass.Trivial],
)
def test_verify_predictions_per_class(cls):
    kernel = NonlocalKernel(grid=GRID, K=symmetrized(BASE, cls))
    rep = verify_predictions(kernel, 6.0)
    assert cls in rep.report.satisfied
    assert rep.all_hold, rep.violations


def test_verify_predictions_paper_kernel():
    grid = make_grid(-1.5, 1.5, 2001)
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    kernel = build_kernel(params, grid)
    rep = verify_predictions(kernel, 8.0)
    assert rep.report.trivial_only
    assert rep.violations == {}
    t2, r2, tt2, rt2 = rep.amplitudes.probabilities
    D = 0.5 * (t2 - r2 + rt2 - tt2)
    assert D == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("k", [0.0, -6.0, np.nan, np.inf])
def test_verify_predictions_rejects_bad_wavenumber_before_classify(monkeypatch, k):
    calls = []
    monkeypatch.setattr(symmetry, "classify", lambda *args: calls.append(args))
    kernel = NonlocalKernel(grid=GRID, K=BASE)
    with pytest.raises(ValueError, match="positive and finite"):
        verify_predictions(kernel, k)
    assert calls == []


# ------------------------------------------------- blocked residual pass


def reference_residual(K, cls):
    """The unblocked formula: max |K - gK| over every entry."""
    return float(np.max(np.abs(K - transform(K, cls))))


def random_bordered(n, rng):
    """Random complex kernel with a zero border, so NonlocalKernel takes it."""
    K = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    K[[0, -1], :] = 0.0
    K[:, [0, -1]] = 0.0
    return K


def paper_kernel(n):
    params = OpticalParameters(
        delta=PAPER_DELTA, gamma=0.0, profile=PAPER_PROFILE, E=32.0
    )
    return build_kernel(params, make_grid(-1.5, 1.5, n))


def assert_matches_reference(kernel, rel_tol=REL_TOL, report=None):
    """classify's verdicts and residuals equal the unblocked formula's, bit
    for bit; report is classify(kernel, rel_tol) unless the caller has one."""
    if report is None:
        report = classify(kernel, rel_tol)
    assert report.tol == rel_tol * float(np.max(np.abs(kernel.K)))
    for cls in SymmetryClass:
        ref = reference_residual(kernel.K, cls)
        assert report.residuals[cls.name] == ref, cls
        assert report.verdicts[cls.name] == (ref <= report.tol), cls


@pytest.mark.parametrize("n", [3, 4, SLAB - 1, SLAB, SLAB + 1, 2 * SLAB + 1, 1201])
def test_blocked_residuals_match_reference(n):
    grid = make_grid(-1.5, 1.5, n)
    K = random_bordered(n, np.random.default_rng(n))
    assert_matches_reference(NonlocalKernel(grid=grid, K=K))


@pytest.mark.parametrize("slab", [1, 3, 64])
@pytest.mark.parametrize("n", [5, 6, 7, 64, 65])
def test_blocked_residuals_match_reference_at_other_slab_sizes(
    monkeypatch, slab, n
):
    monkeypatch.setattr(symmetry, "SLAB", slab)
    grid = make_grid(-1.5, 1.5, n)
    K = random_bordered(n, np.random.default_rng(100 + n))
    assert_matches_reference(NonlocalKernel(grid=grid, K=K))


def test_blocked_residuals_match_reference_on_symmetrized_kernels():
    for cls in SymmetryClass:
        assert_matches_reference(
            NonlocalKernel(grid=GRID, K=symmetrized(BASE, cls))
        )


def test_blocked_residuals_match_reference_paper_kernel():
    assert_matches_reference(paper_kernel(2001))


def test_blocked_residuals_match_reference_asymmetric_grid():
    grid = make_grid(-1.0, 2.0, 2 * SLAB + 1)
    kernel = NonlocalKernel(grid=grid, K=random_bordered(grid.n, RNG))
    report = classify(kernel)
    for cls in SymmetryClass:
        if cls.involves_parity:
            assert np.isnan(report.residuals[cls.name])
            assert report.verdicts[cls.name] is False
        else:
            ref = reference_residual(kernel.K, cls)
            assert report.residuals[cls.name] == ref


@pytest.mark.parametrize("slab", [1, 2, 3, SLAB])
@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_pass_reduces_every_orbit(monkeypatch, slab, n):
    # a g-symmetric kernel with one entry changed differs from its image
    # only on that entry's orbit, so a pass that skips an orbit misses it
    monkeypatch.setattr(symmetry, "SLAB", slab)
    rng = np.random.default_rng(n)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    for cls in SymmetryClass:
        S = symmetrized(A, cls)
        for i in range(n):
            for j in range(n):
                K = S.copy()
                K[i, j] += 1.0 + 1.0j
                found = symmetry._blocked_maxima(K, [cls], np.inf)
                assert found[cls] == reference_residual(K, cls), (cls, i, j)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(3, 2 * SLAB + 2),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e150]),
    symmetrize=st.sampled_from(list(SymmetryClass)),
)
def test_blocked_residuals_match_reference_property(n, seed, scale, symmetrize):
    K = scale * random_bordered(n, np.random.default_rng(seed))
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=symmetrized(K, symmetrize))
    assert_matches_reference(kernel)


def test_classify_makes_no_full_size_temporary():
    # one complex n x n array is 64 MB at n = 2001; the blocked pass holds
    # only slabs of SLAB rows
    kernel = paper_kernel(2001)
    tracemalloc.start()
    try:
        classify(kernel)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8e6, f"classify peak {peak / 1e6:.1f} MB"


# ------------------------------------------------------- support-hull scan


@pytest.mark.parametrize(
    "cls", [c for c in SymmetryClass if c is not SymmetryClass.Trivial]
)
def test_classes_satisfied_on_the_hull_are_rescanned(cls):
    # exactly cls-symmetric on the support [100, 201)^2; off it, noise of
    # about eps kmax that no class maps onto itself: only the whole-kernel
    # scan sees it, so a class whose hull residual is 0 must be scanned again
    n, lo, hi = 301, 100, 201
    rng = np.random.default_rng(19)
    A = np.zeros((n, n), dtype=complex)
    m = hi - lo
    A[lo:hi, lo:hi] = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    K = symmetrized(A, cls)
    kmax = float(np.max(np.abs(K)))
    eps = np.finfo(float).eps
    noise = rng.uniform(0.25, 0.5, (n, n)) * np.exp(2j * np.pi * rng.uniform(size=(n, n)))
    off = np.ones((n, n), dtype=bool)
    off[lo:hi, lo:hi] = False
    K[off] = noise[off] * eps * kmax
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=K)
    assert kernel.support == (lo, hi)
    assert 0.0 < reference_residual(K, cls) <= 4 * eps * kmax
    assert_matches_reference(kernel)
    assert_matches_reference(kernel, 0.0)


def test_hull_is_closed_under_the_grid_flip():
    # a positive bump on the off-centre support [20, 120): its parity image
    # lies in the mirrored band [181, 281), so the parity residuals need the
    # hull [20, 281), and a flip about the support's own centre gets them wrong
    grid = make_grid(-1.5, 1.5, 301)
    x = grid.points
    lo, hi = 20, 120
    bump = np.zeros(grid.n)
    bump[lo:hi] = np.exp(-(((x[lo:hi] - x[50]) / 0.3) ** 2))
    K = np.outer(bump, bump * np.exp(1j * x))
    kernel = NonlocalKernel(grid=grid, K=K)
    assert kernel.support == (lo, hi)
    assert reference_residual(K, SymmetryClass.Parity) == float(np.max(np.abs(K)))
    assert_matches_reference(kernel)
    assert_matches_reference(kernel, 0.0)


def test_paper_kernel_scans_only_its_support_hull(monkeypatch):
    shapes = []
    blocked = symmetry._blocked_maxima

    def recording(K, classes, stop):
        shapes.append((K.shape, len(classes)))
        return blocked(K, classes, stop)

    monkeypatch.setattr(symmetry, "_blocked_maxima", recording)
    kernel = paper_kernel(2001)
    assert classify(kernel).trivial_only
    # support (328, 1676), mirrored (325, 1673): the hull is [325, 1676)
    assert kernel.support == (328, 1676)
    assert shapes == [((1351, 1351), 7)]  # Trivial-only: no class is rescanned


# ------------------------------------------------------ verdicts stop early


@pytest.mark.parametrize("slab", [1, 3, SLAB])
@pytest.mark.parametrize("cls", list(SymmetryClass))
def test_verdicts_match_reference_at_tolerances_on_every_residual(monkeypatch, slab, cls):
    # a tol at each residual (to rounding) and one ulp of rel_tol either side:
    # the early exit must not decide a verdict that the whole-kernel maximum
    # decides otherwise
    monkeypatch.setattr(symmetry, "SLAB", slab)
    n = 41
    K = symmetrized(random_bordered(n, np.random.default_rng(slab)), cls)
    K[n // 2, n // 3] += 1e-9 * (1 + 1j)
    kernel = NonlocalKernel(grid=make_grid(-1.5, 1.5, n), K=K)
    refs = {g.name: reference_residual(K, g) for g in SymmetryClass}
    for r in refs.values():
        rel = r / kernel.kmax
        for rel_tol in (rel, float(np.nextafter(rel, np.inf)), float(np.nextafter(rel, 0.0))):
            report = classify(kernel, rel_tol)
            assert report.verdicts == {name: ref <= report.tol for name, ref in refs.items()}


def test_verdicts_read_few_slabs_and_residuals_wait_to_be_read(monkeypatch):
    # every class but Trivial breaks within the first dozen of the paper
    # kernel's 85 hull slabs: each verdict pass stops there, and no verdict
    # reader computes the exact residuals
    kernel = paper_kernel(2001)
    slabs = {}
    representatives = symmetry._representatives

    def counting(K, flip, transpose, a, b):
        slabs[flip, transpose] = slabs.get((flip, transpose), 0) + 1
        return representatives(K, flip, transpose, a, b)

    monkeypatch.setattr(symmetry, "_representatives", counting)
    verification = verify_predictions(kernel, 8.0)
    assert verification.report.trivial_only and verification.violations == {}
    assert len(slabs) == 4 and max(slabs.values()) <= 16, slabs
    slabs.clear()
    report = classify(kernel)
    assert report.trivial_only
    assert len(slabs) == 4 and max(slabs.values()) <= 16, slabs
    assert "residuals" not in vars(verification.report)
    assert "residuals" not in vars(report)
    monkeypatch.undo()
    assert_matches_reference(kernel, report=report)
    assert "residuals" in vars(report)
