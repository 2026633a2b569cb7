import numpy as np
import pytest

from demonscatter.channels import (
    ChannelSet,
    SMatrix,
    extract_channel,
    kinematics,
    unitarity_defect,
)
from demonscatter.errors import ChannelIndexError, NonPositiveEnergyError

from oracles import haar_unitary, smatrix_from_full


def test_kinematics_single_open():
    k, open = kinematics(ChannelSet(thresholds=(0.0,)), 32.0)
    assert k[0] == pytest.approx(8.0)
    assert open.tolist() == [0]


def test_kinematics_closed_channel():
    k, open = kinematics(ChannelSet(thresholds=(0.0, 100.0)), 32.0)
    assert open.tolist() == [0]
    assert k[1] == pytest.approx(1j * np.sqrt(136.0))


def test_kinematics_negative_threshold_matches_q():
    # k2 = sqrt(2 (E + Delta)) equals the effective kernel wavenumber at gamma=0
    k, open = kinematics(ChannelSet(thresholds=(0.0, -91.211)), 32.0)
    assert k[1].real == pytest.approx(np.sqrt(2 * (32 + 91.211)))
    assert abs(k[1].real - 15.698) < 1e-3
    assert len(open) == 2


def test_kinematics_all_closed():
    with pytest.raises(NonPositiveEnergyError,
                       match=r"^energy must exceed the channel-0 threshold 10\.0, got E=5\.0$"):
        kinematics(ChannelSet(thresholds=(10.0,)), 5.0)


@pytest.mark.parametrize("thresholds, message", [
    ((10.0, 0.0), r"energy must exceed the channel-0 threshold 10\.0, got E=5\.0"),
    ((-1 - 1j, 0.0), r"channel 0 is lossy \(threshold \(-1-1j\)\) and never open"),
], ids=["closed", "lossy"])
def test_kinematics_rejects_closed_channel_0_beside_an_open_one(thresholds, message):
    # channel 1 is open, but channel 0 is the incident channel
    with pytest.raises(NonPositiveEnergyError, match=f"^{message}$"):
        kinematics(ChannelSet(thresholds=thresholds), 5.0)


@pytest.mark.parametrize("E", [np.nan, np.inf])
def test_kinematics_rejects_non_finite_energy(E):
    with pytest.raises(ValueError, match="^energy must be finite$"):
        kinematics(ChannelSet(thresholds=(0.0,)), E)


def test_channel_set_needs_a_channel():
    with pytest.raises(ValueError, match="^at least one channel required$"):
        ChannelSet(thresholds=())


def test_kinematics_branch():
    for eps in [-5.0, 0.0, 3.0, 7.0]:
        k, _open = kinematics(ChannelSet(thresholds=(0.0, eps)), 5.0)
        assert np.all(k.imag >= 0)


def test_unitarity_defect_identity():
    S = SMatrix(T=[[1.0]], R=[[0.0]], Tt=[[1.0]], Rt=[[0.0]])
    assert unitarity_defect(S) == 0.0


def test_unitarity_defect_full_reflector():
    S = SMatrix(T=[[0.0]], R=[[1.0]], Tt=[[0.0]], Rt=[[1.0]])
    assert unitarity_defect(S) == 0.0


def test_unitarity_defect_haar():
    rng = np.random.default_rng(3)
    U = haar_unitary(4, rng)
    assert unitarity_defect(smatrix_from_full(U)) < 1e-12


def test_block_roundtrip():
    rng = np.random.default_rng(5)
    U = haar_unitary(6, rng)
    S = smatrix_from_full(U)
    assert np.array_equal(S.full(), U)


def test_shape_mismatch():
    with pytest.raises(ValueError, match="all blocks must be 2x2, got shapes"):
        SMatrix(T=np.eye(2), R=np.eye(3), Tt=np.eye(2), Rt=np.eye(2))
    with pytest.raises(ValueError, match="all blocks must be 1x1, got shapes"):
        smatrix_from_full(np.eye(3))


def test_extract_channel_identity():
    a = extract_channel(smatrix_from_full(np.eye(2)), 0)
    assert (a.T, a.R, a.Tt, a.Rt) == (1, 0, 1, 0)


def test_extract_channel_reflector():
    S = SMatrix(T=[[0.0]], R=[[1.0]], Tt=[[0.0]], Rt=[[1.0]])
    a = extract_channel(S, 0)
    assert (a.T, a.R, a.Tt, a.Rt) == (0, 1, 0, 1)


def test_extract_channel_out_of_range():
    with pytest.raises(ChannelIndexError):
        extract_channel(smatrix_from_full(np.eye(2)), 1)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for dim in (1, 2, 4, 6):
        U = haar_unitary(dim, rng)
        assert np.max(np.abs(U.conj().T @ U - np.eye(dim))) < 1e-13


def test_haar_seeded_reproducible():
    U1 = haar_unitary(4, np.random.default_rng(42))
    U2 = haar_unitary(4, np.random.default_rng(42))
    assert np.array_equal(U1, U2)


def test_channel_inequalities_haar_bulk():
    # Eqs of the unitarity sums imply the channel inequalities with
    # nonnegative slack for every Haar sample
    rng = np.random.default_rng(123)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        S = smatrix_from_full(haar_unitary(2 * n, rng))
        for i in range(n):
            a = extract_channel(S, i)
            t2, r2, tt2, rt2 = a.probabilities
            for s in (1 - t2 - r2, 1 - tt2 - rt2, 1 - t2 - rt2, 1 - tt2 - r2):
                assert s >= -1e-10
