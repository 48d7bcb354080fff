import numpy as np
import pytest

from qsot import (
    DimensionMismatch,
    InvalidParameter,
    Process,
    QuantumChannel,
    apply,
    choi_matrix,
    depolarizing,
    discard_prepare,
    hs_inner,
    identity_channel,
    isometry_embed,
    partial_trace,
    random_channel,
    random_density,
    random_hermitian,
    tensor,
    validate_cptp,
)
from qsot.observables import PAULI


def swap_operator(d):
    S = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            S[i * d + j, j * d + i] = 1.0
    return S


def test_apply_identity():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(apply(identity_channel(3), M), M)


def test_apply_discard_prepare():
    rng = np.random.default_rng(1)
    sigma = random_density(3, rng)
    chan = discard_prepare(sigma)
    for _ in range(5):
        rho = random_density(3, rng)
        assert np.linalg.norm(apply(chan, rho) - sigma) < 1e-12


def test_fully_depolarizing_kills_sigma3():
    chan = depolarizing(2, 1.0)
    assert np.linalg.norm(apply(chan, PAULI[3])) < 1e-12


def test_apply_dimension_check():
    with pytest.raises(DimensionMismatch):
        apply(identity_channel(2), np.eye(3))


def test_jamiolkowski_identity_is_swap():
    for d in (2, 3):
        assert np.linalg.norm(identity_channel(d).jamiolkowski - swap_operator(d)) < 1e-12


def test_jamiolkowski_discard_prepare():
    rng = np.random.default_rng(2)
    sigma = random_density(3, rng)
    J = discard_prepare(sigma).jamiolkowski
    assert np.linalg.norm(J - tensor(np.eye(3), sigma)) < 1e-10


def test_jamiolkowski_partial_trace_identity():
    rng = np.random.default_rng(3)
    for dA, dB in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        chan = random_channel(dA, dB, rng)
        J = chan.jamiolkowski
        assert np.linalg.norm(partial_trace(J, dA, dB, "B") - np.eye(dA)) < 1e-10


def test_contraction_identity():
    # tr_A[J (A (x) B)] = E(A) B for random probes
    rng = np.random.default_rng(4)
    for _ in range(20):
        chan = random_channel(3, 2, rng)
        J = chan.jamiolkowski
        A = random_hermitian(3, rng)
        B = random_hermitian(2, rng)
        lhs = partial_trace(J @ tensor(A, B), 3, 2, "A")
        assert np.linalg.norm(lhs - apply(chan, A) @ B) < 1e-10


def adjoint_apply(channel, B):
    """Hilbert-Schmidt adjoint B -> sum_k K^dagger B K, the reference for apply's duality."""
    return sum(K.conj().T @ B @ K for K in channel.kraus)


def test_adjoint_identity_channel():
    B = np.array([[1, 2j], [-2j, 0]])
    assert np.allclose(adjoint_apply(identity_channel(2), B), B)


def test_adjoint_duality():
    rng = np.random.default_rng(5)
    for _ in range(20):
        chan = random_channel(2, 3, rng)
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert np.isclose(hs_inner(apply(chan, A), B), hs_inner(A, adjoint_apply(chan, B)))


def test_adjoint_unital():
    rng = np.random.default_rng(6)
    for dA, dB in [(2, 2), (3, 2), (2, 3)]:
        chan = random_channel(dA, dB, rng)
        assert np.linalg.norm(adjoint_apply(chan, np.eye(dB)) - np.eye(dA)) < 1e-10


def test_adjoint_discard_prepare():
    rng = np.random.default_rng(7)
    sigma = random_density(2, rng)
    chan = discard_prepare(sigma)
    B = random_hermitian(2, rng)
    want = np.trace(sigma @ B) * np.eye(2)
    assert np.linalg.norm(adjoint_apply(chan, B) - want) < 1e-10


def test_choi_identity_is_maximally_entangled_dyad():
    for d in (2, 3):
        vec = np.zeros(d * d, dtype=complex)
        for i in range(d):
            vec[i * d + i] = 1.0
        C = choi_matrix(identity_channel(d))
        assert np.linalg.norm(C - np.outer(vec, vec.conj())) < 1e-12


def test_validate_cptp_identity():
    report = validate_cptp(identity_channel(3))
    assert report.tp_residual < 1e-12
    assert abs(report.min_choi_eigenvalue) < 1e-12
    assert report.accepted


def test_validate_cptp_single_kraus_identity():
    assert validate_cptp(QuantumChannel([np.eye(2)])).accepted


def test_validate_cptp_rejects_scaled_kraus():
    chan = QuantumChannel([1.1 * PAULI[1]], validate=False)
    report = validate_cptp(chan)
    assert not report.accepted
    assert np.isclose(report.tp_residual, abs(1.21 - 1) * np.sqrt(2))


def test_constructor_rejects_invalid_kraus():
    with pytest.raises(InvalidParameter):
        QuantumChannel([1.1 * PAULI[1]])


def test_isometry_embed_2_2_is_identity():
    J = isometry_embed(2, 2).jamiolkowski
    assert np.linalg.norm(J - identity_channel(2).jamiolkowski) < 1e-12


def test_isometry_embed_3_3_complement():
    out = apply(isometry_embed(3, 3), np.diag([0.0, 0.0, 1.0]))
    assert np.linalg.norm(out - np.eye(3) / 3) < 1e-12


def test_discard_prepare_mixed_jamiolkowski():
    J = discard_prepare(np.eye(3) / 3).jamiolkowski
    assert np.linalg.norm(J - np.eye(9) / 3) < 1e-12


def test_depolarizing_parameter_range():
    with pytest.raises(InvalidParameter):
        depolarizing(2, 1.5)


def test_random_channels_are_cptp():
    rng = np.random.default_rng(8)
    for dA in (2, 3):
        for dB in (2, 3):
            for _ in range(10):
                report = validate_cptp(random_channel(dA, dB, rng))
                assert report.accepted


def test_process_validation():
    rng = np.random.default_rng(9)
    Process(identity_channel(2), random_density(2, rng))
    with pytest.raises(InvalidParameter):
        Process(identity_channel(2), np.diag([0.7, 0.7]))
    with pytest.raises(InvalidParameter):
        Process(identity_channel(2), np.diag([1.5, -0.5]))
    with pytest.raises(DimensionMismatch):
        Process(identity_channel(2), np.eye(3) / 3)


def test_process_stores_hermitian_rho():
    rng = np.random.default_rng(10)
    rho = random_density(3, rng)
    skew = random_hermitian(3, rng) * 1j
    stored = Process(identity_channel(3), rho + 1e-12 * skew).rho
    assert not np.array_equal(rho + 1e-12 * skew, (rho + 1e-12 * skew).conj().T)
    assert np.array_equal(stored, stored.conj().T)
    exact = np.diag([0.25, 0.75]) + np.array([[0, 0.1 + 0.2j], [0.1 - 0.2j, 0]])
    assert np.array_equal(Process(identity_channel(2), exact).rho, exact)
