import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsot import (
    DimensionMismatch,
    InvalidParameter,
    Process,
    QuantumChannel,
    apply,
    choi_matrix,
    depolarizing,
    discard_prepare,
    identity_channel,
    isometry_embed,
    partial_trace,
    random_channel,
    random_density,
    random_hermitian,
    tensor,
)
from qsot.linalg import TP_TOL
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
        assert np.isclose(np.vdot(apply(chan, A), B), np.vdot(A, adjoint_apply(chan, B)))


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
    # The constructor's CPTP check accepts the identity channel: TP residual and Choi spectrum.
    chan = identity_channel(3)
    rows = chan.kraus.reshape(-1, 3)
    assert np.linalg.norm(rows.conj().T @ rows - np.eye(3)) < 1e-12
    assert abs(np.linalg.eigvalsh(choi_matrix(chan)).min()) < 1e-12


def test_validate_cptp_single_kraus_identity():
    chan = QuantumChannel([np.eye(2)])
    assert chan.kraus.shape == (1, 2, 2) and not chan.kraus.flags.writeable


def test_validate_cptp_rejects_scaled_kraus():
    # TP residual ||1.21 * 1 - 1|| = 0.21 sqrt(2); the Choi matrix stays positive.
    assert np.isclose(abs(1.21 - 1) * np.sqrt(2), 2.970e-01, atol=5e-5)
    with pytest.raises(InvalidParameter, match=r"^Kraus set is not CPTP: TP residual 2\.970e-01$"):
        QuantumChannel([1.1 * PAULI[1]])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), dim_in=st.integers(1, 4), dim_out=st.integers(1, 4),
       rank=st.integers(1, 4), extra=st.integers(0, 3),
       kind=st.sampled_from(["random", "rank-deficient", "perturbed"]))
def test_every_accepted_kraus_set_has_a_positive_choi_matrix(seed, dim_in, dim_out, rank, extra,
                                                             kind):
    # Sum_k vec(K_k) vec(K_k)^dagger is positive semidefinite for any Kraus set, so the
    # constructor checks only trace preservation; roundoff stays far from -TP_TOL.
    rng = np.random.default_rng(seed)
    rank = max(rank, -(-dim_in // dim_out))  # an isometry needs dim_out * rank >= dim_in
    kraus = random_channel(dim_in, dim_out, rng, env_dim=rank).kraus
    if kind == "rank-deficient":  # rank + extra operators spanning a rank-dimensional space
        shape = (rank + extra, rank)
        U = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        # U has orthonormal columns, so it keeps sum_k K_k^dagger K_k.
        kraus = np.einsum("jk,kab->jab", U, kraus)
    elif kind == "perturbed":  # a TP residual just inside the tolerance
        noise = rng.standard_normal(kraus.shape) + 1j * rng.standard_normal(kraus.shape)
        kraus = kraus + 0.2 * TP_TOL * noise / np.linalg.norm(noise)
    channel = QuantumChannel(list(kraus))
    assert channel.kraus.shape == (len(kraus), dim_out, dim_in)
    assert np.linalg.eigvalsh(choi_matrix(channel)).min() >= -1e-12


def test_constructor_rejects_invalid_kraus():
    with pytest.raises(InvalidParameter):
        QuantumChannel([1.1 * PAULI[1]])


def test_constructor_rejects_an_overflowing_kraus_set_before_the_spectrum():
    # sum_k K_k^dagger K_k holds 1e400 = inf: the Choi matrix would overflow too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParameter, match=r"not CPTP: sum_k K_k\^dagger K_k overflows"):
            QuantumChannel([1e200 * np.eye(2)])


def test_isometry_embed_2_2_is_identity():
    J = isometry_embed(2, 2).jamiolkowski
    assert np.linalg.norm(J - identity_channel(2).jamiolkowski) < 1e-12


def test_isometry_embed_3_3_complement():
    out = apply(isometry_embed(3, 3), np.diag([0.0, 0.0, 1.0]))
    assert np.linalg.norm(out - np.eye(3) / 3) < 1e-12


def test_discard_prepare_mixed_jamiolkowski():
    J = discard_prepare(np.eye(3) / 3).jamiolkowski
    assert np.linalg.norm(J - np.eye(9) / 3) < 1e-12


def test_choi_construction_memory_is_quadratic_in_dimension():
    # 144 Kraus operators on a 144-dimensional Choi space: a stacked (nk, D, D)
    # broadcast would take 47 MiB, the Choi matrix itself takes 0.3 MiB.
    discard_prepare(np.eye(2) / 2)  # warm up lazy imports outside the trace
    tracemalloc.start()
    try:
        channel = discard_prepare(np.eye(12) / 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert channel.kraus.shape == (144, 12, 12)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("dim_in", [0, -1])
def test_discard_prepare_rejects_nonpositive_dimension(dim_in):
    with pytest.raises(InvalidParameter, match=rf"^dim_in must be an integer at least 1, got {dim_in}$"):
        discard_prepare(np.eye(2) / 2, dim_in=dim_in)


def test_discard_prepare_keeps_the_hermitian_part():
    # An anti-hermitian part inside tolerance is dropped, as Process drops it from rho.
    sigma = random_density(3, np.random.default_rng(4))
    skew = 1e-12 * np.array([[0, 1, 2j], [-1, 0, 1], [2j, -1, 0]])
    hermitian_part = 0.5 * ((sigma + skew) + (sigma + skew).conj().T)
    got, want = discard_prepare(sigma + skew), discard_prepare(hermitian_part)
    assert np.array_equal(got.kraus, want.kraus)
    assert np.array_equal(got.jamiolkowski, want.jamiolkowski)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 6])
def test_random_density_is_exactly_hermitian(d):
    rho = random_density(d, np.random.default_rng(1))
    assert np.array_equal(rho, rho.conj().T)
    assert not np.diagonal(rho).imag.any()
    assert abs(np.trace(rho).real - 1.0) <= 1e-15 * d


def test_depolarizing_parameter_range():
    with pytest.raises(InvalidParameter):
        depolarizing(2, 1.5)


def test_random_channels_are_cptp():
    rng = np.random.default_rng(8)
    for dA in (2, 3):
        for dB in (2, 3):
            for _ in range(10):
                chan = random_channel(dA, dB, rng)
                rows = chan.kraus.reshape(-1, dA)
                assert np.linalg.norm(rows.conj().T @ rows - np.eye(dA)) < 1e-12
                assert np.linalg.eigvalsh(choi_matrix(chan)).min() > -1e-12


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
