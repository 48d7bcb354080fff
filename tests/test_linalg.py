import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsot import (
    DimensionMismatch,
    NotHermitian,
    hermitian_eigendecomposition,
    partial_trace,
    tensor,
)
from qsot.linalg import CLUSTER_RTOL
from qsot.observables import PAULI


def test_tensor_sigma3_identity():
    assert np.allclose(tensor(PAULI[3], np.eye(2)), np.diag([1, 1, -1, -1]))


def test_tensor_trace_multiplicative():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.isclose(np.trace(tensor(A, B)), np.trace(A) * np.trace(B))


def test_tensor_sigma1_sigma1_spectrum():
    w = np.linalg.eigvalsh(tensor(PAULI[1], PAULI[1]))
    assert np.allclose(np.sort(w), [-1, -1, 1, 1])


def test_tensor_index_convention():
    # entry ((a1,b1),(a2,b2)) = A[a1,a2] B[b1,b2] with flat index a*dimB + b
    A = np.arange(4).reshape(2, 2) + 0j
    B = np.arange(9).reshape(3, 3) + 0j
    T = tensor(A, B)
    for a1 in range(2):
        for a2 in range(2):
            for b1 in range(3):
                for b2 in range(3):
                    assert T[a1 * 3 + b1, a2 * 3 + b2] == A[a1, a2] * B[b1, b2]


@pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
def test_eigendecomposition_reconstructs(d):
    rng = np.random.default_rng(d)
    for _ in range(200):
        G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        H = (G + G.conj().T) / 2
        dec = hermitian_eigendecomposition(H)
        rebuilt = sum(lam * P for lam, P in zip(dec.eigenvalues, dec.projectors))
        assert np.linalg.norm(rebuilt - H) < 1e-9


def spectrum(rng, d, kind):
    """d eigenvalues: generic, near-degenerate (chains of relative gaps below and
    above CLUSTER_RTOL) or rank-deficient (at least one exact zero)."""
    w = rng.standard_normal(d)
    if kind == "near-degenerate" and d > 1:
        w = np.sort(w)
        scale = np.abs(w).max()
        for k in range(1, d):
            if rng.random() < 0.7:
                w[k] = w[k - 1] + scale * rng.choice([1e-12, 1e-10, 5e-9, 2e-8, 1e-7])
    if kind == "rank-deficient":
        w[: int(rng.integers(1, d + 1))] = 0.0
    return w


@settings(max_examples=200, deadline=None, derandomize=True)
@example(seed=13, d=6, log_scale=-12.0, kind="near-degenerate")
@example(seed=13, d=6, log_scale=6.0, kind="rank-deficient")
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 6),
       log_scale=st.floats(-12.0, 6.0),
       kind=st.sampled_from(["generic", "near-degenerate", "rank-deficient"]))
def test_spectral_decomposition_properties(seed, d, log_scale, kind):
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    U, _ = np.linalg.qr(G)
    H = 10.0**log_scale * (U * spectrum(rng, d, kind)) @ U.conj().T
    H = 0.5 * (H + H.conj().T)
    dec = hermitian_eigendecomposition(H)
    P, lam = dec.projectors, dec.eigenvalues
    assert isinstance(P, np.ndarray) and P.shape == (len(lam), d, d)
    assert not P.flags.writeable
    assert np.linalg.norm(P.sum(axis=0) - np.eye(d), 2) <= 1e-12
    norm = np.linalg.norm(H, 2)
    assert abs(dec.norms[0] - norm) <= 1e-12 * norm
    # Merging a chain of gaps up to CLUSTER_RTOL * norm moves an eigenvalue by
    # at most (d - 1) such gaps; roundoff adds far less than 1e-12 * norm.
    rebuilt = np.einsum("k,kij->ij", lam, P)
    assert np.linalg.norm(rebuilt - H, 2) <= ((d - 1) * CLUSTER_RTOL + 1e-12) * norm


def test_projector_algebra():
    rng = np.random.default_rng(3)
    G = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    dec = hermitian_eigendecomposition((G + G.conj().T) / 2)
    Ps = dec.projectors
    for a, P in enumerate(Ps):
        for b, Q in enumerate(Ps):
            want = P if a == b else np.zeros_like(P)
            assert np.linalg.norm(P @ Q - want) < 1e-10
    assert np.linalg.norm(sum(Ps) - np.eye(5)) < 1e-10


def test_eigendecomposition_merges_degenerate_clusters():
    dec = hermitian_eigendecomposition(np.diag([1.0, 1.0 + 1e-12, 3.0]))
    assert len(dec.eigenvalues) == 2
    assert [round(np.trace(P).real) for P in dec.projectors] == [2, 1]
    # ascending order
    assert dec.eigenvalues[0] < dec.eigenvalues[1]


def test_eigendecomposition_arrays_are_read_only():
    # An observable caches its decomposition, so a write would change it for every caller.
    dec = hermitian_eigendecomposition(np.diag([1.0, -1.0]))
    for M in (dec.eigenvalues, dec.projectors):
        with pytest.raises(ValueError):
            M.flat[0] = 2.0


def test_eigendecomposition_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigendecomposition(np.array([[0, 1], [0, 0]]))


def test_partial_trace_of_product():
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = tensor(A, B)
    assert np.linalg.norm(partial_trace(T, 2, 3, "A") - np.trace(A) * B) < 1e-12
    assert np.linalg.norm(partial_trace(T, 2, 3, "B") - np.trace(B) * A) < 1e-12


def test_partial_trace_shape_check():
    with pytest.raises(DimensionMismatch):
        partial_trace(np.eye(5), 2, 3, "A")
