import math

import numpy as np
import pytest

from qsot import (
    DimensionMismatch,
    IsLightTouch,
    NotLightTouch,
    NumericalFailure,
    Observable,
    SingularSystem,
    Process,
    canonical_sot,
    causality_witness,
    discard_prepare,
    estimate_pdm,
    hermitian_basis,
    identity_channel,
    light_touch_basis_qutrit,
    light_touch_spanning_set,
    maximality_counterexample,
    partial_trace,
    pauli_basis,
    pdm_from_correlations,
    random_density,
    random_hermitian,
    random_process,
    reconstruct_unique,
    sic_fiducial_w,
    sic_povm,
    tensor,
    two_time_ev,
)
from qsot.channels import apply
from qsot.sot import StateOverTime
from qsot.twotime import _basis


def qutrit_reference_matrix():
    # state over time of the identity qutrit channel on |0><0|
    M = np.zeros((9, 9))
    M[0, 0] = 1.0
    for i, j in [(1, 3), (3, 1), (2, 6), (6, 2)]:
        M[i, j] = 0.5
    return M


def qutrit_reference_process():
    return Process(identity_channel(3), np.diag([1.0, 0.0, 0.0]))


def test_canonical_sot_qutrit_example():
    sot = canonical_sot(qutrit_reference_process())
    assert np.linalg.norm(sot.matrix - qutrit_reference_matrix()) < 1e-12
    w = np.sort(sot.eigenvalues())
    want = np.sort([1, -0.5, -0.5, 0.5, 0.5, 0, 0, 0, 0])
    assert np.allclose(w, want, atol=1e-10)


def test_canonical_sot_discard_prepare_is_positive():
    rng = np.random.default_rng(0)
    rho = random_density(2, rng)
    sigma = random_density(3, rng)
    proc = Process(discard_prepare(sigma, dim_in=2), rho)
    sot = canonical_sot(proc)
    assert np.linalg.norm(sot.matrix - tensor(rho, sigma)) < 1e-10
    assert sot.eigenvalues().min() > -1e-10


def test_canonical_sot_invariants():
    rng = np.random.default_rng(1)
    for dA, dB in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        proc = random_process(dA, dB, rng)
        sot = canonical_sot(proc)
        M = sot.matrix
        assert np.linalg.norm(M - M.conj().T) < 1e-10
        assert np.isclose(np.trace(M).real, 1.0, atol=1e-10)
        assert np.linalg.norm(partial_trace(M, dA, dB, "B") - proc.rho) < 1e-9
        assert np.linalg.norm(
            partial_trace(M, dA, dB, "A") - apply(proc.channel, proc.rho)
        ) < 1e-9


def test_pdm_from_correlations_qubit_pauli():
    rng = np.random.default_rng(2)
    proc = random_process(2, 2, rng)
    basis = pauli_basis(1)
    evs = np.array([[two_time_ev(proc, A, B) for B in basis] for A in basis])
    sot = pdm_from_correlations(2, 2, basis, basis, evs)
    assert sot.provenance == "reconstructed"
    assert np.linalg.norm(sot.matrix - canonical_sot(proc).matrix) < 1e-10


def test_pdm_from_correlations_qutrit_example():
    proc = qutrit_reference_process()
    basis = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    evs = np.array([[two_time_ev(proc, A, B) for B in basis] for A in basis])
    sot = pdm_from_correlations(3, 3, basis, basis, evs)
    assert np.linalg.norm(sot.matrix - qutrit_reference_matrix()) < 1e-10


def test_pdm_from_correlations_zero_data():
    basis = pauli_basis(1)
    sot = pdm_from_correlations(2, 2, basis, basis, np.zeros((4, 4)))
    assert np.linalg.norm(sot.matrix) == 0.0


def test_pdm_from_correlations_rejects_empty_bases():
    basis = pauli_basis(1)
    with pytest.raises(DimensionMismatch):
        pdm_from_correlations(2, 2, [], [], np.zeros((0, 0)))
    with pytest.raises(DimensionMismatch):
        pdm_from_correlations(2, 2, basis, [], np.zeros((4, 0)))


def test_pdm_from_correlations_rejects_non_finite_data():
    # All NaN used to give an all-NaN matrix and no error, and inf a RuntimeWarning from
    # the expansion; one such value anywhere in the grid is rejected as any matrix input is.
    basis_A, basis_B = pauli_basis(1), hermitian_basis(2)
    grids = [np.full((4, 4), np.nan), np.full((4, 4), np.inf)]
    for bad in (np.nan, np.inf, -np.inf):
        grids.append(np.zeros((4, 4)))
        grids[-1][1, 2] = bad
    for evs in grids:
        with pytest.raises(NumericalFailure, match="NaN/Inf"):
            pdm_from_correlations(2, 2, basis_A, basis_B, evs)


def test_pdm_from_correlations_rejects_bad_bases():
    basis = pauli_basis(1)
    with pytest.raises(NotLightTouch):
        pdm_from_correlations(
            2, 2, [Observable(np.diag([2.0, 1.0]))] * 4, basis, np.zeros((4, 4))
        )
    zero, one = [Observable(np.zeros((1, 1)))], [Observable(np.eye(1))]
    for basis_A, basis_B in ((zero, one), (one, zero)):  # a zero Gram matrix, not NaN
        with pytest.raises(SingularSystem):
            pdm_from_correlations(1, 1, basis_A, basis_B, [[1.0]])
    # A skew basis is accepted: its dual frame reproduces the canonical state.
    proc = random_process(3, 2, np.random.default_rng(8))
    skew = light_touch_spanning_set(3)  # light-touch but not orthogonal
    evs = np.array([[two_time_ev(proc, A, B) for B in basis] for A in skew])
    sot = pdm_from_correlations(3, 2, skew, basis, evs)
    assert np.abs(sot.matrix - canonical_sot(proc).matrix).max() <= 1e-12
    want = _basis(skew, 3).frame[1] * _basis(basis, 2).frame[1]
    assert sot.condition == pytest.approx(want, rel=1e-12)
    assert sot.condition == pytest.approx(15.5741, rel=1e-5)


def test_pdm_from_correlations_and_estimate_pdm_reject_incomplete_bases():
    proc = random_process(2, 2, np.random.default_rng(9))
    basis = pauli_basis(1)
    for basis_A, basis_B in ((basis[:3], basis), (basis, basis[:3])):
        evs = np.zeros((len(basis_A), len(basis_B)))
        with pytest.raises(DimensionMismatch, match="need 4 and 4 observables, got"):
            pdm_from_correlations(2, 2, basis_A, basis_B, evs)
        with pytest.raises(DimensionMismatch, match="need 4 and 4 observables, got"):
            estimate_pdm(proc, basis_A, basis_B, 10, seed=1)


def test_reconstruct_unique_matches_closed_form():
    rng = np.random.default_rng(3)
    proc = Process(identity_channel(2), np.diag([1.0, 0.0]))
    assert np.linalg.norm(
        reconstruct_unique(proc).matrix - canonical_sot(proc).matrix
    ) < 1e-8
    assert np.linalg.norm(
        reconstruct_unique(qutrit_reference_process()).matrix - qutrit_reference_matrix()
    ) < 1e-8
    proc4 = random_process(4, 2, rng)
    assert np.linalg.norm(
        reconstruct_unique(proc4).matrix - canonical_sot(proc4).matrix
    ) < 1e-8


def test_condition_numbers():
    rng = np.random.default_rng(6)
    proc = random_process(2, 2, rng)
    basis = pauli_basis(1)
    evs = np.array([[two_time_ev(proc, A, B) for B in basis] for A in basis])
    one = pytest.approx(1.0, abs=1e-12)
    assert pdm_from_correlations(2, 2, basis, basis, evs).condition == one
    assert estimate_pdm(proc, basis, basis, 10, seed=1).condition == one
    assert canonical_sot(proc).condition is None
    assert reconstruct_unique(proc).condition == pytest.approx(1.0, abs=1e-12)
    rec = reconstruct_unique(random_process(4, 2, rng))
    assert rec.condition == pytest.approx(1.0, abs=1e-12)  # the Pauli frame at d = 4
    rec = reconstruct_unique(random_process(5, 2, rng))
    assert rec.condition == pytest.approx(752.8008, rel=1e-6)  # the spanning set at d = 5


def test_dual_frame_rejects_singular_gram():
    Z = Observable(np.diag([1.0, -1.0]))
    with pytest.raises(SingularSystem):
        _basis([Observable(np.eye(2)), Z, Z, Observable(-np.eye(2))], 2).frame


def test_causality_witness_values():
    sot = canonical_sot(qutrit_reference_process())
    min_eig, negativity = causality_witness(sot)
    assert np.isclose(min_eig, -0.5, atol=1e-10)
    assert np.isclose(negativity, 1.0, atol=1e-10)

    rng = np.random.default_rng(4)
    proc = Process(discard_prepare(random_density(2, rng)), random_density(2, rng))
    _, neg = causality_witness(canonical_sot(proc))
    assert neg < 1e-10

    zero = StateOverTime(np.zeros((4, 4)), 2, 2, "closed-form")
    assert causality_witness(zero) == (0.0, 0.0)


def test_causality_witness_negativity_is_positive_zero():
    for sot in (canonical_sot(Process(identity_channel(1), np.eye(1))),
                StateOverTime(np.zeros((4, 4)), 2, 2, "closed-form")):
        _, negativity = causality_witness(sot)
        assert negativity == 0.0
        assert math.copysign(1.0, negativity) == 1.0


def test_maximality_counterexample_three_level():
    proc, O_B, residual = maximality_counterexample(Observable(np.diag([2.0, 0.0, -2.0])))
    assert residual > 1e-6
    # the returned data reproduce the residual
    X = canonical_sot(proc).matrix
    dev = abs(
        two_time_ev(proc, Observable(np.diag([2.0, 0.0, -2.0])), O_B)
        - np.trace(X @ tensor(np.diag([2.0, 0.0, -2.0]), O_B.matrix)).real
    )
    assert np.isclose(dev, residual)


def test_maximality_counterexample_projector_case():
    _, _, residual = maximality_counterexample(Observable(np.diag([1.0, 1.0, 0.0])))
    assert residual > 1e-6


def test_maximality_counterexample_rejects_light_touch():
    with pytest.raises(IsLightTouch):
        maximality_counterexample(Observable(np.diag([1.0, -1.0])))


def test_maximality_counterexample_random():
    rng = np.random.default_rng(5)
    for d in (2, 3, 4):
        for _ in range(5):
            O_A = Observable(random_hermitian(d, rng))
            if O_A.is_light_touch:
                continue
            _, _, residual = maximality_counterexample(O_A)
            assert residual > 1e-6


def test_pauli_coefficient_roundtrip():
    rng = np.random.default_rng(6)
    basis = pauli_basis(2)
    for _ in range(25):
        R = random_hermitian(4, rng)
        coeffs = [np.trace(R @ s.matrix).real / 4 for s in basis]
        recon = sum(c * s.matrix for c, s in zip(coeffs, basis))
        assert np.linalg.norm(recon - R) < 1e-10


def test_product_vector_nondegeneracy():
    # a nonzero hermitian operator has a nonvanishing product-vector expectation
    rng = np.random.default_rng(7)
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        Y = random_hermitian(m * n, rng)
        best = 0.0
        for _ in range(500):
            psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = np.kron(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi))
            best = max(best, abs(v.conj() @ Y @ v))
        assert best > 1e-6
