"""The input boundary: every array argument enters through ``linalg.as_array``.

Bad input (strings, ragged nestings, complex values where real ones are expected,
NaN, Inf, wrong shapes) raises a QsotError subclass and no warning; valid input gives
the array ``np.asarray`` gives. Integer arguments go through ``linalg.as_int``.
"""

import warnings

import numpy as np
import pytest

from qsot import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidIndex,
    InvalidParameter,
    NumericalFailure,
    Observable,
    Process,
    QuantumChannel,
    ShotRecord,
    apply,
    estimate_ev,
    estimate_pdm,
    hermitian_basis,
    identity_channel,
    partial_trace,
    pauli_basis,
    pdm_from_correlations,
    representability_residual,
    sample_sequential,
    sic_povm,
    tensor,
    trace_grid,
    weyl_heisenberg,
)
from qsot.linalg import as_array
from qsot.verify import run_suites

NAN, INF = float("nan"), float("inf")
QUBIT = Process(identity_channel(2), np.eye(2) / 2)
P1, H2 = pauli_basis(1), hermitian_basis(2)
RECORD = ShotRecord(counts=np.array([[1, 1], [1, 1]]), shots=4, seed=0)


def _with(value, shape, at=0):
    """A float array of shape ``shape``, zero but for ``value`` at flat index ``at``."""
    M = np.zeros(shape)
    M.flat[at] = value
    return M


# Each argument: the call, then (bad input, the error it must raise) pairs.
MATRIX_2x2 = [
    ([["a", "b"], ["c", "d"]], InvalidParameter),
    ("ab", InvalidParameter),
    ([[None, 0], [0, 1]], InvalidParameter),
    ([[1, 2], [3]], DimensionMismatch),
    (_with(NAN, (2, 2)), NumericalFailure),
    (_with(INF, (2, 2), at=3), NumericalFailure),
    (np.ones(2), DimensionMismatch),
    (np.ones((1, 2, 2)), DimensionMismatch),
]
SOT_4x4 = MATRIX_2x2[:4] + [
    (np.full((4, 4), NAN), NumericalFailure),
    (_with(-INF, (4, 4), at=5), NumericalFailure),
    (np.eye(3), DimensionMismatch),
    (np.eye(2), DimensionMismatch),
]
EVS_4x4 = SOT_4x4 + [
    (np.full((4, 4), 1j), InvalidParameter),
    (np.zeros((4, 4), dtype=complex), InvalidParameter),  # zero imaginary parts too
    (np.zeros((4, 3)), DimensionMismatch),
    (np.zeros((3, 4)), DimensionMismatch),
]
OUTCOMES_2 = [
    (["a", "b"], InvalidParameter),
    ([[1.0], [1.0, 2.0]], DimensionMismatch),
    ([1j, 1.0], InvalidParameter),
    (np.array([-1.0, 1.0], dtype=complex), InvalidParameter),
    ([NAN, 1.0], NumericalFailure),
    ([-1.0, INF], NumericalFailure),
    ([[-1.0, 1.0]], DimensionMismatch),
    ([-1.0, 0.0, 1.0], IndexOutOfRange),  # one outcome per row of the counts
]
FIDUCIAL = [
    (["a", "b", "c"], InvalidParameter),
    ([[1, 0], [0]], DimensionMismatch),
    ([NAN, 0, 0], NumericalFailure),
    ([INF, 0, 0], NumericalFailure),
    ([1, 0], DimensionMismatch),
    (np.eye(3), DimensionMismatch),
    ([[1, 0, 0]], DimensionMismatch),
]
CASES = {
    "Observable": (Observable, MATRIX_2x2),
    "Process": (lambda x: Process(identity_channel(2), x), MATRIX_2x2),
    "QuantumChannel": (lambda x: QuantumChannel([x]), MATRIX_2x2),
    "QuantumChannel stack": (QuantumChannel, [
        ([np.eye(2), np.eye(3)], DimensionMismatch),
        ([[["a"]]], InvalidParameter),
        ([np.eye(2), _with(NAN, (2, 2))], NumericalFailure),
        (np.ones((2, 2)), DimensionMismatch),
    ]),
    "apply": (lambda x: apply(identity_channel(2), x), MATRIX_2x2),
    "partial_trace": (lambda x: partial_trace(x, 2, 2, "A"), SOT_4x4),
    "tensor first": (lambda x: tensor(x, np.eye(2)), MATRIX_2x2),
    "tensor second": (lambda x: tensor(np.eye(2), x), MATRIX_2x2),
    "trace_grid": (lambda x: trace_grid(x, P1, H2), SOT_4x4),
    "representability_residual": (
        lambda x: representability_residual(QUBIT, x, [(P1[1], H2[0])]), SOT_4x4),
    "pdm_from_correlations": (lambda x: pdm_from_correlations(2, 2, P1, H2, x), EVS_4x4),
    "estimate_ev outcomes_A": (lambda x: estimate_ev(RECORD, x, [-1.0, 1.0]), OUTCOMES_2),
    "estimate_ev outcomes_B": (lambda x: estimate_ev(RECORD, [-1.0, 1.0], x), OUTCOMES_2),
    "sic_povm": (sic_povm, FIDUCIAL),
}


@pytest.mark.parametrize("name", CASES)
def test_bad_input_raises_a_qsot_error_and_no_warning(name):
    call, cases = CASES[name]
    for x, error in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                call(x)


VALID = [
    [[1, 2], [3, 4]],
    [[1.5, -2.0, 0.25]],
    [[1, 2.5], [True, 3]],
    [[1 + 2j, 0], [0, -1j]],
    np.arange(6).reshape(2, 3),
    np.arange(6, dtype=np.uint8).reshape(3, 2),
    np.linspace(-1.0, 1.0, 9).reshape(3, 3),
    np.linspace(-1.0, 1.0, 4, dtype=np.float32).reshape(2, 2),
    np.zeros((0, 0)),
]


@pytest.mark.parametrize("x", VALID, ids=range(len(VALID)))
def test_valid_input_is_exactly_np_asarray(x):
    got, want = as_array(x), np.asarray(x, dtype=complex)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if not np.iscomplexobj(np.asarray(x)):
        real = as_array(x, dtype=float)
        assert real.dtype == float and real.tobytes() == np.asarray(x, dtype=float).tobytes()


def test_a_complex_array_passes_through_uncopied():
    M = np.eye(3, dtype=complex)
    assert as_array(M) is M and as_array(M, (3, 3)) is M
    v = np.ones(4)
    assert as_array(v, (None,), float) is v


def test_shape_accepts_any_length_at_none():
    assert as_array(np.zeros((2, 5)), (2, None)).shape == (2, 5)
    with pytest.raises(DimensionMismatch, match=r"expected shape \(3, None\), got \(2, 5\)"):
        as_array(np.zeros((2, 5)), (3, None))


def test_shots_and_seed_must_be_integers():
    # A float count of shots must not be truncated for the draw and kept for the means.
    for shots, seed in ((10.5, 1), (10.0, 1), (True, 1), ("10", 1), (10, 1.0), (10, False)):
        with pytest.raises(InvalidParameter, match="must be an integer"):
            estimate_pdm(QUBIT, P1, H2, shots, seed)
        with pytest.raises(InvalidParameter, match="must be an integer"):
            sample_sequential(QUBIT, P1[3], H2[0], shots, seed)
    a = estimate_pdm(QUBIT, P1, H2, np.int64(10), np.uint64(1))
    b = estimate_pdm(QUBIT, P1, H2, 10, 1)
    assert np.array_equal(a.matrix, b.matrix) and a.stderr == b.stderr


def test_shot_record_checks_shots_and_seed():
    counts = RECORD.counts
    for shots, seed in ((4.0, 0), (True, 0), (4, -5), (4, 2.0), (4, 1 << 64)):
        with pytest.raises(InvalidParameter):
            ShotRecord(counts=counts, shots=shots, seed=seed)
    assert ShotRecord(counts=counts, shots=np.int32(4), seed=np.uint64(7)).count(1, 1) == 1


def test_shot_record_count_takes_integer_indices():
    for i, j in ((0.0, 0), (0, 1.0), (True, 0), ("0", 0)):
        with pytest.raises(InvalidParameter):
            RECORD.count(i, j)
    assert RECORD.count(np.int64(1), np.uint8(0)) == 1
    with pytest.raises(IndexOutOfRange):
        RECORD.count(-1, 0)


def test_weyl_heisenberg_takes_integer_indices():
    # A fractional index would give phases omega^(1.5 l), which no SIC operator has.
    for j, k in ((1.5, 0), (0, 2.0), (True, 0), ("1", 0)):
        with pytest.raises(InvalidParameter):
            weyl_heisenberg(j, k)
    assert np.array_equal(weyl_heisenberg(np.int64(1), np.int8(2)), weyl_heisenberg(1, 2))
    with pytest.raises(InvalidIndex):
        weyl_heisenberg(3, 0)


def test_run_suites_rejects_an_unknown_suite():
    with pytest.raises(InvalidParameter, match="unknown suite 'bogus'"):
        run_suites(["bogus"])
