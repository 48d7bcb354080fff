"""The input boundary: every array argument enters through ``linalg.as_array``.

Bad input (strings, ragged nestings, complex values where real ones are expected,
NaN, Inf, wrong shapes) raises a QsotError subclass and no warning; valid input gives
the array ``np.asarray`` gives. Integer arguments, every dimension and count among
them, go through ``linalg.as_int``.
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
    depolarizing,
    discard_prepare,
    estimate_ev,
    estimate_pdm,
    hermitian_basis,
    identity_channel,
    isometry_embed,
    light_touch_probes,
    light_touch_spanning_set,
    nonrepresentable_witness,
    partial_trace,
    pauli_basis,
    pauli_string,
    pdm_from_correlations,
    random_channel,
    random_density,
    random_hermitian,
    random_process,
    representability_residual,
    sample_sequential,
    sic_fiducial_w,
    sic_povm,
    tensor,
    trace_grid,
    weyl_heisenberg,
)
from qsot import io, verify
from qsot.cli import main
from qsot.linalg import as_array
from qsot.twotime import general_probes
from qsot.verify import run_suites, verify_theorems

NAN, INF = float("nan"), float("inf")
ONE = io.matrix_to_json(np.eye(1))
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
        (np.zeros((1, 0, 0)), InvalidParameter),  # zero input and output dimension
        (np.zeros((1, 2, 0)), InvalidParameter),
        ([np.zeros((2, 0))], InvalidParameter),
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


@pytest.mark.parametrize("empty", ["A", "B"])
def test_trace_grid_reads_x_before_an_empty_list(empty):
    # representability_residual rejects these X too, with or without probes.
    lists = ([], H2) if empty == "A" else (P1, [])
    for X, error in (("abc", InvalidParameter), (np.full((4, 4), NAN), NumericalFailure)):
        with pytest.raises(error):
            trace_grid(X, *lists)
    assert trace_grid(np.eye(4), *lists).shape == (len(lists[0]), len(lists[1]))


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


@pytest.mark.parametrize("call", [lambda: run_suites(["theorems"], dims=()),
                                  lambda: verify_theorems(dims=(), trials=1)],
                         ids=["run_suites", "verify_theorems"])
def test_empty_dims_is_rejected_not_passed(call):
    # With no dimension no claim is checked, so no claim may pass.
    with pytest.raises(InvalidParameter, match="^dims must name at least one dimension$"):
        call()


@pytest.mark.parametrize("bad", [{"tol": NAN}, {"tol": INF}, {"tol": -1.0}, {"tol": True},
                                 {"tol": "0.1"}, {"seed": -1}, {"seed": 2**64}, {"seed": 1.5},
                                 {"seed": "7"}, {"seed": True}], ids=repr)
def test_run_suites_checks_seed_and_tol_before_any_suite_runs(bad, monkeypatch):
    ran = []
    monkeypatch.setattr(verify, "verify_sic", lambda seed: ran.append(seed))
    with pytest.raises(InvalidParameter, match=f"^{next(iter(bad))} must "):
        run_suites(["sic"], **bad)
    assert not ran
    if "seed" in bad:
        with pytest.raises(InvalidParameter, match="^seed must "):
            verify_theorems(dims=(2,), trials=1, **bad)


@pytest.mark.parametrize("suite", [verify.verify_nogo, verify.verify_sic], ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", [-1, True, "x", 2**64], ids=repr)
def test_each_suite_called_directly_checks_its_seed(suite, seed):
    with pytest.raises(InvalidParameter, match="^seed must "):
        suite(seed=seed)


def test_run_suites_takes_every_seed_and_tol_in_range():
    for seed, tol in ((0, 0), (np.uint64(2**64 - 1), 1e-3), (np.int8(5), np.float32(0.5))):
        (report,) = run_suites(["sic"], seed=seed, tol=tol)
        assert report.seed == seed and type(report.seed) is int
        assert {c.tolerance for c in report.claims} == {float(tol)}


# Each dimension or count argument: the call and its least value; 2 is valid for every one.
BAD_DIMENSIONS = [2.0, True, "2", None, 0, -1]
RNG = np.random.default_rng(0)
EVS = np.eye(4)
DIMENSIONS = {
    "identity_channel": (identity_channel, 1),
    "discard_prepare dim_in": (lambda d: discard_prepare(np.eye(2) / 2, dim_in=d), 1),
    "depolarizing": (lambda d: depolarizing(d, 0.5), 1),
    "isometry_embed m": (lambda d: isometry_embed(d, 2), 2),
    "isometry_embed n": (lambda d: isometry_embed(2, d), 2),
    "nonrepresentable_witness m": (lambda d: nonrepresentable_witness(d, 2), 2),
    "nonrepresentable_witness n": (lambda d: nonrepresentable_witness(2, d), 2),
    "random_channel dim_in": (lambda d: random_channel(d, 2, RNG), 1),
    "random_channel dim_out": (lambda d: random_channel(2, d, RNG), 1),
    "random_channel env_dim": (lambda d: random_channel(2, 2, RNG, env_dim=d), 1),
    "random_density": (lambda d: random_density(d, RNG), 1),
    "random_hermitian": (lambda d: random_hermitian(d, RNG), 1),
    "random_process dim_in": (lambda d: random_process(d, 2, RNG), 1),
    "random_process dim_out": (lambda d: random_process(2, d, RNG), 1),
    "pauli_basis": (pauli_basis, 1),
    "hermitian_basis": (hermitian_basis, 1),
    "light_touch_spanning_set": (light_touch_spanning_set, 1),
    "weyl_heisenberg d": (lambda d: weyl_heisenberg(0, 0, d), 1),
    "partial_trace dimA": (lambda d: partial_trace(np.eye(4), d, 2, "A"), 1),
    "partial_trace dimB": (lambda d: partial_trace(np.eye(4), 2, d, "B"), 1),
    "light_touch_probes dim_in": (lambda d: light_touch_probes(d, 2), 1),
    "light_touch_probes dim_out": (lambda d: light_touch_probes(2, d), 1),
    "general_probes dim_in": (lambda d: general_probes(d, 2, RNG), 1),
    "general_probes dim_out": (lambda d: general_probes(2, d, RNG), 1),
    "pdm_from_correlations dimA": (lambda d: pdm_from_correlations(d, 2, P1, H2, EVS), 1),
    "pdm_from_correlations dimB": (lambda d: pdm_from_correlations(2, d, P1, H2, EVS), 1),
    "verify_theorems trials": (lambda n: verify_theorems(dims=(2,), trials=n), 1),
}
DEFAULTS_TO_NONE = ("discard_prepare dim_in", "random_channel env_dim")


@pytest.mark.parametrize("name", DIMENSIONS)
def test_bad_dimension_raises_invalid_parameter_and_no_warning(name):
    call, least = DIMENSIONS[name]
    bad = BAD_DIMENSIONS + [1] * (least == 2)
    for d in bad:
        if d is None and name in DEFAULTS_TO_NONE:  # None is the documented default
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter, match=rf"must be an integer at least {least}, "):
                call(d)
    call(np.int64(2))


def test_light_touch_probes_reads_the_dimension_before_the_frame_cache():
    light_touch_probes(2, 2)  # 2.0 hashes like 2: a cached (2, 2) entry must not answer it
    with pytest.raises(InvalidParameter):
        light_touch_probes(2.0, 2)


def test_pauli_string_takes_integer_indices():
    for alpha in ([True], [1.0], ["1"], [0, None]):
        with pytest.raises(InvalidParameter):
            pauli_string(alpha)
    assert np.array_equal(pauli_string([np.int64(1), np.uint8(3)]).matrix,
                          pauli_string([1, 3]).matrix)
    with pytest.raises(InvalidIndex):
        pauli_string([4])


def test_sic_projector_takes_indices_in_range():
    povm = sic_povm(sic_fiducial_w(0.0))
    for j, k in ((0, 5), (-1, 0), (3, 0), (0, 3)):
        with pytest.raises(InvalidIndex):
            povm.projector(j, k)
    for j, k in ((1.5, 0), (0, True), ("1", 0)):
        with pytest.raises(InvalidParameter):
            povm.projector(j, k)
    assert povm.projector(np.int64(1), 2) is povm.projectors[5]


@pytest.mark.parametrize("x", [1e200, 1e150])  # the products overflow, or only the variance
def test_estimate_ev_overflow_raises_numerical_failure_and_no_warning(x):
    record = ShotRecord(counts=np.array([[1, 1]]), shots=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure, match="overflow the float range"):
            estimate_ev(record, [x], [x, -x])


# A size a document declares: the payload with the size set, and the reader of the payload.
DECLARED = {
    "dim": (lambda v: {"dim": v, "matrix": ONE}, io.state_from_payload),
    "dim_in": (lambda v: {"dim_in": v, "kraus": [ONE]}, io.channel_from_payload),
    "dim_out": (lambda v: {"dim_out": v, "kraus": [ONE]}, io.channel_from_payload),
}


@pytest.mark.parametrize("key", DECLARED)
@pytest.mark.parametrize("value", [1.0, True, "1", None, [1]])
def test_a_declared_size_that_is_not_an_integer_is_a_parse_error(key, value):
    payload, read = DECLARED[key]
    with pytest.raises(io.ParseError, match=rf"^declared {key} must be an integer, got "):
        read(payload(value))
    read(payload(1))
    with pytest.raises(io.ParseError, match=rf"declared {key}$|with Kraus shapes$"):
        read(payload(2))


def test_sample_names_an_observable_whose_matrix_disagrees_with_its_dim(tmp_path, capsys):
    process, observable = tmp_path / "process.json", tmp_path / "observable.json"
    io.dump_document(io.process_doc(QUBIT), str(process))
    io.dump_document(io.envelope("observable", {"dim": 3, "matrix": io.matrix_to_json(np.eye(2))}),
                     str(observable))
    assert main(["sample", str(process), str(observable), str(observable), "--shots", "10"]) == 2
    assert capsys.readouterr().err == (
        "parse error: observable matrix shape disagrees with declared dim\n")


@pytest.mark.parametrize("entry", [[True, False], [1.0, True], [False, 0]])
def test_a_boolean_matrix_entry_is_a_parse_error(entry, tmp_path, capsys):
    # Python's complex() reads True as 1, so [true, false] once parsed as the entry 1.
    with pytest.raises(io.ParseError, match="boolean"):
        io.matrix_from_json([[entry]])
    doc = io.envelope("process", {"channel": {"kraus": [[[entry]]]},
                                  "state": {"dim": 1, "matrix": [[entry]]}})
    path = tmp_path / "process.json"
    io.dump_document(doc, str(path))
    assert main(["sot", str(path)]) == 2
    assert capsys.readouterr().err == (
        "parse error: malformed matrix: an entry is a boolean, not a number\n")


@pytest.mark.parametrize("key", DECLARED)
def test_a_document_declaring_a_float_size_exits_2_naming_the_field(key, tmp_path, capsys):
    doc = io.process_doc(Process(identity_channel(1), np.eye(1)))
    part = doc["payload"]["state" if key == "dim" else "channel"]
    part[key] = 1.0
    path = tmp_path / "process.json"
    io.dump_document(doc, str(path))
    assert main(["sot", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"parse error: declared {key} must be an integer, got 1.0\n")
