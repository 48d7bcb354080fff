import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qsot import (
    IndexOutOfRange,
    InvalidParameter,
    Observable,
    Process,
    ShotRecord,
    canonical_sot,
    estimate_ev,
    estimate_pdm,
    hermitian_basis,
    identity_channel,
    joint_distribution,
    light_touch_basis_qutrit,
    light_touch_spanning_set,
    pauli_basis,
    pdm_from_correlations,
    random_process,
    sample_sequential,
    sic_fiducial_w,
    sic_povm,
    two_time_ev,
)
from qsot import sampler
from qsot.observables import PAULI
from qsot.sampler import _rng
from qsot.twotime import _joint_table, _records


def test_deterministic_outcome():
    proc = Process(identity_channel(2), np.diag([1.0, 0.0]))
    sz = Observable(PAULI[3])
    record = sample_sequential(proc, sz, sz, 1000, seed=5)
    # outcomes are ascending, so (+1, +1) sits at index (1, 1)
    assert record.count(1, 1) == 1000
    assert record.counts.sum() == 1000
    mean, stderr = estimate_ev(record, sz.spectral.eigenvalues, sz.spectral.eigenvalues)
    assert mean == 1.0
    assert stderr == 0.0


def test_repeatability_through_identity_channel():
    proc = Process(identity_channel(2), np.eye(2) / 2)
    sz = Observable(PAULI[3])
    record = sample_sequential(proc, sz, sz, 100000, seed=11)
    assert record.count(0, 1) == 0
    assert record.count(1, 0) == 0
    frac = record.count(0, 0) / record.shots
    assert abs(frac - 0.5) < 0.01


def test_determinism_across_calls_and_shards():
    rng = np.random.default_rng(0)
    proc = random_process(2, 2, rng)
    O_A = Observable(PAULI[1])
    O_B = Observable(PAULI[3])
    shots = 50_000
    r1 = sample_sequential(proc, O_A, O_B, shots, seed=42)
    r2 = sample_sequential(proc, O_A, O_B, shots, seed=42)
    assert np.array_equal(r1.counts, r2.counts)
    r3 = sample_sequential(proc, O_A, O_B, shots, seed=43)
    assert not np.array_equal(r1.counts, r3.counts)


def test_empirical_frequencies_match_joint_distribution():
    rng = np.random.default_rng(1)
    proc = random_process(3, 2, rng)
    O_A = Observable(np.diag([2.0, 0.0, -1.0]))
    O_B = Observable(PAULI[3])
    shots = 200000
    record = sample_sequential(proc, O_A, O_B, shots, seed=7)
    dist = joint_distribution(proc, O_A, O_B)
    tv = 0.5 * np.abs(record.counts / shots - dist.probs).sum()
    assert tv < 0.01


def test_count_rejects_indices_outside_the_counts():
    record = ShotRecord(counts=np.array([[1, 2, 3], [4, 5, 6]]), shots=21, seed=0)
    assert record.count(1, 2) == 6 and record.count(0, 0) == 1
    for i, j in [(-1, -1), (-1, 0), (0, -1), (2, 0), (5, 0), (0, 3)]:
        with pytest.raises(IndexOutOfRange):
            record.count(i, j)


def test_estimate_ev_validation():
    record = ShotRecord(counts=np.array([[10, 0], [0, 10]]), shots=20, seed=0)
    mean, stderr = estimate_ev(record, [-1.0, 1.0], [-1.0, 1.0])
    assert mean == 1.0 and stderr == 0.0
    with pytest.raises(IndexOutOfRange):
        estimate_ev(record, [-1.0, 0.0, 1.0], [-1.0, 1.0])
    for shots in (0, 19, 21):  # the counts sum to 20
        with pytest.raises(InvalidParameter):
            ShotRecord(counts=record.counts, shots=shots, seed=0)


def test_shot_record_rejects_counts_that_are_not_non_negative_integers():
    # Each sums to the shots, so only the check on the counts themselves rejects it.
    bad = [np.array([[-1, 3]]), np.array([[0.5, 1.5]]), np.array([[1.0, 1.0]]),
           np.array([[True, True]]), np.array([2]), np.array([[[2]]]), [[1, 1]]]
    for counts in bad:
        with pytest.raises(InvalidParameter):
            ShotRecord(counts=counts, shots=2, seed=0)
    for dtype in (np.int8, np.uint64):
        record = ShotRecord(counts=np.array([[1, 1]], dtype=dtype), shots=2, seed=0)
        assert estimate_ev(record, [1.0], [-1.0, 1.0]) == (0.0, 1.0)


def test_shot_record_keeps_a_read_only_copy_of_its_counts():
    counts = np.array([[1, 1]])
    record = ShotRecord(counts=counts, shots=2, seed=0)
    counts[0, 0] = -1  # changing the caller's array leaves the validated record intact
    assert record.counts.tolist() == [[1, 1]] and record.count(0, 0) == 1
    assert not record.counts.flags.writeable
    with pytest.raises(ValueError):
        record.counts[0, 0] = -1
    assert estimate_ev(record, [1.0], [-1.0, 1.0]) == (0.0, 1.0)


def test_concentration_on_random_process():
    rng = np.random.default_rng(2)
    proc = random_process(2, 2, rng)
    O_A = Observable(PAULI[1])
    O_B = Observable(PAULI[2])
    exact = two_time_ev(proc, O_A, O_B)
    hits = 0
    for seed in range(10):
        record = sample_sequential(proc, O_A, O_B, 20000, seed=seed)
        mean, stderr = estimate_ev(
            record, O_A.spectral.eigenvalues, O_B.spectral.eigenvalues
        )
        if abs(mean - exact) <= 5 * max(stderr, 1e-12):
            hits += 1
    assert hits >= 9


def test_qutrit_protocol_concentration():
    proc = Process(identity_channel(3), np.diag([1.0, 0.0, 0.0]))
    basis = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    L00 = basis[0]
    exact = two_time_ev(proc, L00, L00)
    record = sample_sequential(proc, L00, L00, 100000, seed=3)
    mean, stderr = estimate_ev(record, L00.spectral.eigenvalues, L00.spectral.eigenvalues)
    assert abs(mean - exact) <= 5 * max(stderr, 1e-12)


def stream_counts(process, basis_A, basis_B, shots, seed):
    """Each pair's counts, as a (clusters A, clusters B) array, drawn pair by pair on one stream.

    The pairs' joint distributions are the blocks of one ``_joint_table``, as in
    ``estimate_pdm``: a cell at exactly 0 there may hold roundoff in a table of one pair,
    and a binomial draw at p = 0 takes nothing from the stream. In row-major order over the
    pairs, each block, normalized as ``sample_sequential`` normalizes it, is drawn in its
    own multinomial call on one generator ``_rng(seed)``.
    """
    A, B = _records(process, basis_A, basis_B)
    table, starts_A, starts_B, gen = _joint_table(process, A, B), A.starts, B.starts, _rng(seed)
    blocks = [table[starts_A[a]:starts_A[a + 1], starts_B[b]:starts_B[b + 1]]
              for a in range(len(basis_A)) for b in range(len(basis_B))]
    return [gen.multinomial(shots, P.ravel() / P.ravel().sum()).reshape(P.shape) for P in blocks]


def test_estimate_pdm_matches_direct_expansion():
    rng = np.random.default_rng(4)
    proc = random_process(2, 2, rng)
    basis = pauli_basis(1)  # 1, 2 and 4 cells per pair: the grid is padded
    seed, shots = 5, 1000
    counts = iter(stream_counts(proc, basis, basis, shots, seed))
    evs = np.zeros((4, 4))
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            record = ShotRecord(counts=next(counts), shots=shots, seed=seed)
            evs[a, b] = estimate_ev(record, A.spectral.eigenvalues, B.spectral.eigenvalues)[0]
    sot = estimate_pdm(proc, basis, basis, shots, seed=seed)
    direct = pdm_from_correlations(2, 2, basis, basis, evs)
    assert sot.provenance == "sampled"
    assert np.array_equal(sot.matrix, direct.matrix)


def test_estimate_pdm_converges():
    rng = np.random.default_rng(5)
    proc = random_process(2, 2, rng)
    basis = pauli_basis(1)
    sot = estimate_pdm(proc, basis, basis, 200000, seed=9)
    dist = np.linalg.norm(sot.matrix - canonical_sot(proc).matrix)
    assert dist < 0.05


@pytest.mark.parametrize("d", [2, 3, 5])
def test_frobenius_stderr_covers_the_error(d):
    rng = np.random.default_rng(10 + d)
    proc = random_process(d, d, rng)
    basis_A = {2: pauli_basis(1), 3: light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0))),
               5: light_touch_spanning_set(5)}[d]  # the last is not orthogonal
    basis_B = hermitian_basis(d)
    exact = canonical_sot(proc).matrix
    covered = 0
    for seed in range(50):
        sot = estimate_pdm(proc, basis_A, basis_B, 2000, seed=seed)
        assert sot.stderr > 0.0
        covered += np.linalg.norm(sot.matrix - exact) <= 2 * sot.stderr
    assert covered >= 45


def test_sampler_input_validation():
    proc = Process(identity_channel(2), np.diag([1.0, 0.0]))
    sz = Observable(PAULI[3])
    with pytest.raises(InvalidParameter):
        sample_sequential(proc, sz, sz, 0, seed=1)
    with pytest.raises(InvalidParameter):
        estimate_pdm(proc, pauli_basis(1), pauli_basis(1), 0, seed=1)


def test_seed_range_validation():
    proc = Process(identity_channel(2), np.diag([1.0, 0.0]))
    sz = Observable(PAULI[3])
    for seed in (-1, 2**64):
        with pytest.raises(InvalidParameter):
            sample_sequential(proc, sz, sz, 10, seed=seed)
        with pytest.raises(InvalidParameter):
            estimate_pdm(proc, pauli_basis(1), pauli_basis(1), 10, seed=seed)
    assert sample_sequential(proc, sz, sz, 10, seed=2**64 - 1).count(1, 1) == 10


def test_shard_streams_distinct_above_2_pow_63():
    # A list key would pass through float64 here: 2^63 and 2^63 + 1 collide,
    # and 2^64 - 1 would replay seed 0.
    def draws(seed):
        return _rng(seed).random(4)

    assert not np.array_equal(draws(2**63), draws(2**63 + 1))
    assert not np.array_equal(draws(2**64 - 1), draws(0))


def test_shard_streams_below_2_pow_63_unchanged():
    for seed in (0, 5, 0xC0FFEE, 2**32 + 3, 2**63 - 1):
        legacy = np.random.Generator(np.random.Philox(key=[seed, 0])).random(4)
        assert np.array_equal(_rng(seed).random(4), legacy)


def test_estimate_pdm_pair_streams_distinct_at_large_seed():
    # Under the identity channel on the maximally mixed state, the six pairs of distinct
    # Paulis share one uniform joint distribution; each draws its own part of the stream.
    proc = Process(identity_channel(2), np.eye(2) / 2)
    basis = pauli_basis(1)
    shots = 1000
    uniform = [4 * a + b for a in range(1, 4) for b in range(1, 4) if a != b]
    estimates = {}
    for seed in (0, 4_000_000_000, 2**63, 2**64 - 1):
        counts = stream_counts(proc, basis, basis, shots, seed)
        assert len({tuple(counts[k].ravel().tolist()) for k in uniform}) == len(uniform)
        evs = [[estimate_ev(ShotRecord(counts=C, shots=shots, seed=seed),
                            A.spectral.eigenvalues, B.spectral.eigenvalues)[0]
                for B, C in zip(basis, counts[4 * a:4 * a + 4])] for a, A in enumerate(basis)]
        sot = estimate_pdm(proc, basis, basis, shots, seed=seed)
        assert np.array_equal(sot.matrix, pdm_from_correlations(2, 2, basis, basis, evs).matrix)
        estimates[seed] = sot.matrix.tobytes()
    assert len(set(estimates.values())) == len(estimates)


STREAM_SEEDS = (0, 1, 2**32, 2**63 - 1, 2**63, 2**64 - 1)
# _rng(seed).multinomial(1000, [0.1, 0.2, 0.3, 0.4]), recorded while the key was still
# set from numpy uint64 arrays: the streams are pinned by value, not only against _rng.
PINNED_COUNTS = {
    0: [96, 192, 318, 394],
    1: [95, 206, 320, 379],
    2**32: [100, 214, 309, 377],
    2**63 - 1: [91, 199, 293, 417],
    2**63: [120, 191, 298, 391],
    2**64 - 1: [95, 200, 296, 409],
}


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_streams_give_the_pinned_counts(seed):
    assert _rng(seed).multinomial(1000, [0.1, 0.2, 0.3, 0.4]).tolist() == PINNED_COUNTS[seed]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1))
@example(seed=2**63)
@example(seed=2**64 - 1)
def test_rng_is_the_philox_stream_keyed_on_the_seed(seed):
    # The reference keys Philox from a uint64 array, which holds every seed exactly.
    keyed = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    gen = _rng(seed)
    assert gen.integers(0, 2**32, size=3, dtype=np.uint32).tolist() == \
        keyed.integers(0, 2**32, size=3, dtype=np.uint32).tolist()
    assert np.array_equal(gen.multinomial(10**5, [0.5, 0.25, 0.25]),
                          keyed.multinomial(10**5, [0.5, 0.25, 0.25]))


def test_estimate_pdm_builds_one_philox(monkeypatch):
    proc = random_process(4, 4, np.random.default_rng(9))
    built = []
    philox = np.random.Philox

    def counting_philox(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting_philox)
    sot = estimate_pdm(proc, pauli_basis(2), hermitian_basis(4), 100, seed=3)
    assert len(built) == 1
    assert sot.provenance == "sampled"


class RecordingGenerator:
    """A generator that keeps every array its ``multinomial`` returns."""

    def __init__(self, gen, drawn):
        self.gen, self.drawn = gen, drawn

    def multinomial(self, n, pvals):
        self.drawn.append(self.gen.multinomial(n, pvals))
        return self.drawn[-1]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(d=st.sampled_from([2, 3, 5]), shots=st.sampled_from([1, 10**5, 2**62]),
       seed=st.integers(0, 2**64 - 1), process_seed=st.integers(0, 2**32 - 1))
@example(d=5, shots=2**62, seed=0, process_seed=0)
def test_estimate_pdm_leaves_no_count_in_padding(d, shots, seed, process_seed):
    # The spanning set holds the identity (one cluster) and dichotomies (two); hermitian_basis
    # holds two- and, from d = 3 on, three-cluster elements: pairs of 1 to 6 cells, each at
    # the end of its row after the padding. At 2^62 shots numpy leaves roundoff remainders of
    # hundreds of counts in a row's last cell, the pair's own.
    process = random_process(d, d, np.random.default_rng(process_seed))
    basis_A, basis_B = light_touch_spanning_set(d), hermitian_basis(d)
    sizes = [len(A.spectral.eigenvalues) * len(B.spectral.eigenvalues)
             for A in basis_A for B in basis_B]
    assert min(sizes) == 2 and len(set(sizes)) > 1 + (d > 2)
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_rng", lambda key: RecordingGenerator(_rng(key), drawn))
        sot = estimate_pdm(process, basis_A, basis_B, shots, seed)
    (counts,) = drawn
    width = counts.shape[1]
    assert np.all(counts.sum(axis=1) == shots)
    assert all(not row[:width - n].any() for row, n in zip(counts, sizes))
    want = stream_counts(process, basis_A, basis_B, shots, seed)
    assert all(np.array_equal(row[width - n:], C.ravel()) for row, n, C in zip(counts, sizes, want))
    if shots == 2**62:
        # E ||X^ - X||^2 = stderr^2 exactly: 60 such calls gave ratios 0.76 to 1.24, median 1.03.
        assert np.linalg.norm(sot.matrix - canonical_sot(process).matrix) <= 3 * sot.stderr


def test_shots_range():
    proc = Process(identity_channel(2), np.eye(2) / 2)
    sz = Observable(PAULI[3])
    for shots in (0, -1, 2**63, 2**64):
        with pytest.raises(InvalidParameter):
            sample_sequential(proc, sz, sz, shots, seed=1)
        with pytest.raises(InvalidParameter):
            estimate_pdm(proc, pauli_basis(1), pauli_basis(1), shots, seed=1)
    record = sample_sequential(proc, sz, sz, 2**63 - 1, seed=1)
    assert record.counts.sum() == 2**63 - 1


def test_huge_shot_count_is_one_draw():
    rng = np.random.default_rng(8)
    proc = random_process(3, 2, rng)
    O_A = Observable(np.diag([2.0, 0.0, -1.0]))
    O_B = Observable(PAULI[1])
    record = sample_sequential(proc, O_A, O_B, 10**15, seed=3)
    assert record.counts.sum() == 10**15
    dist = joint_distribution(proc, O_A, O_B)
    assert np.abs(record.counts / 10**15 - dist.probs).max() < 1e-6
