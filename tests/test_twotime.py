import numpy as np
import pytest

from qsot import (
    InvalidParameter,
    Observable,
    Process,
    canonical_sot,
    discard_prepare,
    identity_channel,
    joint_distribution,
    light_touch_probes,
    nonrepresentable_witness,
    random_channel,
    random_density,
    random_hermitian,
    random_process,
    representability_residual,
    tensor,
    two_time_ev,
)
from qsot.channels import apply
from qsot.observables import PAULI
from qsot.twotime import general_probes, sot_trace_value

MINUS = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)


def four_vector(y0, y1, y2, y3):
    return y0 * PAULI[0] + y1 * PAULI[1] + y2 * PAULI[2] + y3 * PAULI[3]


def test_joint_distribution_repeatability():
    proc = Process(identity_channel(2), np.eye(2) / 2)
    dist = joint_distribution(proc, Observable(PAULI[3]), Observable(PAULI[3]))
    assert np.allclose(dist.probs, np.diag([0.5, 0.5]))
    assert np.allclose(dist.outcomes_A, [-1, 1])


def test_joint_distribution_product_form_for_discard_prepare():
    rng = np.random.default_rng(0)
    sigma = random_density(2, rng)
    rho = random_density(2, rng)
    proc = Process(discard_prepare(sigma), rho)
    O_A = Observable(random_hermitian(2, rng))
    O_B = Observable(random_hermitian(2, rng))
    dist = joint_distribution(proc, O_A, O_B)
    pA = np.array([np.trace(rho @ P).real for P in O_A.spectral.projectors])
    pB = np.array([np.trace(sigma @ Q).real for Q in O_B.spectral.projectors])
    assert np.linalg.norm(dist.probs - np.outer(pA, pB)) < 1e-10


def test_joint_distribution_trivial_first_observable():
    rng = np.random.default_rng(1)
    proc = random_process(2, 3, rng)
    O_B = Observable(random_hermitian(3, rng))
    dist = joint_distribution(proc, Observable(np.eye(2)), O_B)
    assert dist.probs.shape[0] == 1
    evolved = apply(proc.channel, proc.rho)
    for j, Q in enumerate(O_B.spectral.projectors):
        assert np.isclose(dist.probs[0, j], np.trace(evolved @ Q).real)


def test_joint_distribution_marginals():
    rng = np.random.default_rng(2)
    for _ in range(10):
        proc = random_process(3, 2, rng)
        O_A = Observable(random_hermitian(3, rng))
        O_B = Observable(random_hermitian(2, rng))
        dist = joint_distribution(proc, O_A, O_B)
        assert np.isclose(dist.probs.sum(), 1.0)
        pA = dist.probs.sum(axis=1)
        for i, P in enumerate(O_A.spectral.projectors):
            assert np.isclose(pA[i], np.trace(proc.rho @ P).real, atol=1e-10)
        # conditional factorization wherever the first marginal is nonzero
        for i in range(len(pA)):
            if pA[i] > 1e-12:
                cond = dist.probs[i] / pA[i]
                assert np.isclose(cond.sum(), 1.0, atol=1e-9)
        expectation = dist.outcomes_A @ dist.probs @ dist.outcomes_B
        assert np.isclose(expectation, two_time_ev(proc, O_A, O_B))


def test_one_time_marginal_identities():
    rng = np.random.default_rng(3)
    for _ in range(20):
        proc = random_process(2, 3, rng)
        O_A = Observable(random_hermitian(2, rng))
        O_B = Observable(random_hermitian(3, rng))
        assert np.isclose(
            two_time_ev(proc, O_A, Observable(np.eye(3))),
            np.trace(proc.rho @ O_A.matrix).real,
            atol=1e-10,
        )
        assert np.isclose(
            two_time_ev(proc, Observable(np.eye(2)), O_B),
            np.trace(apply(proc.channel, proc.rho) @ O_B.matrix).real,
            atol=1e-10,
        )


def test_qubit_counterexample_values():
    # identity channel on |-><-| with the two non-commuting first observables
    proc = Process(identity_channel(2), MINUS)
    O1 = Observable(four_vector(1, 1, 0, 0))
    O2 = Observable(four_vector(-1, 0, 1, 0))
    diff = Observable(O1.matrix - O2.matrix)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b, c, d = rng.standard_normal(4)
        O_B = Observable(four_vector(a, b, c, d))
        assert abs(two_time_ev(proc, O1, O_B)) < 1e-12
        assert np.isclose(two_time_ev(proc, O2, O_B), c - a, atol=1e-10)
        assert np.isclose(two_time_ev(proc, diff, O_B), a, atol=1e-10)
        # nonlinearity gap equals the second-Pauli coefficient of O_B
        gap = (
            two_time_ev(proc, diff, O_B)
            - two_time_ev(proc, O1, O_B)
            + two_time_ev(proc, O2, O_B)
        )
        assert np.isclose(gap, c, atol=1e-10)


def test_maximally_mixed_input_bilinear():
    rng = np.random.default_rng(5)
    for dA, dB in [(2, 2), (2, 3), (3, 2)]:
        chan = random_channel(dA, dB, rng)
        proc = Process(chan, np.eye(dA) / dA)
        X = chan.jamiolkowski / dA
        for _ in range(10):
            O_A = Observable(random_hermitian(dA, rng))
            O_B = Observable(random_hermitian(dB, rng))
            assert np.isclose(
                two_time_ev(proc, O_A, O_B),
                np.trace(X @ tensor(O_A.matrix, O_B.matrix)).real,
                atol=1e-10,
            )


def test_second_argument_linearity():
    rng = np.random.default_rng(6)
    proc = random_process(3, 3, rng)
    O_A = Observable(random_hermitian(3, rng))
    B1 = Observable(random_hermitian(3, rng))
    B2 = Observable(random_hermitian(3, rng))
    a, b = 0.7, -1.3
    combo = Observable(a * B1.matrix + b * B2.matrix)
    assert np.isclose(
        two_time_ev(proc, O_A, combo),
        a * two_time_ev(proc, O_A, B1) + b * two_time_ev(proc, O_A, B2),
        atol=1e-9,
    )


def test_qubit_traceless_sector_bilinearity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        proc = random_process(2, 2, rng)
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        a, b = rng.standard_normal(2)
        Ox = Observable(four_vector(0, *x))
        Oy = Observable(four_vector(0, *y))
        combo = Observable(a * Ox.matrix + b * Oy.matrix)
        O_B = Observable(random_hermitian(2, rng))
        assert np.isclose(
            two_time_ev(proc, combo, O_B),
            a * two_time_ev(proc, Ox, O_B) + b * two_time_ev(proc, Oy, O_B),
            atol=1e-9,
        )


def test_eigenvalue_shift_coherence():
    # shifting the first observable by t adds t times the second-measurement
    # expectation on the dephased (post-first-measurement) state, since the
    # projectors are unchanged while every eigenvalue moves by t
    rng = np.random.default_rng(8)
    proc = random_process(3, 2, rng)
    O_A = Observable(random_hermitian(3, rng))
    O_B = Observable(random_hermitian(2, rng))
    base = two_time_ev(proc, O_A, O_B)
    dephased = sum(P @ proc.rho @ P for P in O_A.spectral.projectors)
    tr_B = np.trace(apply(proc.channel, dephased) @ O_B.matrix).real
    for t in (0.5, -1.7, 3.0):
        shifted = Observable(O_A.matrix + t * np.eye(3))
        assert np.isclose(two_time_ev(proc, shifted, O_B), base + t * tr_B, atol=1e-9)


def test_light_touch_residual_vanishes():
    rng = np.random.default_rng(9)
    for dA, dB in [(2, 2), (2, 3), (3, 2)]:
        proc = random_process(dA, dB, rng)
        X = canonical_sot(proc).matrix
        res = representability_residual(proc, X, light_touch_probes(dA, dB))
        assert res <= 1e-10


def test_discard_prepare_fully_representable():
    rng = np.random.default_rng(10)
    sigma = random_density(3, rng)
    rho = random_density(2, rng)
    proc = Process(discard_prepare(sigma, dim_in=2), rho)
    X = tensor(rho, sigma)
    res = representability_residual(proc, X, general_probes(2, 3, rng))
    assert res <= 1e-10


def test_sot_trace_value_matches_direct_trace():
    rng = np.random.default_rng(11)
    X = random_hermitian(4, rng)
    O_A = Observable(random_hermitian(2, rng))
    O_B = Observable(random_hermitian(2, rng))
    want = np.trace(X @ tensor(O_A.matrix, O_B.matrix)).real
    assert np.isclose(sot_trace_value(X, O_A, O_B), want)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 4), (4, 2)])
def test_witness_gap_and_residuals(m, n):
    witness = nonrepresentable_witness(m, n)
    assert np.isclose(witness.gap, 2.0, atol=1e-10)
    X = canonical_sot(witness.process).matrix
    assert representability_residual(witness.process, X, light_touch_probes(m, n)) <= 1e-10
    probe = [(witness.O_A_diff, witness.O_B)]
    assert representability_residual(witness.process, X, probe) > 0.1


def test_witness_gap_tracks_parameters():
    for a, c in [(0.0, 1.0), (1.0, 2.0), (-0.5, -3.0)]:
        witness = nonrepresentable_witness(2, 2, a=a, c=c)
        assert np.isclose(witness.gap, c, atol=1e-10)


def test_witness_rejects_small_dimensions():
    with pytest.raises(InvalidParameter):
        nonrepresentable_witness(1, 2)
