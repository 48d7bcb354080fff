import numpy as np
import pytest

from qsot import (
    FailedOverlapCondition,
    InvalidIndex,
    Observable,
    ParameterOutOfRange,
    Process,
    canonical_sot,
    classify_light_touch,
    hermitian_basis,
    identity_channel,
    joint_distribution,
    light_touch_basis_qutrit,
    light_touch_spanning_set,
    nonrepresentable_witness,
    pauli_basis,
    pauli_string,
    random_process,
    sample_sequential,
    sic_fiducial_v,
    sic_fiducial_w,
    sic_povm,
    two_time_ev,
    weyl_heisenberg,
)
from qsot.observables import gram_matrix
from qsot.twotime import sot_trace_value

W3 = np.exp(2j * np.pi / 3)
H3 = np.exp(1j * np.pi / 3)  # principal half power of W3

# The nine phase-decorated shift operators for d = 3, entrywise.
G_TABLE = {
    (0, 0): np.eye(3),
    (0, 1): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
    (0, 2): np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    (1, 0): np.diag([1, W3, W3.conjugate()]),
    (1, 1): np.array([[0, 0, H3.conjugate()], [H3, 0, 0], [0, -1, 0]]),
    (1, 2): np.array([[0, W3.conjugate(), 0], [0, 0, 1], [W3, 0, 0]]),
    (2, 0): np.diag([1, W3.conjugate(), W3]),
    (2, 1): np.array([[0, 0, W3.conjugate()], [W3, 0, 0], [0, 1, 0]]),
    (2, 2): np.array([[0, W3, 0], [0, 0, 1], [W3.conjugate(), 0, 0]]),
}

# The Weyl-Heisenberg orbit of (1, 1, 0)/sqrt(2), entrywise.
PSI_TABLE = {
    (0, 0): [1, 1, 0],
    (0, 1): [0, 1, 1],
    (0, 2): [1, 0, 1],
    (1, 0): [1, W3, 0],
    (1, 1): [0, H3, -1],
    (1, 2): [W3.conjugate(), 0, W3],
    (2, 0): [1, W3.conjugate(), 0],
    (2, 1): [0, W3, 1],
    (2, 2): [W3, 0, W3.conjugate()],
}

# The induced dichotomous basis 2|psi><psi| - 1, entrywise.
L_TABLE = {
    (0, 0): np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]]),
    (0, 1): np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0]]),
    (0, 2): np.array([[0, 0, 1], [0, -1, 0], [1, 0, 0]]),
    (1, 0): np.array([[0, W3.conjugate(), 0], [W3, 0, 0], [0, 0, -1]]),
    (1, 1): np.array([[-1, 0, 0], [0, 0, W3.conjugate()], [0, W3, 0]]),
    (1, 2): np.array([[0, 0, W3], [0, -1, 0], [W3.conjugate(), 0, 0]]),
    (2, 0): np.array([[0, W3, 0], [W3.conjugate(), 0, 0], [0, 0, -1]]),
    (2, 1): np.array([[-1, 0, 0], [0, 0, W3], [0, W3.conjugate(), 0]]),
    (2, 2): np.array([[0, 0, W3.conjugate()], [0, -1, 0], [W3, 0, 0]]),
}


def test_classify_identity():
    cls = classify_light_touch(np.eye(4))
    assert cls.kind == "scalar" and cls.value == 1.0
    assert cls.is_light_touch


def test_classify_zero_matrix():
    cls = classify_light_touch(np.zeros((3, 3)))
    assert cls.kind == "scalar" and cls.value == 0.0


def test_classify_pauli_strings_dichotomous():
    for obs in pauli_basis(2):
        cls = obs.classification
        if np.allclose(obs.matrix, np.eye(4)):
            assert cls.kind == "scalar"
        else:
            assert cls.kind == "dichotomous"
            assert np.isclose(cls.value, 1.0)


def test_classify_general():
    cls = classify_light_touch(np.diag([2.0, 0.0, -2.0]))
    assert cls.kind == "general"
    assert not cls.is_light_touch


def test_pauli_string_basics():
    assert np.allclose(pauli_string((0,)).matrix, np.eye(2))
    assert np.allclose(pauli_string((3, 3)).matrix, np.diag([1, -1, -1, 1]))
    with pytest.raises(InvalidIndex):
        pauli_string(())
    with pytest.raises(InvalidIndex):
        pauli_string((4,))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_pauli_gram(m):
    basis = pauli_basis(m)
    G = gram_matrix(basis)
    assert np.allclose(G, 2**m * np.eye(4**m), atol=1e-10)


def test_weyl_heisenberg_table():
    for (j, k), want in G_TABLE.items():
        got = weyl_heisenberg(j, k)
        assert np.linalg.norm(got - want) < 1e-12, (j, k)
        assert np.linalg.norm(got @ got.conj().T - np.eye(3)) < 1e-12


def test_weyl_heisenberg_index_range():
    with pytest.raises(InvalidIndex):
        weyl_heisenberg(3, 0)


def test_fiducial_w():
    psi = sic_fiducial_w(0.0)
    assert np.allclose(psi, np.array([1, 1, 0]) / np.sqrt(2))
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_w(-0.1)
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_w(2 * np.pi)


def test_fiducial_v_boundary():
    r0 = np.sqrt(2 / 3)
    psi = sic_fiducial_v(r0, np.pi, np.pi)
    # 2 - 3 r0^2 = 0 so both side amplitudes equal r0/2 = 1/sqrt(6)
    assert np.isclose(abs(psi[1]), 1 / np.sqrt(6))
    assert np.isclose(abs(psi[2]), 1 / np.sqrt(6))


def test_fiducial_v_parameter_ranges():
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_v(0.5, np.pi, np.pi)
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_v(0.75, np.pi / 2, np.pi)


def test_fiducials_unit_norm():
    for chi in np.linspace(0, 2 * np.pi, 7, endpoint=False):
        assert np.isclose(np.linalg.norm(sic_fiducial_w(chi)), 1.0)
    for r0 in (1 / np.sqrt(2) + 1e-6, 0.75, np.sqrt(2 / 3)):
        for theta in (np.pi / 3, np.pi, 5 * np.pi / 3):
            assert np.isclose(np.linalg.norm(sic_fiducial_v(r0, theta, np.pi)), 1.0)


def test_fiducial_permutation():
    # e0 -> e2 and e1 -> e0, so (1, 1, 0) lands on (1, 0, 1)
    psi = sic_fiducial_w(0.0, permutation=(2, 0, 1))
    assert np.allclose(psi, np.array([1, 0, 1]) / np.sqrt(2))


@pytest.mark.parametrize("permutation", [(0, 0, 1), (), (0, 1, 2, 3)])
def test_fiducials_reject_a_non_permutation(permutation):
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_w(0.0, permutation)
    with pytest.raises(ParameterOutOfRange):
        sic_fiducial_v(0.75, np.pi, np.pi, permutation)


def test_sic_orbit_matches_table():
    povm = sic_povm(sic_fiducial_w(0.0))
    for (j, k), comps in PSI_TABLE.items():
        want = np.array(comps) / np.sqrt(2)
        P = povm.projector(j, k)
        assert np.linalg.norm(P - np.outer(want, want.conj())) < 1e-12, (j, k)


def test_sic_povm_invariants():
    povm = sic_povm(sic_fiducial_w(0.0))
    for a in range(9):
        P = povm.projectors[a]
        assert np.linalg.norm(P - P.conj().T) < 1e-12
        assert np.linalg.norm(P @ P - P) < 1e-12
        assert np.isclose(np.trace(P).real, 1.0)
        for b in range(a + 1, 9):
            overlap = np.trace(P @ povm.projectors[b]).real
            assert abs(overlap - 0.25) < 1e-10
    assert np.linalg.norm(sum(povm.projectors) / 3 - np.eye(3)) < 1e-10


def test_sic_overlap_residual_matches_pairwise_loop():
    for psi in (sic_fiducial_w(0.3, (1, 2, 0)), sic_fiducial_v(0.75, np.pi, np.pi / 3)):
        povm = sic_povm(psi)
        worst = max(
            abs(np.trace(povm.projectors[a] @ povm.projectors[b]).real - 0.25)
            for a in range(9)
            for b in range(a + 1, 9)
        )
        assert abs(povm.overlap_residual - worst) <= 1e-15


def test_sic_povm_rejects_bad_fiducial():
    with pytest.raises(FailedOverlapCondition):
        sic_povm(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(FailedOverlapCondition):
        sic_povm(np.array([1.0, 1.0, 0.0]))  # not unit norm


def test_light_touch_basis_matches_table():
    basis = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    for (j, k), want in L_TABLE.items():
        got = basis[3 * j + k].matrix
        assert np.linalg.norm(got - want) < 1e-12, (j, k)


def test_light_touch_basis_properties():
    basis = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    G = gram_matrix(basis)
    assert np.allclose(G, 3 * np.eye(9), atol=1e-10)
    for obs in basis:
        cls = obs.classification
        assert cls.kind == "dichotomous"
        assert np.isclose(cls.value, 1.0)
        assert np.isclose(np.vdot(obs.matrix, obs.matrix).real, 3.0)


def test_gate_conjugation_generates_basis():
    # conjugating the (0,0) observable by G_jk produces the (j,k) observable
    basis = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    L00 = basis[0].matrix
    for j in range(3):
        for k in range(3):
            G = weyl_heisenberg(j, k)
            assert np.linalg.norm(G @ L00 @ G.conj().T - basis[3 * j + k].matrix) < 1e-12


def test_d4_analogue_not_orthogonal():
    # two unit vectors with squared overlap 1/5 give cross term 4/5
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([1.0, 2.0, 0.0, 0.0]) / np.sqrt(5)
    L_u = 2 * np.outer(u, u) - np.eye(4)
    L_v = 2 * np.outer(v, v) - np.eye(4)
    assert np.isclose(np.vdot(L_u, L_v).real, 0.8)


def test_spanning_set_d1():
    out = light_touch_spanning_set(1)
    assert len(out) == 1
    assert np.allclose(out[0].matrix, np.eye(1))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_spanning_set_is_light_touch_basis(d):
    out = light_touch_spanning_set(d)
    assert len(out) == d * d
    for obs in out:
        assert obs.is_light_touch
    G = gram_matrix(out)
    assert np.linalg.matrix_rank(G) == d * d


def test_spanning_set_d2_spans_paulis():
    out = light_touch_spanning_set(2)
    stack = np.array([obs.matrix.reshape(4) for obs in out]).T
    for sigma in pauli_basis(1):
        coeffs, residual, _, _ = np.linalg.lstsq(stack, sigma.matrix.reshape(4), rcond=None)
        recon = (stack @ coeffs).reshape(2, 2)
        assert np.linalg.norm(recon - sigma.matrix) < 1e-10
        assert np.linalg.norm(coeffs.imag) < 1e-10  # real span suffices


@pytest.mark.parametrize("d", [2, 3, 4])
def test_hermitian_basis_orthonormal(d):
    basis = hermitian_basis(d)
    assert len(basis) == d * d
    G = gram_matrix(basis)
    assert np.allclose(G, np.eye(d * d), atol=1e-12)


def test_observable_caches_spectral_data():
    obs = Observable(np.diag([1.0, -1.0]))
    assert obs.spectral is obs.spectral
    assert obs.is_light_touch


def test_observable_keeps_a_read_only_copy_of_its_matrix():
    # A complex array is stored without conversion, so the copy must be explicit:
    # writing to the caller's array after the spectrum is cached left the matrix and
    # the spectrum describing different observables.
    M = np.diag([1.0, -1.0]).astype(complex)
    obs = Observable(M)
    assert obs.spectral.norm == 1.0
    M[0, 0] = 3.0
    assert np.array_equal(obs.matrix, np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        obs.matrix[0, 0] = 3.0
    process = Process(identity_channel(2), np.eye(2) / 2)
    X = canonical_sot(process).matrix
    assert abs(two_time_ev(process, obs, obs) - sot_trace_value(X, obs, obs)) <= 1e-15


def test_array_holding_objects_compare_by_identity():
    b = pauli_basis(1)
    assert b.index(b[3]) == 3 and b[3] in b
    assert Observable(b[3].matrix) not in b
    process = random_process(2, 2, np.random.default_rng(0))
    for make in (lambda: Observable(b[3].matrix).spectral, lambda: Observable(b[3].matrix),
                 lambda: sic_povm(sic_fiducial_w(0.0)),
                 lambda: Process(process.channel, process.rho),
                 lambda: joint_distribution(process, b[1], b[3]),
                 lambda: nonrepresentable_witness(2, 2), lambda: canonical_sot(process),
                 lambda: sample_sequential(process, b[1], b[3], 10, 0)):
        x, y = make(), make()
        assert x == x and x != y and [y, x].index(x) == 1 and x in [y, x]
        assert len({x, y, x}) == 2
