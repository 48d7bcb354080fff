"""Reference results computed apart from qsot, and the checks built on them.

Everything here uses numpy alone: the closed-form state over time is built
from the Kraus operators and rho, the sampled coefficients are bounded by a
Hoeffding-style multiple of the product-outcome range, and the CLI documents
are parsed from their JSON text.  Each check returns a short reason string
when it rejects an answer and ``None`` when it accepts it.
"""

from __future__ import annotations

import itertools

import numpy as np

EXACT_TOL = 1e-10  # closed-form path: a few ulps of the Kraus sums
RECONSTRUCT_TOL = 1e-8  # least-squares path, the library's own verify tolerance
RESIDUAL_TOL = 1e-9  # light-touch representability residual of the exact state
SIC_TOL = 1e-10
# A sampled mean of a variable bounded by M deviates by t*M/sqrt(n) with
# probability <= 2 exp(-t^2/2) (Hoeffding); t = 7 gives 5e-11 per coefficient.
SAMPLED_SIGMAS = 7.0


# ---------------------------------------------------------------- references

def apply_kraus(kraus, M):
    return sum(K @ M @ K.conj().T for K in kraus)


def jamiolkowski(kraus, dA, dB):
    """J[E] = sum_ij E_ij (x) E(E_ji), summed term by term."""
    J = np.zeros((dA * dB, dA * dB), dtype=complex)
    for i, j in itertools.product(range(dA), repeat=2):
        E_ij = np.zeros((dA, dA), dtype=complex)
        E_ij[i, j] = 1.0
        J += np.kron(E_ij, apply_kraus(kraus, E_ij.T))
    return J


def closed_form_sot(kraus, rho, dA, dB, J=None):
    """(1/2){rho (x) 1, J[E]}."""
    J = jamiolkowski(kraus, dA, dB) if J is None else J
    lifted = np.kron(rho, np.eye(dB))
    return 0.5 * (lifted @ J + J @ lifted)


def partial_traces(X, dA, dB):
    T = X.reshape(dA, dB, dA, dB)
    return np.einsum("ibjb->ij", T), np.einsum("aiaj->ij", T)  # (tr_B, tr_A)


def product_coefficients(X, basis_A, basis_B):
    """C[a, b] = Tr[X (A_a (x) B_b)] for stacked bases."""
    dA, dB = basis_A.shape[1], basis_B.shape[1]
    T = X.reshape(dA, dB, dA, dB)
    return np.einsum("ikjl,aji,blk->ab", T, basis_A, basis_B).real


def outcome_scale(basis):
    """max |eigenvalue| of each observable: the range of its outcomes."""
    return np.abs(np.linalg.eigvalsh(basis)).max(axis=1)


def sampled_bound(basis_A, basis_B, shots):
    return SAMPLED_SIGMAS * np.outer(outcome_scale(basis_A), outcome_scale(basis_B)) / np.sqrt(shots)


PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)


def pauli_strings(m):
    out = []
    for alpha in itertools.product(range(4), repeat=m):
        M = np.eye(1, dtype=complex)
        for a in alpha:
            M = np.kron(M, PAULI[a])
        out.append(M)
    return np.array(out)


def hermitian_units(d):
    """An orthonormal basis of hermitian d x d matrices."""
    out = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        out.append(E)
    for i, j in itertools.combinations(range(d), 2):
        S = np.zeros((d, d), dtype=complex)
        S[i, j] = S[j, i] = 1 / np.sqrt(2)
        A = np.zeros((d, d), dtype=complex)
        A[i, j], A[j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
        out += [S, A]
    return np.array(out)


def sic_fiducial(chi):
    return np.array([1.0, np.exp(1j * chi), 0.0]) / np.sqrt(2)


def sic_projectors(psi):
    """G_jk |psi><psi| G_jk^dagger over the qutrit Weyl-Heisenberg group."""
    omega = np.exp(2j * np.pi / 3)
    out = []
    for j, k in itertools.product(range(3), repeat=2):
        G = np.zeros((3, 3), dtype=complex)
        for l in range(3):
            G[(k + l) % 3, l] = np.exp(1j * np.pi * j * k / 3) * omega ** (j * l)
        v = G @ psi
        out.append(np.outer(v, v.conj()))
    return np.array(out)


def light_touch_basis(d):
    """The orthogonal light-touch basis the CLI samples over at dimension d."""
    if d == 3:
        return 2 * sic_projectors(sic_fiducial(0.0)) - np.eye(3)
    return pauli_strings(d.bit_length() - 1)


# -------------------------------------------------------------------- checks

def _frob(M):
    return float(np.linalg.norm(M))


def check_state(X, ref, tol):
    dev = _frob(np.asarray(X) - ref)
    if dev > tol * max(1.0, _frob(ref)):
        return f"state deviates from the closed form by {dev:.3e}"
    return None


def check_marginals(X, rho, evolved, dA, dB, tol=EXACT_TOL):
    trB, trA = partial_traces(np.asarray(X), dA, dB)
    if _frob(trB - rho) > tol or _frob(trA - evolved) > tol:
        return "marginals are not (rho, E(rho))"
    return None


def check_residual(residual):
    if not 0.0 <= residual <= RESIDUAL_TOL:
        return f"light-touch residual {residual:.3e} exceeds {RESIDUAL_TOL:g}"
    return None


def check_sampled(X, expected, basis_A, basis_B, shots):
    """Every coefficient of X over A_a (x) B_b lies within the sampling bound."""
    got = product_coefficients(np.asarray(X), basis_A, basis_B)
    excess = np.abs(got - expected) - sampled_bound(basis_A, basis_B, shots)
    if excess.max() > 0:
        a, b = np.unravel_index(np.argmax(excess), excess.shape)
        return f"coefficient ({a}, {b}) is {excess[a, b]:.3e} beyond its sampling bound"
    return None


def check_sic(projectors, psi=None, tol=SIC_TOL):
    """Nine unit-trace projectors with pairwise overlaps 1/4, orbit of psi."""
    P = np.asarray(projectors)
    overlaps = np.einsum("aij,bji->ab", P, P).real
    off = overlaps[~np.eye(len(P), dtype=bool)]
    if len(P) != 9 or np.abs(off - 0.25).max() > tol or np.abs(np.diag(overlaps) - 1).max() > tol:
        return "projectors are not a SIC-POVM"
    if psi is not None and _frob(P[0] - np.outer(psi, psi.conj())) > tol:
        return "first projector is not the fiducial"
    return None


# ----------------------------------------------------------- CLI documents

def matrix_from_doc(data):
    return np.array([[complex(re, im) for re, im in row] for row in data])


def check_document(returncode, doc, kind):
    if returncode != 0:
        return f"exit code {returncode}"
    if not isinstance(doc, dict) or doc.get("kind") != kind or not isinstance(doc.get("payload"), dict):
        return f"expected a {kind!r} document"
    return None
