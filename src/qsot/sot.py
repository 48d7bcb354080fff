"""Canonical states over time and pseudo-density-matrix reconstruction.

The canonical state over time of a process (E, rho) is
(1/2){rho (x) 1, J[E]} with J[E] the Jamiolkowski matrix. It is the unique
hermitian operator whose trace pairing reproduces all two-time expectation
values with a light-touch first observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Process, identity_channel
from .errors import DimensionMismatch, InvalidParameter, IsLightTouch, NotLightTouch
from .linalg import CLUSTER_RTOL, COUNTEREXAMPLE_RTOL, as_array, as_int
from .observables import Observable
from .twotime import _Basis, _basis, _frames, _traces, _values


@dataclass(frozen=True, eq=False)
class StateOverTime:
    """Hermitian operator on A (x) B with a provenance tag.

    Its trace is 1 up to roundoff, except for a sampled estimate: Tr X is then a sum of
    sampled means, off 1 by sampling noise, and is not renormalized.
    ``condition`` is cond(G_A) cond(G_B) of the observable bases an expansion used,
    about 1 if orthogonal: how far it can amplify errors in the data (None: closed form).
    ``stderr`` is the Frobenius standard error of a sampled estimate (None:
    not sampled).
    """

    matrix: np.ndarray = field(repr=False)
    dimA: int
    dimB: int
    provenance: str  # "closed-form" | "reconstructed" | "sampled"
    condition: float | None = None
    stderr: float | None = None

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def canonical_sot(process: Process) -> StateOverTime:
    """(1/2){rho (x) 1, J[E]}, tagged closed-form.

    No Kronecker product is formed: with J[(a, b), (a', b')], the product
    (rho (x) 1) J contracts rho with J's A row index a, and J (rho (x) 1),
    the transpose of (rho^T (x) 1) J^T, contracts it with J's A column index a'.
    """
    dA, dB = process.dim_in, process.dim_out
    d = dA * dB
    rho, J = process.rho, process.channel.jamiolkowski
    left = rho @ J.reshape(dA, dB * d)
    right = rho.T @ J.T.reshape(dA, dB * d)
    M = 0.5 * (left.reshape(d, d) + right.reshape(d, d).T)
    return StateOverTime(matrix=M, dimA=dA, dimB=dB, provenance="closed-form")


def _expand(values: np.ndarray, dual: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sum_ab values[a, b] dual_a (x) B_b for stacks dual and B, with no Kronecker product.

    Two products give the entries indexed ((i, j), (k, l)); one axis swap
    moves them to X[(i, k), (j, l)]. The hermitian part drops roundoff.
    """
    nA, dA, _ = dual.shape
    nB, dB, _ = B.shape
    X = dual.reshape(nA, dA * dA).T @ values @ B.reshape(nB, dB * dB)
    X = X.reshape(dA, dA, dB, dB).transpose(0, 2, 1, 3).reshape(dA * dB, dA * dB)
    return 0.5 * (X + X.conj().T)


def _reconstruct(A: _Basis, B: _Basis, values: np.ndarray) -> StateOverTime:
    """The one operator whose trace pairings with A_a (x) B_b reproduce values[a, b].

    A and B are the records of a complete basis on each side, A's light-touch. The
    operator is sum_ab values[a, b] A~_a (x) B~_b over the dual frames A~ = G_A^-1 A and
    B~ = G_B^-1 B (A / c_A and B / c_B for orthogonal bases): the generalized
    pseudo-density matrix of Fitzsimons, Jones and Vedral, Sci. Rep. 5, 18281 (2015).
    ``condition`` is cond(G_A) cond(G_B), from the records.
    """
    (nA, dA, _), (nB, dB, _) = A.stack.shape, B.stack.shape
    if (nA, nB) != (dA * dA, dB * dB):
        raise DimensionMismatch(f"complete bases need {dA * dA} and {dB * dB} "
                                f"observables, got {nA} and {nB}")
    if not A.light_touch:
        raise NotLightTouch("basis_A contains a non-light-touch element")
    (dual_A, cond_A, _), (dual_B, cond_B, _) = A.frame, B.frame
    return StateOverTime(matrix=_expand(values, dual_A, dual_B), dimA=dA, dimB=dB,
                         provenance="reconstructed", condition=cond_A * cond_B)


def pdm_from_correlations(dimA: int, dimB: int, basis_A, basis_B, evs) -> StateOverTime:
    """Expand correlation data over the dual frames of two observable bases (``_reconstruct``).

    ``evs[a][b]`` is the two-time expectation value of (basis_A[a], basis_B[b]).
    basis_A must be dimA^2 independent light-touch observables, basis_B dimB^2
    independent hermitian ones, and every value finite.
    """
    dimA, dimB = as_int(dimA, "dimA", 1), as_int(dimB, "dimB", 1)
    basis_A, basis_B = tuple(basis_A), tuple(basis_B)
    evs = as_array(evs, (len(basis_A), len(basis_B)), float)
    return _reconstruct(_basis(basis_A, dimA), _basis(basis_B, dimB), evs)


def reconstruct_unique(process: Process) -> StateOverTime:
    """The unique X with Tr[X (A_a (x) B_b)] = <A_a, B_b> for the light-touch frame {A_a}
    and the hermitian basis {B_b} of ``twotime._frames``: ``_reconstruct`` of their grid.
    """
    dA, dB = process.dim_in, process.dim_out
    A, B = _basis(_frames(dA)[0], dA), _basis(_frames(dB)[1], dB)
    return _reconstruct(A, B, _values(process, A, B))


def causality_witness(sot: StateOverTime) -> tuple:
    """Smallest eigenvalue and trace-norm negativity (sum |negative eigenvalues|)."""
    w = sot.eigenvalues()
    min_eig = float(w.min()) if len(w) else 0.0
    negativity = float(np.abs(w[w < 0]).sum())  # +0.0, not -0.0, when none is negative
    return min_eig, negativity


def _first_range_vector(P: np.ndarray) -> np.ndarray:
    # First column of the eigenspace projector's orthonormal range factor.
    w, V = np.linalg.eigh(P)
    cols = V[:, w > 0.5]
    return cols[:, 0]


def maximality_counterexample(O_A: Observable):
    """A process and second observable on which the canonical state over time fails.

    For a non-light-touch O_A, pick two eigenvalue clusters with lam_i + lam_j
    nonzero (such a pair always exists), superpose one eigenvector from each
    into a pure state, evolve under the identity channel, and scan an
    orthonormal hermitian basis for the second observable maximizing
    |<O_A, O_B> - Tr[(E * rho)(O_A (x) O_B)]|. Pair sums, the scan's tie slack and the
    residual are judged relative to max|lam|, so a rescaled O_A gives the rescaled residual.
    """
    m = O_A.dim
    A = _basis([O_A], m)
    if A.light_touch:
        raise IsLightTouch("light-touch observables admit no counterexample")
    lam = A.eigenvalues
    scale = float(np.max(np.abs(lam)))
    # Every (i, j) with i < j and a nonzero sum, row-major: the first is the pair taken.
    i, j = np.nonzero(np.triu(np.abs(lam[:, None] + lam) > CLUSTER_RTOL * scale, k=1))
    if not len(i):
        raise InvalidParameter("no eigenvalue pair with nonzero sum found")
    phi, psi = (_first_range_vector(A.projectors[k]) for k in (i[0], j[0]))
    eta = (phi + psi) / np.sqrt(2)
    process = Process(identity_channel(m), np.outer(eta, eta.conj()))
    X = canonical_sot(process).matrix

    basis = _frames(m)[1]
    B = _basis(basis, m)
    devs = np.abs(_values(process, A, B) - _traces(X, A.stack, B.stack))[0]
    best = None
    best_dev = -1.0
    for obs, dev in zip(basis, devs.tolist()):
        if dev > best_dev + 1e-15 * scale:
            best, best_dev = obs, dev
    floor = COUNTEREXAMPLE_RTOL * scale
    if best_dev <= floor:
        raise InvalidParameter(f"scan found no violation above {floor:.3e} (max {best_dev:.3e})")
    return process, best, best_dev
