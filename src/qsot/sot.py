"""Canonical states over time and pseudo-density-matrix reconstruction.

The canonical state over time of a process (E, rho) is
(1/2){rho (x) 1, J[E]} with J[E] the Jamiolkowski matrix. It is the unique
hermitian operator whose trace pairing reproduces all two-time expectation
values with a light-touch first observable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channels import Process, apply, identity_channel
from .errors import (
    BasisNotOrthogonal,
    DimensionMismatch,
    InvalidParameter,
    IsLightTouch,
    NotLightTouch,
    SingularSystem,
)
from .linalg import anticommutator, tensor
from .observables import Observable, hermitian_basis, light_touch_spanning_set
from .twotime import trace_grid, two_time_grid


@dataclass(frozen=True)
class StateOverTime:
    """Hermitian unit-trace operator on A (x) B with a provenance tag."""

    matrix: np.ndarray = field(repr=False)
    dimA: int
    dimB: int
    provenance: str  # "closed-form" | "reconstructed" | "sampled"

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def canonical_sot(process: Process) -> StateOverTime:
    """(1/2){rho (x) 1, J[E]}, tagged closed-form."""
    dA, dB = process.dim_in, process.dim_out
    lifted = tensor(process.rho, np.eye(dB))
    M = 0.5 * anticommutator(lifted, process.channel.jamiolkowski)
    return StateOverTime(matrix=M, dimA=dA, dimB=dB, provenance="closed-form")


def pdm_from_correlations(dimA: int, dimB: int, basis_A, basis_B, evs) -> StateOverTime:
    """Expand correlation data over orthogonal observable bases.

    ``evs[a][b]`` is the two-time expectation value of (basis_A[a], basis_B[b]).
    basis_A must consist of light-touch observables with Gram matrix c_A * 1,
    basis_B of hermitian observables with Gram matrix c_B * 1; the result is
    sum_ab evs[a][b] A_a (x) B_b / (c_A c_B).
    """
    evs = np.asarray(evs, dtype=float)
    if evs.shape != (len(basis_A), len(basis_B)):
        raise DimensionMismatch(
            f"evs shape {evs.shape} != ({len(basis_A)}, {len(basis_B)})"
        )
    for obs in basis_A:
        if not obs.is_light_touch:
            raise NotLightTouch("basis_A contains a non-light-touch element")
    cA = _uniform_gram_norm(basis_A)
    cB = _uniform_gram_norm(basis_B)
    M = np.zeros((dimA * dimB, dimA * dimB), dtype=complex)
    for a, A in enumerate(basis_A):
        for b, B in enumerate(basis_B):
            if evs[a, b] != 0.0:
                M += evs[a, b] * tensor(A.matrix, B.matrix)
    return StateOverTime(matrix=M / (cA * cB), dimA=dimA, dimB=dimB, provenance="reconstructed")


def _uniform_gram_norm(basis, tol: float = 1e-8) -> float:
    norms = []
    for a, A in enumerate(basis):
        for b, B in enumerate(basis):
            val = float(np.sum(A.matrix.conj() * B.matrix).real)
            if a == b:
                norms.append(val)
            elif abs(val) > tol:
                raise BasisNotOrthogonal(f"off-diagonal Gram entry {val:.3e} at ({a}, {b})")
    norms = np.asarray(norms)
    if np.ptp(norms) > tol * max(1.0, norms.max()):
        raise BasisNotOrthogonal("basis elements do not share a common norm")
    return float(norms.mean())


_DESIGN_CACHE: dict = {}


def _reconstruction_system(dA: int, dB: int):
    # The probe family and design matrix depend only on the dimensions, so
    # they are memoized across processes.
    key = (dA, dB)
    if key not in _DESIGN_CACHE:
        probes_A = light_touch_spanning_set(dA)
        probes_B = hermitian_basis(dB)
        herm = hermitian_basis(dA * dB)
        rows = []
        for A in probes_A:
            for B in probes_B:
                probe = tensor(A.matrix, B.matrix)
                # Tr[H_c P] is real for hermitian H_c, P.
                rows.append([float(np.sum(H.matrix.conj() * probe).real) for H in herm])
        _DESIGN_CACHE[key] = (probes_A, probes_B, herm, np.asarray(rows))
    return _DESIGN_CACHE[key]


def reconstruct_unique(process: Process) -> StateOverTime:
    """Solve Tr[X (A_a (x) B_b)] = <A_a, B_b> for hermitian X by least squares.

    The probe family is the light-touch spanning set on A crossed with an
    orthonormal hermitian basis of B; the system is square and full rank, so
    the solution is the unique light-touch representation.
    """
    dA, dB = process.dim_in, process.dim_out
    probes_A, probes_B, herm, design = _reconstruction_system(dA, dB)
    n = len(herm)
    rhs = two_time_grid(process, probes_A, probes_B).ravel()
    coeffs, _, rank, _ = np.linalg.lstsq(design, rhs, rcond=None)
    if rank < n:
        raise SingularSystem(f"design matrix rank {rank} < {n}")
    X = np.zeros((dA * dB, dA * dB), dtype=complex)
    for c, H in zip(coeffs, herm):
        X += c * H.matrix
    return StateOverTime(matrix=X, dimA=dA, dimB=dB, provenance="reconstructed")


def causality_witness(sot: StateOverTime) -> tuple:
    """Smallest eigenvalue and trace-norm negativity (sum |negative eigenvalues|)."""
    w = sot.eigenvalues()
    min_eig = float(w.min()) if len(w) else 0.0
    negativity = float(-w[w < 0].sum())
    return min_eig, negativity


def _first_range_vector(P: np.ndarray) -> np.ndarray:
    # First column of the eigenspace projector's orthonormal range factor.
    w, V = np.linalg.eigh(P)
    cols = V[:, w > 0.5]
    return cols[:, 0]


def maximality_counterexample(O_A: Observable, residual_floor: float = 1e-6):
    """A process and second observable on which the canonical state over time fails.

    For a non-light-touch O_A, pick two eigenvalue clusters with lam_i + lam_j
    nonzero (such a pair always exists), superpose one eigenvector from each
    into a pure state, evolve under the identity channel, and scan an
    orthonormal hermitian basis for the second observable maximizing
    |<O_A, O_B> - Tr[(E * rho)(O_A (x) O_B)]|.
    """
    if O_A.is_light_touch:
        raise IsLightTouch("light-touch observables admit no counterexample")
    dec = O_A.spectral
    m = O_A.dim
    pair = None
    for i in range(len(dec.eigenvalues)):
        for j in range(i + 1, len(dec.eigenvalues)):
            if abs(dec.eigenvalues[i] + dec.eigenvalues[j]) > 1e-8:
                pair = (i, j)
                break
        if pair:
            break
    if pair is None:
        raise InvalidParameter("no eigenvalue pair with nonzero sum found")
    phi = _first_range_vector(dec.projectors[pair[0]])
    psi = _first_range_vector(dec.projectors[pair[1]])
    eta = (phi + psi) / np.sqrt(2)
    process = Process(identity_channel(m), np.outer(eta, eta.conj()))
    X = canonical_sot(process).matrix

    basis = hermitian_basis(m)
    devs = np.abs(two_time_grid(process, [O_A], basis) - trace_grid(X, [O_A], basis))[0]
    best = None
    best_dev = -1.0
    for B, dev in zip(basis, devs.tolist()):
        if dev > best_dev + 1e-15:
            best, best_dev = B, dev
    if best_dev <= residual_floor:
        raise InvalidParameter(
            f"scan found no violation above {residual_floor} (max {best_dev:.3e})"
        )
    return process, best, best_dev


def verify_sot_marginals(process: Process, sot: StateOverTime, tol: float = 1e-9) -> bool:
    """tr_B of the state over time is rho; tr_A is E(rho)."""
    from .linalg import partial_trace

    trB = partial_trace(sot.matrix, sot.dimA, sot.dimB, "B")
    trA = partial_trace(sot.matrix, sot.dimA, sot.dimB, "A")
    return (
        np.linalg.norm(trB - process.rho) <= tol
        and np.linalg.norm(trA - apply(process.channel, process.rho)) <= tol
    )
