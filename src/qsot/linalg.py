"""Dense complex linear algebra on hermitian matrices.

Tensor products use the A-major index convention throughout the package:
the flattened composite index is ``a * dimB + b``, so ``tensor(A, B)`` is
``np.kron(A, B)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotHermitian, NumericalFailure

# Every threshold the library applies to data. A relative threshold is a
# multiple of the scale of the data it judges, with no floor, so rescaling an
# input by any nonzero factor changes no verdict; an absolute one judges a
# quantity whose scale is fixed (a trace, a probability, a unit vector).
HERMITICITY_RTOL = 1e-9  # relative: ||M - M^dagger|| against ||M||, Frobenius norms
CLUSTER_RTOL = 1e-8  # relative: eigenvalue gaps, the dichotomy merge and the
#                      counterexample pair sum, each against max |eigenvalue|
TP_TOL = 1e-9  # absolute: ||sum_k K_k^dagger K_k - 1|| and the most negative Choi eigenvalue
DENSITY_TOL = 1e-10  # absolute: |Tr rho - 1| and the most negative eigenvalue of a state
PROB_NEG_LIMIT = 1e-9  # absolute: the most negative joint probability clamped to 0
PROB_SUM_TOL = 1e-8  # absolute: |sum of a joint distribution - 1|
SIC_OVERLAP_TOL = 1e-10  # absolute: |Tr[P_a P_b] - 1/4| over distinct SIC projector pairs
FIDUCIAL_NORM_TOL = 1e-12  # absolute: | ||psi|| - 1 | for a SIC fiducial
SIC_ANGLE_TOL = 1e-10  # absolute: |theta - a| in radians from the nearest V-family phase a;
#                        an error of 1e-10 moves the SIC overlaps by less than SIC_OVERLAP_TOL
WEIGHT_CUT = 1e-15  # absolute: prepared-state eigenvalues at or below it get no Kraus operators
COUNTEREXAMPLE_RTOL = 1e-6  # relative: the least maximality-counterexample residual,
#                             against max |eigenvalue| of the first observable


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise NumericalFailure("matrix contains NaN/Inf entries")
    return M


def check_hermitian(M) -> np.ndarray:
    """Return M if hermitian within HERMITICITY_RTOL of its norm, else raise NotHermitian.

    M is judged divided by its largest real or imaginary part, finite by as_matrix, so
    no norm over- or underflows; the parts are divided apart, as a complex division by
    a subnormal overflows.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"hermitian check needs a square matrix, got {M.shape}")
    scale = max(np.abs(M.real).max(initial=0.0), np.abs(M.imag).max(initial=0.0))
    N = M.real / scale + 1j * (M.imag / scale) if scale else M
    if np.linalg.norm(N - N.conj().T) > HERMITICITY_RTOL * np.linalg.norm(N):
        raise NotHermitian("matrix is not hermitian within tolerance")
    return M


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct real eigenvalues with orthogonal projectors resolving the identity.

    Eigenvalues are ascending; ``projectors[k]`` projects onto the full
    eigenspace of ``eigenvalues[k]`` (degenerate eigenspaces are never split).
    ``projectors`` is one read-only (n, dim, dim) array. ``norm`` is the
    spectral norm: the largest |eigenvalue| before clustering.
    """

    dim: int
    eigenvalues: np.ndarray
    projectors: np.ndarray
    norm: float


def hermitian_eigendecomposition(H) -> SpectralDecomposition:
    """Eigendecompose a hermitian matrix into distinct-eigenvalue projectors.

    Ascending eigenvalues at most CLUSTER_RTOL max|eigenvalue| apart are
    merged into a single cluster, so chains merge whole; the cluster
    eigenvalue is the multiplicity-weighted mean and the projector is the sum
    over the cluster. Zero eigenvalues are kept so the projectors always
    resolve the identity.
    """
    return _decompose(check_hermitian(H))


def _decompose(H: np.ndarray) -> SpectralDecomposition:
    """``hermitian_eigendecomposition`` of a matrix already checked hermitian."""
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    norm = float(np.max(np.abs(w), initial=0.0))
    gap = CLUSTER_RTOL * norm
    clusters = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > gap:
            clusters.append(slice(start, k))
            start = k
    eigenvalues = np.array([float(np.mean(w[s])) for s in clusters])
    projectors = np.array([V[:, s] @ V[:, s].conj().T for s in clusters])
    projectors.flags.writeable = False
    return SpectralDecomposition(dim=H.shape[0], eigenvalues=eigenvalues, projectors=projectors,
                                 norm=norm)


def tensor(A, B) -> np.ndarray:
    """Kronecker product under the A-major index convention."""
    return np.kron(as_matrix(A), as_matrix(B))


def partial_trace(M, dimA: int, dimB: int, which: str) -> np.ndarray:
    """Trace out factor ``which`` ('A' or 'B') of a matrix on A x B."""
    M = as_matrix(M)
    d = dimA * dimB
    if M.shape != (d, d):
        raise DimensionMismatch(f"expected {(d, d)}, got {M.shape}")
    T = M.reshape(dimA, dimB, dimA, dimB)
    if which == "A":
        return np.trace(T, axis1=0, axis2=2)
    if which == "B":
        return np.trace(T, axis1=1, axis2=3)
    raise DimensionMismatch(f"which must be 'A' or 'B', got {which!r}")
