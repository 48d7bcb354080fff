"""Dense complex linear algebra on hermitian matrices.

Tensor products use the A-major index convention throughout the package:
the flattened composite index is ``a * dimB + b``, so ``tensor(A, B)`` is
``np.kron(A, B)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter, NotHermitian, NumericalFailure

# Every threshold the library applies to data. A relative threshold is a
# multiple of the scale of the data it judges, with no floor, so rescaling an
# input by any nonzero factor changes no verdict; an absolute one judges a
# quantity whose scale is fixed (a trace, a probability, a unit vector).
HERMITICITY_RTOL = 1e-9  # relative: ||M - M^dagger|| against ||M||, Frobenius norms
CLUSTER_RTOL = 1e-8  # relative: eigenvalue gaps, the dichotomy merge and the
#                      counterexample pair sum, each against max |eigenvalue|
TP_TOL = 1e-9  # absolute: ||sum_k K_k^dagger K_k - 1||; a Kraus set is CP by construction
DENSITY_TOL = 1e-10  # absolute: |Tr rho - 1| and the most negative eigenvalue of a state
PROB_NEG_LIMIT = 1e-9  # absolute: the most negative joint probability clamped to 0
PROB_SUM_TOL = 1e-8  # absolute: |sum of a joint distribution - 1|
SIC_OVERLAP_TOL = 1e-10  # absolute: |Tr[P_a P_b] - 1/4| over distinct SIC projector pairs
FIDUCIAL_NORM_TOL = 1e-12  # absolute: | ||psi|| - 1 | for a SIC fiducial
SIC_ANGLE_TOL = 1e-10  # absolute: |theta - a| in radians from the nearest V-family phase a;
#                        an error of 1e-10 moves the SIC overlaps by less than SIC_OVERLAP_TOL
WEIGHT_CUT = 1e-15  # absolute: prepared-state eigenvalues at or below it get no Kraus operators
COUNTEREXAMPLE_RTOL = 1e-6  # relative: the least maximality-counterexample residual,
#                             against max |eigenvalue| of the first observable; `verify`'s
#                             maximality claim floors its least residual at the same number
SAMPLE_SIGMAS = 5  # a sampled two-time value passes within this many exact standard errors
SAMPLE_RTOL = 1e-10  # relative: the roundoff floor added to that bound, against max |lam_i mu_j|
CLAIM_TOL = 1e-10  # absolute: the largest residual of each "max" claim of `verify`, a
#                    roundoff-sized normalized deviation or norm; `--tol` replaces it
NOGO_RESIDUAL_MIN = 0.1  # absolute: the least general-probe residual of `verify`'s no-go
#                          witnesses, whose exact nonlinearity gap is 2


def as_array(x, shape: tuple = (None, None), dtype: type = complex) -> np.ndarray:
    """The one place an argument becomes an array: np.asarray(x, dtype) if it is valid.

    ``dtype`` is complex, or float for real data, where complex values are rejected even
    with zero imaginary parts; a None in ``shape`` allows any length on that axis.
    Non-numbers raise InvalidParameter, a ragged nesting or a wrong shape
    DimensionMismatch, and NaN/Inf NumericalFailure.
    """
    try:
        a = np.asarray(x)
        if a.dtype.kind not in ("biufc" if dtype is complex else "biuf"):
            raise InvalidParameter(f"expected {dtype.__name__} numbers, got {a.dtype} values")
    except ValueError as exc:  # numpy's error for a ragged nesting
        raise DimensionMismatch(f"not an array: {exc}") from None
    a = np.asarray(a, dtype=dtype)
    if a.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, a.shape)):
        raise DimensionMismatch(f"expected shape {shape}, got {a.shape}")
    if not np.isfinite(a).all():
        raise NumericalFailure("array contains NaN/Inf entries")
    return a


def as_int(n, what: str, least: int | None = None) -> int:
    """The one place a dimension, a count or an index becomes an int: n by ``operator.index``.

    A bool, a float, a string, None or an int below ``least`` raises InvalidParameter.
    """
    try:
        i = operator.index(None if isinstance(n, bool) else n)
    except TypeError:
        i = None
    if i is None or (least is not None and i < least):
        bound = "" if least is None else f" at least {least}"
        raise InvalidParameter(f"{what} must be an integer{bound}, got {n!r}")
    return i


def check_hermitian(M) -> np.ndarray:
    """Return M if hermitian within HERMITICITY_RTOL of its norm, else raise NotHermitian.

    M is judged divided by its largest real or imaginary part, finite by as_array, so
    no norm over- or underflows; the parts are divided apart, as a complex division by
    a subnormal overflows.
    """
    M = as_array(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"hermitian check needs a square matrix, got {M.shape}")
    scale = max(np.abs(M.real).max(initial=0.0), np.abs(M.imag).max(initial=0.0))
    N = M.real / scale + 1j * (M.imag / scale) if scale else M
    if np.linalg.norm(N - N.conj().T) > HERMITICITY_RTOL * np.linalg.norm(N):
        raise NotHermitian("matrix is not hermitian within tolerance")
    return M


@dataclass(frozen=True, eq=False)
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
    eigenvalues, projectors, _, norms = _spectra(H[None])
    return SpectralDecomposition(dim=H.shape[0], eigenvalues=eigenvalues, projectors=projectors,
                                 norm=float(norms[0]))


def _spectra(H: np.ndarray) -> tuple:
    """The clustered spectra of a stack H of n hermitian matrices, from one batched ``eigh``.

    Returns the cluster eigenvalues and projectors of every row, row k's at
    ``starts[k]:starts[k + 1]``, with the n + 1 ``starts`` and the n spectral norms; the
    clustering is that of ``hermitian_eigendecomposition``, and every array is read-only.
    Cluster starts are found for all rows at once; each cluster's mean and projector
    product stay one call each, as their batched forms sum in another order.
    """
    try:
        w, V = np.linalg.eigh(H)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigensolver failed: {exc}") from exc
    n, d = w.shape
    norms = np.max(np.abs(w), axis=1, initial=0.0)
    cut = np.ones((n, d), dtype=bool)  # cut[k, i]: a cluster of row k starts at w[k, i]
    cut[:, 1:] = np.diff(w, axis=1) > CLUSTER_RTOL * norms[:, None]
    flat = np.flatnonzero(cut)
    eigenvalues = np.empty(len(flat))
    projectors = np.empty((len(flat), d, d), dtype=complex)
    rows, firsts = np.divmod(flat, d)
    ends = np.append(flat[1:], n * d) - rows * d  # where the next cluster begins, or d
    for c, (k, i, j) in enumerate(zip(rows.tolist(), firsts.tolist(), ends.tolist())):
        eigenvalues[c] = np.mean(w[k, i:j])
        projectors[c] = V[k, :, i:j] @ V[k, :, i:j].conj().T
    starts = np.concatenate([[0], np.cumsum(cut.sum(axis=1))])
    for M in (eigenvalues, projectors, starts, norms):
        M.flags.writeable = False
    return eigenvalues, projectors, starts, norms


def tensor(A, B) -> np.ndarray:
    """Kronecker product under the A-major index convention."""
    return np.kron(as_array(A), as_array(B))


def _pairings(M: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re Tr[M_n B_m^dagger] for stacks M and B, as (nM, nB): the Hilbert-Schmidt pairing."""
    M, B = (S.reshape(len(S), math.prod(S.shape[1:])) for S in (M, B))  # empty stacks too
    return (M @ B.conj().T).real


def partial_trace(M, dimA: int, dimB: int, which: str) -> np.ndarray:
    """Trace out factor ``which`` ('A' or 'B') of a matrix on A x B."""
    dimA, dimB = as_int(dimA, "dimA", 1), as_int(dimB, "dimB", 1)
    T = as_array(M, (dimA * dimB, dimA * dimB)).reshape(dimA, dimB, dimA, dimB)
    if which == "A":
        return np.trace(T, axis1=0, axis2=2)
    if which == "B":
        return np.trace(T, axis1=1, axis2=3)
    raise DimensionMismatch(f"which must be 'A' or 'B', got {which!r}")
