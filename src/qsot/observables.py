"""Observables: light-touch classification, Pauli strings, qutrit SIC-POVMs.

Light-touch observables are hermitian matrices with a single distinct singular
value, i.e. spectrum {lam} or {+lam, -lam}. They generalize Pauli observables
to arbitrary dimension.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import FailedOverlapCondition, InvalidIndex, ParameterOutOfRange
from .linalg import (
    CLUSTER_RTOL,
    FIDUCIAL_NORM_TOL,
    SIC_ANGLE_TOL,
    SIC_OVERLAP_TOL,
    SpectralDecomposition,
    _decompose,
    check_hermitian,
    hermitian_eigendecomposition,
    tensor,
)

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class Classification:
    """Spectral class of an observable: scalar, dichotomous, or general."""

    kind: str  # "scalar" | "dichotomous" | "general"
    value: float | None = None  # lam for scalar/dichotomous

    @property
    def is_light_touch(self) -> bool:
        return self.kind in ("scalar", "dichotomous")


@dataclass(frozen=True, eq=False)
class Observable:
    """A hermitian matrix with lazily computed spectral data.

    ``matrix`` is a read-only copy of the given one, so changing the caller's
    array leaves the observable and its spectral data as they were.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        M = np.array(check_hermitian(self.matrix))
        M.flags.writeable = False
        object.__setattr__(self, "matrix", M)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def spectral(self) -> SpectralDecomposition:
        return _decompose(self.matrix)

    @functools.cached_property
    def classification(self) -> Classification:
        return _classify(self.spectral.eigenvalues)

    @property
    def is_light_touch(self) -> bool:
        return self.classification.is_light_touch


def classify_light_touch(O) -> Classification:
    """Classify an observable by its distinct-eigenvalue structure.

    The zero matrix classifies as scalar with value 0.
    """
    return _classify(hermitian_eigendecomposition(O).eigenvalues)


def _classify(lams: np.ndarray) -> Classification:
    # Two clusters are dichotomous when their eigenvalues cancel within the clustering rule.
    if len(lams) == 1:
        return Classification("scalar", float(lams[0]))
    if len(lams) == 2 and abs(lams[0] + lams[1]) <= CLUSTER_RTOL * float(np.max(np.abs(lams))):
        return Classification("dichotomous", float(lams[1]))
    return Classification("general")


def pauli_string(alpha) -> Observable:
    """Tensor product of single-qubit Paulis indexed by a sequence over {0,1,2,3}."""
    alpha = tuple(alpha)
    if not alpha:
        raise InvalidIndex("index sequence must be nonempty")
    if any(a not in (0, 1, 2, 3) for a in alpha):
        raise InvalidIndex(f"Pauli indices must lie in 0..3, got {alpha}")
    M = PAULI[alpha[0]]
    for a in alpha[1:]:
        M = tensor(M, PAULI[a])
    return Observable(M)


def pauli_basis(m: int) -> list:
    """All 4^m Pauli strings on m qubits, in lexicographic index order."""
    return [pauli_string(alpha) for alpha in itertools.product(range(4), repeat=m)]


def weyl_heisenberg(j: int, k: int, d: int = 3) -> np.ndarray:
    """Phase-decorated shift operator w^{jk/2} sum_l w^{jl} |k+l mod d><l|.

    The half-power of w = exp(2 pi i / d) is taken on the principal branch,
    exp(i pi j k / d), matching the printed d=3 operator table.
    """
    if not (0 <= j < d and 0 <= k < d):
        raise InvalidIndex(f"indices must lie in 0..{d - 1}")
    G = np.zeros((d, d), dtype=complex)
    omega = np.exp(2j * np.pi / d)
    phase = np.exp(1j * np.pi * j * k / d)
    for l in range(d):
        G[(k + l) % d, l] = phase * omega ** (j * l)
    return G


_VALID_ANGLES = (np.pi / 3, np.pi, 5 * np.pi / 3)


def _permute(v: np.ndarray, permutation) -> np.ndarray:
    """v with entry i moved to index permutation[i], a permutation of (0, 1, 2)."""
    perm = tuple(permutation)
    if sorted(perm) != [0, 1, 2]:
        raise ParameterOutOfRange(f"not a permutation of (0, 1, 2): {perm}")
    return v[np.argsort(perm)]


def sic_fiducial_w(chi: float, permutation=(0, 1, 2)) -> np.ndarray:
    """Fiducial (1, e^{i chi}, 0)/sqrt(2), optionally permuted."""
    if not 0.0 <= chi < 2 * np.pi:
        raise ParameterOutOfRange("chi must lie in [0, 2 pi)")
    v = np.array([1.0, np.exp(1j * chi), 0.0]) / np.sqrt(2)
    return _permute(v, permutation)


def sic_fiducial_v(r0: float, theta: float, phi: float, permutation=(0, 1, 2)) -> np.ndarray:
    """Fiducial (r0, r+ e^{i theta}, r- e^{i phi}) with r+- = (r0 +- sqrt(2 - 3 r0^2))/2."""
    if not 1 / np.sqrt(2) < r0 <= np.sqrt(2 / 3):
        raise ParameterOutOfRange("r0 must satisfy 1/sqrt(2) < r0 <= sqrt(2/3)")
    if not all(np.abs(np.subtract(_VALID_ANGLES, x)).min() <= SIC_ANGLE_TOL for x in (theta, phi)):
        raise ParameterOutOfRange("theta and phi must lie in {pi/3, pi, 5 pi/3}")
    root = np.sqrt(max(2 - 3 * r0**2, 0.0))
    r_plus = (r0 + root) / 2
    r_minus = (r0 - root) / 2
    v = np.array([r0, r_plus * np.exp(1j * theta), r_minus * np.exp(1j * phi)])
    return _permute(v, permutation)


@dataclass(frozen=True, eq=False)
class SicPovm:
    """Nine rank-1 qutrit projectors in the Weyl-Heisenberg orbit of a fiducial."""

    fiducial: np.ndarray = field(repr=False)
    projectors: tuple = field(repr=False)  # indexed (j, k) row-major
    overlap_residual: float  # max |Tr[P_a P_b] - 1/4| over distinct pairs

    dim = 3

    def projector(self, j: int, k: int) -> np.ndarray:
        return self.projectors[3 * j + k]


def sic_povm(fiducial) -> SicPovm:
    """Build the SIC-POVM G_jk |psi><psi| G_jk^dagger and verify its overlaps.

    Membership of the fiducial in the valid set is checked operationally: all
    distinct-pair overlaps must equal 1/4 within tolerance, else
    FailedOverlapCondition reports the worst pair.
    """
    psi = np.asarray(fiducial, dtype=complex).reshape(3)
    if abs(np.linalg.norm(psi) - 1.0) > FIDUCIAL_NORM_TOL:
        raise FailedOverlapCondition("fiducial is not a unit vector")
    projectors = []
    for j in range(3):
        for k in range(3):
            v = weyl_heisenberg(j, k) @ psi
            projectors.append(np.outer(v, v.conj()))
    # Tr[P_a P_b] = sum_ij P_a[i, j] conj(P_b[i, j]) for hermitian P_b: one Gram product.
    flat = np.array(projectors).reshape(9, 9)
    pairs = np.triu_indices(9, k=1)
    devs = np.abs((flat @ flat.conj().T).real - 0.25)[pairs]
    worst_at = int(np.argmax(devs))
    worst = float(devs[worst_at])
    if worst > SIC_OVERLAP_TOL:
        a, b = int(pairs[0][worst_at]), int(pairs[1][worst_at])
        raise FailedOverlapCondition(
            f"overlap deviates from 1/4 by {worst:.3e} at pair {(divmod(a, 3), divmod(b, 3))}"
        )
    return SicPovm(fiducial=psi, projectors=tuple(projectors), overlap_residual=worst)


def light_touch_basis_qutrit(povm: SicPovm) -> list:
    """The nine dichotomous observables 2 P_jk - 1; orthogonal with norm sqrt(3)."""
    eye = np.eye(3)
    return [Observable(2 * P - eye) for P in povm.projectors]


def light_touch_spanning_set(d: int) -> list:
    """A basis of d^2 light-touch observables for hermitian d x d matrices.

    Contains the identity, the dichotomous 2|e_i><e_i| - 1 for i < d - 1, and
    for each pair i < j the dichotomous 2P - 1 with P projecting onto
    (|e_i> + |e_j>)/sqrt(2) and (|e_i> + i |e_j>)/sqrt(2).
    """
    if d < 1:
        raise ParameterOutOfRange("dimension must be positive")
    eye = np.eye(d, dtype=complex)
    out = [Observable(eye)]
    for i in range(d - 1):
        M = -eye.copy()
        M[i, i] = 1.0
        out.append(Observable(M))
    for i in range(d):
        for j in range(i + 1, d):
            for amp in (1.0, 1j):
                v = np.zeros(d, dtype=complex)
                v[i] = 1 / np.sqrt(2)
                v[j] = amp / np.sqrt(2)
                out.append(Observable(2 * np.outer(v, v.conj()) - eye))
    assert len(out) == d * d
    return out


def gram_matrix(observables) -> np.ndarray:
    """Re Tr[O_a^dagger O_b] for every pair, as one product of the flattened matrices."""
    flat = np.array([obs.matrix.ravel() for obs in observables])
    return (flat.conj() @ flat.T).real


def hermitian_basis(d: int) -> list:
    """Orthonormal real basis of hermitian d x d matrices (HS inner product)."""
    out = []
    for i in range(d):
        E = np.zeros((d, d), dtype=complex)
        E[i, i] = 1.0
        out.append(Observable(E))
    for i in range(d):
        for j in range(i + 1, d):
            S = np.zeros((d, d), dtype=complex)
            S[i, j] = S[j, i] = 1 / np.sqrt(2)
            out.append(Observable(S))
            A = np.zeros((d, d), dtype=complex)
            A[i, j] = -1j / np.sqrt(2)
            A[j, i] = 1j / np.sqrt(2)
            out.append(Observable(A))
    return out
