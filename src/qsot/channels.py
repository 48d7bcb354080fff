"""CPTP maps in Kraus form, their Jamiolkowski/Choi matrices, and a channel zoo."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .linalg import as_matrix, check_hermitian

TP_TOL = 1e-9
DENSITY_TOL = 1e-10


class QuantumChannel:
    """A CPTP map stored as Kraus operators, with its Jamiolkowski matrix cached.

    Kraus is the canonical representation: application is cheap and complete
    positivity holds by construction for generated channels. The Jamiolkowski
    matrix is derived once at construction and shared read-only.
    """

    def __init__(self, kraus, validate: bool = True):
        kraus = [as_matrix(K) for K in kraus]
        if not kraus:
            raise InvalidParameter("need at least one Kraus operator")
        shape = kraus[0].shape
        if any(K.shape != shape for K in kraus):
            raise DimensionMismatch("Kraus operators must share a common shape")
        self.kraus = tuple(kraus)
        self.dim_out, self.dim_in = shape
        self._jam = _jamiolkowski_from_kraus(self.kraus, self.dim_in, self.dim_out)
        if validate:
            report = validate_cptp(self, tol=TP_TOL)
            if not report.accepted:
                raise InvalidParameter(
                    f"Kraus set is not CPTP: TP residual {report.tp_residual:.3e}, "
                    f"min Choi eigenvalue {report.min_choi_eigenvalue:.3e}"
                )

    def __call__(self, M) -> np.ndarray:
        return apply(self, M)

    @property
    def jamiolkowski(self) -> np.ndarray:
        """The Jamiolkowski matrix sum_{ij} E_ij (x) E(E_ji)."""
        return self._jam


@dataclass(frozen=True)
class ValidationReport:
    tp_residual: float
    min_choi_eigenvalue: float
    tol: float

    @property
    def accepted(self) -> bool:
        return self.tp_residual <= self.tol and self.min_choi_eigenvalue >= -self.tol


@dataclass(frozen=True)
class Process:
    """A channel together with an input density matrix on its input algebra."""

    channel: QuantumChannel
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        rho = check_hermitian(self.rho, rtol=1e-9)
        # Keep the hermitian part, so anti-hermitian roundoff cannot reach the state over time.
        rho = 0.5 * (rho + rho.conj().T)
        if rho.shape[0] != self.channel.dim_in:
            raise DimensionMismatch(
                f"state dimension {rho.shape[0]} != channel input {self.channel.dim_in}"
            )
        if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
            raise InvalidParameter(f"state trace {np.trace(rho).real} != 1")
        if np.linalg.eigvalsh(rho).min() < -DENSITY_TOL:
            raise InvalidParameter("state has a negative eigenvalue beyond tolerance")
        object.__setattr__(self, "rho", rho)

    @property
    def dim_in(self) -> int:
        return self.channel.dim_in

    @property
    def dim_out(self) -> int:
        return self.channel.dim_out


def apply(channel: QuantumChannel, M) -> np.ndarray:
    """Evaluate the channel on M via the Kraus sum."""
    M = as_matrix(M)
    d = channel.dim_in
    if M.shape != (d, d):
        raise DimensionMismatch(f"expected {(d, d)}, got {M.shape}")
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for K in channel.kraus:
        out += K @ M @ K.conj().T
    return out


def adjoint_apply(channel: QuantumChannel, B) -> np.ndarray:
    """Hilbert-Schmidt adjoint: B -> sum_k K^dagger B K (unital)."""
    B = as_matrix(B)
    d = channel.dim_out
    if B.shape != (d, d):
        raise DimensionMismatch(f"expected {(d, d)}, got {B.shape}")
    out = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for K in channel.kraus:
        out += K.conj().T @ B @ K
    return out


def _jamiolkowski_from_kraus(kraus, dim_in: int, dim_out: int) -> np.ndarray:
    # sum_{ij} E_ij (x) E(E_ji) == partial transpose on A of the Choi matrix
    # sum_k vec(K)vec(K)^dagger with A-major vec indexing.
    d = dim_in * dim_out
    choi = np.zeros((d, d), dtype=complex)
    for K in kraus:
        # column i of K holds E(|i><i|)-style data: Choi = sum_ij E_ji (x) K E_ij K^dag
        v = K.T.reshape(d)  # v[(i, out)] = K[out, i], A-major
        choi += np.outer(v, v.conj())
    jam = choi.reshape(dim_in, dim_out, dim_in, dim_out).transpose(2, 1, 0, 3).reshape(d, d)
    return jam


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix: partial transpose of the Jamiolkowski matrix on the A factor."""
    dA, dB = channel.dim_in, channel.dim_out
    d = dA * dB
    J = channel.jamiolkowski.reshape(dA, dB, dA, dB)
    return J.transpose(2, 1, 0, 3).reshape(d, d)


def validate_cptp(channel: QuantumChannel, tol: float = TP_TOL) -> ValidationReport:
    """Report trace-preservation residual and minimum Choi eigenvalue."""
    acc = np.zeros((channel.dim_in, channel.dim_in), dtype=complex)
    for K in channel.kraus:
        acc += K.conj().T @ K
    tp_residual = float(np.linalg.norm(acc - np.eye(channel.dim_in)))
    min_eig = float(np.linalg.eigvalsh(choi_matrix(channel)).min())
    return ValidationReport(tp_residual=tp_residual, min_choi_eigenvalue=min_eig, tol=tol)


def identity_channel(d: int) -> QuantumChannel:
    if d < 1:
        raise InvalidParameter("dimension must be positive")
    return QuantumChannel([np.eye(d)])


def discard_prepare(sigma, dim_in: int | None = None) -> QuantumChannel:
    """E(A) = Tr[A] sigma for a density matrix sigma; dim_in defaults to sigma's."""
    sigma = check_hermitian(sigma)
    if abs(np.trace(sigma).real - 1.0) > DENSITY_TOL:
        raise InvalidParameter("prepared state must have unit trace")
    if np.linalg.eigvalsh(sigma).min() < -DENSITY_TOL:
        raise InvalidParameter("prepared state must be positive semidefinite")
    return _discard_prepare_dims(sigma, dim_in or sigma.shape[0])


def _discard_prepare_dims(sigma: np.ndarray, dim_in: int) -> QuantumChannel:
    # Kraus set: sqrt(w_k) |v_k><i| over output eigenvectors and input basis states.
    w, V = np.linalg.eigh(sigma)
    kraus = []
    for k in range(len(w)):
        if w[k] <= 1e-15:
            continue
        col = np.sqrt(max(float(w[k]), 0.0)) * V[:, k]
        for i in range(dim_in):
            K = np.zeros((sigma.shape[0], dim_in), dtype=complex)
            K[:, i] = col
            kraus.append(K)
    return QuantumChannel(kraus)


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Mix the identity channel with discard-and-prepare of the maximally mixed state."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter("depolarizing strength must lie in [0, 1]")
    if d < 1:
        raise InvalidParameter("dimension must be positive")
    kraus = [np.sqrt(1.0 - p) * np.eye(d)]
    mixed = _discard_prepare_dims(np.eye(d) / d, d)
    kraus.extend(np.sqrt(p) * K for K in mixed.kraus)
    return QuantumChannel(kraus)


def isometry_embed(m: int, n: int) -> QuantumChannel:
    """E(A) = V A V^dagger + Tr[P_perp A] 1_n / n with V the m->n block partial isometry.

    V sends span(e0, e1) in C^m isometrically onto span(e0, e1) in C^n and
    kills the orthogonal complement; the complement's weight is dumped into
    the maximally mixed state on the output.
    """
    if m < 2 or n < 2:
        raise InvalidParameter("both dimensions must be at least 2")
    V = np.zeros((n, m), dtype=complex)
    V[0, 0] = 1.0
    V[1, 1] = 1.0
    kraus = [V]
    # Kraus operators for A -> Tr[P_perp A] 1_n / n.
    for i in range(2, m):
        for j in range(n):
            K = np.zeros((n, m), dtype=complex)
            K[j, i] = 1.0 / np.sqrt(n)
            kraus.append(K)
    return QuantumChannel(kraus)


def make_standard(kind: str, **kwargs) -> QuantumChannel:
    """Dispatch constructor for the standard channel zoo."""
    builders = {
        "identity": identity_channel,
        "discard_prepare": discard_prepare,
        "depolarizing": depolarizing,
        "isometry_embed": isometry_embed,
    }
    if kind not in builders:
        raise InvalidParameter(f"unknown channel kind {kind!r}")
    return builders[kind](**kwargs)


def random_channel(dim_in: int, dim_out: int, rng: np.random.Generator,
                   env_dim: int | None = None) -> QuantumChannel:
    """Haar-random channel via a Stinespring isometry from QR of a Gaussian matrix."""
    if env_dim is None:
        env_dim = dim_in
    rows = dim_out * env_dim
    if rows < dim_in:
        raise InvalidParameter("environment too small for an isometry")
    G = rng.standard_normal((rows, dim_in)) + 1j * rng.standard_normal((rows, dim_in))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))  # phase fix for Haar uniformity
    W = Q.reshape(dim_out, env_dim, dim_in)
    return QuantumChannel([W[:, e, :] for e in range(env_dim)])


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre matrix."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def random_process(dim_in: int, dim_out: int, rng: np.random.Generator) -> Process:
    return Process(random_channel(dim_in, dim_out, rng), random_density(dim_in, rng))
