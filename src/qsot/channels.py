"""CPTP maps in Kraus form, their Jamiolkowski/Choi matrices, and a channel zoo."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter
from .linalg import DENSITY_TOL, TP_TOL, WEIGHT_CUT, as_array, as_int, check_hermitian


class QuantumChannel:
    """A CPTP map stored as a read-only (nk, dim_out, dim_in) stack of Kraus operators.

    Kraus is the canonical representation: application is cheap and complete
    positivity holds by construction, so only trace preservation is checked: a Kraus
    set whose residual ||sum_k K_k^dagger K_k - 1|| exceeds TP_TOL raises
    InvalidParameter. The Jamiolkowski matrix is built once at construction and
    shared read-only; the Choi matrix is derived from it.
    """

    def __init__(self, kraus):
        kraus = list(kraus)
        if not kraus:
            raise InvalidParameter("need at least one Kraus operator")
        K = as_array(kraus, (None, None, None))  # made from a list, so never the caller's array
        _, self.dim_out, self.dim_in = K.shape
        rows = K.reshape(-1, self.dim_in)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf or nan
            tp_residual = float(np.linalg.norm(rows.conj().T @ rows - np.eye(self.dim_in)))
        if not np.isfinite(tp_residual):  # the Choi matrix would overflow too
            raise InvalidParameter("Kraus set is not CPTP: sum_k K_k^dagger K_k overflows")
        if tp_residual > TP_TOL:
            raise InvalidParameter(f"Kraus set is not CPTP: TP residual {tp_residual:.3e}")
        # v[k, (i, out)] = K_k[out, i] with A-major indexing, so the Choi matrix
        # sum_ij E_ij (x) E(E_ij) is sum_k vec(K_k) vec(K_k)^dagger, added in Kraus
        # order one outer product at a time, so it needs O(D^2) memory, not O(nk D^2).
        # That sum is positive semidefinite, so it needs no spectrum check.
        v = K.transpose(0, 2, 1).reshape(len(K), -1)
        choi = np.zeros((v.shape[1], v.shape[1]), dtype=complex)
        for vk in v:
            choi += np.outer(vk, vk.conj())
        self.kraus = K
        self._jam = _swap_A(choi, self.dim_in, self.dim_out)
        for M in (K, self._jam):
            M.flags.writeable = False

    @property
    def jamiolkowski(self) -> np.ndarray:
        """The Jamiolkowski matrix sum_{ij} E_ij (x) E(E_ji)."""
        return self._jam


@dataclass(frozen=True, eq=False)
class Process:
    """A channel together with an input density matrix on its input algebra."""

    channel: QuantumChannel
    rho: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "rho", _density(self.rho, self.dim_in, "state"))

    @property
    def dim_in(self) -> int:
        return self.channel.dim_in

    @property
    def dim_out(self) -> int:
        return self.channel.dim_out


def _density(rho, d: int | None, what: str) -> np.ndarray:
    """The hermitian part of rho, checked as a d x d (any square if d is None) state of
    unit trace with no eigenvalue below -DENSITY_TOL; for a hermitian rho it is rho bit for bit.
    """
    rho = check_hermitian(as_array(rho, (d, d)))
    rho = 0.5 * (rho + rho.conj().T)
    if abs(np.trace(rho).real - 1.0) > DENSITY_TOL:
        raise InvalidParameter(f"{what} trace {np.trace(rho).real} != 1")
    if np.linalg.eigvalsh(rho).min() < -DENSITY_TOL:
        raise InvalidParameter(f"{what} has a negative eigenvalue beyond tolerance")
    return rho


def apply(channel: QuantumChannel, M) -> np.ndarray:
    """Evaluate the channel on M via the Kraus sum."""
    M = as_array(M, (channel.dim_in, channel.dim_in))
    out = np.zeros((channel.dim_out, channel.dim_out), dtype=complex)
    for K in channel.kraus:
        out += K @ M @ K.conj().T
    return out


def _swap_A(M: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    """Partial transpose on the A factor: it maps the Choi matrix to the Jamiolkowski matrix."""
    d = dim_in * dim_out
    return M.reshape(dim_in, dim_out, dim_in, dim_out).transpose(2, 1, 0, 3).reshape(d, d)


def choi_matrix(channel: QuantumChannel) -> np.ndarray:
    """Choi matrix sum_{ij} E_ij (x) E(E_ij), derived from the Jamiolkowski matrix.

    The A-swap is its own inverse, so this is bit for bit the sum the constructor
    formed. Writing to the result leaves the channel unchanged.
    """
    return _swap_A(channel.jamiolkowski, channel.dim_in, channel.dim_out)


def identity_channel(d: int) -> QuantumChannel:
    return QuantumChannel([np.eye(as_int(d, "d", 1))])


def discard_prepare(sigma, dim_in: int | None = None) -> QuantumChannel:
    """E(A) = Tr[A] sigma for a density matrix sigma; dim_in defaults to sigma's."""
    sigma = _density(sigma, None, "prepared state")
    dim_in = sigma.shape[0] if dim_in is None else as_int(dim_in, "dim_in", 1)
    return _discard_prepare_dims(sigma, dim_in)


def _discard_prepare_dims(sigma: np.ndarray, dim_in: int) -> QuantumChannel:
    # Kraus set: sqrt(w_k) |v_k><i| over output eigenvectors and input basis states, k-major.
    w, V = np.linalg.eigh(sigma)
    cols = (np.sqrt(w[w > WEIGHT_CUT]) * V[:, w > WEIGHT_CUT]).T
    kraus = np.zeros((len(cols), dim_in, len(sigma), dim_in), dtype=complex)
    for i in range(dim_in):
        kraus[:, i, :, i] = cols
    return QuantumChannel(kraus.reshape(-1, len(sigma), dim_in))


def depolarizing(d: int, p: float) -> QuantumChannel:
    """Mix the identity channel with discard-and-prepare of the maximally mixed state."""
    if not 0.0 <= p <= 1.0:
        raise InvalidParameter("depolarizing strength must lie in [0, 1]")
    d = as_int(d, "d", 1)
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
    m, n = as_int(m, "m", 2), as_int(n, "n", 2)
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


def random_channel(dim_in: int, dim_out: int, rng: np.random.Generator,
                   env_dim: int | None = None) -> QuantumChannel:
    """Haar-random channel via a Stinespring isometry from QR of a Gaussian matrix."""
    dim_in, dim_out = as_int(dim_in, "dim_in", 1), as_int(dim_out, "dim_out", 1)
    env_dim = dim_in if env_dim is None else as_int(env_dim, "env_dim", 1)
    rows = dim_out * env_dim
    if rows < dim_in:
        raise InvalidParameter("environment too small for an isometry")
    G = rng.standard_normal((rows, dim_in)) + 1j * rng.standard_normal((rows, dim_in))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))  # phase fix for Haar uniformity
    W = Q.reshape(dim_out, env_dim, dim_in)
    return QuantumChannel([W[:, e, :] for e in range(env_dim)])


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix from a Ginibre matrix: the hermitian part of
    G G^dagger / Tr, so it equals its conjugate transpose exactly and its diagonal is real.
    """
    d = as_int(d, "d", 1)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    rho = rho / np.trace(rho).real
    return (rho + rho.conj().T) / 2


def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    d = as_int(d, "d", 1)
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (G + G.conj().T) / 2


def random_process(dim_in: int, dim_out: int, rng: np.random.Generator) -> Process:
    return Process(random_channel(dim_in, dim_out, rng), random_density(dim_in, rng))
