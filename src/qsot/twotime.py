"""Two-time expectation values of sequential projective measurements.

The value <O_A, O_B> for a process (E, rho) is
sum_i lam_i Tr[E(P_i rho P_i) O_B], summed over the distinct-eigenvalue
projectors P_i of O_A. Equivalently sum_{ij} lam_i mu_j P(i, j) with
P(i, j) = Tr[E(P_i rho P_i) Q_j].
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .channels import Process, isometry_embed, random_hermitian
from .errors import DimensionMismatch, NumericalFailure
from .linalg import (PROB_NEG_LIMIT, PROB_SUM_TOL, SpectralDecomposition, _pairings, as_array,
                     as_int)
from .observables import (Observable, hermitian_basis, light_touch_basis_qutrit,
                          light_touch_spanning_set, pauli_basis, sic_fiducial_w, sic_povm)


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """Joint outcome distribution of the two sequential measurements."""

    outcomes_A: np.ndarray
    outcomes_B: np.ndarray
    probs: np.ndarray = field(repr=False)


@functools.lru_cache(maxsize=16)  # the 16 most recently used records
def _record(observables: tuple, dim: int) -> SpectralDecomposition:
    """The record of the observables' matrices, stacked once into a (n, dim, dim) array."""
    stack = np.array([obs.matrix for obs in observables], dtype=complex)
    return SpectralDecomposition(stack.reshape(-1, dim, dim))


def _basis(observables, dim: int, label: str = "frame element",
           target: str = "dimension") -> SpectralDecomposition:
    """The record of a list of observables, each of which must have dimension dim.

    Records sit in a bounded LRU memo (``_record``) keyed on (the observables' tuple, dim):
    an ``Observable`` is immutable and hashes by identity, so the same observables share one
    record, and the key holds them, so no reused id reaches a stale record. Records are
    immutable: two threads may build one twice, harmlessly.
    """
    observables = tuple(observables)
    for obs in observables:
        if obs.dim != dim:
            raise DimensionMismatch(f"{label} dim {obs.dim} != {target} {dim}")
    return _record(observables, dim)


def _records(process: Process, As, Bs) -> tuple:
    """The records of first observables on the channel input and second ones on its output."""
    return (_basis(As, process.dim_in, "O_A", "channel input"),
            _basis(Bs, process.dim_out, "O_B", "channel output"))


def _evolve(channel, L: np.ndarray) -> np.ndarray:
    """E(L_n) for a whole stack L at once: vec(E(L_n)) = vec(L_n) T, one product with the
    channel's transfer matrix T (see ``QuantumChannel``).
    """
    dA, dB = channel.dim_in, channel.dim_out
    return (L.reshape(len(L), dA * dA) @ channel._transfer).reshape(len(L), dB, dB)


def _values(process: Process, A: SpectralDecomposition, B: SpectralDecomposition) -> np.ndarray:
    """Tr[E(L_a) B_b] for records A and B, with L_a = sum_i lam_i P_i rho P_i.

    The clusters of all first observables are sandwiched in one batch and summed
    back per observable, so uneven cluster counts need no padding.
    """
    if not len(A.stack) or not len(B.stack):
        return np.zeros((len(A.stack), len(B.stack)))
    P = A.projectors
    L = np.add.reduceat(A.eigenvalues[:, None, None] * (P @ process.rho @ P), A.starts[:-1], axis=0)
    return _pairings(_evolve(process.channel, L), B.stack)


def _traces(X: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # With X[i, b, j, d] = X[(i, b), (j, d)], Tr[X (A (x) B)] is
    # sum X[i, b, j, d] A[j, i] B[d, b]: a product of three matrices.
    nA, dA, _ = A.shape
    nB, dB, _ = B.shape
    Xt = X.reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3).reshape(dA * dA, dB * dB)
    At = A.transpose(0, 2, 1).reshape(nA, dA * dA)
    Bt = B.transpose(0, 2, 1).reshape(nB, dB * dB)
    return (At @ Xt @ Bt.T).real


def two_time_grid(process: Process, As, Bs) -> np.ndarray:
    """The (nA, nB) array of <A_a, B_b> = Tr[E(L_a) B_b], L_a = sum_i lam_i P_i rho P_i.

    The channel is linear, so each row needs E applied once, to the Lüders
    operator L_a; all rows are evolved in one batch and paired with every
    second observable in one product.
    """
    return _values(process, *_records(process, As, Bs))


def trace_grid(X, As, Bs) -> np.ndarray:
    """The (nA, nB) array of Tr[X (A_a (x) B_b)], with no A_a (x) B_b formed.

    X is read first, so an empty list answers zeros only for a valid X.
    """
    X, As, Bs = as_array(X), tuple(As), tuple(Bs)
    if not As or not Bs:
        return np.zeros((len(As), len(Bs)))
    A = _basis(As, As[0].dim, "O_A", "first O_A").stack
    B = _basis(Bs, Bs[0].dim, "O_B", "first O_B").stack
    return _traces(as_array(X, (A.shape[1] * B.shape[1],) * 2), A, B)


def _joint_table(process: Process, A: SpectralDecomposition,
                 B: SpectralDecomposition) -> np.ndarray:
    """P(i, j) = Tr[E(P_i rho P_i) Q_j] for every cluster of every A against every cluster of every B.

    The eigenprojectors of all first observables are sandwiched, evolved and
    paired with those of all second observables in one batch. The table is
    checked against PROB_NEG_LIMIT and clamped at 0. The joint distribution
    of observables a and b is the block
    table[A.starts[a]:A.starts[a + 1], B.starts[b]:B.starts[b + 1]].
    """
    P = A.projectors
    table = _pairings(_evolve(process.channel, P @ process.rho @ P), B.projectors)
    if table.min() < -PROB_NEG_LIMIT:
        raise NumericalFailure(f"probability {table.min()} below clamping limit")
    return np.maximum(table, 0.0)


def joint_distribution(process: Process, O_A: Observable, O_B: Observable) -> JointDistribution:
    """P(i, j) = Tr[E(P_i rho P_i) Q_j] over distinct-eigenvalue projectors."""
    A, B = _records(process, [O_A], [O_B])
    probs = _joint_table(process, A, B)
    total = probs.sum()
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise NumericalFailure(f"joint distribution sums to {total}")
    return JointDistribution(outcomes_A=A.eigenvalues.copy(), outcomes_B=B.eigenvalues.copy(),
                             probs=probs)


def two_time_ev(process: Process, O_A: Observable, O_B: Observable) -> float:
    """sum_i lam_i Tr[E(P_i rho P_i) O_B]; real up to roundoff."""
    return float(two_time_grid(process, [O_A], [O_B])[0, 0])


def sot_trace_value(X: np.ndarray, O_A: Observable, O_B: Observable) -> float:
    """Tr[X (O_A (x) O_B)], the candidate bilinear representation."""
    return float(trace_grid(X, [O_A], [O_B])[0, 0])


def _unique(observables) -> tuple:
    """The distinct observables by identity, in order of first appearance, and each
    input's index among them.

    ``Observable`` hashes by identity, so one dict pass numbers each on first sight; a list
    with no repeats is its own distinct list, so shares its record.
    """
    index = {}
    ia = [index.setdefault(o, len(index)) for o in observables]
    return list(index), ia


def representability_residual(process: Process, X, probes) -> float:
    """Worst normalized deviation |<O_A, O_B> - Tr[X (O_A (x) O_B)]| over probes.

    Each probe is normalized by max(1, ||O_A|| ||O_B||) in spectral norm so
    residuals are comparable across probe scales. The distinct first and
    second observables make one grid of each side, and both sides' norms
    come from their records.
    """
    X = as_array(X, (process.dim_in * process.dim_out,) * 2)
    probes = list(probes)
    if not probes:
        return 0.0
    firsts, seconds = zip(*probes)
    As, ia = _unique(firsts)
    Bs, ib = _unique(seconds)
    A, B = _records(process, As, Bs)
    dev = np.abs(_values(process, A, B) - _traces(X, A.stack, B.stack))[ia, ib]
    return float(np.max(dev / np.maximum(1.0, A.norms[ia] * B.norms[ib])))


@functools.lru_cache(maxsize=16)
def _frames(d: int) -> tuple:
    """Per dimension: the light-touch frame and the hermitian basis.

    The frame is orthogonal where such a basis is known: the Pauli strings at
    d = 2^m >= 2 and the qutrit SIC-induced basis (W family, chi = 0) at d = 3. At
    every other d it is the light-touch spanning set. This is the one place a
    light-touch frame is chosen: ``light_touch_probes``, ``reconstruct_unique``, the
    maximality scan and both modes of ``qsot pdm-reconstruct`` read it, and so share
    its basis records.
    """
    m = d.bit_length() - 1
    if d == 3:
        frame = light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    elif d > 1 and d == 1 << m:
        frame = pauli_basis(m)
    else:
        frame = light_touch_spanning_set(d)
    return tuple(frame), tuple(hermitian_basis(d))


def light_touch_probes(dim_in: int, dim_out: int) -> list:
    """Product probes with light-touch first factors: the frame of ``_frames(dim_in)``
    x the hermitian basis of ``_frames(dim_out)``.

    The observables are shared between calls, and their matrices are read-only.
    """
    basis_B = _frames(as_int(dim_out, "dim_out", 1))[1]
    return [(A, B) for A in _frames(as_int(dim_in, "dim_in", 1))[0] for B in basis_B]


def general_probes(dim_in: int, dim_out: int, rng: np.random.Generator) -> list:
    """Twenty random hermitian probe pairs, generically non-light-touch on both sides."""
    return [(Observable(random_hermitian(dim_in, rng)), Observable(random_hermitian(dim_out, rng)))
            for _ in range(20)]


@dataclass(frozen=True, eq=False)
class NonrepresentableWitness:
    """The constructed non-representable process with its nonlinearity certificate."""

    process: Process
    O_A1: Observable
    O_A2: Observable
    O_B: Observable
    gap: float

    @property
    def O_A_diff(self) -> Observable:
        return Observable(self.O_A1.matrix - self.O_A2.matrix)


def _embed_top_left(block: np.ndarray, dim: int, fill: complex = 0.0) -> np.ndarray:
    M = np.eye(dim, dtype=complex) * fill
    M[:2, :2] = block
    return M


def nonrepresentable_witness(m: int, n: int, a: float = 2.0, c: float = 2.0) -> NonrepresentableWitness:
    """Construct a non-representable process on M_m -> M_n with nonlinearity gap c.

    The channel isometrically embeds span(e0, e1) and discards the rest into
    the maximally mixed state; the state is |-><-| in the top-left block. The
    two first observables are qubit spin observables padded so their spectra
    match the 2x2 case, and the nonlinearity gap
    <O1 - O2, O_B> - (<O1, O_B> - <O2, O_B>) evaluates exactly to c, the
    second-Pauli coefficient of O_B. The default a = c = 2 yields gap 2; any
    c != 0 certifies nonlinearity.
    """
    channel = isometry_embed(m, n)
    m, n = channel.dim_in, channel.dim_out
    minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
    process = Process(channel, _embed_top_left(minus, m))

    def four_vector_obs(y0, y1, y2, y3):
        return np.array(
            [[y0 + y3, y1 - 1j * y2], [y1 + 1j * y2, y0 - y3]], dtype=complex
        )

    # x = (1, 1, 0, 0), y = (-1, 0, 1, 0); pads are x0 + |x| and y0 + |y|.
    O_A1 = Observable(_embed_top_left(four_vector_obs(1, 1, 0, 0), m, fill=2.0))
    O_A2 = Observable(_embed_top_left(four_vector_obs(-1, 0, 1, 0), m, fill=0.0))
    O_B = Observable(_embed_top_left(four_vector_obs(a, 0, c, 0), n, fill=0.0))

    diff, first, second = two_time_grid(
        process, [Observable(O_A1.matrix - O_A2.matrix), O_A1, O_A2], [O_B])[:, 0].tolist()
    return NonrepresentableWitness(process=process, O_A1=O_A1, O_A2=O_A2, O_B=O_B,
                                   gap=diff - first + second)
