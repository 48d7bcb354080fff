"""Seeded simulation of the sequential measurement protocol.

The counts of n shots over the outcome pairs (i, j) of the two measurements
follow Multinomial(n, P(i, j)), with P(i, j) the exact joint distribution. They
come from one counter-based Philox stream keyed on the seed, so counts are a
pure function of (seed, shots). One routine, ``_draw``, samples every pair of two
observable lists in one multinomial call, exactly as one draw per pair in turn on the
stream would, and takes all their moments at once. Its padded pair layout depends on the
lists' cluster counts alone, so ``_layout`` builds it once per pair of cluster layouts and
keeps it in a bounded memo. ``estimate_pdm`` hands ``_draw``'s records and means to
``sot._reconstruct``, the expansion exact reconstruction uses, ``sample_sequential`` is
``_draw``'s one-pair case and ``estimate_ev`` its moments of one row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .channels import Process
from .errors import DimensionMismatch, IndexOutOfRange, InvalidParameter, NumericalFailure
# SEED_LIMIT stays bound here: it is the bound ``_as_seed`` puts on every sampled seed.
from .linalg import PROB_SUM_TOL, SEED_LIMIT, _as_seed, as_array, as_int  # noqa: F401
from .observables import Observable
from .sot import StateOverTime, _reconstruct
from .twotime import _joint_table, _records

SHOTS_LIMIT = 1 << 63  # a multinomial draw takes its number of trials as an int64


@dataclass(frozen=True, eq=False)
class ShotRecord:
    """Empirical counts over outcome-index pairs of the two measurements; they sum to shots."""

    counts: np.ndarray  # a read-only copy, shape (num outcomes A, num outcomes B)
    shots: int
    seed: int

    def __post_init__(self):
        c = self.counts
        if not (isinstance(c, np.ndarray) and c.ndim == 2 and c.dtype.kind in "iu"
                and c.min(initial=0) >= 0):
            raise InvalidParameter("counts must be a 2-d array of non-negative integers")
        shots, _ = _check_shots_seed(self.shots, self.seed)
        if shots != np.sum(c):
            raise InvalidParameter(f"shots {shots} != counts sum {np.sum(c)}")
        object.__setattr__(self, "counts", np.array(c))  # the caller's array may change
        self.counts.flags.writeable = False

    def count(self, i: int, j: int) -> int:
        i, j = as_int(i, "i"), as_int(j, "j")
        if not (0 <= i < self.counts.shape[0] and 0 <= j < self.counts.shape[1]):
            raise IndexOutOfRange(f"outcome pair ({i}, {j}) outside counts {self.counts.shape}")
        return int(self.counts[i, j])


def _check_shots_seed(shots, seed) -> tuple:
    """shots in [1, 2^63) and seed in [0, 2^64), as Python ints."""
    shots, seed = as_int(shots, "shots"), _as_seed(seed)
    if not 1 <= shots < SHOTS_LIMIT:
        raise InvalidParameter(f"shots must lie in [1, 2^63), got {shots}")
    return shots, seed


def _rng(seed: int) -> np.random.Generator:
    """A fresh generator on the Philox stream keyed on the seed; numpy sets an int key exactly."""
    return np.random.Generator(np.random.Philox(key=seed))


def _row_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row k of x summed over its last sizes[k] cells, as numpy sums those cells alone.

    numpy sums under eight numbers one by one from +0.0, so leading zero padding that
    narrow changes no bit; from eight on it sums pairwise, so rows of one length are summed
    together at that length, taken from a set (np.unique imports numpy.ma, 1.5 MiB).
    """
    if x.shape[1] < 8:
        return x.sum(axis=1)
    out = np.empty(len(x))
    for n in set(sizes.tolist()):
        rows = sizes == n
        out[rows] = x[rows, -n:].sum(axis=1)
    return out


def _moments(counts: np.ndarray, products: np.ndarray, sizes: np.ndarray, n: int) -> tuple:
    """Each row's mean of the outcome products over n shots and its sample variance."""
    means = _row_sums(counts * products, sizes) / n
    # One shot leaves every deviation at exactly 0, so dividing by 1 keeps var at 0.
    var = _row_sums(counts * (products - means[:, None]) ** 2, sizes) / max(n - 1, 1)
    return means, var


@functools.lru_cache(maxsize=16)  # the bound of ``twotime._record``
def _layout(starts_A: bytes, starts_B: bytes) -> tuple:
    """The padded pair layout of two records, from the bytes of their cluster ``starts``.

    Pair k = a nB + b holds its block's cells row-major at the end of row k, after zero
    padding: cell t >= 0 of it is table cell (starts_A[a] + t // cols[b], starts_B[b] +
    t % cols[b]), with cols the cluster counts of B. Returns, read-only, the cells per pair
    and one index per (pair, cell) into the flattened table with one zero appended;
    padding (t < 0) points at that zero. It depends on the cluster counts alone, so every
    pair of bases with the same counts shares one memo entry, and no record is kept alive.
    """
    starts_A, starts_B = (np.frombuffer(s, dtype=int) for s in (starts_A, starts_B))
    rows, cols = np.diff(starts_A), np.diff(starts_B)
    sizes = np.outer(rows, cols).ravel()
    t = np.arange(sizes.max()) - sizes.max() + sizes[:, None]
    a, b = np.divmod(np.arange(len(sizes))[:, None], len(cols))
    i, j = np.divmod(np.maximum(t, 0), cols[b])
    cells = np.where(t >= 0, (starts_A[a] + i) * starts_B[-1] + starts_B[b] + j,
                     starts_A[-1] * starts_B[-1])
    for M in (sizes, cells):
        M.flags.writeable = False
    return sizes, cells


def _draw(process: Process, basis_A, basis_B, shots: int, seed: int) -> tuple:
    """Sample every pair (A_a, B_b) of two observable lists and take its moments.

    Every pair reads its joint distribution from one batched probability table over
    all eigenprojectors of both lists, and each block is checked to sum to 1. Pair
    k = a len(basis_B) + b is row k of one grid, its cells at the end of the row after
    zero padding, and one multinomial call on the stream ``_rng(seed)`` draws every row.
    The grid's index arithmetic is ``_layout``'s, built once per pair of cluster layouts
    and kept in its bounded memo. numpy takes nothing from the stream for a cell at
    p = 0 and gives a row's last cell its remainder, so row k holds exactly what
    ``multinomial(shots, P_k / P_k.sum())`` draws for pair k alone, the pairs drawn in
    turn on that stream. Returns the records, then per pair (row-major over its outcome
    grid, after the padding): the clamped probabilities, the products lam_i mu_j, the
    counts, the mean and the sample variance.
    """
    shots, seed = _check_shots_seed(shots, seed)
    if not len(basis_A) or not len(basis_B):
        raise DimensionMismatch("both observable bases must be nonempty")
    A, B = _records(process, basis_A, basis_B)
    table = _joint_table(process, A, B)
    sizes, cells = _layout(A.starts.tobytes(), B.starts.tobytes())
    probs = np.append(table, 0.0)[cells]
    products = np.append(np.outer(A.eigenvalues, B.eigenvalues), 0.0)[cells]
    totals = _row_sums(probs, sizes)
    off = np.flatnonzero(np.abs(totals - 1.0) > PROB_SUM_TOL)
    if off.size:
        pair = divmod(int(off[0]), len(basis_B))
        raise NumericalFailure(f"joint distribution of pair {pair} sums to {totals[off[0]]}")
    counts = _rng(seed).multinomial(shots, probs / totals[:, None])
    return (A, B, probs, products, counts, *_moments(counts, products, sizes, shots))


def sample_sequential(process: Process, O_A: Observable, O_B: Observable,
                      shots: int, seed: int) -> ShotRecord:
    """Counts of the protocol over a number of shots (deterministic): ``_draw`` of one pair."""
    A, _, _, _, (counts,), _, _ = _draw(process, [O_A], [O_B], shots, seed)
    return ShotRecord(counts=counts.reshape(len(A.eigenvalues), -1), shots=shots, seed=seed)


def estimate_ev(record: ShotRecord, outcomes_A, outcomes_B) -> tuple:
    """Mean and standard error of the product random variable: ``_moments`` of one row."""
    outcomes_A = as_array(outcomes_A, (None,), float)
    outcomes_B = as_array(outcomes_B, (None,), float)
    if record.counts.shape != (len(outcomes_A), len(outcomes_B)):
        raise IndexOutOfRange(f"counts shape {record.counts.shape} != outcome grid "
                              f"({len(outcomes_A)}, {len(outcomes_B)})")
    with np.errstate(over="ignore", invalid="ignore"):  # judged below, not warned about
        (mean,), (var,) = _moments(record.counts.reshape(1, -1),
                                   np.outer(outcomes_A, outcomes_B).reshape(1, -1),
                                   np.array([record.counts.size]), record.shots)
    if not np.isfinite([mean, var]).all():
        raise NumericalFailure("outcome products overflow the float range")
    return float(mean), float(np.sqrt(var / record.shots))


def estimate_pdm(process: Process, basis_A, basis_B, shots_per_pair: int,
                 seed: int) -> StateOverTime:
    """Reconstruct the pseudo-density matrix from the means of ``_draw`` over two bases.

    The pairs are independent, so ``stderr``, the Frobenius standard error of the
    dual-frame expansion, is exactly sqrt(sum_ab s_ab^2 (G_A^-1)_aa (G_B^-1)_bb), with
    the squared dual norms from the bases' records: sqrt(sum_ab s_ab^2 / (c_A c_B)) if
    orthogonal.
    """
    A, B, _, _, _, means, var = _draw(process, basis_A, basis_B, shots_per_pair, seed)
    shape = (len(basis_A), len(basis_B))
    sot = _reconstruct(A, B, means.reshape(shape))
    stderr = float(np.sqrt(A.frame[2] @ var.reshape(shape) @ B.frame[2] / shots_per_pair))
    return replace(sot, provenance="sampled", stderr=stderr)
