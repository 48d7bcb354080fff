"""Seeded simulation of the sequential measurement protocol.

The counts of n shots over the outcome pairs (i, j) of the two measurements
follow Multinomial(n, P(i, j)), with P(i, j) the exact joint distribution. They
come from one counter-based Philox stream keyed on the seed, so counts are a
pure function of (seed, shots). ``estimate_pdm`` takes the joint distributions
of all basis pairs from one batched probability table, draws the counts of every
pair in one multinomial call on that one stream, and expands the means over the
dual frames of any complete bases with ``pdm_from_correlations``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import Process
from .errors import DimensionMismatch, IndexOutOfRange, InvalidParameter, NumericalFailure
from .linalg import PROB_SUM_TOL
from .observables import Observable
from .sot import StateOverTime, pdm_from_correlations
from .twotime import _joint_table, _records, joint_distribution

SEED_LIMIT = 1 << 64
SHOTS_LIMIT = 1 << 63  # a multinomial draw takes its number of trials as an int64


@dataclass(frozen=True)
class ShotRecord:
    """Empirical counts over outcome-index pairs of the two measurements."""

    counts: np.ndarray  # shape (num outcomes A, num outcomes B)
    shots: int
    seed: int

    def count(self, i: int, j: int) -> int:
        return int(self.counts[i, j])


def _check_seed(seed: int) -> None:
    if not 0 <= seed < SEED_LIMIT:
        raise InvalidParameter(f"seed must lie in [0, 2^64), got {seed}")


def _check_shots(shots: int) -> None:
    if not 1 <= shots < SHOTS_LIMIT:
        raise InvalidParameter(f"shots must lie in [1, 2^63), got {shots}")


def _rng(seed: int) -> np.random.Generator:
    """A fresh generator on the Philox stream keyed on the seed; numpy sets an int key exactly."""
    return np.random.Generator(np.random.Philox(key=seed))


def sample_sequential(process: Process, O_A: Observable, O_B: Observable,
                      shots: int, seed: int) -> ShotRecord:
    """Counts of the protocol over a number of shots; deterministic in (seed, shots)."""
    _check_shots(shots)
    _check_seed(seed)
    probs = joint_distribution(process, O_A, O_B).probs  # validates dims, clamps, sums to 1
    counts = _rng(seed).multinomial(shots, probs.ravel() / probs.sum())
    return ShotRecord(counts=counts.reshape(probs.shape), shots=shots, seed=seed)


def estimate_ev(record: ShotRecord, outcomes_A, outcomes_B) -> tuple:
    """Mean and standard error of the product random variable from counts."""
    outcomes_A = np.asarray(outcomes_A, dtype=float)
    outcomes_B = np.asarray(outcomes_B, dtype=float)
    if record.counts.shape != (len(outcomes_A), len(outcomes_B)):
        raise IndexOutOfRange(
            f"counts shape {record.counts.shape} != outcome grid "
            f"({len(outcomes_A)}, {len(outcomes_B)})"
        )
    products = np.outer(outcomes_A, outcomes_B)
    n = record.shots
    mean = float((record.counts * products).sum()) / n
    if n > 1:
        var = float((record.counts * (products - mean) ** 2).sum()) / (n - 1)
    else:
        var = 0.0
    stderr = float(np.sqrt(max(var, 0.0) / n))
    return mean, stderr


def _row_sums(x: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Row k of x summed over its first sizes[k] cells, as numpy sums those cells alone.

    numpy sums under eight numbers one by one from +0.0, so zero padding that narrow
    changes no bit; from eight on it sums pairwise, so rows of one length are summed
    together at that length, taken from a set (np.unique imports numpy.ma, 1.5 MiB).
    """
    if x.shape[1] < 8:
        return x.sum(axis=1)
    out = np.empty(len(x))
    for n in set(sizes.tolist()):
        rows = sizes == n
        out[rows] = x[rows, :n].sum(axis=1)
    return out


def estimate_pdm(process: Process, basis_A, basis_B, shots_per_pair: int,
                 seed: int) -> StateOverTime:
    """Reconstruct the pseudo-density matrix from sampled two-time expectations.

    Every pair (A_a, B_b) reads its joint distribution from one batched
    probability table over all eigenprojectors of both bases, and each block
    is checked to sum to 1. Pair k = a len(basis_B) + b is row k of one zero-padded
    grid, and one multinomial call on the stream ``_rng(seed)`` draws every row.
    numpy leaves a row's roundoff remainder in its last cell, which is padding for a
    narrower pair; it is moved to the pair's last real cell, which is where a draw over
    exactly the pair's cells puts it, so each pair's counts follow its own multinomial
    law. The means and standard errors of ``estimate_ev`` follow for all pairs at once.
    The pairs are independent, so ``stderr``, the Frobenius standard error of the
    dual-frame expansion, is exactly sqrt(sum_ab s_ab^2 (G_A^-1)_aa (G_B^-1)_bb):
    sqrt(sum_ab s_ab^2 / (c_A c_B)) if orthogonal. The bases' records
    (``twotime._basis``) hold the cluster eigenvalues and the squared dual norms.
    """
    _check_shots(shots_per_pair)
    _check_seed(seed)
    if not len(basis_A) or not len(basis_B):
        raise DimensionMismatch("both observable bases must be nonempty")
    A, B = _records(process, basis_A, basis_B)
    table = _joint_table(process, A, B)
    # Pair (a, b) holds its block's cells row-major at [a, b], zero-padded to the widest
    # pair: cell t sits at table row A.starts[a] + t // cols[b], column B.starts[b] + t % cols[b].
    rows, cols = np.diff(A.starts), np.diff(B.starts)
    i, j = np.divmod(np.arange(rows.max() * cols.max()), cols[:, None])
    valid = i < rows[:, None, None]
    r, c = np.where(valid, A.starts[:-1, None, None] + i, 0), B.starts[:-1, None] + j
    valid = valid.reshape(len(basis_A) * len(basis_B), -1)
    probs = np.where(valid, table[r, c].reshape(valid.shape), 0.0)
    products = np.where(valid, (A.eigenvalues[r] * B.eigenvalues[c]).reshape(valid.shape), 0.0)
    sizes = np.outer(rows, cols).ravel()
    totals = _row_sums(probs, sizes)
    off = np.flatnonzero(np.abs(totals - 1.0) > PROB_SUM_TOL)
    if off.size:
        pair = divmod(int(off[0]), len(basis_B))
        raise NumericalFailure(f"joint distribution of pair {pair} sums to {totals[off[0]]}")
    counts = _rng(seed).multinomial(shots_per_pair, probs / totals[:, None])
    counts[np.arange(len(counts)), sizes - 1] += np.where(valid, 0, counts).sum(axis=1)
    counts[~valid] = 0

    n = shots_per_pair
    means = _row_sums(counts * products, sizes) / n
    # One shot leaves every deviation at exactly 0, so dividing by 1 keeps var at 0.
    var = _row_sums(counts * (products - means[:, None]) ** 2, sizes) / max(n - 1, 1)
    shape = (len(basis_A), len(basis_B))
    sot = pdm_from_correlations(process.dim_in, process.dim_out, basis_A, basis_B,
                                means.reshape(shape))
    stderr = float(np.sqrt(A.frame[2] @ var.reshape(shape) @ B.frame[2] / n))
    return replace(sot, provenance="sampled", stderr=stderr)
