"""Seeded simulation of the sequential measurement protocol.

The counts of n shots over the outcome pairs (i, j) of the two measurements
follow Multinomial(n, P(i, j)), with P(i, j) the exact joint distribution. One
multinomial draw from one counter-based Philox stream keyed on the seed gives
them, so counts are a pure function of (seed, shots). ``estimate_pdm`` takes
the joint distributions of all basis pairs from one batched table and draws
each pair from its own stream: Philox streams are fixed by their keys, so one
generator re-keyed before each pair gives the counts of a fresh one per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import Process
from .errors import DimensionMismatch, IndexOutOfRange, InvalidParameter, NumericalFailure
from .linalg import PROB_SUM_TOL
from .observables import Observable
from .sot import StateOverTime, pdm_from_correlations
from .twotime import _joint_table, joint_distribution

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
    # The key is built as uint64: from a Python list numpy would convert keys
    # of 2^63 and above through float64, so that distinct seeds collide.
    return np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))


def _rekey(gen: np.random.Generator, seed: int) -> None:
    """Reset a Philox generator in place to the start of the stream ``_rng(seed)`` gives.

    Key [seed, 0], counter 0, an empty buffer and no cached 32-bit half, so
    nothing of the previous stream carries over. Setting the state skips the
    OS-entropy ``SeedSequence`` that each ``Philox`` construction fills and
    the key then overrides.
    """
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed, 0], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


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

    numpy adds eight or more numbers pairwise, so a zero-padded row summed
    whole can round differently from the unpadded block; rows of one length
    are therefore summed together at that length. The lengths come from a
    set, not np.unique, which imports numpy.ma (1.5 MiB resident) on first use.
    """
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
    is checked to sum to 1. Pair k = a len(basis_B) + b draws its counts as
    one multinomial over exactly its cells from its own Philox stream, keyed
    on (seed * 0x9E3779B9 + k) mod 2^64. One generator serves every pair and
    is re-keyed to the pair's stream before its draw, so the counts are those
    ``sample_sequential`` gives for the pair at that seed, and a given seed
    yields the same counts as in earlier versions. The means and standard
    errors of ``estimate_ev`` follow for all pairs at once. ``stderr`` is the
    Frobenius standard error sqrt(sum_ab s_ab^2 / (c_A c_B)) of the
    expansion over bases with Gram matrices c_A 1 and c_B 1.
    """
    _check_shots(shots_per_pair)
    _check_seed(seed)
    if not len(basis_A) or not len(basis_B):
        raise DimensionMismatch("both observable bases must be nonempty")
    table, starts_A, starts_B = _joint_table(process, basis_A, basis_B)
    outcomes = np.outer(np.concatenate([A.spectral.eigenvalues for A in basis_A]),
                        np.concatenate([B.spectral.eigenvalues for B in basis_B]))
    # Row k holds pair k's cells, row-major in its block, zero-padded to the widest pair.
    nA, nB = len(basis_A), len(basis_B)
    a, b = np.divmod(np.arange(nA * nB), nB)
    rows, cols = np.diff(starts_A)[a, None], np.diff(starts_B)[b, None]
    sizes = (rows * cols)[:, 0]
    cell = np.arange(sizes.max())
    i, j = np.divmod(cell, cols)
    valid = i < rows
    index = np.where(valid, (starts_A[a, None] + i) * table.shape[1] + starts_B[b, None] + j, 0)
    probs = np.where(valid, table.ravel()[index], 0.0)
    products = np.where(valid, outcomes.ravel()[index], 0.0)

    totals = _row_sums(probs, sizes)
    off = np.flatnonzero(np.abs(totals - 1.0) > PROB_SUM_TOL)
    if off.size:
        k = off[0]
        raise NumericalFailure(f"joint distribution of pair ({a[k]}, {b[k]}) sums to {totals[k]}")
    counts = np.zeros(probs.shape, dtype=np.int64)
    gen = _rng(0)
    for k, size in enumerate(sizes.tolist()):
        _rekey(gen, (seed * 0x9E3779B9 + k) & 0xFFFFFFFFFFFFFFFF)
        counts[k, :size] = gen.multinomial(shots_per_pair, probs[k, :size] / totals[k])

    n = shots_per_pair
    means = _row_sums(counts * products, sizes) / n
    # One shot leaves every deviation at exactly 0, so dividing by 1 keeps var at 0.
    var = _row_sums(counts * (products - means[:, None]) ** 2, sizes) / max(n - 1, 1)
    sot = pdm_from_correlations(process.dim_in, process.dim_out, basis_A, basis_B,
                                means.reshape(nA, nB))
    # sqrt(c_A c_B): the bases passed the common-norm check of pdm_from_correlations.
    scale = np.linalg.norm(basis_A[0].matrix) * np.linalg.norm(basis_B[0].matrix)
    stderr = float(np.sqrt(var.sum() / n)) / scale
    return replace(sot, provenance="sampled", stderr=stderr)
