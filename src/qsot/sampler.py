"""Seeded Monte-Carlo simulation of the sequential measurement protocol.

Each shot draws the first outcome from P(i) = Tr[rho P_i], collapses onto the
eigenspace, evolves the collapsed state through the channel, and draws the
second outcome. Shots are partitioned into fixed-size shards, each driven by a
counter-based Philox stream keyed on (seed, shard index), so results are
reproducible regardless of how shards are scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import Process
from .errors import IndexOutOfRange, InvalidParameter, NumericalFailure
from .observables import Observable
from .sot import StateOverTime, pdm_from_correlations
from .twotime import joint_distribution

SHARD_SIZE = 1 << 16
PROB_FLOOR = 1e-14
SEED_LIMIT = 1 << 64


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


def _shard_rng(seed: int, shard: int) -> np.random.Generator:
    # The key is built as uint64: from a Python list numpy would convert keys
    # of 2^63 and above through float64, so that distinct seeds collide.
    return np.random.Generator(np.random.Philox(key=np.array([seed, shard], dtype=np.uint64)))


def sample_sequential(process: Process, O_A: Observable, O_B: Observable,
                      shots: int, seed: int) -> ShotRecord:
    """Simulate the protocol for a number of shots; deterministic in (seed, shots)."""
    if shots < 1:
        raise InvalidParameter("shots must be positive")
    _check_seed(seed)
    decA = O_A.spectral
    dist = joint_distribution(process, O_A, O_B)  # validates dims, clamps
    nA, nB = dist.probs.shape

    # The collapsed-and-evolved state depends only on the first outcome, so the
    # per-outcome conditional distribution is precomputed once; outcomes with
    # P(i) below the floor are never drawn and need no renormalization.
    pA = np.array([float(np.trace(process.rho @ P).real) for P in decA.projectors])
    pA = np.clip(pA, 0.0, None)
    if abs(pA.sum() - 1.0) > 1e-9:
        raise NumericalFailure(f"first-measurement probabilities sum to {pA.sum()}")
    pA = pA / pA.sum()
    cond = np.zeros((nA, nB))
    for i in range(nA):
        if pA[i] < PROB_FLOOR:
            continue
        row = dist.probs[i] / pA[i]
        if row.min() < -1e-9:
            raise NumericalFailure("negative conditional probability")
        row = np.clip(row, 0.0, None)
        cond[i] = row / row.sum()

    cdf_A = np.cumsum(pA)
    cdf_B = np.cumsum(cond, axis=1)
    counts = np.zeros((nA, nB), dtype=np.int64)
    done = 0
    shard = 0
    while done < shots:
        batch = min(SHARD_SIZE, shots - done)
        rng = _shard_rng(seed, shard)
        u1 = rng.random(batch)
        u2 = rng.random(batch)
        i_idx = np.searchsorted(cdf_A, u1, side="right")
        i_idx = np.minimum(i_idx, nA - 1)
        j_idx = np.empty(batch, dtype=np.int64)
        for i in range(nA):
            mask = i_idx == i
            if not mask.any():
                continue
            j = np.searchsorted(cdf_B[i], u2[mask], side="right")
            j_idx[mask] = np.minimum(j, nB - 1)
        np.add.at(counts, (i_idx, j_idx), 1)
        done += batch
        shard += 1
    return ShotRecord(counts=counts, shots=shots, seed=seed)


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


def estimate_pdm(process: Process, basis_A, basis_B, shots_per_pair: int, seed: int,
                 _ev_fn=None) -> StateOverTime:
    """Reconstruct the pseudo-density matrix from sampled two-time expectations.

    ``_ev_fn(process, A, B, shots, seed) -> float`` is a test hook replacing
    the sampling estimator (e.g. with exact expectation values).
    """
    if shots_per_pair < 1:
        raise InvalidParameter("shots_per_pair must be positive")
    _check_seed(seed)
    evs = np.zeros((len(basis_A), len(basis_B)))
    pair = 0
    for a, A in enumerate(basis_A):
        for b, B in enumerate(basis_B):
            pair_seed = (seed * 0x9E3779B9 + pair) & 0xFFFFFFFFFFFFFFFF
            if _ev_fn is not None:
                evs[a, b] = _ev_fn(process, A, B, shots_per_pair, pair_seed)
            else:
                record = sample_sequential(process, A, B, shots_per_pair, pair_seed)
                dec_A, dec_B = A.spectral, B.spectral
                evs[a, b], _ = estimate_ev(record, dec_A.eigenvalues, dec_B.eigenvalues)
            pair += 1
    sot = pdm_from_correlations(process.dim_in, process.dim_out, basis_A, basis_B, evs)
    return replace(sot, provenance="sampled")
