"""Seeded simulation of the sequential measurement protocol.

The counts of n shots over the outcome pairs (i, j) of the two measurements
follow Multinomial(n, P(i, j)), with P(i, j) the exact joint distribution. One
multinomial draw from one counter-based Philox stream keyed on the seed gives
them, so counts are a pure function of (seed, shots).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .channels import Process
from .errors import IndexOutOfRange, InvalidParameter
from .observables import Observable
from .sot import StateOverTime, pdm_from_correlations
from .twotime import joint_distribution

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


def _pair_ev(process: Process, A: Observable, B: Observable, shots: int, seed: int) -> float:
    """The sampled estimate of <A, B> from one counts draw."""
    record = sample_sequential(process, A, B, shots, seed)
    return estimate_ev(record, A.spectral.eigenvalues, B.spectral.eigenvalues)[0]


def estimate_pdm(process: Process, basis_A, basis_B, shots_per_pair: int,
                 seed: int) -> StateOverTime:
    """Reconstruct the pseudo-density matrix from sampled two-time expectations."""
    _check_shots(shots_per_pair)
    _check_seed(seed)
    evs = np.zeros((len(basis_A), len(basis_B)))
    for a, A in enumerate(basis_A):
        for b, B in enumerate(basis_B):
            pair = a * len(basis_B) + b
            pair_seed = (seed * 0x9E3779B9 + pair) & 0xFFFFFFFFFFFFFFFF
            evs[a, b] = _pair_ev(process, A, B, shots_per_pair, pair_seed)
    sot = pdm_from_correlations(process.dim_in, process.dim_out, basis_A, basis_B, evs)
    return replace(sot, provenance="sampled")
