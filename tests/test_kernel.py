"""The batched two-time kernel against the per-pair loops it replaced.

The ``ref_*`` functions are those loops, kept slow and obvious: one ``eigh``
and one clustering loop per matrix for the spectra of a basis record, one Kraus
application per eigenprojector and probe pair, one ``np.kron`` per trace,
the two Kraus-stack products that the channel's transfer matrix replaced in the
evolution, one outer product per Kraus operator for the Choi matrix, the anticommutator
with the Kronecker-lifted state for the canonical state over time,
the least-squares reconstruction over a (dA dB)^2-square design matrix
that the dual-frame expansion replaced, the expansion over the raw hermitian
basis that the expansion over both dual frames replaced, the one-pair draw and the mean and
standard error formula that the sampler's batched draw and moments replaced,
the sampled reconstruction with one such draw and estimate per basis pair, the
padded pair grid rebuilt on every draw that the sampler's layout memo replaced, and
the ``verify theorems`` suite with one scalar two-time value and trace per pair.
Every grid value, reconstruction and suite residual must match them within
1e-12 on seeded random instances, and a Choi matrix exactly. A sampled
reconstruction draws all pairs in one call, which gives exactly the counts of the
per-pair loop drawing each pair in turn on one stream; against the loop that seeds
each pair's own stream, it matches in law.
"""

import functools
import gc
import itertools
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsot import (
    DimensionMismatch,
    NumericalFailure,
    Observable,
    Process,
    ShotRecord,
    canonical_sot,
    choi_matrix,
    discard_prepare,
    estimate_ev,
    estimate_pdm,
    joint_distribution,
    light_touch_basis_qutrit,
    maximality_counterexample,
    nonrepresentable_witness,
    pauli_basis,
    pdm_from_correlations,
    random_channel,
    random_density,
    random_hermitian,
    random_process,
    reconstruct_unique,
    representability_residual,
    sample_sequential,
    sic_fiducial_w,
    sic_povm,
    trace_grid,
    two_time_ev,
    two_time_grid,
)
from qsot import linalg, sampler, twotime
from qsot.channels import apply
from qsot.linalg import CLAIM_TOL, CLUSTER_RTOL, SpectralDecomposition, _spectra
from qsot.observables import gram_matrix, hermitian_basis, light_touch_spanning_set
from qsot.sampler import _rng
from qsot.twotime import (
    _basis,
    _frames,
    _joint_table,
    _record,
    _records,
    light_touch_probes,
    sot_trace_value,
)
from qsot import verify
from qsot.verify import verify_theorems

TOL = 1e-12
KINDS = ("general", "light-touch", "scalar", "degenerate", "near-degenerate")
FAST = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------ references

def ref_decompose(H):
    """One matrix's clusters, eigenvalue means and projectors, and its spectral norm."""
    w, V = np.linalg.eigh(H)
    norm = float(np.max(np.abs(w), initial=0.0))
    gap = CLUSTER_RTOL * norm
    clusters = []
    start = 0
    for k in range(1, len(w) + 1):
        if k == len(w) or w[k] - w[k - 1] > gap:
            clusters.append(slice(start, k))
            start = k
    eigenvalues = np.array([float(np.mean(w[s])) for s in clusters])
    projectors = np.array([V[:, s] @ V[:, s].conj().T for s in clusters])
    return eigenvalues, projectors, norm

def ref_two_time_ev(process, O_A, O_B):
    dec = O_A.spectral
    total = 0.0
    for lam, P in zip(dec.eigenvalues, dec.projectors):
        evolved = apply(process.channel, P @ process.rho @ P)
        total += lam * float(np.trace(evolved @ O_B.matrix).real)
    return total


def ref_trace_value(X, O_A, O_B):
    return float(np.trace(X @ np.kron(O_A.matrix, O_B.matrix)).real)


def ref_joint_probs(process, O_A, O_B):
    decA, decB = O_A.spectral, O_B.spectral
    probs = np.zeros((len(decA.eigenvalues), len(decB.eigenvalues)))
    for i, P in enumerate(decA.projectors):
        evolved = apply(process.channel, P @ process.rho @ P)
        for j, Q in enumerate(decB.projectors):
            probs[i, j] = max(float(np.trace(evolved @ Q).real), 0.0)
    return probs


def ref_sample_sequential(process, O_A, O_B, shots, seed):
    """One pair's counts: its own joint distribution, drawn in one multinomial call."""
    probs = joint_distribution(process, O_A, O_B).probs
    counts = _rng(seed).multinomial(shots, probs.ravel() / probs.sum())
    return ShotRecord(counts=counts.reshape(probs.shape), shots=shots, seed=seed)


def ref_estimate_ev(record, outcomes_A, outcomes_B):
    """The mean of the outcome products over the counts and its standard error."""
    products = np.outer(np.asarray(outcomes_A, dtype=float), np.asarray(outcomes_B, dtype=float))
    n = record.shots
    mean = float((record.counts * products).sum()) / n
    if n > 1:
        var = float((record.counts * (products - mean) ** 2).sum()) / (n - 1)
    else:
        var = 0.0
    return mean, float(np.sqrt(max(var, 0.0) / n))


def ref_unique(observables):
    """The distinct observables by identity, in order of first appearance, and each
    input's index among them: one sort of the ids, and two argsorts to renumber.
    """
    ids = np.fromiter(map(id, observables), dtype=np.intp, count=len(observables))
    _, first, index = np.unique(ids, return_index=True, return_inverse=True)
    order = first.argsort()
    return [observables[i] for i in first[order].tolist()], order.argsort()[index]


def ref_residual(process, X, probes):
    worst = 0.0
    for O_A, O_B in probes:
        dev = abs(ref_two_time_ev(process, O_A, O_B) - ref_trace_value(X, O_A, O_B))
        scale = max(1.0, np.linalg.norm(O_A.matrix, 2) * np.linalg.norm(O_B.matrix, 2))
        worst = max(worst, dev / scale)
    return worst


@functools.lru_cache(maxsize=None)
def ref_design(dA, dB):
    """The (dA dB)^2-square system Tr[X (A_a (x) B_b)] = <A_a, B_b> over hermitian_basis(dA dB).

    Row (a, b), column c holds Tr[H_c (A_a (x) B_b)], which is real for
    hermitian H_c and probe; built once per dimension pair.
    """
    probes_A, probes_B = light_touch_spanning_set(dA), hermitian_basis(dB)
    herm = np.array([H.matrix for H in hermitian_basis(dA * dB)])
    probes = np.array([np.kron(A.matrix, B.matrix) for A in probes_A for B in probes_B])
    n = len(herm)
    design = (probes.reshape(n, -1) @ herm.transpose(0, 2, 1).reshape(n, -1).T).real
    return probes_A, probes_B, herm, design


def ref_reconstruct(process):
    """Least-squares solve of the design system, summed back over the hermitian basis."""
    probes_A, probes_B, herm, design = ref_design(process.dim_in, process.dim_out)
    rhs = [ref_two_time_ev(process, A, B) for A in probes_A for B in probes_B]
    coeffs, _, rank, _ = np.linalg.lstsq(design, np.asarray(rhs), rcond=None)
    assert rank == len(herm)
    return sum(c * H for c, H in zip(coeffs, herm))


def ref_reconstruct_unique(process):
    """The expansion ``reconstruct_unique`` made over the dual frame of the light-touch frame
    and the raw hermitian basis: sum_ab <A_a, B_b> A~_a (x) B_b, A~ = G_A^-1 A, hermitian part.
    """
    frame, basis = _frames(process.dim_in)[0], _frames(process.dim_out)[1]
    A = np.array([O.matrix for O in frame])
    B = np.array([O.matrix for O in basis])
    dual = np.linalg.solve(gram_matrix(frame), A.reshape(len(A), -1)).reshape(A.shape)
    X = np.einsum("ab,aij,bkl->ikjl", two_time_grid(process, frame, basis), dual, B,
                  optimize=True)
    X = X.reshape(len(A[0]) * len(B[0]), -1)
    return 0.5 * (X + X.conj().T)


def ref_evolve(channel, L):
    """E(L_n) = sum_k K_k L_n K_k^dagger as two matrix products: the rows (k, i) of all
    K_k against every L_n, then the sum over (k, l) against the row-stacked conjugates.
    """
    K = channel.kraus
    nk, dB, dA = K.shape
    T = (K.reshape(nk * dB, dA) @ L).reshape(len(L), nk, dB, dA)
    T = T.transpose(0, 2, 1, 3).reshape(len(L), dB, nk * dA)
    return T @ K.transpose(1, 0, 2).reshape(dB, nk * dA).conj().T


def ref_choi(channel):
    """sum_k vec(K_k) vec(K_k)^dagger, accumulated one Kraus operator at a time."""
    d = channel.dim_in * channel.dim_out
    choi = np.zeros((d, d), dtype=complex)
    for K in channel.kraus:
        v = K.T.reshape(d)  # v[(i, out)] = K[out, i], A-major
        choi += np.outer(v, v.conj())
    return choi


def ref_light_touch_basis(d):
    """The rule ``pdm-reconstruct --shots`` picked its frame by in its own code: the SIC
    basis at d = 3, Pauli strings at powers of 2 from 2 on, else the spanning set.
    """
    if d == 3:
        return light_touch_basis_qutrit(sic_povm(sic_fiducial_w(0.0)))
    m = d.bit_length() - 1
    if d > 1 and d == 1 << m:
        return pauli_basis(m)
    return light_touch_spanning_set(d)


def ref_canonical_sot(process):
    """0.5 {rho (x) 1, J} with the lifted state formed by np.kron."""
    lifted = np.kron(process.rho, np.eye(process.dim_out))
    J = process.channel.jamiolkowski
    return 0.5 * (lifted @ J + J @ lifted)


def ref_pair_estimates(process, basis_A, basis_B, shots, seed):
    """Per-pair means and standard errors: one ``ref_sample_sequential`` and one
    ``ref_estimate_ev`` per basis pair, with the pair's own seed.
    """
    means, stderrs = np.zeros((2, len(basis_A), len(basis_B)))
    for a, A in enumerate(basis_A):
        for b, B in enumerate(basis_B):
            pair_seed = (seed * 0x9E3779B9 + a * len(basis_B) + b) & 0xFFFFFFFFFFFFFFFF
            record = ref_sample_sequential(process, A, B, shots, pair_seed)
            means[a, b], stderrs[a, b] = ref_estimate_ev(record, A.spectral.eigenvalues,
                                                         B.spectral.eigenvalues)
    return means, stderrs


def ref_stream_counts(process, basis_A, basis_B, shots, seed):
    """Each pair's counts, as a (clusters A, clusters B) array: the per-pair loop on one stream.

    Pair by pair in row-major order, its block of the batched joint table (a cell at exactly
    0 there may hold roundoff in a table of one pair, and a binomial draw at p = 0 takes
    nothing from the stream), normalized as ``ref_sample_sequential`` normalizes it, is
    drawn in its own multinomial call on one generator ``_rng(seed)``.
    """
    A, B = _records(process, basis_A, basis_B)
    table, starts_A, starts_B, gen = _joint_table(process, A, B), A.starts, B.starts, _rng(seed)
    counts = []
    for a in range(len(basis_A)):
        for b in range(len(basis_B)):
            P = table[starts_A[a]:starts_A[a + 1], starts_B[b]:starts_B[b + 1]]
            p = P.ravel()
            counts.append(gen.multinomial(shots, p / p.sum()).reshape(P.shape))
    return counts


def ref_stream_estimates(process, basis_A, basis_B, shots, seed):
    """Per-pair means and standard errors: ``ref_estimate_ev`` of each pair's
    ``ref_stream_counts``.
    """
    counts = iter(ref_stream_counts(process, basis_A, basis_B, shots, seed))
    means, stderrs = np.zeros((2, len(basis_A), len(basis_B)))
    for a, A in enumerate(basis_A):
        for b, B in enumerate(basis_B):
            record = ShotRecord(counts=next(counts), shots=shots, seed=seed)
            means[a, b], stderrs[a, b] = ref_estimate_ev(record, A.spectral.eigenvalues,
                                                         B.spectral.eigenvalues)
    return means, stderrs


def ref_draw(process, basis_A, basis_B, shots, seed):
    """``sampler._draw`` past its records, with the padded pair grid rebuilt on every call
    from the records' cluster starts: the probabilities, products, counts, means and
    variances.
    """
    A, B = _records(process, basis_A, basis_B)
    table = _joint_table(process, A, B)
    rows, cols = np.diff(A.starts), np.diff(B.starts)
    sizes = np.outer(rows, cols).ravel()
    t = np.arange(sizes.max()) - sizes.max() + sizes[:, None]
    a, b = np.divmod(np.arange(len(sizes))[:, None], len(cols))
    i, j = np.divmod(np.maximum(t, 0), cols[b])
    r, c = A.starts[a] + i, B.starts[b] + j
    probs = np.where(t >= 0, table[r, c], 0.0)
    products = np.where(t >= 0, A.eigenvalues[r] * B.eigenvalues[c], 0.0)
    counts = _rng(seed).multinomial(shots, probs / sampler._row_sums(probs, sizes)[:, None])
    return (probs, products, counts, *sampler._moments(counts, products, sizes, shots))


def ref_expansion(process, basis_A, basis_B, means, stderrs):
    """The expanded means and the Frobenius standard error sqrt(sum_ab s_ab^2 /
    (c_A c_B)) of orthogonal bases with Gram matrices c_A 1 and c_B 1.
    """
    sot = pdm_from_correlations(process.dim_in, process.dim_out, basis_A, basis_B, means)
    c_AB = gram_matrix(basis_A[:1])[0, 0] * gram_matrix(basis_B[:1])[0, 0]
    return sot.matrix, np.sqrt((stderrs ** 2).sum() / c_AB)


def ref_estimate_pdm(process, basis_A, basis_B, shots, seed):
    """``ref_expansion`` of the per-pair loop: one stream per pair."""
    return ref_expansion(process, basis_A, basis_B,
                         *ref_pair_estimates(process, basis_A, basis_B, shots, seed))


def ref_worst_of_five(process, X, rng):
    """``ref_residual`` over five random pairs, O_A drawn before O_B."""
    pairs = [(Observable(random_hermitian(process.dim_in, rng)),
              Observable(random_hermitian(process.dim_out, rng))) for _ in range(5)]
    return ref_residual(process, X, pairs)


def ref_verify_theorems(dims, trials, seed):
    """The ``verify theorems`` loop with one scalar value and trace per pair, as
    (name, residual, tolerance, direction) claims, drawing from the seed in the
    suite's order.
    """
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in dims for b in dims]
    worst_lt = worst_rec = worst_marg = 0.0
    for dA, dB in pairs:
        probes = light_touch_probes(dA, dB)
        for _ in range(trials):
            process = random_process(dA, dB, rng)
            X = canonical_sot(process).matrix
            worst_lt = max(worst_lt, ref_residual(process, X, probes))
            rec = reconstruct_unique(process).matrix
            worst_rec = max(worst_rec, float(np.linalg.norm(rec - X)))
            O_A = Observable(random_hermitian(dA, rng))
            O_B = Observable(random_hermitian(dB, rng))
            evolved = apply(process.channel, process.rho)
            worst_marg = max(
                worst_marg,
                abs(ref_two_time_ev(process, O_A, Observable(np.eye(dB)))
                    - float(np.trace(process.rho @ O_A.matrix).real)),
                abs(ref_two_time_ev(process, Observable(np.eye(dA)), O_B)
                    - float(np.trace(evolved @ O_B.matrix).real)),
            )
    worst_mm = worst_dp = 0.0
    for dA, dB in pairs:
        for _ in range(trials):
            chan = random_process(dA, dB, rng).channel
            sigma = random_density(dB, rng)
            rho = random_density(dA, rng)
            mixed = Process(chan, np.eye(dA) / dA)
            worst_mm = max(worst_mm, ref_worst_of_five(mixed, chan.jamiolkowski / dA, rng))
            dp = Process(discard_prepare(sigma, dim_in=dA), rho)
            worst_dp = max(worst_dp, ref_worst_of_five(dp, np.kron(rho, sigma), rng))
    worst_gap = np.inf
    for d in dims:
        for _ in range(trials):
            O_A = Observable(random_hermitian(d, rng))
            if not O_A.is_light_touch:
                worst_gap = min(worst_gap, maximality_counterexample(O_A)[2])
    return [
        ("light-touch trace formula (uniqueness theorem)", worst_lt, 1e-10, "max"),
        ("reconstruction matches closed form", worst_rec, CLAIM_TOL, "max"),
        ("one-time marginal identities", worst_marg, 1e-10, "max"),
        ("maximally mixed input is representable", worst_mm, 1e-10, "max"),
        ("discard-and-prepare is representable", worst_dp, 1e-10, "max"),
        ("non-light-touch counterexample residual", worst_gap, 1e-6, "min"),
    ]


# ------------------------------------------------------------ instances

def unitary(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def with_spectrum(rng, values):
    U = unitary(rng, len(values))
    return Observable(U @ np.diag(values) @ U.conj().T)


def make_observable(rng, d, kind):
    if kind == "general":
        return Observable(random_hermitian(d, rng))
    if kind == "scalar":
        return Observable(rng.standard_normal() * np.eye(d))
    if kind == "light-touch":
        rank = int(rng.integers(1, d))
        return with_spectrum(rng, rng.standard_normal() * np.r_[np.ones(rank), -np.ones(d - rank)])
    if kind == "degenerate":
        levels = rng.standard_normal(int(rng.integers(2, d + 1)))
        return with_spectrum(rng, levels[rng.integers(0, len(levels), d)])
    # Near-degenerate: gaps below, at and above the 1e-8 cluster tolerance,
    # chained so that greedy clustering merges across several of them.
    values = np.sort(rng.standard_normal(d))
    values[1] = values[0] + rng.choice([1e-10, 5e-9, 1e-7])
    if d > 2:
        values[2] = values[1] + rng.choice([5e-9, 2e-8])
    return with_spectrum(rng, values)


def make_process(rng, dA, dB, rank):
    env = int(rng.integers(-(-dA // dB), dA + 2))
    channel = random_channel(dA, dB, rng, env_dim=env)
    G = rng.standard_normal((dA, min(rank, dA))) + 1j * rng.standard_normal((dA, min(rank, dA)))
    rho = G @ G.conj().T
    return Process(channel, rho / np.trace(rho).real)


def observables(rng, d, kinds):
    return [make_observable(rng, d, kind) for kind in kinds]


def rotated(rng, mats):
    """The matrices under one random unitary conjugation and one random scale."""
    U, scale = unitary(rng, len(mats[0])), rng.uniform(0.5, 2.0)
    return [Observable(scale * U @ M @ U.conj().T) for M in mats]


def light_touch_basis(rng, d):
    """An orthogonal light-touch basis of d x d hermitian matrices, d in 1..4."""
    if d == 1:
        return rotated(rng, [np.eye(1)])
    if d == 3:
        povm = sic_povm(sic_fiducial_w(rng.uniform(0.0, 2 * np.pi)))
        return rotated(rng, [L.matrix for L in light_touch_basis_qutrit(povm)])
    return rotated(rng, [P.matrix for P in pauli_basis(d.bit_length() - 1)])


def orthogonal_basis(rng, d, generic):
    """hermitian_basis(d), mixing 1-, 2- and 3-cluster elements; generic: up to d clusters each."""
    mats = np.array([H.matrix for H in hermitian_basis(d)])
    if generic:
        O, _ = np.linalg.qr(rng.standard_normal((d * d, d * d)))
        mats = np.einsum("ab,bij->aij", O, mats)
    return rotated(rng, list(mats))


FRAMES = ("spanning", "rotated spanning", "orthogonal", "random light-touch")


def light_touch_frame(rng, d, kind):
    """A complete light-touch frame of d x d hermitian matrices; "orthogonal" needs d in 1..4."""
    if kind == "orthogonal":
        return light_touch_basis(rng, d)
    spanning = light_touch_spanning_set(d)
    if kind == "spanning":
        return spanning
    if kind == "rotated spanning" or d == 1:
        return rotated(rng, [L.matrix for L in spanning])
    # A scaled identity and d^2 - 1 random dichotomous observables: independent almost surely.
    return [Observable(rng.uniform(0.5, 2.0) * np.eye(d))] + [
        make_observable(rng, d, "light-touch") for _ in range(d * d - 1)]


seeds = st.integers(0, 2**32 - 1)
dims = st.integers(2, 5)
ranks = st.integers(1, 5)
kind_lists = st.lists(st.sampled_from(KINDS), min_size=1, max_size=5)


# ------------------------------------------------------------ value side

@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kinds_A=kind_lists, kinds_B=kind_lists)
def test_two_time_grid_matches_scalar_loop(seed, dA, dB, rank, kinds_A, kinds_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    As, Bs = observables(rng, dA, kinds_A), observables(rng, dB, kinds_B)
    grid = two_time_grid(process, As, Bs)
    want = np.array([[ref_two_time_ev(process, A, B) for B in Bs] for A in As])
    assert grid.shape == (len(As), len(Bs))
    assert np.abs(grid - want).max() <= TOL
    assert abs(two_time_ev(process, As[0], Bs[-1]) - want[0, -1]) <= TOL


@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kind_A=st.sampled_from(KINDS),
       kind_B=st.sampled_from(KINDS))
def test_joint_distribution_matches_scalar_loop(seed, dA, dB, rank, kind_A, kind_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    O_A, O_B = make_observable(rng, dA, kind_A), make_observable(rng, dB, kind_B)
    dist = joint_distribution(process, O_A, O_B)
    assert np.abs(dist.probs - ref_joint_probs(process, O_A, O_B)).max() <= TOL
    assert dist.probs.min() >= 0.0


@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kinds_A=kind_lists, kinds_B=kind_lists)
def test_joint_table_blocks_match_joint_distribution(seed, dA, dB, rank, kinds_A, kinds_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    As, Bs = observables(rng, dA, kinds_A), observables(rng, dB, kinds_B)
    A, B = _records(process, As, Bs)
    table, starts_A, starts_B = _joint_table(process, A, B), A.starts, B.starts
    assert table.shape == (starts_A[-1], starts_B[-1])
    for a, A in enumerate(As):
        for b, B in enumerate(Bs):
            block = table[starts_A[a]:starts_A[a + 1], starts_B[b]:starts_B[b + 1]]
            assert np.abs(block - joint_distribution(process, A, B).probs).max() <= TOL
            assert np.abs(block - ref_joint_probs(process, A, B)).max() <= TOL


# ------------------------------------------------------------ sampled reconstruction

@FAST
@example(seed=0, dA=3, dB=3, rank=3, kind_A="general", kind_B="general", shots=2**62,
         draw_seed=2**64 - 1)
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kind_A=st.sampled_from(KINDS),
       kind_B=st.sampled_from(KINDS),
       shots=st.one_of(st.sampled_from([1, 2, 2**62]), st.integers(1, 10**6)),
       draw_seed=st.integers(0, 2**64 - 1))
def test_sample_sequential_matches_one_pair_draw(seed, dA, dB, rank, kind_A, kind_B, shots,
                                                 draw_seed):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    O_A, O_B = make_observable(rng, dA, kind_A), make_observable(rng, dB, kind_B)
    record = sample_sequential(process, O_A, O_B, shots, draw_seed)
    want = ref_sample_sequential(process, O_A, O_B, shots, draw_seed)
    assert np.array_equal(record.counts, want.counts)
    assert (record.shots, record.seed) == (shots, draw_seed)


def stream_basis(rng, d, kind):
    """A basis of d x d hermitian matrices whose elements have uneven cluster counts."""
    if kind == "spanning":
        return light_touch_spanning_set(d)
    return orthogonal_basis(rng, d, generic=kind == "generic")


@FAST
# Pairs of 1 to 16 cells; at 2^62 shots numpy's roundoff remainders reach hundreds of counts.
@example(seed=0, dA=4, dB=4, kind_A="generic", kind_B="spanning", shots=2**62,
         draw_seed=2**64 - 1)
@example(seed=1, dA=3, dB=2, kind_A="spanning", kind_B="hermitian", shots=1, draw_seed=0)
@given(seed=seeds, dA=st.integers(1, 4), dB=st.integers(1, 4),
       kind_A=st.sampled_from(["spanning", "hermitian", "generic"]),
       kind_B=st.sampled_from(["spanning", "hermitian", "generic"]),
       shots=st.sampled_from([1, 10**5, 2**62]), draw_seed=st.integers(0, 2**64 - 1))
def test_draw_is_the_per_pair_loop_on_one_stream(seed, dA, dB, kind_A, kind_B, shots,
                                                 draw_seed):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, dA)
    basis_A, basis_B = stream_basis(rng, dA, kind_A), stream_basis(rng, dB, kind_B)
    counts = sampler._draw(process, basis_A, basis_B, shots, draw_seed)[4]
    want = ref_stream_counts(process, basis_A, basis_B, shots, draw_seed)
    assert len(counts) == len(want)
    for row, C in zip(counts, want):
        assert np.array_equal(row[len(row) - C.size:], C.ravel())
        assert not row[:len(row) - C.size].any()


@FAST
# Outcome grids of 8 cells and more, which numpy sums pairwise, at each shot count.
@example(seed=0, nA=2, nB=4, shots=1, scale=1.0)
@example(seed=1, nA=3, nB=3, shots=2, scale=1e-3)
@example(seed=2, nA=5, nB=6, shots=2**62, scale=1e6)
@given(seed=seeds, nA=st.integers(1, 6), nB=st.integers(1, 6),
       shots=st.one_of(st.sampled_from([1, 2, 2**62]), st.integers(1, 10**6)),
       scale=st.sampled_from([1e-3, 1.0, 1e6]))
def test_estimate_ev_matches_one_pair_formula(seed, nA, nB, shots, scale):
    rng = np.random.default_rng(seed)
    outcomes_A, outcomes_B = scale * rng.standard_normal(nA), rng.standard_normal(nB)
    counts = rng.multinomial(shots, rng.dirichlet(np.ones(nA * nB))).reshape(nA, nB)
    record = ShotRecord(counts=counts, shots=shots, seed=0)
    assert estimate_ev(record, outcomes_A, outcomes_B) == \
        ref_estimate_ev(record, outcomes_A, outcomes_B)
    assert shots > 1 or estimate_ev(record, outcomes_A, outcomes_B)[1] == 0.0


@FAST
# Generic 4-cluster elements give pairs of 8 cells, which numpy sums pairwise:
# this instance fails if padded rows are summed whole.
@example(seed=0, dA=2, dB=4, rank=4, generic=True, shots=100_000, pdm_seed=0)
# At 2^62 shots numpy leaves roundoff remainders of hundreds of counts in a row's last cell.
@example(seed=1, dA=3, dB=4, rank=3, generic=True, shots=2**62, pdm_seed=2**64 - 1)
@given(seed=seeds, dA=st.integers(1, 4), dB=st.integers(1, 4), rank=ranks,
       generic=st.booleans(), shots=st.one_of(st.sampled_from([1, 2]), st.integers(1, 10**6)),
       pdm_seed=st.integers(0, 2**64 - 1))
def test_estimate_pdm_matches_per_pair_loop(seed, dA, dB, rank, generic, shots, pdm_seed):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    basis_A, basis_B = light_touch_basis(rng, dA), orthogonal_basis(rng, dB, generic)
    est = estimate_pdm(process, basis_A, basis_B, shots, pdm_seed)
    matrix, stderr = ref_expansion(process, basis_A, basis_B, *ref_stream_estimates(
        process, basis_A, basis_B, shots, pdm_seed))
    assert np.array_equal(est.matrix, matrix)
    assert abs(est.stderr - stderr) <= TOL * stderr
    assert est.provenance == "sampled" and est.condition == pytest.approx(1.0, abs=1e-12)


@FAST
@example(seed=2, dA=3, dB=4, shots=2**62, pdm_seed=7)
@given(seed=seeds, dA=st.integers(1, 4), dB=st.integers(1, 4), shots=st.integers(2, 10**5),
       pdm_seed=st.integers(0, 2**64 - 1))
def test_estimate_pdm_over_spanning_sets_matches_per_pair_loop(seed, dA, dB, shots, pdm_seed):
    # Neither basis is orthogonal: each pair's variance reaches the Frobenius error
    # through the squared norms (G^-1)_aa and (G^-1)_bb of the dual frame elements.
    process = make_process(np.random.default_rng(seed), dA, dB, dA)
    basis_A, basis_B = light_touch_spanning_set(dA), light_touch_spanning_set(dB)
    est = estimate_pdm(process, basis_A, basis_B, shots, pdm_seed)
    means, stderrs = ref_stream_estimates(process, basis_A, basis_B, shots, pdm_seed)
    inv_A, inv_B = np.linalg.inv(gram_matrix(basis_A)), np.linalg.inv(gram_matrix(basis_B))
    variance = sum(stderrs[a, b] ** 2 * inv_A[a, a] * inv_B[b, b]
                   for a in range(dA * dA) for b in range(dB * dB))
    assert np.array_equal(est.matrix, pdm_from_correlations(dA, dB, basis_A, basis_B,
                                                            means).matrix)
    assert abs(est.stderr - np.sqrt(variance)) <= TOL * np.sqrt(variance)


@pytest.mark.parametrize("dA, dB, spanning", [(2, 3, False), (3, 3, True)])
def test_estimate_pdm_has_the_law_of_the_per_pair_loop(dA, dB, spanning):
    # Over 200 seeds, each sampled two-time value (the coefficient of A~_a (x) B~_b) has
    # the mean and variance of the per-pair loop's within 4 standard errors of their
    # difference. Two equal laws fail one of the 72 or 162 comparisons with probability
    # under about 1%; the seeds are fixed.
    rng = np.random.default_rng(20 + dA * dB)
    process = make_process(rng, dA, dB, dA)
    if spanning:
        basis_A, basis_B = light_touch_spanning_set(dA), light_touch_spanning_set(dB)
    else:
        basis_A, basis_B = light_touch_basis(rng, dA), orthogonal_basis(rng, dB, generic=True)
    shots, seeds = 200, range(200)
    stats = []
    for estimate in (lambda s: estimate_pdm(process, basis_A, basis_B, shots, s).matrix,
                     lambda s: ref_estimate_pdm(process, basis_A, basis_B, shots, s)[0]):
        x = np.array([trace_grid(estimate(s), basis_A, basis_B) for s in seeds])
        var = x.var(axis=0, ddof=1)
        fourth = ((x - x.mean(axis=0)) ** 4).mean(axis=0)
        stats.append((x.mean(axis=0), var, var / len(seeds),
                      np.maximum(fourth - var ** 2, 0.0) / len(seeds)))
    (m1, v1, se2_m1, se2_v1), (m2, v2, se2_m2, se2_v2) = stats
    assert np.all(np.abs(m1 - m2) <= 4 * np.sqrt(se2_m1 + se2_m2) + TOL)
    assert np.all(np.abs(v1 - v2) <= 4 * np.sqrt(se2_v1 + se2_v2) + TOL)


def test_estimate_pdm_rejects_empty_and_wrong_dimension_bases():
    process = make_process(np.random.default_rng(9), 2, 3, 2)
    A, B = pauli_basis(1), hermitian_basis(3)
    for basis_A, basis_B in [([], B), (A, []), (A + [Observable(np.eye(3))], B),
                             (A, B[:1] + [Observable(np.eye(2))])]:
        with pytest.raises(DimensionMismatch):
            estimate_pdm(process, basis_A, basis_B, 10, seed=1)


def test_estimate_pdm_names_the_pair_that_does_not_sum_to_one(monkeypatch):
    process = make_process(np.random.default_rng(10), 2, 2, 2)
    basis = pauli_basis(1)
    A, B = _records(process, basis, basis)
    table = _joint_table(process, A, B)
    table[A.starts[2]:A.starts[3], B.starts[1]:B.starts[2]] *= 1.0 + 1e-6
    monkeypatch.setattr(sampler, "_joint_table", lambda *args: table)
    with pytest.raises(NumericalFailure, match=r"pair \(2, 1\) sums to 1\.00000"):
        estimate_pdm(process, basis, basis, 10, seed=1)


# ------------------------------------------------------------ the sampler's layout memo

def assert_draw_is_the_uncached_grid(process, basis_A, basis_B, shots=1000, seed=3):
    got, want = sampler._draw(process, basis_A, basis_B, shots, seed)[2:], \
        ref_draw(process, basis_A, basis_B, shots, seed)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_layout_memo_tells_equal_sizes_with_swapped_blocks_apart():
    # The first two pairs have equal sizes (2, 2), of 1 x 2 blocks against 2 x 1 ones;
    # the third shares the first's A layout and the second's B layout. A memo keyed on
    # sizes, on A alone or on B alone hands one of them another's grid.
    rng = np.random.default_rng(17)
    process = make_process(rng, 2, 2, 2)
    one, two = Observable(np.eye(2)), make_observable(rng, 2, "general")
    scalars = [make_observable(rng, 2, "scalar") for _ in range(2)]
    pairs = [([one], [two, make_observable(rng, 2, "light-touch")]),  # (1) x (2, 2)
             ([two], scalars),  # (2) x (1, 1)
             ([one], scalars)]  # (1) x (1, 1)
    sampler._layout.cache_clear()
    for _ in range(3):
        for basis_A, basis_B in pairs:
            assert_draw_is_the_uncached_grid(process, basis_A, basis_B)
    assert sampler._layout.cache_info().currsize == len(pairs)


def test_layout_memo_rebuilds_a_layout_evicted_past_its_bound():
    process = make_process(np.random.default_rng(18), 3, 2, 3)
    H3, H2 = hermitian_basis(3), hermitian_basis(2)
    pairs = [(H3[:k], basis_B) for basis_B in (H2[:1], H2) for k in range(1, 10)]
    sampler._layout.cache_clear()
    size = sampler._layout.cache_info().maxsize
    assert len(pairs) > size
    for basis_A, basis_B in pairs:
        assert_draw_is_the_uncached_grid(process, basis_A, basis_B)
        assert sampler._layout.cache_info().currsize <= size
    misses = sampler._layout.cache_info().misses
    assert misses == len(pairs)
    assert_draw_is_the_uncached_grid(process, *pairs[0])
    assert sampler._layout.cache_info().misses == misses + 1


def test_layout_cold_and_warm_draws_agree_bit_for_bit():
    rng = np.random.default_rng(19)
    process = make_process(rng, 3, 4, 3)
    basis_A, basis_B = light_touch_spanning_set(3), orthogonal_basis(rng, 4, generic=True)
    sampler._layout.cache_clear()
    cold = sampler._draw(process, basis_A, basis_B, 10**5, 11)
    info = sampler._layout.cache_info()
    warm = sampler._draw(process, basis_A, basis_B, 10**5, 11)
    assert sampler._layout.cache_info().hits == info.hits + 1
    for c, w in zip(cold[2:], warm[2:]):
        assert np.array_equal(c, w)
    assert_draw_is_the_uncached_grid(process, basis_A, basis_B, 10**5, 11)
    A, B = cold[:2]
    for M in sampler._layout(A.starts.tobytes(), B.starts.tobytes()):
        assert not M.flags.writeable


# ------------------------------------------------------------ uniqueness over any frame

def assert_expansion_is_canonical(process, basis_A, basis_B):
    """The dual-frame expansion of exact data equals the canonical state over time.

    The expansion amplifies roundoff in the data by at most cond(G_A) cond(G_B); the
    factor 4 covers the few roundings of each grid value and of the expansion itself.
    """
    dA, dB = process.dim_in, process.dim_out
    sot = pdm_from_correlations(dA, dB, basis_A, basis_B,
                                two_time_grid(process, basis_A, basis_B))
    X = canonical_sot(process).matrix
    tol = 4 * sot.condition * dA * dB * np.finfo(float).eps * np.linalg.norm(X)
    assert np.abs(sot.matrix - X).max() <= tol


@settings(FAST, max_examples=100)
@given(seed=seeds, dA=st.integers(1, 4), dB=st.integers(1, 4), rank=ranks,
       kind_A=st.sampled_from(FRAMES), kind_B=st.sampled_from(FRAMES))
def test_every_complete_frame_gives_the_canonical_sot(seed, dA, dB, rank, kind_A, kind_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    assert_expansion_is_canonical(process, light_touch_frame(rng, dA, kind_A),
                                  light_touch_frame(rng, dB, kind_B))


@pytest.mark.parametrize("dA,dB", [(5, 2), (6, 2), (2, 5), (5, 3)])
def test_every_complete_frame_gives_the_canonical_sot_at_larger_d(dA, dB):
    rng = np.random.default_rng(10 * dA + dB)
    process = make_process(rng, dA, dB, dA)
    for kind in FRAMES[:2] + FRAMES[3:]:
        assert_expansion_is_canonical(process, light_touch_frame(rng, dA, kind),
                                      light_touch_frame(rng, dB, kind))


# ------------------------------------------------------------ trace side

@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kinds_A=kind_lists, kinds_B=kind_lists)
def test_trace_grid_matches_kron(seed, dA, dB, rank, kinds_A, kinds_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    As, Bs = observables(rng, dA, kinds_A), observables(rng, dB, kinds_B)
    H = random_hermitian(dA * dB, rng)
    for X in (canonical_sot(process).matrix, H / np.linalg.norm(H)):
        grid = trace_grid(X, As, Bs)
        want = np.array([[ref_trace_value(X, A, B) for B in Bs] for A in As])
        assert np.abs(grid - want).max() <= TOL
        assert abs(sot_trace_value(X, As[-1], Bs[0]) - want[-1, 0]) <= TOL


def test_canonical_sot_matches_kron():
    rng = np.random.default_rng(11)
    for dA, dB in itertools.product(range(1, 7), repeat=2):
        for rank in (1, dA):
            process = make_process(rng, dA, dB, rank)
            X = canonical_sot(process).matrix
            assert np.abs(X - ref_canonical_sot(process)).max() <= TOL


# ------------------------------------------------------------ callers

@settings(FAST, max_examples=100)
@example(picks=[0])
@example(picks=[0, 1, 2, 3])
@example(picks=[0, 1, 0, 1, 2, 0])
@example(picks=[3, 3, 3])
@given(picks=st.one_of(st.lists(st.integers(0, 5), min_size=1, max_size=30),
                       st.permutations(range(8))))
def test_unique_matches_the_id_sort(picks):
    # Repeats, all-distinct lists, single elements and interleavings of a few observables.
    pool = [Observable(np.eye(2) * k) for k in range(8)]
    observables = tuple(pool[k] for k in picks)
    distinct, index = twotime._unique(observables)
    want, want_index = ref_unique(observables)
    assert len(distinct) == len(want) and all(a is b for a, b in zip(distinct, want))
    assert list(index) == want_index.tolist()
    assert all(distinct[k] is o for k, o in zip(index, observables))


@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks, kinds_A=kind_lists, kinds_B=kind_lists)
def test_representability_residual_matches_scalar_loop(seed, dA, dB, rank, kinds_A, kinds_B):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    As, Bs = observables(rng, dA, kinds_A), observables(rng, dB, kinds_B)
    # Shared objects (a product family) mixed with one-off general pairs.
    probes = [(A, B) for A in As for B in Bs] + [
        (make_observable(rng, dA, "general"), make_observable(rng, dB, "general"))
        for _ in range(3)
    ]
    X = canonical_sot(process).matrix
    assert abs(representability_residual(process, X, probes)
               - ref_residual(process, X, probes)) <= TOL


@FAST
@given(seed=seeds, dA=dims, dB=dims)
def test_choi_and_jamiolkowski_match_kraus_loop(seed, dA, dB):
    # Equal bits: the stacked sum adds the same outer products in the same order.
    rng = np.random.default_rng(seed)
    channel = random_channel(dA, dB, rng, env_dim=int(rng.integers(-(-dA // dB), dA + 2)))
    want = ref_choi(channel)
    assert np.array_equal(choi_matrix(channel), want)
    d = dA * dB
    swapped = want.reshape(dA, dB, dA, dB).transpose(2, 1, 0, 3).reshape(d, d)
    assert np.array_equal(channel.jamiolkowski, swapped)
    transfer = choi_matrix(channel).reshape(dA, dB, dA, dB).transpose(0, 2, 1, 3)
    assert not channel._transfer.flags.writeable
    assert np.array_equal(channel._transfer, transfer.reshape(dA * dA, dB * dB))


@FAST
@given(seed=seeds, dA_dB=st.tuples(st.integers(1, 5), st.integers(1, 5)).filter(lambda p: p[0] != p[1]),
       rank_share=st.floats(0, 1), n=st.sampled_from([0, 1, 40]))
def test_evolve_matches_the_kraus_products_and_apply(seed, dA_dB, rank_share, n):
    # Kraus ranks from the least an isometry allows, ceil(dA / dB), up to dA dB.
    dA, dB = dA_dB
    least = -(-dA // dB)
    rank = least + round(rank_share * (dA * dB - least))
    rng = np.random.default_rng(seed)
    channel = random_channel(dA, dB, rng, env_dim=rank)
    L = rng.standard_normal((n, dA, dA)) + 1j * rng.standard_normal((n, dA, dA))
    got = twotime._evolve(channel, L)
    want = ref_evolve(channel, L)
    assert got.shape == want.shape == (n, dB, dB)
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=0.0)
    for G, M in zip(got, L):
        W = apply(channel, M)
        assert np.abs(G - W).max() <= 1e-13 * np.abs(W).max()


@pytest.mark.parametrize("dA,dB", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)])
def test_reconstruct_unique_matches_scalar_loop(dA, dB):
    rng = np.random.default_rng(100 * dA + dB)
    for rank in (1, dA):
        process = make_process(rng, dA, dB, rank)
        X = reconstruct_unique(process).matrix
        assert np.abs(X - ref_reconstruct(process)).max() <= TOL


@FAST
@given(seed=seeds, dA=dims, dB=dims, rank=ranks)
def test_reconstruct_unique_matches_least_squares(seed, dA, dB, rank):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, rank)
    rec = reconstruct_unique(process)
    assert np.abs(rec.matrix - ref_reconstruct(process)).max() <= TOL
    assert np.array_equal(rec.matrix, rec.matrix.conj().T)


@pytest.mark.parametrize("dA,dB", [(6, 2), (8, 3)])
def test_reconstruct_unique_matches_closed_form_at_large_d(dA, dB):
    # The expansion amplifies roundoff in the grid by at most cond(G_A).
    rng = np.random.default_rng(dA)
    for rank in (1, dA):
        process = make_process(rng, dA, dB, rank)
        rec = reconstruct_unique(process)
        tol = rec.condition * dA * dB * np.finfo(float).eps
        assert np.abs(rec.matrix - canonical_sot(process).matrix).max() <= tol


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 12])
def test_reconstruct_unique_matches_the_expansion_over_the_raw_hermitian_basis(d):
    # The hermitian basis is orthonormal, so its dual frame is itself up to roundoff.
    process = make_process(np.random.default_rng(40 + d), d, d, d)
    rec = reconstruct_unique(process)
    assert np.abs(rec.matrix - ref_reconstruct_unique(process)).max() <= TOL


def test_light_touch_residual_matches_scalar_loop():
    rng = np.random.default_rng(7)
    for dA, dB in [(2, 3), (3, 3), (4, 2)]:
        process = make_process(rng, dA, dB, dA)
        probes = light_touch_probes(dA, dB)
        X = canonical_sot(process).matrix
        got = representability_residual(process, X, probes)
        assert abs(got - ref_residual(process, X, probes)) <= TOL
        assert got <= 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_maximality_scan_matches_scalar_scan(d):
    rng = np.random.default_rng(d)
    for kind in ("general", "degenerate", "near-degenerate"):
        O_A = make_observable(rng, d, kind)
        if O_A.is_light_touch:
            continue
        process, best, dev = maximality_counterexample(O_A)
        X = canonical_sot(process).matrix
        devs = [abs(ref_two_time_ev(process, O_A, B) - ref_trace_value(X, O_A, B))
                for B in hermitian_basis(d)]
        assert abs(dev - max(devs)) <= TOL
        best_dev = abs(ref_two_time_ev(process, O_A, best) - ref_trace_value(X, O_A, best))
        assert abs(best_dev - dev) <= TOL


def count_spectra(monkeypatch) -> list:
    """The row count of every ``linalg._spectra`` call from here on."""
    calls = []

    def counted(H):
        calls.append(len(H))
        return _spectra(H)

    monkeypatch.setattr(linalg, "_spectra", counted)
    return calls


def test_a_cold_observable_costs_the_maximality_scan_one_spectral_decomposition(monkeypatch):
    # O_A's clusters, its class and its row of the scan all come from one record.
    rng = np.random.default_rng(17)
    O_A = make_observable(rng, 3, "general")
    _basis(_frames(3)[1], 3)
    calls = count_spectra(monkeypatch)
    maximality_counterexample(O_A)
    assert calls == [1]


def test_testing_light_touch_before_the_maximality_scan_decomposes_once(monkeypatch):
    # ``verify``'s maximality claim tests each draw first: the scan reuses that record.
    rng = np.random.default_rng(17)
    O_A = make_observable(rng, 3, "general")
    _basis(_frames(3)[1], 3)
    calls = count_spectra(monkeypatch)
    assert not O_A.is_light_touch
    maximality_counterexample(O_A)
    assert calls == [1]


@pytest.mark.parametrize("seed", [0xC0FFEE, 5])
def test_verify_theorems_matches_scalar_loop(seed):
    report = verify_theorems(dims=(2, 3), trials=3, seed=seed)
    want = ref_verify_theorems((2, 3), 3, seed)
    assert [(c.name, c.tolerance, c.direction) for c in report.claims] == [
        (name, tol, direction) for name, _, tol, direction in want]
    for claim, (_, residual, tol, direction) in zip(report.claims, want):
        assert abs(claim.residual - residual) <= TOL
        assert claim.passed == (residual >= tol if direction == "min" else residual <= tol)
    assert report.passed


@pytest.mark.parametrize("dA, dB", [(2, 2), (2, 3), (3, 2), (4, 3)])
def test_special_case_residual_judges_the_drawn_pairs(dA, dB, monkeypatch):
    # Each special-case claim judges the five pairs drawn right after rho, O_A before O_B.
    # Their residual is taken here on a general process, which its canonical state over time
    # does not represent, so it is far above roundoff and pins which pairs are judged.
    states, got = [], []

    def density(d, rng):
        rho = random_density(d, rng)
        states.append(rng.bit_generator.state)
        return rho

    def residual(process, X, probes):
        if not states:  # the light-touch claim, judged before any density is drawn
            return representability_residual(process, X, probes)
        dims = (process.dim_in, process.dim_out)
        general = make_process(np.random.default_rng(10 * dims[0] + dims[1]), *dims, dims[0])
        X = canonical_sot(general).matrix
        got.append((general, X, representability_residual(general, X, probes)))
        return 0.0

    monkeypatch.setattr(verify, "random_density", density)
    monkeypatch.setattr(verify, "representability_residual", residual)
    verify_theorems(dims=(dA, dB), trials=2)
    assert len(got) == len(states) == 16  # sigma and rho, then both claims, per trial
    for state, mixed, prepared in zip(states[1::2], got[0::2], got[1::2]):
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        for general, X, value in (mixed, prepared):
            want = ref_worst_of_five(general, X, rng)
            assert want > 1e-3
            assert abs(value - want) <= TOL


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (2, 4), (4, 2), (5, 3)])
def test_witness_gap_matches_three_scalar_values(m, n):
    witness = nonrepresentable_witness(m, n)
    process, O_B = witness.process, witness.O_B
    gap = (two_time_ev(process, witness.O_A_diff, O_B) - two_time_ev(process, witness.O_A1, O_B)
           + two_time_ev(process, witness.O_A2, O_B))
    assert abs(witness.gap - gap) <= TOL
    assert abs(witness.gap - 2.0) <= 1e-10


def test_empty_grids():
    rng = np.random.default_rng(3)
    process = make_process(rng, 2, 3, 2)
    Bs = hermitian_basis(3)
    assert two_time_grid(process, [], Bs).shape == (0, 9)
    assert trace_grid(np.eye(6), light_touch_spanning_set(2), []).shape == (4, 0)
    assert representability_residual(process, canonical_sot(process).matrix, []) == 0.0


# ------------------------------------------------------------ wrong dimensions

@FAST
@given(seed=seeds, dA=dims, dB=dims, wrong=dims)
def test_wrong_dimension_probes_raise(seed, dA, dB, wrong):
    rng = np.random.default_rng(seed)
    process = make_process(rng, dA, dB, dA)
    X = canonical_sot(process).matrix
    good_A, good_B = make_observable(rng, dA, "general"), make_observable(rng, dB, "general")
    bad = make_observable(rng, wrong, "general")
    if wrong != dA:
        with pytest.raises(DimensionMismatch):
            two_time_grid(process, [good_A, bad], [good_B])
        with pytest.raises(DimensionMismatch):
            two_time_ev(process, bad, good_B)
        with pytest.raises(DimensionMismatch):
            joint_distribution(process, bad, good_B)
        with pytest.raises(DimensionMismatch):
            representability_residual(process, X, [(good_A, good_B), (bad, good_B)])
        with pytest.raises(DimensionMismatch):
            trace_grid(X, [good_A, bad], [good_B])
    if wrong != dB:
        with pytest.raises(DimensionMismatch):
            two_time_grid(process, [good_A], [good_B, bad])
        with pytest.raises(DimensionMismatch):
            joint_distribution(process, good_A, bad)
        with pytest.raises(DimensionMismatch):
            representability_residual(process, X, [(good_A, bad)])
        with pytest.raises(DimensionMismatch):
            sot_trace_value(X, good_A, bad)
    with pytest.raises(DimensionMismatch):
        trace_grid(np.eye(dA * dB + 1), [good_A], [good_B])
    with pytest.raises(DimensionMismatch):
        representability_residual(process, np.eye(dA * dB + 1), [(good_A, good_B)])


# ------------------------------------------------------------ basis records

def test_cold_and_warm_calls_agree_bit_for_bit():
    rng = np.random.default_rng(12)
    process = make_process(rng, 3, 2, 3)
    As, Bs = light_touch_spanning_set(3), light_touch_spanning_set(2)
    X = canonical_sot(process).matrix
    probes = [(A, B) for A in As for B in Bs]
    grid = two_time_grid(process, As, Bs)

    def sampled():
        est = estimate_pdm(process, As, Bs, 1000, 5)
        return est.matrix, est.stderr

    calls = {
        "two_time_grid": lambda: (two_time_grid(process, As, Bs),),
        "trace_grid": lambda: (trace_grid(X, As, Bs),),
        "_joint_table": lambda: (_joint_table(process, *_records(process, As, Bs)),),
        "representability_residual": lambda: (representability_residual(process, X, probes),),
        "reconstruct_unique": lambda: (reconstruct_unique(process).matrix,),
        "pdm_from_correlations": lambda: (pdm_from_correlations(3, 2, As, Bs, grid).matrix,),
        "estimate_pdm": sampled,
    }
    for name, call in calls.items():
        _record.cache_clear()
        cold = call()
        assert _record.cache_info().currsize, name
        warm = call()
        assert all(np.array_equal(c, w) for c, w in zip(cold, warm)), name


def test_the_same_observables_share_one_record_and_any_other_list_gets_its_own():
    _record.cache_clear()
    P = pauli_basis(1)
    record = _basis(P, 2)
    assert _basis(tuple(P), 2) is record and _basis(list(P), 2) is record
    assert _record.cache_info().currsize == 1
    # Equal content built apart is other observables: its own record, bit for bit the same.
    apart = _basis(pauli_basis(1), 2)
    assert apart is not record and _record.cache_info().currsize == 2
    for name in ("stack", "eigenvalues", "projectors", "starts", "norms"):
        assert getattr(apart, name).tobytes() == getattr(record, name).tobytes(), name
    assert apart.light_touch is record.light_touch is True
    (dual, condition, norms), want = apart.frame, record.frame
    assert dual.tobytes() == want[0].tobytes() and norms.tobytes() == want[2].tobytes()
    assert condition == want[1]
    rescaled = _basis([Observable(2 * A.matrix) for A in P], 2)
    assert rescaled is not record and _record.cache_info().currsize == 3
    assert np.array_equal(rescaled.stack, 2 * record.stack)
    assert np.array_equal(rescaled.norms, 2 * record.norms)
    assert np.array_equal(rescaled.frame[0], record.frame[0] / 2)
    # A list that differs in its last element only, and one whose bytes are those of
    # another list in another dimension, get their own records too.
    assert _basis(P[:3] + [P[0]], 2) is not record
    scalars = [Observable(np.array([[z]])) for z in np.eye(2).ravel()]
    assert _basis(scalars, 1).stack.tobytes() == _basis(P[:1], 2).stack.tobytes()
    assert _basis(scalars, 1) is not _basis(P[:1], 2)


def test_a_dropped_list_never_lends_its_record_to_a_later_one():
    # Each list is freed before the next is built, so a later list may take its objects'
    # ids. The key holds its observables, so no id in the memo is ever reused.
    rng = np.random.default_rng(17)
    _record.cache_clear()
    built = []
    for _ in range(40):
        members = [Observable(random_hermitian(2, rng)) for _ in range(2)]
        built.append((_basis(members, 2), np.array([M.matrix for M in members])))
        del members
        gc.collect()
    for record, matrices in built:
        assert np.array_equal(record.stack, matrices)


def test_a_warm_lookup_of_a_kept_list_builds_no_record(monkeypatch):
    P = pauli_basis(2)
    _record.cache_clear()
    record = _basis(P, 4)
    built = []
    init = SpectralDecomposition.__init__
    monkeypatch.setattr(SpectralDecomposition, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    assert _basis(P, 4) is record and _basis(iter(P), 4) is record
    assert not built and _record.cache_info().currsize == 1


def test_a_one_shot_iterable_is_read_once():
    process = make_process(np.random.default_rng(18), 2, 2, 2)
    P, H = pauli_basis(1), hermitian_basis(2)
    _record.cache_clear()
    got = two_time_grid(process, iter(P), iter(H))
    want = two_time_grid(process, P, H)
    assert got.shape == want.shape == (4, 4) and got.tobytes() == want.tobytes()
    X = canonical_sot(process).matrix
    assert trace_grid(X, iter(P), iter(H)).tobytes() == trace_grid(X, P, H).tobytes()
    got = pdm_from_correlations(2, 2, iter(P), iter(H), want).matrix
    assert got.tobytes() == pdm_from_correlations(2, 2, P, H, want).matrix.tobytes()


def test_memo_keeps_the_most_recently_used_records_within_its_bound():
    _record.cache_clear()
    size = _record.cache_info().maxsize
    rng = np.random.default_rng(13)

    def new_list():
        return [make_observable(rng, 2, "general") for _ in range(3)]

    first, second_list = new_list(), new_list()
    record = _basis(first, 2)
    second = _basis(second_list, 2)
    for _ in range(size - 2):
        _basis(new_list(), 2)
    assert _record.cache_info().currsize == size
    assert _basis(first, 2) is record  # used again: the oldest is now the second list
    _basis(new_list(), 2)
    assert _record.cache_info().currsize == size
    assert _basis(first, 2) is record and _basis(second_list, 2) is not second
    for _ in range(size + 5):
        _basis(new_list(), 2)
        assert _record.cache_info().currsize <= size
    # Evicted, the first list gets a new record equal to the old one.
    again = _basis(first, 2)
    assert again is not record
    assert np.array_equal(again.projectors, record.projectors)


def test_record_arrays_are_read_only():
    _record.cache_clear()
    record = _basis(light_touch_spanning_set(3), 3)
    dual, _, norms = record.frame
    for M in (record.stack, record.eigenvalues, record.projectors, record.starts,
              record.norms, dual, norms):
        with pytest.raises(ValueError):
            M.flat[0] = 1


def test_record_dual_frame_is_cached_and_read_only():
    probes, basis = _frames(3)
    dual, condition, _ = _basis(probes, 3).frame
    assert _basis(probes, 3).frame[0] is dual
    stack = _basis(basis, 3).stack
    A = np.array([P.matrix for P in probes])
    assert np.abs(np.einsum("aij,bji->ab", dual, A) - np.eye(9)).max() < 1e-12
    assert np.abs(np.einsum("aij,bji->ab", stack, stack) - np.eye(9)).max() < 1e-15
    for arr in (dual, stack):
        with pytest.raises(ValueError):
            arr[0, 0, 0] = 1.0
    assert _frames.cache_info().maxsize is not None


def test_light_touch_probes_share_the_frame_cache():
    probes, basis = _frames(3)
    _, basis_2 = _frames(2)
    stack = _basis(basis, 3).stack
    pairs = light_touch_probes(3, 2)
    assert len(pairs) == len(probes) * len(basis_2)
    assert all(A is probes[k // 4] and B is basis_2[k % 4] for k, (A, B) in enumerate(pairs))
    assert light_touch_probes(3, 2)[5][0] is pairs[5][0]
    assert np.array_equal(stack, [B.matrix for B in basis])
    for obs in (probes[1], basis[2], basis_2[0]):
        with pytest.raises(ValueError):
            obs.matrix[0, 0] = 1.0


@pytest.mark.parametrize("d", range(1, 10))
def test_frames_pick_the_light_touch_frame_sampling_used(d):
    # Every light-touch frame comes from _frames, and it is the frame --shots has sampled
    # over, so --shots output is unchanged.
    frame = _frames(d)[0]
    assert np.array_equal([A.matrix for A in frame], [A.matrix for A in ref_light_touch_basis(d)])
    record = _basis(frame, d)
    assert len(frame) == d * d and record.light_touch
    # Orthogonal exactly where a basis is known (d = 1 has the one-element frame {1}).
    condition = record.frame[1]
    assert (abs(condition - 1.0) <= 1e-12) == (d in (1, 2, 3, 4, 8))
    process = random_process(d, 2, np.random.default_rng(d))
    assert reconstruct_unique(process).condition == condition * _basis(_frames(2)[1], 2).frame[1]


STACKS = ("empty", "spanning", "hermitian", "pauli", "sic", "general", "degenerate",
          "rank-deficient", "chain")


def spectra_stack(rng, d, kind):
    """A stack of hermitian d x d matrices of one kind; "pauli" and "sic" fix their own d."""
    if kind == "empty":
        return np.zeros((0, d, d), dtype=complex)
    if kind == "spanning":
        return np.array([L.matrix for L in light_touch_spanning_set(d)])
    if kind == "hermitian":
        return np.array([H.matrix for H in hermitian_basis(d)])
    if kind == "pauli":  # d = 2, 4 or 8
        return np.array([P.matrix for P in pauli_basis(min(max(d.bit_length() - 1, 1), 3))])
    if kind == "sic":
        povm = sic_povm(sic_fiducial_w(rng.uniform(0.0, 2 * np.pi)))
        return np.array([L.matrix for L in light_touch_basis_qutrit(povm)])
    if kind == "general":
        return np.array([random_hermitian(d, rng) for _ in range(5)])
    mats = []
    for _ in range(5):
        if kind == "degenerate":
            values = rng.standard_normal(3)[rng.integers(0, 3, d)]
        elif kind == "rank-deficient":
            values = rng.standard_normal(d) * (rng.random(d) < 0.5)
        else:  # gaps just below, at and just above CLUSTER_RTOL max|eigenvalue|, chained
            steps = rng.choice([0.5, 0.99, 1.01, 2.0], d - 1) * CLUSTER_RTOL
            values = 1.0 + np.concatenate([[0.0], np.cumsum(steps)])
        U = unitary(rng, d)
        mats.append(U @ np.diag(values) @ U.conj().T)
    return np.array(mats)


@FAST
@given(seed=seeds, d=st.integers(1, 12), kind=st.sampled_from(STACKS),
       scale=st.sampled_from([1e-200, 1e-8, 1.0, 1e8, 1e200]))
@example(seed=0, d=12, kind="spanning", scale=1.0)
@example(seed=1, d=12, kind="chain", scale=1e200)
@example(seed=2, d=3, kind="sic", scale=1e-200)
@example(seed=3, d=7, kind="degenerate", scale=1.0)
@example(seed=4, d=5, kind="empty", scale=1.0)
def test_batched_spectra_match_the_per_matrix_loop(seed, d, kind, scale):
    stack = scale * spectra_stack(np.random.default_rng(seed), d, kind)
    eigenvalues, projectors, starts, norms = _spectra(stack)
    refs = [ref_decompose(H) for H in stack]
    dim = stack.shape[1]
    assert np.array_equal(starts, np.cumsum([0] + [len(w) for w, _, _ in refs]))
    assert np.array_equal(eigenvalues, np.concatenate([np.zeros(0)] + [w for w, _, _ in refs]))
    assert np.array_equal(projectors, np.concatenate([np.zeros((0, dim, dim))]
                                                     + [P for _, P, _ in refs]))
    assert np.array_equal(norms, [norm for _, _, norm in refs])
    for M in (eigenvalues, projectors, starts, norms):
        assert not M.flags.writeable
    if len(stack):  # the one-row case is the decomposition of an observable
        dec = Observable(stack[-1]).spectral
        w, P, norm = refs[-1]
        assert np.array_equal(dec.eigenvalues, w) and np.array_equal(dec.projectors, P)
        assert dec.norms.tolist() == [norm]


def test_light_touch_residual_and_reconstruction_share_one_record_per_frame():
    # The residual's distinct observables come in first-appearance order, so its two
    # lists are the frames ``reconstruct_unique`` reads; in id order they were copies.
    process = make_process(np.random.default_rng(14), 3, 2, 2)
    _record.cache_clear()
    reconstruct_unique(process)
    representability_residual(process, canonical_sot(process).matrix, light_touch_probes(3, 2))
    assert _record.cache_info().currsize == 2


def test_building_a_record_decomposes_no_member():
    rng = np.random.default_rng(15)
    members = observables(rng, 4, KINDS)
    _record.cache_clear()
    record = _basis(members, 4)
    assert not any("spectral" in vars(obs) for obs in members)
    assert not record.light_touch
    for k, obs in enumerate(members):
        cut = slice(record.starts[k], record.starts[k + 1])
        assert np.array_equal(record.eigenvalues[cut], obs.spectral.eigenvalues)
        assert np.array_equal(record.projectors[cut], obs.spectral.projectors)
        assert record.norms[k] == obs.spectral.norms[0]
    assert _basis(members[1:3], 4).light_touch  # light-touch and scalar


def test_empty_list_record_is_light_touch():
    assert _basis([], 3).light_touch is True
    assert _basis([], 3).stack.shape == (0, 3, 3)


def test_threads_sharing_the_memo_each_get_the_record_of_their_own_list():
    # The memo has no lock of its own: a record is immutable, so a race may build it twice
    # but never hand a thread another list's record or grow the memo past its bound.
    rng = np.random.default_rng(16)
    lists = [[make_observable(rng, 2, "general") for _ in range(3)] for _ in range(24)]
    bad = []

    def work(t):
        try:
            for k in range(150):
                members = lists[(7 * t + k) % len(lists)]
                if not np.array_equal(_basis(members, 2).stack, [M.matrix for M in members]):
                    bad.append((t, k))
        except Exception as exc:  # a thread's exception is otherwise lost
            bad.append(exc)

    _record.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not bad
    assert _record.cache_info().currsize <= _record.cache_info().maxsize
