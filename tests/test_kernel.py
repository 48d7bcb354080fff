"""The batched two-time kernel against the per-pair loops it replaced.

The ``ref_*`` functions are those loops, kept slow and obvious: one Kraus
application per eigenprojector and probe pair, one ``np.kron`` per trace,
and the least-squares reconstruction over a (dA dB)^2-square design matrix
that the dual-frame expansion replaced. Every grid value and reconstruction
must match them within 1e-12 on seeded random instances.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qsot import (
    DimensionMismatch,
    Observable,
    Process,
    canonical_sot,
    joint_distribution,
    maximality_counterexample,
    random_channel,
    random_hermitian,
    reconstruct_unique,
    representability_residual,
    trace_grid,
    two_time_ev,
    two_time_grid,
)
from qsot.channels import apply
from qsot.observables import hermitian_basis, light_touch_spanning_set
from qsot.twotime import light_touch_probes, sot_trace_value

TOL = 1e-12
KINDS = ("general", "light-touch", "scalar", "degenerate", "near-degenerate")
FAST = settings(max_examples=25, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


# ------------------------------------------------------------ references

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


# ------------------------------------------------------------ callers

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
