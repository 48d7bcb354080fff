"""Acceptance suite: one test per top-level numerical claim.

Each test prints a single PASS/FAIL line with the achieved residuals so the
suite output doubles as an audit record.
"""

import time

import numpy as np
import pytest

from qsot import (
    IsLightTouch,
    Observable,
    Process,
    canonical_sot,
    estimate_ev,
    estimate_pdm,
    identity_channel,
    light_touch_basis_qutrit,
    light_touch_probes,
    maximality_counterexample,
    nonrepresentable_witness,
    partial_trace,
    pauli_basis,
    random_density,
    random_hermitian,
    random_process,
    reconstruct_unique,
    representability_residual,
    sample_sequential,
    tensor,
    two_time_ev,
)
from qsot.channels import apply, discard_prepare, random_channel
from qsot.observables import gram_matrix, sic_povm
from qsot.twotime import general_probes
from qsot.verify import sic_fiducial_grid


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_qutrit_worked_example():
    proc = Process(identity_channel(3), np.diag([1.0, 0.0, 0.0]))
    want = np.zeros((9, 9))
    want[0, 0] = 1.0
    for i, j in [(1, 3), (3, 1), (2, 6), (6, 2)]:
        want[i, j] = 0.5
    sot = canonical_sot(proc)  # warm-up
    elapsed = np.inf
    for _ in range(5):
        t0 = time.perf_counter()
        canonical_sot(proc)
        elapsed = min(elapsed, time.perf_counter() - t0)
    entry_dev = float(np.abs(sot.matrix - want).max())
    eig_dev = float(
        np.abs(np.sort(sot.eigenvalues()) - np.sort([1, -0.5, -0.5, 0.5, 0.5, 0, 0, 0, 0])).max()
    )
    ok = entry_dev <= 1e-12 and eig_dev <= 1e-10 and elapsed < 1e-3
    report(1, ok, f"entry dev {entry_dev:.2e}, eigenvalue dev {eig_dev:.2e}, "
                  f"runtime {elapsed * 1e6:.0f} us")


def test_criterion_2_uniqueness_and_trace_formula():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0xC0FFEE)
    worst_lt = worst_rec = 0.0
    for dA in (2, 3):
        for dB in (2, 3, 4):
            probes = light_touch_probes(dA, dB)
            for _ in range(50):
                proc = random_process(dA, dB, rng)
                sot = canonical_sot(proc)
                worst_lt = max(
                    worst_lt, representability_residual(proc, sot.matrix, probes)
                )
                rec = reconstruct_unique(proc)
                worst_rec = max(
                    worst_rec, float(np.linalg.norm(rec.matrix - sot.matrix))
                )
    elapsed = time.perf_counter() - t0
    ok = worst_lt <= 1e-10 and worst_rec <= 1e-8 and elapsed < 30
    report(2, ok, f"light-touch residual {worst_lt:.2e}, reconstruction dev "
                  f"{worst_rec:.2e}, runtime {elapsed:.1f} s")


def test_criterion_3_nogo_witness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst_gap = 0.0
    worst_lt = 0.0
    min_general = np.inf
    for m, n in [(2, 2), (3, 3), (2, 4), (4, 2)]:
        w = nonrepresentable_witness(m, n)
        worst_gap = max(worst_gap, abs(w.gap - 2.0))
        X = canonical_sot(w.process).matrix
        worst_lt = max(
            worst_lt, representability_residual(w.process, X, light_touch_probes(m, n))
        )
        probes = [(w.O_A_diff, w.O_B)] + general_probes(m, n, rng)
        min_general = min(min_general, representability_residual(w.process, X, probes))
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-10 and min_general > 0.1 and worst_lt <= 1e-10 and elapsed < 5
    report(3, ok, f"gap dev {worst_gap:.2e}, general residual {min_general:.3f}, "
                  f"light-touch residual {worst_lt:.2e}, runtime {elapsed:.1f} s")


def test_criterion_4_special_case_representability():
    rng = np.random.default_rng(2)
    worst = 0.0
    for dA in (2, 3):
        for dB in (2, 3):
            for _ in range(25):
                chan = random_channel(dA, dB, rng)
                mixed = Process(chan, np.eye(dA) / dA)
                X_mm = chan.jamiolkowski / dA
                sigma = random_density(dB, rng)
                rho = random_density(dA, rng)
                dp = Process(discard_prepare(sigma, dim_in=dA), rho)
                X_dp = tensor(rho, sigma)
                for _ in range(5):
                    O_A = Observable(random_hermitian(dA, rng))
                    O_B = Observable(random_hermitian(dB, rng))
                    pair = tensor(O_A.matrix, O_B.matrix)
                    worst = max(
                        worst,
                        abs(two_time_ev(mixed, O_A, O_B) - np.trace(X_mm @ pair).real),
                        abs(two_time_ev(dp, O_A, O_B) - np.trace(X_dp @ pair).real),
                    )
    ok = worst <= 1e-10
    report(4, ok, f"worst bilinear deviation {worst:.2e}")


def test_criterion_5_one_time_marginals():
    rng = np.random.default_rng(3)
    worst = 0.0
    for dA in (2, 3):
        for dB in (2, 3):
            for _ in range(25):
                proc = random_process(dA, dB, rng)
                O_A = Observable(random_hermitian(dA, rng))
                O_B = Observable(random_hermitian(dB, rng))
                worst = max(
                    worst,
                    abs(two_time_ev(proc, O_A, Observable(np.eye(dB)))
                        - np.trace(proc.rho @ O_A.matrix).real),
                    abs(two_time_ev(proc, Observable(np.eye(dA)), O_B)
                        - np.trace(apply(proc.channel, proc.rho) @ O_B.matrix).real),
                )
    ok = worst <= 1e-10
    report(5, ok, f"worst marginal deviation {worst:.2e}")


def test_criterion_6_sic_suite():
    t0 = time.perf_counter()
    fiducials = sic_fiducial_grid()
    assert len(fiducials) >= 30
    worst_overlap = worst_sum = worst_gram = 0.0
    for psi in fiducials:
        povm = sic_povm(psi)
        for a in range(9):
            for b in range(a + 1, 9):
                overlap = np.trace(povm.projectors[a] @ povm.projectors[b]).real
                worst_overlap = max(worst_overlap, abs(overlap - 0.25))
        worst_sum = max(
            worst_sum, float(np.linalg.norm(sum(povm.projectors) / 3 - np.eye(3)))
        )
        basis = light_touch_basis_qutrit(povm)
        worst_gram = max(
            worst_gram, float(np.abs(gram_matrix(basis) - 3 * np.eye(9)).max())
        )
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([1.0, 2.0, 0.0, 0.0]) / np.sqrt(5)
    cross = np.vdot(2 * np.outer(u, u) - np.eye(4), 2 * np.outer(v, v) - np.eye(4)).real
    cross_dev = abs(cross - 0.8)
    elapsed = time.perf_counter() - t0
    ok = (worst_overlap <= 1e-10 and worst_sum <= 1e-10 and worst_gram <= 1e-10
          and cross_dev <= 1e-10 and elapsed < 2)
    report(6, ok, f"{len(fiducials)} fiducials, overlap dev {worst_overlap:.2e}, "
                  f"sum dev {worst_sum:.2e}, Gram dev {worst_gram:.2e}, "
                  f"d=4 cross dev {cross_dev:.2e}, runtime {elapsed:.1f} s")


def test_criterion_7_maximality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    min_residual = np.inf
    checked = 0
    for d in (2, 3, 4):
        found = 0
        while found < 20:
            O_A = Observable(random_hermitian(d, rng))
            if O_A.is_light_touch:
                continue
            _, _, residual = maximality_counterexample(O_A)
            min_residual = min(min_residual, residual)
            checked += 1
            found += 1
    rejected = 0
    for d in (2, 3, 4):
        for _ in range(20):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            v = v / np.linalg.norm(v)
            lam = float(rng.uniform(0.5, 2.0))
            O = Observable(lam * (2 * np.outer(v, v.conj()) - np.eye(d)))
            with pytest.raises(IsLightTouch):
                maximality_counterexample(O)
            rejected += 1
    elapsed = time.perf_counter() - t0
    ok = min_residual > 1e-6 and checked == 60 and rejected == 60 and elapsed < 20
    report(7, ok, f"min counterexample residual {min_residual:.2e} over {checked} "
                  f"observables, {rejected} light-touch rejections, runtime {elapsed:.1f} s")


def test_criterion_8_sampling_concentration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    proc = random_process(2, 2, rng)
    O_A = Observable(random_hermitian(2, rng))
    O_B = Observable(random_hermitian(2, rng))
    exact = two_time_ev(proc, O_A, O_B)
    hits = 0
    for seed in range(20):
        record = sample_sequential(proc, O_A, O_B, 10**6, seed=seed)
        mean, stderr = estimate_ev(
            record, O_A.spectral.eigenvalues, O_B.spectral.eigenvalues
        )
        if abs(mean - exact) <= 5 * max(stderr, 1e-12):
            hits += 1
    basis = pauli_basis(1)
    sot = estimate_pdm(proc, basis, basis, 10**6, seed=0xC0FFEE)
    dist = float(np.linalg.norm(sot.matrix - canonical_sot(proc).matrix))
    elapsed = time.perf_counter() - t0
    ok = hits >= 19 and dist <= 0.02 and elapsed < 60
    report(8, ok, f"{hits}/20 runs within 5 stderr, sampled reconstruction dev "
                  f"{dist:.4f}, runtime {elapsed:.1f} s")


def test_criterion_9_operator_identity_properties():
    rng = np.random.default_rng(6)
    basis = pauli_basis(2)
    worst_roundtrip = 0.0
    for _ in range(200):
        R = random_hermitian(4, rng)
        coeffs = [np.trace(R @ s.matrix).real / 4 for s in basis]
        recon = sum(c * s.matrix for c, s in zip(coeffs, basis))
        worst_roundtrip = max(worst_roundtrip, float(np.linalg.norm(recon - R)))

    worst_contract = 0.0
    for _ in range(100):
        dA, dB = rng.choice([2, 3]), rng.choice([2, 3])
        chan = random_channel(dA, dB, rng)
        A = random_hermitian(dA, rng)
        B = random_hermitian(dB, rng)
        lhs = partial_trace(chan.jamiolkowski @ tensor(A, B), dA, dB, "A")
        worst_contract = max(
            worst_contract, float(np.linalg.norm(lhs - apply(chan, A) @ B))
        )

    min_peak = np.inf
    for _ in range(50):
        m, n = rng.choice([2, 3]), rng.choice([2, 3])
        Y = random_hermitian(m * n, rng)
        peak = 0.0
        for _ in range(500):
            psi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            phi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            v = np.kron(psi / np.linalg.norm(psi), phi / np.linalg.norm(phi))
            peak = max(peak, abs(v.conj() @ Y @ v))
        min_peak = min(min_peak, peak)

    ok = worst_roundtrip <= 1e-10 and worst_contract <= 1e-10 and min_peak > 0
    report(9, ok, f"coefficient roundtrip dev {worst_roundtrip:.2e}, contraction "
                  f"identity dev {worst_contract:.2e}, min product-vector peak "
                  f"{min_peak:.2e}")
