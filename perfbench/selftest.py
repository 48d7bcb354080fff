"""Self-tests of the benchmark's checks and tracing.

Each check must accept today's output of the program and reject a perturbed
answer.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It prints one line per test and exits non-zero if any fails.
"""

import json
import sys
import tempfile
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qsot import observables, sampler, sot, twotime  # noqa: E402
import qsot  # noqa: E402


def make(dA, dB, seed=7):
    rng = np.random.default_rng(seed)
    inst = workloads.Instance(rng, dA, dB)
    process = qsot.Process(qsot.QuantumChannel(inst.kraus), inst.rho)
    G = rng.standard_normal((dA * dB,) * 2) + 1j * rng.standard_normal((dA * dB,) * 2)
    H = (G + G.conj().T) / np.linalg.norm(G + G.conj().T)
    return inst, process, H


def test_exact_state():
    for dA, dB in ((2, 3), (3, 3), (4, 2)):
        inst, process, H = make(dA, dB)
        X = sot.canonical_sot(process).matrix
        R = sot.reconstruct_unique(process).matrix
        assert inst.check_exact(X, checks.EXACT_TOL) is None
        assert inst.check_exact(R, checks.RECONSTRUCT_TOL) is None
        assert inst.check_exact(X + 1e-6 * H, checks.EXACT_TOL) is not None
        assert inst.check_exact(R + 1e-6 * H, checks.RECONSTRUCT_TOL) is not None


def test_swapped_jamiolkowski():
    inst, process, _ = make(3, 3)
    d = 3
    J = checks.jamiolkowski(inst.kraus, d, d)
    swapped = J.reshape(d, d, d, d).transpose(1, 0, 3, 2).reshape(d * d, d * d)
    X = checks.closed_form_sot(inst.kraus, inst.rho, d, d, J=swapped)
    assert inst.check_exact(X, checks.EXACT_TOL) is not None


def test_marginals():
    inst, process, _ = make(2, 3)
    X = sot.canonical_sot(process).matrix
    assert checks.check_marginals(X, inst.rho, inst.evolved, 2, 3) is None
    wrong = X + 1e-6 * np.kron(np.diag([1.0, -1.0]), np.eye(3)) / 3
    assert checks.check_marginals(wrong, inst.rho, inst.evolved, 2, 3) is not None


def test_residual():
    inst, process, _ = make(3, 2)
    X = sot.canonical_sot(process).matrix
    residual = twotime.representability_residual(process, X, twotime.light_touch_probes(3, 2))
    assert checks.check_residual(residual) is None
    assert checks.check_residual(residual + 1e-6) is not None


def test_sampled():
    shots = 2000
    for d, basis_A in ((2, observables.pauli_basis(1)),
                       (3, observables.light_touch_basis_qutrit(
                           observables.sic_povm(observables.sic_fiducial_w(0.4))))):
        inst, process, _ = make(d, d)
        basis_B = observables.hermitian_basis(d)
        A, B = workloads.stack(basis_A), workloads.stack(basis_B)
        expected = checks.product_coefficients(inst.sot, A, B)
        X = sampler.estimate_pdm(process, basis_A, basis_B, shots, 11).matrix
        assert checks.check_sampled(X, expected, A, B, shots) is None
        bound = checks.sampled_bound(A, B, shots)
        cA, cB = np.trace(A[0] @ A[0]).real, np.trace(B[0] @ B[0]).real
        wrong = X + 2 * bound[1, 2] * np.kron(A[1], B[2]) / (cA * cB)
        assert checks.check_sampled(wrong, expected, A, B, shots) is not None


def test_sic():
    chi = 1.1
    povm = observables.sic_povm(observables.sic_fiducial_w(chi))
    assert checks.check_sic(povm.projectors, checks.sic_fiducial(chi)) is None
    assert checks.check_sic(povm.projectors, checks.sic_fiducial(chi + 1e-3)) is not None
    P = np.array(povm.projectors)
    v = np.array([1.0, 1e-3, 0.0]) / np.linalg.norm([1.0, 1e-3, 0.0])
    P[4] = np.outer(v, v.conj())
    assert checks.check_sic(P) is not None


def test_cli_documents():
    doc = {"schema_version": "1", "kind": "sot", "payload": {}}
    assert checks.check_document(0, doc, "sot") is None
    assert checks.check_document(3, doc, "sot") is not None
    assert checks.check_document(0, doc, "report") is not None
    assert checks.check_document(0, [], "sot") is not None


def test_cli_ops_accept_todays_output():
    with tempfile.TemporaryDirectory() as tmp:
        wl = workloads.CliOneshot(5, Path(tmp))
        for op in wl.ops:
            assert op.check(op.run()) is None, op.label


def test_measure_runs_whole_passes():
    def fail():
        raise ValueError("always")

    ops = [workloads.Op("ok", lambda: 1, lambda out: None if out == 1 else "wrong"),
           workloads.Op("bad", fail, lambda out: None)]
    res = run.measure(ops, 0.02, probe=lambda: 0.5, probes=3)
    assert res["attempted"] >= 2 and res["attempted"] % 2 == 0
    assert len(res["failures"]) == res["attempted"] // 2 == len(res["latencies"])
    assert res["setups"] == [0.5] * 3 and not res["errors"]


def test_self_time():
    spans = [("a", 0, 10, -1), ("b", 1, 3, 0), ("c", 4, 6, 0), ("b", 5, 6, 2)]
    sums = {}
    tracing.summarize(spans, sums)
    assert sums == {"a": [1, 10, 6], "b": [2, 3, 3], "c": [1, 2, 1]}


def test_install_wraps_every_binding():
    tracer = tracing.Tracer()
    tracing.install(tracer)
    from qsot import cli, verify

    for module in (sot, verify, cli):
        assert module.two_time_ev is twotime.two_time_ev
    inst, process, _ = make(2, 2)
    sot.reconstruct_unique(process)
    names = {n for n, *_ in tracer.spans()}
    assert {"sot.reconstruct_unique", "twotime.two_time_ev", "channels.apply"} <= names


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert listed == tracing.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main():
    tests = [(n, f) for n, f in globals().items() if n.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except Exception:
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
