"""The three workloads: their seeded inputs, their operations and the checks.

A workload's constructor is its set-up: it imports the package where it is
used in-process, makes every input from the seed, computes the reference
results with ``checks`` and warms the program up.  ``ops`` is then one pass,
a fixed list of operations; the benchmark repeats whole passes, so every run
has the same mix of sizes.  ``op.run()`` calls the program and ``op.check``
takes its output and returns ``None`` or the reason it is wrong.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import checks
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_CALL = Path(__file__).resolve().parent / "cli_call.py"
CLI_TIMEOUT_S = 120


class Op(NamedTuple):
    label: str
    run: Callable
    check: Callable


class OpFailed(Exception):
    """The program raised or exited non-zero on an operation."""


def random_kraus(rng, dA, dB):
    """Kraus operators of a Haar-random Stinespring isometry with a dA-level environment."""
    G = rng.standard_normal((dB * dA, dA)) + 1j * rng.standard_normal((dB * dA, dA))
    Q, R = np.linalg.qr(G)
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    W = Q.reshape(dB, dA, dA)
    return [W[:, e, :] for e in range(dA)]


def random_rho(rng, d):
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = G @ G.conj().T
    return rho / np.trace(rho).real


class Instance:
    """One seeded process and its closed-form references."""

    def __init__(self, rng, dA, dB):
        self.dA, self.dB = dA, dB
        self.kraus = random_kraus(rng, dA, dB)
        self.rho = random_rho(rng, dA)
        self.sot = checks.closed_form_sot(self.kraus, self.rho, dA, dB)
        self.evolved = checks.apply_kraus(self.kraus, self.rho)

    def check_exact(self, X, tol):
        return (checks.check_state(X, self.sot, tol)
                or checks.check_marginals(X, self.rho, self.evolved, self.dA, self.dB))


def stack(observables):
    return np.array([o.matrix for o in observables])


class TheoremGrid:
    """canonical_sot, reconstruct_unique and the light-touch residual on warm processes."""

    DIMS = [(dA, dB) for dA in (2, 3, 4) for dB in (2, 3, 4)]

    def __init__(self, seed, workdir, tracer=None):
        import qsot
        from qsot import sot, twotime

        if tracer is not None:
            tracing.install(tracer)
        rng = np.random.default_rng(seed)
        self.setup_errors = []
        self.ops = []
        for dA, dB in self.DIMS:
            inst = Instance(rng, dA, dB)
            process = qsot.Process(qsot.channels.QuantumChannel(inst.kraus), inst.rho)
            probes = twotime.light_touch_probes(dA, dB)

            def run(process=process, probes=probes):
                X = sot.canonical_sot(process).matrix
                R = sot.reconstruct_unique(process).matrix
                return X, R, twotime.representability_residual(process, X, probes)

            def check(out, inst=inst):
                X, R, residual = out
                return (inst.check_exact(X, checks.EXACT_TOL)
                        or inst.check_exact(R, checks.RECONSTRUCT_TOL)
                        or checks.check_residual(residual))

            self.ops.append(Op(f"{dA}x{dB}", run, check))
        # Warm-up: the first reconstruct_unique per dimension pair is the cold one.
        for op in self.ops:
            op.run()


class PdmSampled:
    """estimate_pdm over the orthogonal light-touch basis at 10^5 shots per pair."""

    DIMS = (2, 3, 4)
    SHOTS = 10**5
    WARM_SHOTS = 100

    def __init__(self, seed, workdir, tracer=None):
        import qsot
        from qsot import observables, sampler

        if tracer is not None:
            tracing.install(tracer)
        rng = np.random.default_rng(seed)
        chi = float(rng.uniform(0.0, 2 * np.pi))
        povm = observables.sic_povm(observables.sic_fiducial_w(chi))
        self.setup_errors = []
        reason = checks.check_sic(povm.projectors, checks.sic_fiducial(chi))
        if reason:
            self.setup_errors.append(f"sic_povm: {reason}")
        bases = {
            2: observables.pauli_basis(1),
            3: observables.light_touch_basis_qutrit(povm),
            4: observables.pauli_basis(2),
        }
        self.ops = []
        for d in self.DIMS:
            inst = Instance(rng, d, d)
            process = qsot.Process(qsot.channels.QuantumChannel(inst.kraus), inst.rho)
            basis_A, basis_B = bases[d], observables.hermitian_basis(d)
            A, B = stack(basis_A), stack(basis_B)
            expected = checks.product_coefficients(inst.sot, A, B)
            sample_seed = int(rng.integers(1 << 32))

            def run(process=process, basis_A=basis_A, basis_B=basis_B, sample_seed=sample_seed):
                return sampler.estimate_pdm(process, basis_A, basis_B, self.SHOTS,
                                            sample_seed).matrix

            def check(X, expected=expected, A=A, B=B):
                return checks.check_sampled(X, expected, A, B, self.SHOTS)

            self.ops.append(Op(f"d{d}", run, check))
            sampler.estimate_pdm(process, basis_A, basis_B, self.WARM_SHOTS, sample_seed)


# ------------------------------------------------------------------ CLI

def _matrix_json(M):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def _write(path, kind, payload):
    path.write_text(json.dumps({"schema_version": "1", "kind": kind, "payload": payload}))
    return str(path)


class CliOneshot:
    """One ``qsot`` command per operation, each in a fresh interpreter."""

    SHOTS_FEW = 200
    SAMPLE_SHOTS = 10_000

    def __init__(self, seed, workdir, tracer=None):
        self.traced = tracer is not None
        self.workdir = workdir
        self.span_lists = []  # one per traced call
        self.startup_ms = []
        self.calls = 0
        rng = np.random.default_rng(seed)
        self.seed = int(rng.integers(1, 1 << 31))
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.setup_errors = []

        procs = {}
        for dA, dB in ((2, 2), (2, 3), (3, 3), (4, 4)):
            inst = Instance(rng, dA, dB)
            path = _write(workdir / f"process{dA}{dB}.json", "process", {
                "channel": {"dim_in": dA, "dim_out": dB,
                            "kraus": [_matrix_json(K) for K in inst.kraus]},
                "state": {"dim": dA, "matrix": _matrix_json(inst.rho)},
            })
            procs[dA, dB] = (inst, path)
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        v /= np.linalg.norm(v)
        O_A = 2 * np.outer(v, v.conj()) - np.eye(3)  # light-touch, spectrum {1, -1, -1}
        G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        O_B = (G + G.conj().T) / 2
        oa = _write(workdir / "oa.json", "observable", {"dim": 3, "matrix": _matrix_json(O_A)})
        ob = _write(workdir / "ob.json", "observable", {"dim": 3, "matrix": _matrix_json(O_B)})
        chi = float(rng.uniform(0.0, 2 * np.pi))

        self.ops = []
        for dims in ((2, 3), (4, 4)):
            inst, path = procs[dims]
            self._add(f"sot {dims}", "sot", ["sot", path],
                      lambda p, inst=inst: inst.check_exact(checks.matrix_from_doc(p["matrix"]),
                                                            checks.EXACT_TOL))
        for dims in ((3, 3), (4, 4)):
            inst, path = procs[dims]
            self._add(f"pdm-reconstruct {dims}", "sot", ["pdm-reconstruct", path],
                      lambda p, inst=inst: inst.check_exact(checks.matrix_from_doc(p["matrix"]),
                                                            checks.RECONSTRUCT_TOL))
        for dims in ((2, 2), (3, 3), (4, 4)):
            inst, path = procs[dims]
            A, B = checks.light_touch_basis(dims[0]), checks.hermitian_units(dims[1])
            expected = checks.product_coefficients(inst.sot, A, B)
            self._add(f"pdm-reconstruct --shots {dims}", "sot",
                      ["pdm-reconstruct", path, "--shots", str(self.SHOTS_FEW)],
                      lambda p, A=A, B=B, e=expected: checks.check_sampled(
                          checks.matrix_from_doc(p["matrix"]), e, A, B, self.SHOTS_FEW))
        inst, path = procs[3, 3]
        exact = float(np.trace(inst.sot @ np.kron(O_A, O_B)).real)
        bound = (checks.SAMPLED_SIGMAS * np.abs(np.linalg.eigvalsh(O_B)).max()
                 / np.sqrt(self.SAMPLE_SHOTS))
        self._add("sample", "report",
                  ["sample", path, oa, ob, "--shots", str(self.SAMPLE_SHOTS)],
                  lambda p: _check_sample(p, exact, bound, self.SAMPLE_SHOTS))
        self._add("sic", "report", ["sic", "--chi", repr(chi)],
                  lambda p: checks.check_sic([checks.matrix_from_doc(P) for P in p["projectors"]],
                                             checks.sic_fiducial(chi)))
        passed = lambda p: None if p.get("passed") is True else "verification did not pass"
        self._add("verify nogo", "report", ["verify", "nogo"], passed)
        self._add("verify theorems", "report",
                  ["verify", "theorems", "--dims", "2", "--trials", "3"], passed)
        # Warm-up: one untraced call brings the interpreter and numpy into the page cache.
        self._call(["sic"], trace=False)

    def _add(self, label, kind, argv, check_payload):
        argv = argv + ["--seed", str(self.seed), "--format", "json"]

        def check(out):
            returncode, stdout = out
            try:
                doc = json.loads(stdout)
            except ValueError:
                return "output is not JSON"
            return checks.check_document(returncode, doc, kind) or check_payload(doc["payload"])

        self.ops.append(Op(label, lambda: self._call(argv, self.traced), check))

    def _call(self, argv, trace):
        cmd = [sys.executable, str(CLI_CALL)]
        if trace:
            spans_path = self.workdir / f"spans{self.calls}.json.gz"
            cmd += ["--trace", str(spans_path)]
        self.calls += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd + argv, capture_output=True, text=True, env=self.env,
                              timeout=CLI_TIMEOUT_S)
        wall_ms = (time.perf_counter() - start) * 1e3
        if trace:
            spans = tracing.read_spans(spans_path)[0]
            spans_path.unlink()
            self.span_lists.append(spans)
            main_ns = sum(e - s for name, s, e, _ in spans if name == "cli.main")
            self.startup_ms.append(wall_ms - main_ns / 1e6)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.returncode, proc.stdout


def _check_sample(payload, exact, bound, shots):
    if abs(payload["exact"] - exact) > checks.EXACT_TOL:
        return f"exact value {payload['exact']} differs from the closed form {exact}"
    if abs(payload["estimate"] - exact) > bound:
        return f"estimate {payload['estimate']} is beyond {bound:.3e} of {exact}"
    if sum(map(sum, payload["counts"])) != shots:
        return "counts do not add up to the shots"
    return None


WORKLOADS = {
    "theorem-grid": TheoremGrid,
    "pdm-sampled": PdmSampled,
    "cli-oneshot": CliOneshot,
}
