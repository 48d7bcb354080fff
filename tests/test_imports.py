"""Lazy package exports and the CLI's BLAS pin, each checked in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_fresh(code, **env_vars):
    """Run ``code`` in a new interpreter on this checkout's ``src``, with no BLAS settings
    but ``env_vars``, and parse what it prints as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_qsot_loads_no_numpy():
    loaded = run_fresh("import json, sys, qsot; print(json.dumps(sorted(sys.modules)))")
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("qsot")] == ["qsot"]


def test_every_export_resolves():
    out = run_fresh("""
import json
import qsot
names = list(qsot.__all__)
missing = [n for n in names if getattr(qsot, n, None) is None]
star = {}
exec("from qsot import *", star)
try:
    qsot.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"names": names, "missing": missing, "star": sorted(star),
                  "dir": dir(qsot), "unknown": unknown,
                  "submodule": qsot.twotime.__name__,
                  "same": qsot.canonical_sot is qsot.sot.canonical_sot}))
""")
    names = out["names"]
    assert len(names) == len(set(names)) > 50
    assert out["missing"] == []
    assert set(names) <= set(out["star"])
    assert set(names) <= set(out["dir"])
    assert "no_such_name" in out["unknown"]
    assert out["submodule"] == "qsot.twotime"
    assert out["same"]
    assert not {"adjoint_apply", "make_standard"} & set(names)


@pytest.mark.parametrize("env_vars, want", [
    ({}, {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}),
    ({"OPENBLAS_NUM_THREADS": "3"}, {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None}),
    ({"OMP_NUM_THREADS": "2"}, {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "2"}),
], ids=["unset", "openblas-set", "omp-set"])
def test_cli_pins_blas_threads_unless_set(env_vars, want):
    # The finder sees the environment at the moment numpy is first imported.
    got = run_fresh(f"""
import json, os, sys

class AtNumpyImport:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            self.seen.append({{k: os.environ.get(k) for k in {BLAS_VARS!r}}})

sys.meta_path.insert(0, AtNumpyImport())
import qsot.cli
print(json.dumps(AtNumpyImport.seen + [{{k: os.environ.get(k) for k in {BLAS_VARS!r}}}]))
""", **env_vars)
    assert got == [want, want]


def test_cli_runs_verify_and_sampler_only_for_their_commands(tmp_path):
    # Both sit in sys.modules once qsot.cli is imported, but their code runs only when
    # a command uses them (an unexecuted lazy module is not a plain ModuleType yet).
    out = run_fresh(f"""
import json, sys, types
import numpy as np
from qsot import Process, identity_channel, io
from qsot.cli import main
import qsot

assert qsot.verify is sys.modules["qsot.verify"]

path = {str(tmp_path / "process.json")!r}
io.dump_document(io.process_doc(Process(identity_channel(2), np.eye(2) / 2)), path)
executed = lambda: {{m: type(sys.modules[m]) is types.ModuleType
                    for m in ("qsot.sampler", "qsot.verify")}}
steps = {{"import": executed()}}
for label, argv in [("sot", ["sot", path]), ("shots", ["pdm-reconstruct", path, "--shots", "5"]),
                    ("verify", ["verify", "nogo", "--trials", "1"])]:
    assert main(argv + ["--out", path + ".out"]) == 0
    steps[label] = executed()
print(json.dumps(steps))
""")
    assert out == {
        "import": {"qsot.sampler": False, "qsot.verify": False},
        "sot": {"qsot.sampler": False, "qsot.verify": False},
        "shots": {"qsot.sampler": True, "qsot.verify": False},
        "verify": {"qsot.sampler": True, "qsot.verify": True},
    }


def test_sampler_paths_leave_numpy_ma_unloaded(tmp_path):
    # numpy.ma adds ~1.5 MiB resident once imported (np.unique loads it, for one).
    out = run_fresh(f"""
import json, sys
import numpy as np
from qsot import Process, estimate_pdm, hermitian_basis, io, pauli_basis, random_process
from qsot.cli import main

process = random_process(2, 2, np.random.default_rng(0))
estimate_pdm(process, pauli_basis(1), hermitian_basis(2), 200, seed=3)
after_estimate = "numpy.ma" in sys.modules
path = {str(tmp_path / "process.json")!r}
io.dump_document(io.process_doc(process), path)
code = main(["pdm-reconstruct", path, "--shots", "200", "--out", path + ".out"])
print(json.dumps({{"estimate": after_estimate, "cli": "numpy.ma" in sys.modules, "code": code}}))
""")
    assert out == {"estimate": False, "cli": False, "code": 0}
