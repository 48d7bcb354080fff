import json

import numpy as np
import pytest

from qsot import Process, canonical_sot, identity_channel, random_process, reconstruct_unique
from qsot.cli import main
from qsot import io
from qsot.observables import PAULI


def write_process(tmp_path, process, name="process.json"):
    path = tmp_path / name
    io.dump_document(io.process_doc(process), str(path))
    return str(path)


def write_observable(tmp_path, matrix, name):
    path = tmp_path / name
    doc = io.envelope(
        "observable", {"dim": matrix.shape[0], "matrix": io.matrix_to_json(matrix)}
    )
    io.dump_document(doc, str(path))
    return str(path)


def qutrit_process():
    return Process(identity_channel(3), np.diag([1.0, 0.0, 0.0]))


def test_sot_qutrit_eigenvalues(tmp_path):
    proc_file = write_process(tmp_path, qutrit_process())
    out = tmp_path / "sot.json"
    assert main(["sot", proc_file, "--out", str(out), "--format", "json"]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    assert np.allclose(
        payload["eigenvalues"], [-0.5, -0.5, 0, 0, 0, 0, 0.5, 0.5, 1], atol=1e-10
    )
    assert np.isclose(payload["min_eigenvalue"], -0.5)
    assert np.isclose(payload["negativity"], 1.0)


def test_sot_maximally_mixed_qubit(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    out = tmp_path / "sot.json"
    assert main(["sot", proc_file, "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    # half the swap operator
    M = io.matrix_from_json(payload["matrix"])
    swap = np.zeros((4, 4))
    for i in range(2):
        for j in range(2):
            swap[i * 2 + j, j * 2 + i] = 1.0
    assert np.linalg.norm(M - swap / 2) < 1e-12
    assert np.allclose(payload["eigenvalues"], [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_malformed_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sot", str(bad)]) == 2
    wrong_kind = tmp_path / "wrong.json"
    io.dump_document(io.envelope("report", {"passed": True}), str(wrong_kind))
    assert main(["sot", str(wrong_kind)]) == 2


def test_invalid_process_exits_3(tmp_path):
    doc = io.envelope(
        "process",
        {
            "channel": {"kraus": [io.matrix_to_json(1.1 * np.eye(2))]},
            "state": {"dim": 2, "matrix": io.matrix_to_json(np.eye(2) / 2)},
        },
    )
    path = tmp_path / "invalid.json"
    io.dump_document(doc, str(path))
    assert main(["sot", str(path)]) == 3


def test_sic_subcommand(tmp_path):
    out = tmp_path / "sic.json"
    assert main(["sic", "--family", "W", "--chi", "0.0", "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="report")
    assert payload["overlap_residual"] <= 1e-10
    assert len(payload["projectors"]) == 9
    assert len(payload["light_touch_basis"]) == 9
    L00 = io.matrix_from_json(payload["light_touch_basis"][0])
    assert np.linalg.norm(L00 - np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]])) < 1e-12


def test_sic_rejects_out_of_range_fiducial(tmp_path):
    out = tmp_path / "sic.json"
    assert main(["sic", "--family", "V", "--r0", "0.5", "--out", str(out)]) == 3


def test_sic_arbitrary_chi(tmp_path):
    out = tmp_path / "sic.json"
    assert main(["sic", "--family", "W", "--chi", str(np.pi / 7), "--out", str(out)]) == 0


def test_verify_suites_pass(tmp_path):
    out = tmp_path / "report.json"
    code = main(
        ["verify", "all", "--dims", "2", "--trials", "2", "--out", str(out),
         "--format", "json"]
    )
    assert code == 0
    _, payload = io.load_document(str(out), expect_kind="report")
    assert payload["passed"]
    suites = {s["suite"] for s in payload["suites"]}
    assert suites == {"theorems", "nogo", "sic"}
    for suite in payload["suites"]:
        for claim in suite["claims"]:
            assert claim["passed"], claim


def test_verify_rejects_bad_dims():
    assert main(["verify", "theorems", "--dims", "9", "--trials", "1"]) == 3


def test_sample_deterministic_case(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    out = tmp_path / "sample.json"
    code = main(
        ["sample", proc_file, obs_file, obs_file, "--shots", "500", "--out", str(out)]
    )
    assert code == 0
    _, payload = io.load_document(str(out), expect_kind="report")
    counts = np.array(payload["counts"])
    assert counts[1, 1] == 500
    assert payload["estimate"] == 1.0
    assert np.isclose(payload["exact"], 1.0)


def test_sample_rejects_zero_shots(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    assert main(["sample", proc_file, obs_file, obs_file, "--shots", "0"]) == 3


def test_pdm_reconstruct_exact(tmp_path):
    proc = qutrit_process()
    proc_file = write_process(tmp_path, proc)
    out = tmp_path / "pdm.json"
    assert main(["pdm-reconstruct", proc_file, "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    assert payload["provenance"] == "reconstructed"
    M = io.matrix_from_json(payload["matrix"])
    want = np.zeros((9, 9))
    want[0, 0] = 1.0
    for i, j in [(1, 3), (3, 1), (2, 6), (6, 2)]:
        want[i, j] = 0.5
    assert np.linalg.norm(M - want) < 1e-8


def test_pdm_reconstruct_sampled(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    out = tmp_path / "pdm.json"
    assert main(["pdm-reconstruct", proc_file, "--shots", "20000", "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    assert payload["provenance"] == "sampled"


def test_condition_number_only_for_expansions(tmp_path):
    proc_file = write_process(tmp_path, qutrit_process())
    out = tmp_path / "out.json"
    payloads = {}
    for argv in (["sot"], ["pdm-reconstruct"], ["pdm-reconstruct", "--shots", "10"]):
        assert main([argv[0], proc_file, *argv[1:], "--out", str(out)]) == 0
        payloads[" ".join(argv)] = io.load_document(str(out), expect_kind="sot")[1]
    assert "condition_number" not in payloads["sot"]
    assert payloads["pdm-reconstruct"]["condition_number"] == pytest.approx(15.5741, rel=1e-5)
    assert payloads["pdm-reconstruct --shots 10"]["condition_number"] == 1.0
    assert "condition_number" not in io.sot_doc(canonical_sot(qutrit_process()))["payload"]
    rec = reconstruct_unique(qutrit_process())
    assert io.sot_doc(rec)["payload"]["condition_number"] == rec.condition


def test_stderr_frobenius_only_for_sampled(tmp_path):
    proc_file = write_process(tmp_path, qutrit_process())
    out = tmp_path / "out.json"
    payloads = {}
    for argv in (["sot"], ["pdm-reconstruct"], ["pdm-reconstruct", "--shots", "1000"]):
        assert main([argv[0], proc_file, *argv[1:], "--out", str(out)]) == 0
        payloads[" ".join(argv)] = io.load_document(str(out), expect_kind="sot")[1]
    assert "stderr_frobenius" not in payloads["sot"]
    assert "stderr_frobenius" not in payloads["pdm-reconstruct"]
    stderr = payloads["pdm-reconstruct --shots 1000"]["stderr_frobenius"]
    M = io.matrix_from_json(payloads["pdm-reconstruct --shots 1000"]["matrix"])
    assert 0.0 < np.linalg.norm(M - canonical_sot(qutrit_process()).matrix) <= 3 * stderr


def test_pdm_reconstruct_sampled_one_dimensional(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(1), np.eye(1)))
    out = tmp_path / "pdm.json"
    assert main(["pdm-reconstruct", proc_file, "--shots", "10", "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    assert io.matrix_from_json(payload["matrix"]).tolist() == [[1.0]]
    assert payload["stderr_frobenius"] == 0.0


def test_pdm_reconstruct_one_dimensional_negativity_is_positive_zero(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(1), np.eye(1)))
    assert main(["pdm-reconstruct", proc_file, "--shots", "10", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert '"negativity": 0.0' in out
    assert "-0.0" not in out


def test_pdm_reconstruct_sampled_without_basis_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(5)
    proc_file = write_process(tmp_path, random_process(5, 2, rng))
    assert main(["pdm-reconstruct", proc_file, "--shots", "10"]) == 3
    err = capsys.readouterr().err
    assert "dimension 5" in err and "--shots" in err


def test_document_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    G = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rho = G @ G.conj().T
    rho = rho / np.trace(rho).real
    proc = Process(identity_channel(3), rho)
    path = write_process(tmp_path, proc)
    _, payload = io.load_document(path, expect_kind="process")
    loaded = io.process_from_payload(payload)
    assert np.linalg.norm(loaded.rho - proc.rho) < 1e-15
    assert loaded.dim_in == 3 and loaded.dim_out == 3


def test_envelope_validation():
    with pytest.raises(io.ParseError):
        io.open_envelope({"schema_version": "2", "kind": "state", "payload": {}})
    with pytest.raises(io.ParseError):
        io.open_envelope({"schema_version": "1", "kind": "mystery", "payload": {}})
    with pytest.raises(io.ParseError):
        io.matrix_from_json([[1, 2], [3]])


def test_pretty_and_json_formats(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    assert main(["sot", proc_file, "--format", "json"]) == 0
    compact = capsys.readouterr().out
    assert main(["sot", proc_file, "--format", "pretty"]) == 0
    pretty = capsys.readouterr().out
    assert json.loads(compact) == json.loads(pretty)
    assert len(pretty.splitlines()) > len(compact.splitlines())


def _parse_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return exc.value.code, err.strip().splitlines()[-1]


def test_seed_above_range_exits_2(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    code, line = _parse_error(["sample", proc_file, obs_file, obs_file, "--shots", "5",
                               "--seed", "0x1ffffffffffffffff"], capsys)
    assert code == 2
    assert "--seed" in line and "2^64" in line


def test_negative_seed_exits_2(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    code, line = _parse_error(["pdm-reconstruct", proc_file, "--shots", "5",
                               "--seed", "-1"], capsys)
    assert code == 2
    assert "--seed" in line


def test_largest_seed_accepted(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    out = tmp_path / "sample.json"
    assert main(["sample", proc_file, obs_file, obs_file, "--shots", "5",
                 "--seed", hex(2**64 - 1), "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="report")
    assert payload["seed"] == 2**64 - 1


def test_seed_limit_matches_sampler():
    from qsot import cli, sampler

    assert cli.SEED_LIMIT == sampler.SEED_LIMIT


def test_non_integer_dims_exit_2(capsys):
    code, line = _parse_error(["verify", "theorems", "--dims", "2,x"], capsys)
    assert code == 2
    assert "--dims" in line


def test_non_digit_permutation_exits_2(capsys):
    code, line = _parse_error(["sic", "--permutation", "01x"], capsys)
    assert code == 2
    assert "--permutation" in line


def test_verify_tol_zero_is_honoured(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "nogo", "--tol", "0", "--out", str(out), "--format", "json"])
    assert code in (0, 1)
    _, payload = io.load_document(str(out), expect_kind="report")
    tolerances = {c["name"]: c["tolerance"] for c in payload["suites"][0]["claims"]}
    assert tolerances == {
        "witness nonlinearity gap equals 2": 0.0,
        "light-touch residual of witness": 0.0,
        "general-probe residual of witness": 0.1,
    }
    assert "tolerance 0)" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_verify_tol_must_be_finite_and_nonnegative(tol, capsys):
    code, line = _parse_error(["verify", "nogo", f"--tol={tol}"], capsys)
    assert code == 2
    assert "--tol" in line and "finite" in line


def test_unwritable_out_exits_2(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    out = tmp_path / "missing" / "sot.json"
    assert main(["sot", proc_file, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"parse error: cannot write {out}") and len(err.splitlines()) == 1


def test_threads_option_is_gone(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    code, line = _parse_error(["sot", proc_file, "--threads", "2"], capsys)
    assert code == 2
    assert "--threads" in line


def test_shots_beyond_int64_exit_3(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    for argv in (["sample", proc_file, obs_file, obs_file], ["pdm-reconstruct", proc_file]):
        assert main([*argv, "--shots", str(2**63)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and "2^63" in err


def _process_payload(**fields):
    payload = io.process_doc(Process(identity_channel(2), np.eye(2) / 2))["payload"]
    payload.update(fields)
    return payload


@pytest.mark.parametrize("payload", [
    _process_payload(channel=[[1, 0], [0, 1]]),
    _process_payload(state=[[1, 0], [0, 1]]),
    _process_payload(channel={"kraus": [[[]]]}),
    _process_payload(state={"matrix": [[]]}),
    _process_payload(channel={"kraus": [[[[10**400, 0]]]]}),
], ids=["channel-list", "state-list", "zero-size-kraus", "zero-size-state", "huge-int"])
def test_malformed_process_payload_exits_2(tmp_path, capsys, payload):
    path = tmp_path / "process.json"
    io.dump_document(io.envelope("process", payload), str(path))
    assert main(["sot", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
