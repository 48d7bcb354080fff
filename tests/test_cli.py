import json
import warnings

import numpy as np
import pytest

from qsot import Process, canonical_sot, identity_channel, random_process, reconstruct_unique
from qsot.cli import main
from qsot import io
from qsot.linalg import CLAIM_TOL, COUNTEREXAMPLE_RTOL, NOGO_RESIDUAL_MIN
from qsot.verify import run_suites
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


@pytest.mark.parametrize("kraus", [1.1 * PAULI[1], 1e200 * np.eye(2)],
                         ids=["scaled", "overflowing"])
def test_non_cptp_process_exits_3_with_one_line(tmp_path, capsys, kraus):
    payload = _process_payload(channel={"kraus": [io.matrix_to_json(kraus)]})
    path = tmp_path / "process.json"
    io.dump_document(io.envelope("process", payload), str(path))
    assert main(["sot", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("validation error: Kraus set is not CPTP: ")
    assert len(err.splitlines()) == 1


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


def test_sic_v_family_default_phases_accepted(tmp_path):
    out = tmp_path / "sic.json"
    assert main(["sic", "--family", "V", "--r0", "0.75", "--out", str(out)]) == 0
    assert main(["sic", "--family", "V", "--r0", "0.75", "--theta", "3.14159"]) == 3


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


def test_verify_rejects_bad_dims(capsys):
    # One range rule, checked before any suite runs: nogo and sic read no --dims, and
    # reject an out-of-range one all the same.
    for suite in ("theorems", "nogo", "sic", "all"):
        for dims in ("9", "2,1"):
            assert main(["verify", suite, "--dims", dims, "--trials", "1"]) == 3
            assert capsys.readouterr() == ("", "validation error: dims must lie in 2..6\n")


def test_verify_rejects_bad_trials(capsys):
    # run_suites reads --trials through as_int before any suite runs, so the library's
    # error exits 3 for every suite, nogo and sic too, which read no --trials.
    for suite in ("theorems", "nogo", "sic", "all"):
        for trials in ("0", "-1", "-3"):
            assert main(["verify", suite, "--dims", "2", "--trials", trials]) == 3
            assert capsys.readouterr() == (
                "", f"validation error: trials must be an integer at least 1, got {trials}\n")


def test_sample_deterministic_case(tmp_path):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.diag([1.0, 0.0])))
    obs_file = write_observable(tmp_path, PAULI[3], "sz.json")
    out = tmp_path / "sample.json"
    for shots in (500, 1):
        code = main(
            ["sample", proc_file, obs_file, obs_file, "--shots", str(shots), "--out", str(out)]
        )
        assert code == 0
        _, payload = io.load_document(str(out), expect_kind="report")
        counts = np.array(payload["counts"])
        assert counts[1, 1] == shots
        assert payload["estimate"] == 1.0
        assert np.isclose(payload["exact"], 1.0)
        assert payload["passed"] is True and payload["exact_stderr"] <= 1e-15


def _sample(tmp_path, rho, O_A, O_B, shots, seed=0):
    """Exit code and report of ``qsot sample`` of O_A then O_B on the qubit identity channel."""
    proc_file = write_process(tmp_path, Process(identity_channel(2), rho))
    oa = write_observable(tmp_path, O_A, "oa.json")
    ob = write_observable(tmp_path, O_B, "ob.json")
    out = tmp_path / "sample.json"
    code = main(["sample", proc_file, oa, ob, "--shots", str(shots), "--seed", str(seed),
                 "--out", str(out)])
    return code, io.load_document(str(out), expect_kind="report")[1]


@pytest.mark.parametrize("shots", [1, 2**62])
def test_sample_of_a_random_outcome_is_judged_on_the_exact_stderr(tmp_path, shots):
    # Z then X on |0>: the product is +1 or -1 with probability 1/2 each, so exact = 0 and
    # sigma = 1 / sqrt(shots), while the sample stderr of one shot is 0.
    code, payload = _sample(tmp_path, np.diag([1.0, 0.0]), PAULI[3], PAULI[1], shots, seed=3)
    assert code == 0 and payload["passed"] is True
    assert sum(map(sum, payload["counts"])) == shots
    assert abs(payload["exact"]) <= 1e-15
    assert payload["exact_stderr"] == pytest.approx(shots ** -0.5, rel=1e-12)
    assert shots > 1 or payload["stderr"] == 0.0


def test_sample_of_a_rotated_deterministic_outcome_passes_on_the_floor(tmp_path):
    # Z then Z on |0>, all in a rotated basis: every shot gives the product lam mu, which
    # misses exact by roundoff, and sigma is that miss over sqrt(shots), so only the
    # roundoff floor passes it.
    rng = np.random.default_rng(3)
    Q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    Z = Q @ PAULI[3] @ Q.conj().T
    code, payload = _sample(tmp_path, Q @ np.diag([1.0, 0.0]) @ Q.conj().T, Z, Z, 10000)
    assert code == 0 and payload["passed"] is True
    assert 5 * payload["exact_stderr"] < abs(payload["estimate"] - payload["exact"]) <= 1e-14


def test_sample_with_a_wrong_exact_value_fails(tmp_path, monkeypatch):
    from qsot import cli

    monkeypatch.setattr(cli, "two_time_ev", lambda *args: 0.5)  # the true value is 0
    code, payload = _sample(tmp_path, np.diag([1.0, 0.0]), PAULI[3], PAULI[1], 1000)
    assert code == 1
    assert payload["passed"] is False and payload["exact"] == 0.5


def test_sample_judges_the_drawn_table_against_an_independent_exact_value(tmp_path,
                                                                          monkeypatch):
    # exact comes from two_time_ev, which pairs the evolved Lüders operator with O_B itself.
    # An exact value summed from the table _draw holds would share any fault in that
    # table (here, two outcome columns of O_B swapped) and pass it; this one fails it.
    from qsot import sampler

    table = sampler._joint_table

    def swapped_table(*args):
        return table(*args)[:, ::-1]

    monkeypatch.setattr(sampler, "_joint_table", swapped_table)
    code, payload = _sample(tmp_path, np.diag([1.0, 0.0]), PAULI[3], PAULI[3], 10**5)
    assert code == 1 and payload["passed"] is False
    assert payload["exact"] == 1.0 and payload["estimate"] == -1.0


def test_sample_evaluates_the_joint_table_once(tmp_path, monkeypatch):
    from qsot import sampler, twotime

    calls = []
    table = twotime._joint_table

    def counting_table(*args):
        calls.append(args)
        return table(*args)

    for module in (twotime, sampler):  # each module that binds the name
        monkeypatch.setattr(module, "_joint_table", counting_table)
    code, payload = _sample(tmp_path, np.diag([1.0, 0.0]), PAULI[3], PAULI[1], 1000)
    assert code == 0 and payload["passed"] is True
    assert len(calls) == 1


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
    sampled = payloads["pdm-reconstruct --shots 10"]
    assert sampled["condition_number"] == pytest.approx(1.0, abs=1e-12)
    # Both modes expand over the qutrit SIC frame and the hermitian basis of twotime._frames.
    assert payloads["pdm-reconstruct"]["condition_number"] == sampled["condition_number"]
    assert "condition_number" not in io.sot_doc(canonical_sot(qutrit_process()))["payload"]
    rec = reconstruct_unique(qutrit_process())
    assert io.sot_doc(rec)["payload"]["condition_number"] == rec.condition


@pytest.mark.parametrize("dA, dB", [(1, 2), (2, 2), (3, 3), (4, 2), (5, 2)])
def test_exact_and_sampled_reconstruction_share_the_frame(tmp_path, dA, dB):
    # Both modes expand over twotime._frames(dA)[0]: Pauli at 2 and 4, SIC at 3, else spanning.
    proc_file = write_process(tmp_path, random_process(dA, dB, np.random.default_rng(dA)))
    out = tmp_path / "out.json"
    conditions = []
    for extra in ([], ["--shots", "10"]):
        assert main(["pdm-reconstruct", proc_file, *extra, "--out", str(out)]) == 0
        conditions.append(io.load_document(str(out), expect_kind="sot")[1]["condition_number"])
    assert conditions[0] == conditions[1]


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


def test_pdm_reconstruct_sampled_over_the_spanning_set(tmp_path):
    # No orthogonal light-touch basis is known at d = 5: --shots expands over the spanning set.
    process = random_process(5, 2, np.random.default_rng(5))
    proc_file = write_process(tmp_path, process)
    out = tmp_path / "pdm.json"
    assert main(["pdm-reconstruct", proc_file, "--shots", "10", "--out", str(out)]) == 0
    _, payload = io.load_document(str(out), expect_kind="sot")
    assert payload["provenance"] == "sampled"
    assert payload["condition_number"] == reconstruct_unique(process).condition
    M = io.matrix_from_json(payload["matrix"])
    assert np.linalg.norm(M - canonical_sot(process).matrix) <= 3 * payload["stderr_frobenius"]


def test_sic_with_a_non_permutation_exits_3_with_one_line(capsys):
    assert main(["sic", "--permutation", "001"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("validation error: not a permutation of (0, 1, 2): (0, 0, 1)")
    assert len(err.splitlines()) == 1


def test_sample_with_overflowing_outcome_products_exits_3(tmp_path, capsys):
    proc_file = write_process(tmp_path, random_process(3, 3, np.random.default_rng(6)))
    big = write_observable(tmp_path, 1e200 * np.diag([1.0, -1.0, 0.5]), "big.json")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["sample", proc_file, big, big, "--shots", "100"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "overflow" in err


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


# The floor of each "min" claim, which --tol leaves alone.
FLOORS = {
    "non-light-touch counterexample residual": COUNTEREXAMPLE_RTOL,
    "general-probe residual of witness": NOGO_RESIDUAL_MIN,
}


def test_every_verify_claim_is_judged_by_a_table_entry():
    # Each default is the table's own object: no claim writes its tolerance again.
    claims = [c for r in run_suites(["theorems", "nogo", "sic"], dims=(2,), trials=1)
              for c in r.claims]
    assert len(claims) == 13
    for claim in claims:
        assert claim.tolerance is FLOORS.get(claim.name, CLAIM_TOL), claim
        assert claim.direction == ("min" if claim.name in FLOORS else "max")


@pytest.mark.parametrize("suite", [["theorems", "--dims", "2", "--trials", "1"], ["nogo"], ["sic"]],
                         ids=lambda suite: suite[0])
def test_verify_tol_zero_is_honoured(suite, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", *suite, "--tol", "0", "--out", str(out), "--format", "json"])
    assert code in (0, 1)
    _, payload = io.load_document(str(out), expect_kind="report")
    claims = payload["suites"][0]["claims"]
    for claim in claims:
        assert claim["tolerance"] == FLOORS.get(claim["name"], 0.0), claim
        assert claim["direction"] == ("min" if claim["name"] in FLOORS else "max")
    err = capsys.readouterr().err
    assert err.count("tolerance 0)") == sum(c["direction"] == "max" for c in claims) > 0


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


def test_tol_belongs_to_verify_alone(tmp_path, capsys):
    proc_file = write_process(tmp_path, Process(identity_channel(2), np.eye(2) / 2))
    code, line = _parse_error(["sot", proc_file, "--tol", "1"], capsys)
    assert code == 2
    assert line == "qsot: error: unrecognized arguments: --tol 1"


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


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000 + b"]" * 100_000],
                         ids=["not-utf8", "deeply-nested"])
def test_unparseable_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "process.json"
    path.write_bytes(content)
    assert main(["sot", str(path)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"parse error: cannot read {path}") and len(err.splitlines()) == 1
