"""JSON document envelopes for matrices, channels, processes, and reports.

All documents share the envelope {"schema_version": "1", "kind": ..., "payload":
...}. Complex numbers are two-element arrays [re, im]; matrices are row-major
nested lists under the package-wide A-major tensor convention.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import Process, QuantumChannel
from .errors import InvalidParameter, QsotError
from .linalg import as_int
from .observables import Observable
from .sot import StateOverTime, causality_witness

SCHEMA_VERSION = "1"
KINDS = ("state", "channel", "process", "observable", "sot", "report")


class ParseError(QsotError):
    """Document is malformed (bad JSON, wrong envelope, wrong shapes)."""


def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(M, dtype=complex)]


def matrix_from_json(data) -> np.ndarray:
    try:  # complex() reads a bool as 0 or 1, so a JSON true or false is rejected first
        if any(isinstance(x, bool) for row in data for pair in row for x in pair):
            raise ParseError("malformed matrix: an entry is a boolean, not a number")
        M = np.array([[complex(re, im) for re, im in row] for row in data])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix: {exc}") from exc
    if M.ndim != 2 or not M.size:
        raise ParseError("matrix must be a nonempty 2-d nested list")
    return M


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be a JSON object")
    return value


def _declared(payload: dict, key: str):
    """The payload's declared ``key`` through ``linalg.as_int``, or None if not declared.

    A declared size that is not an integer (a bool, a float, a string) is malformed.
    """
    if key not in payload:
        return None
    try:
        return as_int(payload[key], f"declared {key}")
    except InvalidParameter as exc:
        raise ParseError(str(exc)) from exc


def envelope(kind: str, payload: dict) -> dict:
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    return {"schema_version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def open_envelope(doc: dict, expect_kind: str | None = None) -> tuple:
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise ParseError(f"unknown document kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ParseError(f"expected kind {expect_kind!r}, got {kind!r}")
    payload = doc.get("payload")
    if not isinstance(payload, dict):
        raise ParseError("payload must be a JSON object")
    return kind, payload


def _square(payload: dict, kind: str) -> np.ndarray:
    """The matrix of a ``kind`` document's payload, checked against its declared dim."""
    M = matrix_from_json(_object(payload, f"{kind} payload").get("matrix"))
    dim = _declared(payload, "dim")
    if dim is not None and M.shape != (dim, dim):
        raise ParseError(f"{kind} matrix shape disagrees with declared dim")
    return M


def state_from_payload(payload: dict) -> np.ndarray:
    return _square(payload, "state")


def observable_doc(obs: Observable) -> dict:
    return envelope("observable", {"dim": obs.dim, "matrix": matrix_to_json(obs.matrix)})


def observable_from_payload(payload: dict) -> Observable:
    return Observable(_square(payload, "observable"))


def channel_doc(channel: QuantumChannel) -> dict:
    return envelope(
        "channel",
        {
            "dim_in": channel.dim_in,
            "dim_out": channel.dim_out,
            "kraus": [matrix_to_json(K) for K in channel.kraus],
        },
    )


def channel_from_payload(payload: dict) -> QuantumChannel:
    kraus_data = _object(payload, "channel payload").get("kraus")
    if not isinstance(kraus_data, list) or not kraus_data:
        raise ParseError("channel payload needs a nonempty 'kraus' list")
    kraus = [matrix_from_json(K) for K in kraus_data]
    channel = QuantumChannel(kraus)
    for key in ("dim_in", "dim_out"):
        dim = _declared(payload, key)
        if dim is not None and dim != getattr(channel, key):
            raise ParseError(f"declared {key} disagrees with Kraus shapes")
    return channel


def process_doc(process: Process) -> dict:
    _, chan_payload = open_envelope(channel_doc(process.channel))
    return envelope(
        "process",
        {"channel": chan_payload, "state": {"dim": process.dim_in,
                                            "matrix": matrix_to_json(process.rho)}},
    )


def process_from_payload(payload: dict) -> Process:
    if "channel" not in payload or "state" not in payload:
        raise ParseError("process payload needs 'channel' and 'state'")
    channel = channel_from_payload(payload["channel"])
    rho = state_from_payload(payload["state"])
    return Process(channel, rho)


def sot_doc(sot: StateOverTime) -> dict:
    min_eig, negativity = causality_witness(sot)
    payload = {
        "dimA": sot.dimA,
        "dimB": sot.dimB,
        "provenance": sot.provenance,
        "matrix": matrix_to_json(sot.matrix),
        "eigenvalues": [float(x) for x in sot.eigenvalues()],
        "min_eigenvalue": min_eig,
        "negativity": negativity,
    }
    if sot.condition is not None:
        payload["condition_number"] = sot.condition
    if sot.stderr is not None:
        payload["stderr_frobenius"] = sot.stderr
    return envelope("sot", payload)


def report_doc(reports) -> dict:
    payload = {
        "suites": [
            {
                "suite": r.suite,
                "seed": r.seed,
                "passed": r.passed,
                "claims": [
                    {
                        "name": c.name,
                        "residual": c.residual,
                        "tolerance": c.tolerance,
                        "direction": c.direction,
                        "passed": c.passed,
                    }
                    for c in r.claims
                ],
            }
            for r in reports
        ],
        "passed": all(r.passed for r in reports),
    }
    return envelope("report", payload)


def load_document(path: str, expect_kind: str | None = None) -> tuple:
    """Read a UTF-8 JSON document and open its envelope.

    Unreadable files, bytes that are not UTF-8, malformed JSON and nesting too
    deep for the parser all raise ParseError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return open_envelope(doc, expect_kind)


def dump_document(doc: dict, path: str | None, pretty: bool = False) -> None:
    text = json.dumps(doc, indent=2 if pretty else None)
    if path is None:
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc
