"""Fuzzing of the JSON document parsers through the command line.

Each document starts as a valid process or observable of dimension 1..6 and
has up to two nodes of its JSON tree replaced or deleted: by ragged,
non-numeric, NaN or empty matrices, by values of the wrong type, or by
matrices of another dimension. Every command must end in exit code 0, 2
(parse error) or 3 (validation error) and no exception may escape; exit code
1 stays reserved for failed verification.
"""

import json
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qsot import Observable, Process, io, random_channel, random_density, random_hermitian
from qsot.cli import main

FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
DELETE = object()

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(10**300, 10**400),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)
entries = st.one_of(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(list),
                    st.lists(junk, max_size=3), junk)
square = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.lists(st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(list), min_size=d, max_size=d),
    min_size=d, max_size=d))
replacements = st.one_of(
    junk,
    square,  # numeric, generally of another dimension and not hermitian
    st.lists(st.lists(entries, max_size=3), max_size=3),  # ragged, non-numeric, empty
    st.lists(entries, max_size=3),
    st.builds(lambda: [[[float("nan"), 0.0]]]),  # a fresh list: later mutations may edit it
    st.just(DELETE),
)


@st.composite
def mutated(draw, doc):
    """The document with up to two nodes of its JSON tree replaced or deleted."""
    for _ in range(draw(st.integers(0, 2))):
        parent, node = None, doc
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                       else range(len(node))))
            parent, node = (node, key), node[key]
        value = draw(replacements)
        if parent is None:
            doc = None if value is DELETE else value
        elif value is DELETE and isinstance(parent[0], dict):
            del parent[0][parent[1]]
        else:
            parent[0][parent[1]] = None if value is DELETE else value
    return doc


@st.composite
def process_docs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dA, dB = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    process = Process(random_channel(dA, dB, rng), random_density(dA, rng))
    return draw(mutated(io.process_doc(process)))


@st.composite
def observable_docs(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    obs = Observable(random_hermitian(draw(st.integers(1, 6)), rng))
    return draw(mutated(io.observable_doc(obs)))


shots = st.sampled_from(["5", "0", "-1", str(2**63)])


def run(command, docs, *options) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for k, doc in enumerate(docs):
            paths.append(os.path.join(tmp, f"doc{k}.json"))
            with open(paths[-1], "w") as fh:
                json.dump(doc, fh)
        code = main([command, *paths, *options, "--out", os.path.join(tmp, "out.json")])
    assert code in (0, 2, 3)
    return code


@FUZZ
@given(doc=process_docs())
def test_fuzz_sot(doc):
    run("sot", [doc])


@FUZZ
@given(doc=process_docs(), shots=st.one_of(st.none(), shots))
# An intact document at d = 5, where --shots expands over the light-touch spanning set.
@example(doc=io.process_doc(Process(random_channel(5, 6, np.random.default_rng(0)),
                                    random_density(5, np.random.default_rng(1)))), shots="5")
def test_fuzz_pdm_reconstruct(doc, shots):
    run("pdm-reconstruct", [doc], *([] if shots is None else ["--shots", shots]))


@FUZZ
@given(doc=process_docs(), obs_a=observable_docs(), obs_b=observable_docs(), shots=shots)
def test_fuzz_sample(doc, obs_a, obs_b, shots):
    run("sample", [doc, obs_a, obs_b], "--shots", shots)
