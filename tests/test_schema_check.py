"""The schema checker of ``emit`` against jsonschema, the independent oracle:
the same verdict on the documents the commands emit and on mutations of
them.  ``conftest.py`` compares the two on every document the suite checks."""

import contextlib
import copy
import functools
import io
import json
import math

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from trinoids import asymptotics, cli, emit
from trinoids import weierstrass as W

OUTPUT_ARGVS = {
    "classify.schema.json": [["classify", "1", "1.2", "1.4"], ["classify", "0.3", "0.3", "0.3"],
                             ["classify", "3.14159", "1", "1"]],
    "convert.schema.json": [["convert", "--from", "lambda", "0.75"],
                            ["convert", "--from", "phi", "4"],
                            ["convert", "--from", "mu", "-0.45"],
                            ["convert", "--from", "bps", "0.3"]],
    "constellation.schema.json": [["constellation", "1.6", "1.6", "1.6"],
                                  ["constellation", "0.3", "0.3", "0.3"]],
}
NEAR_BOUNDS = [0, 0.0, -0.0, 2, 3, 0.5, -0.5, math.pi, 3.14159265358979324,
               math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0), math.nextafter(-0.5, -1.0),
               math.nextafter(0.5, 1.0), math.nextafter(math.pi, 4.0)]
REPLACEMENTS = [None, True, False, 1, -1, 2.0, 2.5, 1e300, -1e300, 10**400, math.nan,
                math.inf, -math.inf, "", "x", "half-gap", "GenericAdmissible", "exponential",
                "power_end", [], [0.0], [0.0] * 3, [[0.0] * 3] * 3, {}, {"extra": 1}]


def emitted(argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    return json.loads(out.getvalue())


@functools.lru_cache(maxsize=None)
def documents() -> tuple:
    """(schema name, document) pairs: what the commands emit, a verify-end
    report with and without a decay profile, and data documents."""
    docs = [(name, emitted(argv)) for name, argvs in OUTPUT_ARGVS.items() for argv in argvs]
    report = asymptotics.verify_end(W.power_end_data(0.5), radii=(0.5, 0.25, 0.125),
                                    samples_per_arc=9, boundary_samples=10)
    doc = emit.to_plain(asymptotics.verification_to_json(report))
    docs += [("verify_end.schema.json", doc), ("verify_end.schema.json", {**doc, "decay": None})]
    docs += [("weierstrass_data.schema.json", W.data_to_json(data))
             for data in (W.power_end_data(0.5, g1=(0.01,)), W.catenoid_data(1.0))]
    return tuple(docs)


def checker_accepts(doc, name: str) -> bool:
    return emit._checker(name)(doc) is None


def jsonschema_accepts(doc, name: str) -> bool:
    try:
        oracles.validate_against_schema(doc, name)
    except jsonschema.ValidationError:
        return False
    return True


def paths(doc, path=()):
    """The path of every node of ``doc``, its root included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from paths(value, path + (key,))


def mutate(doc, path, how, value):
    """``doc`` with the node at ``path`` changed by ``how``."""
    doc = copy.deepcopy(doc)
    parent, node = None, doc
    for key in path:
        parent, node = node, node[key]
    if how == "drop" and isinstance(node, dict) and node:
        del node[next(iter(node))]
    elif how == "extra" and isinstance(node, dict):
        node["extra"] = value
    elif how == "longer" and isinstance(node, list):
        node.append(node[-1] if node else value)
    elif how == "shorter" and isinstance(node, list) and node:
        node.pop()
    elif parent is None:
        return value
    else:
        parent[path[-1]] = value
    return doc


values = st.one_of(st.sampled_from(REPLACEMENTS + NEAR_BOUNDS), st.floats(), st.integers(),
                   st.booleans(), st.text(max_size=3))


@settings(max_examples=600, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_same_verdict_on_mutated_documents(data):
    name, doc = data.draw(st.sampled_from(documents()))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(paths(doc))))
        how = data.draw(st.sampled_from(["drop", "extra", "longer", "shorter", "replace"]))
        doc = mutate(doc, path, how, data.draw(values))
    assert checker_accepts(doc, name) == jsonschema_accepts(doc, name), (name, doc)


@pytest.mark.parametrize("index", range(13))
def test_emitted_documents_accepted(index):
    name, doc = documents()[index]
    assert checker_accepts(doc, name) and jsonschema_accepts(doc, name)


DRAFT_07 = [
    # (field of the convert document, value, accepted): bool is not a number,
    # NaN breaks no bound, and both exclusive bounds exclude their bound
    ("lambda", True, False), ("lambda", 10**400, True), ("a", math.nan, True),
    ("a", 0.0, False), ("a", 5e-324, True), ("total_curvature", 0, False),
    ("total_curvature", -5e-324, True), ("mu_bryant", -0.5, False),
    ("reduced_angle", 3.14159265358979324, True),
    ("reduced_angle", math.nextafter(math.pi, 4.0), False),
    ("bobenko_delta", 0.5, True), ("h_half_gap", -0.0, True),
]


@pytest.mark.parametrize("key,value,accepted", DRAFT_07)
def test_draft_07_numbers(key, value, accepted):
    doc = {**documents()[3][1], key: value}
    assert checker_accepts(doc, "convert.schema.json") is accepted
    assert jsonschema_accepts(doc, "convert.schema.json") is accepted


@pytest.mark.parametrize("count,accepted", [(2, True), (2.0, True), (2.5, False),
                                            (True, False), (3, False), (-1, False)])
def test_draft_07_integers(count, accepted):
    doc = {**documents()[7][1], "count": count}
    assert checker_accepts(doc, "constellation.schema.json") is accepted
    assert jsonschema_accepts(doc, "constellation.schema.json") is accepted


@pytest.mark.parametrize("decay,accepted", [(None, True), ("report", True), (0, False),
                                            ([], False), ({}, False)])
def test_decay_one_of(decay, accepted):
    doc = documents()[9][1]
    doc = {**doc, "decay": doc["decay"] if decay == "report" else decay}
    assert checker_accepts(doc, "verify_end.schema.json") is accepted
    assert jsonschema_accepts(doc, "verify_end.schema.json") is accepted


@pytest.mark.parametrize("schema", [
    {"type": "string", "pattern": "x"},
    {"type": "object", "additionalProperties": True},
    {"type": "object", "additionalProperties": {"type": "number"}},
    {"enum": [0, 1]},
    {"const": True},
    {"type": "array", "items": {"type": "number", "multipleOf": 2}},
    {"oneOf": [{"type": "null"}, {"anyOf": []}]},
])
def test_unknown_forms_fail_to_compile(schema):
    with pytest.raises(NotImplementedError):
        emit._compile(schema, schema)


def test_every_shipped_schema_compiles():
    for name in {name for name, _ in documents()}:
        assert callable(emit._checker(name))


def test_violation_is_not_an_input_error():
    assert issubclass(emit.SchemaViolation, Exception)
    assert not issubclass(emit.SchemaViolation, ValueError)
    with pytest.raises(emit.SchemaViolation, match=r"^convert.schema.json: #/a: 0.0 breaks "):
        emit.validate_against_schema({**documents()[3][1], "a": 0.0}, "convert.schema.json")


def test_dump_json_converts_numpy_values():
    doc = {"b": np.float64(0.1), "a": (np.float32(0.1), np.int64(7), np.bool_(True)),
           "c": np.arange(6.0).reshape(2, 3) / 7.0, "d": [np.int32(-3), {"e": np.nan}]}
    expected = json.dumps(emit.to_plain(doc), sort_keys=True, indent=2) + "\n"
    assert emit.dump_json(doc) == expected
    assert emit.dump_json(emit.to_plain(doc)) == expected
    with pytest.raises(TypeError, match="not JSON serializable"):
        emit.dump_json({"a": {1, 2}})
