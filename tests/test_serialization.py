"""Wire formats: canonical bytes, round trips, and rejection of bad documents."""

import hashlib
import importlib.util
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from epistemic import (
    CounterfactualStructure,
    DecisionFunction,
    ParseError,
    InformationStructure,
    build_counterfactual,
    canonical_json,
    d1_document,
    equivalence_pairs,
    gamma,
    parse_decisions,
    parse_structure,
    serialize_decisions,
    serialize_structure,
    structure_hash,
    structure_to_document,
)
from epistemic.cli import main
from generators import random_belief_structure, random_partitional, random_structure

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).resolve().parent.parent


def test_golden_bytes_d1(d1):
    assert serialize_structure(d1) == (GOLDEN / "d1.json").read_text("utf-8")


def test_golden_bytes_counterfactual(d1_cf):
    expected = (GOLDEN / "d1_counterfactual.json").read_text("utf-8")
    assert serialize_structure(d1_cf) == expected


def test_bundled_fixture_matches_golden(d1):
    assert d1_document() == serialize_structure(d1)


def test_parse_golden_files(d1, d1_cf):
    assert parse_structure((GOLDEN / "d1.json").read_text("utf-8")) == d1
    parsed = parse_structure((GOLDEN / "d1_counterfactual.json").read_text("utf-8"))
    assert isinstance(parsed, CounterfactualStructure)
    assert parsed == d1_cf


def test_roundtrip_random_corpus():
    rng = random.Random(51)
    for k in range(120):
        S = random_partitional(rng, max_cells=3) if k % 3 == 0 else random_structure(rng)
        value = build_counterfactual(S) if k % 6 == 0 else S
        text = serialize_structure(value)
        again = parse_structure(text)
        assert again == value
        assert serialize_structure(again) == text  # idempotent bytes


def _escaped_names() -> tuple[InformationStructure, InformationStructure]:
    """A partitional structure whose names need JSON escaping or are not ASCII, and one with an
    agent that has no relation pairs."""
    states = ['q"1', "b\\s", "é", "中", "w0"]
    partitional = InformationStructure(states, ['a"', "ü", "中"], {
        'a"': equivalence_pairs([['q"1', "b\\s"], ["é", "中", "w0"]]),
        "ü": equivalence_pairs([[s] for s in states]),
        "中": equivalence_pairs([["w0", 'q"1', "é"], ["b\\s", "中"]]),
    })
    silent = InformationStructure(states, ["a", "z\\"], {"a": [("é", "中"), ("w0", 'q"1')], "z\\": []})
    return partitional, silent


def test_direct_writer_matches_the_document_reference():
    rng = random.Random(12)
    values = list(_escaped_names())
    values.append(build_counterfactual(values[0]))
    for k in range(90):
        make = (random_structure, random_partitional, random_belief_structure)[k % 3]
        S = make(rng)
        values.append(S)
        if k % 3 == 1:
            values.append(build_counterfactual(S))
    for value in values:
        reference = canonical_json(structure_to_document(value))
        assert serialize_structure(value) == reference
        assert structure_hash(value) == hashlib.sha256(reference.encode("utf-8")).hexdigest()
        assert parse_structure(reference) == value
    assert '"z\\\\": []' in serialize_structure(values[1])


@pytest.mark.parametrize("pair", ["w0", ["w0"], ["w0", "w0", "w0"], ["w0", 0]])
def test_malformed_relation_entry_is_refused(tmp_path, capsys, pair):
    doc = {"version": 1, "states": ["w0"], "agents": ["a"], "relations": {"a": [["w0", "w0"], pair]}}
    text = json.dumps(doc)
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert str(err.value) == f"relation entry {pair!r} for agent 'a' must be a [from, to] pair"
    path = tmp_path / "bad.json"
    path.write_text(text, "utf-8")
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {err.value}\n" and "Traceback" not in captured.err


def test_canonicalization_is_order_free(d1):
    doc = structure_to_document(d1)
    shuffled = {
        "relations": {
            agent: list(reversed(pairs)) for agent, pairs in doc["relations"].items()
        },
        "version": 1,
        "agents": list(reversed(doc["agents"])),
        "states": list(reversed(doc["states"])),
    }
    assert parse_structure(json.dumps(shuffled)) == d1
    assert serialize_structure(parse_structure(json.dumps(shuffled))) == serialize_structure(d1)


def test_syntax_error_is_position_annotated():
    with pytest.raises(ParseError) as err:
        parse_structure('{"version": 1,\n  "states": [}')
    assert "line 2" in str(err.value)


def test_undeclared_state_reference_is_named():
    doc = {"version": 1, "states": ["w0"], "agents": ["a"], "relations": {"a": [["w0", "w9"]]}}
    with pytest.raises(ParseError) as err:
        parse_structure(json.dumps(doc))
    assert "w9" in str(err.value)


def test_duplicate_names_rejected():
    doc = {"version": 1, "states": ["w0", "w0"], "agents": ["a"], "relations": {"a": []}}
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def test_plus_in_plain_state_name_rejected():
    doc = {"version": 1, "states": ["w+0"], "agents": ["a"], "relations": {"a": []}}
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def test_unknown_keys_rejected(d1):
    doc = structure_to_document(d1)
    doc["comment"] = "hello"
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def test_bad_version_rejected(d1):
    decisions = json.loads(serialize_decisions(
        [DecisionFunction(agent="a", kind="field", table={frozenset({"w0"}): "0"})]
    ))
    for version in (2, True):  # bool is an int subclass, yet no version number
        doc = structure_to_document(d1)
        doc["version"] = version
        with pytest.raises(ParseError):
            parse_structure(json.dumps(doc))
        decisions["version"] = version
        with pytest.raises(ParseError):
            parse_decisions(json.dumps(decisions))


@pytest.mark.parametrize("key, value", [("event", 7), ("agent", ["a"]), ("state", ["x"])])
def test_label_field_types_rejected(tmp_path, capsys, key, value):
    doc = json.loads((GOLDEN / "d1_counterfactual.json").read_text("utf-8"))
    doc["provenance"]["labels"][0][key] = value
    text = json.dumps(doc)
    with pytest.raises(ParseError):
        parse_structure(text)
    path = tmp_path / "bad.json"
    path.write_text(text, "utf-8")
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_provenance_hash_must_match(d1_cf):
    doc = structure_to_document(d1_cf)
    doc["provenance"]["origin_hash"] = "0" * 64
    with pytest.raises(ParseError) as err:
        parse_structure(json.dumps(doc))
    assert "origin_hash" in str(err.value)


def test_provenance_incomplete_blocks_rejected(d1_cf):
    doc = structure_to_document(d1_cf)
    entry = doc["provenance"]["labels"][0]
    doc["provenance"]["labels"] = doc["provenance"]["labels"][1:]
    # the orphaned state now looks actual but carries '+' in its name
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))
    # relabelling a duplicate into the wrong block is also caught
    doc = structure_to_document(d1_cf)
    doc["provenance"]["labels"][0]["base"] = entry["base"]
    doc["provenance"]["labels"][0]["event"] = "w0"
    with pytest.raises(ParseError):
        parse_structure(json.dumps(doc))


def _mutated_golden_counterfactual(kind):
    doc = json.loads((GOLDEN / "d1_counterfactual.json").read_text("utf-8"))
    labels = doc["provenance"]["labels"]
    if kind == "non-canonical event":
        labels[0]["event"] = "w1+w0"
    elif kind == "empty member":
        labels[0]["event"] = "w0++w1"
    elif kind == "one bad event on two labels":
        labels[3]["event"] = labels[5]["event"] = "w1+w0"
    elif kind == "duplicate label":
        labels.append(dict(labels[0]))
    elif kind == "undeclared state":
        labels[0]["state"] = "cf:a:w0:nowhere"
    elif kind == "missing block":  # the states, their relations and their labels all go
        gone = {label["state"] for label in labels if label["agent"] == "a" and label["event"] == "w0+w1"}
        doc["provenance"]["labels"] = [label for label in labels if label["state"] not in gone]
        doc["states"] = [s for s in doc["states"] if s not in gone]
        doc["relations"] = {a: [p for p in pairs if p[0] not in gone] for a, pairs in doc["relations"].items()}
    elif kind == "non-object entry":
        labels[0] = labels[0]["state"]
    elif kind == "wrong keys":
        del labels[0]["base"]
    elif kind == "non-string value":
        labels[0]["base"] = 0
    elif kind == "duplicate triple":  # a new state, labelled with the first label's triple
        labels.append({**labels[0], "state": "cf:zz"})
        doc["states"].append("cf:zz")
    return json.dumps(doc)


@pytest.mark.parametrize("kind, message", [
    ("non-canonical event", "label for 'cf:a:w0:w0+w1': event string 'w1+w0' is not canonical (sorted, unique)"),
    ("empty member", "label for 'cf:a:w0:w0+w1': empty state name in event string 'w0++w1'"),
    ("one bad event on two labels",
     "label for 'cf:a:w1:w0+w1': event string 'w1+w0' is not canonical (sorted, unique)"),
    ("duplicate label", "duplicate label for state 'cf:a:w0:w0+w1'"),
    ("undeclared state", "label references undeclared state 'cf:a:w0:nowhere'"),
    ("missing block", "labels do not form complete duplicate blocks (missing [('a', 'w0', 'w0+w1'), "
                      "('a', 'w1', 'w0+w1'), ('a', 'w2', 'w0+w1')], unexpected [])"),
    ("non-object entry",
     "label entry 'cf:a:w0:w0+w1' must have exactly the keys ['agent', 'base', 'event', 'state']"),
    ("wrong keys", "label entry {'agent': 'a', 'event': 'w0+w1', 'state': 'cf:a:w0:w0+w1'} "
                   "must have exactly the keys ['agent', 'base', 'event', 'state']"),
    ("non-string value", "label entry {'agent': 'a', 'base': 0, 'event': 'w0+w1', 'state': 'cf:a:w0:w0+w1'} "
                         "must map every key to a string"),
    ("duplicate triple", "duplicate label triple for 'cf:zz' and 'cf:a:w0:w0+w1'"),
])
def test_label_errors_keep_their_messages(tmp_path, capsys, kind, message):
    text = _mutated_golden_counterfactual(kind)
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert str(err.value) == message
    path = tmp_path / "bad.json"
    path.write_text(text, "utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("kind, message", [
    ("core not partitional", "the actual-state core of a counterfactual document must be partitional"),
    ("every state labelled", "provenance labels leave no actual states"),
])
def test_parser_refuses_an_empty_or_non_partitional_core(kind, message):
    doc = json.loads((GOLDEN / "d1_counterfactual.json").read_text("utf-8"))
    if kind == "core not partitional":  # w0 no longer considers itself possible for a
        doc["relations"]["a"].remove(["w0", "w0"])
    else:
        doc["provenance"]["labels"] += [{"state": w, "agent": "a", "base": w, "event": w}
                                        for w in ("w0", "w1", "w2", "w3")]
    with pytest.raises(ParseError) as err:
        parse_structure(json.dumps(doc))
    assert str(err.value) == message


_INTO_DUPLICATES = """
import sys
from epistemic import ParseError, parse_structure
try:
    parse_structure(sys.stdin.read())
except ParseError as exc:
    print(exc)
"""


def test_relation_into_the_duplicates_is_named_independently_of_hash_seed(tmp_path, capsys, d1_cf):
    doc = structure_to_document(d1_cf)
    duplicates = [label["state"] for label in doc["provenance"]["labels"]][:3]
    doc["relations"]["a"] += [[w, d] for d in duplicates for w in ("w0", "w1")]
    text = json.dumps(doc)
    messages = set()
    for seed in ("1", "2", "3"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(ROOT / "src")}
        result = subprocess.run(
            [sys.executable, "-c", _INTO_DUPLICATES], input=text, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        messages.add(result.stdout)
    # the first offending pair in name order: agent, then source, then target
    assert messages == {"relation of agent 'a' points into the duplicates: ('w0', 'cf:a:w0:w0+w1')\n"}
    path = tmp_path / "into_duplicates.json"
    path.write_text(text, "utf-8")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {messages.pop()}"


def test_counterfactual_bytes_match_the_pinned_benchmark_digests(tmp_path, capsys, monkeypatch):
    """`counterfactual -o` on the benchmark's chain inputs gives exactly the
    bytes whose SHA-256 the benchmark pins for every seed."""
    spec = importlib.util.spec_from_file_location("bench_inputs", ROOT / "bench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)  # its dataclasses look the module up
    spec.loader.exec_module(inputs)
    pinned = json.loads((ROOT / "bench" / "expected.json").read_text("utf-8"))
    digests = pinned["workloads"]["cf-audit"]["every_seed"]["digests"]
    assert inputs.CHAIN_SIZES == (4, 6, 8, 10, 12)
    for n in inputs.CHAIN_SIZES:
        item = inputs.chain(n)
        path, out = tmp_path / f"{item.name}.json", tmp_path / f"{item.name}.cf.json"
        path.write_text(item.text, "utf-8")
        assert main(["counterfactual", str(path), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[f"{item.name}:counterfactual"]
    capsys.readouterr()


def test_structure_hash_tracks_value(d1):
    assert structure_hash(d1) == structure_hash(parse_structure(serialize_structure(d1)))


# ---------------------------------------------------------------------------
# decision documents
# ---------------------------------------------------------------------------


def test_decision_roundtrip(d1):
    family = tuple(
        DecisionFunction(
            agent=agent,
            kind="gamma",
            table={e: ("0" if len(e) < 4 else "1") for e in gamma(d1, agent)},
        )
        for agent in d1.agents
    )
    text = serialize_decisions(family)
    dfs, actions = parse_decisions(text)
    assert dfs == family
    assert actions == ("0", "1")
    assert serialize_decisions(dfs) == text


def test_decision_document_errors():
    base = {
        "version": 1,
        "actions": ["x"],
        "agents": {"a": {"kind": "gamma", "table": {"w0": "x"}}},
    }
    bad_action = json.loads(json.dumps(base))
    bad_action["agents"]["a"]["table"]["w0"] = "y"
    with pytest.raises(ParseError):
        parse_decisions(json.dumps(bad_action))
    bad_kind = json.loads(json.dumps(base))
    bad_kind["agents"]["a"]["kind"] = "other"
    with pytest.raises(ParseError):
        parse_decisions(json.dumps(bad_kind))
    bad_event = json.loads(json.dumps(base))
    bad_event["agents"]["a"]["table"] = {"w1+w0": "x"}
    with pytest.raises(ParseError):
        parse_decisions(json.dumps(bad_event))
    with pytest.raises(ParseError):
        parse_decisions('{"version": 1, "actions": [], "agents": {}}')
    with pytest.raises(ParseError):
        parse_decisions("[1, 2")
