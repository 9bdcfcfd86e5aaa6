"""JSON wire formats for structures and decision tables.

Canonical form: UTF-8 JSON with sorted keys, two-space indent, and a trailing
newline; states, agents, relation pairs and provenance labels are sorted
lexicographically. Serialization is byte-deterministic, so equal values
produce identical files and golden-file comparisons are meaningful.

``canonical_json`` is the one definition of that layout (``json.dumps`` with
``indent=2``), used for decision documents and CLI reports.
``serialize_structure`` writes the same bytes for a structure directly from
its successor masks, escaping each name once with the encoder's own
``encode_basestring``: ``indent`` turns off the C encoder, and the pure-Python
one cost more than the model on large counterfactual documents.
``canonical_json(structure_to_document(value))`` is its reference, and the
tests hold the two byte-identical.

A structure document carries an optional provenance section turning it into a
counterfactual structure: a content hash of its source document plus one
label per duplicate state. The labels are re-validated on parse, including
the hash of the reconstructed source, so hand-edited documents cannot drift
silently. The writer reads the counterfactual structure's provenance table,
(agent, base, event string) -> state; the parser hands the pairing its labels
as (triple, state) pairs, and the pairing fills its own table. Neither makes
label objects.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring
from operator import itemgetter
from typing import Iterable, Iterator

from .counterfactual import CounterfactualStructure, label_block_mismatch
from .decisions import DecisionFunction
from .errors import EpistemicError, InputError, ParseError
from .partitions import gamma
from .structures import (
    Event,
    InformationStructure,
    _bits,
    canonical_event_string,
    parse_event_string,
)

FORMAT_VERSION = 1

_STRUCTURE_KEYS = {"version", "states", "agents", "relations", "provenance"}
_PROVENANCE_KEYS = {"origin_hash", "labels"}
_LABEL_KEYS = {"state", "agent", "base", "event"}
_DECISION_KEYS = {"version", "actions", "agents"}


def canonical_json(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def structure_to_document(value) -> dict:
    if isinstance(value, CounterfactualStructure):
        doc = structure_to_document(value.structure)
        doc["provenance"] = {
            "origin_hash": structure_hash(value.origin),
            "labels": [
                {
                    "state": name,
                    "agent": label.agent,
                    "base": label.base,
                    "event": canonical_event_string(label.event),
                }
                for name, label in sorted(value.labels.items())
            ],
        }
        return doc
    if not isinstance(value, InformationStructure):
        raise InputError(f"cannot serialize {type(value).__name__}")
    return {
        "version": FORMAT_VERSION,
        "states": list(value.states),
        "agents": list(value.agents),
        "relations": {
            agent: [[u, v] for (u, v) in value._pairs_in(agent, value._full)]
            for agent in value.agents
        },
    }


def _pieces(items: Iterable[str], indent: str) -> list[str]:
    """Encoded array members with the brackets and separators that ``canonical_json`` writes around
    them in an array opening at ``indent``. Left unjoined, so that the one join in
    ``serialize_structure`` is the only large string the writer allocates."""
    inner = ",\n" + indent + "  "
    out: list[str] = []
    for item in items:
        out += (inner, item)
    if not out:
        return ["[]"]
    out[0] = "[" + inner[1:]
    out.append("\n" + indent + "]")
    return out


# one provenance label, as canonical_json indents it inside the labels array
_LABEL = '{\n        "agent": %s,\n        "base": %s,\n        "event": %s,\n        "state": %s\n      }'


def _pair_blocks(S: InformationStructure, agent: str, names: list[str]) -> Iterator[str]:
    """Per source state with successors, its ``[from, to]`` pairs in index (= name) order, each
    distinct row's targets listed once."""
    targets: dict[int, list[str]] = {}
    prev = row_names = None
    for k, row in enumerate(S._succ[agent]):
        if row != prev:  # carrier rows come in runs; comparing is cheaper than hashing
            prev, row_names = row, targets.get(row)
            if row_names is None:
                row_names = targets[row] = [names[v] for v in _bits(row)]
        if row_names:
            head = "[\n        " + names[k] + ",\n        "
            yield head + ("\n      ],\n      " + head).join(row_names) + "\n      ]"


def serialize_structure(value) -> str:
    """The canonical text of a structure or counterfactual structure, written directly; it equals
    ``canonical_json(structure_to_document(value))`` byte for byte.

    Provenance is written from the counterfactual structure's table, which is authoritative;
    its ``labels`` map is derived from the table on first read, and this writer does not read
    it. The pairing is read-only, so the table always describes the carrier being written."""
    if isinstance(value, CounterfactualStructure):
        # by name, from the provenance table: each triple's event string was written once, at build or parse
        S, labels = value.structure, sorted(value._by_triple.items(), key=itemgetter(1))
    elif isinstance(value, InformationStructure):
        S, labels = value, None
    else:
        raise InputError(f"cannot serialize {type(value).__name__}")
    names = [encode_basestring(s) for s in S.states]
    agents = [encode_basestring(a) for a in S.agents]
    parts = ['{\n  "agents": ', *_pieces(agents, "  ")]
    if labels is not None:
        parts.append(',\n  "provenance": {\n    "labels": ')
        encoded = dict(zip(S.states, names))  # every name and base is a state: each string encoded once
        encoded.update(zip(S.agents, agents))
        encoded.update((text, encode_basestring(text)) for text in value._events)
        parts += _pieces((_LABEL % (encoded[agent], encoded[base], encoded[text], encoded[name])
                          for (agent, base, text), name in labels), "    ")
        parts += [',\n    "origin_hash": ', encode_basestring(structure_hash(value.origin)), "\n  }"]
    parts.append(',\n  "relations": {')
    for k, (enc, agent) in enumerate(zip(agents, S.agents)):
        parts += (",\n    " if k else "\n    ", enc, ": ")
        parts += _pieces(_pair_blocks(S, agent, names), "    ")
    parts += ['\n  },\n  "states": ', *_pieces(names, "  "), f',\n  "version": {FORMAT_VERSION}\n}}\n']
    return "".join(parts)


def structure_hash(structure: InformationStructure) -> str:
    return hashlib.sha256(serialize_structure(structure).encode("utf-8")).hexdigest()


def _expect(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    if not isinstance(doc[key], types):
        raise ParseError(f"{where}: key {key!r} has the wrong type")
    return doc[key]


def _expect_version(doc: dict, where: str) -> None:
    version = _expect(doc, "version", int, where)
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {version}")


def _str_list(values, where: str) -> list[str]:
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ParseError(f"{where}: expected a list of strings")
    return values


def document_to_structure(doc) -> InformationStructure | CounterfactualStructure:
    if not isinstance(doc, dict):
        raise ParseError("structure document must be a JSON object")
    unknown = set(doc) - _STRUCTURE_KEYS
    if unknown:
        raise ParseError(f"unknown keys in structure document: {sorted(unknown)}")
    _expect_version(doc, "structure document")
    states = _str_list(_expect(doc, "states", list, "structure document"), "states")
    agents = _str_list(_expect(doc, "agents", list, "structure document"), "agents")
    relations = _expect(doc, "relations", dict, "structure document")
    for agent, pairs in relations.items():
        if not isinstance(pairs, list):
            raise ParseError(f"relations for agent {agent!r} must be a list of pairs")
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2
                    and isinstance(pair[0], str) and isinstance(pair[1], str)):
                raise ParseError(f"relation entry {pair!r} for agent {agent!r} must be a [from, to] pair")

    provenance = doc.get("provenance")
    try:
        structure = InformationStructure(
            states, agents, relations, allow_plus_in_names=provenance is not None
        )
    except InputError as exc:
        raise ParseError(str(exc)) from None
    if provenance is None:
        return structure
    return _attach_provenance(structure, provenance)


def _attach_provenance(structure: InformationStructure, provenance) -> CounterfactualStructure:
    if not isinstance(provenance, dict):
        raise ParseError("provenance must be a JSON object")
    unknown = set(provenance) - _PROVENANCE_KEYS
    if unknown:
        raise ParseError(f"unknown keys in provenance: {sorted(unknown)}")
    origin_hash = _expect(provenance, "origin_hash", str, "provenance")
    labels_doc = _expect(provenance, "labels", list, "provenance")
    # one walk: check each entry and list it as ((agent, base, event string), state)
    labels: list[tuple[tuple[str, str, str], str]] = []
    events: dict[str, Event] = {}  # one event per distinct string
    names: set[str] = set()
    for entry in labels_doc:
        if not isinstance(entry, dict) or entry.keys() != _LABEL_KEYS:
            raise ParseError(f"label entry {entry!r} must have exactly the keys {sorted(_LABEL_KEYS)}")
        name, agent, base, text = entry["state"], entry["agent"], entry["base"], entry["event"]
        if not (isinstance(name, str) and isinstance(agent, str) and isinstance(base, str)
                and isinstance(text, str)):
            raise ParseError(f"label entry {entry!r} must map every key to a string")
        if name in names:
            raise ParseError(f"duplicate label for state {name!r}")
        names.add(name)
        if text not in events:
            try:
                events[text] = parse_event_string(text)
            except InputError as exc:
                raise ParseError(f"label for {name!r}: {exc}") from None
        labels.append(((agent, base, text), name))

    state_set = set(structure.states)
    if not names <= state_set:
        name = next(name for _, name in labels if name not in state_set)
        raise ParseError(f"label references undeclared state {name!r}")
    actual = sorted(state_set.difference(names))
    for name in actual:
        if "+" in name:
            raise ParseError(f"actual state {name!r} contains '+'; only duplicate names may")
    if not actual:
        raise ParseError("provenance labels leave no actual states")

    origin = structure.restricted_to(actual)
    if not origin.is_partitional():
        raise ParseError("the actual-state core of a counterfactual document must be partitional")
    if structure_hash(origin) != origin_hash:
        raise ParseError("origin_hash does not match the document's actual-state core")

    try:
        domains = {agent: gamma(origin, agent) for agent in origin.agents}
    except EpistemicError as exc:
        raise ParseError(str(exc)) from None
    # parse_event_string accepted each event string only in canonical form
    mismatch = label_block_mismatch(domains, origin.states, (key for key, _ in labels))
    if mismatch is not None:
        raise ParseError(f"labels do not form complete duplicate blocks ({mismatch})")
    try:
        return CounterfactualStructure._from_labels(structure, frozenset(actual), origin, labels, events)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def _loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except TypeError:
        raise InputError(f"a document must be JSON text, got {text!r}") from None


def parse_structure(text: str) -> InformationStructure | CounterfactualStructure:
    doc = _loads(text)
    return document_to_structure(doc)


# ---------------------------------------------------------------------------
# Decision documents
# ---------------------------------------------------------------------------


def decisions_to_document(dfs: Iterable[DecisionFunction], actions=None) -> dict:
    try:
        dfs = sorted(dfs, key=lambda d: d.agent)  # read once: an iterator is used up by its first pass
    except (AttributeError, TypeError):
        raise InputError("decision family must be an iterable of decision functions") from None
    names = set(actions or ())
    for df in dfs:
        names.update(df.table.values())
    agents_doc = {}
    for df in dfs:
        if df.agent in agents_doc:
            raise InputError(f"duplicate agent {df.agent!r} in decision family")
        agents_doc[df.agent] = {
            "kind": df.kind,
            "table": {canonical_event_string(e): a for e, a in df.table.items()},
        }
    return {"version": FORMAT_VERSION, "actions": sorted(names), "agents": agents_doc}


def serialize_decisions(dfs: Iterable[DecisionFunction], actions=None) -> str:
    return canonical_json(decisions_to_document(dfs, actions))


def parse_decisions(text: str) -> tuple[tuple[DecisionFunction, ...], tuple[str, ...]]:
    doc = _loads(text)
    if not isinstance(doc, dict):
        raise ParseError("decision document must be a JSON object")
    unknown = set(doc) - _DECISION_KEYS
    if unknown:
        raise ParseError(f"unknown keys in decision document: {sorted(unknown)}")
    _expect_version(doc, "decision document")
    actions = _str_list(_expect(doc, "actions", list, "decision document"), "actions")
    action_set = set(actions)
    if len(action_set) != len(actions):
        raise ParseError("duplicate action names")
    agents_doc = _expect(doc, "agents", dict, "decision document")
    if not agents_doc:
        raise ParseError("decision document declares no agents")
    dfs = []
    for agent in sorted(agents_doc):
        entry = agents_doc[agent]
        if not isinstance(entry, dict) or set(entry) != {"kind", "table"}:
            raise ParseError(f"agent {agent!r} entry must have exactly the keys ['kind', 'table']")
        table_doc = entry["table"]
        if not isinstance(table_doc, dict):
            raise ParseError(f"decision table for agent {agent!r} must be an object")
        table = {}
        for event_string, action in table_doc.items():
            if not isinstance(action, str):
                raise ParseError(f"action for event {event_string!r} must be a string")
            if action not in action_set:
                raise ParseError(f"action {action!r} is not in the declared action set")
            try:
                event = parse_event_string(event_string)
            except InputError as exc:
                raise ParseError(f"agent {agent!r}: {exc}") from None
            if not event:
                raise ParseError(f"agent {agent!r}: decision table events must be non-empty")
            table[event] = action
        try:
            dfs.append(DecisionFunction(agent=agent, kind=entry["kind"], table=table))
        except InputError as exc:
            raise ParseError(str(exc)) from None
    return tuple(dfs), tuple(actions)
