"""Digest manifest of the command line's output: one JSON line per invocation.

Runs the ``epistemic`` CLI in-process over generated documents and prints, for
every invocation, its argv, its exit code and the SHA-256 of its stdout and of
its stderr (and of the file it wrote, for ``counterfactual -o``). Two source
trees give equal manifests exactly when their CLI output is byte-identical on
these inputs:

    PYTHONPATH=old/src python tests/cli_digests.py > old.jsonl
    PYTHONPATH=new/src python tests/cli_digests.py > new.jsonl
    cmp old.jsonl new.jsonl

``--d1`` runs the bundled d1 example alone. Every file lives in a scratch
directory, written ``$TMP`` in argv and in the hashed output, so a manifest does
not depend on where it ran. An exception that escapes the CLI is recorded as
``"exit": "raised <type>"``, and its type and message are the stderr hashed.
Pytest does not collect this file (no ``test_`` prefix); ``tests/test_cli.py``
runs it on d1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
import traceback
from pathlib import Path

from epistemic import (
    DecisionFunction,
    InformationStructure,
    d1,
    gamma,
    powerset_field,
    serialize_decisions,
    serialize_structure,
)
from epistemic.cli import main
from generators import random_belief_structure, random_partitional, random_structure

SEARCHES = (  # the five relax/mode settings
    ("--mode", "theorem2"),
    ("--mode", "theorem2", "--relax", "stp"),
    ("--mode", "theorem2", "--relax", "like_minded"),
    ("--mode", "theorem2", "--relax", "stp,like_minded"),
    ("--mode", "theorem1"),
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Manifest:
    def __init__(self, root: Path):
        self.root = root

    def path(self, name: str) -> str:
        return str(self.root / name)

    def write(self, name: str, text: str) -> str:
        (self.root / name).write_text(text, "utf-8")
        return self.path(name)

    def run(self, *argv: str, wrote: str | None = None) -> int | str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as exc:  # recorded, not raised: the manifest shows every call
                code = f"raised {type(exc).__name__}"
                err.write("".join(traceback.format_exception_only(exc)))
        tmp = str(self.root)
        line = {
            "argv": [a.replace(tmp, "$TMP") for a in argv],
            "exit": code,
            "stdout": _sha(out.getvalue().replace(tmp, "$TMP")),
            "stderr": _sha(err.getvalue().replace(tmp, "$TMP")),
        }
        if wrote is not None:
            target = Path(wrote)
            line["file"] = _sha(target.read_text("utf-8")) if target.exists() else None
        print(json.dumps(line, sort_keys=True))
        return code


def _damaged(text: str) -> dict[str, str]:
    """Copies of a counterfactual document, each with one fault the parser or the verifier reports."""
    doc = json.loads(text)
    labels = doc["provenance"]["labels"]
    if not labels:
        return {"truncated": text[: len(text) // 2]}
    first = labels[0]
    dup, agent = first["state"], first["agent"]
    actual = sorted({label["base"] for label in labels})
    out = {"truncated": text[: len(text) // 2]}

    def variant(name, change):
        copy = json.loads(text)
        change(copy)
        out[name] = json.dumps(copy)

    def rows(copy, targets):
        kept = [p for p in copy["relations"][agent] if p[0] != dup]
        copy["relations"][agent] = kept + [[dup, t] for t in targets]

    variant("empty_row", lambda c: rows(c, []))
    variant("stray_row", lambda c: rows(c, [actual[0]]))
    variant("into_duplicate", lambda c: c["relations"][agent].append([actual[0], dup]))
    variant("dropped_label", lambda c: c["provenance"]["labels"].pop(0))
    variant("origin_hash", lambda c: c["provenance"].update(origin_hash="0" * 64))
    variant("other_event", lambda c: c["provenance"]["labels"][0].update(event=labels[-1]["event"]))
    return out


def _families(S: InformationStructure, rng: random.Random) -> dict[str, tuple[DecisionFunction, ...]]:
    """Gamma and field decision families: constant, like-minded random, and per-agent random."""
    out = {}
    for name, pick in (("const", lambda: "0"), ("random", lambda: rng.choice("01"))):
        out[f"gamma_{name}"] = tuple(DecisionFunction(a, "gamma", {e: pick() for e in gamma(S, a)}) for a in S.agents)
    field = powerset_field(S)
    shared = {e: rng.choice("01") for e in field}
    out["field_shared"] = tuple(DecisionFunction(a, "field", shared) for a in S.agents)
    out["field_random"] = tuple(DecisionFunction(a, "field", {e: rng.choice("012") for e in field}) for a in S.agents)
    return out


def _malformed(S: InformationStructure) -> dict[str, tuple[DecisionFunction, ...]]:
    """Gamma families that the theorem2 check refuses, each built from the constant tables:
    the last agent's table short of its first domain event, the first agent's table with one
    event off its domain (where the agent has one), the last agent's table as a field table,
    and, with two or more agents, the family without its last agent."""
    tables = {a: {e: "0" for e in gamma(S, a)} for a in S.agents}
    first, last = S.agents[0], S.agents[-1]

    def family(changed: DecisionFunction | None = None) -> tuple[DecisionFunction, ...]:
        """The constant family, with ``changed`` in place of its agent's table."""
        return tuple(changed if changed and changed.agent == a else DecisionFunction(a, "gamma", tables[a])
                     for a in S.agents)

    out = {"missing_event": family(DecisionFunction(last, "gamma", dict(list(tables[last].items())[1:]))),
           "mixed_kinds": family(DecisionFunction(last, "field", tables[last]))}
    outside = next((e for e in powerset_field(S) if e not in tables[first]), None)
    if outside is not None:
        out["extra_event"] = family(DecisionFunction(first, "gamma", {**tables[first], outside: "1"}))
    if len(S.agents) > 1:
        out["missing_agent"] = family()[:-1]
    return out


def _malformed_fields(S: InformationStructure) -> dict[str, tuple[DecisionFunction, ...]]:
    """Field families that the theorem1 check refuses, each built from constant tables on the
    power-set field: the field without the first agent's first possibility set, with two or
    more agents every agent but the first without the field's first event, and the field plus
    an event over a state the structure lacks."""
    field = powerset_field(S)
    gap = S.possibility_set(S.agents[0], S.states[0])
    out = {"field_gap": tuple(DecisionFunction(a, "field", {e: "0" for e in field if e != gap}) for a in S.agents)}
    if len(S.agents) > 1:
        out["unequal_domains"] = tuple(DecisionFunction(a, "field", dict.fromkeys(field[1:] if k else field, "0"))
                                       for k, a in enumerate(S.agents))
    unknown = max(S.states) + "_"  # sorts after every state, so names none
    out["field_outside"] = tuple(DecisionFunction(a, "field", dict.fromkeys((*field, frozenset({unknown})), "0"))
                                 for a in S.agents)
    return out


def cover(m: Manifest, name: str, S: InformationStructure, rng: random.Random, *, search: bool) -> None:
    doc = m.write(f"{name}.json", serialize_structure(S))
    for extra in ((), ("--json",)):
        m.run("validate", doc, *extra)
        m.run("flaws", doc, *extra)
    m.run("counterfactual", doc)
    built = m.path(f"{name}.cf.json")
    if m.run("counterfactual", doc, "-o", built, wrote=built) == 0:
        text = Path(built).read_text("utf-8")
        for damage, damaged in [("", text), *_damaged(text).items()]:
            target = m.write(f"{name}.cf{'.' + damage if damage else ''}.json", damaged)
            for extra in ((), ("--json",)):
                m.run("validate", target, *extra)
    if not search:
        return
    first = S.agents[0]  # a group short of every agent, whose reach classes the entries do not hold
    for setting in SEARCHES:
        m.run("search", doc, "--actions", "2", *setting)
    m.run("search", doc, "--actions", "2", "--relax", "stp", "--json")
    m.run("search", doc, "--actions", "2", "--group", first)
    m.run("search", doc, "--actions", "2", "--relax", "stp", "--group", first, "--json")
    if not S.is_partitional():
        return
    for family_name, family in _families(S, rng).items():
        decisions = m.write(f"{name}.{family_name}.decisions.json", serialize_decisions(family))
        for structure in (doc, built):
            for command in ("check-agreement", "check-stp", "check-like-minded"):
                for extra in ((), ("--json",)):
                    m.run(command, structure, decisions, *extra)
            for extra in ((), ("--json",)):
                m.run("check-agreement", structure, decisions, "--group", first, *extra)
    for family_name, family in _malformed(S).items():  # raised in the theorem2 check's order
        decisions = m.write(f"{name}.{family_name}.decisions.json", serialize_decisions(family))
        for extra in ((), ("--json",)):
            m.run("check-agreement", built, decisions, *extra)
    for family_name, family in _malformed_fields(S).items():  # raised in the theorem1 check's order
        decisions = m.write(f"{name}.{family_name}.decisions.json", serialize_decisions(family))
        commands = [("check-agreement", "--mode", "theorem1")]
        if family_name == "field_outside":  # also the checks that read the field with and without the states
            commands += [("check-like-minded",), ("check-stp",)]
        for command, *options in commands:
            for extra in ((), ("--json",)):
                m.run(command, doc, decisions, *options, *extra)


def run(d1_only: bool, seed: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        m = Manifest(Path(tmp))
        rng = random.Random(seed)
        cover(m, "d1", d1(), rng, search=True)
        m.run("search", m.path("d1.json"), "--actions", "3")
        if d1_only:
            return
        for k in range(20):
            S = random_partitional(rng, max_states=4, max_agents=2 if k < 14 else 3)
            cover(m, f"partitional{k}", S, rng, search=True)
        for k in range(10):
            cover(m, f"belief{k}", random_belief_structure(rng, max_states=5, max_agents=3), rng, search=False)
        for k in range(10):
            cover(m, f"any{k}", random_structure(rng, max_states=4, max_agents=2), rng, search=k < 2)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d1", action="store_true", help="the bundled d1 example alone")
    parser.add_argument("--seed", type=int, default=22)
    args = parser.parse_args()
    run(args.d1, args.seed)
    sys.stdout.flush()
