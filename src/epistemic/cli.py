"""Command-line front end.

Each subcommand is a thin wrapper over one library operation: parse the input
documents, run the operation, print the result. Human-readable tables are the
default; ``--json`` switches to machine-readable reports. Exit codes: 0 when
the command succeeds and any checked property holds, 1 when a property fails
or a witness is found, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .agreement import MODE_THEOREM1, MODE_THEOREM2, check_agreement, search_disagreement
from .counterfactual import CounterfactualStructure, build_counterfactual, verify_counterfactual
from .decisions import GAMMA_KIND, check_like_minded, check_stp_field, check_stp_gamma
from .errors import EpistemicError, InputError
from .partitions import flaw_report
from .serialization import (
    canonical_json,
    decisions_to_document,
    parse_decisions,
    parse_structure,
    serialize_structure,
)
from .structures import InformationStructure, canonical_event_string

_OPS_WITH_AGENT = ("possibility", "belief")
_OPS_WITH_GROUP = ("mutual", "common", "component")


def _read(path: str) -> str:
    try:
        return Path(path).read_text("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_structure(path: str):
    return parse_structure(_read(path))


def _load_decisions(path: str):
    return parse_decisions(_read(path))


def _source_of(value) -> InformationStructure:
    return value.origin if isinstance(value, CounterfactualStructure) else value


def _carrier_of(value) -> InformationStructure:
    return value.structure if isinstance(value, CounterfactualStructure) else value


def _emit_json(doc) -> None:
    print(canonical_json(doc), end="")


def _comma_list(raw: str) -> list[str]:
    return [part for part in raw.split(",") if part != ""]


def _event_arg(raw: str | None) -> frozenset[str]:
    if raw is None:
        raise InputError("this operation needs --event")
    return frozenset(_comma_list(raw))


def _flag_doc(report) -> dict:
    return {
        agent: {
            "serial": f.serial,
            "reflexive": f.reflexive,
            "transitive": f.transitive,
            "euclidean": f.euclidean,
        }
        for agent, f in sorted(report.flags.items())
    }


def _violation_doc(v) -> dict:
    return {
        "kind": v.kind,
        "agents": list(v.agents),
        "events": [canonical_event_string(e) for e in v.events],
        "union_event": canonical_event_string(v.union_event) if v.union_event is not None else None,
        "expected": v.expected,
        "actual": v.actual,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    value = _load_structure(args.structure)
    carrier = _carrier_of(value)
    report = carrier.relation_properties()
    verification = None
    if isinstance(value, CounterfactualStructure):
        verification = verify_counterfactual(value.origin, value)

    if args.json:
        doc = {
            "states": len(carrier.states),
            "agents": list(carrier.agents),
            "classification": report.classification,
            "flags": _flag_doc(report),
        }
        if isinstance(value, CounterfactualStructure):
            doc["actual_states"] = len(value.actual)
            doc["counterfactual_states"] = len(value._by_triple)
            doc["verification"] = {
                "passed": verification.passed,
                "checks": {
                    c.name: {"passed": c.passed, "advisory": c.advisory, "detail": c.detail}
                    for c in verification.checks
                },
            }
        _emit_json(doc)
    else:
        if isinstance(value, CounterfactualStructure):
            print(
                f"structure: {len(carrier.states)} states "
                f"({len(value.actual)} actual + {len(value._by_triple)} counterfactual), "
                f"{len(carrier.agents)} agents"
            )
        else:
            print(f"structure: {len(carrier.states)} states, {len(carrier.agents)} agents")
        for agent, f in sorted(report.flags.items()):
            print(
                f"agent {agent}: serial={_yn(f.serial)} reflexive={_yn(f.reflexive)} "
                f"transitive={_yn(f.transitive)} euclidean={_yn(f.euclidean)}"
            )
        print(f"classification: {report.classification}")
        if verification is not None:
            for c in verification.checks:
                tag = "note" if c.advisory else ("ok" if c.passed else "FAIL")
                detail = f" ({c.detail})" if c.detail and (c.advisory or not c.passed) else ""
                print(f"  [{tag}] {c.name}{detail}")
            print(f"verification: {'pass' if verification.passed else 'FAIL'}")
    if verification is not None and not verification.passed:
        return 1
    return 0


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_counterfactual(args) -> int:
    value = _load_structure(args.structure)
    if isinstance(value, CounterfactualStructure):
        raise InputError("input is already a counterfactual structure")
    built = build_counterfactual(value, max_cells=args.max_cells)
    text = serialize_structure(built)
    if args.output:
        Path(args.output).write_text(text, "utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_query(args) -> int:
    value = _load_structure(args.structure)
    carrier = _carrier_of(value)
    op = args.op
    if op in _OPS_WITH_AGENT and not args.agent:
        raise InputError(f"--op {op} needs --agent")
    if op in _OPS_WITH_GROUP and not args.group:
        raise InputError(f"--op {op} needs --group")
    if op == "possibility":
        result = carrier.possibility_set(args.agent, _state_arg(args))
    elif op == "belief":
        result = carrier.belief(args.agent, _event_arg(args.event))
    elif op == "mutual":
        result = carrier.mutual_belief(_comma_list(args.group), _event_arg(args.event))
    elif op == "common":
        result = carrier.common_belief_component(_comma_list(args.group), _event_arg(args.event))
    else:  # component
        result = carrier.component(_comma_list(args.group), _state_arg(args))
    if args.json:
        _emit_json({"op": op, "result": sorted(result)})
    else:
        print(canonical_event_string(result))
    return 0


def _state_arg(args) -> str:
    if not args.state:
        raise InputError(f"--op {args.op} needs --state")
    return args.state


def cmd_check_stp(args) -> int:
    value = _load_structure(args.structure)
    dfs, _ = _load_decisions(args.decisions)
    source = _source_of(value)
    violations = []
    for df in dfs:
        if df.kind == GAMMA_KIND:
            violations.extend(check_stp_gamma(source, df))
        else:
            violations.extend(check_stp_field(tuple(df.table), df))
    if args.json:
        _emit_json({
            "violations": [_violation_doc(v) for v in violations],
            "exhaustive": True,
            "passed": not violations,
        })
    else:
        for v in violations:
            print(v.describe())
        print(f"sure-thing principle: {'holds' if not violations else 'violated'}")
    return 0 if not violations else 1


def cmd_check_like_minded(args) -> int:
    value = _load_structure(args.structure)
    dfs, _ = _load_decisions(args.decisions)
    result = check_like_minded(_source_of(value), dfs)
    if args.json:
        _emit_json({
            "violations": [_violation_doc(v) for v in result],
            "passed": result.ok,
        })
    else:
        for v in result:
            print(v.describe())
        print(f"like-mindedness: {'holds' if result.ok else 'violated'}")
    return 0 if result.ok else 1


def _resolve_agreement_target(value, mode: str | None, dfs):
    kinds = {df.kind for df in dfs}
    if len(kinds) != 1:
        raise InputError("decision document mixes gamma-kind and field-kind functions")
    kind = kinds.pop()
    if mode is None:
        mode = MODE_THEOREM2 if kind == GAMMA_KIND else MODE_THEOREM1
    if mode == MODE_THEOREM2:
        target = value if isinstance(value, CounterfactualStructure) else build_counterfactual(value)
    else:
        target = _source_of(value)
    return target, mode


def cmd_check_agreement(args) -> int:
    value = _load_structure(args.structure)
    dfs, _ = _load_decisions(args.decisions)
    target, mode = _resolve_agreement_target(value, args.mode, dfs)
    group = _comma_list(args.group) if args.group else None
    verdict = check_agreement(target, dfs, group=group, mode=mode)
    if args.json:
        _emit_json({
            "mode": verdict.mode,
            "group": list(verdict.group),
            "profiles_checked": verdict.profiles_checked,
            "hypotheses_met": verdict.hypotheses_met,
            "hypothesis_violations": [_violation_doc(v) for v in verdict.hypothesis_violations],
            "violations": [
                {
                    "profile": dict(v.profile),
                    "witness": v.witness,
                    "agreement_event": sorted(v.agreement_event),
                    "agreement_event_actual": (
                        sorted(v.agreement_event_actual)
                        if v.agreement_event_actual is not None else None
                    ),
                    "common_belief_event": sorted(v.common_belief_event),
                }
                for v in verdict.violations
            ],
            "passed": verdict.passed,
        })
    else:
        print(f"mode: {verdict.mode}, group: {','.join(verdict.group)}")
        if verdict.hypotheses_met:
            print("hypotheses: met")
        else:
            print(f"hypotheses not met ({len(verdict.hypothesis_violations)} violations):")
            for v in verdict.hypothesis_violations:
                print(f"  {v.describe()}")
        print(f"profiles checked: {verdict.profiles_checked}")
        for v in verdict.violations:
            profile = ", ".join(f"{agent}->{action}" for agent, action in v.profile)
            print(f"violation: profile ({profile}) commonly believed at {v.witness}")
        print(f"agreement: {'pass' if verdict.passed else 'FAIL'}")
    return 0 if verdict.passed else 1


def cmd_search(args) -> int:
    value = _load_structure(args.structure)
    actions = _actions_arg(args.actions)
    relax = _comma_list(args.relax) if args.relax else []
    group = _comma_list(args.group) if args.group else None
    witness = search_disagreement(
        value,
        actions,
        relax=relax,
        group=group,
        mode=args.mode,
        max_families=args.max_families,
    )
    if witness is None:
        if args.json:
            _emit_json({"witness": None})
        else:
            print("no disagreement witness found")
        return 0
    if args.json:
        _emit_json({
            "witness": {
                "family": decisions_to_document(witness.family),
                "profile": dict(witness.profile),
                "common_belief_event": sorted(witness.event),
                "relaxed": sorted(witness.relaxed),
                "mode": witness.mode,
                "group": list(witness.group),
            }
        })
    else:
        relaxed = ",".join(sorted(witness.relaxed)) or "none"
        print(f"disagreement witness (mode {witness.mode}, relaxed: {relaxed})")
        for df in witness.family:
            cells = ", ".join(
                f"{canonical_event_string(e)}->{a}"
                for e, a in sorted(df.table.items(), key=lambda kv: canonical_event_string(kv[0]))
            )
            print(f"  agent {df.agent}: {cells}")
        profile = ", ".join(f"{agent}->{action}" for agent, action in witness.profile)
        print(f"  profile: {profile}")
        print(f"  common-belief event: {canonical_event_string(witness.event)}")
    return 1


def _actions_arg(raw: str):
    if raw.isdecimal():  # exactly the digit strings int() reads; "²" is a digit but not decimal
        return int(raw)
    return _comma_list(raw)


def cmd_flaws(args) -> int:
    value = _load_structure(args.structure)
    source = _source_of(value)
    built = value if isinstance(value, CounterfactualStructure) else build_counterfactual(
        source, max_cells=args.max_cells
    )
    doc: dict = {"agents": {}}
    for agent in source.agents:
        report = flaw_report(source, agent, max_cells=args.max_cells)
        entry = {
            "not_possible_beliefs": [],
            "cross_agent_conflicts": [
                {"agent": other, "cell": canonical_event_string(cell)}
                for other, cell in sorted(
                    report.cross_agent_conflicts,
                    key=lambda oc: (oc[0], canonical_event_string(oc[1])),
                )
            ],
        }
        for event in sorted(report.not_possible_beliefs, key=canonical_event_string):
            base = sorted(event)[0]
            lam = built.counterfactual_state(agent, base, event)
            realized = built.structure.possibility_set(agent, lam) == event
            entry["not_possible_beliefs"].append({
                "event": canonical_event_string(event),
                "realized_at": lam,
                "realized": realized,
            })
        doc["agents"][agent] = entry
    if args.json:
        _emit_json(doc)
        return 0
    for agent in source.agents:
        entry = doc["agents"][agent]
        print(f"agent {agent}:")
        if not entry["not_possible_beliefs"]:
            print("  every decision-domain event is a possible belief")
        else:
            print("  decision-domain events that are not possible beliefs here:")
            for item in entry["not_possible_beliefs"]:
                status = "realized" if item["realized"] else "NOT realized"
                print(f"    {item['event']}  ->  {status} at {item['realized_at']}")
        if entry["cross_agent_conflicts"]:
            print("  other agents' cells this agent can never believe:")
            for item in entry["cross_agent_conflicts"]:
                print(f"    {item['cell']} (agent {item['agent']})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epistemic",
        description="Inspect finite epistemic structures, build counterfactual extensions, "
                    "and check agreement properties.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="classify a structure document and audit provenance")
    p.add_argument("structure")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("counterfactual", help="build the counterfactual extension of a structure")
    p.add_argument("structure")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.add_argument("--max-cells", type=int, default=None)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("query", help="evaluate one belief operator")
    p.add_argument("structure")
    p.add_argument("--op", required=True,
                   choices=["possibility", "belief", "mutual", "common", "component"])
    p.add_argument("--agent")
    p.add_argument("--group", help="comma-separated agent names")
    p.add_argument("--state")
    p.add_argument("--event", help="comma-separated state names ('' for the empty event)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("check-stp", help="check the sure-thing principle for every agent's table")
    p.add_argument("structure")
    p.add_argument("decisions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_stp)

    p = sub.add_parser("check-like-minded", help="check like-mindedness of a decision family")
    p.add_argument("structure")
    p.add_argument("decisions")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_like_minded)

    p = sub.add_parser("check-agreement", help="check a decision family for commonly believed disagreement")
    p.add_argument("structure")
    p.add_argument("decisions")
    p.add_argument("--mode", choices=[MODE_THEOREM1, MODE_THEOREM2], default=None)
    p.add_argument("--group", help="comma-separated agent names (default: all)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_agreement)

    p = sub.add_parser("search", help="search decision families for a disagreement witness")
    p.add_argument("structure")
    p.add_argument("--actions", required=True, help="action count or comma-separated names")
    p.add_argument("--relax", help="comma-separated hypotheses to drop: stp,like_minded")
    p.add_argument("--mode", choices=[MODE_THEOREM1, MODE_THEOREM2], default=None)
    p.add_argument("--group", help="comma-separated agent names (default: all)")
    p.add_argument("--max-families", type=int, default=1_000_000)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("flaws", help="report impossible beliefs and their counterfactual resolution")
    p.add_argument("structure")
    p.add_argument("--max-cells", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_flaws)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except EpistemicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
