"""Direct reference definitions that tests compare the mask code against.

``check_agreement`` reads each agent's states per action as bitmasks grouped
by possibility set. The first two oracles are the direct per-state
definitions it replaced: the action an agent takes at each state, and the
states at which a group takes a given profile. The last two are the
structure operations as they were before relations were stored only as
successor masks: one breadth-first search per state for the group reach, and
a restriction that filters the sorted relation pairs. The next is the
principle's completion on a field as it was before fields were compiled once:
every round re-indexes the valued events and collects every same-action
family before filling any union in. Next are one agent's gamma tables as
they were before they were read off the union-closure fact's position pairs:
every completion of every cell assignment, each union's cells found by subset
tests. The next is the gamma enumeration as it was before like-mindedness
became a join: the full product of those tables, filtered. Next is
like-mindedness as it was before it compared positions in the tables' entry
keys: every shared event looked up in two tables. Next is the counterfactual build as it was before it wrote
successor rows: a set of relation pairs per agent, which the public
constructor turns into rows. Next is the per-state scans that the
verifier and ``euclidean_counterexample`` ran before they read each agent's
first faults from the classification walk: the first state with no
successor, the first nesting failure and the first euclidean counterexample.
The last two are ``check_agreement`` as it was before a theorem2 verdict read
its hypotheses and its classes' picks off entries compiled from each table's
key: each table compiled by frozenset lookups with the principle from
``check_stp_gamma``, like-mindedness looked up event by event for every
family, and every reach class of the group matched against every member's
action masks.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from epistemic import (
    AgreementVerdict,
    AgreementViolation,
    CounterfactualLabel,
    CounterfactualStructure,
    DecisionFunction,
    DomainError,
    Event,
    InformationStructure,
    InputError,
    PreconditionError,
    ResourceLimitError,
    Violation,
    ViolationList,
    canonical_event_string,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    counterfactual_state_name,
    gamma,
    normalize_actions,
    partition,
)
from epistemic.decisions import GAMMA_KIND, _undecided, _validate_gamma_domain


@dataclass
class ActionAssignment:
    """Per-state actions induced by a decision function: the action taken at
    each state is the decision on the possibility set there."""

    agent: str
    values: dict[str, str]


def derive_action_function(target, df: DecisionFunction) -> ActionAssignment:
    """Turn a decision function into a per-state action assignment.

    Gamma kind requires a counterfactual structure (whose source provides the
    decision domain); field kind requires the partitional structure itself.
    A state whose possibility set is missing from the table raises a
    ``DomainError`` naming the offending event, which is precisely the
    definedness failure the counterfactual setup removes.
    """
    if df.kind == GAMMA_KIND:
        if not isinstance(target, CounterfactualStructure):
            raise InputError("gamma-kind action functions are derived on a counterfactual structure")
        _validate_gamma_domain(target.origin, df)
        carrier = target.structure
    else:
        if not isinstance(target, InformationStructure):
            raise InputError("field-kind action functions are derived on the partitional structure")
        if not target.is_partitional():
            raise PreconditionError("field-kind action functions require a partitional structure")
        carrier = target
    values: dict[str, str] = {}
    for state in carrier.states:
        info = carrier.possibility_set(df.agent, state)
        try:
            values[state] = df.table[info]
        except KeyError:
            raise _undecided(df.agent, state, info) from None
    return ActionAssignment(agent=df.agent, values=values)


def agreement_event(
    target,
    assignments: Sequence[ActionAssignment],
    group: Iterable[str],
    profile: Mapping[str, str],
) -> Event:
    """States at which every group member takes exactly their profiled action."""
    carrier = target.structure if isinstance(target, CounterfactualStructure) else target
    members = carrier._group(group)
    by_agent = {a.agent: a for a in assignments}
    out = []
    for agent in members:
        if agent not in by_agent:
            raise InputError(f"no action assignment for agent {agent!r}")
        if agent not in profile:
            raise InputError(f"profile does not cover agent {agent!r}")
        if set(by_agent[agent].values) != set(carrier.states):
            raise InputError(f"action assignment for agent {agent!r} is not total on the state set")
    for state in carrier.states:
        if all(by_agent[i].values[state] == profile[i] for i in members):
            out.append(state)
    return frozenset(out)


def reach_masks_per_state(structure: InformationStructure, group: tuple[str, ...]) -> tuple[int, ...]:
    """For every state, the states reachable by group chains of length >= 1,
    found by one breadth-first search per state."""
    n = len(structure.states)
    adj = [0] * n
    for agent in group:
        succ = structure._succ[agent]
        for i in range(n):
            adj[i] |= succ[i]
    out = []
    for start in range(n):
        acc = frontier = adj[start]
        while frontier:
            step = 0
            for v in range(n):
                if frontier >> v & 1:
                    step |= adj[v]
            frontier = step & ~acc
            acc |= frontier
        out.append(acc)
    return tuple(out)


def restricted_to_reference(structure: InformationStructure, states: Iterable[str]) -> InformationStructure:
    """Substructure on the given states: the sorted relation pairs, filtered."""
    kept = set(states)
    for s in kept:
        structure._state_index(s)
    rels = {
        agent: [(u, v) for (u, v) in sorted(structure.relations[agent]) if u in kept and v in kept]
        for agent in structure.agents
    }
    return InformationStructure(
        kept,
        structure.agents,
        rels,
        allow_plus_in_names=any("+" in s for s in kept),
    )


def complete_stp_field_reference(field: Iterable[Event], table: Mapping[Event, str]) -> dict[Event, str]:
    """The principle's forced values on a field, found round by round: each
    round collects every disjoint same-action family of valued events, then
    fills in their unions in the order found."""
    events = sorted({frozenset(e) for e in field}, key=canonical_event_string)
    if any(not e for e in events):
        raise InputError("field events must be non-empty")
    field_set = set(events)
    out = {frozenset(e): a for e, a in table.items()}
    for e in out:
        if e not in field_set:
            raise InputError(f"table event {canonical_event_string(e)} is not in the field")

    changed = True
    while changed:
        changed = False
        valued = sorted(out, key=canonical_event_string)
        universe = sorted(frozenset().union(*valued)) if valued else []
        index = {s: k for k, s in enumerate(universe)}
        masks = [sum(1 << index[s] for s in e) for e in valued]
        uniform: list[tuple[tuple[int, ...], Event]] = []

        def recurse(start: int, chosen: list[int], union: int, action: str | None):
            for k in range(start, len(valued)):
                if masks[k] & union:
                    continue
                if action is not None and out[valued[k]] != action:
                    continue
                chosen.append(k)
                if len(chosen) >= 2:
                    members = frozenset().union(*(valued[j] for j in chosen))
                    uniform.append((tuple(chosen), members))
                recurse(k + 1, chosen, union | masks[k], out[valued[k]])
                chosen.pop()

        recurse(0, [], 0, None)
        for member_idx, union_event in uniform:
            action = out[valued[member_idx[0]]]
            if union_event not in field_set:
                raise DomainError(
                    f"the principle forces a decision on {canonical_event_string(union_event)}, "
                    f"which is outside the field",
                    event=union_event,
                )
            if union_event not in out:
                out[union_event] = action
                changed = True
            elif out[union_event] != action:
                raise InputError(
                    f"table already violates the principle at {canonical_event_string(union_event)}"
                )
    return out


def stp_completions_reference(
    structure: InformationStructure,
    agent: str,
    cell_values: Mapping[Event, str],
    actions,
    *,
    max_cells: int | None = None,
) -> Iterator[dict[Event, str]]:
    """All principle-respecting tables extending the given values on cells.

    Each domain event decomposes uniquely into cells; unions of same-action
    cells are forced, unions of mixed-action cells are free choices. Tables
    come out in lexicographic order of their action tuple over the canonical
    domain order.
    """
    acts = normalize_actions(actions)
    cells = partition(structure, agent)
    if set(cell_values) != set(cells):
        raise InputError(f"cell values must cover agent {agent!r}'s cells exactly")
    yield from _completions(cells, gamma(structure, agent, max_cells=max_cells), cell_values, acts)


def _completions(cells: tuple[Event, ...], domain: tuple[Event, ...], cell_values: Mapping[Event, str],
                 acts: tuple[str, ...]) -> Iterator[dict[Event, str]]:
    forced: dict[Event, str] = dict(cell_values)
    free: list[Event] = []
    for event in domain:
        if event in forced:
            continue
        member_actions = {cell_values[c] for c in cells if c <= event}
        if len(member_actions) == 1:
            forced[event] = next(iter(member_actions))
        else:
            free.append(event)
    for choice in itertools.product(acts, repeat=len(free)):
        table = dict(forced)
        table.update(zip(free, choice))
        yield table


def gamma_tables_reference(
    structure: InformationStructure,
    agent: str,
    acts: tuple[str, ...],
    stp: bool,
    max_families: int,
    max_cells: int | None,
) -> list[dict[Event, str]]:
    """One agent's gamma tables in lexicographic order of their actions over the canonical
    domain order: the full product, or under the principle every completion of every cell
    assignment, each union's cells found by subset tests, then sorted."""
    domain = gamma(structure, agent, max_cells=max_cells)
    if not stp:
        count = len(acts) ** len(domain)
        if count > max_families:
            raise ResourceLimitError(
                f"agent {agent!r} alone admits {count} tables, above the cap of {max_families}"
            )
        return [dict(zip(domain, combo)) for combo in itertools.product(acts, repeat=len(domain))]
    cells = partition(structure, agent)
    if len(acts) ** len(cells) > max_families:
        raise ResourceLimitError(f"too many cell assignments for agent {agent!r}")
    tables = []
    for cell_combo in itertools.product(acts, repeat=len(cells)):
        for table in _completions(cells, domain, dict(zip(cells, cell_combo)), acts):
            tables.append(table)
            if len(tables) > max_families:
                raise ResourceLimitError(f"too many principle-respecting tables for agent {agent!r}")
    tables.sort(key=lambda t: tuple(t[e] for e in domain))
    return tables


def gamma_profiles_reference(
    structure: InformationStructure,
    actions,
    *,
    stp: bool = False,
    like_minded: bool = False,
    max_families: int = 1_000_000,
    max_cells: int | None = None,
) -> Iterator[tuple[DecisionFunction, ...]]:
    """Gamma families in product order: every combination of the agents' tables,
    dropping those that disagree on an event two agents share when ``like_minded``."""
    acts = normalize_actions(actions)
    agents = structure.agents
    per_agent = [gamma_tables_reference(structure, a, acts, stp, max_families, max_cells) for a in agents]
    total = math.prod(len(tables) for tables in per_agent)
    if total > max_families:
        raise ResourceLimitError(f"{total} families exceed the cap of {max_families}")
    shared = {(i, j): shared_events_reference(structure, i, j, max_cells) for i, j in itertools.combinations(agents, 2)}
    for combo in itertools.product(*per_agent):
        tables = dict(zip(agents, combo))
        if like_minded and any(
            tables[i][e] != tables[j][e] for (i, j), events in shared.items() for e in events
        ):
            continue
        yield tuple(DecisionFunction(agent=a, kind=GAMMA_KIND, table=dict(tables[a])) for a in agents)


def shared_events_reference(structure: InformationStructure, i: str, j: str,
                            max_cells: int | None = None) -> list[Event]:
    """The events both agents' union closures hold, in canonical order."""
    shared = set(gamma(structure, i, max_cells=max_cells)) & set(gamma(structure, j, max_cells=max_cells))
    return sorted(shared, key=canonical_event_string)


def disagreements_reference(structure: InformationStructure | None, dfs: Sequence[DecisionFunction],
                            max_cells: int | None = None) -> tuple[Violation, ...]:
    """Like-mindedness of validated tables by event lookup: gamma kind on ``structure``,
    field kind (one shared domain) without."""
    tables = {df.agent: df.table for df in dfs}
    violations = []
    for i, j in itertools.combinations(sorted(tables), 2):
        shared = (shared_events_reference(structure, i, j, max_cells) if structure is not None
                  else sorted(tables[i], key=canonical_event_string))
        for event in shared:
            if tables[i][event] != tables[j][event]:
                violations.append(
                    Violation(
                        kind="like-minded",
                        agents=(i, j),
                        events=(event,),
                        union_event=None,
                        expected=tables[i][event],
                        actual=tables[j][event],
                    )
                )
    return tuple(violations)


def build_counterfactual_reference(
    source: InformationStructure, *, max_cells: int | None = None
) -> CounterfactualStructure:
    """The duplicate-and-rewire construction from relation pairs: each
    duplicate's targets are added to a pair set per agent, by the three rules."""
    if not source.is_partitional():
        raise PreconditionError("counterfactual construction requires a partitional structure")

    agents = source.agents
    cells: dict[str, dict[str, Event]] = {
        i: {w: source.possibility_set(i, w) for w in source.states} for i in agents
    }
    domains = {i: gamma(source, i, max_cells=max_cells) for i in agents}

    labels: dict[str, CounterfactualLabel] = {}
    for i in agents:
        for event in domains[i]:
            for w in source.states:
                name = counterfactual_state_name(i, w, event)
                if name in labels:
                    raise InputError(f"generated state name {name!r} collides across blocks")
                labels[name] = CounterfactualLabel(agent=i, base=w, event=event)
    if set(labels) & set(source.states):
        raise InputError("generated counterfactual names collide with original state names")

    relations = {i: set(pairs) for i, pairs in source.relations.items()}
    for name, label in labels.items():
        for i in agents:
            if i == label.agent:
                # rules (a)/(b): exactly one applies, by membership of the base in the event
                targets = label.event if label.base in label.event else cells[i][label.base]
            else:
                targets = cells[i][label.base]
            relations[i].update((name, t) for t in targets)

    combined = InformationStructure(
        list(source.states) + list(labels),
        agents,
        relations,
        allow_plus_in_names=True,
    )
    return CounterfactualStructure(
        structure=combined, actual=source.states, labels=labels, origin=source
    )


def first_row_faults_reference(structure: InformationStructure, agent: str) -> tuple:
    """One agent's first failures of the row properties, scanning every state in name order:
    the first state w with no successor, the first (w, u) with w->u where some successor of u
    is no successor of w (nesting), and the first (w, u, v) with w->u and w->v but not u->v
    (euclideanness); each None where the property holds."""
    states = structure.states  # in name order
    ps = {w: structure.possibility_set(agent, w) for w in states}
    serial = next((w for w in states if not ps[w]), None)
    nesting = next(((w, u) for w in states for u in sorted(ps[w]) if not ps[u] <= ps[w]), None)
    euclidean = next(
        ((w, u, v) for w in states for u in sorted(ps[w]) for v in sorted(ps[w]) if v not in ps[u]), None
    )
    return serial, nesting, euclidean


def compile_reference(target, df: DecisionFunction, max_cells: int | None = None):
    """One agent's ``agreement._Compiled`` entry: on a counterfactual structure for a gamma
    table, else on the structure itself for a field table. The principle's breaks come from
    ``check_stp_gamma``, each possibility set's action from the table by frozenset, each
    shared event's action from the table, and each reach class's pick from the actions at
    the states of its reach."""
    from epistemic.agreement import _Compiled

    if isinstance(target, CounterfactualStructure):
        carrier, source = target.structure, target.origin
        stp = check_stp_gamma(source, df, max_cells=max_cells).entries
    else:
        carrier, source, stp = target, None, ()
    buckets: dict[str, int] = {}
    for info, mask, first in carrier._agent_index(df.agent).groups:
        action = df.table.get(info)
        if action is None:
            raise _undecided(df.agent, carrier.states[first], info)
        buckets[action] = buckets.get(action, 0) | mask
    actions = df.actions()
    shared = () if source is None else tuple(
        () if other == df.agent
        else tuple(df.table[e] for e in shared_events_reference(source, df.agent, other, max_cells))
        for other in carrier.agents
    )
    picks = []
    for reach, _ in carrier._reach_groups(carrier.agents):
        taken = {df.table[carrier.possibility_set(df.agent, s)] for s in carrier._unmask(reach)}
        picks.append(taken.pop() if len(taken) == 1 else None)
    return _Compiled(stp, actions, tuple(buckets.get(a, 0) for a in actions), shared, tuple(picks))


def check_agreement_reference(target, family: Sequence[DecisionFunction], group: Iterable[str] | None = None,
                              mode: str = "theorem2", max_cells: int | None = None,
                              compile_table=compile_reference) -> AgreementVerdict:
    """The verdict with every table compiled by ``compile_table`` (``compile_reference`` unless a
    test passes a memo of it), like-mindedness looked up event by event, and each reach class
    of the group matched against every member's action masks in turn."""
    dfs = sorted(family, key=lambda d: d.agent)
    if mode == "theorem2":
        carrier = target.structure
        entries = [compile_table(target, df, max_cells) for df in dfs]
        hyp = list(disagreements_reference(target.origin, dfs, max_cells))
        for entry in entries:
            hyp.extend(entry.stp)
    else:
        carrier = target
        hyp = list(check_like_minded(None, dfs))
        for df in dfs:
            hyp.extend(check_stp_field(tuple(dfs[0].table), df))
        entries = [compile_table(target, df, None) for df in dfs]
    members = carrier.agents if group is None else tuple(sorted(set(group)))
    by_agent = {df.agent: entry for df, entry in zip(dfs, entries)}
    entries = [by_agent[a] for a in members]
    fixed: dict[tuple[int, ...], int] = {}
    for reach, states in carrier._reach_groups(members):
        picked = []
        for e in entries:
            for k, mask in enumerate(e.masks):
                if not reach & ~mask:
                    picked.append(k)
                    break
            else:
                break
        else:
            fixed[tuple(picked)] = fixed.get(tuple(picked), 0) | states
    violations = []
    for key, cb in sorted(fixed.items()):
        combo = tuple(e.actions[k] for e, k in zip(entries, key))
        if len(set(combo)) == 1:
            continue
        agreement = carrier._full
        for e, k in zip(entries, key):
            agreement &= e.masks[k]
        agreement_event = carrier._unmask(agreement)
        violations.append(AgreementViolation(
            profile=tuple(zip(members, combo)),
            witness=carrier.states[(cb & -cb).bit_length() - 1],
            agreement_event=agreement_event,
            common_belief_event=carrier._unmask(cb),
            agreement_event_actual=agreement_event & target.actual if mode == "theorem2" else None,
        ))
    return AgreementVerdict(
        mode=mode,
        group=members,
        profiles_checked=math.prod(len(e.actions) for e in entries),
        violations=tuple(violations),
        hypothesis_violations=ViolationList(entries=tuple(hyp)),
    )
