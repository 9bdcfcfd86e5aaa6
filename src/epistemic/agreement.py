"""Agreement verdicts: can a group commonly believe a non-constant action profile?

Two modes mirror the two decision-function shapes. ``theorem1`` works on a
partitional structure with field-kind decision functions; ``theorem2`` works
on a counterfactual structure with gamma-kind decision functions. A violation
is a non-constant profile whose agreement event (the states where every member
takes its action) the group commonly believes somewhere, i.e. a witnessed
agreement to disagree.

Common belief at a state means its group reach lies inside the event, and each
member's actions split the carrier. So a verdict reads the group's reach
classes, not the profiles: a reach class fixes at most one profile, the action
each member takes on all of it, and the violations are the non-constant
profiles some class fixes, each commonly believed on those classes' states.

The hypotheses (Sure-Thing Principle and like-mindedness) are carried on the
verdict; a family that fails them is still checked. In both modes both checks,
and each table's action on every reach class of the whole agent set, are read
off one entry per table, compiled from the table's key through a per-agent
plan. In theorem1 mode the plan is built from the family's field on each call,
and nothing is stored.

In theorem2 mode a counterfactual structure keeps one prepared reader, made on
its first theorem2 check. It holds a slot per agent, added on the agent's first
compile: the agent, an ``itemgetter`` that reads a table's actions in domain
order (the table's row), the domain size, the cell count, the compile plan and
the agent's entries by row. Once every agent has a slot, a family in the
enumerator's shape costs one loop over (slot, function) pairs: agent, kind,
table size and the cap against the cell count are compared, the row is read
and its entry fetched, or compiled on first sight. Any other family (another
shape, an agent with no slot yet, a cap below an agent's cells, a table whose
keys are not the domain) takes the full walk: ``_table_key`` validates or
refuses every table before anything is compiled, so errors keep their order.

A family of the whole group whose entries break nothing and are like-minded
is decided off its entries' picks: unless some reach class has every member
picking, the picks not all alike, it gets the reader's shared passing verdict
for its profile count. That answer is kept per combination of pick tuples, so
the class loop runs only for a family that can have a violation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .counterfactual import CounterfactualStructure, build_counterfactual
from .decisions import (
    DecisionFunction,
    FIELD_KIND,
    GAMMA_KIND,
    Violation,
    ViolationList,
    enumerate_decision_profiles,
    _disagreements,
    _disjoint_families,
    _field_keys,
    _shared_events,
    _stp_violations,
    _table_key,
    _undecided,
)
from .errors import InputError, PreconditionError
from .partitions import _closure, resolve_max_cells
from .structures import Event, InformationStructure

MODE_THEOREM1 = "theorem1"
MODE_THEOREM2 = "theorem2"

RELAXABLE = ("like_minded", "stp")

_HYPOTHESES_MET = ViolationList(entries=())  # frozen, so every verdict whose hypotheses hold can share it


@dataclass(frozen=True)
class AgreementViolation:
    """A non-constant profile that the group commonly believes somewhere."""

    profile: tuple[tuple[str, str], ...]  # (agent, action), sorted by agent
    witness: str  # one state in the common-belief event
    agreement_event: Event
    common_belief_event: Event
    agreement_event_actual: Event | None  # restriction to original states, counterfactual mode only


@dataclass(frozen=True)
class AgreementVerdict:
    mode: str
    group: tuple[str, ...]
    profiles_checked: int
    violations: tuple[AgreementViolation, ...]
    hypothesis_violations: ViolationList

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def hypotheses_met(self) -> bool:
        return self.hypothesis_violations.ok


@dataclass(frozen=True)
class DisagreementWitness:
    """A decision family and profile that replay to an agreement violation."""

    family: tuple[DecisionFunction, ...]
    profile: tuple[tuple[str, str], ...]
    event: Event  # the non-empty common-belief event
    relaxed: frozenset[str]
    mode: str
    group: tuple[str, ...]

    def replay(self, target, *, max_cells: int | None = None) -> AgreementVerdict:
        """Check the witness family again; ``max_cells`` is the cap the search was given."""
        return check_agreement(target, self.family, group=self.group, mode=self.mode, max_cells=max_cells)


@dataclass(frozen=True, slots=True)
class _Compiled:
    """What a verdict reads of one agent's table on one carrier."""

    stp: tuple[Violation, ...]
    actions: tuple[str, ...]  # the actions in the table, sorted
    masks: tuple[int, ...]  # per action, the carrier states at which the agent takes it
    shared: tuple[tuple[str, ...], ...]  # per agent, the actions on the events shared with it (all, in theorem1)
    picks: tuple[str | None, ...]  # per reach class of all agents, the action taken on all of it, or None


def _compile(carrier: InformationStructure, key: tuple[str, ...], plan: tuple) -> _Compiled:
    """One agent's entry on the carrier, read off the table's validated ``key`` through the
    agent's ``plan``: (domain order, principle pairs, (domain position, carrier states) per
    possibility set, per agent a reader of the actions on the events the two share, the
    reach classes of all agents)."""
    agent, row = key[0], key[1:]  # row[p]: the action on the p-th domain event
    order, pairs, groups, shared, classes = plan
    actions = tuple(sorted(set(row)))
    buckets: dict[str, int] = {}  # one OR per possibility set
    for p, mask in groups:
        action = row[p]
        buckets[action] = buckets.get(action, 0) | mask
    masks = tuple([buckets.get(a, 0) for a in actions])
    return _Compiled(_stp_violations(agent, order, pairs, row), actions, masks,
                     tuple([read(row) for read in shared]), _picks(classes, actions, masks))


def _groups(carrier: InformationStructure, agent: str, at: dict[Event, int]) -> tuple[tuple[int, int], ...]:
    """(domain position, carrier states) per possibility set of the agent, the position read
    from ``at``. A possibility set with no decision raises."""
    groups = []
    for info, mask, first in carrier._agent_index(agent).groups:
        if info not in at:
            raise _undecided(agent, carrier.states[first], info)
        groups.append((at[info], mask))
    return tuple(groups)


class _Reader:
    """A pairing's theorem2 reader (see the module docstring). ``slots``: one per agent in
    agent order, (agent, row reader, domain size, cell count, plan, entries by row).
    ``pairs``: the (i, j) agent positions, i before j, that like-mindedness compares.
    ``passed``: the whole group's passing verdict per profile count. ``apart``: ``_apart``
    per combination of pick tuples. ``slots`` is a tuple, replaced by a longer one, so two
    threads that race to add a slot leave equal slots in agent order."""

    __slots__ = ("slots", "pairs", "passed", "apart")

    def __init__(self, agents: int):
        self.slots: tuple[tuple, ...] = ()
        self.pairs = tuple(itertools.combinations(range(agents), 2))
        self.passed: dict[int, AgreementVerdict] = {}
        self.apart: dict[tuple, bool] = {}


def _slot(target: CounterfactualStructure, agent: str, cap: int) -> tuple:
    """The agent's slot on the pairing's reader (see ``_Reader``). Its plan reads each other
    agent's shared events through one reader. A possibility set outside the domain raises."""
    source, carrier = target.origin, target.structure
    cells, order, _, pairs = _closure(source, agent, cap)
    groups = _groups(carrier, agent, {event: p for p, event in enumerate(order)})
    agents = carrier.agents
    i = agents.index(agent)
    shared = []  # read at the ("shared", i, j) positions, i before j in agent order
    for j, other in enumerate(agents):
        pair, side = ((agent, other), 1) if i < j else ((other, agent), 2)
        at = [] if i == j else [fact[side] for fact in _shared_events(source, *pair, cap)]
        # a reader in C that gives a tuple: of one position or none it reads a slice, since
        # itemgetter of one key returns the action itself
        shared.append(itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1) if at else slice(0)))
    read = itemgetter(*order) if len(order) > 1 else lambda table: (table[order[0]],)  # of one key, the action
    plan = (order, pairs, groups, tuple(shared), carrier._reach_groups(agents))
    return agent, read, len(order), len(cells), plan, {}


def _picks(classes: tuple[tuple[int, int], ...], actions: tuple[str, ...],
           masks: tuple[int, ...]) -> tuple[str | None, ...]:
    """Per (reach, states) class, the action whose states hold all of the reach, or None. A
    table's action masks split the carrier, so at most one does."""
    picks = []
    for reach, _ in classes:
        for action, mask in zip(actions, masks):
            if not reach & ~mask:
                picks.append(action)
                break
        else:
            picks.append(None)
    return tuple(picks)


def _apart(picks: tuple[tuple[str | None, ...], ...]) -> bool:
    """Whether some reach class has every member picking, the picks not all alike: the only
    classes that can fix a violation."""
    return any(None not in profile and profile.count(profile[0]) < len(profile) for profile in zip(*picks))


def _normalize_family(
    structure_agents: tuple[str, ...], family: Iterable[DecisionFunction], kind: str
) -> tuple[DecisionFunction, ...]:
    try:
        dfs = tuple(family)
        agents = tuple([df.agent for df in dfs])
    except (TypeError, AttributeError):
        raise InputError("decision family must be an iterable of decision functions") from None
    if agents != structure_agents:  # the enumerator and parse_decisions yield families in agent order
        dfs = tuple(sorted(dfs, key=lambda d: d.agent))
        if tuple(d.agent for d in dfs) != structure_agents:
            raise InputError("decision family must contain exactly one function per agent")
    for df in dfs:
        if df.kind != kind:
            raise InputError(f"mode expects {kind}-kind decision functions, agent {df.agent!r} differs")
    return dfs


def check_agreement(
    target,
    family: Iterable[DecisionFunction],
    group: Iterable[str] | None = None,
    mode: str = MODE_THEOREM2,
    *,
    max_cells: int | None = None,
) -> AgreementVerdict:
    """Check every action profile of the family for commonly-believed disagreement.

    Profiles range over the actions actually appearing in each agent's table,
    and ``profiles_checked`` is the number of them. Only the profiles that a
    reach class of the group fixes are visited, in profile order; every other
    non-constant profile has an empty common-belief event. ``max_cells`` is the
    cell cap of the theorem2 hypothesis checks, resolved once per call.
    """
    reader = None
    if mode == MODE_THEOREM2:
        if not isinstance(target, CounterfactualStructure):
            raise InputError("theorem2 mode checks a counterfactual structure")
        source, carrier, field = target.origin, target.structure, ()
        try:  # an explicit cap as a search passes it, else resolved (and refused) by resolve_max_cells
            cap = max_cells if type(max_cells) is int and max_cells > 0 else resolve_max_cells(max_cells)
        except InputError:
            _normalize_family(carrier.agents, family, GAMMA_KIND)  # a malformed family is named first
            raise
        reader = target._compiled
        agents = carrier.agents
        compiled, keys = [], None
        # The enumerator's shape, once every agent has a slot: a tuple, which the full walk
        # below can read again. A slot's entries are all compiled, so none can raise here.
        if reader is not None and type(family) is tuple and len(family) == len(reader.slots) == len(agents):
            try:
                for (agent, read, size, cells, plan, store), df in zip(reader.slots, family):
                    table = df.table
                    if df.agent != agent or df.kind != GAMMA_KIND or len(table) != size or cells > cap:
                        break
                    row = read(table)
                    entry = store.get(row)
                    if entry is None:  # compiled once per table, off its key
                        entry = store[row] = _compile(carrier, (agent, *row), plan)
                    compiled.append(entry)
            except (AttributeError, KeyError, TypeError):  # a missing event, or not a function
                pass
        if len(compiled) < len(agents):  # anything else takes the full walk, which reads or refuses each table
            keys = [_table_key(source, df, cap) for df in _normalize_family(agents, family, GAMMA_KIND)]
            if reader is None:
                reader = _Reader(len(agents))
                object.__setattr__(target, "_compiled", reader)  # the pairing is otherwise read-only
            compiled = []
            for k, key in enumerate(keys):  # each entry compiled on first use; a raise stores nothing
                slots = reader.slots
                if k == len(slots):  # each agent's slot is made on its first compile, in agent order
                    slots = reader.slots = slots + (_slot(target, key[0], cap),)
                plan, store = slots[k][4:]
                row = key[1:]
                entry = store.get(row)
                if entry is None:
                    entry = store[row] = _compile(carrier, key, plan)
                compiled.append(entry)
    elif mode == MODE_THEOREM1:
        if not isinstance(target, InformationStructure):
            raise InputError("theorem1 mode checks an information structure")
        if not target.is_partitional():
            raise PreconditionError("theorem1 mode requires a partitional structure")
        source, carrier, cap = None, target, None
        dfs = _normalize_family(carrier.agents, family, FIELD_KIND)
        field, masks, keys = _field_keys(dfs, carrier.states)
        if not field:
            raise InputError("field must contain at least one event")
        pairs = _disjoint_families(masks)
        at = {event: p for p, event in enumerate(field)}
        shared = (tuple,) * len(carrier.agents)  # field tables share every event: each reads the whole row
        classes = carrier._reach_groups(carrier.agents)
        # Not stored: this is the caller's own structure, where entries would outlive the
        # search, and a like-minded theorem1 stream yields a new shared table for every family.
        compiled = [_compile(carrier, key, (field, pairs, _groups(carrier, key[0], at), shared, classes))
                    for key in keys]
    else:
        raise InputError(f"unknown mode {mode!r}")

    profiles = 1
    clean = True  # no entry breaks the principle
    picks = []
    for entry in compiled:
        profiles *= len(entry.actions)
        picks.append(entry.picks)
        if entry.stp:
            clean = False
    members = carrier.agents if group is None else carrier._group(group)
    like_minded = True  # every two agents' entries take the same actions on the events they share
    for i, j in reader.pairs if reader is not None else itertools.combinations(range(len(compiled)), 2):
        if compiled[i].shared[j] != compiled[j].shared[i]:
            like_minded = False
            break
    if reader is not None and clean and like_minded and members == carrier.agents:
        apart = reader.apart.get(picks := tuple(picks))
        if apart is None:
            apart = reader.apart[picks] = _apart(picks)
        if not apart:  # no class fixes a non-constant profile: the shared passing verdict
            verdict = reader.passed.get(profiles)
            if verdict is None:
                verdict = reader.passed[profiles] = AgreementVerdict(mode, members, profiles, (), _HYPOTHESES_MET)
            return verdict
    if not like_minded and keys is None:  # read through the slots, which keyed no table
        keys = [(slot[0], *slot[1](df.table)) for slot, df in zip(reader.slots, family)]
    hyp = [] if like_minded else list(_disagreements(keys, source, cap, field))
    for entry in compiled:
        hyp.extend(entry.stp)

    if members == carrier.agents:
        entries = compiled  # already in agent order, and their picks are this group's
    else:
        by_agent = dict(zip(carrier.agents, compiled))
        entries = [by_agent[a] for a in members]
        picks = [_picks(carrier._reach_groups(members), e.actions, e.masks) for e in entries]
        profiles = math.prod([len(e.actions) for e in entries])
    # members that pick alike on every class never disagree
    violations = () if picks.count(picks[0]) == len(picks) else _violations(
        carrier, members, entries, picks, target.actual if mode == MODE_THEOREM2 else None)
    return AgreementVerdict(
        mode=mode,
        group=members,
        profiles_checked=profiles,
        violations=violations,
        hypothesis_violations=ViolationList(entries=tuple(hyp)) if hyp else _HYPOTHESES_MET,
    )


def _violations(carrier: InformationStructure, members: tuple[str, ...], entries: list[_Compiled],
                picks: list[tuple[str | None, ...]], actual: Event | None) -> tuple[AgreementViolation, ...]:
    """The group's violations, in profile order: each non-constant profile that a reach class
    fixes, commonly believed on the states of every class that fixes it. ``picks`` holds each
    member's picks on the group's classes, and ``actual`` is the pairing's actual states, or
    None in theorem1.

    A class commonly believes a profile's agreement event when its reach lies inside it. No
    reach is empty: _compile found every member a decision at every state, and the empty event
    is in no decision domain.
    """
    fixed: dict[tuple[str, ...], int] = {}
    for (_, states), profile in zip(carrier._reach_groups(members), zip(*picks)):
        if None not in profile:
            fixed[profile] = fixed.get(profile, 0) | states
    violations = []
    for profile, cb in sorted(fixed.items()):  # each member's actions are sorted, so this is product order
        if len(set(profile)) == 1:
            continue
        agreement = carrier._full
        for e, action in zip(entries, profile):
            agreement &= e.masks[e.actions.index(action)]
        agreement_event = carrier._unmask(agreement)
        violations.append(AgreementViolation(
            profile=tuple(zip(members, profile)),
            witness=carrier.states[(cb & -cb).bit_length() - 1],
            agreement_event=agreement_event,
            common_belief_event=carrier._unmask(cb),
            agreement_event_actual=None if actual is None else agreement_event & actual,
        ))
    return tuple(violations)


def search_disagreement(
    target,
    actions,
    relax: Iterable[str] = (),
    group: Iterable[str] | None = None,
    mode: str | None = None,
    *,
    field: Iterable[Event] | None = None,
    max_families: int = 1_000_000,
    max_cells: int | None = None,
) -> DisagreementWitness | None:
    """Search decision families for an agreement violation.

    Constraints that are not relaxed are enforced during enumeration, so with
    ``relax`` empty this is an exhaustive confirmation that no family can
    produce a commonly-believed disagreement. The first witness in enumeration
    order is returned. ``mode`` None means theorem2; ``field`` is read only in
    theorem1 mode.
    """
    try:
        relax_set = frozenset(relax)
    except TypeError:
        raise InputError(f"relax must be an iterable of hypothesis names, got {relax!r}") from None
    bad = relax_set - set(RELAXABLE)
    if bad:
        raise InputError(f"unknown relaxable hypotheses: {sorted(bad)}")
    try:  # read once: every family is checked for the same group
        group = None if group is None else tuple(group)
    except TypeError:
        raise InputError("agent group must be an iterable of agent names") from None

    if isinstance(target, CounterfactualStructure):
        source, built = target.origin, target
    elif isinstance(target, InformationStructure):
        source, built = target, None
    else:
        raise InputError("search needs an information structure or a counterfactual structure")
    if mode is None:  # only None means the default: "", [] or 0 is an unknown mode
        mode = MODE_THEOREM2
    if mode == MODE_THEOREM2:
        if built is None:
            built = build_counterfactual(source, max_cells=max_cells)
        # Resolved once for the enumeration and every check; theorem1 never reads the cap.
        max_cells = resolve_max_cells(max_cells)
        check_target = built
        kind = GAMMA_KIND
    elif mode == MODE_THEOREM1:
        check_target = source
        kind = FIELD_KIND
    else:
        raise InputError(f"unknown mode {mode!r}")

    families = enumerate_decision_profiles(
        source,
        actions,
        kind=kind,
        field=field,
        stp="stp" not in relax_set,
        like_minded="like_minded" not in relax_set,
        max_families=max_families,
        max_cells=max_cells,
    )

    for family in families:
        verdict = check_agreement(check_target, family, group=group, mode=mode, max_cells=max_cells)
        if verdict.violations:
            first = verdict.violations[0]
            return DisagreementWitness(
                family=family,
                profile=first.profile,
                event=first.common_belief_event,
                relaxed=relax_set,
                mode=mode,
                group=verdict.group,
            )
    return None
