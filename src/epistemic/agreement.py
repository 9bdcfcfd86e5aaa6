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
plan. In theorem2 mode plan and entries are built once per counterfactual
structure; in theorem1 mode the plan is built from the family's field on each
call, and nothing is stored. A family is read in one pass over its entries,
and one that breaks nothing, with every member of the whole group picking
alike, gets the shared passing verdict without the class loop.

A theorem2 search checks each family on a lean path. Once every agent has a
stored plan, each table of a family in the enumerator's shape is keyed by its
agent's plan: the table's size is compared with the domain's and the agent's
cell count with the cap, then one ``itemgetter`` call reads the actions in
domain order, and the key fetches the entry. Any other family (another shape,
an agent with no plan yet, a cap below an agent's cells, a table whose keys
are not the domain) has every table keyed by ``_table_key``, which validates
or refuses each one before anything is compiled.
"""

from __future__ import annotations

import functools
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
    possibility set, per agent the positions of the events the two share, and in theorem2
    the table reader and cell count of ``_plan``)."""
    agent, row = key[0], key[1:]  # row[p]: the action on the p-th domain event
    order, pairs, groups, shared_at, _, _ = plan
    actions = tuple(sorted(set(row)))
    buckets: dict[str, int] = {}  # one OR per possibility set
    for p, mask in groups:
        action = row[p]
        buckets[action] = buckets.get(action, 0) | mask
    masks = tuple([buckets.get(a, 0) for a in actions])
    return _Compiled(_stp_violations(agent, order, pairs, row), actions, masks,
                     tuple([tuple([row[p] for p in at]) for at in shared_at]),
                     _picks(carrier._reach_groups(carrier.agents), actions, masks))


def _groups(carrier: InformationStructure, agent: str, at: dict[Event, int]) -> tuple[tuple[int, int], ...]:
    """(domain position, carrier states) per possibility set of the agent, the position read
    from ``at``. A possibility set with no decision raises."""
    groups = []
    for info, mask, first in carrier._agent_index(agent).groups:
        if info not in at:
            raise _undecided(agent, carrier.states[first], info)
        groups.append((at[info], mask))
    return tuple(groups)


def _plan(target: CounterfactualStructure, agent: str, cap: int) -> tuple:
    """The agent's plan for gamma tables on this pairing (see ``_compile``), stored on its
    first compile, with () for the agent's own shared positions. Its reader gives a table's
    actions in domain order, in C, and its cell count is compared with the cap on every
    call, so a stored plan never bypasses a smaller cap. A possibility set outside the
    domain raises, and no plan is stored."""
    source, carrier = target.origin, target.structure
    cells, order, _, pairs = _closure(source, agent, cap)
    groups = _groups(carrier, agent, {event: p for p, event in enumerate(order)})
    agents = carrier.agents
    i = agents.index(agent)
    shared = []  # read at the ("shared", i, j) positions, i before j in agent order
    for j, other in enumerate(agents):
        pair, side = ((agent, other), 1) if i < j else ((other, agent), 2)
        shared.append(() if i == j else tuple([fact[side] for fact in _shared_events(source, *pair, cap)]))
    # itemgetter of one key returns the action itself, not a tuple of one
    read = itemgetter(*order) if len(order) > 1 else lambda table: (table[order[0]],)
    plan = target._plans[agent] = (order, pairs, groups, tuple(shared), read, len(cells))
    return plan


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


def _like_minded(entries: list[_Compiled]) -> bool:
    """Whether every two agents' entries take the same actions on the events they share."""
    for j in range(1, len(entries)):
        row = entries[j].shared
        for i in range(j):
            if entries[i].shared[j] != row[i]:
                return False
    return True


@functools.lru_cache(maxsize=64)  # bounded: one per (mode, group, profile count) met
def _passed(mode: str, group: tuple[str, ...], profiles: int) -> AgreementVerdict:
    """The verdict of a family with no violation whose hypotheses hold; frozen, so shared."""
    return AgreementVerdict(mode, group, profiles, (), _HYPOTHESES_MET)


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
    if mode == MODE_THEOREM2:
        if not isinstance(target, CounterfactualStructure):
            raise InputError("theorem2 mode checks a counterfactual structure")
        source, carrier, field = target.origin, target.structure, ()
        try:  # an explicit cap as a search passes it, else resolved (and refused) by resolve_max_cells
            cap = max_cells if type(max_cells) is int and max_cells > 0 else resolve_max_cells(max_cells)
        except InputError:
            _normalize_family(carrier.agents, family, GAMMA_KIND)  # a malformed family is named first
            raise
        store, plans = target._compiled, target._plans
        agents = carrier.agents
        keys = []  # every table validated before any compile
        # The enumerator's shape: a tuple, which the full walk below can read again.
        if type(family) is tuple and len(family) == len(agents):
            try:  # each table read through its agent's stored plan, if every agent has one
                for agent, df in zip(agents, family):
                    order, _, _, _, read, cells = plans[agent]
                    table = df.table
                    if df.agent != agent or df.kind != GAMMA_KIND or cells > cap or len(table) != len(order):
                        break
                    keys.append((agent,) + read(table))
            except (AttributeError, KeyError, TypeError):  # no plan yet, a missing event, or not a function
                pass
        if len(keys) < len(agents):  # anything else takes the full walk, which reads or refuses each table
            keys = [_table_key(source, df, cap) for df in _normalize_family(agents, family, GAMMA_KIND)]
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
        shared = (tuple(range(len(field))),) * len(carrier.agents)  # field tables share every event
        # Not stored: this is the caller's own structure, where entries would outlive the
        # search, and a like-minded theorem1 stream yields a new shared table for every family.
        store, plans = {}, {agent: (field, pairs, _groups(carrier, agent, at), shared, None, 0)
                            for agent in carrier.agents}
    else:
        raise InputError(f"unknown mode {mode!r}")

    compiled = []
    profiles = 1
    clean = True  # no entry breaks the principle, and every entry picks as the first does
    for key in keys:  # each entry compiled on first use; a raise stores nothing
        entry = store.get(key)
        if entry is None:  # a theorem1 call holds every agent's plan; a pairing builds each on first use
            entry = store[key] = _compile(carrier, key, plans.get(key[0]) or _plan(target, key[0], cap))
        compiled.append(entry)
        profiles *= len(entry.actions)
        if entry.stp or entry.picks != compiled[0].picks:
            clean = False
    members = carrier.agents if group is None else carrier._group(group)
    like_minded = _like_minded(compiled)
    if clean and like_minded and members == carrier.agents:  # nothing to report: one shared verdict
        return _passed(mode, members, profiles)
    hyp = [] if like_minded else list(_disagreements(keys, source, cap, field))
    for entry in compiled:
        hyp.extend(entry.stp)

    if members == carrier.agents:
        entries = compiled  # already in agent order, and their picks are this group's
        picks = [e.picks for e in entries]
    else:
        by_agent = dict(zip(carrier.agents, compiled))
        entries = [by_agent[a] for a in members]
        picks = [_picks(carrier._reach_groups(members), e.actions, e.masks) for e in entries]
        profiles = math.prod([len(e.actions) for e in entries])
    violations: list[AgreementViolation] = []
    if picks.count(picks[0]) < len(picks):  # members that pick alike on every class never disagree
        # A class commonly believes a profile's agreement event when its reach lies inside it. No
        # reach is empty: _compile found every member a decision at every state, and the empty
        # event is in no decision domain.
        fixed: dict[tuple[str, ...], int] = {}
        for (_, states), profile in zip(carrier._reach_groups(members), zip(*picks)):
            if None not in profile:
                fixed[profile] = fixed.get(profile, 0) | states
        for profile, cb in sorted(fixed.items()):  # each member's actions are sorted, so this is product order
            if len(set(profile)) == 1:
                continue
            agreement = carrier._full
            for e, action in zip(entries, profile):
                agreement &= e.masks[e.actions.index(action)]
            agreement_event = carrier._unmask(agreement)
            violations.append(
                AgreementViolation(
                    profile=tuple(zip(members, profile)),
                    witness=carrier.states[(cb & -cb).bit_length() - 1],
                    agreement_event=agreement_event,
                    common_belief_event=carrier._unmask(cb),
                    agreement_event_actual=(
                        agreement_event & target.actual if mode == MODE_THEOREM2 else None
                    ),
                )
            )
    if not violations and not hyp:
        return _passed(mode, members, profiles)
    return AgreementVerdict(
        mode=mode,
        group=members,
        profiles_checked=profiles,
        violations=tuple(violations),
        hypothesis_violations=ViolationList(entries=tuple(hyp)) if hyp else _HYPOTHESES_MET,
    )


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
    order is returned.
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
    mode = mode or MODE_THEOREM2
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
