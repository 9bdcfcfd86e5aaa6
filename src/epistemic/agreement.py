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

The hypothesis checks (Sure-Thing Principle and like-mindedness) run first
and are carried on the verdict; a family that fails them is still checked so
the resulting violations can be inspected together with the failed hypothesis.
In theorem2 mode both checks, and each table's action on every reach class of
the whole agent set, are read off one entry per table, compiled once per
counterfactual structure.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from .counterfactual import CounterfactualStructure, build_counterfactual
from .decisions import (
    DecisionFunction,
    FIELD_KIND,
    GAMMA_KIND,
    Violation,
    ViolationList,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    enumerate_decision_profiles,
    _disagreements,
    _shared_events,
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
    shared: tuple[tuple[str, ...], ...]  # per agent, the actions on the events shared with it; () in theorem1
    picks: tuple[str | None, ...]  # per reach class of all agents, the action taken on all of it, or None


def _compile(target, df: DecisionFunction, key: tuple[str, ...] | None = None, cap: int | None = None) -> _Compiled:
    """One agent's entry: with the table's validated ``key``, a gamma table on a
    counterfactual structure, read off the key; without, a field table on the caller's
    structure, whose hypotheses ``check_agreement`` checks on the tables themselves."""
    agent = df.agent
    if key is None:
        carrier, stp, row = target, (), df.table
    else:
        source, carrier = target.origin, target.structure
        stp = check_stp_gamma(source, df, max_cells=cap).entries
        row = dict(zip(_closure(source, agent, cap)[1], key[1:]))  # the key's action per domain event
    # One OR per possibility set, which the table must cover.
    buckets: dict[str, int] = {}
    for info, mask, first in carrier._agent_index(agent).groups:
        action = row.get(info)
        if action is None:
            raise _undecided(agent, carrier.states[first], info)
        buckets[action] = buckets.get(action, 0) | mask
    actions = df.actions() if key is None else tuple(sorted(set(key[1:])))
    masks = tuple([buckets.get(a, 0) for a in actions])
    shared = []
    if key is not None:  # read at the ("shared", i, j) positions, i before j in agent order
        agents = carrier.agents
        i = agents.index(agent)
        for j, other in enumerate(agents):
            if i == j:
                shared.append(())
                continue
            pair, at = ((agent, other), 1) if i < j else ((other, agent), 2)
            shared.append(tuple([key[1 + fact[at]] for fact in _shared_events(source, *pair, cap)]))
    return _Compiled(stp, actions, masks, tuple(shared), _picks(carrier._reach_groups(carrier.agents), actions, masks))


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
    hyp: list = []
    if mode == MODE_THEOREM2:
        if not isinstance(target, CounterfactualStructure):
            raise InputError("theorem2 mode checks a counterfactual structure")
        source = target.origin
        carrier = target.structure
        dfs = _normalize_family(carrier.agents, family, GAMMA_KIND)
        cap = resolve_max_cells(max_cells)
        keys = [_table_key(source, df, cap) for df in dfs]
        compiled = []
        for df, key in zip(dfs, keys):  # each entry compiled on first use; a raise stores nothing
            entry = target._compiled.get(key)
            if entry is None:
                entry = target._compiled[key] = _compile(target, df, key, cap)
            compiled.append(entry)
        if not _like_minded(compiled):
            hyp.extend(_disagreements(carrier.agents, keys, 1, source, cap))  # a key's actions start at index 1
        for entry in compiled:
            hyp.extend(entry.stp)
    elif mode == MODE_THEOREM1:
        if not isinstance(target, InformationStructure):
            raise InputError("theorem1 mode checks an information structure")
        if not target.is_partitional():
            raise PreconditionError("theorem1 mode requires a partitional structure")
        carrier = target
        dfs = _normalize_family(carrier.agents, family, FIELD_KIND)
        field = tuple(dfs[0].table)
        hyp.extend(check_like_minded(None, dfs))
        for df in dfs:
            hyp.extend(check_stp_field(field, df))
        # Not stored: this is the caller's own structure, where entries would outlive the
        # search, and a like-minded theorem1 stream yields a new shared table for every family.
        compiled = [_compile(carrier, df) for df in dfs]
    else:
        raise InputError(f"unknown mode {mode!r}")

    members = carrier.agents if group is None else carrier._group(group)
    if members == carrier.agents:
        entries = compiled  # already in agent order, and their picks are this group's
        picks = [e.picks for e in entries]
    else:
        by_agent = {df.agent: entry for df, entry in zip(dfs, compiled)}
        entries = [by_agent[a] for a in members]
        picks = [_picks(carrier._reach_groups(members), e.actions, e.masks) for e in entries]
    profiles = 1
    for e in entries:  # a loop, not math.prod over a comprehension: this runs for every family
        profiles *= len(e.actions)
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
