"""Agreement verdicts: can a group commonly believe a non-constant action profile?

Two modes mirror the two decision-function shapes. ``theorem1`` works on a
partitional structure with field-kind decision functions; ``theorem2`` works
on a counterfactual structure with gamma-kind decision functions. In both, a
verdict enumerates action profiles, intersects the per-agent "takes this
action" events, and asks whether the group commonly believes the result. A
violation is a non-constant profile whose common-belief event is non-empty,
i.e. a witnessed agreement to disagree.

The hypothesis checks (Sure-Thing Principle and like-mindedness) run first
and are carried on the verdict; a family that fails them is still checked so
the resulting violations can be inspected together with the failed hypothesis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .counterfactual import CounterfactualStructure, build_counterfactual
from .decisions import (
    DecisionFunction,
    FIELD_KIND,
    GAMMA_KIND,
    ViolationList,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    enumerate_decision_profiles,
    _undecided,
)
from .errors import InputError, PreconditionError
from .partitions import resolve_max_cells
from .structures import Event, InformationStructure

MODE_THEOREM1 = "theorem1"
MODE_THEOREM2 = "theorem2"

RELAXABLE = ("like_minded", "stp")


@dataclass(frozen=True)
class AgreementViolation:
    """A non-constant profile that the group commonly believes somewhere."""

    profile: tuple[tuple[str, str], ...]  # (agent, action), sorted by agent
    witness: str  # one state in the common-belief event
    agreement_event: Event
    common_belief_event: Event
    agreement_event_actual: Event | None  # restriction to original states, counterfactual mode only

    def profile_dict(self) -> dict[str, str]:
        return dict(self.profile)


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

    def replay(self, target) -> AgreementVerdict:
        return check_agreement(target, self.family, group=self.group, mode=self.mode)


def agreement_event(
    target,
    assignments: Sequence,
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


def _normalize_family(
    structure_agents: tuple[str, ...], family: Sequence[DecisionFunction], kind: str
) -> tuple[DecisionFunction, ...]:
    dfs = tuple(sorted(family, key=lambda d: d.agent))
    if tuple(d.agent for d in dfs) != structure_agents:
        raise InputError("decision family must contain exactly one function per agent")
    for df in dfs:
        if df.kind != kind:
            raise InputError(f"mode expects {kind}-kind decision functions, agent {df.agent!r} differs")
    return dfs


def check_agreement(
    target,
    family: Sequence[DecisionFunction],
    group: Iterable[str] | None = None,
    mode: str = MODE_THEOREM2,
    *,
    prune: bool = True,
    max_cells: int | None = None,
) -> AgreementVerdict:
    """Check every action profile of the family for commonly-believed disagreement.

    Profiles range over the actions actually appearing in each agent's table;
    other actions can only produce empty agreement events. With ``prune`` the
    common-belief computation is skipped for empty agreement events, which is
    sound on serial structures and never changes the verdict. ``max_cells``
    is the cell cap of the theorem2 hypothesis checks, resolved once per call.
    """
    hyp: list = []
    if mode == MODE_THEOREM2:
        if not isinstance(target, CounterfactualStructure):
            raise InputError("theorem2 mode checks a counterfactual structure")
        source = target.origin
        carrier = target.structure
        dfs = _normalize_family(carrier.agents, family, GAMMA_KIND)
        cap = resolve_max_cells(max_cells)
        hyp.extend(check_like_minded(source, dfs, max_cells=cap))
        for df in dfs:
            hyp.extend(check_stp_gamma(source, df, max_cells=cap))
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
    else:
        raise InputError(f"unknown mode {mode!r}")

    members = carrier._group(group) if group is not None else carrier.agents
    # Each agent's states by action: one OR per possibility set, which every table must cover.
    masks_by_action: dict[str, dict[str, int]] = {}
    for df in dfs:
        buckets: dict[str, int] = {}
        for info, mask, first in carrier._agent_index(df.agent).groups:
            action = df.table.get(info)
            if action is None:
                raise _undecided(df.agent, carrier.states[first], info)
            buckets[action] = buckets.get(action, 0) | mask
        masks_by_action[df.agent] = buckets

    df_by_agent = {df.agent: df for df in dfs}
    action_ranges = [df_by_agent[a].actions() for a in members]
    member_buckets = [masks_by_action[a] for a in members]
    profiles_checked = 0
    violations: list[AgreementViolation] = []
    for combo in itertools.product(*action_ranges):
        profiles_checked += 1
        agreement = carrier._full
        for buckets, action in zip(member_buckets, combo):
            agreement &= buckets.get(action, 0)
            if not agreement:
                break
        if prune and not agreement or len(set(combo)) == 1:
            continue
        cb = carrier._common_belief_mask(members, agreement)
        if cb:
            agreement_event = carrier._unmask(agreement)
            violations.append(
                AgreementViolation(
                    profile=tuple(zip(members, combo)),
                    witness=carrier.states[(cb & -cb).bit_length() - 1],
                    agreement_event=agreement_event,
                    common_belief_event=carrier._unmask(cb),
                    agreement_event_actual=(
                        agreement_event & target.actual if mode == MODE_THEOREM2 else None
                    ),
                )
            )
    return AgreementVerdict(
        mode=mode,
        group=members,
        profiles_checked=profiles_checked,
        violations=tuple(violations),
        hypothesis_violations=ViolationList(entries=tuple(hyp)),
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
    relax_set = frozenset(relax)
    bad = relax_set - set(RELAXABLE)
    if bad:
        raise InputError(f"unknown relaxable hypotheses: {sorted(bad)}")

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
