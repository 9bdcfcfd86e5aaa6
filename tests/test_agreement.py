"""Agreement verdicts and the disagreement search."""

import copy
import gc
import itertools
import json
import os
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from epistemic import (
    AgreementVerdict,
    AgreementViolation,
    CounterfactualStructure,
    DecisionFunction,
    DomainError,
    EpistemicError,
    InformationStructure,
    InputError,
    ResourceLimitError,
    ViolationList,
    build_counterfactual,
    check_agreement,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    enumerate_decision_profiles,
    equivalence_pairs,
    gamma,
    partition,
    powerset_field,
    search_disagreement,
    verify_counterfactual,
)
from epistemic import d1 as make_d1
from epistemic import agreement, counterfactual, decisions, partitions, structures
from generators import random_partitional
from oracles import (
    ActionAssignment,
    agreement_event,
    check_agreement_reference,
    compile_reference,
    derive_action_function,
)


def ev(*names):
    return frozenset(names)


A_CELLS = (ev("w0", "w1"), ev("w2", "w3"))
FULL = ev("w0", "w1", "w2", "w3")


def gamma_df(agent, table):
    return DecisionFunction(agent=agent, kind="gamma", table=table)


def field_df(agent, table):
    return DecisionFunction(agent=agent, kind="field", table=table)


# ---------------------------------------------------------------------------
# agreement events
# ---------------------------------------------------------------------------


def test_agreement_event_constant(d1):
    deltas = [
        ActionAssignment(agent=a, values={w: "x" for w in d1.states}) for a in d1.agents
    ]
    assert agreement_event(d1, deltas, ["a", "b"], {"a": "x", "b": "x"}) == d1.full_event


def test_agreement_event_unused_action_is_empty(d1):
    deltas = [
        ActionAssignment(agent=a, values={w: "x" for w in d1.states}) for a in d1.agents
    ]
    assert agreement_event(d1, deltas, ["a", "b"], {"a": "x", "b": "y"}) == frozenset()


def test_agreement_event_pointwise(d1):
    delta_a = ActionAssignment(
        agent="a", values={"w0": "x", "w1": "x", "w2": "y", "w3": "y"}
    )
    delta_b = ActionAssignment(agent="b", values={w: "x" for w in d1.states})
    got = agreement_event(d1, [delta_a, delta_b], ["a", "b"], {"a": "x", "b": "x"})
    assert got == ev("w0", "w1")


def test_agreement_event_requires_total_assignments(d1):
    partial = ActionAssignment(agent="a", values={"w0": "x"})
    with pytest.raises(InputError):
        agreement_event(d1, [partial], ["a"], {"a": "x"})
    with pytest.raises(InputError):
        agreement_event(d1, [], ["a"], {"a": "x"})


# ---------------------------------------------------------------------------
# check_agreement
# ---------------------------------------------------------------------------


def test_single_action_family_always_passes(d1, d1_cf):
    family = tuple(
        gamma_df(agent, {e: "x" for e in gamma(d1, agent)}) for agent in d1.agents
    )
    verdict = check_agreement(d1_cf, family, mode="theorem2")
    assert verdict.passed and verdict.hypotheses_met
    assert verdict.profiles_checked == 1


def test_stp_breaking_family_reports_both(d1, d1_cf):
    # a's cells pick x but the full event picks z, so a's table breaks the
    # principle; b plays z everywhere, keeping the pair like-minded on the
    # only shared event
    family = (
        gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "x", FULL: "z"}),
        gamma_df("b", {e: "z" for e in gamma(d1, "b")}),
    )
    assert not check_stp_gamma(d1, family[0]).ok
    assert check_like_minded(d1, family).ok
    verdict = check_agreement(d1_cf, family, mode="theorem2")
    assert not verdict.hypotheses_met
    assert any(v.kind == "stp" for v in verdict.hypothesis_violations)
    assert not verdict.passed
    profiles = {tuple(sorted(v.profile)) for v in verdict.violations}
    assert (("a", "x"), ("b", "z")) in profiles
    for violation in verdict.violations:
        assert violation.witness in violation.common_belief_event
        assert violation.agreement_event_actual == violation.agreement_event & d1.full_event


def test_theorem1_constant_family_passes(d1):
    field = powerset_field(d1)
    family = tuple(field_df(agent, {e: "x" for e in field}) for agent in d1.agents)
    verdict = check_agreement(d1, family, mode="theorem1")
    assert verdict.passed and verdict.hypotheses_met
    assert verdict.violations == ()


def test_mode_and_kind_mismatches(d1, d1_cf):
    gamma_family = tuple(
        gamma_df(agent, {e: "x" for e in gamma(d1, agent)}) for agent in d1.agents
    )
    with pytest.raises(InputError):
        check_agreement(d1, gamma_family, mode="theorem2")  # needs the counterfactual
    with pytest.raises(InputError):
        check_agreement(d1_cf, gamma_family, mode="theorem1")
    with pytest.raises(InputError):
        check_agreement(d1_cf, gamma_family[:1], mode="theorem2")  # family must cover agents
    with pytest.raises(InputError):
        check_agreement(d1_cf, gamma_family, mode="theorem3")


def test_pruning_never_changes_verdicts(d1, d1_cf):
    rng = random.Random(41)
    families = list(enumerate_decision_profiles(d1, 2))
    for family in rng.sample(families, 60):
        fast = check_agreement(d1_cf, family, mode="theorem2")
        slow = reference_check_agreement(d1_cf, family, d1.agents, "theorem2", prune=False)
        assert fast == slow


def test_group_subset(d1, d1_cf):
    family = (
        gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "y", FULL: "x"}),
        gamma_df("b", {e: "y" for e in gamma(d1, "b")}),
    )
    verdict = check_agreement(d1_cf, family, group=["a"], mode="theorem2")
    assert verdict.group == ("a",)
    assert verdict.passed  # singleton groups cannot disagree


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def test_search_no_relaxation_finds_nothing(d1):
    assert search_disagreement(d1, 2, relax=[]) is None


def test_search_relax_stp_witness_replays(d1, d1_cf):
    witness = search_disagreement(d1, 2, relax=["stp"])
    assert witness is not None
    assert witness.relaxed == frozenset({"stp"})
    assert witness.event
    replay = witness.replay(d1_cf)
    assert not replay.passed
    assert dict(witness.profile) in [dict(v.profile) for v in replay.violations]
    # the dropped hypothesis really is the broken one
    assert any(v.kind == "stp" for v in replay.hypothesis_violations)
    assert check_like_minded(d1, witness.family).ok


def test_search_relax_like_minded_witness_replays(d1, d1_cf):
    witness = search_disagreement(d1, 2, relax=["like_minded"])
    assert witness is not None
    replay = witness.replay(d1_cf)
    assert not replay.passed
    for df in witness.family:
        assert check_stp_gamma(d1, df).ok
    assert not check_like_minded(d1, witness.family).ok


def test_search_three_actions_relax_stp(d1):
    witness = search_disagreement(d1, 3, relax=["stp"])
    assert witness is not None
    profile_actions = {action for _, action in witness.profile}
    assert len(profile_actions) > 1


def test_search_deterministic_and_thread_invariant(d1):
    w1 = search_disagreement(d1, 2, relax=["stp"])
    w2 = search_disagreement(d1, 2, relax=["stp"])
    w3 = search_disagreement(d1, 2, relax=["stp"])
    assert w1 == w2 == w3


def test_search_accepts_prebuilt_counterfactual(d1, d1_cf):
    assert search_disagreement(d1_cf, 2, relax=[]) is None
    witness = search_disagreement(d1_cf, 2, relax=["stp"])
    assert witness == search_disagreement(d1, 2, relax=["stp"])


def test_search_theorem1_modes(d1):
    assert (
        search_disagreement(d1, 2, relax=[], mode="theorem1", max_families=200_000)
        is None
    )
    witness = search_disagreement(
        d1, 2, relax=["like_minded"], mode="theorem1", max_families=300_000
    )
    assert witness is not None
    assert not witness.replay(d1).passed


def test_search_rejects_unknown_relaxation(d1):
    with pytest.raises(InputError):
        search_disagreement(d1, 2, relax=["optimism"])


def test_search_leaves_no_reference_cycles():
    # A cycle holds the stream's tables until a full collection, which shows as peak memory.
    decisions._disjoint_families.cache_clear()
    gc.collect()
    gc.disable()
    try:
        found = [
            search_disagreement(make_d1(), 2, relax=relax, mode=mode) is not None
            for relax, mode in (((), "theorem2"), (["stp"], "theorem2"),
                                (["like_minded"], "theorem2"), ((), "theorem1"))
        ]
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert found == [False, True, True, False]


def test_search_none_on_random_partitional_structures():
    rng = random.Random(47)
    for _ in range(8):
        S = random_partitional(rng, max_states=4, max_cells=2)
        assert search_disagreement(S, 2, relax=[]) is None


# ---------------------------------------------------------------------------
# the mask kernel against the per-state path it replaced
# ---------------------------------------------------------------------------


def reference_check_agreement(target, family, group, mode, prune):
    """check_agreement computed per state: derived action functions, per-action
    state sets, and common belief as the iterated-mutual-belief fixpoint."""
    dfs = sorted(family, key=lambda d: d.agent)
    if mode == "theorem2":
        carrier = target.structure
        hyp = list(check_like_minded(target.origin, dfs))
        for df in dfs:
            hyp.extend(check_stp_gamma(target.origin, df))
    else:
        carrier = target
        hyp = list(check_like_minded(None, dfs))
        for df in dfs:
            hyp.extend(check_stp_field(tuple(dfs[0].table), df))
    members = tuple(sorted(group))
    deltas = {df.agent: derive_action_function(target, df) for df in dfs}
    states_by_action = {agent: {} for agent in members}
    for agent in members:
        for state, action in deltas[agent].values.items():
            states_by_action[agent].setdefault(action, set()).add(state)
    actions = {df.agent: df.actions() for df in dfs}
    profiles_checked = 0
    violations = []
    for combo in itertools.product(*(actions[a] for a in members)):
        profiles_checked += 1
        agreement = set(carrier.states)
        for agent, action in zip(members, combo):
            agreement &= states_by_action[agent].get(action, set())
        if prune and not agreement:
            continue
        cb = carrier.common_belief_iterative(members, agreement)
        if cb and len(set(combo)) > 1:
            violations.append(
                AgreementViolation(
                    profile=tuple(zip(members, combo)),
                    witness=min(cb),
                    agreement_event=frozenset(agreement),
                    common_belief_event=cb,
                    agreement_event_actual=(
                        frozenset(agreement) & target.actual if mode == "theorem2" else None
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


def _small_structures(seed, count):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        S = random_partitional(rng, max_states=5, max_agents=3, max_cells=3)
        if len(S.agents) >= 2 and len(S.states) >= 3:
            out.append(S)
    return out


@pytest.mark.parametrize("mode", ["theorem1", "theorem2"])
@pytest.mark.parametrize("relax", [(), ("stp",), ("like_minded",)])
def test_mask_kernel_matches_per_state_reference(mode, relax):
    checked_structures = 0
    checked_violations = 0
    for S in _small_structures(seed=71, count=10):
        if mode == "theorem2":
            target = build_counterfactual(S)
            kwargs = {"kind": "gamma"}
        else:
            # every agent's cells, so every possibility set has a decision
            target = S
            kwargs = {"kind": "field", "field": {c for a in S.agents for c in partition(S, a)}}
        try:
            families = list(enumerate_decision_profiles(
                S, 2, stp="stp" not in relax, like_minded="like_minded" not in relax,
                max_families=320, **kwargs,
            ))
        except ResourceLimitError:
            continue
        checked_structures += 1
        groups = [g for r in range(1, len(S.agents) + 1) for g in itertools.combinations(S.agents, r)]
        for family in families:
            for group in groups:
                got = check_agreement(target, family, group=group, mode=mode)
                want = reference_check_agreement(target, family, group, mode, prune=True)
                assert got == want
                # the targets are serial, so an empty agreement event has empty common belief
                assert reference_check_agreement(target, family, group, mode, prune=False) == want
                checked_violations += len(got.violations)
    assert checked_structures >= 3
    if relax:
        assert checked_violations > 0


def _random_tables(rng, S, kind, actions, domain_of):
    """One table per agent over its domain, each on a random subset of the actions."""
    family = []
    for agent in S.agents:
        acts = rng.sample(actions, rng.randint(1, len(actions)))
        family.append(DecisionFunction(agent=agent, kind=kind, table={e: rng.choice(acts) for e in domain_of(agent)}))
    return tuple(family)


@pytest.mark.parametrize("mode", ["theorem1", "theorem2"])
def test_reach_class_verdicts_match_per_state_reference(mode):
    # Random tables mostly break a hypothesis; the enumerated ones keep both.
    rng = random.Random(131 if mode == "theorem2" else 137)
    seen = Counter()
    for S in _small_structures(seed=139, count=20):
        actions = [str(k) for k in range(rng.randint(2, 4))]
        seen[f"{len(actions)} actions"] += 1
        if mode == "theorem2":
            target = build_counterfactual(S)
            kind, kwargs = "gamma", {}
            domain = {a: gamma(S, a) for a in S.agents}
        else:
            target = S
            field = {c for a in S.agents for c in partition(S, a)}
            kind, kwargs = "field", {"field": field}
            domain = {a: sorted(field, key=sorted) for a in S.agents}
        families = [_random_tables(rng, S, kind, actions, domain.__getitem__) for _ in range(3)]
        try:
            kept = list(itertools.islice(enumerate_decision_profiles(
                S, actions, kind=kind, stp=True, like_minded=True, max_families=50_000, **kwargs), 300))
            families += rng.sample(kept, min(2, len(kept)))
        except ResourceLimitError:
            pass
        groups = [g for r in range(1, len(S.agents) + 1) for g in itertools.combinations(S.agents, r)]
        for family in families:
            for group in groups:
                got = check_agreement(target, family, group=group, mode=mode)
                assert got == reference_check_agreement(target, family, group, mode, prune=True)
                seen["met" if got.hypotheses_met else "broken"] += 1
                seen["violations"] += len(got.violations)
                seen["several"] += len(got.violations) > 1
    assert all(seen[key] for key in ("2 actions", "3 actions", "4 actions", "met", "broken", "several"))


def test_state_with_an_empty_reach_raises_before_the_verdict(d1, d1_cf):
    # A state where some agent considers nothing possible has no decision in any table, so
    # no reach that the verdict reads is empty. One duplicate loses b's row, another every row.
    S = d1_cf.structure
    only_b, every = sorted(d1_cf.labels)[2], sorted(d1_cf.labels)[5]
    relations = {i: {(u, v) for u, v in S.relations[i] if u != every and (i != "b" or u != only_b)}
                 for i in S.agents}
    built = CounterfactualStructure(
        structure=InformationStructure(S.states, S.agents, relations, allow_plus_in_names=True),
        actual=d1_cf.actual, labels=d1_cf.labels, origin=d1_cf.origin,
    )
    assert built.structure.component_successors(["b"], only_b) == frozenset()
    assert built.structure.component_successors(["a", "b"], every) == frozenset()
    rng = random.Random(149)
    families = _relaxed_families(d1, 200)[::40] + [
        _random_tables(rng, d1, "gamma", ["0", "1", "2"], lambda a: gamma(d1, a)) for _ in range(5)]
    for family in families:
        for group in (None, ["a"], ["b"]):
            with pytest.raises(DomainError) as want:
                reference_check_agreement(built, family, group or d1.agents, "theorem2", prune=True)
            with pytest.raises(DomainError) as got:
                check_agreement(built, family, group=group, mode="theorem2")
            assert str(got.value) == str(want.value) and got.value.event == frozenset()


def _undecided_duplicates(d1_cf, agent, targets):
    """A copy of the counterfactual d1 in which one duplicate per target state
    points the agent at that state alone, outside the agent's union closure."""
    S = d1_cf.structure
    relations = {i: set(S.relations[i]) for i in S.agents}
    damaged = sorted(d1_cf.labels)[1::3][:len(targets)]
    for lam, target in zip(damaged, targets):
        relations[agent] = {(u, v) for u, v in relations[agent] if u != lam} | {(lam, target)}
    built = CounterfactualStructure(
        structure=InformationStructure(S.states, S.agents, relations, allow_plus_in_names=True),
        actual=d1_cf.actual,
        labels=d1_cf.labels,
        origin=d1_cf.origin,
    )
    return built, damaged


def test_missing_decision_raises_like_derive_action_function(d1, d1_cf):
    # the first offending state in state order sees {w2}, a later one {w0}
    built, damaged = _undecided_duplicates(d1_cf, "a", ["w2", "w0"])
    assert not {ev("w0"), ev("w2")} & set(gamma(d1, "a"))
    family = tuple(gamma_df(agent, {e: "x" for e in gamma(d1, agent)}) for agent in d1.agents)
    with pytest.raises(DomainError) as expected:
        derive_action_function(built, family[0])
    assert f"state {damaged[0]!r}" in str(expected.value)
    assert expected.value.event == ev("w2")
    for group in (None, ["a"], ["b"]):
        with pytest.raises(DomainError) as got:
            check_agreement(built, family, group=group, mode="theorem2")
        assert str(got.value) == str(expected.value)
        assert got.value.event == expected.value.event


def test_search_computes_structure_facts_once(monkeypatch):
    flag_calls = Counter()
    closure_builds = Counter()
    agent_flags = structures.InformationStructure._agent_flags
    union_closure = partitions._union_closure

    def counting_flags(self, agent):
        flag_calls[(id(self), agent)] += 1
        return agent_flags(self, agent)

    def counting_closure(cells):
        closure_builds[cells] += 1
        return union_closure(cells)

    monkeypatch.setattr(structures.InformationStructure, "_agent_flags", counting_flags)
    monkeypatch.setattr(partitions, "_union_closure", counting_closure)
    source = make_d1()  # fresh, so nothing is cached yet
    assert search_disagreement(source, 3) is None
    assert flag_calls and max(flag_calls.values()) == 1
    # gamma runs on the source only, which has one closure per agent
    assert 1 <= sum(closure_builds.values()) <= len(source.agents)


def test_search_reads_hypothesis_facts_from_the_index(monkeypatch):
    calls = Counter()
    fact_builds = Counter()

    def counting(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    # rebind every module-level name the library calls these through
    for owner, name in ((partitions, "gamma"), (partitions, "resolve_max_cells"), (decisions, "check_stp_gamma")):
        wrapped = counting(name, getattr(owner, name))
        for module in (partitions, decisions, counterfactual, agreement):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(agreement, "check_agreement", counting("check_agreement", agreement.check_agreement))
    memo = structures.InformationStructure._memo
    compile_gamma = agreement._compile
    compiled = Counter()

    def counting_compile(carrier, key, plan):
        compiled[key] += 1
        return compile_gamma(carrier, key, plan)

    def counting_memo(self, key, build):
        def counted_build():
            fact_builds[(id(self), key)] += 1
            return build()
        return memo(self, key, counted_build)

    monkeypatch.setattr(structures.InformationStructure, "_memo", counting_memo)
    monkeypatch.setattr(agreement, "_compile", counting_compile)
    source = make_d1()  # fresh, so nothing is cached yet
    assert search_disagreement(source, 3) is None
    assert calls["check_agreement"] == 6825
    assert calls["gamma"] <= 10
    assert calls["resolve_max_cells"] <= calls["check_agreement"] + 10
    hypothesis_facts = {
        key: count for key, count in fact_builds.items() if key[1][0] in ("gamma", "shared")
    }
    # one closure (with its pairs) per agent, one overlap for the one pair of agents
    assert sorted(key[1] for key in hypothesis_facts) == [("gamma", "a"), ("gamma", "b"), ("shared", "a", "b")]
    assert set(hypothesis_facts.values()) == {1}
    # one compiled entry per distinct (agent, table) the search checks, each built once
    domains = {agent: gamma(source, agent) for agent in source.agents}
    distinct_tables = {
        (df.agent, *[df.table[e] for e in domains[df.agent]])
        for family in enumerate_decision_profiles(make_d1(), 3, stp=True, like_minded=True)
        for df in family
    }
    assert set(compiled) == distinct_tables and len(distinct_tables) == 996
    assert set(compiled.values()) == {1}
    assert calls["check_stp_gamma"] == 0  # each entry reads the principle off its key


def test_search_passes_its_cell_cap_to_every_check(monkeypatch):
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "2")  # below agent b's 3 cells
    assert search_disagreement(make_d1(), 1, max_cells=3) is None
    assert search_disagreement(make_d1(), 2, relax=["stp"], max_cells=3) is not None
    with pytest.raises(ResourceLimitError):
        search_disagreement(make_d1(), 1)
    built = build_counterfactual(make_d1(), max_cells=3)
    family = next(enumerate_decision_profiles(built.origin, 1, max_cells=3))
    assert check_agreement(built, family, max_cells=3).passed
    with pytest.raises(ResourceLimitError):
        check_agreement(built, family)


def test_search_reads_verdicts_off_the_reach_classes(monkeypatch):
    def no_profile_loop(self, group, emask):
        raise AssertionError("check_agreement asked for the common belief of one profile")

    monkeypatch.setattr(structures.InformationStructure, "_common_belief_mask", no_profile_loop)
    assert search_disagreement(make_d1(), 3) is None
    assert search_disagreement(make_d1(), 2, relax=["stp"]) is not None


class _CountingEnviron(dict):
    """A copy of the environment that counts the reads of the cell cap's variable."""

    def __init__(self, environ):
        super().__init__(environ)
        self.reads = 0

    def get(self, key, default=None):
        self.reads += key == partitions.MAX_CELLS_ENV_VAR
        return super().get(key, default)


def test_theorem2_search_resolves_the_cell_cap_once(monkeypatch):
    built = build_counterfactual(make_d1())
    environ = _CountingEnviron(os.environ)
    monkeypatch.setattr(partitions, "os", SimpleNamespace(environ=environ))
    assert search_disagreement(built, 3) is None
    assert environ.reads == 1
    assert search_disagreement(make_d1(), 2, mode="theorem1") is None
    assert environ.reads == 1  # a theorem1 search has no cell cap


@pytest.mark.parametrize("cap", [2, 0, -1])
def test_search_cell_cap_errors_are_unchanged(cap, monkeypatch):
    for target in (make_d1(), build_counterfactual(make_d1())):
        with pytest.raises(ResourceLimitError if cap == 2 else InputError) as explicit:
            search_disagreement(target, 2, max_cells=cap)
        with monkeypatch.context() as env:
            env.setenv("EPISTEMIC_MAX_CELLS", str(cap))
            with pytest.raises(ResourceLimitError if cap == 2 else InputError) as via_env:
                search_disagreement(target, 2)
        if cap == 2:
            for got in (explicit, via_env):
                assert str(got.value).startswith("agent 'b' has 3 partition cells, above the cap of 2;")
        else:
            assert str(explicit.value) == "cell cap must be positive"
            assert str(via_env.value) == f"EPISTEMIC_MAX_CELLS must be positive, got {cap}"
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "zero")
    with pytest.raises(InputError, match="'zero' is not an integer"):
        search_disagreement(make_d1(), 2)
    assert search_disagreement(make_d1(), 2, mode="theorem1") is None


def test_replay_uses_the_search_cell_cap(monkeypatch):
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "2")  # below agent b's 3 cells
    witness = search_disagreement(make_d1(), 2, relax=["stp"], max_cells=3)
    built = build_counterfactual(make_d1(), max_cells=3)
    assert not witness.replay(built, max_cells=3).passed
    with pytest.raises(ResourceLimitError):
        witness.replay(built)


# ---------------------------------------------------------------------------
# compiled tables against the uncached path
# ---------------------------------------------------------------------------


def _compiled_keys(built):
    return list(built._compiled)


def _relaxed_families(source, count):
    return list(itertools.islice(enumerate_decision_profiles(source, 3, stp=False, like_minded=False), count))


def test_table_edited_in_place_is_checked_as_edited():
    built = build_counterfactual(make_d1())
    family = _relaxed_families(built.origin, 1)[0]
    before = check_agreement(built, family)
    table = family[1].table
    for event, action in zip(gamma(built.origin, "b"), itertools.cycle(["2", "0", "1"])):
        table[event] = action
    got = check_agreement(built, family)
    assert got == check_agreement(build_counterfactual(make_d1()), family)
    assert got == reference_check_agreement(built, family, built.structure.agents, "theorem2", True)
    assert before.hypotheses_met and not got.hypotheses_met


def test_equal_tables_in_another_insertion_order_share_one_entry():
    built = build_counterfactual(make_d1())
    for family in _relaxed_families(built.origin, 300)[::7]:
        check_agreement(built, family)
    entries = len(_compiled_keys(built))
    for family in _relaxed_families(built.origin, 300)[::7]:
        # the same mappings inserted in reverse, and the same action sequence on reversed events
        same = tuple(gamma_df(df.agent, dict(reversed(df.table.items()))) for df in family)
        swapped = tuple(gamma_df(df.agent, dict(zip(reversed(df.table), df.table.values()))) for df in family)
        assert check_agreement(built, same) == check_agreement(built, family)
        for other in (same, swapped):
            expected = reference_check_agreement(built, other, built.structure.agents, "theorem2", True)
            assert check_agreement(built, other) == expected
    assert len(_compiled_keys(built)) > entries  # the swapped tables are new entries


def test_agents_with_equal_action_sequences_keep_their_own_entries():
    # both agents have three domain events, so one action sequence fits either table
    S = InformationStructure(
        ["w0", "w1", "w2", "w3"], ["a", "b"],
        {"a": equivalence_pairs([["w0", "w1"], ["w2", "w3"]]),
         "b": equivalence_pairs([["w0"], ["w1", "w2", "w3"]])},
    )
    built = build_counterfactual(S)
    checked = 0
    for family in enumerate_decision_profiles(S, 2):
        sequences = {tuple(df.table[e] for e in gamma(S, df.agent)) for df in family}
        if len(sequences) == 1:
            got = check_agreement(built, family)
            assert got == reference_check_agreement(built, family, S.agents, "theorem2", True)
            checked += 1
    assert checked == 8


@pytest.mark.parametrize("via_env", [False, True])
def test_cell_cap_checked_after_the_entry_is_stored(via_env, monkeypatch):
    built = build_counterfactual(make_d1())
    family = _relaxed_families(built.origin, 1)[0]
    check_agreement(built, family, max_cells=3)
    assert len(_compiled_keys(built)) == 2
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            if via_env:
                monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "2")
                check_agreement(built, family)
            else:
                check_agreement(built, family, max_cells=2)


def test_table_whose_keys_are_not_the_domain_is_refused_in_agent_order():
    built = build_counterfactual(make_d1())
    family = _relaxed_families(built.origin, 1)[0]
    check_agreement(built, family)
    outside = {"a": ev("w0"), "b": ev("w1")}  # each outside that agent's union closure
    damaged = {}
    for k, df in enumerate(family):
        rest = gamma(built.origin, df.agent)[1:]
        damaged[df.agent] = [
            gamma_df(df.agent, {**df.table, outside[df.agent]: "0"}),  # one key too many
            gamma_df(df.agent, {e: df.table[e] for e in rest}),  # one key too few
            gamma_df(df.agent, {**{e: df.table[e] for e in rest}, outside[df.agent]: "0"}),  # as many, one differs
        ]
        for bad in damaged[df.agent]:
            with pytest.raises(InputError) as expected:
                check_stp_gamma(built.origin, bad)
            for candidate in (built, build_counterfactual(make_d1())):
                with pytest.raises(InputError) as got:
                    check_agreement(candidate, family[:k] + (bad,) + family[k + 1:])
                assert str(got.value) == str(expected.value)
    for bad_a, bad_b in itertools.product(damaged["a"], damaged["b"]):
        with pytest.raises(InputError) as got:
            check_agreement(built, (bad_b, bad_a))
        assert "for agent 'a'" in str(got.value)


def test_missing_possibility_set_raises_after_entries_are_stored():
    built = build_counterfactual(make_d1())
    family = _relaxed_families(built.origin, 1)[0]
    check_agreement(built, family)
    table = dict(family[1].table)
    del table[ev("w1", "w2")]
    damaged = (family[0], gamma_df("b", table))
    with pytest.raises(InputError) as fresh:
        check_agreement(build_counterfactual(make_d1()), damaged)
    with pytest.raises(InputError) as got:
        check_agreement(built, damaged)
    assert str(got.value) == str(fresh.value) and "missing ['w1+w2']" in str(got.value)


def test_undecided_state_raises_on_every_call_and_stores_nothing(d1, d1_cf):
    built, damaged = _undecided_duplicates(d1_cf, "b", ["w1"])
    family = tuple(gamma_df(agent, {e: "x" for e in gamma(d1, agent)}) for agent in d1.agents)
    with pytest.raises(DomainError) as expected:
        derive_action_function(built, family[1])
    for _ in range(2):
        with pytest.raises(DomainError) as got:
            check_agreement(built, family)
        assert str(got.value) == str(expected.value) and got.value.event == ev("w1")
    assert _compiled_keys(built) == [("a", "x", "x", "x")]


def test_carrier_paired_with_another_origin_reads_none_of_its_entries(d1):
    # same states, agents and domain sizes as d1, but a's cells split differently
    other = InformationStructure(
        d1.states, d1.agents,
        {"a": equivalence_pairs([["w0", "w2"], ["w1", "w3"]]), "b": d1.relations["b"]},
    )
    built = build_counterfactual(make_d1())
    constant = tuple(gamma_df(agent, {e: "x" for e in gamma(other, agent)}) for agent in d1.agents)

    def paired(cf):
        return CounterfactualStructure(structure=cf.structure, actual=cf.actual, labels=cf.labels, origin=other)

    with pytest.raises(DomainError) as fresh:
        check_agreement(paired(build_counterfactual(make_d1())), constant)
    assert check_agreement(built, tuple(gamma_df(df.agent, {e: "x" for e in gamma(d1, df.agent)})
                                        for df in constant)).passed
    with pytest.raises(DomainError) as got:
        check_agreement(paired(built), constant)
    assert str(got.value) == str(fresh.value)


def test_pairing_is_read_only_so_its_entries_answer_for_one_origin(d1):
    other = InformationStructure(
        d1.states, d1.agents,
        {"a": equivalence_pairs([["w0", "w2"], ["w1", "w3"]]), "b": d1.relations["b"]},
    )
    built = build_counterfactual(make_d1())
    assert check_agreement(built, tuple(gamma_df(agent, {e: "x" for e in gamma(d1, agent)})
                                        for agent in d1.agents)).passed
    for field, value in (("origin", other), ("structure", other), ("actual", other.full_event),
                          ("labels", {})):
        with pytest.raises(AttributeError):
            setattr(built, field, value)
        with pytest.raises(AttributeError):
            delattr(built, field)
    with pytest.raises(TypeError):
        built.labels["cf:a:w0:w0+w1"] = built.labels["cf:a:w1:w0+w1"]
    assert built.origin == d1 and built._compiled
    assert copy.copy(built) == built
    constant = tuple(gamma_df(agent, {e: "x" for e in gamma(other, agent)}) for agent in d1.agents)
    fresh = CounterfactualStructure(structure=built.structure, actual=built.actual, labels=built.labels,
                                    origin=other)
    with pytest.raises(DomainError) as err:
        check_agreement(fresh, constant)
    assert str(err.value) == "agent 'a' has no decision for their information at state 'cf:a:w0:w0+w1' (event w0+w1)"


def test_compiled_entries_are_immutable():
    built = build_counterfactual(make_d1())
    for family in enumerate_decision_profiles(built.origin, 2):
        check_agreement(built, family)
    entries = list(built._compiled.values())
    assert len(entries) == 8 + 128  # every table of a and of b
    for entry in entries:
        assert all(type(field) is tuple for field in (entry.stp, entry.actions, entry.masks))
        with pytest.raises(AttributeError):
            entry.masks = ()
    assert any(entry.stp for entry in entries)


def _fact_kinds(structure):
    return {key[0] for key in structure._facts}


def test_theorem1_search_stores_no_compiled_entry():
    source = make_d1()
    assert search_disagreement(source, 2, mode="theorem1") is None
    assert search_disagreement(source, 2, mode="theorem1", relax=["stp"]) is not None
    assert _fact_kinds(source) == {"report", "rows", "agent", "reach", "reach_groups"}
    built = build_counterfactual(source)
    assert search_disagreement(built, 2) is None
    assert len(_compiled_keys(built)) == 6 + 50  # the stp tables of a and of b


def test_index_holds_structure_facts_and_no_compiled_table():
    source = make_d1()
    built = build_counterfactual(source)
    assert search_disagreement(built, 2) is None
    assert search_disagreement(source, 2, mode="theorem1") is None
    assert verify_counterfactual(source, built).passed
    expected = {"report", "rows", "agent", "gamma", "shared", "reach", "reach_groups"}
    assert _fact_kinds(source) == expected
    assert _fact_kinds(built.structure) == expected - {"gamma", "shared"}
    assert built._compiled  # the compiled tables live on the counterfactual structure, not its carrier
    for S in (source, built.structure):
        assert not any(isinstance(value, agreement._Compiled) for value in S._facts.values())


# ---------------------------------------------------------------------------
# entries compiled once per table against the per-family references
# ---------------------------------------------------------------------------

RELAX_SETTINGS = ((), ("stp",), ("like_minded",), ("stp", "like_minded"))


def _chain6():
    states = [f"s{k:02d}" for k in range(6)]
    return InformationStructure(states, ["a", "b"], {
        "a": equivalence_pairs([[states[k], states[k + 1]] for k in range(0, 6, 2)]),
        "b": equivalence_pairs([[states[k], states[(k + 1) % 6]] for k in range(1, 6, 2)]),
    })


def _memo_compile():
    """compile_reference, once per distinct (agent, table)."""
    memo = {}

    def compile_table(target, df, max_cells):
        key = (df.agent, frozenset(df.table.items()))
        if key not in memo:
            memo[key] = compile_reference(target, df, max_cells)
        return memo[key]

    return compile_table


def _cross_check(target, families, groups, compile_table, mode="theorem2"):
    """Every family's verdict for every group equals the reference verdict, with tables
    compiled by ``compile_table``. Returns what was seen."""
    carrier = target.structure if mode == "theorem2" else target
    cap = partitions.resolve_max_cells()  # the default the public check resolves, read once for the reference
    seen = Counter()
    for family in families:
        for group in groups:
            got = check_agreement(target, family, group=group, mode=mode)
            assert got == check_agreement_reference(target, family, group, mode, cap, compile_table)
            seen["violations"] += len(got.violations)
            if got.violations and carrier._reach_groups(got.group) != carrier._reach_groups(carrier.agents):
                seen["violations on classes no entry holds"] += len(got.violations)
            seen["met" if got.hypotheses_met else "broken"] += 1
    return seen


def _cross_check_streams(built, actions, one_agent, spread=300):
    """Under each relax setting: the whole group on every family of the stream, and one agent
    and the explicit full group on about ``spread`` families of it, evenly spaced."""
    seen = Counter()
    full = list(reversed(built.structure.agents))
    compile_table = _memo_compile()
    for relax in RELAX_SETTINGS:
        families = list(enumerate_decision_profiles(
            built.origin, actions, stp="stp" not in relax, like_minded="like_minded" not in relax))
        seen += _cross_check(built, families, [None], compile_table)
        seen += _cross_check(built, families[::-(-len(families) // spread)], [[one_agent], full], compile_table)
    return seen


def _every_entry_matches_the_reference(built, actions):
    """Every table of every agent, checked in a family with the other agents' constant tables,
    leaves an entry equal to the reference entry. Returns the number of entries."""
    origin = built.origin
    acts = [str(k) for k in range(actions)]
    constant = {a: gamma_df(a, dict.fromkeys(gamma(origin, a), "0")) for a in origin.agents}
    for agent in origin.agents:
        domain = gamma(origin, agent)
        for combo in itertools.product(acts, repeat=len(domain)):
            df = gamma_df(agent, dict(zip(domain, combo)))
            check_agreement(built, tuple(df if a == agent else constant[a] for a in origin.agents))
            assert built._compiled[(agent, *combo)] == compile_reference(built, df)
    return len(built._compiled)


@pytest.mark.parametrize("actions", [1, 2, 3])
def test_d1_entries_and_verdicts_match_the_references(actions):
    built = build_counterfactual(make_d1())
    seen = _cross_check_streams(built, actions, "a")
    assert seen["met"] and bool(seen["broken"]) == bool(seen["violations"]) == (actions > 1)
    assert _every_entry_matches_the_reference(built, actions) == actions ** 3 + actions ** 7  # a's and b's tables


def test_chain6_entries_and_verdicts_match_the_references():
    built = build_counterfactual(_chain6())
    seen = _cross_check_streams(built, 2, "b")
    assert seen["violations"] and seen["broken"] and seen["met"]
    assert _every_entry_matches_the_reference(built, 2) == 2 * 2 ** 7


def test_seeded_entries_and_verdicts_match_the_references():
    seen = Counter()
    for S in _small_structures(seed=157, count=12):
        built = build_counterfactual(S)
        # one agent never disagrees with itself; a pair short of every agent can
        pairs = [[j, i] for i, j in itertools.combinations(S.agents, 2)] if len(S.agents) > 2 else []
        groups = [None, [S.agents[0]], *pairs, list(reversed(S.agents))]
        compile_table = _memo_compile()
        for relax in RELAX_SETTINGS:
            try:
                families = list(enumerate_decision_profiles(
                    S, 2, stp="stp" not in relax, like_minded="like_minded" not in relax, max_families=2500))
            except ResourceLimitError:
                continue
            seen += _cross_check(built, families, [None], compile_table)
            seen += _cross_check(built, families[::-(-len(families) // 60)], groups[1:], compile_table)
            seen[f"{len(S.agents)} agents"] += 1
        for key, entry in built._compiled.items():
            assert entry == compile_reference(built, gamma_df(key[0], dict(zip(gamma(S, key[0]), key[1:]))))
    assert seen["2 agents"] and seen["3 agents"] and seen["met"] and seen["violations on classes no entry holds"]


def test_seeded_field_verdicts_match_the_reference():
    """The theorem1 streams over the power-set field on one seeded structure of each shape, 3
    or 4 states and 2 or 3 agents: the whole group on every family, smaller and reordered
    groups on about 60 spaced ones. Streams longer than the 3-state one with both hypotheses
    relaxed (128 ** 2 families) are left out: on 4 states, every stream but the one that
    keeps both."""
    rng = random.Random(157)
    structures = {}
    while len(structures) < 4:
        S = random_partitional(rng, max_states=4, max_agents=3, max_cells=3)
        if len(S.agents) >= 2 and len(S.states) >= 3:
            structures.setdefault((len(S.states), len(S.agents)), S)
    seen = Counter()
    for S in structures.values():
        pairs = [[j, i] for i, j in itertools.combinations(S.agents, 2)] if len(S.agents) > 2 else []
        groups = [[S.agents[0]], *pairs, list(reversed(S.agents))]
        compile_table = _memo_compile()
        for relax in RELAX_SETTINGS:
            try:  # the cap admits the 2 ** 15 tables of the 4-state power set
                families = list(itertools.islice(enumerate_decision_profiles(
                    S, 2, kind="field", stp="stp" not in relax, like_minded="like_minded" not in relax,
                    max_families=2 ** 15), 2 ** 14 + 1))
            except ResourceLimitError:
                continue
            if len(families) > 2 ** 14:
                continue
            seen += _cross_check(S, families, [None], compile_table, "theorem1")
            seen += _cross_check(S, families[::-(-len(families) // 60)], groups, compile_table, "theorem1")
            seen[relax] += 1
    assert [seen[relax] for relax in RELAX_SETTINGS] == [4, 2, 1, 1]
    assert seen["met"] and seen["broken"] and seen["violations"] and seen["violations on classes no entry holds"]


def test_damaged_pairing_raises_the_reference_error(d1, d1_cf):
    built, _ = _undecided_duplicates(d1_cf, "b", ["w1"])
    for family in _relaxed_families(d1, 300)[::50]:
        for group in (None, ["a"], ["b", "a"]):
            with pytest.raises(DomainError) as want:
                check_agreement_reference(built, family, group)
            with pytest.raises(DomainError) as got:
                check_agreement(built, family, group=group)
            assert str(got.value) == str(want.value) and got.value.event == want.value.event == ev("w1")


# ---------------------------------------------------------------------------
# malformed families raise as the reference does
# ---------------------------------------------------------------------------


def _outcome(call):
    """A call's result, or the type, message and event of the library error it raised."""
    try:
        return call()
    except EpistemicError as exc:
        return type(exc), str(exc), getattr(exc, "event", None)


def test_malformed_families_raise_the_reference_error(d1, d1_cf):
    """Each malformed family raises what the reference raises, in the same order. Theorem2: a
    missing or doubled agent, then a wrong kind, then an off-domain table, every table before
    any entry is compiled, so an undecided state in the pairing comes last. Theorem1: a
    missing or doubled agent, then a wrong kind, then unequal domains, then an empty field,
    then an empty event, then a field without some agent's possibility set, the first such
    set in agent order, then state order."""
    undecided, _ = _undecided_duplicates(d1_cf, "a", ["w2"])
    tables = {agent: {e: "0" for e in gamma(d1, agent)} for agent in d1.agents}
    a, b = (gamma_df(agent, tables[agent]) for agent in d1.agents)
    short = gamma_df("b", dict(list(tables["b"].items())[1:]))  # one domain event missing
    extra = gamma_df("a", {**tables["a"], ev("w0"): "1"})  # one event off a's domain
    wrong = {
        "missing agent": (a,),
        "doubled agent": (a, a),
        "field table": (a, DecisionFunction(agent="b", kind="field", table=tables["b"])),
        "field and off-domain tables": (extra, DecisionFunction(agent="b", kind="field", table=tables["b"])),
        "missing event": (a, short),
        "extra event": (extra, b),
        "both off the domain": (extra, short),
        "well formed": (a, b),
    }
    field = powerset_field(d1)
    const = dict.fromkeys(field, "0")
    smaller = dict.fromkeys(field[1:], "0")
    varied = {e: "1" if len(e) == 2 else "0" for e in field}
    gaps = {e: "0" for e in field if e not in (ev("w1", "w2"), ev("w2", "w3"))}  # b's cell, then a's
    fa, fb = field_df("a", const), field_df("b", varied)
    wrong_fields = {
        "missing agent": (fa,),
        "doubled agent": (fa, fa),
        "gamma table": (fa, b),
        "gamma table and unequal domains": (field_df("a", smaller), gamma_df("b", const)),
        "unequal domains": (fa, field_df("b", smaller)),
        "unequal domains, the first smaller": (field_df("a", smaller), fb),
        "empty tables": (field_df("a", {}), field_df("b", {})),
        "empty event": (field_df("a", {frozenset(): "0", **const}), field_df("b", {frozenset(): "0", **const})),
        "empty event and gaps": (field_df("a", {frozenset(): "0", **gaps}), field_df("b", {frozenset(): "0", **gaps})),
        "gaps": (field_df("a", gaps), field_df("b", gaps)),
        "well formed": (fa, fb),
    }
    raised = Counter()
    for mode, targets, cases in (("theorem2", (d1_cf, undecided), wrong), ("theorem1", (d1,), wrong_fields)):
        for name, family in cases.items():
            for target in targets:
                for group in (None, ["a"], ["b"], ["b", "a"]):
                    for family_order in (family, family[::-1]):
                        got = _outcome(lambda: check_agreement(target, family_order, group=group, mode=mode))
                        want = _outcome(lambda: check_agreement_reference(target, family_order, group, mode))
                        assert got == want, (mode, name)
                        raised[mode, got[0] if type(got) is tuple else "verdict"] += 1
    # the undecided pairing's own error shows only when every table is well formed
    assert raised["theorem2", "verdict"] == raised["theorem2", DomainError] == 8
    assert raised["theorem2", InputError] == 7 * 16
    assert raised["theorem1", "verdict"] == raised["theorem1", DomainError] == 8
    assert raised["theorem1", InputError] == 9 * 8
    assert _outcome(lambda: check_agreement(d1, wrong_fields["gaps"], mode="theorem1"))[2] == ev("w2", "w3")


def test_field_events_over_unknown_states_are_refused_where_a_structure_is_given(d1):
    """d1's power set plus {zz} and {w0, zz}: the theorem1 check and ``check_like_minded`` on d1
    refuse it, as the reference does, before a possibility set missing from the field raises;
    the checks that take no structure still read it."""
    outside = (ev("zz"), ev("w0", "zz"))
    field = (*powerset_field(d1), *outside)
    family = tuple(field_df(a, {e: "1" if e == outside[1] else "0" for e in field}) for a in d1.agents)
    gaps = tuple(field_df(a, dict.fromkeys(field[1:], "0")) for a in d1.agents)  # no {w0}: a w0 undecided
    refused = (InputError, "field events must be non-empty subsets of the state set", None)
    for fam in (family, gaps):
        for group in (None, ["a"]):
            assert _outcome(lambda: check_agreement(d1, fam, group=group, mode="theorem1")) == refused
            assert _outcome(lambda: check_agreement_reference(d1, fam, group, "theorem1")) == refused
        assert _outcome(lambda: check_like_minded(d1, fam)) == refused
        assert check_like_minded(None, fam).ok
    breaks = check_stp_field(field, family[0])
    assert [v.describe() for v in breaks] == ["stp: agent a maps {w0, zz} to '0' but their union w0+zz to '1'"]


# ---------------------------------------------------------------------------
# the work counts the benchmark pins
# ---------------------------------------------------------------------------


def test_exhaustive_search_makes_the_pinned_checks(monkeypatch):
    expected = json.loads((Path(__file__).resolve().parent.parent / "bench" / "expected.json").read_text())
    pins = expected["workloads"]["exhaustive-search"]["every_seed"]["counts"]
    calls = Counter()
    check = agreement.check_agreement

    def counting(*args, **kwargs):
        verdict = check(*args, **kwargs)
        calls["families"] += 1
        calls["profiles"] += verdict.profiles_checked
        return verdict

    monkeypatch.setattr(agreement, "check_agreement", counting)
    # the benchmark's inputs: d1 with 3 actions, and chain6 with 2
    states = [f"s{k:02d}" for k in range(6)]
    chain6 = InformationStructure(states, ["a", "b"], {
        "a": equivalence_pairs([[states[k], states[k + 1]] for k in range(0, 6, 2)]),
        "b": equivalence_pairs([[states[k], states[(k + 1) % 6]] for k in range(1, 6, 2)]),
    })
    assert search_disagreement(make_d1(), 3) is None
    assert search_disagreement(chain6, 2) is None
    assert calls["families"] == pins["decisions.families_enumerated"] == 8075
    assert calls["profiles"] == pins["agreement.profiles_checked"] == 46427


def test_fresh_search_keys_each_table_once_per_family(monkeypatch):
    calls = Counter()
    table_key = decisions._table_key

    def counting(*args):
        calls["keys"] += 1
        return table_key(*args)

    for module in (decisions, agreement):
        monkeypatch.setattr(module, "_table_key", counting)
    assert search_disagreement(make_d1(), 3) is None
    # two tables in each of 6,825 families; compiling the 996 distinct ones keys none again
    assert calls["keys"] == 2 * 6825 == 13650


# ---------------------------------------------------------------------------
# family order and shape, and arguments of the wrong type
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["theorem2", "theorem1"])
def test_family_order_and_shape_leave_the_verdict_unchanged(d1, d1_cf, mode):
    if mode == "theorem2":
        target, families = d1_cf, list(enumerate_decision_profiles(d1, 2))
    else:
        field = decisions.union_of_gammas(d1)
        stream = enumerate_decision_profiles(d1, 2, kind="field", field=field, max_families=300_000)
        target, families = d1, list(itertools.islice(stream, 0, 12_000, 17))
    seen = Counter()
    for family in families:
        expected = check_agreement(target, family, mode=mode)
        for shape in (family[::-1], list(family), (df for df in family)):
            assert check_agreement(target, shape, mode=mode) == expected
        seen[expected.passed, expected.hypotheses_met] += 1
    assert seen[False, False] and seen[True, False] and seen[True, True]


def test_family_with_a_missing_or_duplicated_agent_is_refused(d1, d1_cf):
    a, b = next(enumerate_decision_profiles(d1, 2))
    for bad in ((a,), (b,), (), (a, b, a), (a, a), (b, a, b), [b, b]):
        with pytest.raises(InputError) as info:
            check_agreement(d1_cf, bad)
        assert str(info.value) == "decision family must contain exactly one function per agent"


def test_a_bool_is_not_a_count(d1, d1_cf):
    # Python counts True as 1: as an action count, a cell cap or a family cap it is refused
    family = next(enumerate_decision_profiles(d1, 2))
    cases = [
        (lambda: search_disagreement(d1, True), "actions must be a count or an iterable of action names, got True"),
        (lambda: next(enumerate_decision_profiles(d1, False, kind="field")),
         "actions must be a count or an iterable of action names, got False"),
        (lambda: decisions.normalize_actions(True), "actions must be a count or an iterable of action names, got True"),
        (lambda: partitions.resolve_max_cells(True), "cell cap must be an integer, got True"),
        (lambda: gamma(d1, "a", max_cells=True), "cell cap must be an integer, got True"),
        (lambda: check_agreement(d1_cf, family, max_cells=True), "cell cap must be an integer, got True"),
        (lambda: search_disagreement(d1, 2, max_cells=False), "cell cap must be an integer, got False"),
        (lambda: search_disagreement(d1, 2, max_families=True), "family cap must be an integer, got True"),
        (lambda: next(enumerate_decision_profiles(d1, 2, kind="field", max_families=False)),
         "family cap must be an integer, got False"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message


def test_arguments_of_the_wrong_type_raise_input_errors(d1, d1_cf):
    family = next(enumerate_decision_profiles(d1, 2))
    not_a_family = "decision family must be an iterable of decision functions"
    cases = [
        (lambda: check_agreement(d1_cf, None), not_a_family),
        (lambda: check_agreement(d1_cf, ["x"]), not_a_family),
        (lambda: check_agreement(d1_cf, family, group=5), "agent group must be an iterable of agent names"),
        (lambda: search_disagreement(d1, None), "actions must be a count or an iterable of action names, got None"),
        (lambda: next(enumerate_decision_profiles(d1, 2.0)),
         "actions must be a count or an iterable of action names, got 2.0"),
        (lambda: check_agreement(d1_cf, family, max_cells="3"), "cell cap must be an integer, got '3'"),
        (lambda: partitions.resolve_max_cells("3"), "cell cap must be an integer, got '3'"),
        (lambda: search_disagreement(d1, 2, max_families="5"), "family cap must be an integer, got '5'"),
    ]
    for call, message in cases:
        with pytest.raises(InputError) as info:
            call()
        assert str(info.value) == message
