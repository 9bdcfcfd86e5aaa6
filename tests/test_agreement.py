"""Agreement verdicts and the disagreement search."""

import random

import pytest

from epistemic import (
    ActionAssignment,
    DecisionFunction,
    InputError,
    agreement_event,
    check_agreement,
    check_like_minded,
    check_stp_gamma,
    enumerate_decision_profiles,
    gamma,
    powerset_field,
    search_disagreement,
)
from generators import random_partitional


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
        fast = check_agreement(d1_cf, family, mode="theorem2", prune=True)
        slow = check_agreement(d1_cf, family, mode="theorem2", prune=False)
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


def test_search_none_on_random_partitional_structures():
    rng = random.Random(47)
    for _ in range(8):
        S = random_partitional(rng, max_states=4, max_cells=2)
        assert search_disagreement(S, 2, relax=[]) is None
