"""Core operators: possibility sets, belief, mutual/common belief, components."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epistemic import (
    CounterfactualStructure,
    DecisionFunction,
    InformationStructure,
    InputError,
    RelationFlags,
    build_counterfactual,
    canonical_event_string,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    complete_stp_field,
    decisions_to_document,
    enumerate_decision_profiles,
    equivalence_class,
    equivalence_pairs,
    euclidean_counterexample,
    flaw_report,
    gamma,
    negative_introspection_counterexample,
    parse_event_string,
    parse_structure,
    partition,
    powerset_field,
    search_disagreement,
    serialize_decisions,
    serialize_structure,
    union_of_gammas,
    verify_counterfactual,
)
from epistemic import d1 as make_d1
from epistemic.structures import validate_token
from generators import (
    random_belief_structure,
    random_event,
    random_partitional,
    random_structure,
)
from oracles import first_row_faults_reference


def mutual_once(S, group, event):
    out = set(S.states)
    for agent in group:
        out &= S.belief(agent, event)
    return frozenset(out)


def common_belief_bruteforce(S, group, event):
    """Independent oracle: intersect the full trajectory of iterated mutual belief.

    The trajectory of a deterministic map on a finite lattice is eventually
    periodic, so intersecting every value seen up to the first repeat equals
    the infinite intersection.
    """
    seen = []
    current = frozenset(event)
    while True:
        current = mutual_once(S, group, current)
        if current in seen:
            break
        seen.append(current)
    out = frozenset(S.states)
    for value in seen:
        out &= value
    return out


def all_groups(S):
    return [
        g
        for r in range(1, len(S.agents) + 1)
        for g in itertools.combinations(S.agents, r)
    ]


def all_events(S):
    return [
        frozenset(c)
        for r in range(len(S.states) + 1)
        for c in itertools.combinations(S.states, r)
    ]


@st.composite
def structures(draw, max_states=5, max_agents=3):
    n = draw(st.integers(1, max_states))
    m = draw(st.integers(1, max_agents))
    states = [f"s{k}" for k in range(n)]
    agents = [chr(ord("a") + k) for k in range(m)]
    relations = {
        a: draw(
            st.frozensets(st.tuples(st.sampled_from(states), st.sampled_from(states)))
        )
        for a in agents
    }
    return InformationStructure(states, agents, relations)


@st.composite
def structure_and_events(draw):
    S = draw(structures())
    e = frozenset(draw(st.frozensets(st.sampled_from(S.states))))
    f = frozenset(draw(st.frozensets(st.sampled_from(S.states))))
    return S, e, f


# ---------------------------------------------------------------------------
# possibility sets
# ---------------------------------------------------------------------------


def test_possibility_sets_d1(d1):
    expected = {
        ("a", "w0"): {"w0", "w1"},
        ("a", "w1"): {"w0", "w1"},
        ("a", "w2"): {"w2", "w3"},
        ("a", "w3"): {"w2", "w3"},
        ("b", "w0"): {"w0"},
        ("b", "w1"): {"w1", "w2"},
        ("b", "w2"): {"w1", "w2"},
        ("b", "w3"): {"w3"},
    }
    for (agent, state), members in expected.items():
        assert d1.possibility_set(agent, state) == frozenset(members)


def test_possibility_set_empty_relation():
    S = InformationStructure(["x", "y"], ["i"], {"i": []})
    assert S.possibility_set("i", "x") == frozenset()


def test_possibility_set_rejects_unknown_names(d1):
    with pytest.raises(InputError):
        d1.possibility_set("a", "w9")
    with pytest.raises(InputError):
        d1.possibility_set("z", "w0")


# ---------------------------------------------------------------------------
# belief and mutual belief
# ---------------------------------------------------------------------------


def test_belief_d1(d1):
    assert d1.belief("a", {"w0", "w1"}) == frozenset({"w0", "w1"})
    assert d1.belief("b", {"w0", "w1"}) == frozenset({"w0"})
    assert d1.belief("a", d1.full_event) == d1.full_event


def test_belief_rejects_unknown_state(d1):
    with pytest.raises(InputError):
        d1.belief("a", {"w0", "nope"})


def test_mutual_belief_d1(d1):
    assert d1.mutual_belief(["a", "b"], {"w0", "w1"}) == frozenset({"w0"})
    assert d1.mutual_belief(["a", "b"], d1.full_event) == d1.full_event
    for event in all_events(d1):
        assert d1.mutual_belief(["a"], event) == d1.belief("a", event)


def test_mutual_belief_rejects_empty_group(d1):
    with pytest.raises(InputError):
        d1.mutual_belief([], {"w0"})


# ---------------------------------------------------------------------------
# common belief
# ---------------------------------------------------------------------------


def test_common_belief_d1(d1):
    group = ["a", "b"]
    assert d1.common_belief_iterative(group, d1.full_event) == d1.full_event
    assert d1.common_belief_iterative(group, {"w0", "w1", "w2"}) == frozenset()
    assert d1.common_belief_iterative(group, frozenset()) == frozenset()
    assert d1.common_belief_component(group, d1.full_event) == d1.full_event
    assert d1.common_belief_component(group, {"w0", "w1", "w2"}) == frozenset()


def test_common_belief_three_routes_random():
    rng = random.Random(7)
    for _ in range(300):
        S = random_structure(rng)
        for group in all_groups(S):
            for event in all_events(S):
                oracle = common_belief_bruteforce(S, group, event)
                assert S.common_belief_iterative(group, event) == oracle
                assert S.common_belief_component(group, event) == oracle


@given(structure_and_events())
@settings(max_examples=150, deadline=None)
def test_common_belief_characterizations_agree(data):
    S, e, _ = data
    for group in all_groups(S):
        assert S.common_belief_iterative(group, e) == S.common_belief_component(group, e)


def test_fixpoint_stabilizes_within_state_count():
    rng = random.Random(11)
    for _ in range(200):
        S = random_structure(rng)
        for group in all_groups(S):
            for event in (random_event(rng, S), frozenset(), S.full_event):
                chain = S._common_belief_chain(group, S._mask(event))
                strict = sum(1 for a, b in zip(chain, chain[1:]) if a != b)
                assert strict <= len(S.states)


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------


def test_component_d1(d1):
    assert d1.component(["a", "b"], "w0") == d1.full_event
    assert d1.component(["a"], "w0") == frozenset({"w0", "w1"})


def test_component_empty_relations_is_self_only():
    S = InformationStructure(["x", "y"], ["i"], {"i": []})
    assert S.component(["i"], "x") == frozenset({"x"})
    assert S.component_successors(["i"], "x") == frozenset()


def test_component_contains_self_always():
    rng = random.Random(3)
    for _ in range(100):
        S = random_structure(rng)
        for group in all_groups(S):
            for w in S.states:
                assert w in S.component(group, w)


# ---------------------------------------------------------------------------
# monotonicity and axioms
# ---------------------------------------------------------------------------


@given(structure_and_events())
@settings(max_examples=150, deadline=None)
def test_monotonicity(data):
    S, e, f = data
    small, large = e & f, e | f
    for agent in S.agents:
        assert S.belief(agent, small) <= S.belief(agent, large)
    for group in all_groups(S):
        assert S.mutual_belief(group, small) <= S.mutual_belief(group, large)
        assert S.common_belief_iterative(group, small) <= S.common_belief_iterative(group, large)


@given(structure_and_events())
@settings(max_examples=150, deadline=None)
def test_axiom_k_everywhere(data):
    S, e, f = data
    not_e_or_f = (S.full_event - e) | f
    for agent in S.agents:
        assert S.belief(agent, not_e_or_f) & S.belief(agent, e) <= S.belief(agent, f)


def test_partitional_axioms_t_4_5_d():
    rng = random.Random(21)
    for _ in range(60):
        S = random_partitional(rng)
        assert S.relation_properties().classification == "partitional"
        for event in all_events(S):
            for agent in S.agents:
                b = S.belief(agent, event)
                assert b <= event  # T
                assert b <= S.belief(agent, b)  # 4
                not_b = S.full_event - b
                assert not_b <= S.belief(agent, not_b)  # 5
                assert b <= S.full_event - S.belief(agent, S.full_event - event)  # D


def test_belief_structure_axioms_and_truth_failure():
    rng = random.Random(22)
    truth_failed_somewhere = False
    for _ in range(80):
        S = random_belief_structure(rng)
        flags = S.relation_properties().flags
        assert all(f.serial and f.transitive and f.euclidean for f in flags.values())
        for event in all_events(S):
            for agent in S.agents:
                b = S.belief(agent, event)
                assert b <= S.belief(agent, b)  # 4
                not_b = S.full_event - b
                assert not_b <= S.belief(agent, not_b)  # 5
                assert b <= S.full_event - S.belief(agent, S.full_event - event)  # D
                if not b <= event:
                    truth_failed_somewhere = True
    assert truth_failed_somewhere


# ---------------------------------------------------------------------------
# relation properties and counterexample finders
# ---------------------------------------------------------------------------


def test_relation_properties_d1(d1):
    report = d1.relation_properties()
    assert report.classification == "partitional"
    for flags in report.flags.values():
        assert flags.serial and flags.reflexive and flags.transitive and flags.euclidean


def test_relation_properties_report_is_shared_read_only(d1):
    report = d1.relation_properties()
    with pytest.raises(TypeError):
        report.flags["a"] = RelationFlags(False, False, False, False)
    with pytest.raises(TypeError):
        del report.flags["b"]
    assert d1.relation_properties() == report
    assert d1.is_partitional()
    fresh = InformationStructure(d1.states, d1.agents, d1.relations)
    assert fresh.relation_properties() == report


def test_relation_flags_match_pair_definitions():
    # the flags are tested once per distinct successor row; this is the per-pair definition
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        S = random_structure(rng)
        for agent, flags in S.relation_properties().flags.items():
            succ = {s: {v for u, v in S.relations[agent] if u == s} for s in S.states}
            want = RelationFlags(
                serial=all(succ[s] for s in S.states),
                reflexive=all(s in succ[s] for s in S.states),
                transitive=all(succ[v] <= succ[u] for u in S.states for v in succ[u]),
                euclidean=all(succ[u] <= succ[v] for u in S.states for v in succ[u]),
            )
            assert flags == want
            seen.update((name, getattr(want, name)) for name in ("serial", "reflexive", "transitive", "euclidean"))
    assert len(seen) == 8


def test_empty_relation_not_serial():
    S = InformationStructure(["x"], ["i"], {"i": []})
    report = S.relation_properties()
    assert not report.flags["i"].serial
    assert report.classification == "other"


def test_identity_relation_is_partitional():
    S = InformationStructure(["x", "y"], ["i"], {"i": [("x", "x"), ("y", "y")]})
    assert S.relation_properties().classification == "partitional"


def test_counterexample_finders_are_sound():
    rng = random.Random(5)
    found = 0
    for _ in range(200):
        S = random_structure(rng)
        ce = euclidean_counterexample(S)
        flags = S.relation_properties().flags
        # reflexive and euclidean together entail transitive
        assert all(f.transitive for f in flags.values() if f.reflexive and f.euclidean)
        if all(f.euclidean for f in flags.values()):
            assert ce is None
            continue
        found += 1
        agent, w, u, v = ce
        ps = S.possibility_set(agent, w)
        assert u in ps and v in ps
        assert v not in S.possibility_set(agent, u)
        ni = negative_introspection_counterexample(S)
        agent, event, state = ni
        not_believed = S.full_event - S.belief(agent, event)
        assert state in not_believed
        assert state not in S.belief(agent, not_believed)
    assert found > 50


def test_first_faults_are_the_first_of_the_per_state_scans():
    rng = random.Random(113)
    found = {"serial": 0, "nesting": 0, "euclidean": 0}
    for _ in range(200):
        S = random_structure(rng)
        refs = [(a, first_row_faults_reference(S, a)) for a in S.agents]
        for a, (serial, nesting, euclidean) in refs:
            empty, first_nesting, _ = S._first_faults(a)
            assert (None if empty is None else S.states[empty]) == serial
            assert (None if first_nesting is None else tuple(S.states[k] for k in first_nesting)) == nesting
            assert euclidean_counterexample(S, a) == (None if euclidean is None else (a, *euclidean))
            found["serial"] += serial is not None
            found["nesting"] += nesting is not None
            found["euclidean"] += euclidean is not None
        assert euclidean_counterexample(S) == next(((a, *ref[2]) for a, ref in refs if ref[2]), None)
    assert min(found.values()) >= 50


# ---------------------------------------------------------------------------
# construction validation and event strings
# ---------------------------------------------------------------------------


def test_name_validation():
    with pytest.raises(InputError):
        InformationStructure(["a b"], ["i"], {"i": []})
    with pytest.raises(InputError):
        InformationStructure(["w+1"], ["i"], {"i": []})
    with pytest.raises(InputError):
        InformationStructure([""], ["i"], {"i": []})
    with pytest.raises(InputError):
        InformationStructure(["w", "w"], ["i"], {"i": []})
    with pytest.raises(InputError):
        InformationStructure(["w"], ["i"], {})
    with pytest.raises(InputError):
        InformationStructure(["w"], ["i"], {"i": [], "j": []})
    with pytest.raises(InputError):
        InformationStructure(["w"], ["i"], {"i": [("w", "v")]})


_PAIRS = "relations must map each agent to an iterable of (from, to) state-name pairs"
_FIELD = "field must be an iterable of events, got 5"
_FIELD_DF = DecisionFunction("a", "field", {frozenset({"w0"}): "x"})
_STRUCTURE = "structure must be an information structure, got 5"
_FAMILY = "decision family must be an iterable of decision functions"

# (call, message): a wrong-typed argument to a public entry point raises InputError
WRONG_TYPES = {
    "relations-of-an-agent-not-iterable": (lambda: InformationStructure(["w0"], ["a"], {"a": 5}), _PAIRS),
    "relation-target-unhashable": (lambda: InformationStructure(["w0"], ["a"], {"a": [("w0", ["x"])]}), _PAIRS),
    "relation-source-unhashable": (lambda: InformationStructure(["w0"], ["a"], {"a": [(["x"], "w0")]}), _PAIRS),
    "relations-as-list-of-names": (lambda: InformationStructure(["w0"], ["a"], ["a"]), _PAIRS),
    "relations-as-list-of-lists": (lambda: InformationStructure(["w0"], ["a"], [["w0", "w0"]]), _PAIRS),
    # a list of hashable pairs keeps the message it had
    "relations-as-list-of-pairs": (
        lambda: InformationStructure(["w0"], ["a"], [("w0", "w0")]),
        "relations must be given for exactly the declared agents (missing ['a'], extra [('w0', 'w0')])"),
    "relation-entry-not-a-pair": (lambda: InformationStructure(["w0"], ["a"], {"a": [5]}),
                                  "relation entry 5 for agent 'a' is not a pair"),
    "states-not-iterable": (lambda: InformationStructure(5, ["a"], {"a": []}),
                            "states must be an iterable of state names, got 5"),
    "agents-not-iterable": (lambda: InformationStructure(["w0"], 5, {"a": []}),
                            "agents must be an iterable of agent names, got 5"),
    "event-not-iterable": (lambda: make_d1().belief("a", 5), "an event must be an iterable of state names, got 5"),
    "event-member-unhashable": (lambda: make_d1().belief("a", [["w0"]]), "unknown state ['w0']"),
    "state-unhashable": (lambda: make_d1().possibility_set("a", ["w0"]), "unknown state ['w0']"),
    "stp-field-not-iterable": (lambda: check_stp_field(5, _FIELD_DF), _FIELD),
    "completed-field-not-iterable": (lambda: complete_stp_field(5, {}), _FIELD),
    "decision-table-not-a-mapping": (lambda: DecisionFunction("a", "field", 5),
                                     "decision table for agent 'a' must map events to actions, got 5"),
    "decision-event-not-iterable": (lambda: DecisionFunction("a", "field", {5: "x"}),
                                    "decision table for agent 'a' must map events to actions, got {5: 'x'}"),
    "enumerated-field-not-iterable": (
        lambda: next(enumerate_decision_profiles(make_d1(), 2, kind="field", field=5)), _FIELD),
    "like-minded-family-not-iterable": (lambda: check_like_minded(make_d1(), 5),
                                        "decision family must be an iterable of decision functions"),
    "like-minded-family-of-ints": (lambda: check_like_minded(make_d1(), [5]),
                                   "decision family must be an iterable of decision functions"),
    "relax-not-iterable": (lambda: search_disagreement(make_d1(), 2, relax=5),
                           "relax must be an iterable of hypothesis names, got 5"),
    "gamma-agent-unhashable": (lambda: gamma(make_d1(), ["a"]), "unknown agent ['a']"),
    "possibility-agent-unhashable": (lambda: make_d1().possibility_set(["a"], "w0"), "unknown agent ['a']"),
    "stp-gamma-function-not-a-decision-function": (
        lambda: check_stp_gamma(make_d1(), 5),
        "the Sure-Thing Principle check needs a structure and a decision function"),
    "build-source-not-a-structure": (lambda: build_counterfactual(5),
                                     "counterfactual construction needs an information structure"),
    "verified-build-not-a-counterfactual": (lambda: verify_counterfactual(make_d1(), 5),
                                            "verification needs a counterfactual structure"),
    "restricted-states-not-iterable": (lambda: make_d1().restricted_to(5),
                                       "states must be an iterable of state names, got 5"),
    "parsed-text-not-text": (lambda: parse_structure(5), "a document must be JSON text, got 5"),
    "counterfactual-event-not-iterable": (
        lambda: build_counterfactual(make_d1()).counterfactual_state("a", "w0", 5),
        "an event must be an iterable of state names, got 5"),
    "labels-not-a-mapping": (lambda: CounterfactualStructure(make_d1(), make_d1().states, 5, make_d1()),
                             "labels must map state names to counterfactual labels, got 5"),
    "actual-states-not-iterable": (lambda: CounterfactualStructure(make_d1(), 5, {}, make_d1()),
                                   "states must be an iterable of state names, got 5"),
    "carrier-not-a-structure": (lambda: CounterfactualStructure(5, make_d1().states, {}, make_d1()), _STRUCTURE),
    "origin-not-a-structure": (lambda: CounterfactualStructure(make_d1(), make_d1().states, {}, 5),
                               "origin must be an information structure, got 5"),
    "stp-field-function-not-a-decision-function": (
        lambda: check_stp_field([frozenset({"w0"})], 5),
        "the Sure-Thing Principle check needs a field and a decision function"),
    "like-minded-structure-not-a-structure": (
        lambda: check_like_minded(5, next(enumerate_decision_profiles(make_d1(), 2))),
        "gamma-kind like-mindedness needs the underlying structure"),
    "completed-table-not-a-mapping": (lambda: complete_stp_field([frozenset({"w0"})], 5),
                                      "table must map field events to actions, got 5"),
    "gamma-structure-not-a-structure": (lambda: gamma(5, "a"), _STRUCTURE),
    "partition-structure-not-a-structure": (lambda: partition(5, "a"), _STRUCTURE),
    "flaw-report-structure-not-a-structure": (lambda: flaw_report(5, "a"), _STRUCTURE),
    "equivalence-class-structure-not-a-structure": (lambda: equivalence_class(5, "a", "w0"), _STRUCTURE),
    "powerset-structure-not-a-structure": (lambda: powerset_field(5), _STRUCTURE),
    "union-of-gammas-structure-not-a-structure": (lambda: union_of_gammas(5), _STRUCTURE),
    "enumerated-structure-not-a-structure": (lambda: next(enumerate_decision_profiles(5, 2)), _STRUCTURE),
    "documented-family-not-iterable": (lambda: decisions_to_document(5), _FAMILY),
    "documented-family-of-ints": (lambda: decisions_to_document([5]), _FAMILY),
    "serialized-family-not-iterable": (lambda: serialize_decisions(5), _FAMILY),
    "equivalence-cells-not-iterable": (lambda: equivalence_pairs(5),
                                       "cells must be an iterable of iterables of state names, got 5"),
    "euclidean-structure-not-a-structure": (lambda: euclidean_counterexample(5), _STRUCTURE),
    "introspection-structure-not-a-structure": (lambda: negative_introspection_counterexample(5), _STRUCTURE),
}


@pytest.mark.parametrize("call, message", WRONG_TYPES.values(), ids=list(WRONG_TYPES))
def test_wrong_typed_arguments_raise_input_error(call, message):
    with pytest.raises(InputError) as err:
        call()
    assert str(err.value) == message


def _rejected(name, **kwargs):
    try:
        validate_token(name, "state", **kwargs)
    except InputError:
        return True
    return False


def test_validate_token_matches_per_character_rule():
    """Tokens are refused for any whitespace or unprintable character; the
    check is whole-string, relying on the space being the one printable
    whitespace code point."""
    code_points = [chr(k) for k in range(sys.maxunicode + 1)]
    bad = [c for c in code_points if c.isspace() or not c.isprintable()]
    # the whole-string predicate agrees with the per-character rule on every code point
    assert bad == [c for c in code_points if not c.isprintable() or " " in c]
    bad_set = set(bad)
    validate_token("".join(c for c in code_points if c not in bad_set), "state")
    # every whitespace and Latin-1 refusal, and a spread sample of the rest
    for c in [c for c in bad if c.isspace() or ord(c) < 0x100] + bad[::97]:
        assert _rejected(c) and _rejected(f"w{c}0")
    for name in ("a b", "a\tb", "a\xa0b", "a\u2028b", " w", "w\n"):
        assert any(c.isspace() or not c.isprintable() for c in name)
        assert _rejected(name)
    assert _rejected("w+1", allow_plus=False)
    assert not _rejected("w+1")


def test_restricted_to(d1):
    sub = d1.restricted_to(["w0", "w1"])
    assert sub.states == ("w0", "w1")
    assert sub.relations["b"] == frozenset({("w0", "w0"), ("w1", "w1")})
    assert d1.restricted_to(d1.states) == d1


def test_relations_are_stored_only_as_masks(d1):
    assert "_pairs" not in InformationStructure.__slots__ and not hasattr(d1, "_pairs")


def test_mutating_the_returned_relations_changes_nothing():
    S = make_d1()
    text = serialize_structure(S)
    before = S.possibility_set("a", "w0")
    S.relations["a"] = frozenset()
    S.relations["b"] = frozenset({("w0", "w3")})
    assert serialize_structure(S) == text
    assert S == make_d1()
    assert S.possibility_set("a", "w0") == before == frozenset({"w0", "w1"})
    assert S.relations["a"] == make_d1().relations["a"]
    assert S.relations is not S.relations


def test_event_string_roundtrip():
    assert canonical_event_string({"w1", "w0"}) == "w0+w1"
    assert canonical_event_string(set()) == ""
    assert parse_event_string("w0+w1") == frozenset({"w0", "w1"})
    assert parse_event_string("") == frozenset()
    with pytest.raises(InputError):
        parse_event_string("w1+w0")
    with pytest.raises(InputError):
        parse_event_string("w0+w0")
    with pytest.raises(InputError):
        parse_event_string("+w0")
