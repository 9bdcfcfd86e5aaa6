"""Counterfactual construction and its verifier."""

import itertools
import random

import pytest

from epistemic import (
    CounterfactualStructure,
    InformationStructure,
    InputError,
    NotFoundError,
    PreconditionError,
    ResourceLimitError,
    build_counterfactual,
    counterfactual_state_name,
    equivalence_pairs,
    gamma,
    negative_introspection_counterexample,
    serialize_structure,
    verify_counterfactual,
)
from generators import random_partitional
from test_acceptance import _verified_corpus


def test_sizes_d1(d1, d1_cf):
    # one duplicate block of |states| per decision-domain event: (3 + 7) * 4
    assert len(d1_cf.labels) == 40
    assert len(d1_cf.structure.states) == 44
    assert d1_cf.actual == d1.full_event
    per_block = {}
    for label in d1_cf.labels.values():
        per_block.setdefault((label.agent, label.event), 0)
        per_block[(label.agent, label.event)] += 1
    assert set(per_block.values()) == {len(d1.states)}
    assert len(per_block) == 10


def test_rewiring_rules_d1(d1, d1_cf):
    S = d1_cf.structure
    full = d1.full_event
    # base inside the event: the constructing agent sees exactly the event
    lam = d1_cf.counterfactual_state("a", "w0", full)
    assert S.possibility_set("a", lam) == full
    # everyone else sees their own cell of the base state
    assert S.possibility_set("b", lam) == frozenset({"w0"})
    # base outside the event: the constructing agent keeps their original cell
    lam2 = d1_cf.counterfactual_state("a", "w2", {"w0", "w1"})
    assert S.possibility_set("a", lam2) == frozenset({"w2", "w3"})


def test_duplicate_spans_disjoint_cells(d1, d1_cf):
    # the full event spans both of a's cells, which never intersect, yet the
    # duplicate built over it sees the whole thing at once
    cells = [frozenset({"w0", "w1"}), frozenset({"w2", "w3"})]
    assert not (cells[0] & cells[1])
    lam = d1_cf.counterfactual_state("a", "w1", d1.full_event)
    assert d1_cf.structure.possibility_set("a", lam) == cells[0] | cells[1]


def test_counterfactual_state_lookup(d1_cf):
    name = d1_cf.counterfactual_state("a", "w0", {"w0", "w1"})
    assert name == counterfactual_state_name("a", "w0", {"w0", "w1"})
    assert name == "cf:a:w0:w0+w1"
    label = d1_cf.labels[name]
    assert (label.agent, label.base, label.event) == ("a", "w0", frozenset({"w0", "w1"}))
    with pytest.raises(NotFoundError):
        d1_cf.counterfactual_state("b", "w0", {"w5"})
    with pytest.raises(NotFoundError):
        d1_cf.counterfactual_state("a", "w0", {"w0"})  # {w0} is not in a's domain


def test_classification_kd4(d1_cf):
    report = d1_cf.structure.relation_properties()
    assert report.classification == "kd4"
    assert not report.flags["a"].euclidean
    assert not report.flags["b"].euclidean
    assert not report.flags["a"].reflexive
    assert all(f.serial and f.transitive for f in report.flags.values())


def test_negative_introspection_fails_on_d1_cf(d1_cf):
    S = d1_cf.structure
    witness = negative_introspection_counterexample(S)
    assert witness is not None
    agent, event, state = witness
    not_believed = S.full_event - S.belief(agent, event)
    assert state in not_believed
    assert state not in S.belief(agent, not_believed)


def test_verify_passes_on_build(d1, d1_cf):
    report = verify_counterfactual(d1, d1_cf)
    assert report.passed
    assert not report.failures()
    # the alternative component reading is surfaced, not failed
    note = report.check("include_self_reading_discrepancy")
    assert note.advisory and not note.passed
    assert report.check("pairwise_union_realized").passed


def test_verify_requires_matching_origin(d1, d1_cf):
    other = InformationStructure(
        ["w0", "w1"], ["a", "b"],
        {"a": equivalence_pairs([["w0", "w1"]]), "b": equivalence_pairs([["w0"], ["w1"]])},
    )
    with pytest.raises(InputError):
        verify_counterfactual(other, d1_cf)


def _mutate(d1_cf, drop_pair, agent):
    relations = {i: set(d1_cf.structure.relations[i]) for i in d1_cf.structure.agents}
    relations[agent].discard(drop_pair)
    mutated = InformationStructure(
        d1_cf.structure.states, d1_cf.structure.agents, relations, allow_plus_in_names=True
    )
    return CounterfactualStructure(
        structure=mutated, actual=d1_cf.actual, labels=d1_cf.labels, origin=d1_cf.origin
    )


def test_verify_flags_missing_pair_seriality(d1, d1_cf):
    # b's only successor of this duplicate is w0; dropping it breaks seriality
    lam = d1_cf.counterfactual_state("b", "w0", {"w3"})
    report = verify_counterfactual(d1, _mutate(d1_cf, (lam, "w0"), "b"))
    assert not report.passed
    assert not report.check("relations_serial").passed


def test_verify_flags_missing_pair_domain_escape(d1, d1_cf):
    # dropping one of four pairs leaves a belief that is no union of a's cells
    lam = d1_cf.counterfactual_state("a", "w0", d1.full_event)
    report = verify_counterfactual(d1, _mutate(d1_cf, (lam, "w3"), "a"))
    assert not report.passed
    assert not report.check("beliefs_in_decision_domain").passed


def test_truth_fails_at_every_duplicate(d1_cf):
    S = d1_cf.structure
    for name in d1_cf.labels:
        for agent in S.agents:
            believed = S.possibility_set(agent, name)
            assert name not in believed
            assert name in S.belief(agent, believed)  # believes it, yet it excludes the state


def test_axioms_k_d_4_hold_on_d1_cf(d1_cf):
    S = d1_cf.structure
    rng = random.Random(9)
    states = list(S.states)
    for _ in range(150):
        e = frozenset(s for s in states if rng.random() < 0.5)
        f = frozenset(s for s in states if rng.random() < 0.5)
        for agent in S.agents:
            be = S.belief(agent, e)
            assert S.belief(agent, (S.full_event - e) | f) & be <= S.belief(agent, f)
            assert be <= S.full_event - S.belief(agent, S.full_event - e)
            assert be <= S.belief(agent, be)


def test_secret_ignorance_biconditional_exhaustive_d1(d1, d1_cf):
    S = d1_cf.structure
    omega = sorted(d1.states)
    for event_tuple in itertools.chain.from_iterable(
        itertools.combinations(omega, r) for r in range(len(omega) + 1)
    ):
        e = frozenset(event_tuple)
        for agent in S.agents:
            for w, wp in itertools.product(omega, repeat=2):
                bw = S.possibility_set(agent, w)
                bwp = S.possibility_set(agent, wp)
                lam = d1_cf.counterfactual_state(agent, w, bw | bwp)
                left = bw <= e and bwp <= e
                right = S.possibility_set(agent, lam) <= e
                assert left == right


def test_every_domain_event_is_realized_at_inside_duplicates(d1, d1_cf):
    S = d1_cf.structure
    for agent in d1.agents:
        for event in gamma(d1, agent):
            for base in sorted(event):
                lam = d1_cf.counterfactual_state(agent, base, event)
                assert S.possibility_set(agent, lam) == event


def test_build_is_deterministic(d1):
    one = build_counterfactual(d1)
    two = build_counterfactual(d1)
    assert one == two
    assert serialize_structure(one) == serialize_structure(two)


def test_build_requires_partitional():
    S = InformationStructure(["x", "y"], ["i"], {"i": [("x", "y"), ("y", "y")]})
    with pytest.raises(PreconditionError):
        build_counterfactual(S)


def test_build_cell_cap(d1):
    with pytest.raises(ResourceLimitError):
        build_counterfactual(d1, max_cells=2)


def test_constructor_rejects_bad_shapes(d1, d1_cf):
    with pytest.raises(InputError):
        CounterfactualStructure(
            structure=d1_cf.structure, actual=d1_cf.actual, labels={}, origin=d1
        )
    relations = {i: set(d1_cf.structure.relations[i]) for i in d1_cf.structure.agents}
    lam = next(iter(d1_cf.labels))
    relations["a"].add(("w0", lam))  # points into the duplicates
    bad = InformationStructure(
        d1_cf.structure.states, d1_cf.structure.agents, relations, allow_plus_in_names=True
    )
    with pytest.raises(InputError):
        CounterfactualStructure(
            structure=bad, actual=d1_cf.actual, labels=d1_cf.labels, origin=d1
        )


def test_colon_heavy_names_cannot_collide_silently():
    # agent "a" with base "b:w0" and agent "a:b" with base "w0" would generate
    # the same duplicate name; the builder must refuse rather than mislabel
    states = ["b:w0", "w0"]
    S = InformationStructure(
        states,
        ["a", "a:b"],
        {
            "a": equivalence_pairs([["b:w0"], ["w0"]]),
            "a:b": equivalence_pairs([["b:w0"], ["w0"]]),
        },
    )
    with pytest.raises(InputError):
        build_counterfactual(S)


def test_random_corpus_builds_and_verifies():
    rng = random.Random(10)
    for _ in range(30):
        S = random_partitional(rng, max_cells=3)
        built = build_counterfactual(S)
        report = verify_counterfactual(S, built)
        assert report.passed, report.failures()
        assert built.structure.restricted_to(built.actual) == S


# ---------------------------------------------------------------------------
# exact checks against their definitions
# ---------------------------------------------------------------------------


def biconditional_reference(built):
    """(bel(w), bel(w') <= E) <=> (bel(lambda) <= E) for every event E over the
    actual states, every agent and every pair of actual states."""
    S = built.structure
    omega = sorted(built.actual)
    triples = []
    for agent in S.agents:
        for w, wp in itertools.product(omega, repeat=2):
            bw, bwp = S.possibility_set(agent, w), S.possibility_set(agent, wp)
            try:
                lam = built.counterfactual_state(agent, w, bw | bwp)
            except NotFoundError:
                return False
            triples.append((bw, bwp, S.possibility_set(agent, lam)))
    return all(
        (bw <= e and bwp <= e) == (blam <= e)
        for r in range(len(omega) + 1)
        for e in map(frozenset, itertools.combinations(omega, r))
        for bw, bwp, blam in triples
    )


def pairwise_union_reference(built):
    """The union of the beliefs at any two states is believed exactly at the
    duplicate based at that union's first state."""
    S = built.structure

    def realized(agent, union):
        try:
            lam = built.counterfactual_state(agent, min(union), union)
        except (NotFoundError, ValueError):  # ValueError: min() of the empty union
            return False
        return S.possibility_set(agent, lam) == union

    for agent in S.agents:
        beliefs = [S.possibility_set(agent, w) for w in S.states]
        unions = {bw | bwp for bw, bwp in itertools.product(beliefs, repeat=2)}
        if not all(realized(agent, union) for union in unions):
            return False
    return True


def _damage(rng, built):
    """Drop one relation pair and, about a third of the time, add a stray pair
    into the actual states."""
    S = built.structure
    relations = {i: set(S.relations[i]) for i in S.agents}
    agent = rng.choice(S.agents)
    relations[agent].discard(rng.choice(sorted(relations[agent])))
    if rng.random() < 0.3:
        relations[rng.choice(S.agents)].add((rng.choice(S.states), rng.choice(sorted(built.actual))))
    damaged = InformationStructure(S.states, S.agents, relations, allow_plus_in_names=True)
    return CounterfactualStructure(
        structure=damaged, actual=built.actual, labels=built.labels, origin=built.origin
    )


def test_exact_checks_match_their_definitions():
    rng = random.Random(106)
    outcomes = {"secret_ignorance_biconditional": set(), "pairwise_union_realized": set()}
    failed = 0
    for S, built, audit in _verified_corpus():
        assert audit.passed
        assert biconditional_reference(built) and pairwise_union_reference(built)
        damaged = _damage(rng, built)
        report = verify_counterfactual(S, damaged)
        bi = report.check("secret_ignorance_biconditional").passed
        pu = report.check("pairwise_union_realized").passed
        assert bi == biconditional_reference(damaged)
        assert pu == pairwise_union_reference(damaged)
        outcomes["secret_ignorance_biconditional"].add(bi)
        outcomes["pairwise_union_realized"].add(pu)
        failed += not report.passed
    # both checks are seen to pass and to fail, so the agreement is not vacuous
    assert all(seen == {True, False} for seen in outcomes.values())
    assert failed >= 190
