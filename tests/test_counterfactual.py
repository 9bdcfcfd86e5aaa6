"""Counterfactual construction and its verifier."""

import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from epistemic import (
    CLASS_BELIEF,
    CLASS_KD4,
    CheckResult,
    CounterfactualLabel,
    CounterfactualStructure,
    DecisionFunction,
    InformationStructure,
    InputError,
    NotFoundError,
    PreconditionError,
    ResourceLimitError,
    build_counterfactual,
    canonical_event_string,
    check_agreement,
    counterfactual_state_name,
    equivalence_pairs,
    euclidean_counterexample,
    gamma,
    negative_introspection_counterexample,
    parse_structure,
    serialize_structure,
    structure_to_document,
    verify_counterfactual,
)
from epistemic import d1 as make_d1
from epistemic.cli import main
from epistemic.counterfactual import _verification_groups
from generators import random_belief_structure, random_partitional, random_structure
from oracles import (
    build_counterfactual_reference,
    first_row_faults_reference,
    reach_masks_per_state,
    restricted_to_reference,
)
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


def _relabelled(built, changes):
    """The label map with some labels changed, {position: change}: a change is either new field
    values, or the position of the label whose triple the label takes."""
    labels = dict(built.labels)
    names = list(labels)
    for k, change in changes.items():
        if isinstance(change, int):
            labels[names[k]] = labels[names[change]]
        else:
            labels[names[k]] = dataclasses.replace(labels[names[k]], **change)
    return labels


@pytest.mark.parametrize("changes, message", [
    ({3: {"agent": "z"}}, "label for 'cf:a:w3:w0+w1' names unknown agent 'z'"),
    ({3: {"base": "cf:a:w0:w0+w1"}}, "label for 'cf:a:w3:w0+w1' has non-actual base 'cf:a:w0:w0+w1'"),
    ({3: {"event": frozenset({"nowhere"})}}, "label for 'cf:a:w3:w0+w1' has an event outside the actual states"),
    ({3: {"event": frozenset()}}, "label for 'cf:a:w3:w0+w1' has an event outside the actual states"),
    ({3: 2}, "duplicate label triple for 'cf:a:w3:w0+w1' and 'cf:a:w2:w0+w1'"),
    # the first faulty label in label order decides, whatever its fault
    ({3: 2, 4: {"agent": "z"}}, "duplicate label triple for 'cf:a:w3:w0+w1' and 'cf:a:w2:w0+w1'"),
    ({5: 2, 3: {"agent": "z"}}, "label for 'cf:a:w3:w0+w1' names unknown agent 'z'"),
    ({3: {"base": "cf:a:w0:w0+w1"}, 4: {"agent": "z"}},
     "label for 'cf:a:w3:w0+w1' has non-actual base 'cf:a:w0:w0+w1'"),
    ({4: {"base": "cf:a:w0:w0+w1"}, 3: {"agent": "z"}}, "label for 'cf:a:w3:w0+w1' names unknown agent 'z'"),
])
def test_constructor_label_errors_keep_their_messages(d1_cf, changes, message):
    with pytest.raises(InputError) as err:
        CounterfactualStructure(structure=d1_cf.structure, actual=d1_cf.actual,
                                labels=_relabelled(d1_cf, changes), origin=d1_cf.origin)
    assert str(err.value) == message


def test_constructor_refuses_labels_that_do_not_cover_the_duplicates(d1_cf):
    names = list(d1_cf.labels)
    fewer = {k: v for k, v in d1_cf.labels.items() if k != names[3]}
    more = {**d1_cf.labels, "w0": d1_cf.labels[names[3]]}  # an actual state labelled too
    for labels in (fewer, more):
        with pytest.raises(InputError) as err:
            CounterfactualStructure(structure=d1_cf.structure, actual=d1_cf.actual, labels=labels,
                                    origin=d1_cf.origin)
        assert str(err.value) == "labels must cover exactly the non-actual states"


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


# ---------------------------------------------------------------------------
# the mask verifier against the frozenset verifier it replaced
# ---------------------------------------------------------------------------


def reference_verify(source, built):
    """The verifier as it was written over frozensets, one possibility set per
    state; returns its checks."""
    S = built.structure
    actual = built.actual
    agents = S.agents
    lam = sorted(built.labels)
    checks = []

    def add(name, passed, detail="", advisory=False):
        checks.append(CheckResult(name=name, passed=passed, detail=detail, advisory=advisory))

    domains = {i: gamma(source, i) for i in agents}
    expected = {
        (i, w, canonical_event_string(e))
        for i in agents
        for e in domains[i]
        for w in source.states
    }
    got = {(l.agent, l.base, canonical_event_string(l.event)) for l in built.labels.values()}
    if got == expected:
        add("lambda_blocks_complete", True,
            f"{len(lam)} duplicates = sum over agents of |domain| x {len(actual)} originals")
    else:
        missing = sorted(expected - got)[:3]
        extra = sorted(got - expected)[:3]
        add("lambda_blocks_complete", False, f"missing {missing}, unexpected {extra}")

    bad_target = next(
        (
            (i, src, dst)
            for i in agents
            for (src, dst) in sorted(S.relations[i])
            if dst not in actual
        ),
        None,
    )
    add(
        "relations_target_actual",
        bad_target is None,
        "" if bad_target is None else f"agent {bad_target[0]} pair {bad_target[1:]} points at a duplicate",
    )

    restriction_ok = S.restricted_to(actual) == source
    add("restriction_matches_source", restriction_ok,
        "" if restriction_ok else "restricting to the actual states does not reproduce the source")

    serial_witness = None
    transitive_witness = None
    for i in agents:
        for w in S.states:
            ps = S.possibility_set(i, w)
            if not ps and serial_witness is None:
                serial_witness = (i, w)
            for v in sorted(ps):
                if not S.possibility_set(i, v) <= ps and transitive_witness is None:
                    transitive_witness = (i, w, v)
    add("relations_serial", serial_witness is None,
        "" if serial_witness is None else f"agent {serial_witness[0]} has no successor at {serial_witness[1]}")
    add("belief_nesting", transitive_witness is None,
        "" if transitive_witness is None
        else f"agent {transitive_witness[0]}: possibility set at {transitive_witness[2]} "
             f"escapes the one at {transitive_witness[1]}")

    mismatch = next(
        (
            (i, w)
            for i in agents
            for w in sorted(actual)
            if S.possibility_set(i, w) != source.possibility_set(i, w)
        ),
        None,
    )
    add("actual_beliefs_match_source", mismatch is None,
        "" if mismatch is None else f"agent {mismatch[0]} at {mismatch[1]}")

    reach_witness = None
    union_witness = None
    for g in _verification_groups(agents):
        for w in S.states:
            reach = S.component_successors(g, w)
            if not reach <= actual and reach_witness is None:
                reach_witness = (g, w, sorted(reach - actual)[0])
            for i in g:
                covered = frozenset().union(*(S.possibility_set(i, v) for v in reach)) if reach else frozenset()
                if covered != reach and union_witness is None:
                    union_witness = (g, w, i)
    add("reach_stays_actual", reach_witness is None,
        "" if reach_witness is None
        else f"group {reach_witness[0]}: {reach_witness[2]} is reachable from {reach_witness[1]}")
    add("reach_union_identity", union_witness is None,
        "" if union_witness is None
        else f"group {union_witness[0]}, agent {union_witness[2]}, start {union_witness[1]}")
    add(
        "include_self_reading_discrepancy",
        not lam,
        "under the include-self reading every duplicate belongs to its own component, "
        "which then leaves the actual states; the successors-only reading above is the verified one",
        advisory=True,
    )

    domain_sets = {i: set(domains[i]) for i in agents}
    stray = next(
        (
            (i, w)
            for i in agents
            for w in S.states
            if S.possibility_set(i, w) not in domain_sets[i]
        ),
        None,
    )
    add("beliefs_in_decision_domain", stray is None,
        "" if stray is None
        else f"agent {stray[0]} at {stray[1]}: {canonical_event_string(S.possibility_set(stray[0], stray[1]))}")

    unrealized = None
    for i in agents:
        for e in domains[i]:
            for w in sorted(e):
                try:
                    name = built.counterfactual_state(i, w, e)
                except NotFoundError:
                    unrealized = (i, e, "missing duplicate")
                    break
                if S.possibility_set(i, name) != e:
                    unrealized = (i, e, f"belief at {name} differs")
                    break
            if unrealized:
                break
        if unrealized:
            break
    add("every_domain_event_realized", unrealized is None,
        "" if unrealized is None
        else f"agent {unrealized[0]}, event {canonical_event_string(unrealized[1])}: {unrealized[2]}")

    deluded = all(name not in S.possibility_set(i, name) for name in lam for i in agents)
    t_witness = ""
    if lam:
        i0 = agents[0]
        l0 = lam[0]
        t_witness = (
            f"e.g. agent {i0} at {l0} believes "
            f"{canonical_event_string(S.possibility_set(i0, l0))} which excludes {l0}"
        )
    add("truth_fails_at_duplicates", deluded and bool(lam), t_witness)

    bel = {i: dict(zip(S.states, S._succ[i])) for i in agents}

    def realized(i, base, u):
        try:
            name = built.counterfactual_state(i, base, S._unmask(u))
        except NotFoundError:
            return False
        return bel[i][name] == u

    omega_sorted = sorted(actual)
    bi_witness = next(
        (
            (i, w, wp)
            for i in agents
            for w, wp in itertools.product(omega_sorted, repeat=2)
            if not realized(i, w, bel[i][w] | bel[i][wp])
        ),
        None,
    )
    add("secret_ignorance_biconditional", bi_witness is None,
        f"exact: checked as a mask equality for all {len(agents) * len(actual) ** 2} agent/base pairs"
        if bi_witness is None else f"fails for agent/base pair {bi_witness}")

    union_real = all(
        u and realized(i, min(S._unmask(u)), u)
        for i in agents
        for a, b in itertools.combinations_with_replacement(sorted(set(bel[i].values())), 2)
        for u in (a | b,)
    )
    add("pairwise_union_realized", union_real, "exact over all unions of two belief sets",
        advisory=True)

    properties = S.relation_properties()
    add("classification_in_belief_family",
        properties.classification in (CLASS_BELIEF, CLASS_KD4),
        f"classified as {properties.classification}")
    return tuple(checks)


def _damaged(rng, built, kind):
    """One of four damages to the relations of a counterfactual structure."""
    S = built.structure
    relations = {i: set(S.relations[i]) for i in S.agents}
    agent = rng.choice(S.agents)
    if kind == 0:  # drop one pair
        relations[agent].discard(rng.choice(sorted(relations[agent])))
    elif kind == 1:  # add a stray pair into the actual states
        relations[agent].add((rng.choice(S.states), rng.choice(sorted(built.actual))))
    elif kind == 2:  # empty one state's row for one agent
        state = rng.choice(S.states)
        relations[agent] = {pair for pair in relations[agent] if pair[0] != state}
    else:  # drop three pairs
        for _ in range(3):
            agent = rng.choice(S.agents)
            if relations[agent]:
                relations[agent].discard(rng.choice(sorted(relations[agent])))
    damaged = InformationStructure(S.states, S.agents, relations, allow_plus_in_names=True)
    return CounterfactualStructure(
        structure=damaged, actual=built.actual, labels=built.labels, origin=built.origin
    )


def _chain(n):
    """n states; a pairs s0-s1, s2-s3, ..., b pairs s1-s2, ..., s(n-1)-s0."""
    states = [f"s{k:02d}" for k in range(n)]
    return InformationStructure(states, ["a", "b"], {
        "a": equivalence_pairs([[states[k], states[k + 1]] for k in range(0, n, 2)]),
        "b": equivalence_pairs([[states[k], states[(k + 1) % n]] for k in range(1, n, 2)]),
    })


def test_mask_verifier_matches_frozenset_reference():
    rng = random.Random(107)
    cases = []
    for k, (S, built, _) in enumerate(_verified_corpus()):
        cases.append((S, built))
        cases.append((S, _damaged(rng, built, k % 4)))
        # the bare source, with no duplicates: damage to the relations leaves
        # the labels whole, so only this makes lambda_blocks_complete and
        # truth_fails_at_duplicates fail
        cases.append((S, CounterfactualStructure(structure=S, actual=S.states, labels={}, origin=S)))
    cases.extend((S, build_counterfactual(S)) for S in map(_chain, (4, 6, 8)))
    failing = set()
    for S, built in cases:
        checks = verify_counterfactual(S, built).checks
        assert checks == reference_verify(S, built)
        failing.update(c.name for c in checks if not c.passed and not c.advisory)
    names = {c.name for c in checks if not c.advisory}
    # The constructor refuses any relation into the duplicates, so no
    # CounterfactualStructure can make these two checks fail.
    assert names - failing == {"relations_target_actual", "reach_stays_actual"}


def test_row_witnesses_are_the_first_of_the_per_state_scans():
    # the builds and damaged copies of test_mask_verifier_matches_frozenset_reference, and its chains
    rng = random.Random(107)
    cases = []
    for k, (S, built, _) in enumerate(_verified_corpus()):
        cases += [(S, built), (S, _damaged(rng, built, k % 4))]
    cases.extend((S, build_counterfactual(S)) for S in map(_chain, (4, 6, 8)))
    failing = {"serial": 0, "nesting": 0}
    for S, built in cases:
        carrier = built.structure
        refs = [(a, first_row_faults_reference(carrier, a)) for a in carrier.agents]
        serial = next(((a, ref[0]) for a, ref in refs if ref[0]), None)
        nesting = next(((a, *ref[1]) for a, ref in refs if ref[1]), None)
        report = verify_counterfactual(S, built)
        assert report.check("relations_serial").detail == (
            "" if serial is None else f"agent {serial[0]} has no successor at {serial[1]}")
        assert report.check("belief_nesting").detail == (
            "" if nesting is None else f"agent {nesting[0]}: possibility set at {nesting[2]} "
                                       f"escapes the one at {nesting[1]}")
        assert euclidean_counterexample(carrier) == next(((a, *ref[2]) for a, ref in refs if ref[2]), None)
        for a, ref in refs:
            assert euclidean_counterexample(carrier, a) == (None if ref[2] is None else (a, *ref[2]))
        failing["serial"] += serial is not None
        failing["nesting"] += nesting is not None
    assert min(failing.values()) >= 20


def _rewired(built, agent, rows):
    """The counterfactual with some of one agent's rows replaced: {state: new successors}."""
    S = built.structure
    relations = {i: {p for p in S.relations[i] if i != agent or p[0] not in rows} for i in S.agents}
    relations[agent] |= {(w, v) for w, targets in rows.items() for v in targets}
    damaged = InformationStructure(S.states, S.agents, relations, allow_plus_in_names=True)
    return CounterfactualStructure(
        structure=damaged, actual=built.actual, labels=built.labels, origin=built.origin
    )


def _without(built, name):
    """The counterfactual with one duplicate state and its label removed."""
    S = built.structure
    relations = {i: {p for p in S.relations[i] if p[0] != name} for i in S.agents}
    damaged = InformationStructure([w for w in S.states if w != name], S.agents, relations,
                                   allow_plus_in_names=True)
    labels = {k: label for k, label in built.labels.items() if k != name}
    return CounterfactualStructure(structure=damaged, actual=built.actual, labels=labels, origin=built.origin)


def _has_reach_masks(structure):
    return any(key[0] == "reach" for key in structure._facts)


def test_derived_checks_are_computed_when_a_premise_fails(d1):
    # (damaged build, the premise it breaks, the check derived from that premise)
    cases = [
        (_rewired(build_counterfactual(d1), "a", {"w0": ["w1"]}),
         "restriction_matches_source", "reach_union_identity"),
        # w0 is then nobody's a-successor among the actual states, but the
        # duplicates' a-cell w0+w1 still reaches it
        (_rewired(build_counterfactual(d1), "a", {"w0": ["w1"], "w1": ["w1"]}),
         "restriction_matches_source", "reach_union_identity"),
        (_rewired(build_counterfactual(d1), "a", {"cf:b:w0:w3": ["w0"]}),
         "beliefs_in_decision_domain", "pairwise_union_realized"),
        # pairwise unions are tested at the union's first state only
        (_without(build_counterfactual(d1), "cf:a:w1:w0+w1"),
         "every_domain_event_realized", "pairwise_union_realized"),
        (_without(build_counterfactual(d1), "cf:a:w0:w0+w1"),
         "every_domain_event_realized", "pairwise_union_realized"),
        # the biconditional tests the duplicate based at w for bel(w) | bel(w'), w and w' actual
        (_rewired(build_counterfactual(d1), "a", {"w0": ["w1"]}),
         "restriction_matches_source", "secret_ignorance_biconditional"),
        # every union of a's beliefs at the actual states is still a domain event with its duplicates
        (_rewired(build_counterfactual(d1), "a", {"w0": ["w0", "w1", "w2", "w3"]}),
         "restriction_matches_source", "secret_ignorance_biconditional"),
        (_without(build_counterfactual(d1), "cf:a:w1:w0+w1"),
         "every_domain_event_realized", "secret_ignorance_biconditional"),
        # no two of b's three cells make up the whole state set
        (_without(build_counterfactual(d1), "cf:b:w0:w0+w1+w2+w3"),
         "every_domain_event_realized", "secret_ignorance_biconditional"),
    ]
    outcomes = {"reach_union_identity": set(), "pairwise_union_realized": set()}
    outcomes["secret_ignorance_biconditional"] = set()
    for built, premise, derived in cases:
        report = verify_counterfactual(d1, built)
        assert report.checks == reference_verify(d1, built)
        assert not report.check(premise).passed
        assert report.check("relations_target_actual").passed and report.check("reach_stays_actual").passed
        if derived == "reach_union_identity":
            assert _has_reach_masks(built.structure)
        outcomes[derived].add(report.check(derived).passed)
    assert all(seen == {True, False} for seen in outcomes.values())


def test_a_non_reflexive_origin_is_refused_before_any_check():
    # The reflexive premise of reach_union_identity holds whenever a check
    # runs: the decision domains need a partitional origin.
    rng = random.Random(109)
    origins = [S for S in (random_belief_structure(rng) for _ in range(40))
               if not all(f.reflexive for f in S.relation_properties().flags.values())]
    assert len(origins) >= 10
    for S in origins:
        bare = CounterfactualStructure(structure=S, actual=S.states, labels={}, origin=S)
        for verify in (verify_counterfactual, reference_verify):
            with pytest.raises(PreconditionError):
                verify(S, bare)


def test_a_valid_build_is_verified_without_reach_masks(d1):
    for S in (d1, _chain(8)):
        built = build_counterfactual(S)
        assert verify_counterfactual(S, built).passed
        assert not _has_reach_masks(built.structure)
    drifted = _rewired(build_counterfactual(d1), "a", {"w0": ["w1"]})
    assert not verify_counterfactual(d1, drifted).passed
    assert _has_reach_masks(drifted.structure)


class _CountedTable(dict):
    """A provenance table that counts its ``get`` calls."""

    gets = 0

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)


def test_a_valid_build_is_audited_with_one_lookup_per_realized_duplicate(d1):
    built = build_counterfactual(d1)
    table = _CountedTable(built._by_triple)
    object.__setattr__(built, "_by_triple", table)
    assert verify_counterfactual(d1, built).passed
    # every_domain_event_realized looks up each domain event u at every base inside it; the
    # biconditional and the pairwise unions are read off their premises and look up nothing
    assert table.gets == sum(len(u) for i in d1.agents for u in gamma(d1, i)) == 24


def test_verification_groups_above_the_limit_are_singletons_and_the_whole_group():
    agents = tuple(f"a{k}" for k in range(10))
    assert len(_verification_groups(agents[:8])) == 2 ** 8 - 1
    assert _verification_groups(agents[:9]) == [(a,) for a in agents[:9]] + [agents[:9]]
    assert _verification_groups(agents) == [(a,) for a in agents] + [agents]


# ---------------------------------------------------------------------------
# relations stored only as masks: reach and derived pairs against references
# ---------------------------------------------------------------------------


def test_reach_per_distinct_row_matches_per_state_reference():
    rng = random.Random(108)
    carriers = []
    for k, (S, built, _) in enumerate(_verified_corpus()):
        carriers += [S, built.structure, _damaged(rng, built, k % 4).structure]
    carriers += [build_counterfactual(S).structure for S in map(_chain, (4, 6, 8))]
    # arbitrary relations: not partitional, some rows empty
    seeded = [random_structure(rng, max_states=8) for _ in range(60)]
    assert any(not row for S in seeded for rows in S._succ.values() for row in rows)
    carriers += seeded
    for S in carriers:
        for g in _verification_groups(S.agents):
            reach = S._build_reach_masks(g)
            assert reach == reach_masks_per_state(S, g)
            # states with one group row share one reach object
            rows = [0] * len(S.states)
            for a in g:
                rows = [r | s for r, s in zip(rows, S._succ[a])]
            first = {}
            assert all(reach[k] is reach[first.setdefault(row, k)] for k, row in enumerate(rows))


def _pair_cases():
    """The seed-103 corpus, source and carrier, then the chain 4/6/8 carriers."""
    for S, built, _ in _verified_corpus():
        yield S
        yield built.structure
    for S in map(_chain, (4, 6, 8)):
        yield build_counterfactual(S).structure


def test_derived_pairs_match_the_given_pairs_and_the_sorted_reference():
    rng = random.Random(109)
    for S in _pair_cases():
        given = {i: {(w, v) for w in S.states for v in S.possibility_set(i, w)} for i in S.agents}
        plus = any("+" in s for s in S.states)
        backwards = {i: sorted(p, reverse=True) for i, p in given.items()}
        T = InformationStructure(reversed(S.states), S.agents, backwards, allow_plus_in_names=plus)
        assert T.relations == {i: frozenset(p) for i, p in given.items()}
        assert T == S
        for i, pairs in structure_to_document(T)["relations"].items():
            pairs = [tuple(p) for p in pairs]
            assert all(u < v for u, v in zip(pairs, pairs[1:])) and set(pairs) == given[i]
        # equality is on relations, not on the order or repetition of the given pairs
        twice = {i: list(p) + list(p)[:3] for i, p in given.items()}
        assert InformationStructure(S.states, S.agents, twice, allow_plus_in_names=plus) == S
        agent = rng.choice(S.agents)
        for change in ({agent: given[agent] - {min(given[agent])}},
                       {agent: given[agent] | {(S.states[0], S.states[-1]), (S.states[-1], S.states[0])}}):
            if change[agent] != given[agent]:
                assert InformationStructure(S.states, S.agents, {**given, **change}, allow_plus_in_names=plus) != S
        for kept in (rng.sample(S.states, rng.randint(1, len(S.states))),
                     [s for s in S.states if "+" not in s]):
            sub = S.restricted_to(kept)
            assert sub == restricted_to_reference(S, kept)
            assert serialize_structure(sub) == serialize_structure(restricted_to_reference(S, kept))
        kept = [S.states[0], "nowhere"]
        with pytest.raises(InputError) as got:
            S.restricted_to(kept)
        with pytest.raises(InputError) as want:
            restricted_to_reference(S, kept)
        assert str(got.value) == str(want.value) == "unknown state 'nowhere'"


def test_repr_counts_relation_pairs(d1, d1_cf):
    assert repr(d1) == "InformationStructure(4 states, 2 agents, 14 relation pairs)"
    assert repr(d1_cf.structure) == "InformationStructure(44 states, 2 agents, 182 relation pairs)"


# ---------------------------------------------------------------------------
# the carrier written from successor rows, against the pair-set build
# ---------------------------------------------------------------------------


def _colon_heavy(agents):
    """Two singleton cells per agent on states whose names hold a colon."""
    return InformationStructure(
        ["b:w0", "w0"], agents, {a: equivalence_pairs([["b:w0"], ["w0"]]) for a in agents}
    )


def test_row_build_matches_the_pair_reference():
    sources = [S for S, _, _ in _verified_corpus()]
    sources += [_chain(n) for n in range(4, 13, 2)]
    sources.append(_colon_heavy(["a", "c:d"]))  # colons in every generated name, but no collision
    rng = random.Random(112)
    for S in sources:
        built, want = build_counterfactual(S), build_counterfactual_reference(S)
        assert built == want
        assert list(built.labels.items()) == list(want.labels.items())
        assert built._by_triple == want._by_triple == {
            (label.agent, label.base, canonical_event_string(label.event)): name
            for name, label in want.labels.items()
        }
        assert list(built._by_triple.items()) == list(want._by_triple.items())
        assert serialize_structure(built) == serialize_structure(want)
        # a parsed document lists its labels by state name
        parsed = parse_structure(serialize_structure(built))
        assert parsed == want
        assert list(parsed.labels.items()) == sorted(want.labels.items())
        assert list(parsed._by_triple.items()) == sorted(want._by_triple.items(), key=lambda item: item[1])
        # the public constructor reads back the labels it was given, in the order given
        given = list(want.labels.items())
        rng.shuffle(given)
        again = CounterfactualStructure(structure=built.structure, actual=built.actual, labels=dict(given),
                                        origin=S)
        assert again == want
        assert list(again.labels.items()) == given
    # the colliding colon-heavy case is refused by both, with one message
    messages = set()
    for build in (build_counterfactual, build_counterfactual_reference):
        with pytest.raises(InputError) as err:
            build(_colon_heavy(["a", "a:b"]))
        messages.add(str(err.value))
    assert len(messages) == 1 and "collides" in messages.pop()


def test_only_the_first_read_of_labels_makes_label_objects(monkeypatch, tmp_path):
    made = []
    init = CounterfactualLabel.__init__

    def counting(self, *args, **kwargs):
        made.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(CounterfactualLabel, "__init__", counting)
    source = _chain(12)
    built = build_counterfactual(source)
    text = serialize_structure(built)
    parsed = parse_structure(text)
    assert verify_counterfactual(source, built).passed
    assert verify_counterfactual(parsed.origin, parsed).passed
    (tmp_path / "chain12.json").write_text(serialize_structure(source), "utf-8")
    assert main(["counterfactual", str(tmp_path / "chain12.json"), "-o", str(tmp_path / "cf.json")]) == 0
    assert main(["validate", str(tmp_path / "cf.json")]) == 0
    assert main(["validate", "--json", str(tmp_path / "cf.json")]) == 0
    assert (tmp_path / "cf.json").read_text("utf-8") == text
    assert made == []
    assert len(parsed.labels) == 1512 and len(made) == 1512
    assert parsed.labels is parsed.labels and len(made) == 1512


def test_rows_in_entry_point_equals_the_public_constructor():
    rng = random.Random(110)
    carriers = [build_counterfactual(S).structure for S in map(_chain, (4, 6, 8))]
    carriers += [random_structure(rng, max_states=8) for _ in range(40)]  # some rows empty
    for S in carriers:
        rows = {a: list(S._succ[a]) for a in S.agents}
        got = InformationStructure._from_rows(S.states, S.agents, rows)
        want = InformationStructure(
            S.states, S.agents, {a: S._pairs_in(a, S._full) for a in S.agents}, allow_plus_in_names=True
        )
        assert got == want
        assert (got.states, got.agents, got._index, got._full, got._facts) == (
            want.states, want.agents, want._index, want._full, want._facts)


def test_built_and_parsed_carriers_keep_one_int_per_distinct_row():
    built = build_counterfactual(_chain(12))
    parsed = parse_structure(serialize_structure(built))
    assert parsed == built
    for S in (built.structure, parsed.structure):
        for rows in S._succ.values():
            assert len({id(r) for r in rows}) == len(set(rows)) < len(rows)


def test_copied_and_unpickled_carriers_keep_one_int_per_distinct_row():
    built = build_counterfactual(_chain(12))
    for copy_of in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
        twin = copy_of(built)
        assert twin == built
        for agent, rows in twin.structure._succ.items():
            distinct = len({id(r) for r in rows})
            assert distinct == len(set(rows)) == len({id(r) for r in built.structure._succ[agent]}) == 63


def test_classified_structures_and_their_pairings_copy_and_pickle():
    classified = make_d1()
    assert classified.is_partitional()
    built = build_counterfactual(make_d1())
    family = tuple(DecisionFunction(agent=a, kind="gamma", table={e: "x" for e in gamma(built.origin, a)})
                   for a in built.origin.agents)
    verdict = check_agreement(built, family)
    assert verdict.passed and verdict.hypotheses_met
    parsed = parse_structure(serialize_structure(build_counterfactual(_chain(6))))
    assert verify_counterfactual(parsed.origin, parsed).passed
    assert classified._facts and built._compiled and built.origin._facts and parsed.structure._facts
    for original in (classified, built, parsed):
        for copy_of in (copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            twin = copy_of(original)
            assert type(twin) is type(original) and twin == original
            if isinstance(original, InformationStructure):
                assert twin._facts == {}
                assert (twin._index, twin._full) == (original._index, original._full)
                assert twin.is_partitional()
            else:
                assert twin._compiled == twin.origin._facts == twin.structure._facts == {}
                assert verify_counterfactual(twin.origin, twin).passed
    assert check_agreement(pickle.loads(pickle.dumps(built)), family) == verdict
