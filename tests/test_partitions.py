"""Partitions, union closures, possible beliefs, and the flaw report."""

import itertools
import random

import pytest

from epistemic import (
    InformationStructure,
    InputError,
    PreconditionError,
    ResourceLimitError,
    build_counterfactual,
    equivalence_class,
    equivalence_pairs,
    flaw_report,
    gamma,
    is_possible_belief,
    partition,
    resolve_max_cells,
)
from epistemic.partitions import _closure
from generators import random_partitional


def ev(*names):
    return frozenset(names)


NON_PARTITIONAL = InformationStructure(["x", "y"], ["i"], {"i": [("x", "y"), ("y", "y")]})


def test_equivalence_class_d1(d1):
    assert equivalence_class(d1, "a", "w3") == ev("w2", "w3")
    assert equivalence_class(d1, "b", "w0") == ev("w0")


def test_equivalence_class_contains_state():
    rng = random.Random(1)
    for _ in range(50):
        S = random_partitional(rng)
        for agent in S.agents:
            for w in S.states:
                assert w in equivalence_class(S, agent, w)


def test_equivalence_class_requires_partitional():
    with pytest.raises(PreconditionError):
        equivalence_class(NON_PARTITIONAL, "i", "x")


def test_partition_d1(d1):
    assert set(partition(d1, "a")) == {ev("w0", "w1"), ev("w2", "w3")}
    assert set(partition(d1, "b")) == {ev("w0"), ev("w1", "w2"), ev("w3")}


def test_partition_identity_relations_all_singletons():
    S = InformationStructure(["x", "y"], ["i"], {"i": [("x", "x"), ("y", "y")]})
    assert set(partition(S, "i")) == {ev("x"), ev("y")}


def test_partition_properties_random():
    rng = random.Random(2)
    for _ in range(60):
        S = random_partitional(rng)
        for agent in S.agents:
            cells = partition(S, agent)
            assert frozenset().union(*cells) == S.full_event
            for c1, c2 in itertools.combinations(cells, 2):
                assert not (c1 & c2)
            assert all(cells)


def test_gamma_d1(d1):
    assert set(gamma(d1, "a")) == {
        ev("w0", "w1"),
        ev("w2", "w3"),
        ev("w0", "w1", "w2", "w3"),
    }
    assert len(gamma(d1, "b")) == 7


def test_gamma_single_cell_is_full_event_only():
    S = InformationStructure(["x", "y"], ["i"], {"i": equivalence_pairs([["x", "y"]])})
    assert gamma(S, "i") == (ev("x", "y"),)


def test_gamma_cardinality_random():
    rng = random.Random(3)
    for _ in range(60):
        S = random_partitional(rng)
        for agent in S.agents:
            assert len(gamma(S, agent)) == 2 ** len(partition(S, agent)) - 1


def test_gamma_cell_cap(d1, monkeypatch):
    with pytest.raises(ResourceLimitError):
        gamma(d1, "b", max_cells=2)
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "2")
    assert resolve_max_cells() == 2
    with pytest.raises(ResourceLimitError):
        gamma(d1, "b")
    assert len(gamma(d1, "b", max_cells=3)) == 7  # explicit argument wins
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "zero")
    with pytest.raises(InputError):
        resolve_max_cells()


def test_gamma_cell_cap_checked_after_caching(d1, monkeypatch):
    # d1 is a session fixture, so b's closure is already cached here
    assert len(gamma(d1, "b")) == 7
    assert gamma(d1, "b") is gamma(d1, "b")
    with pytest.raises(ResourceLimitError):
        gamma(d1, "b", max_cells=2)
    monkeypatch.setenv("EPISTEMIC_MAX_CELLS", "2")
    with pytest.raises(ResourceLimitError):
        gamma(d1, "b")


def test_is_possible_belief_d1(d1):
    assert is_possible_belief(d1, "a", ev("w0", "w1"))
    assert not is_possible_belief(d1, "a", d1.full_event)
    # on the counterfactual structure the full event becomes believable
    built = build_counterfactual(d1)
    assert is_possible_belief(built.structure, "a", d1.full_event)


def test_is_possible_belief_works_on_any_structure():
    assert is_possible_belief(NON_PARTITIONAL, "i", ev("y"))
    assert not is_possible_belief(NON_PARTITIONAL, "i", ev("x"))


def test_flaw_report_d1(d1):
    ra = flaw_report(d1, "a")
    assert ra.not_possible_beliefs == frozenset({d1.full_event})
    assert ra.cross_agent_conflicts == frozenset(
        {("b", ev("w0")), ("b", ev("w1", "w2")), ("b", ev("w3"))}
    )
    rb = flaw_report(d1, "b")
    assert rb.not_possible_beliefs == frozenset(
        {
            ev("w0", "w1", "w2"),
            ev("w0", "w3"),
            ev("w1", "w2", "w3"),
            ev("w0", "w1", "w2", "w3"),
        }
    )
    assert rb.cross_agent_conflicts == frozenset(
        {("a", ev("w0", "w1")), ("a", ev("w2", "w3"))}
    )


def test_flaw_report_single_cell_agent_is_clean():
    S = InformationStructure(
        ["x", "y"],
        ["i", "j"],
        {
            "i": equivalence_pairs([["x", "y"]]),
            "j": equivalence_pairs([["x", "y"]]),
        },
    )
    report = flaw_report(S, "i")
    assert report.not_possible_beliefs == frozenset()
    assert report.cross_agent_conflicts == frozenset()


def test_remark1_random_partitional():
    rng = random.Random(4)
    for _ in range(80):
        S = random_partitional(rng)
        for agent in S.agents:
            sets = [S.possibility_set(agent, w) for w in S.states]
            for w, b in zip(S.states, sets):
                assert w in b
            for b1, b2 in itertools.combinations(sets, 2):
                assert b1 == b2 or not (b1 & b2)
            assert frozenset().union(*sets) == S.full_event


def test_component_belief_union_identity_random_partitional():
    rng = random.Random(5)
    for _ in range(80):
        S = random_partitional(rng)
        groups = [
            g
            for r in range(1, len(S.agents) + 1)
            for g in itertools.combinations(S.agents, r)
        ]
        for group in groups:
            for w in S.states:
                comp = S.component(group, w)
                for agent in group:
                    union = frozenset().union(
                        *(S.possibility_set(agent, v) for v in comp)
                    )
                    assert union == comp


def test_strict_unions_are_never_possible_beliefs():
    rng = random.Random(6)
    for _ in range(60):
        S = random_partitional(rng)
        for agent in S.agents:
            cells = partition(S, agent)
            if len(cells) < 2:
                continue
            for event in gamma(S, agent):
                spans = sum(1 for c in cells if c <= event)
                if spans >= 2:
                    assert not is_possible_belief(S, agent, event)


def test_flaw_report_requires_partitional():
    with pytest.raises(PreconditionError):
        flaw_report(NON_PARTITIONAL, "i")


def test_union_closure_fact_holds_cell_positions_and_one_pair_per_union(d1):
    rng = random.Random(19)
    structures = [d1] + [random_partitional(rng, max_states=6, max_cells=5) for _ in range(30)]
    paired = 0
    for S in structures:
        for agent in S.agents:
            at, order, domain, pairs = _closure(S, agent, None)
            cells = partition(S, agent)
            assert order == gamma(S, agent) and domain == frozenset(order)
            assert tuple(order[p] for p in at) == cells
            expected = [
                (tuple(at[k] for k in family), order.index(frozenset().union(*(cells[k] for k in family))))
                for r in range(2, len(cells) + 1) for family in itertools.combinations(range(len(cells)), r)
            ]
            assert list(pairs) == expected  # combinations order
            for members, union in pairs:
                assert order[union] == frozenset().union(*(order[m] for m in members))
            unions = [union for _, union in pairs]
            # one pair per union of two or more cells, and every position is a cell or such a union
            assert len(set(unions)) == len(unions) == 2 ** len(cells) - 1 - len(cells)
            assert sorted(unions + list(at)) == list(range(len(order)))
            paired += len(pairs)
    assert paired > 200
