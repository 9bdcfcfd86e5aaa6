"""Decision functions, the Sure-Thing Principle, like-mindedness, enumeration."""

import gc
import itertools
import random
import time
import tracemalloc
from collections import Counter

import pytest

from epistemic import (
    DecisionFunction,
    DomainError,
    EpistemicError,
    InformationStructure,
    InputError,
    NotFoundError,
    PreconditionError,
    ResourceLimitError,
    Violation,
    ViolationList,
    build_counterfactual,
    canonical_event_string,
    check_agreement,
    check_like_minded,
    check_stp_field,
    check_stp_gamma,
    complete_stp_field,
    decisions_to_document,
    enumerate_decision_profiles,
    equivalence_pairs,
    gamma,
    normalize_actions,
    partition,
    powerset_field,
    search_disagreement,
    serialize_decisions,
    union_of_gammas,
)
from epistemic import d1 as make_d1
from epistemic import decisions
from generators import random_partitional
from oracles import (
    complete_stp_field_reference,
    derive_action_function,
    disagreements_reference,
    gamma_profiles_reference,
    gamma_tables_reference,
    shared_events_reference,
    stp_completions_reference,
)


def ev(*names):
    return frozenset(names)


def gamma_df(agent, table):
    return DecisionFunction(agent=agent, kind="gamma", table=table)


def field_df(agent, table):
    return DecisionFunction(agent=agent, kind="field", table=table)


def constant_gamma_family(S, action):
    return tuple(
        gamma_df(agent, {e: action for e in gamma(S, agent)}) for agent in S.agents
    )


A_CELLS = (ev("w0", "w1"), ev("w2", "w3"))
FULL = ev("w0", "w1", "w2", "w3")


# ---------------------------------------------------------------------------
# deriving action functions
# ---------------------------------------------------------------------------


def test_derive_constant_gamma_table_is_constant_everywhere(d1, d1_cf):
    df = gamma_df("a", {e: "x" for e in gamma(d1, "a")})
    assignment = derive_action_function(d1_cf, df)
    assert set(assignment.values) == set(d1_cf.structure.states)
    assert set(assignment.values.values()) == {"x"}


def test_derive_gamma_distinguishes_duplicates(d1, d1_cf):
    df = gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "y", FULL: "z"})
    assignment = derive_action_function(d1_cf, df)
    assert assignment.values["w0"] == "x"
    assert assignment.values["w3"] == "y"
    lam = d1_cf.counterfactual_state("a", "w0", FULL)
    assert assignment.values[lam] == "z"
    # another agent's duplicate leaves a's information at the base cell
    lam_b = d1_cf.counterfactual_state("b", "w2", ev("w3"))
    assert assignment.values[lam_b] == "y"


def test_derive_gamma_requires_exact_domain(d1, d1_cf):
    with pytest.raises(InputError):
        derive_action_function(d1_cf, gamma_df("a", {A_CELLS[0]: "x"}))


def test_derive_field_missing_cell_names_it(d1):
    table = {A_CELLS[0]: "x"}  # the other cell is missing
    with pytest.raises(DomainError) as err:
        derive_action_function(d1, field_df("a", table))
    assert err.value.event == A_CELLS[1]


def test_derive_field_on_cells_only_succeeds(d1):
    df = field_df("b", {c: "x" for c in partition(d1, "b")})
    assignment = derive_action_function(d1, df)
    assert set(assignment.values) == set(d1.states)


def test_derive_field_requires_partitional():
    from epistemic import InformationStructure

    S = InformationStructure(["x", "y"], ["i"], {"i": [("x", "y"), ("y", "y")]})
    with pytest.raises(PreconditionError):
        derive_action_function(S, field_df("i", {ev("y"): "x"}))


def test_derive_never_fails_on_random_counterfactuals():
    rng = random.Random(31)
    for _ in range(25):
        S = random_partitional(rng, max_cells=3)
        built = build_counterfactual(S)
        for agent in S.agents:
            domain = gamma(S, agent)
            table = {e: rng.choice(["0", "1"]) for e in domain}
            assignment = derive_action_function(built, gamma_df(agent, table))
            assert set(assignment.values) == set(built.structure.states)


# ---------------------------------------------------------------------------
# sure-thing principle, gamma form
# ---------------------------------------------------------------------------


def test_stp_gamma_uniform_table_holds(d1):
    df = gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "x", FULL: "x"})
    assert check_stp_gamma(d1, df).ok


def test_stp_gamma_union_mismatch_detected(d1):
    df = gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "x", FULL: "y"})
    result = check_stp_gamma(d1, df)
    assert len(result) == 1
    violation = result.entries[0]
    assert violation.kind == "stp"
    assert set(violation.events) == set(A_CELLS)
    assert violation.union_event == FULL
    assert (violation.expected, violation.actual) == ("x", "y")


def test_stp_gamma_distinct_cells_unconstrained(d1):
    df = gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "y", FULL: "z"})
    assert check_stp_gamma(d1, df).ok


# ---------------------------------------------------------------------------
# sure-thing principle, field form
# ---------------------------------------------------------------------------


def test_stp_field_constant_table_holds(d1):
    field = powerset_field(d1)
    df = field_df("a", {e: "x" for e in field})
    assert check_stp_field(field, df).ok


def test_stp_field_disjoint_pair_violation():
    field = (ev("w0"), ev("w1"), ev("w0", "w1"))
    df = field_df("a", {ev("w0"): "x", ev("w1"): "x", ev("w0", "w1"): "y"})
    result = check_stp_field(field, df)
    assert len(result) == 1
    assert result.entries[0].union_event == ev("w0", "w1")


def test_stp_field_overlapping_events_unconstrained():
    field = (ev("w0", "w1"), ev("w1", "w2"), ev("w0", "w1", "w2"))
    df = field_df("a", {
        ev("w0", "w1"): "x",
        ev("w1", "w2"): "x",
        ev("w0", "w1", "w2"): "y",
    })
    assert check_stp_field(field, df).ok


def test_stp_field_exact_above_six_states():
    states = [f"s{k}" for k in range(8)]
    singles = [ev(s) for s in states]
    field = tuple(singles) + (ev("s0", "s1"),)
    table = {e: "x" for e in singles}
    table[ev("s0", "s1")] = "y"
    result = check_stp_field(field, field_df("a", table))
    assert result.exhaustive
    assert [(v.events, v.union_event) for v in result] == [
        ((ev("s0"), ev("s1")), ev("s0", "s1"))
    ]


def test_disjoint_families_shared_per_field_and_cap_never_cached():
    masks = (0b0001, 0b0010, 0b0011, 0b0100, 0b1000, 0b1111)
    for _ in range(2):
        with pytest.raises(ResourceLimitError):
            decisions._disjoint_families(masks, node_cap=3)
    families = decisions._disjoint_families(masks)
    assert families == (((0, 1), 2), ((0, 1, 3, 4), 5), ((2, 3, 4), 5))
    assert decisions._disjoint_families(masks) is families
    with pytest.raises(ResourceLimitError):
        decisions._disjoint_families(masks, node_cap=3)


def stp_field_bruteforce(field, table):
    """Reference: every pairwise-disjoint subfamily of at least two same-action
    events whose union lies in the field and maps to another action."""
    events = list(field)
    out = set()
    for r in range(2, len(events) + 1):
        for family in itertools.combinations(events, r):
            union = frozenset().union(*family)
            if sum(len(e) for e in family) != len(union) or union not in table:
                continue
            acts = {table[e] for e in family}
            if len(acts) == 1 and table[union] not in acts:
                out.add((frozenset(family), union))
    return out


def test_stp_field_matches_bruteforce_on_restricted_fields():
    rng = random.Random(41)
    checked = violated = 0
    while checked < 30:
        n = rng.randint(7, 8)
        S = random_partitional(rng, max_states=n, max_agents=2, max_cells=3)
        if len(S.states) < 7:
            continue
        field = set(union_of_gammas(S))
        field.update(frozenset(rng.sample(S.states, rng.randint(1, 3))) for _ in range(3))
        table = {e: rng.choice(["x", "y"]) for e in field}
        result = check_stp_field(field, field_df("a", table))
        got = {(frozenset(v.events), v.union_event) for v in result}
        assert len(got) == len(result)
        assert got == stp_field_bruteforce(field, table)
        checked += 1
        violated += bool(got)
    assert violated > 5


def test_stp_field_matches_gamma_on_shared_domain(d1):
    # with the field containing the union closure and agreeing there, every
    # gamma violation is a field violation
    rng = random.Random(33)
    field = powerset_field(d1)
    for _ in range(40):
        g_table = {e: rng.choice(["0", "1"]) for e in gamma(d1, "b")}
        f_table = {e: g_table.get(e, rng.choice(["0", "1"])) for e in field}
        g_violations = check_stp_gamma(d1, gamma_df("b", g_table))
        f_violations = check_stp_field(field, field_df("b", f_table))
        f_keys = {(frozenset(v.events), v.union_event) for v in f_violations}
        for violation in g_violations:
            assert (frozenset(violation.events), violation.union_event) in f_keys


# ---------------------------------------------------------------------------
# completion helpers
# ---------------------------------------------------------------------------


def test_stp_completions_counts(d1):
    uniform = list(stp_completions_reference(d1, "a", {A_CELLS[0]: "x", A_CELLS[1]: "x"}, ["x", "y"]))
    assert len(uniform) == 1
    assert uniform[0][FULL] == "x"
    mixed = list(stp_completions_reference(d1, "a", {A_CELLS[0]: "x", A_CELLS[1]: "y"}, ["x", "y"]))
    assert len(mixed) == 2
    assert {t[FULL] for t in mixed} == {"x", "y"}


def test_complete_stp_field_fills_forced_unions():
    field = (ev("w0"), ev("w1"), ev("w0", "w1"))
    out = complete_stp_field(field, {ev("w0"): "x", ev("w1"): "x"})
    assert out[ev("w0", "w1")] == "x"


def test_complete_stp_field_restricted_field_raises(d1):
    # cells only, no unions: the principle immediately demands an event the
    # field cannot express
    cells = partition(d1, "b")
    with pytest.raises(DomainError) as err:
        complete_stp_field(cells, {c: "x" for c in cells})
    assert err.value.event is not None
    assert sum(1 for c in cells if c <= err.value.event) >= 2


def test_complete_stp_field_conflict_raises():
    field = (ev("w0"), ev("w1"), ev("w0", "w1"))
    with pytest.raises(InputError):
        complete_stp_field(field, {ev("w0"): "x", ev("w1"): "x", ev("w0", "w1"): "y"})


def _completion_outcome(complete, field, table):
    try:
        return "returned", list(complete(field, table).items())
    except EpistemicError as err:
        return type(err).__name__, str(err), getattr(err, "event", None)


def test_complete_stp_field_matches_reference():
    rng = random.Random(59)
    outcomes = Counter()
    for _ in range(2000):
        n = rng.randint(1, 5)
        states = [f"s{k}" for k in range(n)]
        subsets = [frozenset(c) for r in range(1, n + 1) for c in itertools.combinations(states, r)]
        density = rng.random()
        field = [e for e in subsets if rng.random() < density]
        if rng.random() < 0.03:
            field.append(frozenset())
        actions = "xyz"[:rng.randint(1, 3)]
        table = {e: rng.choice(actions) for e in field if e and rng.random() < 0.5}
        if rng.random() < 0.03:
            table[rng.choice(subsets)] = "x"
        got = _completion_outcome(complete_stp_field, field, table)
        assert got == _completion_outcome(complete_stp_field_reference, field, table)
        outcomes[got[0]] += 1
    assert set(outcomes) == {"returned", "DomainError", "InputError"}
    assert min(outcomes.values()) >= 100


def test_complete_stp_field_stops_at_the_first_forced_union():
    # 2**18 uniform families, but the first one already leaves the field
    singles = [ev(f"s{k:02d}") for k in range(18)]
    start = time.perf_counter()
    with pytest.raises(DomainError) as err:
        complete_stp_field(singles, {e: "x" for e in singles})
    assert time.perf_counter() - start < 1.0
    assert err.value.event == ev("s00", "s01")


def test_complete_stp_field_node_cap(monkeypatch):
    field = [frozenset(c) for r in (1, 2, 3) for c in itertools.combinations(["w0", "w1", "w2"], r)]
    table = {e: "x" for e in field if len(e) == 1}
    assert complete_stp_field(field, table) == {e: "x" for e in field}
    monkeypatch.setattr(decisions, "_FAMILY_NODE_CAP", 5)
    with pytest.raises(ResourceLimitError, match="passed 5 nodes"):
        complete_stp_field(field, table)


def test_complete_stp_field_leaves_no_reference_cycles(d1):
    field = powerset_field(d1)
    table = {e: "x" for e in field if len(e) == 1}
    complete_stp_field(field, table)  # fill the compiled-field cache first
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert complete_stp_field(field, table) == {e: "x" for e in field}
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_stp_field_input_errors_in_order():
    not_total = field_df("a", {ev("w9"): "x"})
    with pytest.raises(InputError, match="at least one event"):
        check_stp_field([], not_total)
    with pytest.raises(InputError, match="non-empty"):
        check_stp_field([frozenset(), ev("w0")], not_total)
    with pytest.raises(InputError, match="total on the field"):
        check_stp_field([ev("w0")], not_total)


# ---------------------------------------------------------------------------
# like-mindedness
# ---------------------------------------------------------------------------


_NOT_ITERABLE = "field must be an iterable of events, got 5"
_NO_EVENT = "field must contain at least one event"
_EMPTY_EVENT = "field events must be non-empty"
_OUTSIDE = "field events must be non-empty subsets of the state set"
_NO_TABLE = "decision table for agent 'a' must map events to actions, got 5"


@pytest.mark.parametrize("entry, outcomes", [
    ("check_stp_field", (_NOT_ITERABLE, _NO_EVENT, _EMPTY_EVENT, "returns")),
    ("complete_stp_field", (_NOT_ITERABLE, "returns", _EMPTY_EVENT, "returns")),
    ("enumerate_decision_profiles", (_NOT_ITERABLE, _NO_EVENT, _EMPTY_EVENT, _OUTSIDE)),
    ("check_agreement theorem1", (_NO_TABLE, _NO_EVENT, _EMPTY_EVENT, _OUTSIDE)),
    ("check_like_minded(d1)", (_NO_TABLE, "returns", _EMPTY_EVENT, _OUTSIDE)),
    ("check_like_minded(None)", (_NO_TABLE, "returns", _EMPTY_EVENT, "returns")),
])
def test_one_field_rule_for_every_entry_point(d1, entry, outcomes):
    """Field events are non-empty and, wherever a structure is given, over its states;
    ``check_stp_field`` and ``complete_stp_field`` take no structure, and ``complete_stp_field``
    and ``check_like_minded`` accept an empty field. A non-iterable is no table's domain, so a
    family on it is refused when built. Fields: not iterable, empty, holding the empty event,
    and d1's power set plus an event over a state d1 lacks."""
    fields = (5, [], [frozenset(), ev("w0")], [*powerset_field(d1), ev("zz")])

    def family(field):  # constant tables on the field
        return tuple(field_df(a, field if field == 5 else dict.fromkeys(field, "0")) for a in d1.agents)

    call = {
        "check_stp_field": lambda f: check_stp_field(f, family([] if f == 5 else f)[0]),
        "complete_stp_field": lambda f: complete_stp_field(f, {}),
        "enumerate_decision_profiles": lambda f: next(enumerate_decision_profiles(d1, 2, kind="field", field=f)),
        "check_agreement theorem1": lambda f: check_agreement(d1, family(f), mode="theorem1"),
        "check_like_minded(d1)": lambda f: check_like_minded(d1, family(f)),
        "check_like_minded(None)": lambda f: check_like_minded(None, family(f)),
    }[entry]
    got = []
    for field in fields:
        try:
            call(field)
            got.append("returns")
        except InputError as exc:
            got.append(str(exc))
    assert tuple(got) == outcomes


def test_a_field_of_events_that_are_not_state_names_is_an_input_error(d1):
    """Events over non-string members have no canonical order; every entry point refuses them."""
    for field in ([frozenset({1})], [ev("w0"), frozenset({1})]):
        family = tuple(field_df(a, dict.fromkeys(field, "0")) for a in d1.agents)
        for call in (lambda: check_stp_field(field, family[0]), lambda: complete_stp_field(field, {}),
                     lambda: next(enumerate_decision_profiles(d1, 2, kind="field", field=field)),
                     lambda: check_agreement(d1, family, mode="theorem1"), lambda: check_like_minded(None, family)):
            with pytest.raises(InputError, match="^field must be an iterable of events, got "):
                call()


def _singletons(n):
    states = [f"s{k:02d}" for k in range(n)]
    return InformationStructure(states, ["a"], {"a": equivalence_pairs([[s] for s in states])})


@pytest.mark.parametrize("cells", [10, 11])
def test_field_enumeration_refuses_on_the_table_count_before_the_family_walk(monkeypatch, cells):
    """2 ** (2 ** cells - 1) tables are over the cap, so the disjoint-family walk, which on 11
    singleton cells passes its own node cap, is never started."""
    S = _singletons(cells)

    def walk(*args, **kwargs):
        raise AssertionError("the disjoint-family walk ran")

    monkeypatch.setattr(decisions, "_disjoint_families", walk)
    with pytest.raises(ResourceLimitError, match="tables per agent exceed the cap of 1000000$"):
        next(enumerate_decision_profiles(S, 2, kind="field", stp=True))


def test_field_enumeration_without_the_principle_refuses_on_the_family_total_before_listing(d1):
    """Without the principle every table is kept, so the family total is known from the table
    count: 2 agents with 2 ** 19 tables each give 2 ** 38 families, over the cap, refused
    before any of the 524,288 tables (about 100 MB) is listed."""
    states = [f"s{k}" for k in range(5)]
    S = InformationStructure(states, ["a", "b"], {a: equivalence_pairs([[s] for s in states]) for a in "ab"})
    field = [frozenset(c) for r in range(1, 4) for c in itertools.combinations(states, r)][:19]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            next(enumerate_decision_profiles(S, 2, kind="field", field=field))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "274877906944 families exceed the cap of 1000000"
    assert peak < 2 ** 20
    # with the principle the total is read off the kept tables, as before: 2 ** 3 tables over 3 events
    field = [ev("w0"), ev("w1"), ev("w0", "w1")]
    with pytest.raises(ResourceLimitError, match="^64 families exceed the cap of 63$"):
        next(enumerate_decision_profiles(d1, 2, kind="field", field=field, max_families=63))
    with pytest.raises(ResourceLimitError, match="^36 families exceed the cap of 35$"):
        next(enumerate_decision_profiles(d1, 2, kind="field", field=field, stp=True, max_families=35))


def test_like_minded_gamma_overlap_is_full_event_only(d1):
    shared = set(gamma(d1, "a")) & set(gamma(d1, "b"))
    assert shared == {FULL}
    family = [
        gamma_df("a", {A_CELLS[0]: "x", A_CELLS[1]: "y", FULL: "z"}),
        gamma_df("b", {e: ("z" if e == FULL else "w") for e in gamma(d1, "b")}),
    ]
    assert check_like_minded(d1, family).ok


def test_like_minded_gamma_violation_names_event(d1):
    family = [
        gamma_df("a", {e: "x" for e in gamma(d1, "a")}),
        gamma_df("b", {e: "y" for e in gamma(d1, "b")}),
    ]
    result = check_like_minded(d1, family)
    assert len(result) == 1
    violation = result.entries[0]
    assert violation.events == (FULL,)
    assert violation.agents == ("a", "b")


def test_like_minded_field_identical_tables(d1):
    field = powerset_field(d1)
    table = {e: "x" for e in field}
    family = [field_df("a", dict(table)), field_df("b", dict(table))]
    assert check_like_minded(None, family).ok
    other = dict(table)
    other[ev("w0")] = "y"
    family = [field_df("a", dict(table)), field_df("b", other)]
    result = check_like_minded(None, family)
    assert len(result) == 1
    assert result.entries[0].events == (ev("w0"),)


def test_like_minded_rejects_mixed_kinds(d1):
    family = [
        gamma_df("a", {e: "x" for e in gamma(d1, "a")}),
        field_df("b", {e: "x" for e in powerset_field(d1)}),
    ]
    with pytest.raises(InputError):
        check_like_minded(d1, family)


# ---------------------------------------------------------------------------
# index-backed hypothesis checks against the set-based ones they replace
# ---------------------------------------------------------------------------


def reference_validate_gamma_domain(structure, df, *, max_cells=None):
    """The domain check rebuilding the closure and the table's keys as sets on every call."""
    if df.kind != "gamma":
        raise InputError(f"expected a gamma-kind decision function for agent {df.agent!r}")
    domain = gamma(structure, df.agent, max_cells=max_cells)
    have = set(df.table)
    want = set(domain)
    if have != want:
        missing = sorted(canonical_event_string(e) for e in want - have)[:3]
        extra = sorted(canonical_event_string(e) for e in have - want)[:3]
        raise InputError(
            f"gamma decision table for agent {df.agent!r} must cover the union closure exactly "
            f"(missing {missing}, extra {extra})"
        )
    return domain


def reference_check_stp_gamma(structure, df, *, max_cells=None):
    """The principle over cell combinations and unions formed anew on every call."""
    reference_validate_gamma_domain(structure, df, max_cells=max_cells)
    cells = partition(structure, df.agent)
    violations = []
    for r in range(2, len(cells) + 1):
        for family in itertools.combinations(cells, r):
            acts = {df.table[c] for c in family}
            if len(acts) != 1:
                continue
            expected = next(iter(acts))
            union = frozenset().union(*family)
            actual = df.table[union]
            if actual != expected:
                violations.append(
                    Violation(
                        kind="stp",
                        agents=(df.agent,),
                        events=tuple(sorted(family, key=canonical_event_string)),
                        union_event=union,
                        expected=expected,
                        actual=actual,
                    )
                )
    return ViolationList(entries=tuple(violations))


def reference_check_like_minded(structure, dfs, *, max_cells=None):
    """Gamma-kind like-mindedness over domain intersections sorted on every call."""
    domains = {}
    tables = {}
    for df in dfs:
        tables[df.agent] = df.table
        domains[df.agent] = set(reference_validate_gamma_domain(structure, df, max_cells=max_cells))
    violations = []
    for i, j in itertools.combinations(sorted(tables), 2):
        for event in sorted(domains[i] & domains[j], key=canonical_event_string):
            if tables[i][event] != tables[j][event]:
                violations.append(
                    Violation(
                        kind="like-minded",
                        agents=(i, j),
                        events=(event,),
                        union_event=None,
                        expected=tables[i][event],
                        actual=tables[j][event],
                    )
                )
    return ViolationList(entries=tuple(violations))


def outcome(check, *args, **kwargs):
    """A check's violations in order, or the type and message of the error it raised."""
    try:
        return check(*args, **kwargs).entries
    except EpistemicError as exc:
        return type(exc), str(exc)


def _multi_agent_structures(seed, count):
    """Fresh 2-3-agent structures on 3-5 states, so nothing is cached yet."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        S = random_partitional(rng, max_states=5, max_agents=3, max_cells=3)
        if len(S.agents) >= 2 and len(S.states) >= 3:
            out.append(S)
    return out


def _same_cells_structure():
    """Two agents sharing cells whose canonical order is not their size order."""
    cells = [["s0", "s1", "s2"], ["s3"]]
    states = ["s0", "s1", "s2", "s3"]
    return InformationStructure(states, ["a", "b"], {a: equivalence_pairs(cells) for a in ("a", "b")})


@pytest.mark.parametrize("seed", [71, 89, 97])
def test_index_backed_hypotheses_match_set_based_reference(seed):
    checked_structures = 0
    kinds_seen = Counter()
    for S in [*_multi_agent_structures(seed, count=10), _same_cells_structure()]:
        try:
            families = list(enumerate_decision_profiles(
                S, 2, stp=False, like_minded=False, max_families=600,
            ))
        except ResourceLimitError:
            continue
        checked_structures += 1
        for family in families:
            got = outcome(check_like_minded, S, family)
            assert got == outcome(reference_check_like_minded, S, family)
            kinds_seen.update(v.kind for v in got)
            for df in family:
                got = outcome(check_stp_gamma, S, df)
                assert got == outcome(reference_check_stp_gamma, S, df)
                kinds_seen.update(v.kind for v in got)
    assert checked_structures >= 3
    assert kinds_seen["stp"] > 0 and kinds_seen["like-minded"] > 0


def test_domain_mismatch_raises_like_set_based_reference():
    raised = {"missing": 0, "extra": 0}
    for S in _multi_agent_structures(53, count=6):
        for agent in S.agents:
            domain = gamma(S, agent)
            outside = [e for e in powerset_field(S) if e not in domain]
            tables = [
                ("missing", {e: "x" for e in domain[1:]}),
                ("missing", {e: "x" for e in domain[:-1]}),
            ]
            if outside:
                tables.append(("extra", {**{e: "x" for e in domain}, outside[0]: "y"}))
            for shape, table in tables:
                df = gamma_df(agent, table)
                family = [df] + [
                    gamma_df(other, {e: "x" for e in gamma(S, other)})
                    for other in S.agents if other != agent
                ]
                for check, reference, arg in (
                    (check_stp_gamma, reference_check_stp_gamma, df),
                    (check_like_minded, reference_check_like_minded, family),
                ):
                    got = outcome(check, S, arg)
                    assert got == outcome(reference, S, arg)
                    assert got[0] is InputError
                    raised[shape] += 1
    assert raised["missing"] > 0 and raised["extra"] > 0


@pytest.mark.parametrize("cached", [False, True])
def test_cell_cap_checked_before_and_after_facts_are_cached(cached, monkeypatch):
    S = make_d1()  # fresh: agent b has 3 cells
    family = constant_gamma_family(make_d1(), "x")  # built on another d1, so S stores no closure
    if cached:
        assert check_like_minded(S, family).ok
        assert check_stp_gamma(S, family[1]).ok
    assert (("gamma", "b") in S._facts) is cached
    monkeypatch.delenv("EPISTEMIC_MAX_CELLS", raising=False)
    for check, reference, arg in (
        (check_stp_gamma, reference_check_stp_gamma, family[1]),
        (check_like_minded, reference_check_like_minded, family),
    ):
        explicit = outcome(check, S, arg, max_cells=2)
        assert explicit[0] is ResourceLimitError
        assert explicit == outcome(reference, S, arg, max_cells=2)
        for bad in (0, -1, "3", 2.5):
            assert outcome(check, S, arg, max_cells=bad)[0] is InputError
            assert outcome(check, S, arg, max_cells=bad) == outcome(reference, S, arg, max_cells=bad)
        for env, expected in (("2", ResourceLimitError), ("zero", InputError), ("0", InputError)):
            monkeypatch.setenv("EPISTEMIC_MAX_CELLS", env)
            from_env = outcome(check, S, arg)
            assert from_env[0] is expected
            assert from_env == outcome(reference, S, arg)
            # an explicit cap wins over the environment
            assert outcome(check, S, arg, max_cells=3) == outcome(reference, S, arg, max_cells=3) == ()
        monkeypatch.delenv("EPISTEMIC_MAX_CELLS")


# ---------------------------------------------------------------------------
# like-mindedness by key position against the event-lookup reference
# ---------------------------------------------------------------------------


def _seeded_2_and_3_agent_structures(seed, per_count):
    rng = random.Random(seed)
    seeded = {2: [], 3: []}
    while min(len(found) for found in seeded.values()) < per_count:
        S = random_partitional(rng, max_states=4, max_agents=3, max_cells=3)
        if len(S.agents) >= 2 and len(S.states) >= 3 and len(seeded[len(S.agents)]) < per_count:
            seeded[len(S.agents)].append(S)
    return seeded[2] + seeded[3]


def test_shared_fact_holds_each_events_position_in_both_domains():
    for S in [make_d1(), _chain(6), _same_cells_structure(), *_seeded_2_and_3_agent_structures(401, 4)]:
        for i, j in itertools.combinations(S.agents, 2):
            shared = decisions._shared_events(S, i, j, None)
            assert [e for e, _, _ in shared] == shared_events_reference(S, i, j)
            for event, p, q in shared:
                assert gamma(S, i)[p] == event == gamma(S, j)[q]


def test_keyed_like_mindedness_matches_the_lookup_reference():
    seen = Counter()
    for S in [make_d1(), _chain(6), *_seeded_2_and_3_agent_structures(307, 4)]:
        built = build_counterfactual(S)
        # like-mindedness relaxed, so that families break it; enforced, so that none does
        for like_minded in (False, True):
            families = enumerate_decision_profiles(S, 2, stp=True, like_minded=like_minded)
            for family in itertools.islice(families, 1500):
                expected = disagreements_reference(S, family)
                assert check_like_minded(S, family).entries == expected
                assert check_like_minded(S, family[::-1]).entries == expected
                verdict = check_agreement(built, family)
                assert tuple(v for v in verdict.hypothesis_violations if v.kind == "like-minded") == expected
                seen[len(S.agents), like_minded, bool(expected)] += 1
    assert seen[2, False, True] > 1000 and seen[3, False, True] > 100
    assert not seen[2, True, True] and not seen[3, True, True]
    assert seen[2, True, False] > 1000 and seen[3, True, False] > 10


def test_keyed_field_like_mindedness_matches_the_lookup_reference():
    seen = Counter()
    for S in [make_d1(), *_seeded_2_and_3_agent_structures(503, 2)]:
        field = powerset_field(S) if len(S.states) <= 3 else union_of_gammas(S)
        families = enumerate_decision_profiles(S, 2, kind="field", field=field, stp=True, max_families=40_000)
        for family in itertools.islice(families, 1500):
            expected = disagreements_reference(None, family)
            assert check_like_minded(None, family).entries == expected
            assert check_like_minded(S, family[::-1]).entries == expected
            seen[bool(expected)] += 1
    assert seen[True] > 1000 and seen[False] > 10


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_counts_d1(d1):
    assert sum(1 for _ in enumerate_decision_profiles(d1, 2)) == 1024
    assert sum(1 for _ in enumerate_decision_profiles(d1, 1)) == 1


def test_enumeration_single_action_satisfies_everything(d1, d1_cf):
    (family,) = list(
        enumerate_decision_profiles(d1, 1, stp=True, like_minded=True)
    )
    for df in family:
        assert check_stp_gamma(d1, df).ok
    assert check_like_minded(d1, family).ok


def test_constrained_enumeration_matches_bruteforce_filter(d1):
    everything = list(enumerate_decision_profiles(d1, 2))

    def key(family):
        return tuple(
            (df.agent, tuple(sorted((tuple(sorted(e)), a) for e, a in df.table.items())))
            for df in family
        )

    smart = list(enumerate_decision_profiles(d1, 2, stp=True, like_minded=True))
    brute = [
        fam
        for fam in everything
        if all(check_stp_gamma(d1, df).ok for df in fam)
        and check_like_minded(d1, fam).ok
    ]
    assert len(smart) == len(brute) == 150
    assert {key(f) for f in smart} == {key(f) for f in brute}

    smart_stp = list(enumerate_decision_profiles(d1, 2, stp=True))
    assert len(smart_stp) == 300  # 6 tables for a, 50 for b


def test_field_enumeration_with_stp_above_six_states():
    S = InformationStructure(
        [f"s{k}" for k in range(7)], ["a"],
        {"a": equivalence_pairs([["s0", "s1"], ["s2"], ["s3", "s4", "s5", "s6"]])},
    )
    field = union_of_gammas(S)
    smart = [
        family[0].table
        for family in enumerate_decision_profiles(
            S, 2, kind="field", field=field, stp=True, like_minded=True
        )
    ]
    brute = [
        table
        for combo in itertools.product("01", repeat=len(field))
        for table in (dict(zip(field, combo)),)
        if check_stp_field(field, field_df("a", table)).ok
    ]
    assert smart == brute and len(brute) == 32


def test_field_stp_filter_matches_an_oracle_that_shares_no_code():
    """The enumeration's filter against ``stp_field_bruteforce``, which walks every subfamily
    itself, on the 3-state power set and on random restricted fields of at most 8 events; and
    ``check_stp_field`` lists its violations in lexicographic order of member positions."""
    states = ["w0", "w1", "w2", "w3"]
    S = InformationStructure(states, ["a", "b"], {a: equivalence_pairs([[s] for s in states]) for a in "ab"})
    subsets = [frozenset(c) for r in range(1, 5) for c in itertools.combinations(states, r)]
    rng = random.Random(67)
    power3 = [e for e in subsets if "w3" not in e]
    cases = [(power3, "01"), (power3, "012")]
    cases += [(rng.sample(subsets, rng.randint(3, 8)), "01") for _ in range(12)]
    ordered = 0
    for field, actions in cases:
        domain = sorted(field, key=canonical_event_string)
        smart = [family[0].table for family in enumerate_decision_profiles(
            S, len(actions), kind="field", field=field, stp=True, like_minded=True)]
        tables = [dict(zip(domain, combo)) for combo in itertools.product(actions, repeat=len(domain))]
        assert smart == [table for table in tables if not stp_field_bruteforce(domain, table)]
        for table in tables[::5]:
            result = check_stp_field(field, field_df("a", table))
            positions = [tuple(domain.index(e) for e in v.events) for v in result]
            assert positions == sorted(positions)
            assert {(frozenset(v.events), v.union_event) for v in result} == stp_field_bruteforce(domain, table)
            ordered += len(positions) > 1
    assert ordered > 50


def test_an_action_count_above_the_cap_raises_before_any_name_is_built(d1):
    for mode in ("theorem2", "theorem1"):
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError) as err:
            search_disagreement(d1, 10**20, mode=mode)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == f"{10**20} actions give each agent more than the cap of 1000000 tables"
    # a count at the cap takes the per-agent count, and its message, as before
    with pytest.raises(ResourceLimitError, match="agent 'a' alone admits 27 tables, above the cap of 3"):
        next(enumerate_decision_profiles(d1, 3, max_families=3))


def _singleton_cells(states, agents=1):
    """One state per cell for every agent."""
    names = [f"s{k:02d}" for k in range(states)]
    agent_names = [f"a{k:05d}" for k in range(agents)]
    return InformationStructure(names, agent_names, {a: equivalence_pairs([[s] for s in names]) for a in agent_names})


def test_counts_past_the_printable_digits_raise_resource_limit_errors():
    # Python turns no int of more than 4,300 digits into a string, so these print a lower bound
    cases = {
        # 12 actions on the 4,095 events of 12 singleton cells' union closure
        "agent 'a00000' alone admits at least 2**14680 tables, above the cap of 1000000":
            lambda: search_disagreement(_singleton_cells(12), 12, relax=["stp"]),
        # 4 actions on the 8,191 events of a 13-state power set
        "at least 2**16382 tables per agent exceed the cap of 1000000":
            lambda: next(enumerate_decision_profiles(_singleton_cells(13), 4, kind="field")),
        "at least 2**16609 actions give each agent more than the cap of 1000000 tables":
            lambda: next(enumerate_decision_profiles(_singleton_cells(1), 10**5000)),
        # two tables for each of 14,300 agents
        "at least 2**14300 families exceed the cap of 1000000":
            lambda: next(enumerate_decision_profiles(_singleton_cells(1, agents=14300), 2)),
    }
    for message, call in cases.items():
        with pytest.raises(ResourceLimitError) as err:
            call()
        assert str(err.value) == message
    with pytest.raises(ResourceLimitError) as err:
        next(enumerate_decision_profiles(_singleton_cells(1, agents=14300), 2, kind="field"))
    assert str(err.value) == "at least 2**14300 families exceed the cap of 1000000"


def test_enumeration_is_deterministic(d1):
    first = list(enumerate_decision_profiles(d1, 2, stp=True))
    second = list(enumerate_decision_profiles(d1, 2, stp=True))
    assert first == second


@pytest.mark.parametrize("kind", ["gamma", "field"])
@pytest.mark.parametrize("stp", [False, True])
@pytest.mark.parametrize("like_minded", [False, True])
def test_enumerated_functions_equal_the_normal_build(kind, stp, like_minded):
    rng = random.Random(53)
    checked = 0
    for _ in range(12):
        S = random_partitional(rng, max_states=4, max_agents=3, max_cells=3)
        if len(S.agents) < 2:
            continue
        field = {"field": union_of_gammas(S)} if kind == "field" else {}
        try:
            families = list(enumerate_decision_profiles(
                S, 2, kind=kind, stp=stp, like_minded=like_minded, max_families=600, **field))
        except ResourceLimitError:
            continue
        checked += 1
        tables = [df.table for family in families for df in family]
        assert len({id(t) for t in tables}) == len(tables)  # every yielded table is its own dict
        for family in families:
            for df in family:
                rebuilt = DecisionFunction(agent=df.agent, kind=df.kind, table=df.table)
                assert df == rebuilt and type(df) is DecisionFunction
                assert all(type(e) is frozenset for e in df.table)
    assert checked >= 3


def test_search_builds_no_decision_function_through_validation(monkeypatch):
    calls = Counter()
    post_init = DecisionFunction.__post_init__

    def counting(self):
        calls["post_init"] += 1
        post_init(self)

    monkeypatch.setattr(DecisionFunction, "__post_init__", counting)
    assert search_disagreement(make_d1(), 3) is None
    assert calls["post_init"] == 0
    gamma_df("a", {e: "x" for e in gamma(make_d1(), "a")})
    assert calls["post_init"] == 1  # the counter sees a normal build


def test_enumeration_cap(d1):
    with pytest.raises(ResourceLimitError):
        list(enumerate_decision_profiles(d1, 3, max_families=100))


@pytest.mark.parametrize("like_minded, message", [
    (True, "8 shared tables exceed the cap of 7"),
    (False, "8 tables per agent exceed the cap of 7"),
])
def test_field_enumeration_caps_one_agent_tables_before_the_families(d1, like_minded, message):
    field = [ev("w0"), ev("w1"), ev("w0", "w1")]  # 2 ** 3 tables per agent
    with pytest.raises(ResourceLimitError) as err:
        next(enumerate_decision_profiles(d1, 2, kind="field", field=field, like_minded=like_minded,
                                         max_families=7))
    assert str(err.value) == message
    if like_minded:  # one shared table per family: at the cap, every table is yielded
        assert len(list(enumerate_decision_profiles(d1, 2, kind="field", field=field, like_minded=True,
                                                    max_families=8))) == 8


def _chain(n):
    states = [f"s{k:02d}" for k in range(n)]
    return InformationStructure(states, ["a", "b"], {
        "a": equivalence_pairs([[states[k], states[k + 1]] for k in range(0, n, 2)]),
        "b": equivalence_pairs([[states[k], states[(k + 1) % n]] for k in range(1, n, 2)]),
    })


def _three():
    # c shares w0+w1 and w2 with a, and w0 and w1+w2 with b only, so its bucket key reads both
    states = ["w0", "w1", "w2"]
    return InformationStructure(states, ["a", "b", "c"], {
        "a": equivalence_pairs([["w0", "w1"], ["w2"]]),
        "b": equivalence_pairs([["w0"], ["w1", "w2"]]),
        "c": equivalence_pairs([[s] for s in states]),
    })


def _stream_outcome(stream):
    """Every family of a stream in order, or the type and message of the error it raised."""
    try:
        return list(stream)
    except EpistemicError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("stp", [False, True])
@pytest.mark.parametrize("like_minded", [False, True])
def test_like_minded_join_matches_the_filtered_product(stp, like_minded):
    rng = random.Random(211)
    seeded = {2: [], 3: []}
    while min(len(found) for found in seeded.values()) < 5:
        S = random_partitional(rng, max_states=4, max_agents=3, max_cells=3)
        if len(S.agents) >= 2 and len(S.states) >= 3 and len(seeded[len(S.agents)]) < 5:
            seeded[len(S.agents)].append(S)
    cases = [(make_d1(), k) for k in (1, 2, 3)] + [(_chain(6), 2), (_three(), 2)]
    cases += [(S, 2) for S in seeded[2] + seeded[3]]
    compared = Counter()
    for S, k in cases:
        # d1 with 3 actions and the principle has exactly 20,475 candidate families
        for cap in (20_475, 40):
            kwargs = dict(stp=stp, like_minded=like_minded, max_families=cap)
            got = _stream_outcome(enumerate_decision_profiles(S, k, **kwargs))
            assert got == _stream_outcome(gamma_profiles_reference(S, k, **kwargs))
            if isinstance(got, list):
                compared[len(S.agents)] += len(got)
            else:
                assert got[0] is ResourceLimitError
                compared["raised"] += 1
    assert compared[2] > 1000 and compared[3] > 100 and compared["raised"] > 0


def _tables_outcome(tables, *args):
    try:
        return tables(*args)
    except EpistemicError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("stp", [False, True])
def test_gamma_tables_match_the_completion_reference(stp):
    rng = random.Random(607)
    seeded = [random_partitional(rng, max_states=5, max_agents=3, max_cells=4) for _ in range(40)]
    states = [f"s{k}" for k in range(5)]
    singletons = InformationStructure(states, ["a"], {"a": equivalence_pairs([[s] for s in states])})
    compared = Counter()
    for S in [make_d1(), _chain(6), _three(), singletons, *seeded]:
        for acts in map(normalize_actions, (1, 2, 3)):
            for agent in S.agents:
                args = (S, agent, acts, stp)
                full = _tables_outcome(decisions._gamma_tables, *args, 5_000, None)
                assert full == _tables_outcome(gamma_tables_reference, *args, 5_000, None)
                if type(full) is tuple:
                    compared[full] += 1
                    continue
                order = list(gamma(S, agent))
                assert all(list(table) == order for table in full)  # each dict in canonical domain order
                compared["tables"] += len(full)
                # the cap at exactly the table count returns them all, one below raises
                for cap, outcome_type in ((len(full), list), (len(full) - 1, tuple)):
                    got = _tables_outcome(decisions._gamma_tables, *args, cap, None)
                    assert got == _tables_outcome(gamma_tables_reference, *args, cap, None)
                    assert type(got) is outcome_type
    assert compared["tables"] > 10_000
    # 5 singleton cells with 2 actions: 2**31 tables, and over 5,000 that respect the principle
    assert compared[ResourceLimitError, "too many principle-respecting tables for agent 'a'"] >= 2 * stp
    assert compared[ResourceLimitError, "agent 'a' alone admits 2147483648 tables, above the cap of 5000"] == 1 - stp


@pytest.mark.parametrize("kind", ["gamma", "field"])
def test_family_cap_must_be_positive(d1, kind):
    for cap in (0, -1):
        with pytest.raises(InputError, match="^family cap must be positive$"):
            next(enumerate_decision_profiles(d1, 2, kind=kind, max_families=cap))
        mode = "theorem2" if kind == "gamma" else "theorem1"
        for relax in ((), ("stp",), ("like_minded",)):
            with pytest.raises(InputError, match="^family cap must be positive$"):
                search_disagreement(d1, 2, relax=relax, mode=mode, max_families=cap)
    # the smallest positive cap still counts families as before
    assert len(list(enumerate_decision_profiles(d1, 1, kind=kind, max_families=1))) == 1


def test_empty_field_is_refused_before_any_family(d1):
    for stp, like_minded in itertools.product([False, True], repeat=2):
        families = enumerate_decision_profiles(d1, 2, kind="field", field=[], stp=stp, like_minded=like_minded)
        with pytest.raises(InputError, match="^field must contain at least one event$"):
            next(families)
    for relax in ((), ("stp",), ("like_minded",), ("like_minded", "stp")):
        with pytest.raises(InputError, match="^field must contain at least one event$"):
            search_disagreement(d1, 2, relax=relax, mode="theorem1", field=[])


def test_field_enumeration_like_minded_count(d1):
    field = (ev("w0"), ev("w1"), ev("w0", "w1"))
    families = list(
        enumerate_decision_profiles(d1, 2, kind="field", field=field, like_minded=True)
    )
    assert len(families) == 8
    for family in families:
        tables = {
            tuple(sorted((tuple(sorted(e)), a) for e, a in df.table.items()))
            for df in family
        }
        assert len(tables) == 1
    constrained = list(
        enumerate_decision_profiles(
            d1, 2, kind="field", field=field, like_minded=True, stp=True
        )
    )
    brute = [
        fam
        for fam in families
        if all(check_stp_field(field, df).ok for df in fam)
    ]
    assert len(constrained) == len(brute) == 6  # 8 minus the two x,x->y style tables


def test_union_of_gammas_d1(d1):
    events = union_of_gammas(d1)
    assert set(events) == set(gamma(d1, "a")) | set(gamma(d1, "b"))
    assert len(events) == 9  # 3 + 7 with the full event shared


def test_decision_function_validation():
    with pytest.raises(InputError):
        DecisionFunction(agent="a", kind="nope", table={})
    with pytest.raises(InputError):
        DecisionFunction(agent="a", kind="gamma", table={ev("w0"): "bad action"})


def test_iterator_arguments_give_what_lists_give(d1, d1_cf):
    # a gamma family where a plays 1 everywhere and b plays 0: one like-mindedness violation
    family = [DecisionFunction("a", "gamma", {e: "1" for e in gamma(d1, "a")}),
              DecisionFunction("b", "gamma", {e: "0" for e in gamma(d1, "b")})]
    field = list(union_of_gammas(d1))
    field_df = next(enumerate_decision_profiles(d1, 2, kind="field", field=field))[0]
    partial = {cell: "x" for cell in partition(d1, "a")}
    calls = [
        lambda it: check_like_minded(d1, it(family)),
        lambda it: check_agreement(d1_cf, it(family), group=it(["a", "b"])),
        lambda it: check_stp_field(it(field), field_df),
        lambda it: complete_stp_field(it(field), partial),
        lambda it: decisions_to_document(it(family), actions=it(["2"])),
        lambda it: serialize_decisions(it(family)),
        lambda it: d1_cf.counterfactual_state("a", "w0", it(["w0", "w1"])),
        lambda it: list(enumerate_decision_profiles(d1, 2, kind="field", field=it(field), stp=True,
                                                    like_minded=True)),
    ]
    for relax in ([], ["stp"], ["like_minded"]):
        calls.append(lambda it, relax=relax: search_disagreement(d1, 2, relax=it(relax), group=it(["a", "b"])))
    calls.append(lambda it: search_disagreement(d1, 2, mode="theorem1", field=it(field), relax=it(["stp"]),
                                                group=it(["b", "a"])))
    for call in calls:
        assert call(iter) == call(list)
    assert len(check_like_minded(d1, iter(family))) == 1
    assert decisions_to_document(iter(family))["agents"]
    for relax in (["stp"], ["like_minded"]):
        assert search_disagreement(d1, 2, relax=relax, group=iter(["a", "b"])) is not None
    with pytest.raises(NotFoundError) as err:
        d1_cf.counterfactual_state("a", "w0", iter(["w1", "w9"]))
    assert str(err.value) == "no counterfactual state for agent 'a', base 'w0', event w1+w9"
