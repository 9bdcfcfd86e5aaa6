"""Decision functions, the Sure-Thing Principle, and like-mindedness.

Two domain shapes are supported. A ``gamma`` decision function is defined on
the union closure of one agent's partition cells, the shape used on
counterfactual structures. A ``field`` decision function is defined on one
shared family of events over the original states, the shape used directly on
partitional structures. Checkers return violation lists; an empty list means
the property holds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, InputError, ResourceLimitError
from .partitions import _closure, gamma
from .structures import (
    Event,
    InformationStructure,
    _require_structure,
    canonical_event_string,
    validate_token,
)

GAMMA_KIND = "gamma"
FIELD_KIND = "field"

_FAMILY_NODE_CAP = 1_000_000


@dataclass
class DecisionFunction:
    """One agent's mapping from events (information) to actions."""

    agent: str
    kind: str
    table: dict[Event, str]

    def __post_init__(self):
        validate_token(self.agent, "agent")
        if self.kind not in (GAMMA_KIND, FIELD_KIND):
            raise InputError(f"decision kind must be {GAMMA_KIND!r} or {FIELD_KIND!r}, got {self.kind!r}")
        normalized: dict[Event, str] = {}
        try:
            for event, action in self.table.items():
                validate_token(action, "action")
                normalized[frozenset(event)] = action
        except (AttributeError, TypeError):
            raise InputError(f"decision table for agent {self.agent!r} must map events to actions, "
                             f"got {self.table!r}") from None
        self.table = normalized

    @classmethod
    def _built(cls, agent: str, kind: str, table: dict[Event, str]) -> DecisionFunction:
        """A function from parts already normalized: a valid agent and kind,
        frozenset events and validated actions. Equal to the normal build."""
        df = cls.__new__(cls)
        df.agent, df.kind, df.table = agent, kind, table
        return df

    def actions(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.table.values())))


@dataclass(frozen=True)
class Violation:
    kind: str  # "stp" | "like-minded"
    agents: tuple[str, ...]
    events: tuple[Event, ...]
    union_event: Event | None
    expected: str
    actual: str

    def describe(self) -> str:
        evs = ", ".join(canonical_event_string(e) or "(empty)" for e in self.events)
        if self.kind == "stp":
            return (
                f"stp: agent {self.agents[0]} maps {{{evs}}} to {self.expected!r} "
                f"but their union {canonical_event_string(self.union_event)} to {self.actual!r}"
            )
        return (
            f"like-minded: agents {self.agents[0]} and {self.agents[1]} disagree on "
            f"{evs}: {self.expected!r} vs {self.actual!r}"
        )


@dataclass(frozen=True)
class ViolationList:
    entries: tuple[Violation, ...]
    exhaustive: ClassVar[bool] = True  # every checker is exact

    @property
    def ok(self) -> bool:
        return not self.entries

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)


def _is_count(value) -> bool:
    """Whether a value is an integer count: a bool is an int to Python, but not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def normalize_actions(actions) -> tuple[str, ...]:
    """Accept an action count or explicit names; return them sorted."""
    if _is_count(actions):
        if actions < 1:
            raise InputError("need at least one action")
        return tuple(str(k) for k in range(actions))
    try:
        names = sorted(set(actions))
    except TypeError:
        raise InputError(f"actions must be a count or an iterable of action names, got {actions!r}") from None
    if not names:
        raise InputError("need at least one action")
    for a in names:
        validate_token(a, "action")
    return tuple(names)


def powerset_field(structure: InformationStructure) -> tuple[Event, ...]:
    """All non-empty events over the structure's states, the maximal field."""
    _require_structure(structure)
    states = structure.states
    if len(states) > 16:
        raise ResourceLimitError(f"power-set field over {len(states)} states is too large")
    return _compiled_field(frozenset(
        frozenset(c) for r in range(1, len(states) + 1) for c in itertools.combinations(states, r)))[0]


def union_of_gammas(structure: InformationStructure, *, max_cells: int | None = None) -> tuple[Event, ...]:
    """The union of every agent's decision domain; a restricted field that
    reproduces the classic definedness failures."""
    _require_structure(structure)
    return _compiled_field(frozenset(
        e for agent in structure.agents for e in gamma(structure, agent, max_cells=max_cells)))[0]


def _shared_events(structure: InformationStructure, i: str, j: str,
                   max_cells: int | None) -> tuple[tuple[Event, int, int], ...]:
    """(event, its position in i's domain order, its position in j's) for every event both
    agents' domains hold, in canonical order."""
    shared = structure._facts.get(("shared", i, j))
    if shared is None:
        def build():
            order = gamma(structure, i, max_cells=max_cells)
            at_j = {e: q for q, e in enumerate(gamma(structure, j, max_cells=max_cells))}
            return tuple((e, p, at_j[e]) for p, e in enumerate(order) if e in at_j)

        shared = structure._memo(("shared", i, j), build)
    return shared


def _table_key(structure: InformationStructure, df: DecisionFunction,
               max_cells: int | None) -> tuple[str, ...]:
    """The agent, then the table's actions over the agent's union closure in canonical order:
    the one walk that validates a gamma table and reads it. Equal tables get equal keys, and
    a table edited in place gets a new one.

    A table that holds every domain event and no more keys than the domain has covers the
    domain exactly.
    """
    if df.kind != GAMMA_KIND:
        raise InputError(f"expected a gamma-kind decision function for agent {df.agent!r}")
    order = _closure(structure, df.agent, max_cells)[1]
    table = df.table
    if len(table) == len(order):
        try:
            actions = itemgetter(*order)(table)  # in C; of one key it returns the action itself
            return (df.agent, *actions) if len(order) > 1 else (df.agent, actions)
        except KeyError:
            pass
    _validate_gamma_domain(structure, df, max_cells=max_cells)


def _validate_gamma_domain(structure: InformationStructure, df: DecisionFunction,
                           *, max_cells: int | None = None) -> None:
    """Raise unless the table covers the agent's union closure exactly, naming the difference."""
    domain = _closure(structure, df.agent, max_cells)[2]
    if df.table.keys() != domain:
        missing = sorted(canonical_event_string(e) for e in domain - df.table.keys())[:3]
        extra = sorted(canonical_event_string(e) for e in df.table.keys() - domain)[:3]
        raise InputError(
            f"gamma decision table for agent {df.agent!r} must cover the union closure exactly "
            f"(missing {missing}, extra {extra})"
        )


def _undecided(agent: str, state: str, info: Event) -> DomainError:
    """The error for a state whose possibility set has no entry in the agent's table."""
    return DomainError(
        f"agent {agent!r} has no decision for their information at state {state!r} "
        f"(event {canonical_event_string(info)})",
        event=info,
    )


# ---------------------------------------------------------------------------
# Sure-Thing Principle
# ---------------------------------------------------------------------------


def check_stp_gamma(structure: InformationStructure, df: DecisionFunction,
                    *, max_cells: int | None = None) -> ViolationList:
    """Uniform families of partition cells must map their union to the shared action.

    Cells are the atoms of the union closure, so each domain event decomposes
    uniquely and the check is a direct sweep over cell subsets.
    """
    try:
        key = _table_key(structure, df, max_cells)  # raises unless the table covers the domain exactly
    except AttributeError:
        raise InputError("the Sure-Thing Principle check needs a structure and a decision function") from None
    _, order, _, pairs = _closure(structure, df.agent, max_cells)
    return _stp_violations(df.agent, order, pairs, key[1:])


def _stp_violations(agent: str, events: Sequence[Event], pairs, actions: Sequence[str]) -> ViolationList:
    """The principle's violations of one agent's table, ``actions[p]`` being its action on
    ``events[p]``, in the order of ``pairs``."""
    pairs = iter(pairs)  # one iterator, so that each search resumes after the last break
    entries = []
    while (found := _first_break(pairs, actions)) is not None:
        members, union = found
        entries.append(Violation(kind="stp", agents=(agent,), events=tuple(events[k] for k in members),
                                 union_event=events[union], expected=actions[members[0]], actual=actions[union]))
    return ViolationList(entries=tuple(entries))


def _first_break(pairs, actions: Sequence[str]) -> tuple[tuple[int, ...], int] | None:
    """The first (member positions, union position) pair of ``pairs`` whose members all take
    one action that the union does not take, or None: the principle's one test.

    A plain function that returns early, not a generator: the field enumeration runs it once
    per candidate table (984k times in one witness-sweep round).
    """
    for members, union in pairs:
        first = actions[members[0]]
        if actions[union] != first and all(actions[m] == first for m in members[1:]):
            return members, union
    return None


@functools.lru_cache(maxsize=1)  # a search reads one field for every agent of every family
def _compiled_field(field: frozenset[Event]) -> tuple[tuple[Event, ...], tuple[int, ...], tuple[str, ...]]:
    """The field's events in canonical order, their masks, and the states the mask bits stand for."""
    events = tuple(sorted(field, key=canonical_event_string))
    universe = tuple(sorted(frozenset().union(*events)))
    index = {s: k for k, s in enumerate(universe)}
    return events, tuple(sum(1 << index[s] for s in e) for e in events), universe


def _read_field(field: Iterable[Event], states: Sequence[str] | None = None
                ) -> tuple[tuple[Event, ...], tuple[int, ...], tuple[str, ...]]:
    """A caller's field compiled (see ``_compiled_field``): the one place that checks a field.
    Its events must be non-empty and, where the caller has a structure, over its ``states``."""
    try:
        compiled = _compiled_field(frozenset(map(frozenset, field)))
    except TypeError:
        raise InputError(f"field must be an iterable of events, got {field!r}") from None
    events, _, universe = compiled
    if events and not events[0]:  # the empty event sorts first
        raise InputError("field events must be non-empty")
    if states is not None and not set(universe).issubset(states):
        raise InputError("field events must be non-empty subsets of the state set")
    return compiled


def _disjoint_walk(masks: Sequence[int], labels: Sequence[str] | None = None
                   ) -> Iterator[tuple[tuple[int, ...], int]]:
    """(member indices, union mask) for every family of one or more pairwise-disjoint masks,
    depth first in canonical order: a family, then its extensions by each later index in
    turn. With ``labels``, only families whose members share one label.

    Callers count the yields against their own caps and stop the walk by raising. From a
    stack, children pushed in reverse so they pop in index order; a nested function calling
    itself would hold itself in a closure cell, a reference cycle.
    """
    stack: list[tuple[tuple[int, ...], int, int]] = [((), 0, 0)]  # (members, union, start)
    while stack:
        chosen, union, start = stack.pop()
        if chosen:
            yield chosen, union
        label = labels[chosen[0]] if chosen and labels is not None else None
        stack.extend((chosen + (k,), union | masks[k], k + 1) for k in reversed(range(start, len(masks)))
                     if not masks[k] & union and (label is None or labels[k] == label))


@functools.lru_cache(maxsize=1)  # a search checks every agent of every family on one field
def _disjoint_families(masks: tuple[int, ...], *, node_cap: int = _FAMILY_NODE_CAP):
    """Index tuples of pairwise-disjoint events (size >= 2) whose union is in the field."""
    by_mask = {m: k for k, m in enumerate(masks)}
    out: list[tuple[tuple[int, ...], int]] = []
    for nodes, (chosen, union) in enumerate(_disjoint_walk(masks), 1):
        if nodes > node_cap:
            raise ResourceLimitError("too many disjoint event families to enumerate")
        if len(chosen) >= 2 and union in by_mask:
            out.append((chosen, by_mask[union]))
    return tuple(out)


def check_stp_field(field: Iterable[Event], df: DecisionFunction) -> ViolationList:
    """Check the field form of the principle: disjoint same-action events whose
    union lies in the field must map that union to the same action.

    Exact at every size: every disjoint family is enumerated, and a field with
    too many of them raises :class:`ResourceLimitError` rather than truncating.
    """
    try:
        kind = df.kind
    except AttributeError:
        raise InputError("the Sure-Thing Principle check needs a field and a decision function") from None
    if kind != FIELD_KIND:
        raise InputError(f"expected a field-kind decision function for agent {df.agent!r}")
    events, masks, _ = _read_field(field)
    if not events:
        raise InputError("field must contain at least one event")
    if df.table.keys() != set(events):
        raise InputError(f"field decision table for agent {df.agent!r} must be total on the field exactly")
    return _stp_violations(df.agent, events, _disjoint_families(masks), [df.table[e] for e in events])


def complete_stp_field(field: Iterable[Event], table: Mapping[Event, str]) -> dict[Event, str]:
    """Extend a partial field table with every value the principle forces.

    Repeatedly finds disjoint same-action families among the already-valued
    events and fills in their unions. A forced union that lies outside the
    field raises :class:`DomainError` naming it; that is the definedness
    failure of restricted fields. A forced value that contradicts an existing
    one raises :class:`InputError`. Searches that visit more than
    ``_FAMILY_NODE_CAP`` nodes in all raise :class:`ResourceLimitError`.
    """
    events, masks, universe = _read_field(field)
    try:
        out = {frozenset(e): a for e, a in table.items()}
    except (AttributeError, TypeError):
        raise InputError(f"table must map field events to actions, got {table!r}") from None
    field_set = set(events)
    for e in out:
        if e not in field_set:
            raise InputError(f"table event {canonical_event_string(e)} is not in the field")
    by_mask = {m: k for k, m in enumerate(masks)}
    nodes = 0
    while True:
        size = len(out)
        # Values taken at the start of the round: a union filled in joins the search next round.
        valued = [k for k, e in enumerate(events) if e in out]
        labels = [out[events[k]] for k in valued]
        # Every node of the walk counts, and every family of two or more is filled in as it is reached.
        for members, union in _disjoint_walk([masks[k] for k in valued], labels):
            nodes += 1
            if nodes > _FAMILY_NODE_CAP:
                raise ResourceLimitError(f"completion search passed {_FAMILY_NODE_CAP} nodes")
            if len(members) < 2:
                continue
            k = by_mask.get(union)
            if k is None:
                event = frozenset(s for b, s in enumerate(universe) if union >> b & 1)
                raise DomainError(
                    f"the principle forces a decision on {canonical_event_string(event)}, "
                    f"which is outside the field",
                    event=event,
                )
            if out.setdefault(events[k], labels[members[0]]) != labels[members[0]]:
                raise InputError(f"table already violates the principle at {canonical_event_string(events[k])}")
        if len(out) == size:
            return out


# ---------------------------------------------------------------------------
# Like-mindedness
# ---------------------------------------------------------------------------


def check_like_minded(
    structure: InformationStructure | None,
    dfs: Iterable[DecisionFunction],
    *,
    max_cells: int | None = None,
) -> ViolationList:
    """Agents must agree wherever their decision domains overlap.

    For gamma-kind functions the overlap is the intersection of the agents'
    union closures (the structure is needed to compute them). For field-kind
    functions the domains coincide, so the tables must be identical.
    """
    try:
        dfs = tuple(dfs or ())  # read once: an iterator is used up by its first pass
        kinds = {df.kind for df in dfs}
    except (TypeError, AttributeError):
        raise InputError("decision family must be an iterable of decision functions") from None
    if not dfs:
        raise InputError("need at least one decision function")
    if len(kinds) > 1:
        raise InputError("cannot mix gamma-kind and field-kind decision functions")
    agents = [df.agent for df in dfs]
    if len(set(agents)) != len(agents):
        raise InputError("duplicate agent in decision family")
    kind = kinds.pop()
    if kind == GAMMA_KIND:
        if not isinstance(structure, InformationStructure):
            raise InputError("gamma-kind like-mindedness needs the underlying structure")
        keys = [_table_key(structure, df, max_cells) for df in dfs]  # sorted below by agent, which leads each key
        return ViolationList(entries=_disagreements(sorted(keys), structure, max_cells))
    events, _, keys = _field_keys(dfs, structure.states if isinstance(structure, InformationStructure) else None)
    return ViolationList(entries=_disagreements(sorted(keys), None, field=events))


def _field_keys(dfs: Sequence[DecisionFunction], states: Sequence[str] | None = None
                ) -> tuple[tuple[Event, ...], tuple[int, ...], list[tuple[str, ...]]]:
    """The field's events in canonical order and their masks, and per table its agent, then its
    actions on those events: the one walk that validates a field family, whose tables must
    share one domain, read as a field over ``states`` (see ``_read_field``)."""
    domain = dfs[0].table.keys()
    for df in dfs:
        if df.table.keys() != domain:
            raise InputError(f"field decision functions must share one domain; agent {df.agent!r} differs")
    events, masks, _ = _read_field(domain, states)
    return events, masks, [(df.agent, *map(df.table.__getitem__, events)) for df in dfs]


def _disagreements(keys: Sequence[tuple[str, ...]], structure: InformationStructure | None,
                   max_cells: int | None = None, field: tuple[Event, ...] = ()) -> tuple[Violation, ...]:
    """Like-mindedness of validated tables' keys in agent order, compared by position.

    ``keys[k]`` is agent k, then its action on each event of its domain order. Gamma tables
    read each pair's shared events, with their positions, from the ``("shared", i, j)``
    facts of ``structure``. Field tables (``structure`` None) share one domain, so every
    key follows the canonical order of ``field``.
    """
    violations = []
    for key_a, key_b in itertools.combinations(keys, 2):
        pair = key_a[0], key_b[0]
        shared = (_shared_events(structure, *pair, max_cells) if structure is not None
                  else zip(field, range(len(field)), range(len(field))))
        for event, p, q in shared:
            expected, actual = key_a[1 + p], key_b[1 + q]
            if expected != actual:
                violations.append(Violation(kind="like-minded", agents=pair, events=(event,),
                                            union_event=None, expected=expected, actual=actual))
    return tuple(violations)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _gamma_tables(
    structure: InformationStructure,
    agent: str,
    acts: tuple[str, ...],
    stp: bool,
    max_families: int,
    max_cells: int | None,
) -> list[dict[Event, str]]:
    """The agent's tables in lexicographic order of their actions over the canonical domain
    order, every table or only those that respect the principle.

    Under the principle a table is an assignment of actions to the cells plus a choice on
    every union of mixed-action cells; the union of same-action cells takes their action.
    """
    cells, domain, _, pairs = _closure(structure, agent, max_cells)
    _check_table_count(structure, agent, len(acts), stp, max_families, max_cells)
    if not stp:
        return [dict(zip(domain, combo)) for combo in itertools.product(acts, repeat=len(domain))]
    rows: list[tuple[str, ...]] = []
    row: list[str] = [""] * len(domain)
    for cell_combo in itertools.product(acts, repeat=len(cells)):
        for p, action in zip(cells, cell_combo):
            row[p] = action
        free = []
        for members, union in pairs:
            first = row[members[0]]
            if all(row[m] == first for m in members[1:]):
                row[union] = first
            else:
                free.append(union)
        if len(rows) + len(acts) ** len(free) > max_families:
            raise ResourceLimitError(f"too many principle-respecting tables for agent {agent!r}")
        for choice in itertools.product(acts, repeat=len(free)):
            for p, action in zip(free, choice):
                row[p] = action
            rows.append(tuple(row))
    rows.sort()
    return [dict(zip(domain, r)) for r in rows]


def _count_text(n: int) -> str:
    """A count as an error message prints it: its digits, or a lower bound where it has more
    digits than Python turns into a string (4,300 by default)."""
    try:
        return str(n)
    except ValueError:
        return f"at least 2**{n.bit_length() - 1}"


def _check_table_count(structure: InformationStructure, agent: str, count: int, stp: bool,
                       max_families: int, max_cells: int | None) -> None:
    """Raise unless ``count`` actions give the agent at most ``max_families`` tables before the
    principle's unions are chosen: ``count`` per cell under it, per domain event without it.
    Read from the count alone, so it runs before any action name is built."""
    cells, domain, _, _ = _closure(structure, agent, max_cells)
    if not stp:
        tables = count ** len(domain)
        if tables > max_families:
            raise ResourceLimitError(f"agent {agent!r} alone admits {_count_text(tables)} tables, "
                                     f"above the cap of {_count_text(max_families)}")
    elif count ** len(cells) > max_families:
        raise ResourceLimitError(f"too many cell assignments for agent {agent!r}")


def _join_steps(structure: InformationStructure, agents: tuple[str, ...],
                per_agent: list[list[dict[Event, str]]], max_cells: int | None) -> list[tuple]:
    """Per agent, (probes, buckets): each probe is (earlier agent's position, event) for
    an event the agent shares with an earlier agent, read from the first agent that has
    it; the buckets group the agent's tables by their values on those events, each
    bucket in table order."""
    steps = []
    for k, agent in enumerate(agents):
        probes: dict[Event, int] = {}
        for j in range(k):
            for event, _, _ in _shared_events(structure, agents[j], agent, max_cells):
                probes.setdefault(event, j)
        buckets: dict[tuple[str, ...], list[dict[Event, str]]] = {}
        for table in per_agent[k]:
            buckets.setdefault(tuple(table[e] for e in probes), []).append(table)
        steps.append((tuple((j, e) for e, j in probes.items()), buckets))
    return steps


def _join(steps: list[tuple], prefix: tuple[dict[Event, str], ...]) -> Iterator[tuple[dict[Event, str], ...]]:
    """Every like-minded extension of ``prefix`` by one table per remaining agent, in
    product order: each agent reads only the bucket its prefix's shared values select.

    At module level, not a closure: a generator that names itself through a closure
    cell is a reference cycle, and keeps every table alive until a full collection.
    """
    probes, buckets = steps[len(prefix)]
    last = len(prefix) + 1 == len(steps)
    for table in buckets.get(tuple(prefix[j][e] for j, e in probes), ()):
        if last:
            yield prefix + (table,)
        else:
            yield from _join(steps, prefix + (table,))


def enumerate_decision_profiles(
    structure: InformationStructure,
    actions,
    *,
    kind: str = GAMMA_KIND,
    field: Iterable[Event] | None = None,
    stp: bool = False,
    like_minded: bool = False,
    max_families: int = 1_000_000,
    max_cells: int | None = None,
) -> Iterator[tuple[DecisionFunction, ...]]:
    """Stream decision families over the given actions, optionally constrained.

    Families are tuples with one decision function per agent, ordered by agent
    name, and are produced in lexicographic order of (agent, canonical event,
    action). The count of constrained families equals what filtering the
    unconstrained stream would produce. A cap bounds the work; exceeding it
    raises :class:`ResourceLimitError` rather than truncating silently.
    """
    if not _is_count(max_families):
        raise InputError(f"family cap must be an integer, got {max_families!r}")
    if max_families < 1:
        raise InputError("family cap must be positive")
    _require_structure(structure)
    # A count's names are built only once every table count it implies is within the cap.
    acts = None if _is_count(actions) and actions >= 1 else normalize_actions(actions)
    count = actions if acts is None else len(acts)
    # Every agent has a domain event, so it has a table per action at least.
    if acts is None and count > max_families:
        raise ResourceLimitError(f"{_count_text(count)} actions give each agent more than the cap of "
                                 f"{_count_text(max_families)} tables")
    agents = structure.agents
    if kind == GAMMA_KIND:
        for a in agents:
            _check_table_count(structure, a, count, stp, max_families, max_cells)
        acts = acts or normalize_actions(actions)
        per_agent = [
            _gamma_tables(structure, a, acts, stp, max_families, max_cells) for a in agents
        ]
        total = 1
        for tables in per_agent:
            total *= len(tables)
        if total > max_families:
            raise ResourceLimitError(f"{_count_text(total)} families exceed the cap of {_count_text(max_families)}")
        combos = (_join(_join_steps(structure, agents, per_agent, max_cells), ()) if like_minded
                  else itertools.product(*per_agent))
        for combo in combos:
            yield tuple([DecisionFunction._built(a, GAMMA_KIND, dict(t)) for a, t in zip(agents, combo)])
        return

    if kind != FIELD_KIND:
        raise InputError(f"unknown decision kind {kind!r}")
    domain, masks, _ = _read_field(field if field is not None else powerset_field(structure), structure.states)
    if not domain:
        raise InputError("field must contain at least one event")
    count_one = count ** len(domain)
    if count_one > max_families:  # before the disjoint-family walk, which the cap may make needless
        raise ResourceLimitError(f"{_count_text(count_one)} {'shared tables' if like_minded else 'tables per agent'} "
                                 f"exceed the cap of {_count_text(max_families)}")
    families_idx = _disjoint_families(masks) if stp else ()
    acts = acts or normalize_actions(actions)
    combos = itertools.product(acts, repeat=len(domain))
    if stp:  # the tables in which _first_break finds no break, filtered in C: this runs per candidate
        combos = itertools.filterfalse(functools.partial(_first_break, families_idx), combos)
    if like_minded:
        for combo in combos:
            table = dict(zip(domain, combo))
            yield tuple(DecisionFunction._built(a, FIELD_KIND, dict(table)) for a in agents)
        return
    combos = list(combos)
    total = len(combos) ** len(agents)
    if total > max_families:
        raise ResourceLimitError(f"{_count_text(total)} families exceed the cap of {_count_text(max_families)}")
    for chosen in itertools.product(combos, repeat=len(agents)):
        yield tuple(DecisionFunction._built(a, FIELD_KIND, dict(zip(domain, c))) for a, c in zip(agents, chosen))
