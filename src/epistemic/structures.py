"""Finite multi-agent information structures and their belief operators.

States and agents are plain string tokens; events are frozensets of state
names. A structure is immutable once built and every operator is a pure
function of its inputs, so unrestricted concurrent reads are safe.

Internally each event is a bitmask over the lexicographically sorted state
list. That keeps intersection, union, subset and complement at machine-word
cost and makes every derived output deterministic. Each relation is stored
only as one successor mask per state; its ``(from, to)`` pairs are derived
from the masks on demand, already in name order. The per-structure index
(classification, possibility sets, union closures and reachability) only
ever stores recomputable immutable values, so a racing recomputation is
benign.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .errors import InputError

Event = frozenset[str]

CLASS_PARTITIONAL = "partitional"
CLASS_BELIEF = "belief"
CLASS_KD4 = "kd4"
CLASS_OTHER = "other"

_T = TypeVar("_T")


def canonical_event_string(members: Iterable[str]) -> str:
    """Member names sorted lexicographically and joined with '+'.

    The empty event serializes as the empty string. '+' is reserved for
    this purpose, which is why ordinary state names may not contain it.
    """
    return "+".join(sorted(members))


def parse_event_string(text: str) -> Event:
    """Inverse of :func:`canonical_event_string`; rejects non-canonical input."""
    if text == "":
        return frozenset()
    parts = text.split("+")
    if any(p == "" for p in parts):
        raise InputError(f"empty state name in event string {text!r}")
    if parts != sorted(set(parts)):
        raise InputError(f"event string {text!r} is not canonical (sorted, unique)")
    return frozenset(parts)


def validate_token(name: str, kind: str, *, allow_plus: bool = True) -> None:
    if not isinstance(name, str) or not name:
        raise InputError(f"{kind} name must be a non-empty string, got {name!r}")
    if not name.isprintable() or " " in name:  # the space is the one printable whitespace
        raise InputError(f"{kind} name {name!r} contains whitespace or unprintable characters")
    if not allow_plus and "+" in name:
        raise InputError(f"{kind} name {name!r} contains '+', which is reserved for event serialization")


def _names(values: Iterable[str], kind: str) -> list[str]:
    try:
        return list(values)
    except TypeError:
        raise InputError(f"{kind}s must be an iterable of {kind} names, got {values!r}") from None


def _require_structure(value, name: str = "structure") -> None:
    if not isinstance(value, InformationStructure):
        raise InputError(f"{name} must be an information structure, got {value!r}")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _grouped(values: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(value, mask of the positions holding it) per distinct value, by first position."""
    out: dict[int, int] = {}
    for idx, value in enumerate(values):
        out[value] = out.get(value, 0) | 1 << idx
    return tuple(out.items())


@dataclass(frozen=True)
class RelationFlags:
    """Exact evaluation of the four quantified relation properties for one agent."""

    serial: bool
    reflexive: bool
    transitive: bool
    euclidean: bool


@dataclass(frozen=True)
class PropertyReport:
    """Per-agent relation flags plus the structure-level classification."""

    flags: Mapping[str, RelationFlags]  # read-only: the report is shared by every caller
    classification: str


@dataclass(frozen=True)
class AgentIndex:
    """One agent's possibility sets, computed once per structure."""

    groups: tuple[tuple[Event, int, int], ...]  # (set, state mask, first state index), in state order
    cells: tuple[Event, ...]  # the distinct sets, sorted canonically


class InformationStructure:
    """A finite state set, agent set, and one reachability relation per agent.

    ``relations`` maps every agent to an iterable of ``(from, to)`` state
    pairs. Exactly the declared agents must appear as keys. State names may
    not contain ``+`` unless ``allow_plus_in_names`` is set (used for
    generated counterfactual-state names, which embed event strings).
    """

    __slots__ = (
        "states",
        "agents",
        "_index",
        "_succ",
        "_full",
        "_facts",
    )

    def __init__(
        self,
        states: Iterable[str],
        agents: Iterable[str],
        relations: Mapping[str, Iterable[tuple[str, str]]],
        *,
        allow_plus_in_names: bool = False,
    ):
        state_list = _names(states, "state")
        agent_list = _names(agents, "agent")
        if not state_list:
            raise InputError("a structure needs at least one state")
        if not agent_list:
            raise InputError("a structure needs at least one agent")
        for s in state_list:
            validate_token(s, "state", allow_plus=allow_plus_in_names)
        for a in agent_list:
            validate_token(a, "agent")
        if len(set(state_list)) != len(state_list):
            raise InputError("duplicate state names")
        if len(set(agent_list)) != len(agent_list):
            raise InputError("duplicate agent names")

        states_t = tuple(sorted(state_list))
        agents_t = tuple(sorted(agent_list))
        index = {s: k for k, s in enumerate(states_t)}

        succ: dict[str, list[int]] = {}
        try:  # one try around every pair: a TypeError means relations of the wrong shape
            rel_keys = set(relations)
            declared = set(agents_t)
            if rel_keys != declared:
                missing = sorted(declared - rel_keys)
                extra = sorted(rel_keys - declared)
                raise InputError(
                    f"relations must be given for exactly the declared agents (missing {missing}, extra {extra})"
                )
            for agent in agents_t:
                masks = [0] * len(states_t)
                for pair in relations[agent]:
                    try:
                        src, dst = pair
                    except (TypeError, ValueError):
                        raise InputError(f"relation entry {pair!r} for agent {agent!r} is not a pair") from None
                    if src not in index:
                        raise InputError(f"relation for agent {agent!r} references unknown state {src!r}")
                    if dst not in index:
                        raise InputError(f"relation for agent {agent!r} references unknown state {dst!r}")
                    masks[index[src]] |= 1 << index[dst]
                shared: dict[int, int] = {}
                succ[agent] = [shared.setdefault(row, row) for row in masks]  # one int per distinct row
        except TypeError:
            raise InputError("relations must map each agent to an iterable of (from, to) state-name pairs") from None
        self._set_slots(states_t, agents_t, index, succ)

    @classmethod
    def _from_rows(cls, states: tuple[str, ...], agents: tuple[str, ...],
                   succ: dict[str, list[int]]) -> InformationStructure:
        """A structure from checked parts: sorted, distinct state and agent names and one successor
        row per state for each agent; equal to the public build on the same pairs. No name goes
        through ``validate_token``: ``build_counterfactual`` joins validated agent and state
        tokens with ':' and '+', and refuses a generated name that collides, and a copy or an
        unpickled structure (see ``__reduce__``) has the names of a structure already built."""
        structure = cls.__new__(cls)
        structure._set_slots(states, agents, {s: k for k, s in enumerate(states)}, succ)
        return structure

    @classmethod
    def _from_distinct_rows(cls, states: tuple[str, ...], agents: tuple[str, ...],
                            rows: dict[str, tuple[list[int], list[int]]]) -> InformationStructure:
        """A structure from each agent's distinct rows and each state's position among them."""
        return cls._from_rows(states, agents, {a: [distinct[k] for k in at] for a, (distinct, at) in rows.items()})

    def __reduce__(self):
        # A copy is the parts alone: the index is recomputed on use, and some facts cannot be
        # pickled. Pickle does not share equal ints, so each distinct row goes once, and the copy
        # shares equal rows as this structure does.
        rows = {}
        for agent, succ in self._succ.items():
            at: dict[int, int] = {}  # distinct row -> its position, in first-seen order
            positions = [at.setdefault(row, len(at)) for row in succ]
            rows[agent] = (list(at), positions)
        return self._from_distinct_rows, (self.states, self.agents, rows)

    def _set_slots(self, states: tuple[str, ...], agents: tuple[str, ...],
                   index: dict[str, int], succ: dict[str, list[int]]) -> None:
        self.states = states
        self.agents = agents
        self._index = index
        self._full = (1 << len(states)) - 1
        self._succ = succ
        # The per-structure index: immutable facts keyed by ("report",), ("rows"|"agent"|"gamma", a),
        # ("shared", a, b), ("reach", *group) or ("reach_groups", *group), filled on first use.
        self._facts: dict[tuple[str, ...], object] = {}

    # -- basic accessors ---------------------------------------------------

    @property
    def relations(self) -> Mapping[str, frozenset[tuple[str, str]]]:
        """Each agent's relation pairs, derived afresh on every call."""
        return {agent: frozenset(self._pairs_in(agent, self._full)) for agent in self.agents}

    @property
    def full_event(self) -> Event:
        return frozenset(self.states)

    def __len__(self) -> int:
        return len(self.states)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InformationStructure):
            return NotImplemented
        return (
            self.states == other.states
            and self.agents == other.agents
            and self._succ == other._succ
        )

    __hash__ = None  # mutable-looking equality; not meant to be a dict key

    def __repr__(self) -> str:
        return (
            f"InformationStructure({len(self.states)} states, {len(self.agents)} agents, "
            f"{sum(row.bit_count() for rows in self._succ.values() for row in rows)} relation pairs)"
        )

    # -- mask plumbing -----------------------------------------------------

    def _state_index(self, state: str) -> int:
        try:
            return self._index[state]
        except (KeyError, TypeError):  # an unhashable value is no state name either
            raise InputError(f"unknown state {state!r}") from None

    def _check_agent(self, agent: str) -> str:
        try:
            if agent in self._succ:
                return agent
        except TypeError:  # an unhashable value is no agent name either
            pass
        raise InputError(f"unknown agent {agent!r}")

    def _mask(self, event: Iterable[str]) -> int:
        m = 0
        try:
            for s in event:
                m |= 1 << self._state_index(s)
        except TypeError:
            raise InputError(f"an event must be an iterable of state names, got {event!r}") from None
        return m

    def _unmask(self, mask: int) -> Event:
        return frozenset(self.states[i] for i in _bits(mask))

    def _pairs_in(self, agent: str, keep: int) -> list[tuple[str, str]]:
        """The agent's ``(from, to)`` pairs inside the state mask ``keep``, in index (= name) order.
        A ``_bits`` step rescans a whole mask, so names are listed once per distinct row."""
        states = self.states
        succ = self._succ[agent]
        targets: dict[int, list[str]] = {}
        out: list[tuple[str, str]] = []
        prev = names = None
        rows = enumerate(succ) if keep == self._full else ((k, succ[k] & keep) for k in _bits(keep))
        for k, row in rows:
            if row != prev:  # carrier rows come in runs; comparing is cheaper than hashing
                prev, names = row, targets.get(row)
                if names is None:
                    names = targets[row] = [states[v] for v in _bits(row)]
            out.extend([(states[k], v) for v in names])
        return out

    def _memo(self, key: tuple[str, ...], build: Callable[[], _T]) -> _T:
        """The fact stored under ``key``, built on first use."""
        value = self._facts.get(key)
        if value is None:
            value = self._facts[key] = build()
        return value

    def _group(self, group: Iterable[str]) -> tuple[str, ...]:
        try:
            members = sorted(set(group))
        except TypeError:
            raise InputError("agent group must be an iterable of agent names") from None
        if not members:
            raise InputError("agent group must be non-empty")
        for a in members:
            self._check_agent(a)
        return tuple(members)

    # -- possibility and belief --------------------------------------------

    def possibility_set(self, agent: str, state: str) -> Event:
        """All states the agent considers possible at ``state``."""
        self._check_agent(agent)
        return self._unmask(self._succ[agent][self._state_index(state)])

    def _agent_index(self, agent: str) -> AgentIndex:
        """The agent's possibility sets per state and grouped by set (cached)."""
        return self._memo(("agent", agent), lambda: self._build_agent_index(self._check_agent(agent)))

    def _build_agent_index(self, agent: str) -> AgentIndex:
        grouped = self._rows(agent)
        sets = {succ: self._unmask(succ) for succ, _ in grouped}
        return AgentIndex(
            groups=tuple((sets[succ], states, (states & -states).bit_length() - 1) for succ, states in grouped),
            cells=tuple(sorted(sets.values(), key=canonical_event_string)),
        )

    def _rows(self, agent: str) -> tuple[tuple[int, int], ...]:
        """(row, states that have it) per distinct successor row of the agent, by first state (cached)."""
        return self._memo(("rows", agent), lambda: _grouped(self._succ[agent]))

    def _belief_mask(self, agent: str, emask: int) -> int:
        out = 0
        outside = ~emask
        for row, states in self._rows(agent):
            if row & outside == 0:
                out |= states
        return out

    def belief(self, agent: str, event: Iterable[str]) -> Event:
        """States at which the agent's whole possibility set lies inside ``event``."""
        self._check_agent(agent)
        return self._unmask(self._belief_mask(agent, self._mask(event)))

    def _mutual_mask(self, group: tuple[str, ...], emask: int) -> int:
        out = self._full
        for agent in group:
            out &= self._belief_mask(agent, emask)
            if not out:
                break
        return out

    def mutual_belief(self, group: Iterable[str], event: Iterable[str]) -> Event:
        """Intersection of the group members' belief in ``event``."""
        return self._unmask(self._mutual_mask(self._group(group), self._mask(event)))

    # -- common belief -----------------------------------------------------

    def _common_belief_chain(self, group: tuple[str, ...], emask: int) -> list[int]:
        # Greatest fixpoint of X -> M(e) & M(X), descending from the full set.
        # Equals the intersection of all iterated mutual-belief stages but,
        # unlike iterating M directly, it cannot oscillate, and it shrinks
        # strictly until stable (so at most |states| shrinking steps).
        me = self._mutual_mask(group, emask)
        chain = [self._full]
        while True:
            nxt = me & self._mutual_mask(group, chain[-1])
            if nxt == chain[-1]:
                return chain
            chain.append(nxt)

    def common_belief_iterative(self, group: Iterable[str], event: Iterable[str]) -> Event:
        """Common belief as the limit of iterated mutual belief."""
        g = self._group(group)
        return self._unmask(self._common_belief_chain(g, self._mask(event))[-1])

    def _reach_masks(self, group: tuple[str, ...]) -> tuple[int, ...]:
        """For every state, the set of states reachable by group chains of length >= 1."""
        return self._memo(("reach", *group), lambda: self._build_reach_masks(group))

    def _build_reach_masks(self, group: tuple[str, ...]) -> tuple[int, ...]:
        # A state's reach depends only on its group successor row, so each
        # distinct row is searched once and states sharing it share the result.
        adj = [0] * len(self.states)
        for agent in group:
            for i, row in enumerate(self._succ[agent]):
                adj[i] |= row
        reach: dict[int, int] = {}
        for row in adj:
            if row not in reach:
                acc = frontier = row
                while frontier:
                    step = 0
                    for v in _bits(frontier):
                        step |= adj[v]
                    frontier = step & ~acc
                    acc |= frontier
                reach[row] = acc
        return tuple(reach[row] for row in adj)

    def component(self, group: Iterable[str], state: str) -> Event:
        """All states joined to ``state`` by a finite chain of group relations.

        The zero-length chain is admitted, so the state itself always belongs
        to its own component.
        """
        g = self._group(group)
        idx = self._state_index(state)
        return self._unmask(self._reach_masks(g)[idx] | (1 << idx))

    def component_successors(self, group: Iterable[str], state: str) -> Event:
        """Like :meth:`component` but requiring at least one relation step."""
        g = self._group(group)
        return self._unmask(self._reach_masks(g)[self._state_index(state)])

    def common_belief_component(self, group: Iterable[str], event: Iterable[str]) -> Event:
        """Common belief via reachability: states whose proper reach lies in the event.

        Uses chains of length >= 1; with the zero-length chain included the
        characterization would diverge from iterated mutual belief on
        structures that are not reflexive. The two methods agree exactly, on
        every structure (this is cross-checked in the test suite).
        """
        return self._unmask(self._common_belief_mask(self._group(group), self._mask(event)))

    def _reach_groups(self, group: tuple[str, ...]) -> tuple[tuple[int, int], ...]:
        """(reach, states sharing it) per distinct group reach mask, by first state (cached)."""
        groups = self._facts.get(("reach_groups", *group))  # read directly on a hit: _memo takes a closure
        if groups is None:
            groups = self._memo(("reach_groups", *group), lambda: _grouped(self._reach_masks(group)))
        return groups

    def _common_belief_mask(self, group: tuple[str, ...], emask: int) -> int:
        outside = ~emask
        out = 0
        for reach, states in self._reach_groups(group):
            if reach & outside == 0:
                out |= states
        return out

    # -- relation properties -------------------------------------------------

    def _agent_flags(self, agent: str) -> tuple[RelationFlags, tuple]:
        """The agent's flags, and where each row property first fails (see :meth:`_first_faults`).
        Each property but reflexivity depends on the row alone, so each distinct row is tested once,
        by first state: the first failing row's lowest state is the lowest failing state."""
        succ = self._succ[agent]
        rows = self._rows(agent)
        reflexive = all(states & ~row == 0 for row, states in rows)
        empty = next((next(_bits(states)) for row, states in rows if not row), None)
        nesting = escape = None
        for row, states in rows:
            for u in _bits(row):
                if nesting is None and succ[u] & ~row:
                    nesting = (next(_bits(states)), u)
                if escape is None and row & ~succ[u]:
                    escape = (next(_bits(states)), u)
            if nesting and escape:
                break
        return RelationFlags(empty is None, reflexive, nesting is None, escape is None), (empty, nesting, escape)

    def relation_properties(self) -> PropertyReport:
        """Seriality, reflexivity, transitivity and euclideanness per agent (computed once)."""
        return self._memo(("report",), self._classify)[0]

    def _first_faults(self, agent: str) -> tuple[int | None, tuple[int, int] | None, tuple[int, int] | None]:
        """Where the agent's row properties first fail, from the classification walk: the lowest
        state with no successor, then the lowest state w with its lowest successor u such that
        succ(u) escapes succ(w) (nesting), then such a pair where succ(w) escapes succ(u)
        (euclideanness), as state positions; None where the property holds."""
        return self._memo(("report",), self._classify)[1][agent]

    def _classify(self) -> tuple[PropertyReport, Mapping[str, tuple]]:
        walks = {agent: self._agent_flags(agent) for agent in self.agents}
        flags = {agent: f for agent, (f, _) in walks.items()}

        def every(prop: str) -> bool:
            return all(getattr(f, prop) for f in flags.values())

        if every("reflexive") and every("euclidean"):
            cls = CLASS_PARTITIONAL
        elif every("serial") and every("transitive") and every("euclidean"):
            cls = CLASS_BELIEF
        elif every("serial") and every("transitive"):
            cls = CLASS_KD4
        else:
            cls = CLASS_OTHER
        faults = MappingProxyType({agent: first for agent, (_, first) in walks.items()})
        return PropertyReport(flags=MappingProxyType(flags), classification=cls), faults

    def is_partitional(self) -> bool:
        return self.relation_properties().classification == CLASS_PARTITIONAL

    # -- derived structures --------------------------------------------------

    def restricted_to(self, states: Iterable[str]) -> InformationStructure:
        """Substructure on the given states, keeping only relation pairs inside them."""
        keep = self._mask(_names(states, "state"))
        kept = self._unmask(keep)
        rels = {agent: self._pairs_in(agent, keep) for agent in self.agents}
        return InformationStructure(kept, self.agents, rels, allow_plus_in_names=any("+" in s for s in kept))


def euclidean_counterexample(
    structure: InformationStructure, agent: str | None = None
) -> tuple[str, str, str, str] | None:
    """First (agent, w, u, v) with w->u and w->v but not u->v, or None."""
    _require_structure(structure)
    agents = [structure._check_agent(agent)] if agent is not None else list(structure.agents)
    for a in agents:
        escape = structure._first_faults(a)[2]
        if escape is not None:
            w, u = escape
            succ = structure._succ[a]
            v = next(_bits(succ[w] & ~succ[u]))
            return (a, structure.states[w], structure.states[u], structure.states[v])
    return None


def negative_introspection_counterexample(
    structure: InformationStructure,
) -> tuple[str, Event, str] | None:
    """An (agent, event, state) witnessing a failure of negative introspection.

    At the returned state the agent does not believe the event, yet also does
    not believe that it does not believe it. Such a witness exists exactly
    when some relation fails to be euclidean, and one can always be built
    from a euclidean counterexample by taking the event to be the possibility
    set at the middle state.
    """
    ce = euclidean_counterexample(structure)
    if ce is None:
        return None
    agent, w, u, _ = ce
    event = structure.possibility_set(agent, u)
    return (agent, event, w)
