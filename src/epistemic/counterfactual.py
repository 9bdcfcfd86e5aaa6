"""Construction of counterfactual structures from partitional ones.

For every agent and every event in that agent's union-closed decision domain,
the construction adds a full block of duplicate states, one per original
state. A duplicate for agent i built over event e points, for i, to e itself
when its base state lies in e (this is where i is "secretly more ignorant"),
and to i's original cell otherwise; for every other agent it points to that
agent's cell of the base state. No relation ever points into the duplicates,
so the added states are invisible to everyone and factual beliefs about the
original states are preserved.

The companion verifier re-checks the structural properties the construction
promises, returning witnesses for any failure, so third-party or mutated
structures can be audited with the same machinery.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .errors import InputError, NotFoundError, PreconditionError
from .partitions import gamma
from .structures import (
    CLASS_BELIEF,
    CLASS_KD4,
    Event,
    InformationStructure,
    PropertyReport,
    _bits,
    _names,
    _require_structure,
    canonical_event_string,
)

CF_PREFIX = "cf"


def counterfactual_state_name(agent: str, base: str, event: Iterable[str]) -> str:
    """Deterministic wire name of a duplicate state: ``cf:<agent>:<base>:<event>``."""
    return f"{CF_PREFIX}:{agent}:{base}:{canonical_event_string(event)}"


@dataclass(frozen=True)
class CounterfactualLabel:
    """Provenance of one duplicate state: who it belongs to, what it duplicates, over which event."""

    agent: str
    base: str
    event: Event


class CounterfactualStructure:
    """An information structure over originals plus labelled duplicate states.

    ``actual`` is the set of original states; every other state is a duplicate
    with one provenance label. The table ``(agent, base, event string) -> name``
    is the one stored form of provenance and is authoritative; the generated
    names are not. ``labels``, the map from each duplicate to its
    :class:`CounterfactualLabel`, is derived from the table on first read and
    cached. The pairing is read-only: ``structure``, ``actual``, ``origin`` and
    ``labels`` cannot be reassigned, so the compiled tables kept on it answer
    for its one origin. Construction validates only the cheap structural facts
    (label coverage, no relation pointing at a duplicate), so deliberately
    damaged instances can still be built and then audited with
    :func:`verify_counterfactual`.
    """

    __slots__ = ("structure", "actual", "origin", "_by_triple", "_events", "_labels", "_compiled")

    def __init__(
        self,
        structure: InformationStructure,
        actual: Iterable[str],
        labels: Mapping[str, CounterfactualLabel],
        origin: InformationStructure,
    ):
        _require_structure(structure)
        _require_structure(origin, "origin")
        actual = frozenset(_names(actual, "state"))
        pairs: list[tuple[tuple[str, str, str], str]] = []
        events: dict[str, Event] = {}
        try:
            for name, label in labels.items():
                # an event the checks refuse is keyed as the empty one, which they refuse too
                text = canonical_event_string(label.event) if label.event and label.event <= actual else ""
                events.setdefault(text, label.event)
                pairs.append(((label.agent, label.base, text), name))
        except (AttributeError, TypeError):
            raise InputError(f"labels must map state names to counterfactual labels, got {labels!r}") from None
        self._init(structure, actual, origin, pairs, events)

    @classmethod
    def _from_labels(cls, structure: InformationStructure, actual: frozenset[str], origin: InformationStructure,
                     labels: Sequence[tuple[tuple[str, str, str], str]], events: dict[str, Event]
                     ) -> CounterfactualStructure:
        """A pairing from its labels, ((agent, base, event string), state) pairs in label order,
        and each event string's event, through the public constructor's checks."""
        built = cls.__new__(cls)
        built._init(structure, actual, origin, labels, events)
        return built

    def _init(self, structure, actual, origin, labels, events) -> None:
        """Store the pairing, fill its provenance table in label order, and run the one check routine
        every entry point shares: the first fault in label order is raised (a repeated triple before
        that label's own fields), with one message whichever entry point gave the labels."""
        store = object.__setattr__  # the pairing is read-only once made: see __setattr__
        table: dict[tuple[str, str, str], str] = {}
        store(self, "structure", structure)
        store(self, "actual", actual)
        store(self, "origin", origin)
        store(self, "_by_triple", table)
        store(self, "_events", events)
        store(self, "_labels", None)
        # check_agreement's compiled gamma tables, keyed by decisions._table_key: they read the
        # carrier's states and the origin's decision domains, so they belong to this pairing.
        store(self, "_compiled", {})

        state_set = set(structure.states)
        if not actual <= state_set:
            raise InputError("actual states must be states of the structure")
        if frozenset(origin.states) != actual:
            raise InputError("origin state set must equal the actual states")
        if origin.agents != structure.agents:
            raise InputError("origin and counterfactual structure must share the agent set")
        if {name for _, name in labels} != state_set - actual:
            raise InputError("labels must cover exactly the non-actual states")
        agents = set(structure.agents)
        refused = {text for text, event in events.items() if not event or not event <= actual}
        for key, name in labels:
            if table.setdefault(key, name) is not name:
                raise InputError(f"duplicate label triple for {name!r} and {table[key]!r}")
            agent, base, text = key
            if agent not in agents:
                raise InputError(f"label for {name!r} names unknown agent {agent!r}")
            if base not in actual:
                raise InputError(f"label for {name!r} has non-actual base {base!r}")
            if text in refused:
                raise InputError(f"label for {name!r} has an event outside the actual states")
        outside = structure._full & ~structure._mask(actual)  # positive: a negative mask widens every &
        for agent in structure.agents:
            for k, row in enumerate(structure._succ[agent]):
                if row & outside:
                    pair = (structure.states[k], structure.states[next(_bits(row & outside))])
                    raise InputError(f"relation of agent {agent!r} points into the duplicates: {pair!r}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"CounterfactualStructure is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"CounterfactualStructure is read-only: cannot delete {name!r}")

    def __reduce__(self):
        # a copy is made through the checked entry point, since slots cannot be set afterwards
        return self._from_labels, (self.structure, self.actual, self.origin, [*self._by_triple.items()], self._events)

    @property
    def labels(self) -> Mapping[str, CounterfactualLabel]:
        """Each duplicate's label, in table order, derived from the table on first read."""
        if self._labels is None:
            events = self._events
            object.__setattr__(self, "_labels", MappingProxyType({
                name: CounterfactualLabel(agent, base, events[text])
                for (agent, base, text), name in self._by_triple.items()
            }))
        return self._labels

    def counterfactual_state(self, agent: str, base: str, event: Iterable[str]) -> str:
        """The unique duplicate with the given (agent, base, event) label."""
        try:
            text = canonical_event_string(event)
        except TypeError:
            raise InputError(f"an event must be an iterable of state names, got {event!r}") from None
        try:
            return self._by_triple[(agent, base, text)]
        except (KeyError, TypeError):  # an unhashable agent or base names no duplicate either
            raise NotFoundError(
                f"no counterfactual state for agent {agent!r}, base {base!r}, event {text or '(empty)'!s}"
            ) from None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CounterfactualStructure):
            return NotImplemented
        return (
            self.structure == other.structure
            and self.actual == other.actual
            and self._by_triple == other._by_triple
            and self.origin == other.origin
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (
            f"CounterfactualStructure({len(self.actual)} actual + "
            f"{len(self._by_triple)} counterfactual states, {len(self.structure.agents)} agents)"
        )


def build_counterfactual(
    source: InformationStructure, *, max_cells: int | None = None
) -> CounterfactualStructure:
    """Duplicate-and-rewire construction over a partitional structure.

    For each agent i and each event e in i's union-closed domain, one block of
    duplicates is created holding a copy of every original state. Each
    duplicate's successor row follows one of three disjoint rules: the block's
    own agent sees e from duplicates of states inside e and their original cell
    otherwise, and every other agent sees the cell of the base state. Each row
    is a source cell or domain event mapped once to carrier bit positions, so
    equal rows share one int. The labels are listed block by block.
    The result is deterministic.
    """
    if not isinstance(source, InformationStructure):
        raise InputError("counterfactual construction needs an information structure")
    if not source.is_partitional():
        raise PreconditionError("counterfactual construction requires a partitional structure")

    agents = source.agents
    states = source.states
    domains = {i: gamma(source, i, max_cells=max_cells) for i in agents}

    labels: list[tuple[tuple[str, str, str], str]] = []
    events: dict[str, Event] = {}
    # (agent, event mask, names by base); the originals come first, as a block under no agent
    blocks: list[tuple[str | None, int, Sequence[str]]] = [(None, 0, states)]
    for i in agents:
        head = CF_PREFIX + ":" + i + ":"
        for event in domains[i]:
            text = canonical_event_string(event)
            events.setdefault(text, event)
            tail = ":" + text
            names = [head + w + tail for w in states]
            labels += [((i, w, text), name) for w, name in zip(states, names)]
            blocks.append((i, source._mask(event), names))
    generated = [name for _, name in labels]
    if len(set(generated)) != len(generated):
        seen: set[str] = set()
        for name in generated:
            if name in seen:
                raise InputError(f"generated state name {name!r} collides across blocks")
            seen.add(name)
    if not set(states).isdisjoint(generated):
        raise InputError("generated counterfactual names collide with original state names")

    carrier = tuple(sorted([*states, *generated]))
    position = {s: k for k, s in enumerate(carrier)}
    bit = [1 << position[w] for w in states]
    masks = {row for i in agents for row in source._succ[i]} | {emask for _, emask, _ in blocks}
    lift = {m: sum(bit[k] for k in _bits(m)) for m in masks}  # source mask -> the same states in the carrier
    cells = {i: [lift[row] for row in source._succ[i]] for i in agents}
    succ = {i: [0] * len(carrier) for i in agents}
    for i, emask, names in blocks:
        event_row = lift[emask]
        for k, name in enumerate(names):
            at = position[name]
            for j in agents:
                # rules (a)/(b) for the block's own agent, by membership of the base in the event
                succ[j][at] = event_row if j == i and emask >> k & 1 else cells[j][k]

    combined = InformationStructure._from_rows(carrier, agents, succ)
    return CounterfactualStructure._from_labels(combined, frozenset(states), source, labels, events)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named verification check.

    Advisory results document readings or extra diagnostics and never affect
    the overall verdict.
    """

    name: str
    passed: bool
    detail: str = ""
    advisory: bool = False


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]
    properties: PropertyReport

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.advisory)

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed and not c.advisory)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


_GROUP_LIMIT = 8  # above this many agents, audit reachability for singletons and the whole set only


def _verification_groups(agents: tuple[str, ...]) -> list[tuple[str, ...]]:
    if len(agents) <= _GROUP_LIMIT:
        out = []
        for r in range(1, len(agents) + 1):
            out.extend(itertools.combinations(agents, r))
        return out
    singletons = [(a,) for a in agents]
    return singletons + [agents]


def label_block_mismatch(
    domains: Mapping[str, Iterable[Event]],
    bases: Iterable[str],
    labels: Iterable[tuple[str, str, str]],
) -> str | None:
    """How the (agent, base, event string) label triples differ from one complete
    block per agent and domain event, or None when they match exactly."""
    expected = {(i, w, text) for i, es in domains.items() for text in map(canonical_event_string, es)
                for w in bases}
    got = set(labels)
    if got == expected:
        return None
    return f"missing {sorted(expected - got)[:3]}, unexpected {sorted(got - expected)[:3]}"


def verify_counterfactual(
    source: InformationStructure, built: CounterfactualStructure
) -> VerificationReport:
    """Audit a counterfactual structure against the properties it should satisfy.

    Runs every structural check exactly, with an explicit witness on failure.
    The include-self reading of reachability components is reported as an
    advisory discrepancy rather than a failure; the successors-only reading is
    the one verified. Every check reads the structure's successor and reach
    masks; a witness is the lowest failing state, which is the first in name
    order. Six checks are read off what implies them: the constructor's
    refusal of relations into the duplicates passes ``relations_target_actual``
    and ``reach_stays_actual``, and ``truth_fails_at_duplicates`` whenever
    duplicates exist; ``reach_union_identity``, the secret-ignorance
    biconditional and the advisory ``pairwise_union_realized`` are computed
    only when a premise fails.
    """
    if not isinstance(built, CounterfactualStructure):
        raise InputError("verification needs a counterfactual structure")
    if built.origin != source:
        raise InputError("verification requires the structure the counterfactual was built from")

    S = built.structure
    states = S.states
    agents = S.agents
    succ = S._succ
    actual = S._mask(built.actual)
    duplicates = S._full & ~actual  # positive: a negative mask widens every & to full width
    properties = S.relation_properties()
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = "", advisory: bool = False) -> None:
        checks.append(CheckResult(name=name, passed=passed, detail=detail, advisory=advisory))

    def first(mask: int) -> str:
        return states[next(_bits(mask))]

    strings: dict[int, str] = {}

    def event_string(mask: int) -> str:
        text = strings.get(mask)
        if text is None:
            text = strings[mask] = "+".join(states[k] for k in _bits(mask))
        return text

    def unrealized(i: str, base: str, u: int) -> str | None:
        """Why i does not believe exactly u at the duplicate labelled (i, base, u), or None."""
        name = built._by_triple.get((i, base, event_string(u)))
        if name is None:
            return "missing duplicate"
        return None if succ[i][S._index[name]] == u else f"belief at {name} differs"

    # ---- block bookkeeping -------------------------------------------------
    domains = {i: gamma(source, i) for i in agents}
    mismatch = label_block_mismatch(domains, source.states, built._by_triple)
    add("lambda_blocks_complete", mismatch is None,
        f"{len(built._by_triple)} duplicates = sum over agents of |domain| x {len(built.actual)} originals"
        if mismatch is None else mismatch)

    # Always passes: CounterfactualStructure.__init__ raises for any row that
    # meets the duplicates.
    add("relations_target_actual", True)

    # No relation points into the duplicates (the constructor refuses one), so
    # an actual state's row in the restriction is its row in S.
    restricted = S.restricted_to(built.actual)._succ
    drift = next(
        ((i, w) for i in agents for w, row, src in zip(source.states, restricted[i], source._succ[i])
         if row != src),
        None,
    )
    add("restriction_matches_source", drift is None,
        "" if drift is None else "restricting to the actual states does not reproduce the source")

    # ---- seriality / transitivity (and belief nesting) ----------------------
    # Read from the classification walk, which keeps each agent's first fault.
    serial_witness = transitive_witness = None
    for i in agents:
        empty, nesting, _ = S._first_faults(i)
        if serial_witness is None and empty is not None:
            serial_witness = (i, states[empty])
        if transitive_witness is None and nesting is not None:
            transitive_witness = (i, states[nesting[0]], states[nesting[1]])
    add("relations_serial", serial_witness is None,
        "" if serial_witness is None else f"agent {serial_witness[0]} has no successor at {serial_witness[1]}")
    add("belief_nesting", transitive_witness is None,
        "" if transitive_witness is None
        else f"agent {transitive_witness[0]}: possibility set at {transitive_witness[2]} "
             f"escapes the one at {transitive_witness[1]}")

    # ---- beliefs at actual states match the source ---------------------------
    add("actual_beliefs_match_source", drift is None,
        "" if drift is None else f"agent {drift[0]} at {drift[1]}")

    # ---- reachability ---------------------------------------------------------
    # Always passes: a reach is a union of rows, and no row meets the duplicates.
    add("reach_stays_actual", True)
    # Implied by restriction_matches_source and a reflexive source (gamma needs a
    # partitional one): a reach is closed under successors, and each of its
    # states, being actual, keeps its source row and so is its own successor.
    # Otherwise each distinct reach mask is tested at the first state that has it.
    union_witness = None
    if drift is not None:
        for g in _verification_groups(agents):
            for reach, at in S._reach_groups(g):
                for i in g:
                    covered = 0
                    for v in _bits(reach):
                        covered |= succ[i][v]
                    if covered != reach and union_witness is None:
                        union_witness = (g, first(at), i)
    add("reach_union_identity", union_witness is None,
        "" if union_witness is None
        else f"group {union_witness[0]}, agent {union_witness[2]}, start {union_witness[1]}")
    add(
        "include_self_reading_discrepancy",
        not duplicates,
        "under the include-self reading every duplicate belongs to its own component, "
        "which then leaves the actual states; the successors-only reading above is the verified one",
        advisory=True,
    )

    # ---- beliefs land in (and exhaust) the decision domains -------------------
    domain_masks = {i: dict.fromkeys(S._mask(e) for e in domains[i]) for i in agents}  # in domain order
    stray = next(((i, first(at), row) for i in agents for row, at in S._rows(i) if row not in domain_masks[i]),
                 None)
    add("beliefs_in_decision_domain", stray is None,
        "" if stray is None else f"agent {stray[0]} at {stray[1]}: {event_string(stray[2])}")

    gap = next(
        (
            (i, u, why)
            for i in agents
            for u in domain_masks[i]
            for base in _bits(u)
            for why in (unrealized(i, states[base], u),)
            if why
        ),
        None,
    )
    add("every_domain_event_realized", gap is None,
        "" if gap is None else f"agent {gap[0]}, event {event_string(gap[1])}: {gap[2]}")

    # ---- truth fails at every duplicate ---------------------------------------
    # Read off the constructor: no row meets the duplicates, so no duplicate is
    # its own successor, and the check passes exactly when duplicates exist.
    t_witness = ""
    if duplicates:
        i0, k0 = agents[0], next(_bits(duplicates))
        belief = event_string(succ[i0][k0])
        t_witness = f"e.g. agent {i0} at {states[k0]} believes {belief} which excludes {states[k0]}"
    add("truth_fails_at_duplicates", bool(duplicates), t_witness)

    # ---- secret-ignorance biconditional ----------------------------------------
    # (bel(w) | bel(w') <= E) <=> (bel(lambda) <= E) holds for every event E
    # exactly when the two masks are equal: take E to be each side in turn.
    # Implied by restriction_matches_source and every_domain_event_realized:
    # without drift, bel(w) and bel(w') are source cells and w lies in bel(w)
    # (gamma needs a reflexive source), so their union is a domain event that
    # contains w, realized at the duplicate based at w. Otherwise it is tested.
    omega = list(_bits(actual))
    bi_witness = None if drift is None and gap is None else next(
        (
            (i, states[w], states[wp])
            for i in agents
            for w, wp in itertools.product(omega, repeat=2)
            if unrealized(i, states[w], succ[i][w] | succ[i][wp])
        ),
        None,
    )
    add("secret_ignorance_biconditional", bi_witness is None,
        f"exact: checked as a mask equality for all {len(agents) * len(omega) ** 2} agent/base pairs"
        if bi_witness is None else f"fails for agent/base pair {bi_witness}")

    # ---- pairwise union realizability (informational) ---------------------------
    # Implied by beliefs_in_decision_domain and every_domain_event_realized: a
    # domain is closed under non-empty unions, so two beliefs' union is a domain
    # event, realized at each of its states. Otherwise it is tested at the
    # duplicate based at the union's first state; an empty union has none.
    union_real = stray is None and gap is None or all(
        u and not unrealized(i, first(u), u)
        for i in agents
        for u in {a | b for (a, _), (b, _) in itertools.combinations_with_replacement(S._rows(i), 2)}
    )
    add("pairwise_union_realized", union_real, "exact over all unions of two belief sets",
        advisory=True)

    add("classification_in_belief_family",
        properties.classification in (CLASS_BELIEF, CLASS_KD4),
        f"classified as {properties.classification}")

    return VerificationReport(checks=tuple(checks), properties=properties)
