"""Partition analysis for structures whose relations are equivalence relations.

Covers equivalence classes, the induced partition per agent, the closure of a
partition under non-empty unions (each agent's decision domain), possible
beliefs, and the report that pins down why field-based decision setups break:
they require decisions over events no state of the structure can realize.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .errors import InputError, PreconditionError, ResourceLimitError
from .structures import CLASS_PARTITIONAL, Event, InformationStructure, _require_structure, canonical_event_string

DEFAULT_MAX_CELLS = 12
MAX_CELLS_ENV_VAR = "EPISTEMIC_MAX_CELLS"


def resolve_max_cells(explicit: int | None = None) -> int:
    """Cell cap for union-closure blowup: explicit arg, else env var, else default."""
    if explicit is not None:
        if not isinstance(explicit, int) or isinstance(explicit, bool):  # True is an int, not a cap
            raise InputError(f"cell cap must be an integer, got {explicit!r}")
        if explicit < 1:
            raise InputError("cell cap must be positive")
        return explicit
    raw = os.environ.get(MAX_CELLS_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError:
        raise InputError(f"{MAX_CELLS_ENV_VAR}={raw!r} is not an integer") from None
    if value < 1:
        raise InputError(f"{MAX_CELLS_ENV_VAR} must be positive, got {value}")
    return value


def equivalence_pairs(cells) -> set[tuple[str, str]]:
    """Relation pairs of the equivalence relation with the given classes."""
    pairs: set[tuple[str, str]] = set()
    try:
        for cell in cells:
            members = list(cell)
            pairs.update((u, v) for u in members for v in members)
    except TypeError:
        raise InputError(f"cells must be an iterable of iterables of state names, got {cells!r}") from None
    return pairs


def _require_partitional(structure: InformationStructure) -> None:
    _require_structure(structure)
    report = structure.relation_properties()
    if report.classification != CLASS_PARTITIONAL:
        raise PreconditionError(
            f"operation requires a partitional structure, got classification {report.classification!r}"
        )


def equivalence_class(structure: InformationStructure, agent: str, state: str) -> Event:
    """The cell of ``state`` in the agent's partition (= its possibility set)."""
    _require_partitional(structure)
    return structure.possibility_set(agent, state)


def partition(structure: InformationStructure, agent: str) -> tuple[Event, ...]:
    """The agent's distinct equivalence classes, sorted canonically."""
    _require_partitional(structure)
    return structure._agent_index(structure._check_agent(agent)).cells


def gamma(
    structure: InformationStructure, agent: str, *, max_cells: int | None = None
) -> tuple[Event, ...]:
    """All non-empty unions of the agent's partition cells, sorted canonically.

    Materialized eagerly: for k cells this has 2**k - 1 members, so the cell
    count is capped (see :func:`resolve_max_cells`); exceeding the cap raises
    instead of truncating. The cap is checked on every call; the closure is
    built once per structure and agent.
    """
    try:
        return _closure(structure, agent, max_cells)[1]
    except (AttributeError, TypeError):  # a non-structure, or an unhashable agent the fact lookup refuses
        _require_structure(structure)
        structure._check_agent(agent)
        raise


def _closure(structure: InformationStructure, agent: str, max_cells: int | None) -> tuple:
    """The agent's ``("gamma", agent)`` fact (see :func:`_union_closure`), after checking the cap."""
    fact = structure._facts.get(("gamma", agent))  # read directly on a hit: _memo takes a closure
    # Compared on every call, so a stored closure never bypasses the cap; a cap that is not
    # an int, or that the cell count exceeds, takes the checked path, which raises.
    if fact is None or len(fact[0]) > (max_cells if type(max_cells) is int else resolve_max_cells(max_cells)):
        cells = partition(structure, agent)
        cap = resolve_max_cells(max_cells)
        if len(cells) > cap:
            raise ResourceLimitError(
                f"agent {agent!r} has {len(cells)} partition cells, above the cap of {cap}; "
                f"raise the cap explicitly or via {MAX_CELLS_ENV_VAR} if this is intended"
            )
        fact = structure._memo(("gamma", agent), lambda: _union_closure(cells))
    return fact


def _union_closure(cells: tuple[Event, ...]) -> tuple:
    """(the cells' positions, the non-empty unions of the cells in canonical order, those
    unions as a set, (member positions, union position) for every family of two or more
    cells in combinations order), from one walk over the cell combinations. Positions index
    the canonical order. Cells are disjoint, so each union has exactly one family: the
    pairs are what the Sure-Thing Principle ranges over."""
    families = [
        (family, frozenset().union(*(cells[k] for k in family)))
        for r in range(2, len(cells) + 1) for family in itertools.combinations(range(len(cells)), r)
    ]
    order = tuple(sorted([*cells, *(union for _, union in families)], key=canonical_event_string))
    position = {event: p for p, event in enumerate(order)}
    at = tuple(position[cell] for cell in cells)
    pairs = tuple((tuple(at[k] for k in family), position[union]) for family, union in families)
    return at, order, frozenset(order), pairs


def is_possible_belief(structure: InformationStructure, agent: str, event) -> bool:
    """Whether some state's possibility set for the agent equals the event.

    Works on any structure, partitional or not.
    """
    target = structure._mask(event)
    structure._check_agent(agent)
    return any(row == target for row, _ in structure._rows(agent))


@dataclass(frozen=True)
class FlawReport:
    """Events an agent can never actually believe, though decision setups demand them.

    ``not_possible_beliefs`` lists members of the agent's union closure that no
    state realizes as the agent's possibility set. ``cross_agent_conflicts``
    lists other agents' cells that this agent cannot realize either, which is
    what the field notion of like-mindedness would quantify over.
    """

    agent: str
    not_possible_beliefs: frozenset[Event]
    cross_agent_conflicts: frozenset[tuple[str, Event]]


def flaw_report(
    structure: InformationStructure, agent: str, *, max_cells: int | None = None
) -> FlawReport:
    _require_partitional(structure)
    impossible = frozenset(
        e for e in gamma(structure, agent, max_cells=max_cells)
        if not is_possible_belief(structure, agent, e)
    )
    conflicts = set()
    for other in structure.agents:
        if other == agent:
            continue
        for cell in partition(structure, other):
            if not is_possible_belief(structure, agent, cell):
                conflicts.add((other, cell))
    return FlawReport(
        agent=agent,
        not_possible_beliefs=impossible,
        cross_agent_conflicts=frozenset(conflicts),
    )
