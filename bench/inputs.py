"""Seeded input generation for the benchmark.

Every input is a partitional structure document in the library's canonical
JSON form. The documents are written by this module, not by the library under
test, so a change to the library's serializer cannot change what the benchmark
feeds it. The same workload and seed always give byte-identical files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
WORKLOADS = ("exhaustive-search", "cf-audit", "witness-sweep")

CHAIN_SIZES = (4, 6, 8, 10, 12)
# witness-sweep: the state count of each structure is fixed, only its cells
# are drawn. Theorem1 searches cost ~20x more on 4 states than on 3, so a
# drawn state count would make the sweep's total and p90 swing with the seed.
SWEEP_STATE_COUNTS = (4, 4, 3, 4) * 10


@dataclass(frozen=True)
class Input:
    """One generated structure: its file name, its cells and its document text."""

    name: str
    cells: dict[str, list[list[str]]]
    text: str
    seeded: bool = False

    @property
    def states(self) -> int:
        return sum(len(cell) for cell in next(iter(self.cells.values())))

    def counterfactual_states(self) -> int:
        """State count of the counterfactual extension: one block of duplicates
        per agent and non-empty union of that agent's cells."""
        n = self.states
        return n + sum(n * (2 ** len(cells) - 1) for cells in self.cells.values())


def canonical_json(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def partitional(name: str, cells: dict[str, list[list[str]]], seeded: bool = False) -> Input:
    states = sorted(s for cell in next(iter(cells.values())) for s in cell)
    relations = {
        agent: sorted([u, v] for cell in agent_cells for u in cell for v in cell)
        for agent, agent_cells in cells.items()
    }
    doc = {"version": 1, "states": states, "agents": sorted(cells), "relations": relations}
    return Input(name, cells, canonical_json(doc), seeded)


def d1() -> Input:
    """The library's bundled example, rebuilt from its cells."""
    return partitional("d1", {
        "a": [["w0", "w1"], ["w2", "w3"]],
        "b": [["w0"], ["w1", "w2"], ["w3"]],
    })


def chain(n: int) -> Input:
    """n states (n even); a's cells pair s0-s1, s2-s3, ..., b's pair s1-s2, ..., s(n-1)-s0."""
    states = [f"s{k:02d}" for k in range(n)]
    return partitional(f"chain{n}", {
        "a": [[states[k], states[k + 1]] for k in range(0, n, 2)],
        "b": [[states[k], states[(k + 1) % n]] for k in range(1, n, 2)],
    })


def random_cells(rng: random.Random, states: list[str], k: int) -> list[list[str]]:
    """A uniformly shuffled split of ``states`` into ``k`` non-empty cells."""
    shuffled = states[:]
    rng.shuffle(shuffled)
    cuts = sorted(rng.sample(range(1, len(states)), k - 1))
    bounds = [0, *cuts, len(states)]
    return [sorted(shuffled[bounds[i]:bounds[i + 1]]) for i in range(k)]


def workload_inputs(workload: str, seed: int) -> list[Input]:
    rng = random.Random(seed)
    if workload == "exhaustive-search":
        return [d1(), chain(6)]
    if workload == "cf-audit":
        out = [chain(n) for n in CHAIN_SIZES]
        states = [f"t{k}" for k in range(8)]
        for k in range(2):
            cells = {a: random_cells(rng, states, 4) for a in "abc"}
            out.append(partitional(f"rand{k}", cells, seeded=True))
        return out
    if workload == "witness-sweep":
        out = []
        for k, n in enumerate(SWEEP_STATE_COUNTS):
            states = [f"s{i}" for i in range(n)]
            cells = {a: random_cells(rng, states, rng.randint(1, 3)) for a in "ab"}
            out.append(partitional(f"s{k:02d}", cells, seeded=True))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, directory: Path) -> list[tuple[Input, Path]]:
    """Write the workload's documents into ``directory``, in workload order."""
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    for item in workload_inputs(workload, seed):
        path = directory / f"{item.name}.json"
        path.write_text(item.text, "utf-8")
        written.append((item, path))
    return written
