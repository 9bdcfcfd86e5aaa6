"""Compare two sets of benchmark runs, per workload and end-to-end metric.

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of run records, as run.py writes them
to .bench_work/runs/, or a single record file; give a directory per commit.
Runs of the two sets are paired by seed (by order where seeds differ). For
every workload and end-to-end metric the table shows each side's median and
quartiles, the share of pairs the change wins (ties count for neither) and
a verdict:

- improved: the change wins at least nine tenths of the pairs and the medians
  differ by more than the parent's interquartile distance;
- no worse: the change's median is worse than the parent's by at most the
  metric's bound;
- unresolved: the parent's own spread exceeds the bound and not every change
  run beats every parent run, so "no worse" cannot be told from noise;
- worse: the median is worse by more than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(arg: str) -> dict[str, list[dict]]:
    """Untraced run records by workload, sorted by seed."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: dict[str, list[dict]] = {}
    for f in files:
        rec = json.loads(f.read_text("utf-8"))
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], []).append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["seed"])
    return runs


def _value(record: dict, metric: str) -> float:
    return record["result"]["metrics"][metric]["value"]


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    matched = [(p, by_seed[p["seed"]]) for p in parent if p["seed"] in by_seed]
    return matched if matched else list(zip(parent, change))


def verdict(metric: dict, parent: list[float], change: list[float], paired: list[tuple[float, float]]):
    """Return (win share, verdict) for one metric; see the module docstring."""
    sign = 1 if metric["better"] == "lower" else -1
    wins = sum(1 for a, b in paired if sign * (a - b) > 0)
    share = wins / len(paired) if paired else 0.0
    med_a, med_b = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    gain = sign * (med_a - med_b)
    if share >= 0.9 and gain > q3 - q1:
        return share, "improved"
    all_better = all(sign * (a - b) > 0 for a in parent for b in change)
    if (q3 - q1) / med_a > metric["bound"] and not all_better:
        return share, "unresolved"
    if -gain <= metric["bound"] * med_a:
        return share, "no worse"
    return share, "worse"


def compare(spec: dict, parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[str]:
    lines = [f"{'workload':18s} {'metric':15s} {'parent median [q1, q3]':>32s} "
             f"{'change median [q1, q3]':>32s} {'pairs':>5s} {'wins':>5s}  verdict"]
    for workload in sorted(set(parent) & set(change)):
        matched = pairs(parent[workload], change[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [_value(r, name) for r in parent[workload]]
            b = [_value(r, name) for r in change[workload]]
            paired = [(_value(p, name), _value(c, name)) for p, c in matched]
            share, label = verdict(metric, a, b, paired)
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{workload:18s} {name:15s} "
                f"{statistics.median(a):12.4f} [{qa[0]:.4f}, {qa[1]:.4f}] "
                f"{statistics.median(b):12.4f} [{qb[0]:.4f}, {qb[1]:.4f}] "
                f"{len(paired):5d} {share:5.2f}  {label}"
            )
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    print("\n".join(compare(spec, load_runs(args[0]), load_runs(args[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
