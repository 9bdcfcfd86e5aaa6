"""Outside-in layer tracing: wrap the library's public functions at run time.

Nothing in the library changes. ``Tracer.install`` replaces each traced
function with a timing wrapper in every ``epistemic`` module that holds it,
since a function imported by name (``gamma`` in ``counterfactual``,
``decisions`` and ``serialization``) is a separate binding in each importer.
Methods are wrapped on the class. ``uninstall`` puts the originals back.

Spans are aggregated per (verdict, span, parent) rather than kept one record
per call: a single exhaustive search makes about a million operator calls.
A span's self time is its duration minus the time its child spans cover.
Host-speed probes taken inside a verdict (speed.py) fall inside whatever span
is running and add 2-3% to the self times.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable

ROOT = "-"

# (module, attribute, span name); span names read <module>.<function>.
FUNCTIONS = (
    ("epistemic.partitions", "gamma", "partitions.gamma"),
    ("epistemic.partitions", "partition", "partitions.partition"),
    ("epistemic.counterfactual", "build_counterfactual", "counterfactual.build_counterfactual"),
    ("epistemic.counterfactual", "verify_counterfactual", "counterfactual.verify_counterfactual"),
    ("epistemic.decisions", "derive_action_function", "decisions.derive_action_function"),
    ("epistemic.decisions", "check_stp_gamma", "decisions.check_stp_gamma"),
    ("epistemic.decisions", "check_stp_field", "decisions.check_stp_field"),
    ("epistemic.decisions", "check_like_minded", "decisions.check_like_minded"),
    ("epistemic.agreement", "search_disagreement", "agreement.search_disagreement"),
    ("epistemic.agreement", "check_agreement", "agreement.check_agreement"),
    ("epistemic.serialization", "parse_structure", "serialization.parse_structure"),
    ("epistemic.serialization", "serialize_structure", "serialization.serialize_structure"),
    ("epistemic.serialization", "structure_hash", "serialization.structure_hash"),
    ("epistemic.cli", "main", "cli.main"),
)
GENERATORS = (
    ("epistemic.decisions", "enumerate_decision_profiles", "decisions.enumerate"),
)
METHODS = (
    ("possibility_set", "structures.possibility_set"),
    ("relation_properties", "structures.relation_properties"),
    ("common_belief_component", "structures.common_belief_component"),
    ("component_successors", "structures.component_successors"),
    ("__init__", "structures.init"),
)


def _count_result(span: str) -> Callable | None:
    """Work counters read from a traced function's result."""
    if span == "counterfactual.build_counterfactual":
        return lambda r: {"counterfactual.states_built": len(r.structure.states)}
    if span == "decisions.check_stp_field":
        return lambda r: {"decisions.check_stp_field.exhaustive": int(r.exhaustive)}
    if span == "agreement.check_agreement":
        return lambda r: {"agreement.profiles_checked": r.profiles_checked}
    if span == "serialization.serialize_structure":
        return lambda r: {"serialization.bytes_out": len(r.encode("utf-8"))}
    return None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.verdict = None
        # (verdict, span, parent) -> [calls, total_s, self_s]
        self.spans: dict[tuple, list] = {}
        self.counters: dict[tuple, float] = defaultdict(int)
        self._stack = [[ROOT, 0.0]]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []   # traced names the program no longer has

    # -- span bookkeeping ---------------------------------------------------

    def enter(self, name: str) -> tuple:
        frame = [name, 0.0]
        parent = self._stack[-1]
        self._stack.append(frame)
        return parent, frame, self.clock()

    def exit(self, token: tuple) -> None:
        parent, frame, start = token
        duration = self.clock() - start
        self._stack.pop()
        parent[1] += duration
        key = (self.verdict, frame[0], parent[0])
        rec = self.spans.get(key)
        if rec is None:
            self.spans[key] = [1, duration, duration - frame[1]]
        else:
            rec[0] += 1
            rec[1] += duration
            rec[2] += duration - frame[1]

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[(self.verdict, name)] += amount

    def take(self) -> tuple[dict, dict]:
        """Return and reset the span aggregates and counters gathered so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = {}, defaultdict(int)
        return spans, counters

    # -- wrappers -------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = _count_result(name)

        def traced(*args, **kwargs):
            token = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(token)
            if counter is not None:
                for key, amount in counter(result).items():
                    self.count(key, amount)
            return result

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Time every step of the generator, not just its creation."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            try:
                while True:
                    token = self.enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.exit(token)
                    self.count("decisions.families_enumerated")
                    yield item
            finally:
                it.close()

        return traced

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        import epistemic.structures

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "epistemic" or n.startswith("epistemic.")]
        for table, wrapper in ((FUNCTIONS, self.wrap), (GENERATORS, self.wrap_generator)):
            for module_name, attr, span in table:
                original = getattr(sys.modules.get(module_name), attr, None)
                if original is None:
                    self.missing.append(span)
                    continue
                traced = wrapper(span, original)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is original:
                            self._restore.append((module, binding, original))
                            setattr(module, binding, traced)
        cls = epistemic.structures.InformationStructure
        for attr, span in METHODS:
            original = cls.__dict__.get(attr)
            if original is None:
                self.missing.append(span)
                continue
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, binding, original = self._restore.pop()
            setattr(owner, binding, original)


def summarize(spans: dict, counters: dict) -> dict[str, float]:
    """Sum the aggregates over verdicts into ``<span>.calls``/``<span>.self_s``
    plus the counters and the ratios derived from them."""
    out: dict[str, float] = defaultdict(int)
    cb_under_check = 0
    for (_, span, parent), (calls, _, self_s) in spans.items():
        out[f"{span}.calls"] += calls
        out[f"{span}.self_s"] += self_s
        if span == "structures.common_belief_component" and parent == "agreement.check_agreement":
            cb_under_check += calls
    for (_, name), amount in counters.items():
        out[name] += amount
    stp_calls = out.get("decisions.check_stp_field.calls", 0)
    out["decisions.check_stp_field.exhaustive_ratio"] = (
        out.get("decisions.check_stp_field.exhaustive", 0) / stp_calls if stp_calls else 0.0
    )
    profiles = out.get("agreement.profiles_checked", 0)
    out["agreement.cb_per_profile"] = cb_under_check / profiles if profiles else 0.0
    return dict(out)
