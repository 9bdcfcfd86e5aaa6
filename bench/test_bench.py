"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402

cli = run.import_cli()
import epistemic  # noqa: E402


class InputTests(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        with tempfile.TemporaryDirectory() as tmp:
            for workload in inputs.WORKLOADS:
                a = inputs.write_inputs(workload, 7, Path(tmp) / workload / "a")
                b = inputs.write_inputs(workload, 7, Path(tmp) / workload / "b")
                self.assertEqual([p.read_bytes() for _, p in a], [p.read_bytes() for _, p in b])

    def test_seed_changes_only_seeded_inputs(self):
        for workload in inputs.WORKLOADS:
            one, two = inputs.workload_inputs(workload, 1), inputs.workload_inputs(workload, 2)
            for a, b in zip(one, two):
                if not a.seeded:
                    self.assertEqual(a.text, b.text)
            if any(a.seeded for a in one):
                self.assertNotEqual([a.text for a in one], [b.text for b in two])

    def test_inputs_are_canonical_documents(self):
        self.assertEqual(inputs.d1().text, epistemic.d1_document())
        for item in inputs.workload_inputs("cf-audit", 1) + inputs.workload_inputs("witness-sweep", 1):
            parsed = epistemic.parse_structure(item.text)
            self.assertEqual(epistemic.serialize_structure(parsed), item.text)
            self.assertTrue(parsed.is_partitional())

    def test_chain12_builds_1524_states(self):
        chain = inputs.chain(12)
        built = epistemic.build_counterfactual(epistemic.parse_structure(chain.text))
        self.assertEqual(len(built.structure.states), 1524)
        self.assertEqual(chain.counterfactual_states(), 1524)


class TracerTests(unittest.TestCase):
    def setUp(self):
        self.now = [0.0]
        self.tracer = Tracer(clock=lambda: self.now[0])
        self.tracer.verdict = "v"

    def tick(self, seconds: float) -> None:
        self.now[0] += seconds

    def test_self_time_is_duration_minus_children(self):
        def inner():
            self.tick(2)

        inner = self.tracer.wrap("m.inner", inner)

        def outer():
            self.tick(1)
            inner()
            self.tick(3)
            inner()

        outer = self.tracer.wrap("m.outer", outer)
        outer()
        outer()
        spans, counters = self.tracer.take()
        self.assertEqual(spans[("v", "m.outer", "-")], [2, 16, 8])
        self.assertEqual(spans[("v", "m.inner", "m.outer")], [4, 8, 8])
        layers = summarize(spans, counters)
        self.assertEqual(layers["m.outer.self_s"], 8)
        self.assertEqual(layers["m.inner.calls"], 4)
        self.assertEqual(self.tracer.take(), ({}, {}))

    def test_generator_steps_are_timed_not_the_consumer(self):
        def families():
            for k in range(3):
                self.tick(1)
                yield k

        families = self.tracer.wrap_generator("decisions.enumerate", families)

        def search():
            for _ in families():
                self.tick(10)

        self.tracer.wrap("agreement.search_disagreement", search)()
        spans, counters = self.tracer.take()
        calls, total, self_s = spans[("v", "decisions.enumerate", "agreement.search_disagreement")]
        self.assertEqual((calls, total, self_s), (4, 3, 3))
        self.assertEqual(spans[("v", "agreement.search_disagreement", "-")], [1, 33, 30])
        self.assertEqual(counters[("v", "decisions.families_enumerated")], 3)

    def test_install_rebinds_every_importer_and_uninstall_restores(self):
        original = epistemic.partitions.gamma
        self.tracer.install()
        try:
            for module in (epistemic, epistemic.partitions, epistemic.counterfactual,
                           epistemic.decisions, epistemic.serialization):
                self.assertIsNot(module.gamma, original)
            epistemic.gamma(epistemic.d1(), "a")
        finally:
            self.tracer.uninstall()
        self.assertIs(epistemic.decisions.gamma, original)
        layers = summarize(*self.tracer.take())
        self.assertEqual(layers["partitions.gamma.calls"], 1)
        self.assertEqual(layers["partitions.partition.calls"], 1)


class KnownAnswerTests(unittest.TestCase):
    def session(self, tmp: Path, pins: dict) -> run.Session:
        files = [(item, p) for item, p in inputs.write_inputs("exhaustive-search", 1, tmp)
                 if item.name == "chain6"]
        return run.Session(cli, "exhaustive-search", files, tmp, pins)

    def test_pinned_digest_passes_and_a_corrupted_one_fails(self):
        pins = run.pins_for(run.load_expected(), "exhaustive-search", 1)
        pins["counts"] = {}
        digest = pins["digests"]["chain6:search"]
        with tempfile.TemporaryDirectory() as tmp:
            good = self.session(Path(tmp), pins).one_round()
            pins["digests"]["chain6:search"] = digest[::-1]
            bad = self.session(Path(tmp), pins).one_round()
        self.assertEqual([v.error for v in good.verdicts], [""])
        self.assertIn("digest", bad.verdicts[0].error)
        line = run.result_line({"end_to_end": []}, False, {}, [bad], bad.errors)
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 1, 1))

    def test_count_mismatch_is_an_error(self):
        pins = {"digests": {}, "counts": {"verdicts": 2}}
        with tempfile.TemporaryDirectory() as tmp:
            rnd = self.session(Path(tmp), pins).one_round()
        self.assertEqual(rnd.errors, ["work count verdicts is 1, pinned 2"])

    def test_expected_pins_cover_every_workload(self):
        expected = run.load_expected()
        self.assertEqual(expected["default_seed"], inputs.DEFAULT_SEED)
        self.assertEqual(sorted(expected["workloads"]), sorted(inputs.WORKLOADS))
        pins = run.pins_for(expected, "exhaustive-search", 5)
        self.assertEqual(pins["counts"]["decisions.families_enumerated"], 8075)


class QuantileTests(unittest.TestCase):
    def test_harrell_davis_estimates(self):
        self.assertAlmostEqual(run.quantile([5.0, 1.0, 3.0, 2.0, 4.0], 0.5), 3.0, places=6)
        self.assertAlmostEqual(run.quantile([7.0, 7.0, 7.0], 0.9), 7.0, places=6)
        self.assertAlmostEqual(run.quantile([1.0, 3.0], 0.5), 2.0, places=3)
        high = run.quantile([float(k) for k in range(100)], 0.9)
        self.assertTrue(88.0 < high < 91.0)


class CompareTests(unittest.TestCase):
    METRIC = {"name": "wall_s", "better": "lower", "bound": 0.1}

    def test_verdicts(self):
        parent = [10.0, 10.1, 9.9, 10.0, 10.2]
        faster = [8.0, 8.1, 7.9, 8.0, 8.2]
        self.assertEqual(compare.verdict(self.METRIC, parent, faster, list(zip(parent, faster))),
                         (1.0, "improved"))
        same = [10.1, 10.0, 10.0, 9.9, 10.1]
        self.assertEqual(compare.verdict(self.METRIC, parent, same, list(zip(parent, same)))[1],
                         "no worse")
        slower = [12.0, 12.1, 11.9, 12.0, 12.2]
        self.assertEqual(compare.verdict(self.METRIC, parent, slower, list(zip(parent, slower))),
                         (0.0, "worse"))
        noisy = [8.0, 12.0, 10.0, 7.0, 13.0]
        self.assertEqual(compare.verdict(self.METRIC, noisy, same, list(zip(noisy, same)))[1],
                         "unresolved")

    def test_table_pairs_runs_by_seed(self):
        def record(seed, value):
            return {"workload": "w", "seed": seed, "trace": 0,
                    "result": {"metrics": {"wall_s": {"value": value, "unit": "s"}}}}

        with tempfile.TemporaryDirectory() as tmp:
            for side, values in (("a", (10.0, 11.0)), ("b", (9.0, 10.5))):
                (Path(tmp) / side).mkdir()
                for seed, value in enumerate(values):
                    path = Path(tmp) / side / f"{seed}.json"
                    path.write_text(json.dumps(record(seed, value)))
            lines = compare.compare({"end_to_end": [self.METRIC]},
                                    compare.load_runs(str(Path(tmp) / "a")),
                                    compare.load_runs(str(Path(tmp) / "b")))
        self.assertEqual(len(lines), 2)
        self.assertIn(" 1.00  ", lines[1])


if __name__ == "__main__":
    unittest.main()
