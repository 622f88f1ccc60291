"""Self-tests of the benchmark's tracer, checkers and reference judging.

    python3 perfbench/selftest.py

Kept outside tests/ so that the tier-1 suite neither collects nor waits for
them. They use tiny graphs and finish in a few seconds.
"""

from __future__ import annotations

import unittest

from run import Tally, load_program
from checks import (added_edge_problems, coloring_problems, independence_problems,
                    instance_seed, union_rows)
from tracing import Tracer

m = load_program()


class TracerTest(unittest.TestCase):
    def test_spans_cover_every_binding_and_are_removed_after(self):
        g = m.graph.generate_gnp(m.graph.GnpParams(40, 0.5, 3))
        added = m.adversary.plant_clique(g, range(8))
        profile = m.analytics.build_profile(40, 0.5, 1.0)
        original = m.coloring.induced_subgraph
        tracer = Tracer()
        with tracer.installed():
            self.assertIsNot(m.coloring.induced_subgraph, original)
            self.assertIs(m.coloring.induced_subgraph, m.graph.induced_subgraph)
            m.coloring.strip_color(g, added, 1.0, profile)
        self.assertIs(m.coloring.induced_subgraph, original)
        self.assertIs(m.graph.induced_subgraph, original)

        summary = tracer.summary()
        self.assertEqual(summary["calls"]["coloring.strip_color"], 1)
        self.assertGreater(summary["calls"]["graph.induced_subgraph"], 1)
        self.assertGreater(summary["calls"]["isets.enumerate_isets"], 0)
        self.assertGreater(summary["calls"]["analytics.compute_k0"], 0)
        # self times of all spans add up to the root spans, to the nanosecond
        self.assertAlmostEqual(sum(summary["self_s"].values()), summary["root_s"], places=9)
        spans = list(tracer.spans())
        ids = {s[0]: s for s in spans}
        root = [s for s in spans if s[1] < 0]
        self.assertEqual([tracer.names[s[2]] for s in root], ["coloring.strip_color"])
        for span_id, parent, _, t0, t1 in spans:
            if parent >= 0:
                self.assertLessEqual(ids[parent][3], t0)
                self.assertLessEqual(t1, ids[parent][4])

        names = list(tracer.names)
        with tracer.installed():
            m.graph.induced_subgraph(g, range(5))
        self.assertEqual(tracer.names, names)  # wrappers are made once

    def test_hooks_count_after_each_call(self):
        tracer = Tracer({"graph.to_edge_list": lambda counts, text: counts.__setitem__(
            "bytes", counts["bytes"] + len(text))})
        g = m.graph.Graph.cycle(5)
        with tracer.installed():
            text = m.graph.to_edge_list(g)
        self.assertEqual(tracer.counts["bytes"], len(text))


class CheckTest(unittest.TestCase):
    def setUp(self):
        self.g = m.graph.Graph.cycle(5)  # edges 01 12 23 34 04

    def test_coloring(self):
        self.assertEqual(coloring_problems(self.g.rows, (0, 1, 0, 1, 2), 3), [])
        self.assertTrue(coloring_problems(self.g.rows, (0, 0, 1, 0, 1), 2))
        self.assertTrue(coloring_problems(self.g.rows, (0, 1, 0, 1, 3), 4))  # 2 unused
        self.assertTrue(coloring_problems(self.g.rows, (0, 1, 0, 1), 3))
        rows = union_rows(self.g.rows, [(0, 2)])
        self.assertTrue(coloring_problems(rows, (0, 1, 0, 1, 2), 3))

    def test_independence(self):
        self.assertEqual(independence_problems(self.g.rows, (0, 2)), [])
        self.assertTrue(independence_problems(self.g.rows, (0, 1)))
        self.assertTrue(independence_problems(self.g.rows, (0, 0)))
        self.assertTrue(independence_problems(self.g.rows, (0, 7)))

    def test_added_edges(self):
        self.assertEqual(added_edge_problems(self.g.rows, [(0, 2), (1, 3)], max_degree=1), [])
        self.assertTrue(added_edge_problems(self.g.rows, [(0, 1)]))
        self.assertTrue(added_edge_problems(self.g.rows, [(0, 2), (0, 3)], max_degree=1))

    def test_instance_seed_is_pinned(self):
        # a change here would silently move every workload
        self.assertEqual(instance_seed("strip-large", 0, 0), 8123166840335642585)


class TallyTest(unittest.TestCase):
    class Fake:
        name = "fake"

        def __init__(self, out):
            self.out = out

        def key(self, item):
            return item

        def ops_in(self, item):
            return 1

        def op_times(self, out, elapsed):
            return [elapsed]

        def run(self, item):
            if self.out is None:
                raise RuntimeError("boom")
            return self.out

        def check(self, item, out):
            return [({"digest": out}, [])]

    def test_reference_mismatch_and_raise_count_as_failures(self):
        tally = Tally({"a": [{"digest": "x"}]})
        tally.run(self.Fake("x"), "a")
        tally.run(self.Fake("y"), "a")
        tally.run(self.Fake(None), "a")
        self.assertEqual((tally.attempted, tally.failed), (3, 2))

    def test_unreferenced_repeats_must_agree(self):
        tally = Tally({})
        tally.run(self.Fake("x"), "b")
        tally.run(self.Fake("x"), "b")
        tally.run(self.Fake("z"), "b")
        self.assertEqual((tally.attempted, tally.failed), (3, 1))
        self.assertEqual(tally.unreferenced, {"b"})


if __name__ == "__main__":
    unittest.main()
