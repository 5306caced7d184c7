"""Self-tests of the benchmark's own machinery (no program under test).

Run from the repository root::

    python3 perfbench/selftest.py

They check that every output check rejects a perturbed output, that the
self-time arithmetic is right on hand-built span trees, that wrappers
come off cleanly, and that the metric names the benchmark prints are
exactly those ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class ChainCheckTest(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((16, 16)) / 8.0
        self.c = checks.chain_reference(self.a)

    def test_reference_is_the_fourth_power(self):
        power = np.linalg.matrix_power(self.a, 4)
        self.assertLess(checks.relative_error(self.c, power), 1e-13)

    def test_accepts_the_exact_output(self):
        self.assertIsNone(checks.check_chain("C", self.c.copy(), self.a))

    def test_rejects_perturbed_outputs(self):
        bumped = self.c.copy()
        bumped[3, 5] += 1e-6 * np.max(np.abs(self.c))
        self.assertIsNotNone(checks.check_chain("C", bumped, self.a))
        nan = self.c.copy()
        nan[0, 0] = np.nan
        self.assertIsNotNone(checks.check_chain("C", nan, self.a))
        self.assertIsNotNone(checks.check_chain("C", self.c[:, :-1], self.a))

    def test_rejects_a_lost_update(self):
        # The same read against a shadow with one more row change.
        shadow = self.a.copy()
        shadow[2] += 0.01
        self.assertIsNotNone(checks.check_chain("C", self.c, shadow))


class PageRankCheckTest(unittest.TestCase):
    def test_two_cycle_is_uniform(self):
        adj = np.array([[0.0, 1.0], [1.0, 0.0]])
        ranks = checks.pagerank_reference(adj)
        np.testing.assert_allclose(ranks.ravel(), [0.5, 0.5], rtol=0, atol=1e-15)

    def test_matches_a_loop_with_a_dangling_node(self):
        # Edges 0->1, 0->2, 1->2; node 2 has no out-edge.
        adj = np.zeros((3, 3))
        adj[1, 0] = adj[2, 0] = adj[2, 1] = 1.0
        n, d = 3, checks.DAMPING
        r = [1.0 / n] * n
        for _ in range(checks.ITERATIONS):
            nxt = [(1.0 - d) / n] * n
            for s in range(n):
                targets = [t for t in range(n) if adj[t, s]]
                share = r[s] / len(targets) if targets else r[s] / n
                for t in (targets or range(n)):
                    nxt[t] += d * share
            r = nxt
        np.testing.assert_allclose(checks.pagerank_reference(adj).ravel(), r,
                                   rtol=1e-14)

    def test_rejects_perturbed_ranks(self):
        rng = np.random.default_rng(1)
        adj = (rng.random((40, 40)) < 0.1).astype(float)
        ranks = checks.pagerank_reference(adj)
        self.assertIsNone(checks.check_pagerank("r", ranks, adj))
        # Mass moved between two nodes: still sums to one, but wrong.
        moved = ranks.copy()
        moved[0] += 1e-6
        moved[1] -= 1e-6
        self.assertIsNotNone(checks.check_pagerank("r", moved, adj))
        self.assertIsNotNone(checks.check_pagerank("r", ranks * 1.001, adj))
        # Right ranks for another graph.
        other = adj.copy()
        other[5, 7] = 1.0 - other[5, 7]
        self.assertIsNotNone(checks.check_pagerank("r", ranks, other))


class ServeCheckTest(unittest.TestCase):
    def test_epoch_order_and_staleness(self):
        good = [(0, 0, 0), (1, 3, 3), (1, 3, 3), (4, 40, 32)]
        self.assertIsNone(checks.check_epochs(good, 32))
        self.assertIsNotNone(checks.check_epochs([(2, 5, 1), (1, 6, 1)], 32))
        self.assertIsNotNone(checks.check_epochs([(1, 6, 1), (2, 5, 1)], 32))
        self.assertIsNotNone(checks.check_epochs([(1, 40, 33)], 32))

    def test_bitwise_rejects_one_ulp(self):
        x = np.linspace(0.0, 1.0, 9).reshape(3, 3)
        self.assertIsNone(checks.check_bitwise("x", x.copy(), x))
        y = x.copy()
        y[1, 1] = np.nextafter(y[1, 1], 2.0)
        self.assertIsNotNone(checks.check_bitwise("x", y, x))


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # root [0, 10]: a [1, 4], b [5, 9] with c [6, 7] inside b.
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
        root = tracer.open("root")
        a = tracer.open("a")
        tracer.close(a)
        b = tracer.open("b")
        c = tracer.open("c")
        tracer.close(c)
        tracer.close(b)
        tracer.close(root)
        self.assertEqual(list(tracer.parent), [-1, root, root, b])
        selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
        self.assertEqual(selfs, [3.0, 3.0, 3.0, 1.0])
        self.assertEqual(sum(selfs), 10.0)  # self times tile the root

    def test_overlapping_and_overhanging_children(self):
        start = [0.0, 2.0, 4.0, 9.0]
        end = [10.0, 6.0, 8.0, 12.0]
        parent = [-1, 0, 0, 0]
        # Children cover [2, 8] and [9, 10] of the root: 7 of 10.
        selfs = tracing.self_times(start, end, parent)
        self.assertEqual(selfs[0], 3.0)

    def test_recursion_folds_into_one_call(self):
        tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 6]))
        outer = tracer.open("kernel")
        inner = tracer.open("kernel")
        tracer.close(inner)
        other = tracer.open("x")
        tracer.close(other)
        tracer.close(outer)
        selfs = tracing.self_times(tracer.start, tracer.end, tracer.parent)
        agg = tracing.aggregate(tracer, selfs)
        self.assertEqual(agg["kernel"]["calls"], 1)
        # Outer: 6 - 1 (inner) - 2 (x) = 3; inner: 1.
        self.assertEqual(agg["kernel"]["self_s"], 4.0)
        self.assertEqual(agg["x"]["calls"], 1)
        self.assertEqual(tracing.thread_self_totals(tracer, selfs), {0: 6.0})


class WrapTest(unittest.TestCase):
    def test_wrap_records_and_uninstall_restores(self):
        class Base:
            def f(self, x):
                return x + 1

        class Child(Base):
            def g(self, x):
                return self.f(x) * 2

        tracer = tracing.Tracer()
        own, inherited = Child.__dict__["g"], Base.__dict__["f"]
        tracer.wrap(Child, "g", "g")
        tracer.wrap(Child, "f", "f")
        self.assertEqual(Child().g(1), 4)
        self.assertEqual([tracer.names[i] for i in tracer.name_id], ["g", "f"])
        self.assertEqual(list(tracer.parent), [-1, 0])
        seen = []
        tracer.wrap(Child, "g", None,
                    before=lambda t, args, kwargs: seen.append(args[1]))
        self.assertEqual(Child().g(5), 12)
        self.assertEqual(seen, [5])
        self.assertEqual(len(tracer), 4)  # g's hook-only wrapper: no span
        tracer.uninstall()
        self.assertIs(Child.__dict__["g"], own)
        self.assertNotIn("f", Child.__dict__)
        self.assertIs(Child.f, inherited)


class MetricNamesTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_and_units(self):
        result = workloads.Result(setup=[1.0], update=[1.0], read=[1.0],
                                  fresh=[1.0], updates=1, reads=1, busy=1.0)
        printed = run.end_to_end(result)
        declared = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual({k: v["unit"] for k, v in printed.items()}, declared)

    def test_per_layer_names_units_and_direction(self):
        declared = {m["name"]: (m["unit"], m["better"])
                    for m in self.spec["per_layer"]}
        self.assertEqual(dict(layers.PER_LAYER), declared)
        result = workloads.Result(updates=1, busy=1.0)
        printed, failures = layers.metrics(tracing.Tracer(), [], result,
                                           1.0, 1.0)
        self.assertEqual(set(printed), set(declared))
        self.assertEqual(failures, [])

    def test_workload_names(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(declared), sorted(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
