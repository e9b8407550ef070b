"""The benchmark's own tests.

    python3 perfbench/selftest.py

They check that instance sets are reproducible, that the correctness gate
can fail, that wrappers come off after a traced pass, and that two traced
passes over the same instances give identical counts and keep each
workload's defining property.
"""
from __future__ import annotations

import sys
import unittest

import run
import instances
import tracer as tracing

relopt = run.import_relopt()

# Count metrics: they must repeat exactly from pass to pass.
COUNTS = (
    "reduction.combos", "reduction.top_k", "reduction.heavy", "reduction.side_calls",
    "reduction.resolve_calls", "reduction.hybrid_universe_max",
    "hybrid.solve_calls", "hybrid.heavy_sets", "hybrid.universe_reduce_calls",
    "ip.calls", "ip.tuples", "fastcount.triangle_calls", "baseline.values_calls",
)
# A few slots per workload keep the traced passes short.
SMALL = {"lift-sparse": 2, "lift-sparse-approx": 2, "desk-mix": 12, "multicount": 2}


def traced_pass(workload: str, seed: int) -> dict:
    loaded = [
        (relopt.load_structure(s), relopt.parse_formula(f))
        for s, f in instances.instance_texts(workload, seed, SMALL[workload])
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        rows = run.solve_round(relopt, workload, loaded, run.HostSpeed(), tracer)
    ratio = run.make_solver(relopt, workload, "max").ratio
    assert run.check(workload, seed, loaded, [rows], ratio) == 0
    return tracing.layer_metrics(tracer.spans, [row.stages for row in rows])


class InstanceSets(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        for name in instances.WORKLOADS:
            a = instances.instance_texts(name, 7, 3)
            self.assertEqual(a, instances.instance_texts(name, 7, 3))
            self.assertNotEqual(
                instances.texts_digest(a),
                instances.texts_digest(instances.instance_texts(name, 8, 3)),
            )

    def test_lift_sparse_exceeds_generator_cap(self):
        structure = relopt.load_structure(instances.instance_texts("lift-sparse", 0, 1)[0][0])
        self.assertGreater(structure.n, 64)

    def test_approx_workload_shares_the_exact_instances(self):
        self.assertEqual(
            instances.instance_texts("lift-sparse", 3),
            instances.instance_texts("lift-sparse-approx", 3),
        )


class CorrectnessGate(unittest.TestCase):
    def test_exact_requires_equality(self):
        self.assertTrue(run.accepts("max", 1.0, 5, 5))
        self.assertFalse(run.accepts("max", 1.0, 5, 4))
        self.assertFalse(run.accepts("min", 1.0, None, 0))

    def test_approx_interval(self):
        # c=2, eps=0.1: max keeps [OPT/2.1, OPT], min keeps [OPT, 2.1*OPT]
        self.assertTrue(run.accepts("max", 2.0, 21, 10))
        self.assertFalse(run.accepts("max", 2.0, 21, 9))
        self.assertFalse(run.accepts("max", 2.0, 21, 22))
        self.assertTrue(run.accepts("min", 2.0, 10, 21))
        self.assertFalse(run.accepts("min", 2.0, 10, 22))
        self.assertFalse(run.accepts("min", 2.0, 10, 9))


class Wrappers(unittest.TestCase):
    def test_installed_only_inside_the_block(self):
        self.assertEqual(tracing.installed_wrappers(), [])
        with tracing.Tracer().installed():
            self.assertEqual(len(tracing.installed_wrappers()), len(tracing.TARGETS))
        self.assertEqual(tracing.installed_wrappers(), [])

    def test_self_time_excludes_children(self):
        spans = [
            ["pipeline", 0, 100, -1, 0, None],
            ["reduction.lift", 10, 90, 0, 0, None],
            ["hybrid.solve", 20, 50, 1, 0, (True, 0)],
            ["ip.solve", 30, 40, 2, 0, 6],
        ]
        m = tracing.layer_metrics(spans, [])
        self.assertEqual(m["reduction.lift_self_ms"], 50 / 1e6)
        self.assertEqual(m["hybrid.solve_self_ms"], 20 / 1e6)
        self.assertEqual(m["ip.tuples"], 6)
        self.assertEqual(m["hybrid.copy_fast_path_frac"], 1.0)


class Fingerprint(unittest.TestCase):
    def test_counts_repeat_and_invariants_hold(self):
        for name in instances.WORKLOADS:
            for seed in (0, 1):
                with self.subTest(workload=name, seed=seed):
                    first = traced_pass(name, seed)
                    second = traced_pass(name, seed)
                    self.assertEqual(
                        {c: first[c] for c in COUNTS}, {c: second[c] for c in COUNTS}
                    )
                    self.assertIsNone(run.invariant_violation(name, first))

    def test_layers_run_where_expected(self):
        lift = traced_pass("lift-sparse", 0)
        self.assertGreater(lift["ip.calls"], 0)
        self.assertGreater(lift["reduction.resolve_calls"], 0)
        self.assertEqual(lift["fastcount.triangle_calls"], 0)
        multi = traced_pass("multicount", 0)
        self.assertGreater(multi["fastcount.triangle_calls"], 0)
        self.assertEqual(multi["hybrid.solve_calls"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
