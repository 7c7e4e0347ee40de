"""Fast self-tests of the benchmark's own arithmetic; they run no workload.

Usage: python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys
import types
import unittest
from pathlib import Path

import metrics
import run
from tracer import Target, Tracer
from workloads import WORKLOADS, Judged, judge

BENCH_DIR = Path(__file__).resolve().parent


def _payload(statuses: dict[str, str], elapsed_ms: int = 0, points=None) -> str:
    reports = [{"checkId": i, "status": s, "elapsedMs": elapsed_ms} for i, s in statuses.items()]
    payload = {"command": "x", "reports": reports}
    if points is not None:
        payload["points"] = points
    return json.dumps(payload)


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now


class MetricArithmetic(unittest.TestCase):
    def test_setup_is_wall_minus_reported_check_time(self):
        payload = {"reports": [{"checkId": "a", "elapsedMs": 300},
                               {"checkId": "b", "elapsedMs": 200}]}
        self.assertAlmostEqual(metrics.setup_seconds(2.0, payload), 1.5)
        self.assertEqual(metrics.setup_seconds(2.0, None), 2.0)

    def test_missing_and_failing_reports_count_as_failed(self):
        w = WORKLOADS["rank-n5"]
        statuses = {i: "pass" for i in w.expected_ids}
        del statuses[w.expected_ids[0]]
        statuses[w.expected_ids[1]] = "fail"
        judged = judge(w, 1, _payload(statuses))
        self.assertEqual(judged.failed, 2)
        self.assertEqual(metrics.fail_ratio(judged.passed), 2 / len(w.expected_ids))

    def test_exit_code_that_disagrees_with_the_reports_fails_every_check(self):
        w = WORKLOADS["rank-n5"]
        statuses = {i: "pass" for i in w.expected_ids}
        self.assertEqual(judge(w, 0, _payload(statuses)).failed, 0)
        self.assertEqual(metrics.fail_ratio(judge(w, 1, _payload(statuses)).passed), 1.0)
        statuses[w.expected_ids[0]] = "fail"
        self.assertEqual(metrics.fail_ratio(judge(w, 0, _payload(statuses)).passed), 1.0)

    def test_unparseable_output_fails_every_check(self):
        w = WORKLOADS["verify-n4"]
        judged = judge(w, 0, "not json")
        self.assertIsNone(judged.payload)
        self.assertEqual(metrics.fail_ratio(judged.passed), 1.0)

    def test_sweep_point_verdicts_are_checked(self):
        w = WORKLOADS["sweep-n3"]
        statuses = {i: "pass" for i in w.expected_ids}
        good = {"point": "p", "lemmaVerdict": True, "membershipVerdict": False}
        ok = judge(w, 0, _payload(statuses, points=[good] * w.sweep_points))
        self.assertEqual(ok.failed, 0)
        short = judge(w, 0, _payload(statuses, points=[good] * (w.sweep_points - 1)))
        self.assertEqual(short.failed, 1)
        bad = dict(good, membershipVerdict=True)
        wrong = judge(w, 0, _payload(statuses, points=[good] * (w.sweep_points - 1) + [bad]))
        self.assertEqual(wrong.failed, 1)

    def test_points_per_second_uses_the_density_report(self):
        payload = {"reports": [{"checkId": "torsion.density.x", "elapsedMs": 2000}],
                   "points": [{}] * 10}
        self.assertEqual(metrics.sweep_points_per_s(payload, "torsion.density.x"), 5.0)
        self.assertEqual(metrics.sweep_points_per_s(payload, None), 0.0)

    def test_relative_speed_is_the_mean_of_per_probe_speeds(self):
        self.assertEqual(metrics.relative_speed([1.0], 1.0), 1.0)
        # Half the time at twice the reference speed, half at the reference speed.
        self.assertEqual(metrics.relative_speed([0.5, 1.0], 1.0), 1.5)
        self.assertEqual(metrics.relative_speed([2.0, 2.0], 1.0), 0.5)

    def test_times_are_scaled_by_the_speed_during_the_child(self):
        payload = {"reports": [{"checkId": "a", "elapsedMs": 1000}]}
        child = run.Child(raw_wall_s=3.0, speed=1.5, rss_mb=1.0,
                          judged=Judged({"a": True}, payload))
        self.assertAlmostEqual(child.wall_s, 4.5)
        self.assertAlmostEqual(child.setup_s, 3.0)

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 11))
        self.assertEqual(metrics.percentile(values, 50), 5)
        self.assertEqual(metrics.percentile(values, 90), 9)
        self.assertEqual(metrics.percentile([], 90), 0.0)


class Tracing(unittest.TestCase):
    def test_self_time_excludes_nested_spans(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def leaf():
            clock.now += 5

        wrapped_leaf = tracer.wrap("leaf", leaf)

        def root():
            clock.now += 10
            wrapped_leaf()
            clock.now += 1
            wrapped_leaf()
            return "done"

        wrapped_root = tracer.wrap("root", root)
        self.assertEqual(wrapped_root(), "done")
        self.assertEqual(tracer.stats["root"].self_ns, 11)
        self.assertEqual(tracer.stats["leaf"].self_ns, 10)
        self.assertEqual(tracer.stats["leaf"].calls, 2)

    def test_spans_close_when_the_function_raises(self):
        clock = FakeClock()
        tracer = Tracer(clock)

        def boom():
            clock.now += 3
            raise ValueError

        wrapped = tracer.wrap("boom", boom, durations=True)
        with self.assertRaises(ValueError):
            wrapped()
        self.assertEqual((tracer.stats["boom"].calls, tracer.stats["boom"].self_ns), (1, 3))
        self.assertEqual(tracer.stats["boom"].durations_ns, [3])

    def test_every_alias_is_wrapped_and_restored(self):
        core = types.ModuleType("fakepkg.core")
        exec("def member(x):\n    return x > 0\n"
             "class Box:\n    def __mul__(self, other):\n        return 2\n", core.__dict__)
        user = types.ModuleType("fakepkg.user")
        user.member = core.member
        pkg = types.ModuleType("fakepkg")
        modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
        original_member, original_mul = core.member, core.Box.__dict__["__mul__"]
        targets = (Target("core.member", "fakepkg.core", "member", ""),
                   Target("core.box_mul", "fakepkg.core", "Box.__mul__", ""))
        sys.modules.update(modules)
        try:
            tracer = Tracer()
            tracer.install(targets, package="fakepkg")
            self.assertIsNot(core.member, original_member)
            self.assertIs(user.member, core.member)
            user.member(1)
            core.member(-1)
            self.assertEqual(core.Box() * core.Box(), 2)
            tracer.restore()
        finally:
            for name in modules:
                del sys.modules[name]
        self.assertIs(core.member, original_member)
        self.assertIs(user.member, original_member)
        self.assertIs(core.Box.__dict__["__mul__"], original_mul)
        self.assertEqual(tracer.stats["core.member"].calls, 2)
        self.assertEqual(tracer.stats["core.box_mul"].calls, 1)

    def test_layer_metrics_attribute_wall_time(self):
        snapshot = {"linalg.membership": {"calls": 4, "self_ns": 2_000_000_000, "hits": 1,
                                          "amount": 0, "durations_ns": [1, 2, 3, 4]},
                    "exactalg.poly_mul": {"calls": 2, "self_ns": 500_000_000, "hits": 0,
                                          "amount": 7, "durations_ns": None}}
        out = metrics.layer_metrics(snapshot, traced_wall_s=5.0, overhead_s=1.0,
                                    points_per_s=0.0)
        self.assertEqual(out["linalg.membership.hit_ratio"], 0.25)
        self.assertEqual(out["exactalg.poly_mul.terms_out"], 7)
        self.assertEqual(out["exactalg.trial_div.calls"], 0)
        self.assertAlmostEqual(out["trace.unattributed_s"], 2.5)
        self.assertAlmostEqual(out["trace.overhead_s"], 1.0)
        self.assertEqual(set(out), {name for name, _, _ in metrics.per_layer_spec()})


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(metrics.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         metrics.per_layer_spec())


if __name__ == "__main__":
    unittest.main()
