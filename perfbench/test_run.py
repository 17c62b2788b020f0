#!/usr/bin/env python3
"""Self-tests of the benchmark's helpers; needs no build.

    python3 perfbench/test_run.py
"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def fake_rep(attempted=100, failed=0, virt_ms=1.5, det=None, checks=None,
             traced=False, timed_s=2.0, setup_s=0.5, outputs=None,
             kernel_entry_ns=run.REF_KERNEL_ENTRY_NS):
    return {"kind": "rep", "traced": traced, "attempted": attempted,
            "failed": failed, "virt_ms": virt_ms, "timed_s": timed_s,
            "setup_s": setup_s, "kernel_entry_ns": kernel_entry_ns,
            "det": dict(det or {"sim.events": 10}),
            "checks": list(checks or []), "outputs": dict(outputs or {}),
            "layer": {}}


class NameGrammar(unittest.TestCase):
    def test_accepts_repo_style_names(self):
        for name in ("setup_s", "sim.event_ns.p50", "coll-sw", "kvs.get_us.p999",
                     "9lives", "a" * 64):
            self.assertTrue(run.valid_name(name), name)

    def test_rejects_bad_names(self):
        for name in ("", "a b", "x/y", "-lead", ".lead", "_lead", "é", "a" * 65,
                     "p50{rank=0}"):
            self.assertFalse(run.valid_name(name), name)

    def test_units(self):
        for unit in ("ms", "s", "1/s", "count", "%", "MB"):
            self.assertTrue(run.valid_unit(unit), unit)
        for unit in ("", "micro seconds", "x" * 17):
            self.assertFalse(run.valid_unit(unit), unit)

    def test_benchmark_json_names_are_valid_and_unique(self):
        with open(run.BENCHMARK_JSON) as f:
            spec = json.load(f)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertTrue(run.valid_name(name), name)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), run.WORKLOADS)


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile(values, 100), 100)
        self.assertEqual(run.percentile(values, 0), 1)
        self.assertEqual(run.percentile([7], 90), 7)
        self.assertEqual(run.percentile([3, 1, 2], 50), 2)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)

    def test_sample_count_leaves_ten_beyond_p90(self):
        s = run.summarize_samples("x", [float(v) for v in range(200)])
        self.assertEqual(s["samples"], 200)
        self.assertEqual(s["p90"], 179.0)
        self.assertEqual(s["beyond_p90"], 20)
        self.assertEqual(s["p50"], 99.5)

    def test_too_few_samples_is_refused(self):
        with self.assertRaises(run.BenchError):
            run.summarize_samples("x", [float(v) for v in range(50)])
        # Ties at the p90 do not count as beyond it.
        with self.assertRaises(run.BenchError):
            run.summarize_samples("x", [1.0] * 300)


class Accounting(unittest.TestCase):
    def test_clean_reps(self):
        reps = [fake_rep(), fake_rep()]
        attempted, failed, failed_checks = run.account(reps)
        self.assertEqual((attempted, failed, failed_checks), (200, 0, []))
        self.assertEqual(run.error_rate(attempted, failed), 0.0)

    def test_injected_driver_check_failure_is_counted_by_name(self):
        bad = {"name": "coll.allreduce.mid.exact_sum", "ok": False,
               "failed_ops": 3, "detail": "3 calls with a wrong sum on some rank"}
        reps = [fake_rep(), fake_rep(failed=3, checks=[bad])]
        attempted, failed, failed_checks = run.account(reps)
        self.assertEqual(attempted, 200)
        self.assertEqual(failed, 3)
        self.assertEqual(failed_checks[0][0], "coll.allreduce.mid.exact_sum")
        self.assertAlmostEqual(run.error_rate(attempted, failed), 0.015)

    def test_injected_reference_mismatch_fails_the_repetition(self):
        reps = [fake_rep(outputs={"fock_checksum": 1.0}),
                fake_rep(outputs={"fock_checksum": 1.5})]
        run.reference_checks({"fock_checksum": 1.0}, reps)
        attempted, failed, failed_checks = run.account(reps)
        self.assertEqual(failed, 100)
        self.assertEqual([n for n, _ in failed_checks], ["reference.fock_checksum"])
        self.assertEqual(run.error_rate(attempted, failed), 0.5)

    def test_no_attempts_counts_as_total_failure(self):
        self.assertEqual(run.error_rate(0, 0), 1.0)


class Determinism(unittest.TestCase):
    def test_identical_reps_pass(self):
        reps = [fake_rep(det={"sim.events": 10, "noc.messages": 4})] * 3
        self.assertEqual(run.determinism_violations(reps), [])
        self.assertEqual(run.determinism_digest(reps[0]), run.determinism_digest(reps[1]))

    def test_one_differing_count_is_named(self):
        reps = [fake_rep(det={"sim.events": 10}), fake_rep(det={"sim.events": 11})]
        self.assertEqual(run.determinism_violations(reps),
                         [("sim.events", ["10", "11"])])
        self.assertNotEqual(run.determinism_digest(reps[0]),
                            run.determinism_digest(reps[1]))

    def test_virtual_time_is_compared_bitwise(self):
        reps = [fake_rep(virt_ms=0.1 + 0.2), fake_rep(virt_ms=0.3)]
        self.assertEqual(run.determinism_violations(reps)[0][0], "virt_ms")

    def test_tracing_may_shift_counts_but_not_virtual_time(self):
        reps = [fake_rep(det={"sim.events": 10}),
                fake_rep(det={"sim.events": 11}, traced=True),
                fake_rep(det={"sim.events": 10}),
                fake_rep(det={"sim.events": 11}, traced=True)]
        self.assertEqual(run.determinism_violations(reps), [])
        self.assertEqual(run.tracing_shifts(reps), [("sim.events", 10, 11)])
        reps.append(fake_rep(det={"sim.events": 11}, traced=True, virt_ms=2.0))
        self.assertEqual(run.determinism_violations(reps), [("virt_ms", ["1.5", "2.0"])])

    def test_traced_reps_are_compared_among_themselves(self):
        reps = [fake_rep(det={"sim.events": 10}),
                fake_rep(det={"sim.events": 11}, traced=True),
                fake_rep(det={"sim.events": 12}, traced=True)]
        self.assertEqual(run.determinism_violations(reps),
                         [("sim.events", ["11", "12"])])


class HostSpeed(unittest.TestCase):
    def test_reference_speed_leaves_times_as_measured(self):
        rep = fake_rep(timed_s=2.0, setup_s=0.5)
        self.assertEqual(run.ops_per_s(rep), 50.0)
        self.assertEqual(run.setup_s(rep), 0.5)

    def test_slow_host_is_put_on_the_reference_speed(self):
        # Kernel entries 25 % dearer than the reference: the host ran
        # slow, so the same measured times stand for faster code.
        slow = fake_rep(timed_s=2.5, setup_s=0.625,
                        kernel_entry_ns=1.25 * run.REF_KERNEL_ENTRY_NS)
        self.assertAlmostEqual(run.ops_per_s(slow), 50.0)
        self.assertAlmostEqual(run.setup_s(slow), 0.5)

    def test_windows_are_begin_end_pairs(self):
        self.assertEqual(run.check_windows([1, 5, 2, 9]), [1, 5, 2, 9])
        for bad in ([], [1], [1, 5, 2], [5, 5], [5, 1]):
            with self.assertRaises(run.BenchError):
                run.check_windows(bad)


class Windows(unittest.TestCase):
    def test_exact_and_near_windows_match(self):
        windows = [1000, 1001000, 5000, 2005000]
        self.assertTrue(run.windows_match(list(windows), windows))
        # Within 1e-4 of each region's length (100 and 200 ps).
        self.assertTrue(run.windows_match([1100, 1000900, 4800, 2005200], windows))

    def test_far_or_missing_windows_fail_the_repetition(self):
        windows = [1000, 1001000]
        self.assertFalse(run.windows_match([1101, 1001000], windows))
        self.assertFalse(run.windows_match([1000], windows))
        self.assertFalse(run.windows_match(None, windows))
        rep = fake_rep()
        rep["windows_ps"] = [5000, 1001000]
        run.window_check(rep, windows)
        attempted, failed, failed_checks = run.account([rep])
        self.assertEqual((failed, failed_checks[0][0]), (100, "markers.window"))


class OutputSchema(unittest.TestCase):
    def spec(self):
        with open(run.BENCHMARK_JSON) as f:
            return json.load(f)

    def test_end_to_end_metrics_match_benchmark_json(self):
        spec = self.spec()
        reps = [fake_rep(timed_s=2.0), fake_rep(timed_s=4.0), fake_rep(timed_s=3.0)]
        metrics = run.end_to_end(spec, reps, [90.0, 91.0, 92.0])
        self.assertEqual(list(metrics), [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(metrics["ops_per_s"]["value"], 100 / 3.0)
        self.assertEqual(metrics["peak_rss_mb"]["value"], 91.0)
        line = json.loads(run.result_line(True, 300, 0, metrics))
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        for m in line["metrics"].values():
            self.assertEqual(set(m), {"value", "unit"})

    def test_bad_results_are_refused(self):
        ok = {"setup_s": {"value": 0.5, "unit": "s"}}
        with self.assertRaises(run.BenchError):
            run.result_line(True, 0, 0, ok)
        with self.assertRaises(run.BenchError):
            run.result_line("yes", 1, 0, ok)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, -1, ok)
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"setup_s": {"value": True, "unit": "s"}})
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"bad name": {"value": 1, "unit": "s"}})
        with self.assertRaises(run.BenchError):
            run.result_line(True, 1, 0, {"x": {"value": 1, "unit": "s", "extra": 0}})

    def test_seeds_are_unsigned_and_repeatable(self):
        self.assertEqual(run.derive_seeds(7), run.derive_seeds(7))
        self.assertNotEqual(run.derive_seeds(7)[1], run.derive_seeds(8)[1])
        for seed in (-1, 0, 1 << 64):
            machine, app = run.derive_seeds(seed)
            self.assertTrue(0 <= machine < 1 << 63 and 0 <= app < 1 << 31)

    def test_clock_labels(self):
        self.assertEqual(run.clock_of("sim.event_ns.p90", "ns"), "host")
        self.assertEqual(run.clock_of("sim.events_per_msg", "ratio"), "count")
        self.assertEqual(run.clock_of("noc.wire_us", "us"), "virtual")
        self.assertEqual(run.clock_of("obs.trace_overhead_frac", "ratio"), "host")


if __name__ == "__main__":
    unittest.main()
