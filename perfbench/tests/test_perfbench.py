"""Tests of the benchmark's own statistics, records and compare command.

    python3 -m unittest discover -s perfbench/tests

Pure Python: they need no build. The harness's raw records are stood in
for by small synthetic ones with the same shape.
"""

import argparse
import json
import pathlib
import re
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def raw_record(workload="cold_protein_20k", latencies=(4.0, 4.2, 4.4),
               layer_s=0.5, failed=0, check_ok=True, trace=0):
    """A harness record: every per-layer metric sampled, plus checks."""
    samples = {"setup_s": [1.0, 1.2, 1.1], "latency_s": list(latencies)}
    value = {"attempted": len(latencies) + failed, "failed": failed,
             "window_s": sum(latencies), "peak_rss_mb": 500.0,
             "check_tolerance": 0.05}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in ("serve.overhead_s", "ledger.closure_frac",
                    "check.epol_rel_err"):
            continue
        if name.split(".")[0] in ("gb", "parallel", "serve", "trace") and \
                not name.endswith("_s"):
            value[name] = 1.0
        else:
            samples[name] = [layer_s, layer_s * 1.1, layer_s * 0.9]
    check = {"request": 1, "energy": -100.0, "naive": -101.0, "rel_err": 0.0099,
             "born_rel_err": 0.002, "reference": -100.5, "ref_rel_err": 0.005,
             "ok": check_ok}
    return {"text": {"workload": workload, "trace": str(trace),
                     "build_flags": "Release simd=ON telemetry=ON", "nproc": "4",
                     "cpu_model": "cpu", "simd": "avx2", "atoms": "20000",
                     "workers": "4"},
            "value": value, "samples": samples, "checks": [check]}


def args_for(workload="cold_protein_20k", trace=0, seed=1):
    return argparse.Namespace(workload=workload, seed=seed,
                              seconds=SPEC["run_seconds"], trace=trace)


REVISION = {"git_sha": "abc", "source_digest": "0123"}


def summarize(raw, args):
    return run.summarize(SPEC, raw, args, REVISION)


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(19))
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertEqual(stats.tail_percentile(99), 50.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(999), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        self.assertEqual(stats.tail_percentile(10000), 99.9)

    def test_percentile_interpolates(self):
        xs = list(range(1, 101))  # 1..100
        self.assertAlmostEqual(stats.percentile(xs, 50), 50.5)
        self.assertAlmostEqual(stats.percentile(xs, 90), 90.1)
        self.assertEqual(stats.percentile([3.0], 90), 3.0)
        # exactly ten samples lie beyond p90 of 100
        self.assertEqual(sum(1 for x in xs if x > stats.percentile(xs, 90)), 10)


class LedgerTest(unittest.TestCase):
    def test_closure_sums_the_workload_layers(self):
        for workload, layers in stats.LEDGER_LAYERS.items():
            medians = {name: 0.1 * (i + 1) for i, name in enumerate(layers)}
            medians["not.a.layer_s"] = 100.0
            total, closure = stats.ledger_closure(workload, medians, 2.0)
            expected = sum(0.1 * (i + 1) for i in range(len(layers)))
            self.assertAlmostEqual(total, expected)
            self.assertAlmostEqual(closure, expected / 2.0)

    def test_closure_band(self):
        lo, hi = stats.CLOSURE_TOLERANCE
        for closure, closes in ((lo, True), (1.0, True), (hi, True),
                                (lo - 0.01, False), (hi + 0.01, False)):
            self.assertEqual(stats.ledger_closes(closure), closes)

    def test_traced_run_whose_ledger_does_not_close_is_not_correct(self):
        # cold's nine layers at 1 s each against a 4.2 s latency: 2.1
        record, result = summarize(raw_record(layer_s=1.0, trace=1),
                                   args_for(trace=1))
        self.assertGreater(result["metrics"]["ledger.closure_frac"]["value"],
                           stats.CLOSURE_TOLERANCE[1])
        self.assertFalse(result["correct"])
        self.assertFalse(record["ledger_closes"])
        self.assertEqual(result["failed"], 0)
        # the same record closes at a plausible layer time
        _, result = summarize(raw_record(layer_s=0.5, trace=1), args_for(trace=1))
        self.assertTrue(result["correct"])

    def test_per_layer_overhead_and_closure_agree(self):
        raw = raw_record(trace=1)
        out = stats.per_layer(raw, 4.2)
        total = sum(out[n] for n in stats.LEDGER_LAYERS["cold_protein_20k"])
        self.assertAlmostEqual(out["ledger.closure_frac"], total / 4.2)
        self.assertAlmostEqual(out["serve.overhead_s"], 4.2 - total)
        # closure is 1 exactly when the overhead is zero
        self.assertAlmostEqual(out["ledger.closure_frac"],
                               1.0 - out["serve.overhead_s"] / 4.2)


class VerdictTest(unittest.TestCase):
    parent = [10.0, 10.1, 9.9, 10.05, 9.95, 10.2, 9.8, 10.0, 10.1, 9.9]

    def test_improved_needs_wins_and_a_gap_beyond_the_spread(self):
        change = [x * 0.8 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0],
                         stats.IMPROVED)
        # higher-is-better flips the sense
        self.assertEqual(stats.verdict(self.parent, change, "higher", 0.1)[0],
                         stats.REGRESSED)

    def test_small_shift_is_no_worse(self):
        change = [x * 1.02 for x in self.parent]
        self.assertEqual(stats.verdict(self.parent, change, "lower", 0.1)[0],
                         stats.NO_WORSE)

    def test_worse_than_the_bound_regresses(self):
        change = [x * 1.3 for x in self.parent]
        v, share = stats.verdict(self.parent, change, "lower", 0.1)
        self.assertEqual(v, stats.REGRESSED)
        self.assertEqual(share, 0.0)

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 7.0, 13.0, 9.0, 11.0]
        change = [x * 1.05 for x in noisy]
        self.assertEqual(stats.verdict(noisy, change, "lower", 0.1)[0],
                         stats.UNRESOLVED)

    def test_nine_tenths_of_pairs_needed(self):
        change = [x * 0.8 for x in self.parent]
        change[0], change[1] = 20.0, 20.0  # two of ten pairs lost
        v, share = stats.verdict(self.parent, change, "lower", 0.1)
        self.assertAlmostEqual(share, 0.8)
        self.assertNotEqual(v, stats.IMPROVED)


class RecordTest(unittest.TestCase):
    def test_result_line_meets_the_contract(self):
        for trace in (0, 1):
            record, result = summarize(raw_record(trace=trace),
                                           args_for(trace=trace))
            line = json.loads(json.dumps(result))
            self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
            self.assertIsInstance(line["attempted"], int)
            self.assertIsInstance(line["failed"], int)
            self.assertGreaterEqual(line["attempted"], 1)
            names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            self.assertEqual(set(line["metrics"]), {m["name"] for m in names})
            for m in names:
                self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(line["correct"])
            # the run record is valid JSON and carries its provenance
            again = json.loads(json.dumps(record))
            for key in ("git_sha", "source_digest", "build_flags", "nproc",
                        "cpu_model", "simd", "config"):
                self.assertIn(key, again["provenance"])
            self.assertEqual(again["seed"], 1)

    def test_failed_check_or_request_is_counted_and_not_correct(self):
        _, result = summarize(raw_record(check_ok=False), args_for())
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        _, result = summarize(raw_record(failed=2), args_for())
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 2)

    def test_missing_metric_is_an_error(self):
        raw = raw_record(trace=1)
        del raw["samples"]["gb.born_s"]
        with self.assertRaises(KeyError):
            summarize(raw, args_for(trace=1))


class BenchmarkSpecTest(unittest.TestCase):
    NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

    def test_spec_follows_its_limits(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [m["name"] for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, self.NAME)
        for w in SPEC["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(m["unit"], self.UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in SPEC["end_to_end"]))

    def test_every_workload_has_a_ledger(self):
        for w in SPEC["workloads"]:
            self.assertIn(w["name"], stats.LEDGER_LAYERS)
        for name in run.HELD:
            self.assertIn(name, stats.LEDGER_LAYERS)

    def test_held_workloads_are_not_benchmark_workloads(self):
        self.assertFalse(set(run.HELD) & {w["name"] for w in SPEC["workloads"]})


class CompareTest(unittest.TestCase):
    def write_set(self, directory, factor, flags="Release simd=ON telemetry=ON",
                  cpu="cpu"):
        for seed in range(1, 11):
            lat = [4.0 * factor + 0.01 * seed] * 3
            raw = raw_record(latencies=lat)
            raw["text"]["build_flags"] = flags
            raw["text"]["cpu_model"] = cpu
            record, _ = summarize(raw, args_for(seed=seed))
            path = pathlib.Path(directory) / f"r{seed}.json"
            path.write_text(json.dumps(record))

    def rows(self, parent_factor, change_factor, **kw):
        with tempfile.TemporaryDirectory() as p, tempfile.TemporaryDirectory() as c:
            self.write_set(p, parent_factor)
            self.write_set(c, change_factor, **kw)
            return compare.compare(compare.load(p), compare.load(c), SPEC)

    def test_verdict_per_workload_and_metric(self):
        rows = self.rows(1.0, 1.5)
        verdicts = {r[1]["name"]: r[4] for r in rows}
        self.assertEqual(verdicts["latency_p50_s"], stats.REGRESSED)
        self.assertEqual(verdicts["throughput_rps"], stats.REGRESSED)
        self.assertEqual(verdicts["peak_rss_mb"], stats.NO_WORSE)
        rows = self.rows(1.0, 0.7)
        self.assertEqual({r[1]["name"]: r[4] for r in rows}["latency_p50_s"],
                         stats.IMPROVED)

    def test_refuses_debug_builds_and_other_hosts(self):
        with self.assertRaises(compare.Refused):
            self.rows(1.0, 1.0, flags="Debug simd=ON telemetry=ON")
        with self.assertRaises(compare.Refused):
            self.rows(1.0, 1.0, cpu="another cpu")


if __name__ == "__main__":
    unittest.main()
