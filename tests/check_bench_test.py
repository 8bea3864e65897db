#!/usr/bin/env python3
"""Tests tools/check_bench.py against the checked-in bench snapshots.

Each BENCH_*.json snapshot must pass when fed in as its own run, and every
mutated copy in the negative matrix must be rejected for the intended
reason. Run directly (`python3 tests/check_bench_test.py`) or through ctest
(`ctest -R check_bench`).
"""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKER = os.path.join(ROOT, "tools", "check_bench.py")
SNAPSHOTS = sorted(glob.glob(os.path.join(ROOT, "bench", "BENCH_*.json")))


def snapshot_path(name):
    return os.path.join(ROOT, "bench", f"BENCH_{name}.json")


def read_rows(name):
    with open(snapshot_path(name)) as f:
        return [json.loads(line) for line in f if line.startswith("{")]


def kind(rows, bench):
    return [r for r in rows if r["bench"] == bench]


def set_field(bench, field, value, index=0):
    def mutate(rows):
        kind(rows, bench)[index][field] = value
    return mutate


def drop_rows(predicate):
    def mutate(rows):
        rows[:] = [r for r in rows if not predicate(r)]
    return mutate


def sq8_recall_gap(rows):
    row = next(r for r in kind(rows, "quant")
               if r["variant"] == "sq8" and r["rescore_factor"] == 4)
    flt = next(r for r in kind(rows, "quant")
               if r["variant"] == "float" and r["pool"] == row["pool"])
    row["recall"] = flt["recall"] - 0.02


def sq8_speedup(factor):
    """Sets every SQ8 QPS to `factor` times the best-recall float QPS."""
    def mutate(rows):
        flt = [r for r in kind(rows, "quant") if r["variant"] == "float"]
        best = max(r["recall"] for r in flt)
        float_qps = max(r["qps"] for r in flt if r["recall"] == best)
        for row in kind(rows, "quant"):
            if row["variant"] == "sq8":
                row["qps"] = factor * float_qps
    return mutate


def weak_speedup(rows):
    top = max(r["n"] for r in kind(rows, "build"))
    rung = next(r for r in kind(rows, "build")
                if r["n"] == top and r["threads"] == 4)
    rung["speedup"] = 1.4


def mismatched_build(field, value):
    def mutate(rows):
        rung = next(r for r in kind(rows, "build") if r["threads"] == 2)
        rung[field] = value
    return mutate


def mismatched_nn_descent(field, value):
    def mutate(rows):
        rung = next(r for r in kind(rows, "nn_descent") if r["threads"] == 2)
        rung[field] = value
    return mutate


def not_identical(algo):
    def mutate(rows):
        rung = next(r for r in kind(rows, "build")
                    if r["algo"] == algo and r["threads"] == 2)
        rung["identical"] = False
    return mutate


def drop_counters(prefix):
    def mutate(rows):
        for row in kind(rows, "sharding_metrics"):
            c = row["snapshot"]["counters"]
            row["snapshot"]["counters"] = {
                k: v for k, v in c.items() if not k.startswith(prefix)}
    return mutate


def add_field(rows):
    kind(rows, "mutation")[0]["extra"] = 1


def drop_field(rows):
    del kind(rows, "sharding")[0]["ndc"]


def drop_nested_field(rows):
    del kind(rows, "mutation_metrics")[0]["snapshot"]["gauges"]


def unknown_kind(rows):
    rows.append({"bench": "mystery", "value": 1})


def broken_terminal_invariant(rows):
    kind(rows, "replication_metrics")[0]["snapshot"]["counters"][
        "replica.routed"] += 1


# (case, snapshot, mutate the run, mutate the snapshot, expected message)
NEGATIVE_MATRIX = [
    ("availability below 1", "replication",
     set_field("replication", "availability", 0.999), None, "admitted-query loss"),
    ("failed replica query", "replication",
     set_field("replication", "failed", 1), None, "admitted-query loss"),
    ("terminal invariant", "replication",
     broken_terminal_invariant, None, "terminal invariant broken"),
    ("recall differs across levels", "kernels",
     set_field("kernels_qps", "recall", 0.99, 1), None, "differ across dispatch"),
    ("NDC differs across levels", "kernels",
     set_field("kernels_qps", "ndc", 400.0, 1), None, "differ across dispatch"),
    ("no scalar qps row", "kernels",
     drop_rows(lambda r: r["bench"] == "kernels_qps" and r["level"] == "scalar"),
     None, "no scalar level"),
    ("required avx2 level lost", "kernels",
     drop_rows(lambda r: r.get("level") == "avx2"), None, "sweep points"),
    ("SQ8 recall gap", "quant", sq8_recall_gap, None, "SQ8 recall gap"),
    ("memory ratio in run", "quant",
     set_field("quant_memory", "ratio", 3.4), None, "memory ratio"),
    ("memory ratio in snapshot", "quant",
     None, set_field("quant_memory", "ratio", 3.4), "memory ratio"),
    ("snapshot SQ8 speedup", "quant",
     None, sq8_speedup(1.29), "SQ8 speedup below 1.3x"),
    ("build not identical", "build",
     set_field("build", "identical", False, 1), None, "not identical"),
    ("build evals vary", "build",
     mismatched_build("distance_evals", 1), None, "vary across threads"),
    ("build recall varies", "build",
     mismatched_build("recall", 0.5), None, "vary across threads"),
    ("snapshot not identical", "build",
     None, set_field("build", "identical", False, 1), "not identical"),
    ("4-thread speedup floor", "build", None, weak_speedup, "speedup below 1.5x"),
    ("NSG build not identical", "build",
     not_identical("NSG"), None, "not identical"),
    ("Vamana build not identical", "build",
     not_identical("Vamana"), None, "not identical"),
    ("dropped NSG rung", "build",
     drop_rows(lambda r: r.get("algo") == "NSG" and r["threads"] == 4),
     None, "sweep points"),
    ("nn_descent evals vary", "build",
     mismatched_nn_descent("distance_evals", 1), None,
     "nn_descent evals/staging vary"),
    ("nn_descent staging varies", "build",
     mismatched_nn_descent("peak_staged", 1), None,
     "nn_descent evals/staging vary"),
    ("snapshot nn_descent staging varies", "build",
     None, mismatched_nn_descent("peak_staged", 1),
     "nn_descent evals/staging vary"),
    ("dropped nn_descent rung", "build",
     drop_rows(lambda r: r["bench"] == "nn_descent" and r["threads"] == 8),
     None, "sweep points"),
    ("metrics version", "mutation",
     lambda rows: kind(rows, "mutation_metrics")[0]["snapshot"].update(
         snapshot_version=2), None, "version"),
    ("metrics family missing", "sharding",
     drop_counters("shard."), None, "has no shard.* counter"),
    ("dropped field", "sharding", drop_field, None, "snapshot schema"),
    ("extra field", "mutation", add_field, None, "snapshot schema"),
    ("dropped nested field", "mutation", drop_nested_field, None,
     "snapshot schema"),
    ("dropped sweep point", "sharding",
     drop_rows(lambda r: r["bench"] == "sharding" and r["num_shards"] == 8),
     None, "sweep points"),
    ("dropped replication ladder point", "replication",
     drop_rows(lambda r: r["bench"] == "replication" and r["fault_rate"] > 0.1),
     None, "sweep points"),
    ("missing row kind", "mutation",
     drop_rows(lambda r: r["bench"] == "mutation_metrics"), None,
     "row kinds differ"),
    ("unknown row kind", "build", unknown_kind, None, "row kinds differ"),
]


class CheckBenchTest(unittest.TestCase):
    def run_checker(self, snapshot_rows, run_rows):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, rows in (("snapshot", snapshot_rows), ("run", run_rows)):
                path = os.path.join(tmp, f"{name}.json")
                with open(path, "w") as f:
                    f.writelines(json.dumps(row) + "\n" for row in rows)
                paths.append(path)
            return subprocess.run([sys.executable, CHECKER] + paths,
                                  capture_output=True, text=True)

    def test_each_snapshot_passes_as_its_own_run(self):
        self.assertTrue(SNAPSHOTS, "no bench/BENCH_*.json found")
        for path in SNAPSHOTS:
            with self.subTest(snapshot=path):
                result = subprocess.run([sys.executable, CHECKER, path, path],
                                        capture_output=True, text=True)
                self.assertEqual(result.returncode, 0, result.stdout)

    def test_kernel_level_the_run_lacks_is_unarmed(self):
        run = read_rows("kernels")
        snapshot = run + [dict(r, level="neon") for r in kind(run, "kernels")
                          if r["level"] == "scalar"]
        result = self.run_checker(snapshot, run)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("kernels level neon UNARMED", result.stdout)

    def test_snapshot_sq8_speedup_just_above_floor_passes(self):
        rows = read_rows("quant")
        sq8_speedup(1.31)(rows)
        result = self.run_checker(rows, read_rows("quant"))
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("snapshot SQ8 speedup 1.31x", result.stdout)

    def test_unarmed_build_floors_are_reported(self):
        rows = read_rows("build")
        kind(rows, "build_env")[0]["threads_available"] = 2
        result = self.run_checker(rows, rows)
        self.assertEqual(result.returncode, 0, result.stdout)
        for threads in (4, 8):
            self.assertIn(f"{threads}-thread speedup floor UNARMED "
                          "(threads_available=2)", result.stdout)

    def test_serial_build_floor_is_unarmed(self):
        rows = read_rows("build")
        for row in kind(rows, "build"):
            if row["algo"] == "Vamana":
                row["speedup"] = 1.0
        result = self.run_checker(rows, rows)
        self.assertEqual(result.returncode, 0, result.stdout)
        self.assertIn("Vamana 4-thread speedup floor UNARMED "
                      "(its in-place refinement is serial)", result.stdout)

    def test_negative_matrix_is_rejected(self):
        for case, name, mutate_run, mutate_snapshot, message in NEGATIVE_MATRIX:
            with self.subTest(case=case):
                snapshot, run = read_rows(name), read_rows(name)
                for mutate, rows in ((mutate_run, run),
                                     (mutate_snapshot, snapshot)):
                    if mutate is not None:
                        mutate(rows)
                self.assertNotEqual(run + snapshot,
                                    read_rows(name) + read_rows(name),
                                    "the mutation changed nothing")
                result = self.run_checker(snapshot, run)
                self.assertEqual(result.returncode, 1, result.stdout)
                self.assertIn(message, result.stdout)


if __name__ == "__main__":
    unittest.main()
