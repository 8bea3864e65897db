#!/usr/bin/env python3
"""Validates and compares weavess_bench runs against BENCHMARK.json.

A run is the stdout of one `python3 perfbench/run.py ...` invocation saved
to a file: a run/host line first, the JSON result last.

  bench_compare.py --validate RUN_OR_DIR...
      Checks BENCHMARK.json itself, then that every run passed its
      correctness checks and reports exactly the declared metrics (the
      end-to-end set untraced, the per-layer set traced) with the declared
      units.

  bench_compare.py compare A_DIR [B_DIR] [--claim WORKLOAD:METRIC]
      Median and quartiles of every (workload, end-to-end metric) over the
      untraced runs in each directory, and the spread (q3 - q1) / median.
      With one directory a spread above the metric's bound is flagged. With
      two, B is judged against A: "worse" when B's median is worse than A's
      by more than the bound, "unresolved" when either side's spread
      exceeds the bound (unless every B run beats every A run), else "ok".
      --claim tests a named gain: B must win at least 9 of every 10 pairs
      (runs paired by seed) and the medians must differ by more than A's
      quartile distance.

Exit status 1 when validation fails, a metric is worse, or a claim is not
met. Standard library only.
"""

import argparse
import json
import math
import os
import re
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
METRIC_KEYS = {"name", "unit", "better", "bound"}
LAYER_KEYS = {"name", "unit", "better"}


def check_benchmark(spec):
    """Returns a list of problems with BENCHMARK.json's own shape."""
    problems = []
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(spec) != expected:
        problems.append("keys %s, expected %s" % (sorted(spec),
                                                    sorted(expected)))
        return problems
    command = spec["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32 or
            any(not isinstance(c, str) or len(c) > 200 for c in command)):
        problems.append("command must be 1-32 strings of <= 200 chars")
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if (not isinstance(path, str) or not PATH_RE.match(path) or
                    path.startswith("/") or ".." in path.split("/")):
                problems.append("bad path %r" % (path,))
    run_seconds = spec["run_seconds"]
    if (not isinstance(run_seconds, int) or isinstance(run_seconds, bool) or
            not 1 <= run_seconds <= 60):
        problems.append("run_seconds must be a whole number 1-60")
    names = []
    workloads = spec["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        problems.append("workloads must hold 2-8 entries")
        workloads = []
    for w in workloads:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append("bad workload %r" % (w,))
        names.append(w.get("name", ""))
    for kind, keys, low, high in (("end_to_end", METRIC_KEYS, 1, 16),
                                  ("per_layer", LAYER_KEYS, 1, 128)):
        metrics = spec[kind]
        if not isinstance(metrics, list) or not low <= len(metrics) <= high:
            problems.append("%s must hold %d-%d metrics" % (kind, low, high))
            continue
        for m in metrics:
            if set(m) != keys:
                problems.append("%s entry %r has keys %s" % (kind, m,
                                                             sorted(m)))
                continue
            names.append(m["name"])
            if not UNIT_RE.match(m["unit"]):
                problems.append("bad unit %r" % (m["unit"],))
            if m["better"] not in ("lower", "higher"):
                problems.append("bad better %r" % (m["better"],))
            if kind == "end_to_end" and not (
                    isinstance(m["bound"], (int, float)) and
                    0 < m["bound"] <= 0.25):
                problems.append("bound of %s must be in (0, 0.25]" %
                                m["name"])
    for name in names:
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append("bad name %r" % (name,))
    if len(set(names)) != len(names):
        problems.append("names are not unique")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def load_run(path):
    """Returns (run line, result) of one saved run."""
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError("%s: expected a run line and a result line" % path)
    return json.loads(lines[0]), json.loads(lines[-1])


def run_files(targets):
    files = []
    for target in targets:
        if os.path.isdir(target):
            files += sorted(os.path.join(target, name)
                            for name in os.listdir(target)
                            if name.endswith(".json"))
        else:
            files.append(target)
    return files


def check_run(spec, path):
    """Returns a list of problems with one saved run."""
    try:
        run, result = load_run(path)
    except (OSError, ValueError) as error:
        return ["unreadable run: %s" % error]
    problems = []
    info = run.get("run", {})
    if info.get("workload") not in {w["name"] for w in spec["workloads"]}:
        problems.append("undeclared workload %r" % (info.get("workload"),))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
        return ["%s: %s" % (path, p) for p in problems]
    if result["correct"] is not True:
        problems.append("correct is %r" % (result["correct"],))
    for key, low in (("attempted", 1), ("failed", 0)):
        value = result[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < low:
            problems.append("%s is %r" % (key, value))
    declared = spec["per_layer" if info.get("trace") else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        problems.append("missing %s, undeclared %s" % (missing, extra))
    for name, entry in metrics.items():
        if name not in units:
            continue
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool) or
                not math.isfinite(value)):
            problems.append("%s value %r" % (name, value))
        elif not info.get("trace") and value <= 0:
            problems.append("%s is %r; end-to-end metrics are never 0" %
                            (name, value))
        if entry.get("unit") != units[name]:
            problems.append("%s unit %r, declared %r" % (
                name, entry.get("unit"), units[name]))
    return ["%s: %s" % (path, p) for p in problems]


def untraced_runs(directory):
    """{workload: [(seed, metrics)]} over the untraced runs of a directory."""
    runs = {}
    for path in run_files([directory]):
        run, result = load_run(path)
        info = run["run"]
        if info.get("trace"):
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(info["workload"], []).append((info["seed"], values))
    for entries in runs.values():
        entries.sort(key=lambda entry: entry[0])
    return runs


def summary(values):
    """(median, q1, q3, spread) of a sample, as the benchmark gate takes it."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def worse_by(metric, base, new):
    """Share by which `new` is worse than `base` (negative = better)."""
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def beats(metric, a, b):
    return b < a if metric["better"] == "lower" else b > a


def compare(spec, dir_a, dir_b, claim):
    runs_a = untraced_runs(dir_a)
    runs_b = untraced_runs(dir_b) if dir_b else {}
    failed = False
    header = "%-14s %-15s %5s %14s %14s %8s %6s" % (
        "workload", "metric", "runs", "median", "q1..q3", "spread", "bound")
    if dir_b:
        header += " %14s %8s %8s  verdict" % ("B median", "B spread",
                                               "worse")
    print(header)
    for workload in [w["name"] for w in spec["workloads"]]:
        a_entries = runs_a.get(workload, [])
        b_entries = runs_b.get(workload, [])
        if not a_entries:
            continue
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a_vals = [m[name] for _, m in a_entries]
            med, q1, q3, spread = summary(a_vals)
            line = "%-14s %-15s %5d %14.6g %6.4g..%-6.4g %8.4f %6.3f" % (
                workload, name, len(a_vals), med, q1, q3, spread, bound)
            if not dir_b:
                if name != "setup_s" and spread > bound:
                    line += "  WIDE"
                    failed = True
                elif name != "setup_s" and spread > bound / 3:
                    line += "  above bound/3"
                print(line)
                continue
            if not b_entries:
                print(line + "  (no B runs)")
                continue
            b_vals = [m[name] for _, m in b_entries]
            b_med, _, _, b_spread = summary(b_vals)
            worse = worse_by(metric, med, b_med)
            all_better = all(beats(metric, a, b)
                             for a in a_vals for b in b_vals)
            if worse > bound:
                verdict = "WORSE"
                failed = True
            elif max(spread, b_spread) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(line + " %14.6g %8.4f %+8.4f  %s" % (b_med, b_spread, worse,
                                                       verdict))
    if claim:
        failed |= not check_claim(spec, runs_a, runs_b, claim)
    return not failed


def check_claim(spec, runs_a, runs_b, claim):
    workload, _, name = claim.partition(":")
    metric = next((m for m in spec["end_to_end"] if m["name"] == name), None)
    if metric is None or workload not in runs_a or workload not in runs_b:
        print("claim %s: unknown metric or workload without runs" % claim)
        return False
    a = dict(runs_a[workload])
    b = dict(runs_b[workload])
    seeds = sorted(set(a) & set(b))
    wins = sum(beats(metric, a[s][name], b[s][name]) for s in seeds)
    a_vals = [a[s][name] for s in seeds]
    b_vals = [b[s][name] for s in seeds]
    if not seeds:
        print("claim %s: no runs share a seed" % claim)
        return False
    a_med, a_q1, a_q3, _ = summary(a_vals)
    b_med = statistics.median(b_vals)
    held = wins * 10 >= 9 * len(seeds) and abs(b_med - a_med) > a_q3 - a_q1
    print("claim %s: B wins %d of %d pairs; medians %.6g -> %.6g; A quartile "
          "distance %.6g: %s" % (claim, wins, len(seeds), a_med, b_med,
                                 a_q3 - a_q1, "MET" if held else "NOT MET"))
    return held


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json to check against")
    parser.add_argument("--validate", nargs="+", metavar="RUN")
    parser.add_argument("command", nargs="?", choices=("compare",))
    parser.add_argument("dirs", nargs="*")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC")
    args = parser.parse_args()
    with open(args.benchmark) as f:
        spec = json.load(f)

    if args.validate:
        problems = check_benchmark(spec)
        files = run_files(args.validate)
        if not files:
            problems.append("no runs to validate")
        for path in files:
            problems += check_run(spec, path)
        for problem in problems:
            print(problem)
        print("%d runs, %d problems" % (len(files), len(problems)))
        return 1 if problems else 0
    if args.command == "compare" and 1 <= len(args.dirs) <= 2:
        dir_b = args.dirs[1] if len(args.dirs) == 2 else None
        try:
            return 0 if compare(spec, args.dirs[0], dir_b, args.claim) else 1
        except (OSError, ValueError) as error:
            print("unreadable run: %s" % error)
            return 1
    parser.print_usage()
    return 2


if __name__ == "__main__":
    sys.exit(main())
