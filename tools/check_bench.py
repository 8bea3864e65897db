#!/usr/bin/env python3
"""Checks a bench run against its checked-in BENCH_*.json snapshot.

    tools/check_bench.py SNAPSHOT RUN

Both files are bench stdout; only their JSON lines are read. Timings are
machine-dependent, so the snapshot pins what is not: the schema (the run
emits exactly the snapshot's row kinds, the "bench" tag, each with exactly
the keys of that kind's snapshot rows, one level into object fields), the
sweep coverage, and the semantic gates below. A gate that cannot run
prints `UNARMED (reason)`. Exits 0 when every armed gate holds, else 1.
"""

import json
import sys

# Sweep key of each row kind: the tuple that names one sweep point.
SWEEP_KEYS = {
    "sharding": ("algo", "partitioner", "num_shards"),
    "replication": ("algo", "replicas", "fault_rate"),
    "kernels": ("mode", "level", "dim"),
    "quant": ("algo", "variant", "rescore_factor", "pool"),
    "mutation": ("algo", "mutation_qps"),
    "build": ("algo", "threads"),
    "nn_descent": ("threads",),
}
# Counter family each observability-snapshot row kind must report.
METRICS_FAMILIES = {"sharding_metrics": "shard.", "replication_metrics": "replica.",
                    "mutation_metrics": "mutation."}
# Dispatch levels every x86 runner has; the snapshot's other levels (avx512,
# neon) are required only when the run reaches them.
REQUIRED_LEVELS = {"scalar", "avx2"}
DEFAULT_RESCORE_FACTOR = 4  # SearchParams::rescore_factor default
# Builds with no parallel stage to speed up; their speedup floors are unarmed.
SERIAL_BUILDS = {"Vamana": "its in-place refinement is serial"}

failures = []


def check(ok, message):
    if not ok:
        failures.append(message)
    return ok


def load(path):
    kinds = {}
    with open(path) as f:
        for line in f:
            if line.startswith("{"):
                row = json.loads(line)
                kinds.setdefault(row["bench"], []).append(row)
    return kinds


def shape(row):
    return {k: sorted(v) if isinstance(v, dict) else None for k, v in row.items()}


def check_schema(snap, run):
    check(set(snap) == set(run),
          f"row kinds differ: snapshot {sorted(snap)}, run {sorted(run)}")
    for kind, rows in snap.items():
        want = shape(rows[0])
        for where, kind_rows in (("snapshot", rows), ("run", run.get(kind, []))):
            for row in kind_rows:
                check(shape(row) == want,
                      f"{where} {kind} row does not match the snapshot schema "
                      f"{sorted(want)}: {row}")


def check_coverage(snap, run):
    for kind in sorted(SWEEP_KEYS.keys() & snap.keys()):
        fields = SWEEP_KEYS[kind]
        want = {tuple(r[f] for f in fields) for r in snap[kind]}
        have = {tuple(r[f] for f in fields) for r in run[kind]}
        if kind == "kernels":
            absent = ({r["level"] for r in snap[kind]} - REQUIRED_LEVELS
                      - {r["level"] for r in run[kind]})
            for level in sorted(absent):
                print(f"kernels level {level} UNARMED (the run has no "
                      f"{level} rows; the runner may lack {level})")
            want = {key for key in want if key[1] not in absent}
        if check(want <= have, f"run lost {kind} sweep points {fields}: "
                 f"{sorted(want - have)}"):
            print(f"ok: {len(want)} {kind} sweep points covered")


def check_metrics(run):
    for kind, family in METRICS_FAMILIES.items():
        for row in run.get(kind, []):
            snap = row["snapshot"]
            check(snap["snapshot_version"] == 1, f"{kind} version: {row}")
            check(any(name.startswith(family) for name in snap["counters"]),
                  f"{kind} has no {family}* counter: {row}")


def check_replication(run):
    for row in run.get("replication", []):
        check(row["availability"] == 1.0 and row["failed"] == 0,
              f"admitted-query loss at fault_rate {row['fault_rate']}: {row}")
    for row in run.get("replication_metrics", []):
        c = row["snapshot"]["counters"]
        terminal = sum(c.get(f"replica.{name}", 0) for name in
                       ("completed", "failed_over", "hedge_won", "failed"))
        check(c.get("replica.routed", 0) == terminal,
              f"terminal invariant broken: routed={c.get('replica.routed', 0)} "
              f"terminals={terminal}")


def check_kernels(run):
    groups = {}
    for row in run.get("kernels_qps", []):
        groups.setdefault((row["algo"], row["dataset"], row["pool"]), []).append(row)
    for key, rows in groups.items():
        check("scalar" in {r["level"] for r in rows}, f"no scalar level: {key}")
        check(len({(r["recall"], r["ndc"]) for r in rows}) == 1,
              f"recall/NDC differ across dispatch levels: {key} {rows}")


def check_quant(snap, run):
    if "quant" not in snap:
        return
    for where, kinds in (("snapshot", snap), ("run", run)):
        for row in kinds["quant_memory"]:
            check(row["ratio"] >= 3.5, f"memory ratio below ~4x in {where}: {row}")
    rows = run["quant"]
    for algo in sorted({r["algo"] for r in rows}):
        flt = {r["pool"]: r["recall"] for r in rows
               if r["algo"] == algo and r["variant"] == "float"}
        sq8 = {r["pool"]: r["recall"] for r in rows
               if r["algo"] == algo and r["variant"] == "sq8"
               and r["rescore_factor"] == DEFAULT_RESCORE_FACTOR}
        for pool, recall in flt.items():
            check(sq8.get(pool, -1.0) >= recall - 0.01,
                  f"SQ8 recall gap at {algo} pool {pool}: "
                  f"sq8 {sq8.get(pool)} vs float {recall}")
    # The snapshot's claim: best SQ8 QPS within 0.01 of the float frontier's
    # best recall is >= 1.3x the float QPS there.
    rows = snap["quant"]
    for algo in sorted({r["algo"] for r in rows}):
        flt = [r for r in rows if r["algo"] == algo and r["variant"] == "float"]
        target = max(r["recall"] for r in flt)
        float_best = max(r["qps"] for r in flt if r["recall"] >= target - 1e-9)
        sq8_best = max((r["qps"] for r in rows if r["algo"] == algo
                        and r["variant"] == "sq8"
                        and r["recall"] >= target - 0.01), default=0.0)
        ratio = sq8_best / float_best
        if check(ratio >= 1.3, f"snapshot SQ8 speedup below 1.3x for {algo}: "
                 f"{ratio:.2f}x"):
            print(f"ok: {algo} snapshot SQ8 speedup {ratio:.2f}x")


def check_build(snap, run):
    if "build" not in snap:
        return
    for where, kinds in (("snapshot", snap), ("run", run)):
        groups = {}
        for r in kinds["build"]:
            check(r["identical"] is True, f"{where} build not identical: {r}")
            groups.setdefault((r["algo"], r["n"]), []).append(r)
        for key, group in groups.items():
            check(len({(r["distance_evals"], r["recall"]) for r in group}) == 1,
                  f"{where} evals/recall vary across threads: {key} {group}")
        groups = {}
        for r in kinds.get("nn_descent", []):
            groups.setdefault(r["n"], []).append(r)
        for n, group in groups.items():
            check(len({(r["distance_evals"], r["peak_staged"])
                       for r in group}) == 1,
                  f"{where} nn_descent evals/staging vary across threads at "
                  f"n={n}: {group}")
    available = snap["build_env"][0]["threads_available"]
    rows = snap["build"]
    for threads, floor in ((4, 1.5), (8, 2.0)):
        if available < threads:
            print(f"{threads}-thread speedup floor UNARMED "
                  f"(threads_available={available})")
            continue
        for algo in sorted({r["algo"] for r in rows}):
            if algo in SERIAL_BUILDS:
                print(f"{algo} {threads}-thread speedup floor UNARMED "
                      f"({SERIAL_BUILDS[algo]})")
                continue
            top = max(r["n"] for r in rows if r["algo"] == algo)
            rung = [r for r in rows if r["algo"] == algo and r["n"] == top
                    and r["threads"] == threads]
            if check(rung and rung[0]["speedup"] >= floor,
                     f"{threads}-thread speedup below {floor}x for {algo}: {rung}"):
                print(f"ok: {algo} {threads}-thread speedup "
                      f"{rung[0]['speedup']:.2f}x >= {floor}x")


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    snap, run = load(argv[1]), load(argv[2])
    check(snap, f"{argv[1]} has no JSON rows")
    check_schema(snap, run)
    if not failures:
        check_coverage(snap, run)
        check_metrics(run)
        check_replication(run)
        check_kernels(run)
        check_quant(snap, run)
        check_build(snap, run)
    for message in failures:
        print(f"FAIL: {message}")
    if not failures:
        print(f"ok: {argv[2]} matches {argv[1]}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
