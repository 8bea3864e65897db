#!/usr/bin/env python3
"""Builds weavess_bench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the first run configures and compiles, later
runs only rebuild what changed. Build output goes to stderr, so the last
line on stdout is the benchmark's JSON result. A traced run writes its
spans to <build dir>/traces/<workload>-seed<N>.jsonl. The exit status is
the benchmark's (nonzero when a correctness check failed), or 2 when the
build fails and 3 when the run times out.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build(build_root):
    """Configures (once) and builds weavess_bench; returns its path."""
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(build_root, exist_ok=True)
    with open(os.path.join(build_root, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        # A failed configure leaves a cache but no Makefile; redo it then.
        if not os.path.exists(os.path.join(cmake_dir, "Makefile")):
            steps.append(["cmake", "-G", "Unix Makefiles",
                          "-S", os.path.join(ROOT, "perfbench"),
                          "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "weavess_bench", "-j", "4"])
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
                return None
    return os.path.join(cmake_dir, "weavess_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_root)
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return 2

    work_parent = os.path.join(build_root, "work")
    os.makedirs(work_parent, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_parent)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.trace:
        trace_dir = os.path.join(build_root, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    # Transparent huge pages for malloc'd memory: with 4 KiB pages, random
    # reads over the index missed the TLB, and how costly those misses were
    # moved with the load on the host.
    tunables = os.environ.get("GLIBC_TUNABLES")
    env = dict(os.environ, GLIBC_TUNABLES="glibc.malloc.hugetlb=1" +
               (":" + tunables if tunables else ""))
    process = subprocess.Popen(command, stdout=subprocess.PIPE, env=env)
    try:
        output, _ = process.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: %s timed out after %d s" % (args.workload,
                                                   RUN_TIMEOUT_S),
              file=sys.stderr)
        return 3
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(output.decode())
    sys.stdout.flush()
    return process.returncode


if __name__ == "__main__":
    sys.exit(main())
