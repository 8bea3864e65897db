// weavess_bench: runs one benchmark workload and prints its result.
//
//   weavess_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--work-dir DIR] [--trace-out FILE]
//
// stdout holds two JSON lines: the run and host description, then the
// result {"correct","attempted","failed","metrics"}. An untraced run
// reports the end-to-end metrics; a traced run (--trace 1) records a span
// around every call into a layer, writes the spans to --trace-out, and
// reports the per-layer metrics. Exit status: 0 when every check passed,
// 1 when a check failed, 2 on a usage error. perfbench/BENCHMARK.md
// describes the workloads and metrics.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

using weavess::perfbench::Report;
using weavess::perfbench::RunOptions;
using weavess::perfbench::Tracer;

struct WorkloadEntry {
  const char* name;
  void (*run)(const RunOptions&, Report&, Tracer&);
};

constexpr WorkloadEntry kWorkloads[] = {
    {"batch_float", weavess::perfbench::RunBatchFloat},
    {"batch_sq8", weavess::perfbench::RunBatchSq8},
    {"serve_sharded", weavess::perfbench::RunServeSharded},
    {"serve_mutable", weavess::perfbench::RunServeMutable},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "weavess_bench: %s\nusage: weavess_bench --workload "
               "{batch_float|batch_sq8|serve_sharded|serve_mutable} "
               "[--seed N] [--seconds S] [--trace 0|1] [--smoke] "
               "[--work-dir DIR] [--trace-out FILE]\n",
               why);
  return 2;
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // One malloc arena: with per-thread arenas, peak RSS depended on which
  // arena each thread happened to pick (serve_mutable: 56-70 MiB between
  // runs, 44-49 MiB with one arena).
  mallopt(M_ARENA_MAX, 1);
  RunOptions options;
  options.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseU64(value, &number)) {
      options.seed = number;
    } else if (flag == "--seconds" && ParseU64(value, &number) &&
               number > 0) {
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace" && ParseU64(value, &number) && number <= 1) {
      options.trace = number == 1;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  const WorkloadEntry* workload = nullptr;
  for (const WorkloadEntry& entry : kWorkloads) {
    if (options.workload == entry.name) workload = &entry;
  }
  if (workload == nullptr) return Usage("unknown or missing --workload");
  std::error_code error;
  std::filesystem::create_directories(options.work_dir, error);
  if (error) {
    return Usage(("cannot create --work-dir " + options.work_dir).c_str());
  }

  std::printf(
      "{\"run\":{\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,"
      "\"trace\":%d,\"smoke\":%s},\"host\":%s}\n",
      workload->name, static_cast<unsigned long long>(options.seed),
      options.seconds, options.trace ? 1 : 0, options.smoke ? "true" : "false",
      weavess::perfbench::HostJson().c_str());
  std::fflush(stdout);

  Report report(options.trace);
  Tracer tracer;
  tracer.set_enabled(options.trace);
  workload->run(options, report, tracer);
  tracer.set_enabled(false);
  report.Set("peak_rss_mb", weavess::perfbench::PeakRssMb());
  if (options.trace && !options.trace_out.empty() &&
      !tracer.WriteJsonLines(options.trace_out)) {
    report.Violation("cannot write spans to " + options.trace_out);
  }
  report.CheckEndToEndMeasured();
  std::printf("%s\n", report.ResultJson().c_str());
  return report.correct() ? 0 : 1;
}
