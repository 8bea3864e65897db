// Shared plumbing for weavess_bench (perfbench/BENCHMARK.md): run options,
// the metric report that becomes the benchmark's one-line result, the
// outside-in span recorder, the open-loop pacer, correctness helpers, and
// the seeded held-out split of the stand-in datasets.
#ifndef WEAVESS_PERFBENCH_HARNESS_H_
#define WEAVESS_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "eval/ground_truth.h"

namespace weavess::perfbench {

/// Threads any workload may keep busy at once: build pools, engine workers,
/// submitters, the writer and the maintenance thread all count.
inline constexpr uint32_t kThreads = 4;
/// Untimed traffic before every measured phase.
inline constexpr double kWarmupSeconds = 2.0;
/// Set-ups per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;
inline constexpr uint32_t kK = 10;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// A tenth of the rows, 0.2 s warm-ups and one set-up (the ctest).
  bool smoke = false;
  /// Scratch directory for index files and write-ahead logs.
  std::string work_dir;
  /// Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;

  /// `rows` scaled down for smoke runs (never below `floor`).
  uint32_t Rows(uint32_t rows, uint32_t floor = 200) const;
  double Warmup() const { return smoke ? 0.2 : kWarmupSeconds; }
  int SetupRepeats() const { return trace || smoke ? 1 : kSetupRepeats; }
};

uint64_t NowNs();
double SecondsSince(uint64_t start_ns);

/// Nearest-rank percentile (obs/metrics.h definition); 0 when empty.
double Percentile(std::vector<uint64_t> values, double p);
/// Percentile of nanosecond samples, in µs.
inline double PercentileUs(std::vector<uint64_t> ns, double p) {
  return Percentile(std::move(ns), p) / 1000.0;
}
double Median(std::vector<double> values);

/// One timed operation: when it was due (open loop) or started (closed
/// loop), and how long it took from then to complete.
struct Timed {
  uint64_t at_ns = 0;
  uint64_t ns = 0;
};

/// A measured phase is cut into kSlices equal time slices, and a latency
/// percentile or rate is reported as the median of its per-slice values:
/// a burst of host noise moves one slice, not the result.
inline constexpr int kSlices = 40;

/// Median over the slices of [start_ns, end_ns) of each slice's p-th
/// percentile of `ns`, in µs. Samples are binned by `at_ns`.
double SlicedPercentileUs(const std::vector<Timed>& samples,
                          uint64_t start_ns, uint64_t end_ns, double p);
/// Median over the slices of operations per second of busy time (the summed
/// `ns` of the slice's samples), each sample standing for `weight`
/// operations. For back-to-back closed-loop calls this is the throughput,
/// without the rounding of counting whole calls per slice.
double SlicedRate(const std::vector<Timed>& samples, uint64_t start_ns,
                  uint64_t end_ns, double weight);
/// The `ns` of every sample, for whole-phase tail percentiles.
std::vector<uint64_t> Durations(const std::vector<Timed>& samples);

// ------------------------------------------------------------------ report

/// Collects the run's metrics and correctness verdict. Every metric the
/// benchmark declares (BENCHMARK.json) is listed here with its unit; Set
/// refuses undeclared names, so the emitted set always matches the
/// declaration. Layer metrics start at 0, which reads "this workload does
/// not run that layer".
class Report {
 public:
  explicit Report(bool trace);

  void Set(const std::string& name, double value);
  /// Records a correctness violation (printed to stderr; the run fails).
  void Violation(const std::string& what);
  bool correct() const { return violations_ == 0; }
  /// An untraced run must have measured every end-to-end metric, and
  /// none may be 0.
  void CheckEndToEndMeasured();

  /// Operations the measured phase sent, and those that did not succeed.
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// The result line: {"correct","attempted","failed","metrics"} holding
  /// the end-to-end metrics (untraced) or the per-layer metrics (traced).
  std::string ResultJson() const;

 private:
  struct Value {
    std::string unit;
    bool end_to_end = false;
    bool set = false;
    double value = 0.0;
  };
  bool trace_;
  std::map<std::string, Value> metrics_;
  uint64_t violations_ = 0;
};

// ------------------------------------------------------------------- spans

/// One timed call from the benchmark into a layer.
struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = top level
  uint64_t request = 0;  // operation index within its phase, 0 = none
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

/// Span recorder. Spans go to per-thread buffers (no lock on the hot path
/// after a thread's first span) and are written out when the run ends. A
/// disabled tracer records nothing, which is what the untraced run uses.
class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }
  /// Whether operation `op` of a measured phase is traced: in a traced run
  /// a fixed pseudo-random half is, so traced and untraced operations share
  /// one phase and the gap between them is the tracing overhead. (Plain
  /// parity lined the traced reads of serve_mutable up with its writes.)
  bool Traces(uint64_t op) const;

  void Record(const Span& span);
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Durations (ns) of every recorded span named `name`. Call only while
  /// no thread is recording.
  std::vector<uint64_t> DurationsNs(const char* name) const;
  /// Sum of the durations (s) of spans named `name`.
  double TotalSeconds(const char* name) const;
  /// Writes every span as one JSON line; false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
  };
  Buffer& Local();

  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span around one layer call; free when the tracer is disabled or
/// `record` is false. Nested ScopedSpans on one thread become parent and
/// child.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, const char* layer,
             uint64_t request = 0, bool record = true);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;  // null when disabled
  Span span_;
};

// ----------------------------------------------------------- open loop

/// Open-loop pacing: waits until `due_ns` and returns the send time. The
/// calling thread sleeps, with 1 ns of timer slack, until 20 µs before the
/// due time and spins the rest. A pacer that spun the whole wait kept every
/// CPU busy, so any other load starved the serving threads into a backlog;
/// perfbench/BENCHMARK.md has the comparison.
/// `lag_ns`, when the caller arrived before the due time, receives how late
/// the pacer released it; it is left untouched when the caller was already
/// late, because that delay is the system's.
uint64_t WaitUntil(uint64_t due_ns, uint64_t* lag_ns);

// ------------------------------------------------------------- checks

/// Checks that `ids` holds exactly `k` distinct ids below `limit`.
bool ValidIds(const std::vector<uint32_t>& ids, uint32_t k, uint32_t limit);

// ---------------------------------------------------------------- data

/// A stand-in dataset split into base rows, held-out queries and held-out
/// insert rows. The stand-in generator's own seed is fixed and the base is
/// the same for every run seed; the run seed chooses which further
/// generated rows are held out as queries and inserts.
struct Split {
  Dataset base;
  Dataset queries;
  Dataset inserts;
};
Split MakeSplit(const std::string& standin, uint32_t base_rows,
                uint32_t query_rows, uint32_t insert_rows, uint64_t seed);

/// Mean Recall@k of `results` (one per query row) against `truth`.
double MeanRecall(const std::vector<std::vector<uint32_t>>& results,
                  const GroundTruth& truth);

// ------------------------------------------------------- probes + host

/// ns per distance of the batched float / SQ8 kernels over 32 seeded
/// random rows at `dim` (the `core.*` probes).
double ProbeL2Ns(uint32_t dim, uint64_t seed);
double ProbeSq8Ns(uint32_t dim, uint64_t seed);

/// Peak resident set of this process, MiB.
double PeakRssMb();
/// {"nproc","kernel","l2_bytes","l3_bytes","compiler"} of this host.
std::string HostJson();

}  // namespace weavess::perfbench

#endif  // WEAVESS_PERFBENCH_HARNESS_H_
