#include "harness.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <thread>

#include "core/distance.h"
#include "core/rng.h"
#include "eval/synthetic.h"
#include "obs/metrics.h"

namespace weavess::perfbench {

namespace {

struct MetricDecl {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json "end_to_end" (bench_compare.py --validate checks
// the emitted names and units against it).
constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},        {"qps", "1/s"},
    {"latency_p50_us", "us"}, {"recall_at_10", "fraction"},
    {"peak_rss_mb", "MiB"},
};

// Mirrors BENCHMARK.json "per_layer".
constexpr MetricDecl kPerLayer[] = {
    {"algorithms.build_s", "s"},
    {"algorithms.build_evals", "count"},
    {"algorithms.build_1t_s", "s"},
    {"algorithms.build_speedup", "ratio"},
    {"algorithms.index_bytes", "bytes"},
    {"graph.nn_descent_s", "s"},
    {"graph.nn_descent_1t_s", "s"},
    {"graph.nn_descent_speedup", "ratio"},
    {"graph.nn_descent_evals", "count"},
    {"pipeline.after_init_s", "s"},
    {"core.l2_ns", "ns"},
    {"core.sq8_ns", "ns"},
    {"core.kernel_share", "fraction"},
    {"search.ndc", "count"},
    {"search.hops", "count"},
    {"search.seeds", "count"},
    {"search.query_us_p50", "us"},
    {"search.engine_scaling", "ratio"},
    {"quant.quantized_evals", "count"},
    {"quant.rescore_evals", "count"},
    {"quant.code_bytes", "bytes"},
    {"quant.float_qps_ratio", "ratio"},
    {"quant.float_recall_delta", "fraction"},
    {"serving.service_us_p50", "us"},
    {"serving.service_us_p99", "us"},
    {"serving.overhead_us", "us"},
    {"serving.shed", "count"},
    {"serving.deadline_exceeded", "count"},
    {"serving.failed", "count"},
    {"serving.degraded", "count"},
    {"serving.truncated", "count"},
    {"shard.evals", "count"},
    {"shard.max_share", "fraction"},
    {"shard.exact_scans", "count"},
    {"shard.save_s", "s"},
    {"shard.load_s", "s"},
    {"shard.file_bytes", "bytes"},
    {"mutation.preload_s", "s"},
    {"mutation.add_growth", "ratio"},
    {"mutation.add_us_p50", "us"},
    {"mutation.add_us_p99", "us"},
    {"mutation.remove_us_p50", "us"},
    {"mutation.commit_us_p50", "us"},
    {"mutation.commit_us_max", "us"},
    {"mutation.compact_s", "s"},
    {"mutation.read_p50_us", "us"},
    {"mutation.read_p90_us", "us"},
    {"mutation.write_p50_us", "us"},
    {"mutation.write_p99_us", "us"},
    {"mutation.recover_s", "s"},
    {"mutation.applied", "count"},
    {"mutation.wal_records", "count"},
    {"mutation.compactions", "count"},
    {"bench.latency_p90_us", "us"},
    {"bench.latency_p99_us", "us"},
    {"bench.latency_p999_us", "us"},
    {"bench.gen_lag_us_p99", "us"},
    {"bench.trace_overhead", "fraction"},
};

// Ambient-space cardinality of each stand-in at scale 1 (eval/synthetic.cc);
// MakeSplit scales the generator to exactly the rows a workload needs.
uint32_t StandInRows(const std::string& name) {
  if (name == "GloVe") return 8000;
  if (name == "Msong") return 6000;
  if (name == "SIFT1M") return 10000;
  std::fprintf(stderr, "weavess_bench: no row count for stand-in %s\n",
               name.c_str());
  std::abort();
}

// Calling thread's innermost open span (its id), for parent links.
thread_local uint64_t tl_current_span = 0;
thread_local const Tracer* tl_owner = nullptr;
thread_local void* tl_buffer = nullptr;

}  // namespace

uint32_t RunOptions::Rows(uint32_t rows, uint32_t floor) const {
  return smoke ? std::max(floor, rows / 10) : rows;
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Percentile(std::vector<uint64_t> values, double p) {
  std::sort(values.begin(), values.end());
  return NearestRankPercentile(values, p);
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

std::vector<std::vector<uint64_t>> Slices(const std::vector<Timed>& samples,
                                          uint64_t start_ns,
                                          uint64_t end_ns) {
  std::vector<std::vector<uint64_t>> slices(kSlices);
  const double width = static_cast<double>(end_ns - start_ns) / kSlices;
  for (const Timed& s : samples) {
    if (s.at_ns < start_ns || s.at_ns >= end_ns) continue;
    const int i = std::min(
        kSlices - 1, static_cast<int>((s.at_ns - start_ns) / width));
    slices[i].push_back(s.ns);
  }
  return slices;
}

}  // namespace

double SlicedPercentileUs(const std::vector<Timed>& samples,
                          uint64_t start_ns, uint64_t end_ns, double p) {
  std::vector<double> per_slice;
  for (std::vector<uint64_t>& slice : Slices(samples, start_ns, end_ns)) {
    if (!slice.empty()) per_slice.push_back(PercentileUs(std::move(slice), p));
  }
  return Median(per_slice);
}

double SlicedRate(const std::vector<Timed>& samples, uint64_t start_ns,
                  uint64_t end_ns, double weight) {
  std::vector<double> per_slice;
  for (const std::vector<uint64_t>& slice :
       Slices(samples, start_ns, end_ns)) {
    if (slice.empty()) continue;
    const double busy_ns = std::accumulate(slice.begin(), slice.end(), 0.0);
    per_slice.push_back(slice.size() * weight / (busy_ns * 1e-9));
  }
  return Median(per_slice);
}

std::vector<uint64_t> Durations(const std::vector<Timed>& samples) {
  std::vector<uint64_t> out;
  out.reserve(samples.size());
  for (const Timed& s : samples) out.push_back(s.ns);
  return out;
}

// ------------------------------------------------------------------ report

Report::Report(bool trace) : trace_(trace) {
  for (const MetricDecl& m : kEndToEnd) {
    metrics_[m.name] = Value{m.unit, /*end_to_end=*/true};
  }
  for (const MetricDecl& m : kPerLayer) {
    metrics_[m.name] = Value{m.unit, /*end_to_end=*/false};
  }
}

void Report::Set(const std::string& name, double value) {
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    std::fprintf(stderr, "weavess_bench: undeclared metric %s\n",
                 name.c_str());
    std::abort();
  }
  if (!std::isfinite(value)) {
    Violation("metric " + name + " is not finite");
    value = 0.0;
  }
  it->second.value = value;
  it->second.set = true;
}

void Report::Violation(const std::string& what) {
  ++violations_;
  std::fprintf(stderr, "weavess_bench: CHECK FAILED: %s\n", what.c_str());
}

void Report::CheckEndToEndMeasured() {
  if (trace_) return;
  for (const auto& [name, v] : metrics_) {
    if (v.end_to_end && (!v.set || !(v.value > 0.0))) {
      Violation("end-to-end metric " + name + " was not measured");
    }
  }
}

std::string Report::ResultJson() const {
  std::string metrics;
  for (const auto& [name, v] : metrics_) {
    if (v.end_to_end == trace_) continue;
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", name.c_str(), v.value,
                  v.unit.c_str());
    metrics += buf;
  }
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
  return std::string(head) + "\"metrics\":{" + metrics + "}}";
}

// ------------------------------------------------------------------- spans

bool Tracer::Traces(uint64_t op) const {
  // splitmix64 finalizer: decorrelates the choice from any schedule period.
  op += 0x9e3779b97f4a7c15ULL;
  op = (op ^ (op >> 30)) * 0xbf58476d1ce4e5b9ULL;
  op = (op ^ (op >> 27)) * 0x94d049bb133111ebULL;
  return enabled_ && ((op ^ (op >> 31)) & 1) == 0;
}

Tracer::Buffer& Tracer::Local() {
  if (tl_owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    tl_owner = this;
    tl_buffer = buffers_.back().get();
  }
  return *static_cast<Buffer*>(tl_buffer);
}

void Tracer::Record(const Span& span) { Local().spans.push_back(span); }

std::vector<uint64_t> Tracer::DurationsNs(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<uint64_t> out;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (std::string_view(span.name) == name) {
        out.push_back(span.end_ns - span.start_ns);
      }
    }
  }
  return out;
}

double Tracer::TotalSeconds(const char* name) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total_ns = 0;
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      if (std::string_view(span.name) == name) {
        total_ns += span.end_ns - span.start_ns;
      }
    }
  }
  return static_cast<double>(total_ns) * 1e-9;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans) {
      std::fprintf(out,
                   "{\"name\":\"%s\",\"layer\":\"%s\",\"id\":%llu,"
                   "\"parent\":%llu,\"request\":%llu,\"start_ns\":%llu,"
                   "\"end_ns\":%llu}\n",
                   s.name, s.layer, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, const char* layer,
                       uint64_t request, bool record)
    : tracer_(record && tracer.enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.request = request;
  span_.id = tracer_->NextId();
  span_.parent = tl_current_span;
  tl_current_span = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = NowNs();
  tl_current_span = span_.parent;
  tracer_->Record(span_);
}

// ----------------------------------------------------------- open loop

uint64_t WaitUntil(uint64_t due_ns, uint64_t* lag_ns) {
  constexpr uint64_t kSpinNs = 20'000;
  // The default 50 µs of timer slack would delay every wake-up.
  thread_local const int slack = prctl(PR_SET_TIMERSLACK, 1UL);
  (void)slack;
  uint64_t now = NowNs();
  if (now >= due_ns) return now;
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while ((now = NowNs()) < due_ns) {
  }
  if (lag_ns != nullptr) *lag_ns = now - due_ns;
  return now;
}

// ------------------------------------------------------------- checks

bool ValidIds(const std::vector<uint32_t>& ids, uint32_t k, uint32_t limit) {
  if (ids.size() != k) return false;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= limit) return false;
    for (size_t j = 0; j < i; ++j) {
      if (ids[j] == ids[i]) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------- data

Split MakeSplit(const std::string& standin, uint32_t base_rows,
                uint32_t query_rows, uint32_t insert_rows, uint64_t seed) {
  // The base is the first base_rows generated rows for every seed, so every
  // seed builds the same index; the seed draws the held-out rows from a
  // pool kPoolFactor times larger than it needs.
  constexpr uint32_t kPoolFactor = 4;
  const uint32_t pool = kPoolFactor * (query_rows + insert_rows);
  const uint32_t total = base_rows + pool;
  // +0.5 keeps the generator's truncation of num_base * scale at `total`.
  const double scale =
      (static_cast<double>(total) + 0.5) / StandInRows(standin);
  const Workload generated = MakeStandIn(standin, scale);
  if (generated.base.size() < total) {
    std::fprintf(stderr, "weavess_bench: stand-in %s gave %u rows, need %u\n",
                 standin.c_str(), generated.base.size(), total);
    std::abort();
  }
  std::vector<uint32_t> order(pool);
  std::iota(order.begin(), order.end(), base_rows);
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51u);
  rng.Shuffle(order);
  std::vector<uint32_t> base_ids(base_rows);
  std::iota(base_ids.begin(), base_ids.end(), 0u);
  Split split;
  split.base = generated.base.Subset(base_ids);
  split.queries = generated.base.Subset(
      std::vector<uint32_t>(order.begin(), order.begin() + query_rows));
  split.inserts = generated.base.Subset(std::vector<uint32_t>(
      order.begin() + query_rows, order.begin() + query_rows + insert_rows));
  return split;
}

double MeanRecall(const std::vector<std::vector<uint32_t>>& results,
                  const GroundTruth& truth) {
  if (results.empty()) return 0.0;
  double sum = 0.0;
  for (size_t q = 0; q < results.size(); ++q) {
    sum += Recall(results[q], truth[q], kK);
  }
  return sum / static_cast<double>(results.size());
}

// ------------------------------------------------------- probes + host

namespace {

// Runs `body` (one batch of 32 distances) for at least 20 ms and returns ns
// per distance.
template <typename Body>
double TimeKernel(Body body) {
  constexpr uint64_t kMinNs = 20'000'000;
  uint64_t calls = 0;
  const uint64_t start = NowNs();
  uint64_t elapsed = 0;
  while (elapsed < kMinNs) {
    for (int i = 0; i < 256; ++i) body();
    calls += 256;
    elapsed = NowNs() - start;
  }
  return static_cast<double>(elapsed) / static_cast<double>(calls * 32);
}

}  // namespace

double ProbeL2Ns(uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  Dataset rows = Dataset::Zeros(33, dim);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    for (uint32_t d = 0; d < dim; ++d) {
      rows.MutableRow(r)[d] = static_cast<float>(rng.NextGaussian());
    }
  }
  std::vector<uint32_t> ids(32);
  std::iota(ids.begin(), ids.end(), 1u);
  std::vector<float> out(32);
  volatile float sink = 0.0f;
  return TimeKernel([&] {
    L2SqrBatch(rows.Row(0), rows.RowBase(), rows.row_stride(), dim,
               ids.data(), ids.size(), out.data());
    sink = sink + out[31];
  });
}

double ProbeSq8Ns(uint32_t dim, uint64_t seed) {
  Rng rng(seed);
  const size_t stride = (dim + 63) / 64 * 64;
  std::vector<uint8_t> codes(33 * stride);
  for (uint8_t& c : codes) c = static_cast<uint8_t>(rng.NextBounded(256));
  std::vector<uint32_t> ids(32);
  std::iota(ids.begin(), ids.end(), 1u);
  std::vector<float> out(32);
  volatile float sink = 0.0f;
  return TimeKernel([&] {
    L2SqrSQ8Batch(codes.data(), codes.data(), stride, dim, ids.data(),
                  ids.size(), out.data());
    sink = sink + out[31];
  });
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string HostJson() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"nproc\":%u,\"kernel\":\"%s\",\"l2_bytes\":%ld,"
                "\"l3_bytes\":%ld,\"compiler\":\"%s\"}",
                std::thread::hardware_concurrency(),
                KernelLevelName(ActiveKernelLevel()),
                sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
                __VERSION__);
  return buf;
}

}  // namespace weavess::perfbench
