// serve_sharded and serve_mutable: online serving on an open-loop
// schedule. Request i is due at start + i / rate whether or not earlier
// requests finished; its latency runs from the due time, so a stall also
// charges the requests queued behind it.
#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "core/rng.h"
#include "eval/synthetic.h"
#include "obs/trace.h"
#include "search/serving.h"
#include "shard/mutable_index.h"
#include "shard/sharded_index.h"
#include "workloads.h"

namespace weavess::perfbench {
namespace {

// Far above any service time: a deadline still rides every request through
// the admission and budget-merge path, but host stalls do not fail it.
constexpr uint64_t kDeadlineUs = 1'000'000;
constexpr uint32_t kCapacity = 64;

std::string FreshDir(const std::string& parent, const std::string& name) {
  const std::filesystem::path dir = std::filesystem::path(parent) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

// Checks the serving.* terminal-counter invariant and that the engine saw
// exactly the requests the benchmark sent.
void CheckServingInvariant(const ServingEngine& engine, uint64_t sent,
                           Report& report) {
  const MetricsRegistry& m = engine.metrics();
  const uint64_t submitted = m.CounterValue("serving.submitted");
  const uint64_t terminal = m.CounterValue("serving.completed") +
                            m.CounterValue("serving.rejected_overload") +
                            m.CounterValue("serving.deadline_exceeded") +
                            m.CounterValue("serving.failed");
  if (submitted != terminal || submitted != sent ||
      engine.lifetime_report().submitted != sent) {
    report.Violation("serving invariant: sent " + std::to_string(sent) +
                     ", submitted " + std::to_string(submitted) +
                     ", terminal " + std::to_string(terminal));
  }
}

void SetServingCounters(const ServingEngine& engine, uint64_t truncated,
                        Report& report) {
  const MetricsRegistry& m = engine.metrics();
  report.Set("serving.shed",
             static_cast<double>(m.CounterValue("serving.rejected_overload")));
  report.Set("serving.deadline_exceeded",
             static_cast<double>(m.CounterValue("serving.deadline_exceeded")));
  report.Set("serving.failed",
             static_cast<double>(m.CounterValue("serving.failed")));
  report.Set("serving.degraded",
             static_cast<double>(m.CounterValue("serving.degraded")));
  report.Set("serving.truncated", static_cast<double>(truncated));
}

// Phase clock shared by the threads of one open-loop phase.
struct Schedule {
  uint64_t start_ns = 0;
  uint64_t measure_ns = 0;  // requests due from here on are measured
  uint64_t end_ns = 0;      // no request is due at or after this
  double period_ns = 0.0;   // 1 / offered rate

  Schedule(double rate, uint64_t start, double warmup_s, double seconds) {
    start_ns = start;
    measure_ns = start_ns + static_cast<uint64_t>(warmup_s * 1e9);
    end_ns = measure_ns + static_cast<uint64_t>(seconds * 1e9);
    period_ns = 1e9 / rate;
  }
  uint64_t Due(uint64_t i) const {
    return start_ns + static_cast<uint64_t>(static_cast<double>(i) *
                                            period_ns);
  }
};

// Per-thread samples of one open-loop phase, merged after the join.
struct Samples {
  std::vector<Timed> latency;  // due -> completion, measured untraced requests
  std::vector<Timed> traced_latency;  // the same for traced requests
  std::vector<uint64_t> service_ns;   // ServeOutcome::latency_us, as ns
  std::vector<uint64_t> lag_ns;      // pacer lateness when it had to wait
  uint64_t sent = 0;                 // every request, warm-up included
  uint64_t measured = 0;
  uint64_t failed = 0;
  uint64_t truncated = 0;
  uint64_t bad_ids = 0;
  uint64_t measure_ns = 0;    // the measured window
  uint64_t end_ns = 0;
  uint64_t last_done_ns = 0;  // latest completion of a measured request

  explicit Samples(const Schedule& schedule)
      : measure_ns(schedule.measure_ns), end_ns(schedule.end_ns) {}

  void Merge(const Samples& other) {
    latency.insert(latency.end(), other.latency.begin(), other.latency.end());
    traced_latency.insert(traced_latency.end(), other.traced_latency.begin(),
                          other.traced_latency.end());
    service_ns.insert(service_ns.end(), other.service_ns.begin(),
                      other.service_ns.end());
    lag_ns.insert(lag_ns.end(), other.lag_ns.begin(), other.lag_ns.end());
    sent += other.sent;
    measured += other.measured;
    failed += other.failed;
    truncated += other.truncated;
    bad_ids += other.bad_ids;
    last_done_ns = std::max(last_done_ns, other.last_done_ns);
  }

  double LatencyUs(double p) const {
    return SlicedPercentileUs(latency, measure_ns, end_ns, p);
  }
  /// Median latency of traced over untraced requests, minus 1.
  double TraceOverhead() const {
    return SlicedPercentileUs(traced_latency, measure_ns, end_ns, 0.5) /
               LatencyUs(0.5) -
           1.0;
  }

  /// Completed operations per second, from the start of the measured
  /// window to its last completion: a backlog that outlasts the schedule
  /// lowers it.
  double Throughput() const {
    return (measured - failed) /
           (static_cast<double>(last_done_ns - measure_ns) * 1e-9);
  }
};

// ------------------------------------------------------------ serve_sharded

constexpr uint32_t kShardedSubmitters = 4;
constexpr double kShardedRate = 12000.0;

struct ShardedPhase {
  Samples samples;
  /// Recall of each held-out query's served result (-1 = never served).
  std::vector<double> query_recall;
};

ShardedPhase RunShardedPhase(ServingEngine& engine, const Dataset& queries,
                             const GroundTruth& truth,
                             const std::vector<uint32_t>& popularity,
                             uint32_t base_size, const RunOptions& options,
                             Tracer& tracer) {
  const Schedule schedule(kShardedRate, NowNs() + 1'000'000, options.Warmup(),
                          options.seconds);
  std::vector<Samples> samples(kShardedSubmitters, Samples(schedule));
  std::vector<std::vector<double>> recalls(
      kShardedSubmitters, std::vector<double>(queries.size(), -1.0));
  const auto submit = [&](uint32_t s) {
    Samples& mine = samples[s];
    RequestOptions request;
    request.params.k = kK;
    request.params.pool_size = 20;
    for (uint64_t i = s; schedule.Due(i) < schedule.end_ns;
         i += kShardedSubmitters) {
      const uint64_t due = schedule.Due(i);
      const bool measured = due >= schedule.measure_ns;
      uint64_t lag = std::numeric_limits<uint64_t>::max();
      WaitUntil(due, &lag);
      const uint32_t q = popularity[i % popularity.size()];
      request.deadline_us = engine.clock().NowMicros() + kDeadlineUs;
      const bool traced = tracer.Traces(i);
      ServeOutcome out;
      {
        ScopedSpan span(tracer, "Serve", "serving", i + 1, traced);
        out = engine.Serve(queries.Row(q), request);
      }
      const uint64_t done = NowNs();
      ++mine.sent;
      if (out.status.ok()) {
        if (!ValidIds(out.ids, kK, base_size)) ++mine.bad_ids;
        recalls[s][q] = Recall(out.ids, truth[q], kK);
        if (out.stats.truncated) ++mine.truncated;
      }
      if (!measured) continue;
      ++mine.measured;
      mine.last_done_ns = done;
      if (lag != std::numeric_limits<uint64_t>::max()) {
        mine.lag_ns.push_back(lag);
      }
      if (!out.status.ok()) {
        ++mine.failed;
        continue;
      }
      (traced ? mine.traced_latency : mine.latency)
          .push_back({due, done - due});
      mine.service_ns.push_back(out.latency_us * 1000);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t s = 0; s < kShardedSubmitters; ++s) {
    threads.emplace_back(submit, s);
  }
  for (std::thread& t : threads) t.join();

  ShardedPhase phase{Samples(schedule), {}};
  for (const Samples& s : samples) phase.samples.Merge(s);
  phase.query_recall.assign(queries.size(), -1.0);
  for (const auto& r : recalls) {
    for (uint32_t q = 0; q < queries.size(); ++q) {
      phase.query_recall[q] = std::max(phase.query_recall[q], r[q]);
    }
  }
  return phase;
}

double MeanServedRecall(const std::vector<double>& query_recall) {
  double sum = 0.0;
  uint32_t served = 0;
  for (double r : query_recall) {
    if (r < 0.0) continue;
    sum += r;
    ++served;
  }
  return served > 0 ? sum / served : 0.0;
}

// ------------------------------------------------------------ serve_mutable

constexpr uint32_t kReaders = 2;
constexpr double kReadRate = 2000.0;
// An add costs ~0.6 ms, so 250 writes/s keep the writer ~15% busy. At 500
// writes/s a host slowdown pushed it to saturation: one run's add p50
// read 0.78 s against 0.7 ms for the others.
constexpr double kWriteRate = 250.0;
constexpr uint32_t kCommitEvery = 500;
constexpr uint32_t kChurnDepth = 64;

MutableIndexOptions MutableOptions(uint32_t dim) {
  MutableIndexOptions options;
  options.dim = dim;
  options.num_shards = 4;
  options.m = 8;
  options.ef_construction = 60;
  options.seed = 2024;
  options.num_threads = 1;
  return options;
}

StatusOr<std::unique_ptr<MutableShardedIndex>> OpenMutable(
    const std::string& dir, const MutableIndexOptions& options,
    Tracer& tracer) {
  ScopedSpan span(tracer, "Open", "mutation");
  return MutableShardedIndex::Open(dir, options);
}

}  // namespace

void RunServeSharded(const RunOptions& options, Report& report,
                     Tracer& tracer) {
  const Split data = MakeSplit("SIFT1M", options.Rows(30000),
                               options.Rows(2000, 100), 0, options.seed);
  const Dataset& base = data.base;
  const Dataset& queries = data.queries;
  const GroundTruth truth = ComputeGroundTruth(base, queries, kK, kThreads);

  AlgorithmOptions build;
  build.max_degree = 25;
  build.build_pool = 80;
  build.num_shards = 4;
  build.partitioner = "kmeans";
  build.build_threads = kThreads;
  ServingConfig config;
  config.num_threads = 1;  // Serve runs on the submitter's thread
  config.admission.capacity = kCapacity;

  std::unique_ptr<ServingEngine> engine;
  std::vector<double> setups;
  double build_s = 0.0;
  for (int r = 0; r < options.SetupRepeats(); ++r) {
    engine.reset();
    const std::string dir = FreshDir(options.work_dir, "sharded");
    const std::string prefix = dir + "/index";
    const uint64_t t0 = NowNs();
    std::unique_ptr<AnnIndex> built = CreateAlgorithm("Sharded:HNSW", build);
    {
      ScopedSpan span(tracer, "Build", "algorithms");
      built->Build(base);
    }
    build_s = SecondsSince(t0);
    Status saved;
    const uint64_t t1 = NowNs();
    {
      ScopedSpan span(tracer, "Save", "shard");
      saved = static_cast<ShardedIndex&>(*built).Save(prefix);
    }
    const double save_s = SecondsSince(t1);
    if (!saved.ok()) report.Violation("Save: " + saved.ToString());
    report.Set("algorithms.build_evals",
               static_cast<double>(built->build_stats().distance_evals));
    built.reset();  // serving runs on the reloaded copy alone
    const uint64_t t2 = NowNs();
    ServingEngine::Opened opened;
    {
      ScopedSpan span(tracer, "FromShardManifest", "shard");
      opened = ServingEngine::FromShardManifest(prefix + ".manifest", base,
                                                config);
    }
    const double load_s = SecondsSince(t2);
    setups.push_back(SecondsSince(t0));
    engine = std::move(opened.engine);
    if (!opened.load_status.ok() || engine->sharded_index() == nullptr ||
        engine->sharded_index()->num_degraded_shards() != 0) {
      report.Violation("FromShardManifest: " + opened.load_status.ToString());
      return;
    }
    report.Set("algorithms.build_s", build_s);
    report.Set("shard.save_s", save_s);
    report.Set("shard.load_s", load_s);
    report.Set("shard.file_bytes", static_cast<double>(DirectoryBytes(dir)));
  }
  report.Set("setup_s", Median(setups));
  const ShardedIndex& sharded = *engine->sharded_index();
  report.Set("algorithms.index_bytes",
             static_cast<double>(sharded.IndexMemoryBytes()));

  // Zipf(1) popularity over the held-out queries; the rows themselves are
  // a seeded draw, so every seed has its own hot set.
  const double max_seconds = options.Warmup() + options.seconds + 1.0;
  const std::vector<const float*> skewed = MakeSkewedQueries(
      queries, static_cast<uint32_t>(kShardedRate * max_seconds), 1.0,
      options.seed * 0x632be59bd9b4e019ULL + 0x5e7e);
  std::vector<uint32_t> popularity(skewed.size());
  for (size_t i = 0; i < skewed.size(); ++i) {
    popularity[i] = static_cast<uint32_t>((skewed[i] - queries.Row(0)) /
                                          queries.row_stride());
  }

  const ShardedPhase phase = RunShardedPhase(
      *engine, queries, truth, popularity, base.size(), options, tracer);
  const Samples& s = phase.samples;
  report.attempted = s.measured;
  report.failed = s.failed;
  report.Set("qps", s.Throughput());
  report.Set("latency_p50_us", s.LatencyUs(0.50));
  report.Set("bench.latency_p90_us", s.LatencyUs(0.90));
  const std::vector<uint64_t> latency_ns = Durations(s.latency);
  report.Set("bench.latency_p99_us", PercentileUs(latency_ns, 0.99));
  report.Set("bench.latency_p999_us", PercentileUs(latency_ns, 0.999));
  report.Set("bench.gen_lag_us_p99", PercentileUs(s.lag_ns, 0.99));
  const double recall = MeanServedRecall(phase.query_recall);
  report.Set("recall_at_10", recall);
  if (recall < 0.92) {
    report.Violation("recall " + std::to_string(recall) + " below 0.92");
  }
  if (s.bad_ids > 0) {
    report.Violation(std::to_string(s.bad_ids) +
                     " served results without k distinct in-range ids");
  }
  CheckServingInvariant(*engine, s.sent, report);
  if (!options.trace) return;

  report.Set("bench.trace_overhead", s.TraceOverhead());
  const double service_p50 = PercentileUs(s.service_ns, 0.5);
  report.Set("serving.service_us_p50", service_p50);
  report.Set("serving.service_us_p99", PercentileUs(s.service_ns, 0.99));
  SetServingCounters(*engine, s.truncated, report);

  // Scatter-gather work per served query, from the shard.<s>.* counters.
  const MetricsRegistry& m = engine->metrics();
  uint64_t evals = 0;
  uint64_t max_evals = 0;
  uint64_t exact_scans = 0;
  for (uint32_t sh = 0; sh < sharded.num_shards(); ++sh) {
    const std::string prefix = "shard." + std::to_string(sh) + ".";
    const uint64_t e = m.CounterValue(prefix + "distance_evals");
    evals += e;
    max_evals = std::max(max_evals, e);
    exact_scans += m.CounterValue(prefix + "exact_scans");
  }
  const uint64_t completed = m.CounterValue("serving.completed");
  report.Set("shard.evals", static_cast<double>(evals) / completed);
  report.Set("shard.max_share", static_cast<double>(max_evals) / evals);
  report.Set("shard.exact_scans", static_cast<double>(exact_scans));

  // The index alone, one query at a time over the served (skewed) query
  // mix: what serving adds on top. The first pass only warms this thread's
  // caches (untimed, the pass read 40% slower than the ones after it).
  SearchScratch scratch(sharded.graph().size());
  SearchParams params;
  params.k = kK;
  params.pool_size = 20;
  for (uint32_t j = 0; j < queries.size(); ++j) {
    (void)sharded.SearchWith(scratch, queries.Row(popularity[j]), params,
                             nullptr);
  }
  QueryStats totals;
  for (uint32_t j = 0; j < queries.size(); ++j) {
    const uint32_t q = popularity[j];
    QueryStats stats;
    std::vector<uint32_t> ids;
    {
      ScopedSpan span(tracer, "SearchWith", "shard", j + 1);
      ids = sharded.SearchWith(scratch, queries.Row(q), params, &stats);
    }
    if (!ValidIds(ids, kK, base.size())) {
      report.Violation("direct SearchWith returned invalid ids");
      break;
    }
    totals.distance_evals += stats.distance_evals;
    totals.hops += stats.hops;
  }
  const double n = queries.size();
  const double query_ns = Percentile(tracer.DurationsNs("SearchWith"), 0.5);
  report.Set("search.query_us_p50", query_ns / 1000.0);
  report.Set("serving.overhead_us", service_p50 - query_ns / 1000.0);
  report.Set("search.ndc", totals.distance_evals / n);
  report.Set("search.hops", totals.hops / n);
  TraceSink sink;
  const uint32_t seeded = std::min<uint32_t>(queries.size(), 200);
  uint64_t seeds = 0;
  for (uint32_t q = 0; q < seeded; ++q) {
    sink.Clear();
    scratch.ctx.trace = &sink;
    (void)sharded.SearchWith(scratch, queries.Row(q), params, nullptr);
    scratch.ctx.trace = nullptr;
    seeds += sink.CountOf(TraceEventKind::kSeed);
  }
  report.Set("search.seeds", static_cast<double>(seeds) / seeded);
  const double l2_ns = ProbeL2Ns(base.dim(), options.seed);
  report.Set("core.l2_ns", l2_ns);
  report.Set("core.sq8_ns", ProbeSq8Ns(base.dim(), options.seed));
  report.Set("core.kernel_share", totals.distance_evals / n * l2_ns / query_ns);

  AlgorithmOptions one_thread = build;
  one_thread.build_threads = 1;
  std::unique_ptr<AnnIndex> rebuilt = CreateAlgorithm("Sharded:HNSW",
                                                      one_thread);
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "Build", "algorithms");
    rebuilt->Build(base);
  }
  const double build_1t_s = SecondsSince(t0);
  report.Set("algorithms.build_1t_s", build_1t_s);
  report.Set("algorithms.build_speedup", build_1t_s / build_s);
}

void RunServeMutable(const RunOptions& options, Report& report,
                     Tracer& tracer) {
  const double warmup = options.Warmup();
  // Every other write is an add, plus the first kChurnDepth.
  const auto insert_rows = static_cast<uint32_t>(
      (warmup + options.seconds) * kWriteRate / 2 + 2 * kChurnDepth);
  const Split data = MakeSplit("SIFT1M", options.Rows(8000),
                               options.Rows(1000, 100), insert_rows,
                               options.seed);
  const Dataset& base = data.base;
  const Dataset& queries = data.queries;
  const Dataset& inserts = data.inserts;
  const MutableIndexOptions mopts = MutableOptions(base.dim());

  std::unique_ptr<MutableShardedIndex> index;
  std::string dir;
  std::vector<double> setups;
  for (int r = 0; r < options.SetupRepeats(); ++r) {
    index.reset();
    dir = FreshDir(options.work_dir, "mutable");
    const uint64_t t0 = NowNs();
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        OpenMutable(dir, mopts, tracer);
    if (!opened.ok()) {
      report.Violation("Open: " + opened.status().ToString());
      return;
    }
    index = *std::move(opened);
    // Preload in two timed halves: their ratio shows whether an add's cost
    // grows with the shard it lands in.
    const uint64_t t1 = NowNs();
    uint64_t half_ns = 0;
    for (uint32_t row = 0; row < base.size(); ++row) {
      if (row == base.size() / 2) half_ns = NowNs() - t1;
      ScopedSpan span(tracer, "Add", "mutation", row + 1);
      if (!index->Add(base.Row(row)).ok()) {
        report.Violation("preload Add failed");
        return;
      }
    }
    const uint64_t preload_ns = NowNs() - t1;
    Status committed;
    {
      ScopedSpan span(tracer, "Commit", "mutation");
      committed = index->Commit();
    }
    if (!committed.ok()) report.Violation("Commit: " + committed.ToString());
    setups.push_back(SecondsSince(t0));
    report.Set("mutation.preload_s", preload_ns * 1e-9);
    report.Set("mutation.add_growth",
               static_cast<double>(preload_ns - half_ns) / half_ns);
  }
  report.Set("setup_s", Median(setups));

  ServingConfig config;
  config.num_threads = 1;
  config.admission.capacity = kCapacity;
  auto serving = std::make_unique<ServingEngine>(*index, config);

  // Global ids: the preload owns 0..base.size()-1 in row order; writes
  // assign the rest in the writer's order. removed_at[id] is the time the
  // id's remove was acknowledged.
  const uint32_t max_ids = base.size() + inserts.size();
  std::vector<int64_t> insert_row_of(max_ids, -1);
  std::vector<std::atomic<uint64_t>> removed_at(max_ids);
  for (auto& t : removed_at) t.store(std::numeric_limits<uint64_t>::max());
  std::deque<uint32_t> churn;
  uint32_t next_insert = 0;
  Rng query_order(options.seed * 0xd1342543de82ef95ULL + 0x4ead);
  std::vector<uint32_t> read_queries(
      static_cast<size_t>(kReadRate * (warmup + options.seconds + 1.0)));
  for (uint32_t& q : read_queries) {
    q = static_cast<uint32_t>(query_order.NextBounded(queries.size()));
  }

  const uint64_t start = NowNs() + 1'000'000;
  const Schedule read_schedule(kReadRate, start, warmup, options.seconds);
  const Schedule write_schedule(kWriteRate, start, warmup, options.seconds);
  std::vector<Samples> reader_samples(kReaders, Samples(read_schedule));
  std::vector<uint64_t> removed_seen(kReaders, 0);
  const auto reader = [&](uint32_t r) {
    Samples& mine = reader_samples[r];
    RequestOptions request;
    request.params.k = kK;
    request.params.pool_size = 80;
    for (uint64_t i = r; read_schedule.Due(i) < read_schedule.end_ns;
         i += kReaders) {
      const uint64_t due = read_schedule.Due(i);
      uint64_t lag = std::numeric_limits<uint64_t>::max();
      const uint64_t send = WaitUntil(due, &lag);
      request.deadline_us = serving->clock().NowMicros() + kDeadlineUs;
      const bool traced = tracer.Traces(i);
      ServeOutcome out;
      {
        ScopedSpan span(tracer, "Serve", "serving", i + 1, traced);
        out = serving->Serve(
            queries.Row(read_queries[i % read_queries.size()]), request);
      }
      const uint64_t done = NowNs();
      ++mine.sent;
      if (out.status.ok()) {
        // An add is searchable a moment before next_id() counts it, so
        // the range is every id the writer can assign.
        if (!ValidIds(out.ids, kK, max_ids)) ++mine.bad_ids;
        for (uint32_t id : out.ids) {
          if (id < max_ids && removed_at[id].load() < send) {
            ++removed_seen[r];
          }
        }
      }
      if (due < read_schedule.measure_ns) continue;
      ++mine.measured;
      mine.last_done_ns = done;
      if (lag != std::numeric_limits<uint64_t>::max()) {
        mine.lag_ns.push_back(lag);
      }
      if (!out.status.ok()) {
        ++mine.failed;
        continue;
      }
      (traced ? mine.traced_latency : mine.latency)
          .push_back({due, done - due});
      mine.service_ns.push_back(out.latency_us * 1000);
    }
  };
  // One writer: adds held-out rows and, once kChurnDepth churn adds exist,
  // alternates with removing the oldest of them. Commits every
  // kCommitEvery writes; one background compaction at the midpoint.
  Samples writes(write_schedule);  // due -> applied
  std::vector<Timed> add_latency;  // the adds among them
  std::vector<uint64_t> add_ns;    // MutationOutcome::latency_us, as ns
  std::vector<uint64_t> remove_ns;
  std::vector<uint64_t> commit_ns;
  const auto writer = [&] {
    const uint64_t midpoint =
        writes.measure_ns + (writes.end_ns - writes.measure_ns) / 2;
    bool compacted = false;
    for (uint64_t i = 0; write_schedule.Due(i) < write_schedule.end_ns; ++i) {
      const uint64_t due = write_schedule.Due(i);
      WaitUntil(due, nullptr);
      MutationRequest request;
      const bool remove = churn.size() >= kChurnDepth && i % 2 == 1;
      if (remove) {
        request.op = MutationOp::kRemove;
        request.id = churn.front();
      } else {
        request.op = MutationOp::kAdd;
        request.vector = inserts.Row(next_insert);
      }
      request.deadline_us = serving->clock().NowMicros() + kDeadlineUs;
      MutationOutcome out;
      {
        ScopedSpan span(tracer, "ServeMutation", "mutation", i + 1);
        out = serving->ServeMutation(request);
      }
      const uint64_t done = NowNs();
      ++writes.sent;
      const bool measured = due >= writes.measure_ns;
      if (measured) {
        ++writes.measured;
        writes.last_done_ns = done;
      }
      if (!out.status.ok()) {
        if (measured) ++writes.failed;
        continue;
      }
      if (remove) {
        removed_at[request.id].store(done);
        churn.pop_front();
      } else {
        if (out.id >= max_ids) {
          report.Violation("add assigned id beyond the held-out range");
          return;
        }
        insert_row_of[out.id] = next_insert++;
        churn.push_back(out.id);
      }
      if (measured) {
        writes.latency.push_back({due, done - due});
        if (!remove) add_latency.push_back({due, done - due});
        (remove ? remove_ns : add_ns).push_back(out.latency_us * 1000);
      }
      if ((i + 1) % kCommitEvery == 0) {
        const uint64_t c0 = NowNs();
        Status committed;
        {
          ScopedSpan span(tracer, "Commit", "mutation");
          committed = index->Commit();
        }
        commit_ns.push_back(NowNs() - c0);
        if (!committed.ok()) {
          report.Violation("Commit: " + committed.ToString());
        }
      }
      if (!compacted && due >= midpoint) {
        compacted = true;
        index->CompactAllAsync();
      }
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t r = 0; r < kReaders; ++r) threads.emplace_back(reader, r);
  threads.emplace_back(writer);
  for (std::thread& t : threads) t.join();
  index->WaitForMaintenance();
  Samples reads(read_schedule);
  uint64_t removed_seen_total = 0;
  for (uint32_t r = 0; r < kReaders; ++r) {
    reads.Merge(reader_samples[r]);
    removed_seen_total += removed_seen[r];
  }

  report.attempted = reads.measured + writes.measured;
  report.failed = reads.failed + writes.failed;
  Samples all = reads;
  all.Merge(writes);
  report.Set("qps", all.Throughput());
  // An add clones its shard and a remove does too, a little faster: with
  // the two interleaved 1:1 the p50 of all writes sat on the boundary
  // between them and moved 10% between runs. The gated p50 is the adds'.
  const auto add_us = [&](double p) {
    return SlicedPercentileUs(add_latency, writes.measure_ns, writes.end_ns, p);
  };
  report.Set("latency_p50_us", add_us(0.50));
  report.Set("bench.latency_p90_us", add_us(0.90));
  const std::vector<uint64_t> add_from_due_ns = Durations(add_latency);
  report.Set("bench.latency_p99_us", PercentileUs(add_from_due_ns, 0.99));
  report.Set("bench.latency_p999_us", PercentileUs(add_from_due_ns, 0.999));
  const std::vector<uint64_t> write_ns = Durations(writes.latency);
  report.Set("bench.gen_lag_us_p99", PercentileUs(reads.lag_ns, 0.99));
  report.Set("mutation.read_p50_us", reads.LatencyUs(0.50));
  report.Set("mutation.read_p90_us", reads.LatencyUs(0.90));
  report.Set("mutation.write_p50_us", writes.LatencyUs(0.50));
  report.Set("mutation.write_p99_us", PercentileUs(write_ns, 0.99));
  report.Set("mutation.add_us_p50", PercentileUs(add_ns, 0.50));
  report.Set("mutation.add_us_p99", PercentileUs(add_ns, 0.99));
  report.Set("mutation.remove_us_p50", PercentileUs(remove_ns, 0.50));
  report.Set("mutation.commit_us_p50", PercentileUs(commit_ns, 0.50));
  report.Set("mutation.commit_us_max", PercentileUs(commit_ns, 1.0));
  if (options.trace) {
    report.Set("bench.trace_overhead", reads.TraceOverhead());
    report.Set("serving.service_us_p50", PercentileUs(reads.service_ns, 0.5));
    report.Set("serving.service_us_p99", PercentileUs(reads.service_ns, 0.99));
  }
  if (removed_seen_total > 0) {
    report.Violation(std::to_string(removed_seen_total) +
                     " results held an id removed before the query was sent");
  }
  if (reads.bad_ids > 0) {
    report.Violation(std::to_string(reads.bad_ids) +
                     " served results without k distinct in-range ids");
  }
  CheckServingInvariant(*serving, reads.sent, report);
  const MutationReport mutations = serving->mutation_report();
  if (mutations.submitted != writes.sent ||
      mutations.submitted != mutations.applied + mutations.rejected_overload +
                                 mutations.deadline_exceeded +
                                 mutations.failed) {
    report.Violation("mutation invariant: sent " + std::to_string(writes.sent) +
                     ", submitted " + std::to_string(mutations.submitted));
  }
  SetServingCounters(*serving, reads.truncated, report);
  report.Set("mutation.applied", static_cast<double>(mutations.applied));
  report.Set("mutation.wal_records",
             static_cast<double>(
                 serving->metrics().CounterValue("mutation.wal_records")));
  report.Set("mutation.compactions",
             static_cast<double>(
                 serving->metrics().CounterValue("mutation.compactions")));
  const Status committed = index->Commit();
  if (!committed.ok()) {
    report.Violation("final Commit: " + committed.ToString());
  }

  // Quiescent pass against exact truth over the final live set.
  std::vector<uint32_t> live_ids;
  for (uint32_t id = 0; id < index->next_id(); ++id) {
    if (removed_at[id].load() == std::numeric_limits<uint64_t>::max()) {
      live_ids.push_back(id);
    }
  }
  if (live_ids.size() != index->live_size()) {
    report.Violation("live set: bench counts " +
                     std::to_string(live_ids.size()) + ", index reports " +
                     std::to_string(index->live_size()));
  }
  Dataset live = Dataset::Zeros(static_cast<uint32_t>(live_ids.size()),
                                base.dim());
  for (uint32_t l = 0; l < live_ids.size(); ++l) {
    const uint32_t id = live_ids[l];
    const float* row = id < base.size() ? base.Row(id)
                                        : inserts.Row(insert_row_of[id]);
    std::copy(row, row + base.dim(), live.MutableRow(l));
  }
  GroundTruth truth = ComputeGroundTruth(live, queries, kK, kThreads);
  for (auto& ids : truth) {
    for (uint32_t& id : ids) id = live_ids[id];
  }
  SearchParams params;
  params.k = kK;
  params.pool_size = 80;
  const auto quiescent = [&](const MutableShardedIndex& target,
                             const char* name) {
    std::vector<std::vector<uint32_t>> results(queries.size());
    for (uint32_t q = 0; q < queries.size(); ++q) {
      ScopedSpan span(tracer, name, "mutation", q + 1);
      results[q] = target.Search(queries.Row(q), params);
    }
    return results;
  };
  const std::vector<std::vector<uint32_t>> before = quiescent(*index,
                                                              "Search");
  const double recall = MeanRecall(before, truth);
  report.Set("recall_at_10", recall);
  if (recall < 0.97) {
    report.Violation("recall " + std::to_string(recall) + " below 0.97");
  }
  const uint64_t generation = index->generation();
  const uint32_t next_id = index->next_id();
  const uint32_t live_size = index->live_size();

  // Recovery: the reopened index must be the committed one.
  serving.reset();
  index.reset();
  const uint64_t t0 = NowNs();
  StatusOr<std::unique_ptr<MutableShardedIndex>> reopened =
      OpenMutable(dir, mopts, tracer);
  report.Set("mutation.recover_s", SecondsSince(t0));
  if (!reopened.ok()) {
    report.Violation("reopen: " + reopened.status().ToString());
    return;
  }
  MutableShardedIndex& recovered = **reopened;
  if (recovered.generation() != generation ||
      recovered.next_id() != next_id || recovered.live_size() != live_size) {
    report.Violation("reopened index differs in generation/next_id/live_size");
  }
  if (quiescent(recovered, "SearchRecovered") != before) {
    report.Violation("reopened index returns different results");
  }
  if (!options.trace) return;

  const double query_us = PercentileUs(tracer.DurationsNs("Search"), 0.5);
  report.Set("search.query_us_p50", query_us);
  QueryStats totals;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    QueryStats stats;
    (void)recovered.Search(queries.Row(q), params, &stats);
    totals.distance_evals += stats.distance_evals;
    totals.hops += stats.hops;
  }
  const double n = queries.size();
  report.Set("search.ndc", totals.distance_evals / n);
  report.Set("search.hops", totals.hops / n);
  const double l2_ns = ProbeL2Ns(base.dim(), options.seed);
  report.Set("core.l2_ns", l2_ns);
  report.Set("core.sq8_ns", ProbeSq8Ns(base.dim(), options.seed));
  report.Set("core.kernel_share",
             totals.distance_evals / n * l2_ns / (query_us * 1000.0));
  const uint64_t c0 = NowNs();
  for (uint32_t sh = 0; sh < recovered.num_shards(); ++sh) {
    ScopedSpan span(tracer, "CompactShard", "mutation", sh + 1);
    const Status compacted = recovered.CompactShard(sh);
    if (!compacted.ok()) {
      report.Violation("CompactShard: " + compacted.ToString());
    }
  }
  report.Set("mutation.compact_s", SecondsSince(c0));
}

}  // namespace weavess::perfbench
