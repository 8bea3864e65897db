// batch_float and batch_sq8: offline batch search. A closed loop of
// SearchEngine::SearchBatch calls, each over kBatchQueries held-out queries
// drawn from the seeded query stream, keeps 4 engine threads busy. A call's
// wall time is the latency a batch client sees.
#include <memory>
#include <string>
#include <vector>

#include "algorithms/nsg.h"
#include "algorithms/registry.h"
#include "core/rng.h"
#include "graph/nn_descent.h"
#include "obs/trace.h"
#include "quant/quantized_index.h"
#include "search/engine.h"
#include "workloads.h"

namespace weavess::perfbench {
namespace {

// The engine's idle workers park between calls, and an idle vCPU halts; on a
// busy host each wake-up can cost milliseconds. 1000 queries per call keep
// those wake-ups a small share of a call.
constexpr uint32_t kBatchQueries = 1000;

struct BatchSpec {
  const char* standin;
  uint32_t base_rows;
  uint32_t query_rows;
  const char* algorithm;
  AlgorithmOptions build;
  SearchParams search;
  double recall_floor;
  /// Time NSG's NN-Descent stage standalone (graph.* metrics).
  bool nn_descent;
  /// Compare against a float HNSW built on the same data (quant.* metrics).
  bool float_comparator;
};

struct LoopStats {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t queries = 0;
  std::vector<Timed> calls;         // untraced calls
  std::vector<Timed> traced_calls;  // traced run only
  double recall_sum = 0.0;

  double qps() const {
    return SlicedRate(calls, start_ns, end_ns, kBatchQueries);
  }
  double traced_qps() const {
    return SlicedRate(traced_calls, start_ns, end_ns, kBatchQueries);
  }
  double latency_us(double p) const {
    return SlicedPercentileUs(calls, start_ns, end_ns, p);
  }
  double recall() const { return queries > 0 ? recall_sum / queries : 0.0; }
};

// Closed loop for `seconds`: every call searches the next kBatchQueries
// draws of `order`, and every result is checked.
LoopStats ClosedLoop(const SearchEngine& engine, const Dataset& queries,
                     const GroundTruth& truth, const SearchParams& params,
                     uint32_t base_size, double seconds, Rng& order,
                     Tracer& tracer, Report& report) {
  LoopStats stats;
  std::vector<uint32_t> picks(kBatchQueries);
  std::vector<const float*> rows(kBatchQueries);
  stats.start_ns = NowNs();
  stats.end_ns = stats.start_ns + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = stats.start_ns;
  uint64_t bad = 0;
  for (uint64_t call = 1; now < stats.end_ns; ++call) {
    for (uint32_t i = 0; i < kBatchQueries; ++i) {
      picks[i] = static_cast<uint32_t>(order.NextBounded(queries.size()));
      rows[i] = queries.Row(picks[i]);
    }
    const bool traced = tracer.Traces(call);
    const uint64_t t0 = NowNs();
    BatchResult result;
    {
      ScopedSpan span(tracer, "SearchBatch", "search", call, traced);
      result = engine.SearchBatch(rows, params);
    }
    now = NowNs();
    (traced ? stats.traced_calls : stats.calls).push_back({t0, now - t0});
    for (uint32_t i = 0; i < kBatchQueries; ++i) {
      if (!ValidIds(result.ids[i], kK, base_size)) ++bad;
      stats.recall_sum += Recall(result.ids[i], truth[picks[i]], kK);
    }
    stats.queries += kBatchQueries;
  }
  if (bad > 0) {
    report.Violation(std::to_string(bad) +
                     " batch results without k distinct in-range ids");
  }
  return stats;
}

std::unique_ptr<AnnIndex> BuildIndex(const std::string& algorithm,
                                     const AlgorithmOptions& build,
                                     const Dataset& base, Tracer& tracer,
                                     double* seconds) {
  const uint64_t t0 = NowNs();
  std::unique_ptr<AnnIndex> index = CreateAlgorithm(algorithm, build);
  {
    ScopedSpan span(tracer, "Build", "algorithms");
    index->Build(base);
  }
  *seconds = SecondsSince(t0);
  return index;
}

// Standalone NN-Descent with the stage's own NSG parameters and seed.
double TimeNnDescent(const Dataset& base, const AlgorithmOptions& build,
                     uint32_t threads, Tracer& tracer, uint64_t* evals) {
  NnDescentParams params = NsgConfig(build).nn_descent;
  params.seed = build.seed;
  params.num_threads = threads;
  DistanceCounter counter;
  const uint64_t t0 = NowNs();
  {
    ScopedSpan span(tracer, "NnDescent", "graph");
    NnDescent descent(base, params, &counter);
    descent.InitRandom();
    descent.Run();
    (void)descent.ExtractGraph(params.k);
  }
  *evals = counter.count;
  return SecondsSince(t0);
}

void RunBatch(const BatchSpec& spec, const RunOptions& options,
              Report& report, Tracer& tracer) {
  const Split data =
      MakeSplit(spec.standin, options.Rows(spec.base_rows),
                options.Rows(spec.query_rows, 100), 0, options.seed);
  const Dataset& base = data.base;
  const Dataset& queries = data.queries;
  const GroundTruth truth = ComputeGroundTruth(base, queries, kK, kThreads);

  std::unique_ptr<AnnIndex> index;
  std::vector<double> setups;
  for (int r = 0; r < options.SetupRepeats(); ++r) {
    index.reset();
    double seconds = 0.0;
    index = BuildIndex(spec.algorithm, spec.build, base, tracer, &seconds);
    setups.push_back(seconds);
  }
  report.Set("setup_s", Median(setups));
  report.Set("algorithms.build_s", setups.back());
  report.Set("algorithms.build_evals",
             static_cast<double>(index->build_stats().distance_evals));
  report.Set("algorithms.index_bytes",
             static_cast<double>(index->IndexMemoryBytes()));
  const auto* quantized = dynamic_cast<const QuantizedIndex*>(index.get());
  if (quantized != nullptr) {
    report.Set("quant.code_bytes",
               static_cast<double>(quantized->CodeMemoryBytes()));
  }

  const SearchEngine engine(*index, kThreads);
  Rng order(options.seed * 0x2545f4914f6cdd1dULL + 0xba7c4);
  tracer.set_enabled(false);
  (void)ClosedLoop(engine, queries, truth, spec.search, base.size(),
                   options.Warmup(), order, tracer, report);
  tracer.set_enabled(options.trace);
  const LoopStats phase =
      ClosedLoop(engine, queries, truth, spec.search, base.size(),
                 options.seconds, order, tracer, report);
  report.attempted = phase.queries;
  report.Set("qps", phase.qps());
  report.Set("latency_p50_us", phase.latency_us(0.50));
  report.Set("bench.latency_p90_us", phase.latency_us(0.90));
  const std::vector<uint64_t> call_ns = Durations(phase.calls);
  report.Set("bench.latency_p99_us", PercentileUs(call_ns, 0.99));
  report.Set("bench.latency_p999_us", PercentileUs(call_ns, 0.999));
  report.Set("recall_at_10", phase.recall());
  if (phase.recall() < spec.recall_floor) {
    report.Violation("recall " + std::to_string(phase.recall()) +
                     " below floor " + std::to_string(spec.recall_floor));
  }
  if (!options.trace) return;

  report.Set("bench.trace_overhead", phase.qps() / phase.traced_qps() - 1.0);

  // One query at a time on the calling thread: per-query cost and work.
  std::vector<std::vector<uint32_t>> single(queries.size());
  QueryStats totals;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    QueryStats stats;
    {
      ScopedSpan span(tracer, "SearchOne", "search", q + 1);
      single[q] = engine.SearchOne(queries.Row(q), spec.search, &stats);
    }
    totals.distance_evals += stats.distance_evals;
    totals.hops += stats.hops;
    totals.quantized_evals += stats.quantized_evals;
    totals.rescore_evals += stats.rescore_evals;
  }
  const double n = queries.size();
  const double query_ns = Percentile(tracer.DurationsNs("SearchOne"), 0.5);
  report.Set("search.query_us_p50", query_ns / 1000.0);
  report.Set("search.ndc", totals.distance_evals / n);
  report.Set("search.hops", totals.hops / n);
  report.Set("quant.quantized_evals", totals.quantized_evals / n);
  report.Set("quant.rescore_evals", totals.rescore_evals / n);
  report.Set("search.engine_scaling",
             phase.qps() / (kThreads * n / tracer.TotalSeconds("SearchOne")));

  TraceSink sink;
  const uint32_t seeded = std::min<uint32_t>(queries.size(), 200);
  uint64_t seeds = 0;
  for (uint32_t q = 0; q < seeded; ++q) {
    sink.Clear();
    (void)engine.SearchOne(queries.Row(q), spec.search, nullptr, &sink);
    seeds += sink.CountOf(TraceEventKind::kSeed);
  }
  report.Set("search.seeds", static_cast<double>(seeds) / seeded);

  // Results must not depend on the thread count.
  BatchResult batched;
  {
    ScopedSpan span(tracer, "SearchBatch", "search");
    batched = engine.SearchBatch(queries, spec.search);
  }
  if (batched.ids != single) {
    report.Violation("4-thread SearchBatch ids differ from 1-thread SearchOne");
  }

  const double l2_ns = ProbeL2Ns(base.dim(), options.seed);
  const double sq8_ns = ProbeSq8Ns(base.dim(), options.seed);
  report.Set("core.l2_ns", l2_ns);
  report.Set("core.sq8_ns", sq8_ns);
  const double kernel_ns =
      quantized != nullptr
          ? totals.quantized_evals / n * sq8_ns +
                totals.rescore_evals / n * l2_ns
          : totals.distance_evals / n * l2_ns;
  report.Set("core.kernel_share", kernel_ns / query_ns);

  AlgorithmOptions one_thread = spec.build;
  one_thread.build_threads = 1;
  double build_1t_s = 0.0;
  (void)BuildIndex(spec.algorithm, one_thread, base, tracer, &build_1t_s);
  report.Set("algorithms.build_1t_s", build_1t_s);
  report.Set("algorithms.build_speedup", build_1t_s / setups.back());

  if (spec.nn_descent) {
    uint64_t evals = 0;
    const double nd_s = TimeNnDescent(base, spec.build, kThreads, tracer,
                                      &evals);
    uint64_t evals_1t = 0;
    const double nd_1t_s = TimeNnDescent(base, spec.build, 1, tracer,
                                         &evals_1t);
    if (evals != evals_1t) {
      report.Violation("NN-Descent distance evals differ at 1 and 4 threads");
    }
    report.Set("graph.nn_descent_s", nd_s);
    report.Set("graph.nn_descent_1t_s", nd_1t_s);
    report.Set("graph.nn_descent_speedup", nd_1t_s / nd_s);
    report.Set("graph.nn_descent_evals", static_cast<double>(evals));
    report.Set("pipeline.after_init_s", setups.back() - nd_s);
  }

  if (spec.float_comparator) {
    double float_build_s = 0.0;
    const std::unique_ptr<AnnIndex> float_index =
        BuildIndex("HNSW", spec.build, base, tracer, &float_build_s);
    const SearchEngine float_engine(*float_index, kThreads);
    const LoopStats float_loop =
        ClosedLoop(float_engine, queries, truth, spec.search, base.size(),
                   options.seconds, order, tracer, report);
    report.Set("quant.float_qps_ratio", phase.qps() / float_loop.qps());
    report.Set("quant.float_recall_delta",
               phase.recall() - float_loop.recall());
  }
}

AlgorithmOptions BuildOptions() {
  AlgorithmOptions build;
  build.knng_degree = 25;
  build.max_degree = 25;
  build.build_pool = 80;
  build.nn_descent_iters = 8;
  build.build_threads = kThreads;
  return build;
}

}  // namespace

void RunBatchFloat(const RunOptions& options, Report& report,
                   Tracer& tracer) {
  BatchSpec spec{"GloVe", 8000, 5000, "NSG", BuildOptions(), {}, 0.90,
                 /*nn_descent=*/true, /*float_comparator=*/false};
  spec.search.k = kK;
  spec.search.pool_size = 100;
  RunBatch(spec, options, report, tracer);
}

void RunBatchSq8(const RunOptions& options, Report& report, Tracer& tracer) {
  BatchSpec spec{"Msong", 12000, 1000, "SQ8:HNSW", BuildOptions(), {}, 0.97,
                 /*nn_descent=*/false, /*float_comparator=*/true};
  spec.search.k = kK;
  spec.search.pool_size = 40;
  spec.search.rescore_factor = 4;
  RunBatch(spec, options, report, tracer);
}

}  // namespace weavess::perfbench
