// Engine-level chaos suite (docs/SERVING.md): drives the serving layer
// through overload, corruption, backend failure, stalled workers, and clock
// skew using the fault-injection doubles of fault_injection.h and a
// deterministic VirtualClock. The three acceptance scenarios:
//
//   (a) a saturated engine rejects excess load with kUnavailable while the
//       in-flight queries still complete within their deadline;
//   (b) a corrupt graph load falls back to brute force with correct top-k
//       and degraded=true;
//   (c) the degradation ladder engages and releases across a load spike
//       with bit-for-bit reproducible shed/degrade decisions at any
//       thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algorithms/registry.h"
#include "core/clock.h"
#include "core/file_io.h"
#include "core/graph_io.h"
#include "core/status.h"
#include "fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "search/serving.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::ChaosConfig;
using ::weavess::testing::ChaosIndex;
using ::weavess::testing::FlipBit;
using ::weavess::testing::Gate;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(400, 8, 8, 3));
  return *kWorkload;
}

// One shared built index: the chaos doubles wrap it without rebuilding.
const AnnIndex& SharedIndex() {
  static const AnnIndex* const kIndex = [] {
    auto index = CreateAlgorithm("HNSW");
    index->Build(SharedWorkload().workload.base);
    return index.release();
  }();
  return *kIndex;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

bool HasPrefix(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// ------------------------------------------------------------ scenario (a)

TEST(ChaosTest, SaturatedEngineRejectsWhileInFlightComplete) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1'000'000);
  Gate gate;
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.stall = &gate;  // every in-flight query wedges until released
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &clock;
  config.admission.capacity = 2;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;
  request.deadline_us = clock.NowMicros() + 10'000;

  // Two requests occupy both slots and stall inside the backend.
  ServeOutcome first, second;
  std::thread t1([&] { first = serving.Serve(tw.workload.queries.Row(0), request); });
  std::thread t2([&] { second = serving.Serve(tw.workload.queries.Row(1), request); });
  gate.AwaitWaiters(2);

  // The engine is saturated: the third request is rejected fast, with the
  // overload contract, while the stalled queries still hold their slots.
  const ServeOutcome rejected =
      serving.Serve(tw.workload.queries.Row(2), request);
  EXPECT_TRUE(rejected.status.IsUnavailable()) << rejected.status.ToString();
  EXPECT_TRUE(HasPrefix(rejected.status.message(), "overloaded:"));
  EXPECT_GT(rejected.retry_after_us, 0u);
  EXPECT_TRUE(rejected.ids.empty());

  gate.Open();
  t1.join();
  t2.join();

  // The in-flight queries were never harmed by the rejection: both complete
  // with full results, inside the deadline (the virtual clock never moved,
  // so their measured latency is zero and completion time is well before
  // the deadline).
  for (const ServeOutcome* out : {&first, &second}) {
    ASSERT_TRUE(out->status.ok()) << out->status.ToString();
    EXPECT_EQ(out->ids.size(), 10u);
    EXPECT_LT(clock.NowMicros() + out->latency_us, request.deadline_us);
  }
  const AdmissionStats stats = serving.admission_stats();
  EXPECT_EQ(stats.peak_in_flight, 2u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.in_flight, 0u);
  const ServingReport report = serving.lifetime_report();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.shed_overload, 1u);
}

// ------------------------------------------------------------ scenario (b)

TEST(ChaosTest, HealthySavedGraphServesAtFullQuality) {
  const TestWorkload& tw = SharedWorkload();
  const std::string path = TempPath("chaos_healthy.wvs");
  ASSERT_TRUE(SaveGraph(SharedIndex().graph(), path, "HNSW").ok());

  ServingConfig config;
  ServingEngine::Opened opened =
      ServingEngine::FromSavedGraph(path, tw.workload.base, config);
  ASSERT_TRUE(opened.load_status.ok()) << opened.load_status.ToString();
  EXPECT_FALSE(opened.engine->fallback_mode());

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  double recall = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const ServeOutcome out =
        opened.engine->Serve(tw.workload.queries.Row(q), request);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.stats.degraded);
    recall += Recall(out.ids, tw.truth[q], 10);
  }
  EXPECT_GT(recall / tw.workload.queries.size(), 0.8);
}

TEST(ChaosTest, CorruptGraphFallsBackToBruteForce) {
  const TestWorkload& tw = SharedWorkload();
  const std::string good_path = TempPath("chaos_good.wvs");
  ASSERT_TRUE(SaveGraph(SharedIndex().graph(), good_path, "HNSW").ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(good_path, &bytes).ok());
  // One flipped bit in the middle of the file: a CRC must catch it.
  const std::string corrupt_path = TempPath("chaos_corrupt.wvs");
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(bytes, bytes.size() * 4), corrupt_path).ok());

  ServingConfig config;
  config.fallback_shard = 0;  // scan the whole (small) dataset
  ServingEngine::Opened opened =
      ServingEngine::FromSavedGraph(corrupt_path, tw.workload.base, config);
  // The load failed — but the engine came up anyway, degraded.
  EXPECT_FALSE(opened.load_status.ok());
  EXPECT_TRUE(opened.load_status.IsCorruption())
      << opened.load_status.ToString();
  ASSERT_TRUE(opened.engine->fallback_mode());

  RequestOptions request;
  request.params.k = 10;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    SCOPED_TRACE(q);
    const float* query = tw.workload.queries.Row(q);
    const ServeOutcome out = opened.engine->Serve(query, request);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_TRUE(out.stats.degraded);
    // Exact top-k: the fallback is a brute-force scan, so over the full
    // dataset its answers are the ground truth.
    EXPECT_EQ(out.ids, BruteForceTopK(tw.workload.base, query, 10));
    EXPECT_DOUBLE_EQ(Recall(out.ids, tw.truth[q], 10), 1.0);
  }
  const ServingReport report = opened.engine->lifetime_report();
  EXPECT_EQ(report.completed, tw.workload.queries.size());
  EXPECT_EQ(report.degraded, tw.workload.queries.size());
}

TEST(ChaosTest, MismatchedDatasetIsCorruptionFallback) {
  // A structurally valid graph over the wrong row count must not be served:
  // ids would silently point at the wrong vectors.
  const TestWorkload& tw = SharedWorkload();
  Graph tiny(6);
  for (uint32_t v = 0; v < 6; ++v) tiny.AddEdge(v, (v + 1) % 6);
  const std::string path = TempPath("chaos_mismatch.wvs");
  ASSERT_TRUE(SaveGraph(CsrGraph(tiny), path, "tiny").ok());

  ServingEngine::Opened opened =
      ServingEngine::FromSavedGraph(path, tw.workload.base, ServingConfig{});
  EXPECT_TRUE(opened.load_status.IsCorruption())
      << opened.load_status.ToString();
  EXPECT_NE(opened.load_status.message().find("mismatch"), std::string::npos);
  EXPECT_TRUE(opened.engine->fallback_mode());
}

// ---------------------------------------------- scenario (b), SQ8 codes --

TEST(ChaosTest, SavedGraphWithCleanCodesServesQuantizedTraversal) {
  const TestWorkload& tw = SharedWorkload();
  const std::string graph_path = TempPath("chaos_codes_graph.wvs");
  const std::string codes_path = TempPath("chaos_codes_clean.sqnt");
  ASSERT_TRUE(SaveGraph(SharedIndex().graph(), graph_path, "HNSW").ok());
  ASSERT_TRUE(SaveQuantized(
                  SQ8Codec::Train(tw.workload.base).Encode(tw.workload.base),
                  codes_path)
                  .ok());

  ServingEngine::Opened opened = ServingEngine::FromSavedGraphWithCodes(
      graph_path, codes_path, tw.workload.base, ServingConfig{});
  ASSERT_TRUE(opened.load_status.ok()) << opened.load_status.ToString();
  EXPECT_FALSE(opened.engine->fallback_mode());

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  double recall = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const ServeOutcome out =
        opened.engine->Serve(tw.workload.queries.Row(q), request);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    // The primary backend IS the quantized index: two-stage stats at tier 0,
    // not flagged degraded (this deployment's full quality is quantized).
    EXPECT_FALSE(out.stats.degraded);
    EXPECT_GT(out.stats.quantized_evals, 0u);
    EXPECT_GT(out.stats.rescore_evals, 0u);
    recall += Recall(out.ids, tw.truth[q], 10);
  }
  EXPECT_GT(recall / tw.workload.queries.size(), 0.8);
}

TEST(ChaosTest, CorruptCodesDegradeToFloatTraversalNeverFail) {
  // The quantization degradation contract (docs/QUANTIZATION.md): rotten
  // codes next to a healthy graph cost the memory win, not availability
  // and not quality — the shard serves float traversal at full quality.
  const TestWorkload& tw = SharedWorkload();
  const std::string graph_path = TempPath("chaos_codes_graph2.wvs");
  ASSERT_TRUE(SaveGraph(SharedIndex().graph(), graph_path, "HNSW").ok());
  const std::string clean = SerializeQuantized(
      SQ8Codec::Train(tw.workload.base).Encode(tw.workload.base));
  const std::string codes_path = TempPath("chaos_codes_corrupt.sqnt");
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(clean, clean.size() * 4), codes_path).ok());

  ServingEngine::Opened opened = ServingEngine::FromSavedGraphWithCodes(
      graph_path, codes_path, tw.workload.base, ServingConfig{});
  EXPECT_FALSE(opened.load_status.ok());
  EXPECT_TRUE(opened.load_status.IsCorruption())
      << opened.load_status.ToString();
  EXPECT_FALSE(opened.engine->fallback_mode());  // float graph, not brute

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const ServeOutcome out =
        opened.engine->Serve(tw.workload.queries.Row(q), request);
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_FALSE(out.stats.degraded);  // float traversal is full quality
    EXPECT_EQ(out.stats.quantized_evals, 0u);
    EXPECT_EQ(out.ids.size(), 10u);
  }
}

TEST(ChaosTest, CorruptGraphWithCleanCodesStillFallsBackToBruteForce) {
  // Codes cannot rescue a missing graph: there is nothing to traverse.
  const TestWorkload& tw = SharedWorkload();
  const std::string codes_path = TempPath("chaos_codes_clean2.sqnt");
  ASSERT_TRUE(SaveQuantized(
                  SQ8Codec::Train(tw.workload.base).Encode(tw.workload.base),
                  codes_path)
                  .ok());
  ServingEngine::Opened opened = ServingEngine::FromSavedGraphWithCodes(
      TempPath("no_such_graph.wvs"), codes_path, tw.workload.base,
      ServingConfig{});
  EXPECT_FALSE(opened.load_status.ok());
  ASSERT_TRUE(opened.engine->fallback_mode());
  RequestOptions request;
  request.params.k = 10;
  const float* query = tw.workload.queries.Row(0);
  const ServeOutcome out = opened.engine->Serve(query, request);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_TRUE(out.stats.degraded);
  EXPECT_EQ(out.ids, BruteForceTopK(tw.workload.base, query, 10));
}

TEST(ChaosTest, MismatchedCodesAreRejectedLikeCorruption) {
  // Structurally valid codes over the wrong row count must not be served:
  // quantized distances would score the wrong vectors.
  const TestWorkload& tw = SharedWorkload();
  const std::string graph_path = TempPath("chaos_codes_graph3.wvs");
  ASSERT_TRUE(SaveGraph(SharedIndex().graph(), graph_path, "HNSW").ok());
  const auto tiny = MakeTestWorkload(50, 8, 2, 2);
  const std::string codes_path = TempPath("chaos_codes_tiny.sqnt");
  ASSERT_TRUE(
      SaveQuantized(SQ8Codec::Train(tiny.workload.base).Encode(
                        tiny.workload.base),
                    codes_path)
          .ok());
  ServingEngine::Opened opened = ServingEngine::FromSavedGraphWithCodes(
      graph_path, codes_path, tw.workload.base, ServingConfig{});
  EXPECT_TRUE(opened.load_status.IsCorruption())
      << opened.load_status.ToString();
  EXPECT_NE(opened.load_status.message().find("mismatch"), std::string::npos);
  EXPECT_FALSE(opened.engine->fallback_mode());  // graph still serves
}

// ------------------------------------------------------------ scenario (c)

// Everything observable about one serve decision, for trace comparison.
using OutcomeKey =
    std::tuple<int, std::string, uint32_t, bool, std::vector<uint32_t>>;

OutcomeKey KeyOf(const ServeOutcome& out) {
  return {static_cast<int>(out.status.code()), out.status.message(), out.tier,
          out.stats.degraded, out.ids};
}

TEST(ChaosTest, LadderSpikeTraceIsReproducibleAtAnyThreadCount) {
  const TestWorkload& tw = SharedWorkload();
  // A load spike: two saturating bursts, then calm traffic. Capacity 8 with
  // enter_depth 6 means the tail of each big burst counts as pressure.
  const std::vector<uint32_t> kBurstSizes = {12, 12, 2, 2, 2};

  const auto run_schedule = [&](uint32_t num_threads) {
    VirtualClock clock(0);
    ServingConfig config;
    config.clock = &clock;
    config.num_threads = num_threads;
    config.admission.capacity = 8;
    SearchParams tier1;
    tier1.pool_size = 32;
    SearchParams tier2;
    tier2.pool_size = 16;
    config.degradation.tiers = {tier1, tier2};
    config.degradation.enter_depth = 6;
    config.degradation.exit_depth = 2;
    config.degradation.step_down_after = 2;
    config.degradation.step_up_after = 3;
    ServingEngine serving(SharedIndex(), config);

    RequestOptions request;
    request.params.k = 10;
    request.params.pool_size = 100;

    std::vector<OutcomeKey> trace;
    uint32_t max_tier = 0;
    for (uint32_t burst : kBurstSizes) {
      std::vector<const float*> queries;
      queries.reserve(burst);
      for (uint32_t i = 0; i < burst; ++i) {
        queries.push_back(
            tw.workload.queries.Row(i % tw.workload.queries.size()));
      }
      const ServeBatchResult result = serving.ServeBatch(queries, request);
      for (const ServeOutcome& out : result.outcomes) {
        trace.push_back(KeyOf(out));
      }
      max_tier = std::max(max_tier, result.report.max_tier);
    }
    EXPECT_GT(max_tier, 0u) << "the spike never engaged the ladder";
    EXPECT_EQ(serving.current_tier(), 0u)
        << "the ladder never released after the spike";
    EXPECT_EQ(serving.lifetime_report().max_tier, max_tier);
    return trace;
  };

  const std::vector<OutcomeKey> single = run_schedule(1);
  // The spike must actually shed and degrade, not just complete.
  uint32_t sheds = 0, degraded = 0;
  for (const OutcomeKey& key : single) {
    if (std::get<0>(key) != 0) ++sheds;
    if (std::get<3>(key)) ++degraded;
  }
  EXPECT_GT(sheds, 0u);
  EXPECT_GT(degraded, 0u);

  // Bit-for-bit identical decision traces — status code and message, tier,
  // degraded flag, and result ids — at every thread count.
  EXPECT_EQ(run_schedule(2), single);
  EXPECT_EQ(run_schedule(8), single);
}

// ------------------------------------------------ metrics (observability)

TEST(ChaosTest, MetricsSnapshotIsIdenticalAtAnyThreadCount) {
  // The acceptance bar of docs/OBSERVABILITY.md: under a VirtualClock the
  // deterministic core of the snapshot — everything outside `timing` — is
  // the same JSON string whether the burst ran on 1, 2, or 8 threads.
  const TestWorkload& tw = SharedWorkload();
  const std::vector<uint32_t> kBurstSizes = {12, 12, 2, 2, 2};

  const auto run_schedule = [&](uint32_t num_threads) {
    VirtualClock clock(0);
    ServingConfig config;
    config.clock = &clock;
    config.num_threads = num_threads;
    config.admission.capacity = 8;
    SearchParams tier1;
    tier1.pool_size = 32;
    config.degradation.tiers = {tier1};
    config.degradation.enter_depth = 6;
    config.degradation.exit_depth = 2;
    config.degradation.step_down_after = 2;
    config.degradation.step_up_after = 3;
    ServingEngine serving(SharedIndex(), config);

    RequestOptions request;
    request.params.k = 10;
    request.params.pool_size = 100;
    for (uint32_t burst : kBurstSizes) {
      std::vector<const float*> queries;
      queries.reserve(burst);
      for (uint32_t i = 0; i < burst; ++i) {
        queries.push_back(
            tw.workload.queries.Row(i % tw.workload.queries.size()));
      }
      serving.ServeBatch(queries, request);
    }
    return serving.SnapshotMetrics(/*include_timing=*/false);
  };

  const std::string single = run_schedule(1);
  // The snapshot is populated, not a trivially equal empty skeleton.
  EXPECT_NE(single.find("\"serving.submitted\":30"), std::string::npos)
      << single;
  EXPECT_NE(single.find("\"serving.degraded.tier1\""), std::string::npos)
      << single;
  EXPECT_NE(single.find("\"serving.latency_us\""), std::string::npos)
      << single;
  EXPECT_NE(single.find("\"timing\":{}"), std::string::npos) << single;

  EXPECT_EQ(run_schedule(2), single);
  EXPECT_EQ(run_schedule(8), single);
}

TEST(ChaosTest, EveryQueryLandsInExactlyOneTerminalCounter) {
  // Drives all four terminal outcomes through one engine — completed,
  // rejected at admission, shed on deadline, backend failure — and checks
  // the accounting invariant: every submitted query is counted exactly
  // once.  serving.submitted == completed + rejected_overload +
  // deadline_exceeded + failed.
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1000);
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.fail_after = 4;  // burst 1 completes 4 queries, then the backend dies
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &clock;
  config.num_threads = 1;
  config.admission.capacity = 4;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;

  const auto burst_of = [&](uint32_t count) {
    std::vector<const float*> queries;
    queries.reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      queries.push_back(
          tw.workload.queries.Row(i % tw.workload.queries.size()));
    }
    return queries;
  };

  // Burst 1: 10 against capacity 4 -> 4 complete, 6 rejected at admission.
  TraceSink overload_sink;
  request.trace = &overload_sink;
  serving.ServeBatch(burst_of(10), request);
  EXPECT_EQ(overload_sink.CountOf(TraceEventKind::kShedOverload), 6u);

  // Burst 2: 3 with an already-expired deadline -> shed before admission.
  TraceSink deadline_sink;
  request.trace = &deadline_sink;
  request.deadline_us = 500;  // the clock reads 1000
  serving.ServeBatch(burst_of(3), request);
  EXPECT_EQ(deadline_sink.CountOf(TraceEventKind::kShedDeadline), 3u);

  // Burst 3: 3 more; the backend has served its 4 healthy queries -> fail.
  TraceSink failure_sink;
  request.trace = &failure_sink;
  request.deadline_us = 0;
  serving.ServeBatch(burst_of(3), request);
  EXPECT_EQ(failure_sink.CountOf(TraceEventKind::kBackendFailure), 3u);

  const MetricsRegistry& metrics = serving.metrics();
  const uint64_t submitted = metrics.CounterValue("serving.submitted");
  const uint64_t completed = metrics.CounterValue("serving.completed");
  const uint64_t overload = metrics.CounterValue("serving.rejected_overload");
  const uint64_t deadline = metrics.CounterValue("serving.deadline_exceeded");
  const uint64_t failed = metrics.CounterValue("serving.failed");
  EXPECT_EQ(submitted, 16u);
  EXPECT_EQ(completed, 4u);
  EXPECT_EQ(overload, 6u);
  EXPECT_EQ(deadline, 3u);
  EXPECT_EQ(failed, 3u);
  // The invariant itself: no query double-counted, none lost.
  EXPECT_EQ(submitted, completed + overload + deadline + failed);

  // The counters agree with the engine's own lifetime report and with the
  // latency histogram (one sample per completed query, none for sheds).
  const ServingReport report = serving.lifetime_report();
  EXPECT_EQ(report.submitted, submitted);
  EXPECT_EQ(report.completed, completed);
  EXPECT_EQ(report.shed_overload, overload);
  EXPECT_EQ(report.shed_deadline, deadline);
  EXPECT_EQ(report.failed, failed);
  const Histogram* latency = metrics.FindHistogram("serving.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), completed);
  EXPECT_EQ(metrics.CounterValue("serving.admitted"), completed + failed);
}

// ------------------------------------------- deadline, failure, clock skew

TEST(ChaosTest, DeadlineShedAtDequeueBeforeExecution) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1000);
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.query_cost_us = 60;
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &clock;
  config.num_threads = 1;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;
  request.deadline_us = 1000 + 100;

  // All three admitted at t=1000 (admission precedes execution); the first
  // two complete at t=1060 and t=1120; the third finds its deadline already
  // passed at dequeue and is shed before any distance evaluation.
  std::vector<const float*> queries = {tw.workload.queries.Row(0),
                                       tw.workload.queries.Row(1),
                                       tw.workload.queries.Row(2)};
  const ServeBatchResult result = serving.ServeBatch(queries, request);
  ASSERT_TRUE(result.outcomes[0].status.ok())
      << result.outcomes[0].status.ToString();
  ASSERT_TRUE(result.outcomes[1].status.ok())
      << result.outcomes[1].status.ToString();
  const ServeOutcome& shed = result.outcomes[2];
  EXPECT_TRUE(shed.status.IsDeadlineExceeded()) << shed.status.ToString();
  EXPECT_NE(shed.status.message().find("dequeue"), std::string::npos);
  EXPECT_TRUE(shed.ids.empty());
  EXPECT_EQ(result.report.completed, 2u);
  EXPECT_EQ(result.report.shed_deadline, 1u);
  // The chaos backend never saw the shed query.
  EXPECT_EQ(index.queries_seen(), 2u);

  // A new request against the same expired deadline is shed even earlier:
  // at admission, before taking a slot.
  const ServeOutcome late = serving.Serve(tw.workload.queries.Row(3), request);
  EXPECT_TRUE(late.status.IsDeadlineExceeded()) << late.status.ToString();
  EXPECT_NE(late.status.message().find("before admission"), std::string::npos);
  EXPECT_EQ(serving.admission_stats().admitted, 3u)
      << "an admission-expired request must not consume a slot";
}

TEST(ChaosTest, DeadlineExpiringExactlyAtDequeueIsShed) {
  // Boundary semantics: the dequeue check is `now >= deadline`, so a query
  // whose deadline lands exactly on its dequeue instant is shed — a
  // deadline is a time by which the answer must exist, not a time at which
  // starting is still acceptable.
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1000);
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.query_cost_us = 50;
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &clock;
  config.num_threads = 1;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;
  request.deadline_us = 1000 + 100;

  // q0 dequeues at 1000, completes at 1050; q1 dequeues at 1050, completes
  // at 1100; q2 dequeues at exactly 1100 == deadline.
  const ServeBatchResult result = serving.ServeBatch(
      std::vector<const float*>{tw.workload.queries.Row(0),
                                tw.workload.queries.Row(1),
                                tw.workload.queries.Row(2)},
      request);
  ASSERT_TRUE(result.outcomes[0].status.ok());
  ASSERT_TRUE(result.outcomes[1].status.ok());
  EXPECT_EQ(clock.NowMicros(), request.deadline_us);
  const ServeOutcome& boundary = result.outcomes[2];
  EXPECT_TRUE(boundary.status.IsDeadlineExceeded())
      << boundary.status.ToString();
  EXPECT_NE(boundary.status.message().find("dequeue"), std::string::npos);
  EXPECT_EQ(index.queries_seen(), 2u)
      << "the boundary query must not reach the backend";
  EXPECT_EQ(result.report.shed_deadline, 1u);
}

TEST(ChaosTest, DrainModeRacesInFlightCompletionsCleanly) {
  // Lame-ducking a live engine: capacity drops to 0 while queries are
  // wedged in the backend. New work is rejected with the depth-scaled
  // retry hint; the in-flight queries complete unharmed and release past
  // the lowered cap; the drained engine hints exactly the base interval.
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1'000'000);
  Gate gate;
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.stall = &gate;
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &clock;
  config.admission.capacity = 2;
  config.admission.retry_after_us = 100;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;

  ServeOutcome first, second;
  std::thread t1(
      [&] { first = serving.Serve(tw.workload.queries.Row(0), request); });
  std::thread t2(
      [&] { second = serving.Serve(tw.workload.queries.Row(1), request); });
  gate.AwaitWaiters(2);

  serving.SetCapacity(0);  // drain starts while both queries are in flight
  const ServeOutcome during =
      serving.Serve(tw.workload.queries.Row(2), request);
  EXPECT_TRUE(during.status.IsUnavailable()) << during.status.ToString();
  EXPECT_EQ(during.retry_after_us, 300u)  // 100 * (2 in flight + 1)
      << during.status.ToString();

  gate.Open();
  t1.join();
  t2.join();
  // The completions raced the capacity change and still released cleanly.
  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();
  EXPECT_EQ(serving.admission_stats().in_flight, 0u);

  // Fully drained: still rejecting, with the base hint.
  const ServeOutcome after =
      serving.Serve(tw.workload.queries.Row(3), request);
  EXPECT_TRUE(after.status.IsUnavailable());
  EXPECT_EQ(after.retry_after_us, 100u);

  // Undrain: the engine serves again.
  serving.SetCapacity(2);
  EXPECT_TRUE(serving.Serve(tw.workload.queries.Row(4), request).status.ok());
  const ServingReport report = serving.lifetime_report();
  EXPECT_EQ(report.completed, 3u);
  EXPECT_EQ(report.shed_overload, 2u);
}

TEST(ChaosTest, FailingBackendIsUnavailableAndIsolated) {
  const TestWorkload& tw = SharedWorkload();
  ChaosConfig chaos;
  chaos.fail_after = 2;  // two good queries, then the backend wedges
  ChaosIndex index(SharedIndex(), chaos);
  ServingEngine serving(index, ServingConfig{});

  RequestOptions request;
  request.params.k = 10;
  for (uint32_t q = 0; q < 4; ++q) {
    SCOPED_TRACE(q);
    const ServeOutcome out =
        serving.Serve(tw.workload.queries.Row(q), request);
    if (q < 2) {
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      EXPECT_EQ(out.ids.size(), 10u);
    } else {
      EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
      EXPECT_TRUE(HasPrefix(out.status.message(), "backend failure:"));
      EXPECT_TRUE(out.ids.empty());
    }
  }
  const ServingReport report = serving.lifetime_report();
  EXPECT_EQ(report.completed, 2u);
  EXPECT_EQ(report.failed, 2u);
  // The exception path released its admission slot: the engine is not
  // leaking capacity on failures.
  EXPECT_EQ(serving.admission_stats().in_flight, 0u);
}

TEST(ChaosTest, SkewedClockDrivesDeadlinesConsistently) {
  // A clock running at 2x with a fixed offset: deadlines computed from the
  // serving clock must shed exactly when *that* clock says so, regardless
  // of the underlying time base.
  const TestWorkload& tw = SharedWorkload();
  VirtualClock base(100);
  SkewedClock skewed(base, /*rate=*/2.0, /*offset_us=*/500);
  ASSERT_EQ(skewed.NowMicros(), 700u);

  ChaosConfig chaos;
  chaos.clock = &base;       // chaos charges the base clock...
  chaos.query_cost_us = 30;  // ...which the skewed clock sees as 60us
  ChaosIndex index(SharedIndex(), chaos);

  ServingConfig config;
  config.clock = &skewed;
  config.num_threads = 1;
  ServingEngine serving(index, config);

  RequestOptions request;
  request.params.k = 10;
  request.deadline_us = serving.clock().NowMicros() + 100;  // 800 skewed

  // Two queries fit (skewed time 700 -> 760 -> 820); the third is past the
  // deadline on the skewed clock even though only 60us of base time passed.
  EXPECT_TRUE(serving.Serve(tw.workload.queries.Row(0), request).status.ok());
  EXPECT_TRUE(serving.Serve(tw.workload.queries.Row(1), request).status.ok());
  const ServeOutcome shed = serving.Serve(tw.workload.queries.Row(2), request);
  EXPECT_TRUE(shed.status.IsDeadlineExceeded()) << shed.status.ToString();
  EXPECT_EQ(serving.lifetime_report().shed_deadline, 1u);
}

}  // namespace
}  // namespace weavess
