// Serving-layer contract tests: admission control's bounded in-flight
// budget, the degradation ladder's hysteresis state machine, the
// brute-force fallback scan, and the Status rejection contract — code,
// message prefix, retry hint, truncated/degraded flags — held uniformly
// across every algorithm in the registry (docs/SERVING.md).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/clock.h"
#include "core/status.h"
#include "eval/evaluator.h"
#include "search/admission.h"
#include "search/degradation.h"
#include "search/serving.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(400, 8, 8, 3));
  return *kWorkload;
}

bool HasPrefix(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

// ---------------------------------------------------------------- admission

TEST(AdmissionTest, CapacityBoundsInFlight) {
  AdmissionConfig config;
  config.capacity = 2;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.TryAcquire().ok());
  ASSERT_TRUE(admission.TryAcquire().ok());
  const Status rejected = admission.TryAcquire();
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_TRUE(HasPrefix(rejected.message(), "overloaded:"))
      << rejected.message();
  // A released slot is immediately reusable.
  admission.Release();
  EXPECT_TRUE(admission.TryAcquire().ok());

  const AdmissionStats stats = admission.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.in_flight, 2u);
  EXPECT_EQ(stats.peak_in_flight, 2u);
}

TEST(AdmissionTest, DrainModeRejectsEverything) {
  AdmissionConfig config;
  config.capacity = 0;  // lame-duck: bleed the replica dry
  AdmissionController admission(config);
  for (int i = 0; i < 3; ++i) {
    const Status rejected = admission.TryAcquire();
    EXPECT_TRUE(rejected.IsUnavailable());
    EXPECT_TRUE(HasPrefix(rejected.message(), "overloaded:"));
  }
  EXPECT_EQ(admission.stats().admitted, 0u);
  EXPECT_EQ(admission.stats().rejected, 3u);
}

TEST(AdmissionTest, RejectionNamesRetryHint) {
  AdmissionConfig config;
  config.capacity = 0;
  config.retry_after_us = 250;
  AdmissionController admission(config);
  const Status rejected = admission.TryAcquire();
  EXPECT_NE(rejected.message().find("retry in 250us"), std::string::npos)
      << rejected.message();
}

TEST(AdmissionTest, RetryHintScalesWithInFlightDepth) {
  // The adaptive back-off contract (docs/SERVING.md): the hint is
  // retry_after_us * (in_flight + 1), so the deeper the congestion a
  // rejected client saw, the longer it waits before retrying — and drain
  // mode (capacity 0, nothing in flight) hints exactly the base.
  AdmissionConfig config;
  config.capacity = 2;
  config.retry_after_us = 100;
  AdmissionController admission(config);
  EXPECT_EQ(admission.retry_after_hint(), 100u);  // idle: base hint

  ASSERT_TRUE(admission.TryAcquire().ok());
  EXPECT_EQ(admission.retry_after_hint(), 200u);  // depth 1
  ASSERT_TRUE(admission.TryAcquire().ok());
  EXPECT_EQ(admission.retry_after_hint(), 300u);  // depth 2 (saturated)

  uint64_t hint = 0;
  const Status rejected = admission.TryAcquire(&hint);
  EXPECT_TRUE(rejected.IsUnavailable());
  EXPECT_EQ(hint, 300u);
  EXPECT_NE(rejected.message().find("retry in 300us"), std::string::npos)
      << rejected.message();

  // Releases shrink the hint back toward the base.
  admission.Release();
  EXPECT_EQ(admission.retry_after_hint(), 200u);
  admission.Release();
  EXPECT_EQ(admission.retry_after_hint(), 100u);
}

TEST(AdmissionTest, LiveCapacityChangeDrainsAndRestores) {
  AdmissionConfig config;
  config.capacity = 2;
  config.retry_after_us = 50;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.TryAcquire().ok());
  ASSERT_TRUE(admission.TryAcquire().ok());

  // Lowering capacity below in-flight is legal: the in-flight queries keep
  // their slots; only new admissions see the new limit.
  admission.set_capacity(0);
  EXPECT_EQ(admission.capacity(), 0u);
  uint64_t hint = 0;
  EXPECT_TRUE(admission.TryAcquire(&hint).IsUnavailable());
  EXPECT_EQ(hint, 150u);  // 50 * (2 in flight + 1)
  EXPECT_EQ(admission.stats().in_flight, 2u);

  // The racing in-flight completions release cleanly past the new cap.
  admission.Release();
  admission.Release();
  EXPECT_EQ(admission.stats().in_flight, 0u);
  // Fully drained: the hint is exactly the base again.
  EXPECT_EQ(admission.retry_after_hint(), 50u);
  EXPECT_TRUE(admission.TryAcquire().IsUnavailable());

  // Restoring capacity reopens admission.
  admission.set_capacity(1);
  EXPECT_TRUE(admission.TryAcquire().ok());
}

// --------------------------------------------------------------- the ladder

DegradationConfig TwoTierConfig() {
  DegradationConfig config;
  SearchParams tier1;
  tier1.pool_size = 32;
  SearchParams tier2;
  tier2.pool_size = 16;
  config.tiers = {tier1, tier2};
  config.enter_depth = 4;
  config.exit_depth = 1;
  config.step_down_after = 3;
  config.step_up_after = 2;
  return config;
}

TEST(DegradationTest, StepsDownAfterSustainedOverload) {
  DegradationLadder ladder(TwoTierConfig());
  EXPECT_EQ(ladder.OnSample(5), 0u);  // overload streak 1
  EXPECT_EQ(ladder.OnSample(5), 0u);  // streak 2
  EXPECT_EQ(ladder.OnSample(5), 1u);  // streak 3: step down
  EXPECT_EQ(ladder.OnSample(5), 1u);
  EXPECT_EQ(ladder.OnSample(5), 1u);
  EXPECT_EQ(ladder.OnSample(5), 2u);  // another 3: bottom tier
  // Saturates at the bottom tier, never past it.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ladder.OnSample(5), 2u);
}

TEST(DegradationTest, StepsUpAfterSustainedCalm) {
  DegradationLadder ladder(TwoTierConfig());
  for (int i = 0; i < 6; ++i) ladder.OnSample(5);
  ASSERT_EQ(ladder.tier(), 2u);
  EXPECT_EQ(ladder.OnSample(0), 2u);  // calm streak 1
  EXPECT_EQ(ladder.OnSample(0), 1u);  // streak 2: step up
  EXPECT_EQ(ladder.OnSample(0), 1u);
  EXPECT_EQ(ladder.OnSample(0), 0u);  // full quality again
}

TEST(DegradationTest, HysteresisBandHoldsTierAndResetsStreaks) {
  DegradationLadder ladder(TwoTierConfig());
  for (int i = 0; i < 3; ++i) ladder.OnSample(5);
  ASSERT_EQ(ladder.tier(), 1u);
  // Depth 2..3 sits between exit_depth and enter_depth: the tier holds and
  // a band sample breaks any streak in progress.
  EXPECT_EQ(ladder.OnSample(2), 1u);
  EXPECT_EQ(ladder.OnSample(0), 1u);  // calm streak 1
  EXPECT_EQ(ladder.OnSample(3), 1u);  // band: streak broken
  EXPECT_EQ(ladder.OnSample(0), 1u);  // calm streak 1 again
  EXPECT_EQ(ladder.OnSample(0), 0u);  // streak 2: step up
}

TEST(DegradationTest, LatencySamplesCountAsPressure) {
  DegradationConfig config = TwoTierConfig();
  config.latency_enter_us = 1000;
  DegradationLadder ladder(config);
  ladder.OnLatency(500);  // below the trigger: ignored
  ladder.OnLatency(2000);
  ladder.OnLatency(2000);
  EXPECT_EQ(ladder.tier(), 0u);
  ladder.OnLatency(2000);  // third consecutive slow completion
  EXPECT_EQ(ladder.tier(), 1u);
}

TEST(DegradationTest, ApplyMergesTightestWins) {
  DegradationConfig config = TwoTierConfig();
  config.tiers[0].params.max_distance_evals = 500;
  DegradationLadder ladder(config);

  SearchParams request;
  request.k = 10;
  request.pool_size = 100;
  request.max_distance_evals = 200;

  // Tier 0 is the identity.
  EXPECT_EQ(ladder.Apply(0, request).pool_size, 100u);

  const SearchParams tier1 = ladder.Apply(1, request);
  EXPECT_EQ(tier1.pool_size, 32u);              // capped by the tier
  EXPECT_EQ(tier1.max_distance_evals, 200u);    // request already tighter
  EXPECT_EQ(tier1.k, 10u);                      // k is never degraded

  SearchParams unlimited = request;
  unlimited.max_distance_evals = 0;
  EXPECT_EQ(ladder.Apply(1, unlimited).max_distance_evals, 500u);

  // The pool never degrades below k: a smaller pool cannot hold k results.
  SearchParams big_k = request;
  big_k.k = 24;
  EXPECT_EQ(ladder.Apply(2, big_k).pool_size, 24u);
}

// ------------------------------------------------------------- brute force

TEST(ServingTest, BruteForceTopKMatchesGroundTruth) {
  const TestWorkload& tw = SharedWorkload();
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const std::vector<uint32_t> ids =
        BruteForceTopK(tw.workload.base, tw.workload.queries.Row(q), 10);
    ASSERT_EQ(ids.size(), 10u);
    EXPECT_DOUBLE_EQ(Recall(ids, tw.truth[q], 10), 1.0);
  }
}

TEST(ServingTest, BruteForceShardBoundsScan) {
  const TestWorkload& tw = SharedWorkload();
  QueryStats stats;
  const std::vector<uint32_t> ids = BruteForceTopK(
      tw.workload.base, tw.workload.queries.Row(0), 10, /*shard=*/50, &stats);
  ASSERT_EQ(ids.size(), 10u);
  for (uint32_t id : ids) EXPECT_LT(id, 50u);
  EXPECT_EQ(stats.distance_evals, 50u);
}

TEST(ServingTest, BruteForceKBeyondShardReturnsShort) {
  const TestWorkload& tw = SharedWorkload();
  const std::vector<uint32_t> ids = BruteForceTopK(
      tw.workload.base, tw.workload.queries.Row(0), 10, /*shard=*/4);
  EXPECT_EQ(ids.size(), 4u);
}

TEST(ServingTest, FallbackEvalBudgetCapsTheScan) {
  // One evaluation per row: a budget below the fallback shard scans exactly
  // that many rows and reports truncated; one at or above it does not.
  const TestWorkload& tw = SharedWorkload();
  ServingConfig config;
  config.fallback_shard = 200;
  ServingEngine serving(tw.workload.base, config);
  const float* query = tw.workload.queries.Row(0);
  RequestOptions request;
  request.params.k = 10;
  request.params.max_distance_evals = 50;
  const ServeOutcome capped = serving.Serve(query, request);
  ASSERT_TRUE(capped.status.ok()) << capped.status.ToString();
  EXPECT_EQ(capped.ids, BruteForceTopK(tw.workload.base, query, 10, 50));
  EXPECT_EQ(capped.stats.distance_evals, 50u);
  EXPECT_TRUE(capped.stats.truncated);
  EXPECT_TRUE(capped.stats.degraded);

  request.params.max_distance_evals = 200;
  const ServeOutcome full = serving.Serve(query, request);
  EXPECT_EQ(full.ids, BruteForceTopK(tw.workload.base, query, 10, 200));
  EXPECT_EQ(full.stats.distance_evals, 200u);
  EXPECT_FALSE(full.stats.truncated);
}

// --------------------------------------------------------- serving contract

TEST(ServingTest, ServeCompletesAtFullQuality) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  ServingEngine serving(*index, ServingConfig{});
  RequestOptions request;
  request.params.k = 10;
  const ServeOutcome out = serving.Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.ids.size(), 10u);
  EXPECT_EQ(out.tier, 0u);
  EXPECT_FALSE(out.stats.degraded);
  const ServingReport report = serving.lifetime_report();
  EXPECT_EQ(report.submitted, 1u);
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.degraded, 0u);
}

TEST(ServingTest, ServeBatchSpilloverShedsInQueryOrder) {
  // A burst larger than capacity: exactly the first `capacity` queries are
  // admitted (admission happens in query order before execution starts).
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  ServingConfig config;
  config.num_threads = 2;
  config.admission.capacity = 4;
  ServingEngine serving(*index, config);
  RequestOptions request;
  request.params.k = 10;
  const ServeBatchResult result =
      serving.ServeBatch(tw.workload.queries, request);
  ASSERT_EQ(result.outcomes.size(), tw.workload.queries.size());
  for (uint32_t q = 0; q < result.outcomes.size(); ++q) {
    SCOPED_TRACE(q);
    const ServeOutcome& out = result.outcomes[q];
    if (q < 4) {
      EXPECT_TRUE(out.status.ok()) << out.status.ToString();
      EXPECT_EQ(out.ids.size(), 10u);
    } else {
      EXPECT_TRUE(out.status.IsUnavailable());
      EXPECT_TRUE(HasPrefix(out.status.message(), "overloaded:"));
      EXPECT_TRUE(out.ids.empty());
      EXPECT_GT(out.retry_after_us, 0u);
    }
  }
  EXPECT_EQ(result.report.submitted, tw.workload.queries.size());
  EXPECT_EQ(result.report.completed, 4u);
  EXPECT_EQ(result.report.shed_overload, tw.workload.queries.size() - 4);
  // Every admitted slot was released once execution drained.
  EXPECT_EQ(serving.admission_stats().in_flight, 0u);
}

TEST(ServingTest, EvaluateServingScoresCompletedQueriesOnly) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  ServingConfig config;
  config.admission.capacity = 4;  // most of the burst is shed
  ServingEngine serving(*index, config);
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  const ServingPoint point =
      EvaluateServing(serving, tw.workload.queries, tw.truth, request);
  EXPECT_EQ(point.report.completed, 4u);
  EXPECT_GT(point.recall_completed, 0.5);
  EXPECT_GE(point.p99_latency_us, point.p50_latency_us);
}

// The rejection contract must hold identically for every algorithm: same
// Status codes, same message prefixes, same flag semantics — the serving
// layer is algorithm-agnostic.
TEST(ServingTest, StatusContractAcrossAllAlgorithms) {
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 3;
  for (const std::string& name : AlgorithmNames()) {
    SCOPED_TRACE(name);
    auto index = CreateAlgorithm(name, options);
    index->Build(tw.workload.base);
    const float* query = tw.workload.queries.Row(0);

    // 1. Expired deadline: kDeadlineExceeded, "deadline exceeded" prefix,
    //    no results.
    VirtualClock clock(1000);
    ServingConfig config;
    config.clock = &clock;
    {
      ServingEngine serving(*index, config);
      RequestOptions request;
      request.params.k = 10;
      request.deadline_us = 500;  // already in the past
      const ServeOutcome out = serving.Serve(query, request);
      EXPECT_TRUE(out.status.IsDeadlineExceeded()) << out.status.ToString();
      EXPECT_TRUE(HasPrefix(out.status.message(), "deadline exceeded"));
      EXPECT_TRUE(out.ids.empty());
      EXPECT_EQ(serving.lifetime_report().shed_deadline, 1u);
    }

    // 2. Drain mode: kUnavailable, "overloaded" prefix, retry hint set.
    {
      ServingConfig drained = config;
      drained.admission.capacity = 0;
      drained.admission.retry_after_us = 777;
      ServingEngine serving(*index, drained);
      RequestOptions request;
      request.params.k = 10;
      const ServeOutcome out = serving.Serve(query, request);
      EXPECT_TRUE(out.status.IsUnavailable()) << out.status.ToString();
      EXPECT_TRUE(HasPrefix(out.status.message(), "overloaded"));
      EXPECT_EQ(out.retry_after_us, 777u);
      EXPECT_TRUE(out.ids.empty());
      EXPECT_EQ(serving.lifetime_report().shed_overload, 1u);
    }

    // 3. Forced degraded tier: completes with stats.degraded set and the
    //    tier recorded in both the outcome and the report.
    {
      ServingConfig degraded = config;
      SearchParams tier1;
      tier1.pool_size = 16;
      degraded.degradation.tiers = {tier1};
      degraded.degradation.enter_depth = 1;  // every admit is "pressure"
      degraded.degradation.exit_depth = 0;
      degraded.degradation.step_down_after = 1;
      ServingEngine serving(*index, degraded);
      RequestOptions request;
      request.params.k = 10;
      request.params.pool_size = 100;
      const ServeOutcome out = serving.Serve(query, request);
      ASSERT_TRUE(out.status.ok()) << out.status.ToString();
      EXPECT_EQ(out.tier, 1u);
      EXPECT_TRUE(out.stats.degraded);
      EXPECT_EQ(out.ids.size(), 10u);
      const ServingReport report = serving.lifetime_report();
      EXPECT_EQ(report.degraded, 1u);
      EXPECT_EQ(report.max_tier, 1u);
    }
  }
}

// ------------------------------------------------ quantized serving tier --

TEST(QuantizedServingTest, QuantizedTierRoutesToQuantizedBackend) {
  const TestWorkload& tw = SharedWorkload();
  auto exact = CreateAlgorithm("HNSW", AlgorithmOptions());
  exact->Build(tw.workload.base);
  auto quantized = CreateAlgorithm("SQ8:HNSW", AlgorithmOptions());
  quantized->Build(tw.workload.base);

  ServingConfig config;
  config.quantized_index = quantized.get();
  SearchParams tier1;
  tier1.pool_size = 40;
  config.degradation.tiers = {{tier1, ServeMode::kQuantized}};
  config.degradation.enter_depth = 1;  // every admit is "pressure"
  config.degradation.exit_depth = 0;
  config.degradation.step_down_after = 1;
  ServingEngine serving(*exact, config);

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  const ServeOutcome out = serving.Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.tier, 1u);
  EXPECT_TRUE(out.stats.degraded);
  // The quantized backend's fingerprint: the NDC split is populated.
  EXPECT_GT(out.stats.quantized_evals, 0u);
  EXPECT_GT(out.stats.rescore_evals, 0u);
  EXPECT_EQ(out.stats.distance_evals,
            out.stats.quantized_evals + out.stats.rescore_evals);
  EXPECT_EQ(out.ids.size(), 10u);
  // Exactly one backend-mode edge (exact -> quantized) was counted.
  const std::string snapshot = serving.SnapshotMetrics();
  EXPECT_NE(snapshot.find("\"quant.tier_transitions\":1"),
            std::string::npos)
      << snapshot;
}

TEST(QuantizedServingTest, QuantizedTierWithoutBackendServesOnPrimary) {
  // A tier asking for the quantized backend when none is configured must
  // degrade quality (the tier's caps still apply), never availability.
  const TestWorkload& tw = SharedWorkload();
  auto exact = CreateAlgorithm("HNSW", AlgorithmOptions());
  exact->Build(tw.workload.base);
  ServingConfig config;
  SearchParams tier1;
  tier1.pool_size = 16;
  config.degradation.tiers = {{tier1, ServeMode::kQuantized}};
  config.degradation.enter_depth = 1;
  config.degradation.exit_depth = 0;
  config.degradation.step_down_after = 1;
  ServingEngine serving(*exact, config);
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  const ServeOutcome out = serving.Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_EQ(out.ids.size(), 10u);
  EXPECT_EQ(out.stats.quantized_evals, 0u);  // served on the float backend
}

TEST(QuantizedServingTest, FullLadderStepsExactQuantizedBruteForce) {
  // The three-tier ladder of docs/QUANTIZATION.md: exact at tier 0,
  // quantized traversal at tier 1, brute force at tier 2 — stepping down
  // under sustained pressure and serving at every step.
  const TestWorkload& tw = SharedWorkload();
  auto exact = CreateAlgorithm("HNSW", AlgorithmOptions());
  exact->Build(tw.workload.base);
  auto quantized = CreateAlgorithm("SQ8:HNSW", AlgorithmOptions());
  quantized->Build(tw.workload.base);

  ServingConfig config;
  config.quantized_index = quantized.get();
  config.degrade_data = &tw.workload.base;
  SearchParams caps;  // quality knobs come from the request; modes differ
  config.degradation.tiers = {{caps, ServeMode::kQuantized},
                              {caps, ServeMode::kBruteForce}};
  config.degradation.enter_depth = 1;
  config.degradation.exit_depth = 0;
  config.degradation.step_down_after = 2;  // two pressured admits per step
  config.degradation.step_up_after = 1000;
  ServingEngine serving(*exact, config);

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 60;
  std::vector<ServeOutcome> outcomes;
  for (uint32_t i = 0; i < 6; ++i) {
    outcomes.push_back(serving.Serve(tw.workload.queries.Row(0), request));
    ASSERT_TRUE(outcomes.back().status.ok())
        << i << ": " << outcomes.back().status.ToString();
    ASSERT_EQ(outcomes.back().ids.size(), 10u) << i;
  }
  // Tier trace under step_down_after=2: 0, 1, 1, 2, 2, 2 (capped).
  EXPECT_EQ(outcomes[0].tier, 0u);
  EXPECT_EQ(outcomes[1].tier, 1u);
  EXPECT_GT(outcomes[1].stats.quantized_evals, 0u);
  EXPECT_EQ(outcomes[3].tier, 2u);
  EXPECT_EQ(outcomes[3].stats.quantized_evals, 0u);
  // Brute force is exact: its results are the true top-k.
  EXPECT_EQ(outcomes[3].ids,
            BruteForceTopK(tw.workload.base, tw.workload.queries.Row(0), 10,
                           0, nullptr));
  // Two mode edges: exact -> quantized, quantized -> brute force.
  const std::string snapshot = serving.SnapshotMetrics();
  EXPECT_NE(snapshot.find("\"quant.tier_transitions\":2"),
            std::string::npos)
      << snapshot;
}

}  // namespace
}  // namespace weavess
