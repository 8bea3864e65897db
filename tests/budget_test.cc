// Graceful-degradation tests for the SearchParams budgets: a tripped
// budget must return best-so-far results with QueryStats::truncated set,
// terminate promptly even on pathological graphs, and leave no residue in
// the per-query scratch state.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/clock.h"
#include "core/graph.h"
#include "core/index.h"
#include "search/filtered.h"
#include "search/router.h"
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

TEST(BudgetTest, DefaultsAreUnlimited) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  SearchParams params;  // max_distance_evals = 0, time_budget_us = 0
  params.k = 10;
  QueryStats stats;
  const auto result =
      index->Search(tw.workload.queries.Row(0), params, &stats);
  EXPECT_EQ(result.size(), 10u);
  EXPECT_FALSE(stats.truncated);
}

TEST(BudgetTest, EveryAlgorithmHonorsEvalBudget) {
  // A budget of 1 distance evaluation trips on (or right after) the seed
  // step for every algorithm: truncated must be set, the spend must stay
  // within one adjacency list of the cap, and the call must return.
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

    SearchParams unlimited;
    unlimited.k = 10;
    QueryStats full_stats;
    index->Search(tw.workload.queries.Row(0), unlimited, &full_stats);
    EXPECT_FALSE(full_stats.truncated);

    SearchParams budgeted = unlimited;
    budgeted.max_distance_evals = 1;
    QueryStats stats;
    const auto result =
        index->Search(tw.workload.queries.Row(0), budgeted, &stats);
    EXPECT_TRUE(stats.truncated);
    EXPECT_LE(result.size(), 10u);
    // The budgeted walk stops at (or right after) seeding, so it must
    // spend no more than the converged search did.
    EXPECT_LE(stats.distance_evals, full_stats.distance_evals)
        << "budgeted search did not spend less than the converged search";
    if (name == "HNSW" || name == "Dynamic:HNSW") {
      // The descent scores the entry point once and checks the budget
      // before every upper-level step, so one eval is all it spends.
      EXPECT_EQ(stats.distance_evals, 1u);
    }
  }
}

TEST(BudgetTest, ShardedIndexHonorsEvalBudgetAcrossShards) {
  // The sharded wrapper splits the eval budget across shards
  // (docs/SHARDING.md); the sum of per-shard spends must still respect the
  // contract: truncation is flagged and the budgeted spend stays below the
  // converged spend.
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 3;
  options.num_shards = 4;
  auto index = CreateAlgorithm("Sharded:HNSW", options);
  index->Build(tw.workload.base);

  SearchParams unlimited;
  unlimited.k = 10;
  QueryStats full_stats;
  index->Search(tw.workload.queries.Row(0), unlimited, &full_stats);
  EXPECT_FALSE(full_stats.truncated);

  SearchParams budgeted = unlimited;
  budgeted.max_distance_evals = 4;  // one evaluation's budget per shard
  QueryStats stats;
  index->Search(tw.workload.queries.Row(0), budgeted, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(stats.distance_evals, full_stats.distance_evals);
}

TEST(BudgetTest, DisconnectedGraphPartialResults) {
  // A deliberately disconnected graph: vertices {0,1,2} form a cycle that
  // never reaches the rest of the dataset. With a tiny eval budget the
  // walk must return its (partial, < k) best-so-far with truncated set —
  // and terminate rather than spin looking for an exit.
  const TestWorkload& tw = SharedWorkload();
  const Dataset& base = tw.workload.base;
  Graph graph(base.size());
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  graph.AddEdge(2, 0);
  // Every other vertex is isolated: unreachable from the seed component.

  SearchContext ctx(base.size());
  ctx.BeginQuery(base.size());
  ctx.ArmBudget(/*max_distance_evals=*/2, /*time_budget_us=*/0);
  DistanceOracle oracle(base, &ctx.counter);
  CandidatePool pool(100);
  SeedPool({0}, tw.workload.queries.Row(1), oracle, ctx, pool);
  BestFirstSearch(graph, tw.workload.queries.Row(1), oracle, ctx, pool);
  const std::vector<uint32_t> result = ExtractTopK(pool, 10);
  EXPECT_TRUE(ctx.truncated);
  EXPECT_LT(result.size(), 10u) << "only 3 vertices are reachable";
  EXPECT_FALSE(result.empty()) << "budget must not discard the best-so-far";
}

TEST(BudgetTest, TimeBudgetTrips) {
  // time_budget_us = 1 expires before the first expansion completes on any
  // realistic machine; the search must come back truncated, not hang.
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("NSG");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.time_budget_us = 1;
  QueryStats stats;
  const auto result = index->Search(tw.workload.queries.Row(2), params, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LE(result.size(), 10u);
}

TEST(BudgetTest, TruncationFlagResetsBetweenQueries) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);

  SearchParams tight;
  tight.k = 10;
  tight.max_distance_evals = 1;
  QueryStats stats;
  index->Search(tw.workload.queries.Row(0), tight, &stats);
  EXPECT_TRUE(stats.truncated);

  SearchParams unlimited;
  unlimited.k = 10;
  QueryStats clean_stats;
  const auto result =
      index->Search(tw.workload.queries.Row(0), unlimited, &clean_stats);
  EXPECT_FALSE(clean_stats.truncated)
      << "truncated flag leaked from the previous budgeted query";
  EXPECT_EQ(result.size(), 10u);
}

TEST(BudgetTest, VirtualClockMakesTimeBudgetDeterministic) {
  // Under an injected VirtualClock the wall-clock budget is a pure function
  // of the clock readings, not of scheduler speed: a frozen clock never
  // expires even a 1us budget, so the search runs to convergence and
  // matches the unlimited result exactly — on every repetition.
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);

  SearchParams unlimited;
  unlimited.k = 10;
  const auto reference =
      index->Search(tw.workload.queries.Row(0), unlimited);

  VirtualClock frozen(5000);
  SearchParams budgeted = unlimited;
  budgeted.time_budget_us = 1;
  budgeted.clock = &frozen;
  for (int rep = 0; rep < 3; ++rep) {
    QueryStats stats;
    const auto result =
        index->Search(tw.workload.queries.Row(0), budgeted, &stats);
    EXPECT_FALSE(stats.truncated)
        << "a frozen clock must never trip the time budget";
    EXPECT_EQ(result, reference);
  }
}

TEST(BudgetTest, VirtualClockExpiryTruncatesImmediately) {
  // The mirror case: arm a time budget, then advance the clock past the
  // deadline before walking. The very first budget poll must truncate, and
  // the partial best-so-far must survive — deterministically.
  const TestWorkload& tw = SharedWorkload();
  const Dataset& base = tw.workload.base;
  Graph graph(base.size());
  for (uint32_t v = 0; v + 1 < base.size(); ++v) graph.AddEdge(v, v + 1);

  VirtualClock clock(1000);
  SearchContext ctx(base.size());
  ctx.BeginQuery(base.size());
  ctx.ArmBudget(/*max_distance_evals=*/0, /*time_budget_us=*/5, &clock);
  DistanceOracle oracle(base, &ctx.counter);
  clock.AdvanceMicros(100);  // deadline (1005) is now in the past
  CandidatePool pool(100);
  SeedPool({0}, tw.workload.queries.Row(0), oracle, ctx, pool);
  BestFirstSearch(graph, tw.workload.queries.Row(0), oracle, ctx, pool);
  EXPECT_TRUE(ctx.truncated);
  const std::vector<uint32_t> result = ExtractTopK(pool, 10);
  EXPECT_FALSE(result.empty()) << "expiry must not discard the best-so-far";
  EXPECT_LT(result.size(), 10u) << "an expired walk cannot have converged";
}

TEST(BudgetTest, FilteredDuringRoutingStaysWithinBudget) {
  // The during-routing filter seeds its walk with a probe search through
  // the wrapped index. The probe and the walk share one budget: together
  // they may overshoot it by at most one adjacency list.
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  options.max_degree = 10;
  options.knng_degree = 10;
  options.build_pool = 30;
  for (const char* name : {"NSG", "HNSW"}) {
    SCOPED_TRACE(name);
    auto index = CreateAlgorithm(name, options);
    index->Build(tw.workload.base);
    uint64_t max_out_degree = 0;
    for (uint32_t v = 0; v < index->graph().size(); ++v) {
      max_out_degree = std::max<uint64_t>(max_out_degree,
                                          index->graph().Neighbors(v).size());
    }
    std::vector<uint32_t> labels(tw.workload.base.size());
    for (uint32_t i = 0; i < labels.size(); ++i) labels[i] = i % 4;
    FilteredSearcher searcher(index.get(), &tw.workload.base, labels);
    for (const uint64_t budget : {20u, 100u}) {
      SearchParams params;
      params.k = 10;
      params.pool_size = 40;
      params.max_distance_evals = budget;
      for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
        QueryStats stats;
        const auto result =
            searcher.Search(tw.workload.queries.Row(q), q % 4, params,
                            FilterStrategy::kDuringRouting, &stats);
        EXPECT_LE(stats.distance_evals, budget + max_out_degree)
            << "budget " << budget << ", query " << q;
        EXPECT_LE(result.size(), 10u);
        for (uint32_t id : result) EXPECT_EQ(labels[id], q % 4);
      }
    }
  }
}

TEST(BudgetTest, GenerousBudgetDoesNotTruncate) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("Vamana");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.max_distance_evals = 1'000'000;
  params.time_budget_us = 60'000'000;
  QueryStats stats;
  const auto result = index->Search(tw.workload.queries.Row(3), params, &stats);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(result.size(), 10u);
}

}  // namespace
}  // namespace weavess
