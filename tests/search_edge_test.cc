// Edge-case tests for the search stack: degenerate pools, k near/beyond
// the dataset size, exact-match queries, empty adjacency, and parameter
// boundary values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "algorithms/registry.h"
#include "core/metrics.h"
#include "eval/synthetic.h"
#include "graph/connectivity.h"
#include "graph/exact_knng.h"
#include "search/engine.h"
#include "search/router.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;

TEST(SearchEdgeTest, QueryEqualToBasePointReturnsItFirst) {
  const auto tw = MakeTestWorkload(400, 8, 5);
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 50;
  for (uint32_t i = 0; i < 400; i += 97) {
    const auto result = index->Search(tw.workload.base.Row(i), params);
    ASSERT_FALSE(result.empty());
    EXPECT_EQ(result.front(), i);
  }
}

TEST(SearchEdgeTest, KLargerThanPoolIsClampedUp) {
  const auto tw = MakeTestWorkload(300, 8, 3);
  auto index = CreateAlgorithm("NSG");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 40;
  params.pool_size = 10;  // smaller than k: pool grows to k internally
  const auto result = index->Search(tw.workload.queries.Row(0), params);
  EXPECT_EQ(result.size(), 40u);
}

TEST(SearchEdgeTest, PoolCapacityOne) {
  CandidatePool pool(1);
  pool.Insert({3, 5.0f});
  pool.Insert({4, 2.0f});
  ASSERT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool[0].id, 4u);
  EXPECT_EQ(pool.NextUnchecked(), 0u);
  pool.MarkChecked(0);
  EXPECT_EQ(pool.NextUnchecked(), CandidatePool::kNpos);
}

TEST(SearchEdgeTest, TopScoredWithSmallPool) {
  CandidatePool pool(8);
  pool.Insert({1, 1.0f});
  pool.Insert({2, 2.0f});
  const auto top = pool.TopScored(5);
  EXPECT_EQ(top.size(), 2u);  // only what exists
}

TEST(SearchEdgeTest, BestFirstOnEdgelessGraphReturnsSeedsOnly) {
  const auto tw = MakeTestWorkload(50, 4, 2);
  Graph graph(50);  // no edges at all
  SearchContext ctx(50);
  ctx.BeginQuery(50);
  DistanceOracle oracle(tw.workload.base, nullptr);
  CandidatePool pool(10);
  SeedPool({1, 2, 3}, tw.workload.queries.Row(0), oracle, ctx, pool);
  BestFirstSearch(graph, tw.workload.queries.Row(0), oracle, ctx, pool);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(ctx.hops, 3u);  // each seed expanded (to nothing)
}

TEST(SearchEdgeTest, RangeSearchZeroEpsilonStillTerminates) {
  const auto tw = MakeTestWorkload(300, 8, 1);
  const Graph knng = BuildExactKnng(tw.workload.base, 8);
  SearchContext ctx(300);
  ctx.BeginQuery(300);
  DistanceOracle oracle(tw.workload.base, nullptr);
  CandidatePool pool(20);
  SeedPool({0, 100, 200}, tw.workload.queries.Row(0), oracle, ctx, pool);
  RangeSearch(knng, tw.workload.queries.Row(0), oracle, ctx, pool, 0.0f);
  EXPECT_GT(pool.size(), 3u);
}

TEST(SearchEdgeTest, ConnectivityWithIsolatedRoot) {
  const auto tw = MakeTestWorkload(100, 6, 1);
  Graph graph(100);
  // Root 0 has no out-edges; everything else forms a chain.
  for (uint32_t v = 1; v + 1 < 100; ++v) graph.AddEdge(v, v + 1);
  const uint32_t bridges =
      EnsureReachableFrom(graph, tw.workload.base, 0, 10);
  EXPECT_GE(bridges, 1u);
  EXPECT_TRUE(AllReachableFrom(CsrGraph(graph), 0));
}

TEST(SearchEdgeTest, StatsPointerOptional) {
  const auto tw = MakeTestWorkload(200, 6, 2);
  auto index = CreateAlgorithm("KGraph");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  // No stats pointer: must not crash and must return results.
  EXPECT_FALSE(index->Search(tw.workload.queries.Row(0), params).empty());
}

TEST(SearchEdgeTest, EmptyBatchIsWellFormed) {
  // Regression: an empty batch must return empty vectors and zero totals,
  // not crash in the timer/reduction path — for both batch entry points.
  const auto tw = MakeTestWorkload(200, 6, 2);
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  const SearchEngine engine(*index, /*num_threads=*/2);
  SearchParams params;
  params.k = 5;

  const BatchResult from_pointers =
      engine.SearchBatch(std::vector<const float*>{}, params);
  EXPECT_TRUE(from_pointers.ids.empty());
  EXPECT_TRUE(from_pointers.stats.empty());
  EXPECT_EQ(from_pointers.totals.distance_evals, 0u);
  EXPECT_EQ(from_pointers.totals.truncated_queries, 0u);

  const BatchResult from_dataset = engine.SearchBatch(Dataset(), params);
  EXPECT_TRUE(from_dataset.ids.empty());
  EXPECT_TRUE(from_dataset.stats.empty());
}

TEST(SearchEdgeTest, KBeyondDatasetSizeIsClamped) {
  // Regression: k larger than the dataset must yield at most dataset-size
  // ids — sorted by distance, duplicate-free — instead of whatever the
  // algorithm improvises past the end of the data.
  const auto tw = MakeTestWorkload(50, 6, 3);
  auto index = CreateAlgorithm("HNSW");
  index->Build(tw.workload.base);
  const SearchEngine engine(*index, /*num_threads=*/1);
  SearchParams params;
  params.k = 200;  // 4x the dataset
  params.pool_size = 10;

  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  ASSERT_EQ(batch.ids.size(), tw.workload.queries.size());
  for (const std::vector<uint32_t>& ids : batch.ids) {
    EXPECT_LE(ids.size(), 50u);
    std::vector<uint32_t> sorted = ids;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "duplicate ids in a clamped result";
    for (uint32_t id : sorted) EXPECT_LT(id, 50u);
  }

  QueryStats stats;
  const auto one =
      engine.SearchOne(tw.workload.queries.Row(0), params, &stats);
  EXPECT_LE(one.size(), 50u);
}

TEST(SearchEdgeTest, RepeatedSearchesIndependent) {
  // Visited-list epoch reuse across queries must not leak state.
  const auto tw = MakeTestWorkload(300, 8, /*num_queries=*/5, 1);
  auto index = CreateAlgorithm("NSG");
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 60;
  const auto first = index->Search(tw.workload.queries.Row(0), params);
  for (int i = 0; i < 5; ++i) {
    index->Search(tw.workload.queries.Row(i % 3 + 1), params);
  }
  EXPECT_EQ(index->Search(tw.workload.queries.Row(0), params), first);
}

}  // namespace
}  // namespace weavess
