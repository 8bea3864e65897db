// Unit tests for src/core: rng, dataset, distance, neighbor pool, visited
// list, graph, metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/metrics.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/visited_list.h"

namespace weavess {
namespace {

// ---------- Rng ----------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextU64() == b.NextU64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, BoundedCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0, sum_sqr = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sqr += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sqr / n, 1.0, 0.05);
}

TEST(RngTest, SampleDistinctReturnsDistinctInRange) {
  Rng rng(5);
  for (uint32_t count : {0u, 1u, 10u, 99u, 100u}) {
    const auto sample = rng.SampleDistinct(100, count);
    EXPECT_EQ(sample.size(), count);
    std::set<uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), count);
    for (uint32_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(9);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// ---------- Dataset ----------

TEST(DatasetTest, ConstructionAndAccess) {
  Dataset data(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.dim(), 3u);
  EXPECT_FLOAT_EQ(data.Row(1)[2], 6.0f);
  // Rows are padded out to the 64-byte alignment quantum (16 floats), so
  // the footprint reflects the stride, not the logical dim.
  EXPECT_GE(data.row_stride(), data.dim());
  EXPECT_EQ(data.row_stride() % Dataset::kStrideQuantum, 0u);
  EXPECT_EQ(data.MemoryBytes(),
            2ull * data.row_stride() * sizeof(float));
}

TEST(DatasetTest, RowsAre64ByteAligned) {
  // Every row start must sit on a 64-byte boundary regardless of dim —
  // the SIMD kernels and prefetch hints rely on it.
  for (uint32_t dim : {1u, 3u, 7u, 16u, 17u, 100u, 128u, 257u}) {
    Dataset data = Dataset::Zeros(5, dim);
    for (uint32_t i = 0; i < data.size(); ++i) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(data.Row(i)) % kRowAlignment, 0u)
          << "dim=" << dim << " row=" << i;
    }
  }
}

TEST(DatasetTest, ZerosIsZero) {
  Dataset data = Dataset::Zeros(4, 5);
  for (uint32_t i = 0; i < 4; ++i) {
    for (uint32_t d = 0; d < 5; ++d) EXPECT_FLOAT_EQ(data.Row(i)[d], 0.0f);
  }
}

TEST(DatasetTest, SubsetPicksRows) {
  Dataset data(3, 2, {0, 1, 10, 11, 20, 21});
  Dataset sub = data.Subset({2, 0});
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_FLOAT_EQ(sub.Row(0)[0], 20.0f);
  EXPECT_FLOAT_EQ(sub.Row(1)[1], 1.0f);
}

TEST(DatasetTest, MeanIsComponentwise) {
  Dataset data(2, 2, {0, 4, 2, 8});
  const auto mean = data.Mean();
  EXPECT_FLOAT_EQ(mean[0], 1.0f);
  EXPECT_FLOAT_EQ(mean[1], 6.0f);
}

TEST(DatasetTest, NormalizeRowsGivesUnitNorms) {
  Dataset data(3, 2, {3, 4, 0, 0, 5, 12});
  data.NormalizeRows();
  EXPECT_FLOAT_EQ(NormSqr(data.Row(0), 2), 1.0f);
  EXPECT_FLOAT_EQ(data.Row(0)[0], 0.6f);
  // Zero rows untouched.
  EXPECT_FLOAT_EQ(data.Row(1)[0], 0.0f);
  EXPECT_FLOAT_EQ(NormSqr(data.Row(2), 2), 1.0f);
}

TEST(DatasetTest, NormalizedL2OrderMatchesCosineOrder) {
  // Cosine similarity ranks points by angle; after normalization, l2
  // distance produces the same order.
  Rng rng(2);
  Dataset data = Dataset::Zeros(50, 6);
  for (uint32_t i = 0; i < 50; ++i) {
    for (uint32_t d = 0; d < 6; ++d) {
      data.MutableRow(i)[d] =
          static_cast<float>(rng.NextGaussian()) * (1.0f + i);  // mixed norms
    }
  }
  std::vector<float> query(6);
  for (auto& v : query) v = static_cast<float>(rng.NextGaussian());
  // Cosine ranking on the raw data.
  auto cosine = [&](uint32_t i) {
    return Dot(query.data(), data.Row(i), 6) /
           std::sqrt(NormSqr(query.data(), 6) * NormSqr(data.Row(i), 6));
  };
  uint32_t best_by_cosine = 0;
  for (uint32_t i = 1; i < 50; ++i) {
    if (cosine(i) > cosine(best_by_cosine)) best_by_cosine = i;
  }
  // L2 ranking on normalized copies.
  Dataset normalized = data;
  normalized.NormalizeRows();
  std::vector<float> unit_query = query;
  const float inv = 1.0f / std::sqrt(NormSqr(query.data(), 6));
  for (auto& v : unit_query) v *= inv;
  uint32_t best_by_l2 = 0;
  for (uint32_t i = 1; i < 50; ++i) {
    if (L2Sqr(unit_query.data(), normalized.Row(i), 6) <
        L2Sqr(unit_query.data(), normalized.Row(best_by_l2), 6)) {
      best_by_l2 = i;
    }
  }
  EXPECT_EQ(best_by_l2, best_by_cosine);
}

// ---------- Distance ----------

TEST(DistanceTest, L2SqrMatchesDefinition) {
  const float a[] = {1, 2, 3};
  const float b[] = {4, 6, 3};
  EXPECT_FLOAT_EQ(L2Sqr(a, b, 3), 9 + 16 + 0);
  EXPECT_FLOAT_EQ(L2(a, b, 3), 5.0f);
}

TEST(DistanceTest, L2SqrSymmetricAndZeroOnSelf) {
  Rng rng(1);
  std::vector<float> a(33), b(33);
  for (auto& v : a) v = rng.NextFloat();
  for (auto& v : b) v = rng.NextFloat();
  EXPECT_FLOAT_EQ(L2Sqr(a.data(), b.data(), 33),
                  L2Sqr(b.data(), a.data(), 33));
  EXPECT_FLOAT_EQ(L2Sqr(a.data(), a.data(), 33), 0.0f);
}

TEST(DistanceTest, DotAndNorm) {
  const float a[] = {1, 2, 2};
  const float b[] = {2, 0, 1};
  EXPECT_FLOAT_EQ(Dot(a, b, 3), 4.0f);
  EXPECT_FLOAT_EQ(NormSqr(a, 3), 9.0f);
}

TEST(DistanceTest, OracleCountsEvaluations) {
  Dataset data(3, 2, {0, 0, 3, 4, 6, 8});
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  EXPECT_FLOAT_EQ(oracle.Between(0, 1), 25.0f);
  const float q[] = {0, 0};
  EXPECT_FLOAT_EQ(oracle.ToQuery(q, 2), 100.0f);
  oracle.ToVector(q, data.Row(0));
  EXPECT_EQ(counter.count, 3u);
}

TEST(DistanceTest, NullCounterIsSafe) {
  Dataset data(2, 1, {0, 1});
  DistanceOracle oracle(data, nullptr);
  EXPECT_FLOAT_EQ(oracle.Between(0, 1), 1.0f);
  EXPECT_EQ(oracle.evaluations(), 0u);
}

// ---------- CandidatePool ----------

TEST(CandidatePoolTest, KeepsSortedAscending) {
  CandidatePool pool(4);
  pool.Insert({1, 5.0f});
  pool.Insert({2, 1.0f});
  pool.Insert({3, 3.0f});
  ASSERT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool[0].id, 2u);
  EXPECT_EQ(pool[1].id, 3u);
  EXPECT_EQ(pool[2].id, 1u);
}

TEST(CandidatePoolTest, EvictsWorstWhenFull) {
  CandidatePool pool(2);
  pool.Insert({1, 5.0f});
  pool.Insert({2, 1.0f});
  EXPECT_EQ(pool.Insert({3, 3.0f}), 1u);
  ASSERT_EQ(pool.size(), 2u);
  EXPECT_EQ(pool[1].id, 3u);
  // Worse than everything: rejected.
  EXPECT_EQ(pool.Insert({4, 9.0f}), CandidatePool::kNpos);
}

TEST(CandidatePoolTest, RejectsDuplicates) {
  CandidatePool pool(4);
  EXPECT_NE(pool.Insert({7, 2.0f}), CandidatePool::kNpos);
  EXPECT_EQ(pool.Insert({7, 2.0f}), CandidatePool::kNpos);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(CandidatePoolTest, NextUncheckedWalksAscending) {
  CandidatePool pool(4);
  pool.Insert({1, 3.0f});
  pool.Insert({2, 1.0f});
  size_t first = pool.NextUnchecked();
  EXPECT_EQ(pool[first].id, 2u);
  pool.MarkChecked(first);
  size_t second = pool.NextUnchecked();
  EXPECT_EQ(pool[second].id, 1u);
  pool.MarkChecked(second);
  EXPECT_EQ(pool.NextUnchecked(), CandidatePool::kNpos);
  // A better insertion rewinds the cursor.
  pool.Insert({3, 0.5f});
  size_t rewound = pool.NextUnchecked();
  EXPECT_EQ(pool[rewound].id, 3u);
}

TEST(CandidatePoolTest, WorstDistanceInfiniteUntilFull) {
  CandidatePool pool(2);
  EXPECT_TRUE(std::isinf(pool.WorstDistance()));
  pool.Insert({1, 1.0f});
  EXPECT_TRUE(std::isinf(pool.WorstDistance()));
  pool.Insert({2, 2.0f});
  EXPECT_FLOAT_EQ(pool.WorstDistance(), 2.0f);
}

TEST(CandidatePoolTest, TopScoredTruncates) {
  CandidatePool pool(8);
  for (uint32_t i = 0; i < 5; ++i) pool.Insert({i, static_cast<float>(i)});
  const auto top = pool.TopScored(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_TRUE(top[0] == ScoredId(0.0f, 0));
  EXPECT_TRUE(top[2] == ScoredId(2.0f, 2));
}

TEST(CandidatePoolTest, DistanceTiesComeOutInReverseInsertionOrder) {
  // Insert places a newcomer ahead of its equal-distance entries, so pool
  // order is by distance alone; a caller that needs (distance, id) order
  // (the shard legs before MergeTopK) must sort.
  CandidatePool pool(4);
  for (const uint32_t id : {3u, 7u, 5u}) pool.Insert({id, 1.0f});
  EXPECT_EQ(IdsOf(pool.TopScored(3)), (std::vector<uint32_t>{5, 7, 3}));
}

// ---------- VisitedList ----------

TEST(VisitedListTest, MarkAndReset) {
  VisitedList visited(10);
  visited.Reset();
  EXPECT_FALSE(visited.Visited(3));
  visited.MarkVisited(3);
  EXPECT_TRUE(visited.Visited(3));
  visited.Reset();
  EXPECT_FALSE(visited.Visited(3));
}

TEST(VisitedListTest, CheckAndMarkReportsPriorState) {
  VisitedList visited(4);
  visited.Reset();
  EXPECT_FALSE(visited.CheckAndMark(1));
  EXPECT_TRUE(visited.CheckAndMark(1));
}

TEST(VisitedListTest, ManyResetsStayCorrect) {
  VisitedList visited(4);
  for (int round = 0; round < 1000; ++round) {
    visited.Reset();
    EXPECT_FALSE(visited.Visited(2));
    visited.MarkVisited(2);
    EXPECT_TRUE(visited.Visited(2));
  }
}

TEST(VisitedListTest, NearWrapEpochsStillMark) {
  // Jump close to the wrap point: ordinary Resets up to UINT32_MAX behave
  // exactly like any other epoch.
  VisitedList visited(4);
  visited.SetEpochForTesting(UINT32_MAX - 1);
  visited.Reset();  // epoch = UINT32_MAX, no wrap yet
  EXPECT_EQ(visited.epoch(), UINT32_MAX);
  EXPECT_FALSE(visited.Visited(1));
  visited.MarkVisited(1);
  EXPECT_TRUE(visited.Visited(1));
}

TEST(VisitedListTest, EpochWrapFullyClearsStaleStamps) {
  // The hazard the wrap clear defuses: after 2^32 Resets the epoch counter
  // returns to 1, and any stamp surviving from the *first* epoch 1 would
  // falsely read as visited. Plant exactly that collision, then wrap.
  VisitedList visited(8);
  visited.Reset();  // epoch 1
  EXPECT_EQ(visited.epoch(), 1u);
  visited.MarkVisited(3);  // stamp[3] == 1: collides with the post-wrap epoch

  visited.SetEpochForTesting(UINT32_MAX);
  visited.MarkVisited(5);  // stamp[5] == UINT32_MAX: a recent-epoch stamp

  visited.Reset();  // ++epoch wraps to 0 -> full clear, epoch restarts at 1
  EXPECT_EQ(visited.epoch(), 1u);
  for (uint32_t id = 0; id < visited.size(); ++id) {
    EXPECT_FALSE(visited.Visited(id)) << id;
  }
  // The post-wrap epoch works like any other.
  EXPECT_FALSE(visited.CheckAndMark(3));
  EXPECT_TRUE(visited.CheckAndMark(3));
  visited.Reset();  // epoch 2: normal path again
  EXPECT_EQ(visited.epoch(), 2u);
  EXPECT_FALSE(visited.Visited(3));
}

TEST(VisitedListTest, GrownSlotsStartUnvisited) {
  VisitedList visited;  // covers no ids until it grows
  visited.Grow(4);
  visited.Reset();
  for (uint32_t id = 0; id < 4; ++id) visited.MarkVisited(id);
  visited.Grow(5);  // mid-query: old marks stay, the list at least doubles
  ASSERT_GE(visited.size(), 8u);
  for (uint32_t id = 0; id < visited.size(); ++id) {
    EXPECT_EQ(visited.Visited(id), id < 4) << id;
  }
  const uint32_t grown = visited.size();
  visited.Grow(3);  // never shrinks
  EXPECT_EQ(visited.size(), grown);
  visited.Reset();
  for (uint32_t id = 0; id < visited.size(); ++id) {
    EXPECT_FALSE(visited.Visited(id)) << id;
  }
}

TEST(VisitedListTest, EpochWrapClearCoversGrownSlots) {
  // A grown slot stamped in epoch 1 collides with the post-wrap epoch 1
  // exactly like an original slot; the wrap clear must reach it.
  VisitedList visited(4);
  visited.Reset();  // epoch 1
  visited.Grow(16);
  visited.MarkVisited(12);  // stamp[12] == 1, beyond the original size
  visited.SetEpochForTesting(UINT32_MAX);
  visited.Reset();  // wraps -> full clear, epoch restarts at 1
  EXPECT_EQ(visited.epoch(), 1u);
  for (uint32_t id = 0; id < visited.size(); ++id) {
    EXPECT_FALSE(visited.Visited(id)) << id;
  }
}

// ---------- Graph ----------

TEST(GraphTest, AddEdgeAndUnique) {
  Graph graph(3);
  graph.AddEdge(0, 1);
  EXPECT_TRUE(graph.Neighbors(1).empty());  // directed
  EXPECT_FALSE(graph.AddEdgeUnique(0, 1));
  EXPECT_TRUE(graph.AddEdgeUnique(0, 2));
  EXPECT_EQ(graph.Neighbors(0), (std::vector<uint32_t>{1, 2}));
}

TEST(GraphTest, UndirectedAddsBothArcs) {
  Graph graph(2);
  graph.AddUndirectedEdge(0, 1);
  graph.AddUndirectedEdge(0, 1);  // idempotent
  EXPECT_EQ(graph.Neighbors(0), std::vector<uint32_t>{1});
  EXPECT_EQ(graph.Neighbors(1), std::vector<uint32_t>{0});
}

TEST(GraphTest, TruncateDegrees) {
  Graph graph(4);
  for (uint32_t v = 1; v < 4; ++v) graph.AddEdge(0, v);
  graph.TruncateDegrees(2);
  EXPECT_EQ(graph.Neighbors(0).size(), 2u);
}

// ---------- Metrics ----------

TEST(MetricsTest, DegreeStats) {
  Graph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 0);
  const DegreeStats stats = ComputeDegreeStats(CsrGraph(graph));
  EXPECT_DOUBLE_EQ(stats.average, 1.0);
  EXPECT_EQ(stats.max, 2u);
  EXPECT_EQ(stats.min, 0u);
}

TEST(MetricsTest, GraphQualityExactMatchIsOne) {
  Graph exact(3);
  exact.AddEdge(0, 1);
  exact.AddEdge(1, 2);
  exact.AddEdge(2, 0);
  const CsrGraph frozen(exact);
  EXPECT_DOUBLE_EQ(ComputeGraphQuality(frozen, frozen), 1.0);
}

TEST(MetricsTest, GraphQualityPartial) {
  Graph exact(2);
  exact.AddEdge(0, 1);
  exact.AddEdge(1, 0);
  Graph approx(2);
  approx.AddEdge(0, 1);  // half the exact edges present
  EXPECT_DOUBLE_EQ(ComputeGraphQuality(CsrGraph(approx), CsrGraph(exact)),
                   0.5);
}

TEST(MetricsTest, ConnectedComponentsUndirectedView) {
  Graph graph(5);
  graph.AddEdge(0, 1);  // one directed arc still joins components
  graph.AddEdge(2, 3);
  EXPECT_EQ(CountConnectedComponents(CsrGraph(graph)), 3u);  // {0,1} {2,3} {4}
}

TEST(MetricsTest, AllReachableFollowsDirection) {
  Graph graph(3);
  graph.AddEdge(0, 1);
  graph.AddEdge(1, 2);
  const CsrGraph frozen(graph);
  EXPECT_TRUE(AllReachableFrom(frozen, 0));
  EXPECT_FALSE(AllReachableFrom(frozen, 2));
}

}  // namespace
}  // namespace weavess
