// Algorithm-specific behavioural tests: the details that distinguish each
// algorithm's construction (degree adjustment, propagation, hub growth,
// backtracking, ε-expansion) beyond the uniform integration checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "algorithms/fanng.h"
#include "algorithms/hcnng.h"
#include "algorithms/hnsw.h"
#include "algorithms/ngt.h"
#include "algorithms/nsw.h"
#include "algorithms/sptag.h"
#include "core/metrics.h"
#include "graph/exact_knng.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::MeanRecall;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(1200, 14, 40, 1, 15.0f, 21));
  return *kWorkload;
}

// ---------- NSW ----------

TEST(NswDetailTest, HubsGrowBeyondInsertDegree) {
  // NSW's undirected insertion lets dense-area vertices accumulate degree
  // far above edges_per_insert — the "traffic hub" effect of §3.2 (A1).
  NswIndex::Params params;
  params.edges_per_insert = 8;
  NswIndex index(params);
  index.Build(SharedWorkload().workload.base);
  const DegreeStats stats = ComputeDegreeStats(index.graph());
  EXPECT_GT(stats.max, 2 * params.edges_per_insert);
  EXPECT_GE(stats.average, params.edges_per_insert);
}

TEST(NswDetailTest, GraphIsUndirected) {
  NswIndex index(NswIndex::Params{});
  index.Build(SharedWorkload().workload.base);
  const CsrGraph& graph = index.graph();
  for (uint32_t v = 0; v < graph.size(); v += 37) {
    for (uint32_t u : graph.Neighbors(v)) {
      const auto back = graph.Neighbors(u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end());
    }
  }
}

TEST(NswDetailTest, SingleComponentByConstruction) {
  // Incremental insertion connects every new vertex to existing ones, so
  // the Increment strategy ensures connectivity internally (C5, §4.1).
  NswIndex index(NswIndex::Params{});
  index.Build(SharedWorkload().workload.base);
  EXPECT_EQ(CountConnectedComponents(index.graph()), 1u);
}

// ---------- NGT ----------

TEST(NgtDetailTest, PathAdjustmentBoundsDegreesBelowAnng) {
  NgtIndex::Params params;
  params.max_degree = 12;
  NgtIndex index(params);
  index.Build(SharedWorkload().workload.base);
  // Path adjustment caps the out-degree at max_degree, with some slack
  // from the kept-undirected reverse arcs.
  const DegreeStats stats = ComputeDegreeStats(index.graph());
  EXPECT_LE(stats.average, 2.0 * params.max_degree);
}

TEST(NgtDetailTest, OnngAndPanngDiffer) {
  NgtIndex::Params panng;
  panng.variant = NgtIndex::Variant::kPanng;
  NgtIndex::Params onng = panng;
  onng.variant = NgtIndex::Variant::kOnng;
  NgtIndex a(panng), b(onng);
  a.Build(SharedWorkload().workload.base);
  b.Build(SharedWorkload().workload.base);
  EXPECT_EQ(a.name(), "NGT-panng");
  EXPECT_EQ(b.name(), "NGT-onng");
  // Degree adjustment changes the edge structure.
  EXPECT_NE(a.graph().NumEdges(), b.graph().NumEdges());
}

TEST(NgtDetailTest, LargerEpsilonCostsMoreAndFindsAtLeastAsMuch) {
  NgtIndex index(NgtIndex::Params{});
  index.Build(SharedWorkload().workload.base);
  const TestWorkload& tw = SharedWorkload();
  SearchParams tight;
  tight.k = 10;
  tight.pool_size = 30;
  tight.epsilon = 0.0f;
  SearchParams loose = tight;
  loose.epsilon = 0.5f;
  uint64_t tight_ndc = 0, loose_ndc = 0;
  double tight_recall = 0.0, loose_recall = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    auto result = index.Search(tw.workload.queries.Row(q), tight, &stats);
    tight_recall += Recall(result, tw.truth[q], 10);
    tight_ndc += stats.distance_evals;
    result = index.Search(tw.workload.queries.Row(q), loose, &stats);
    loose_recall += Recall(result, tw.truth[q], 10);
    loose_ndc += stats.distance_evals;
  }
  EXPECT_GT(loose_ndc, tight_ndc);               // ε buys work...
  EXPECT_GE(loose_recall + 0.5, tight_recall);   // ...not lost accuracy
}

// ---------- SPTAG ----------

TEST(SptagDetailTest, MorePartitionIterationsImproveGraphQuality) {
  const TestWorkload& tw = SharedWorkload();
  const CsrGraph exact(BuildExactKnng(tw.workload.base, 10));
  double previous = -1.0;
  for (uint32_t iterations : {1u, 4u}) {
    SptagIndex::Params params;
    params.partition_iterations = iterations;
    params.propagation_passes = 0;  // isolate the divide-and-conquer part
    SptagIndex index(params);
    index.Build(tw.workload.base);
    const double quality = ComputeGraphQuality(index.graph(), exact);
    EXPECT_GT(quality + 0.01, previous);
    previous = quality;
  }
  EXPECT_GT(previous, 0.6);
}

TEST(SptagDetailTest, NeighborhoodPropagationImprovesGraphQuality) {
  const TestWorkload& tw = SharedWorkload();
  const CsrGraph exact(BuildExactKnng(tw.workload.base, 10));
  SptagIndex::Params without;
  without.partition_iterations = 2;
  without.propagation_passes = 0;
  SptagIndex::Params with = without;
  with.propagation_passes = 1;
  SptagIndex a(without), b(with);
  a.Build(tw.workload.base);
  b.Build(tw.workload.base);
  EXPECT_GT(ComputeGraphQuality(b.graph(), exact),
            ComputeGraphQuality(a.graph(), exact));
}

TEST(SptagDetailTest, BktVariantPrunesDegrees) {
  SptagIndex::Params kdt;
  kdt.variant = SptagIndex::Variant::kKdt;
  SptagIndex::Params bkt = kdt;
  bkt.variant = SptagIndex::Variant::kBkt;
  SptagIndex a(kdt), b(bkt);
  a.Build(SharedWorkload().workload.base);
  b.Build(SharedWorkload().workload.base);
  // The RNG pass can only remove edges.
  EXPECT_LE(ComputeDegreeStats(b.graph()).average,
            ComputeDegreeStats(a.graph()).average);
}

// ---------- HCNNG ----------

TEST(HcnngDetailTest, DegreeBoundedByCapTimesRounds) {
  HcnngIndex::Params params;
  params.num_clusterings = 5;
  params.max_mst_degree = 3;
  HcnngIndex index(params);
  index.Build(SharedWorkload().workload.base);
  const DegreeStats stats = ComputeDegreeStats(index.graph());
  EXPECT_LE(stats.max, params.num_clusterings * params.max_mst_degree);
}

TEST(HcnngDetailTest, MoreClusteringsImproveRecall) {
  const TestWorkload& tw = SharedWorkload();
  HcnngIndex::Params sparse;
  sparse.num_clusterings = 2;
  HcnngIndex::Params dense = sparse;
  dense.num_clusterings = 10;
  HcnngIndex a(sparse), b(dense);
  a.Build(tw.workload.base);
  b.Build(tw.workload.base);
  EXPECT_GE(MeanRecall(b, tw, 10, 80) + 0.02, MeanRecall(a, tw, 10, 80));
}

// ---------- FANNG ----------

TEST(FanngDetailTest, BacktrackingImprovesRecallAtFixedPool) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateFanng(AlgorithmOptions{});
  index->Build(tw.workload.base);
  SearchParams no_backtrack;
  no_backtrack.k = 10;
  no_backtrack.pool_size = 12;
  no_backtrack.backtrack = 0;
  SearchParams with_backtrack = no_backtrack;
  with_backtrack.backtrack = 300;
  double plain = 0.0, backtracked = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    plain += Recall(
        index->Search(tw.workload.queries.Row(q), no_backtrack), tw.truth[q],
        10);
    backtracked += Recall(
        index->Search(tw.workload.queries.Row(q), with_backtrack),
        tw.truth[q], 10);
  }
  EXPECT_GE(backtracked, plain);
}

// ---------- HNSW ----------

TEST(HnswDetailTest, SearchIsDeterministic) {
  const TestWorkload& tw = SharedWorkload();
  HnswIndex index(HnswIndex::Params{});
  index.Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 60;
  for (uint32_t q = 0; q < 5; ++q) {
    EXPECT_EQ(index.Search(tw.workload.queries.Row(q), params),
              index.Search(tw.workload.queries.Row(q), params));
  }
}

TEST(HnswDetailTest, LargerEfConstructionNotWorse) {
  const TestWorkload& tw = SharedWorkload();
  HnswIndex::Params small;
  small.ef_construction = 20;
  HnswIndex::Params large = small;
  large.ef_construction = 150;
  HnswIndex a(small), b(large);
  a.Build(tw.workload.base);
  b.Build(tw.workload.base);
  EXPECT_GE(MeanRecall(b, tw, 10, 60) + 0.03, MeanRecall(a, tw, 10, 60));
}

}  // namespace
}  // namespace weavess
