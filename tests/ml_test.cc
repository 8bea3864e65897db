// Tests for the ML-based optimizations of §5.5: PCA (ML3), learned early
// termination (ML2), and the learned-routing surrogate (ML1).
#include <gtest/gtest.h>

#include <cmath>

#include "algorithms/hnsw.h"
#include "algorithms/nsg.h"
#include "core/distance.h"
#include "ml/early_termination.h"
#include "ml/learned_routing.h"
#include "ml/pca.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::ExpectExactScores;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::MeanRecall;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(1000, 24, 30, 5, 6.0f, 13));
  return *kWorkload;
}

// ---------- PCA (ML3) ----------

TEST(PcaTest, ComponentsAreUnitNormAndOrthogonal) {
  const Dataset& base = SharedWorkload().workload.base;
  PcaModel pca(base, 4);
  const Dataset projected = pca.Project(base);
  EXPECT_EQ(projected.dim(), 4u);
  EXPECT_EQ(projected.size(), base.size());
  // Projected coordinates are decorrelated: covariance off-diagonals small
  // relative to diagonals.
  double cov[4][4] = {{0}};
  std::vector<double> mean(4, 0.0);
  for (uint32_t i = 0; i < projected.size(); ++i) {
    for (int a = 0; a < 4; ++a) mean[a] += projected.Row(i)[a];
  }
  for (auto& m : mean) m /= projected.size();
  for (uint32_t i = 0; i < projected.size(); ++i) {
    for (int a = 0; a < 4; ++a) {
      for (int b = 0; b < 4; ++b) {
        cov[a][b] += (projected.Row(i)[a] - mean[a]) *
                     (projected.Row(i)[b] - mean[b]);
      }
    }
  }
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_LT(std::fabs(cov[a][b]),
                  0.1 * std::sqrt(cov[a][a] * cov[b][b]))
            << a << "," << b;
      }
    }
  }
}

TEST(PcaTest, ExplainedVarianceDescending) {
  const Dataset& base = SharedWorkload().workload.base;
  PcaModel pca(base, 5);
  const auto& variance = pca.explained_variance();
  ASSERT_EQ(variance.size(), 5u);
  for (size_t i = 0; i + 1 < variance.size(); ++i) {
    EXPECT_GE(variance[i] + 1e-4f, variance[i + 1]);
  }
  EXPECT_GT(variance[0], 0.0f);
}

TEST(PcaTest, ProjectionPreservesNeighborhoods) {
  // Local geometry preservation on data with genuinely low intrinsic
  // dimension (the SIFT1M stand-in embeds a ~9-dim latent space in 128
  // ambient dims): the exact NN in the original space should stay among
  // the top few in the projected space. This is ML3's core premise.
  const Workload stand_in = MakeStandIn("SIFT1M", /*scale=*/0.08);
  TestWorkload tw{stand_in, {}};
  PcaModel pca(tw.workload.base, 12);
  const Dataset projected = pca.Project(tw.workload.base);
  int preserved = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const uint32_t i =
        static_cast<uint32_t>(t * 31 + 1) % tw.workload.base.size();
    // Original-space NN.
    uint32_t nn = 0;
    float best = 1e30f;
    for (uint32_t j = 0; j < tw.workload.base.size(); ++j) {
      if (j == i) continue;
      const float dist = L2Sqr(tw.workload.base.Row(i),
                               tw.workload.base.Row(j),
                               tw.workload.base.dim());
      if (dist < best) {
        best = dist;
        nn = j;
      }
    }
    // Projected-space rank of that NN.
    const float nn_proj = L2Sqr(projected.Row(i), projected.Row(nn), 12);
    int rank = 0;
    for (uint32_t j = 0; j < projected.size(); ++j) {
      if (j == i || j == nn) continue;
      if (L2Sqr(projected.Row(i), projected.Row(j), 12) < nn_proj) ++rank;
    }
    if (rank < 10) ++preserved;
  }
  EXPECT_GE(preserved, trials * 2 / 3);
}

TEST(PcaTest, ProjectVectorMatchesDatasetProjection) {
  const Dataset& base = SharedWorkload().workload.base;
  PcaModel pca(base, 3);
  const Dataset projected = pca.Project(base);
  std::vector<float> single(3);
  pca.ProjectVector(base.Row(7), single.data());
  for (int c = 0; c < 3; ++c) {
    EXPECT_FLOAT_EQ(single[c], projected.Row(7)[c]);
  }
}

// ---------- ML2: learned early termination ----------

TEST(Ml2Test, BuildsTrainsAndSearches) {
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  EarlyTerminationIndex::Params params;
  params.train_queries = 60;
  params.max_pool = 300;
  EarlyTerminationIndex index(CreateHnsw(options), params);
  index.Build(tw.workload.base);
  EXPECT_GT(index.training_seconds(), 0.0);
  EXPECT_EQ(index.name(), "HNSW+ML2");
  // Build stats include the training time on top of the base build.
  EXPECT_GE(index.build_stats().seconds, index.training_seconds());

  const double recall = MeanRecall(index, tw, 10, 100);
  EXPECT_GT(recall, 0.8);
}

TEST(Ml2Test, AdaptiveBudgetVariesAcrossQueries) {
  const TestWorkload& tw = SharedWorkload();
  EarlyTerminationIndex::Params params;
  params.train_queries = 60;
  EarlyTerminationIndex index(CreateHnsw(AlgorithmOptions{}), params);
  index.Build(tw.workload.base);
  SearchParams sp;
  sp.k = 10;
  sp.pool_size = 100;
  uint64_t min_ndc = UINT64_MAX, max_ndc = 0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    index.Search(tw.workload.queries.Row(q), sp, &stats);
    min_ndc = std::min(min_ndc, stats.distance_evals);
    max_ndc = std::max(max_ndc, stats.distance_evals);
  }
  EXPECT_LT(min_ndc, max_ndc);  // per-query adaptivity actually happens
}

TEST(Ml2Test, SearchSpendStaysWithinTheCallersBudget) {
  // The probe runs under the caller's budget and the main search gets
  // only what the probe left, so a query overshoots the budget by at most
  // one adjacency list (the budget is checked per expansion). The features
  // are read off the probe's scored results and cost no evaluation.
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  EarlyTerminationIndex::Params params;
  params.train_queries = 60;
  EarlyTerminationIndex index(CreateHnsw(options), params);
  index.Build(tw.workload.base);
  const uint64_t adjacency = options.max_degree;  // HNSW's level-0 bound
  SearchParams sp;
  sp.k = 10;
  sp.pool_size = 100;
  for (const uint64_t budget : {uint64_t{20}, uint64_t{100}}) {
    sp.max_distance_evals = budget;
    uint32_t truncated = 0;
    for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
      QueryStats stats;
      const std::vector<uint32_t> ids =
          index.Search(tw.workload.queries.Row(q), sp, &stats);
      EXPECT_FALSE(ids.empty());
      EXPECT_LE(stats.distance_evals, budget + adjacency)
          << "budget " << budget << ", query " << q;
      if (stats.truncated) ++truncated;
    }
    EXPECT_EQ(truncated, tw.workload.queries.size()) << "budget " << budget;
  }
}

TEST(Ml2Test, SearchScoredCarriesExactDistances) {
  const TestWorkload& tw = SharedWorkload();
  EarlyTerminationIndex::Params params;
  params.train_queries = 60;
  EarlyTerminationIndex index(CreateHnsw(AlgorithmOptions{}), params);
  index.Build(tw.workload.base);
  SearchParams sp;
  sp.k = 10;
  sp.pool_size = 100;
  for (const uint64_t budget : {uint64_t{0}, uint64_t{20}}) {
    sp.max_distance_evals = budget;
    ExpectExactScores(index, tw.workload.base, tw.workload.queries, sp);
  }
}

// ---------- ML1: learned routing ----------

TEST(Ml1Test, PreprocessingInflatesMemoryAndTime) {
  const TestWorkload& tw = SharedWorkload();
  auto base_index = CreateNsg(AlgorithmOptions{});
  base_index->Build(tw.workload.base);
  const size_t base_memory = base_index->IndexMemoryBytes();

  LearnedRoutingIndex::Params params;
  params.num_landmarks = 64;
  LearnedRoutingIndex ml1(CreateNsg(AlgorithmOptions{}), params);
  ml1.Build(tw.workload.base);
  EXPECT_EQ(ml1.name(), "NSG+ML1");
  EXPECT_GT(ml1.preprocessing_seconds(), 0.0);
  // The n x m embedding table dominates: §5.5's memory blow-up.
  EXPECT_GT(ml1.IndexMemoryBytes(),
            base_memory + tw.workload.base.size() * 64 * sizeof(float) / 2);
}

TEST(Ml1Test, SurrogateRoutingKeepsReasonableRecall) {
  const TestWorkload& tw = SharedWorkload();
  LearnedRoutingIndex::Params params;
  params.num_landmarks = 64;
  params.evaluate_fraction = 0.6f;
  LearnedRoutingIndex ml1(CreateNsg(AlgorithmOptions{}), params);
  ml1.Build(tw.workload.base);
  const double recall = MeanRecall(ml1, tw, 10, 150);
  EXPECT_GT(recall, 0.75);
}

TEST(Ml1Test, SearchScoredCarriesExactDistances) {
  const TestWorkload& tw = SharedWorkload();
  LearnedRoutingIndex::Params params;
  params.num_landmarks = 32;
  LearnedRoutingIndex ml1(CreateNsg(AlgorithmOptions{}), params);
  ml1.Build(tw.workload.base);
  SearchParams sp;
  sp.k = 10;
  sp.pool_size = 80;
  ExpectExactScores(ml1, tw.workload.base, tw.workload.queries, sp);
}

TEST(Ml1Test, FilteringReducesDistanceEvaluationsPerHop) {
  const TestWorkload& tw = SharedWorkload();
  auto base_index = CreateNsg(AlgorithmOptions{});
  base_index->Build(tw.workload.base);
  LearnedRoutingIndex::Params params;
  params.num_landmarks = 32;
  params.evaluate_fraction = 0.4f;
  LearnedRoutingIndex ml1(CreateNsg(AlgorithmOptions{}), params);
  ml1.Build(tw.workload.base);

  SearchParams sp;
  sp.k = 10;
  sp.pool_size = 80;
  double base_per_hop = 0.0, ml_per_hop = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats base_stats, ml_stats;
    base_index->Search(tw.workload.queries.Row(q), sp, &base_stats);
    ml1.Search(tw.workload.queries.Row(q), sp, &ml_stats);
    base_per_hop += static_cast<double>(base_stats.distance_evals) /
                    std::max<uint64_t>(1, base_stats.hops);
    // ML1 pays m distances per query for the embedding; exclude them to
    // compare per-hop spend.
    ml_per_hop +=
        static_cast<double>(ml_stats.distance_evals - 32) /
        std::max<uint64_t>(1, ml_stats.hops);
  }
  EXPECT_LT(ml_per_hop, base_per_hop);
}

}  // namespace
}  // namespace weavess
