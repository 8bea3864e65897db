// Tests of the unified seven-component pipeline: every component choice
// builds a working index (the precondition for the Fig. 10 component study),
// connectivity assurance holds, and builds are deterministic under a seed.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/metrics.h"
#include "pipeline/pipeline.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::MeanRecall;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(1000, 12, 40, 5, 6.0f, 77));
  return *kWorkload;
}

PipelineConfig BaseConfig() {
  PipelineConfig config;
  config.nn_descent.k = 16;
  config.nn_descent.iterations = 5;
  config.max_degree = 16;
  config.candidate_limit = 60;
  config.candidate_search_pool = 60;
  return config;
}

double BuildAndMeasure(const PipelineConfig& config) {
  PipelineIndex index("probe", config);
  index.Build(SharedWorkload().workload.base);
  return MeanRecall(index, SharedWorkload(), 10, 120);
}

// ---------- C1 choices ----------

struct InitCase {
  InitKind kind;
  const char* label;
};

class InitFixture : public ::testing::TestWithParam<InitCase> {};

TEST_P(InitFixture, BuildsWithGoodRecall) {
  PipelineConfig config = BaseConfig();
  config.init = GetParam().kind;
  EXPECT_GE(BuildAndMeasure(config), 0.8) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    AllInits, InitFixture,
    ::testing::Values(InitCase{InitKind::kRandom, "random"},
                      InitCase{InitKind::kKdForest, "kdforest"},
                      InitCase{InitKind::kNnDescent, "nndescent"},
                      InitCase{InitKind::kKdNnDescent, "kd_nndescent"},
                      InitCase{InitKind::kBruteForce, "brute"}),
    [](const auto& info) { return info.param.label; });

// ---------- C2 choices ----------

class CandidateFixture : public ::testing::TestWithParam<CandidateKind> {};

TEST_P(CandidateFixture, BuildsWithGoodRecall) {
  PipelineConfig config = BaseConfig();
  config.candidates = GetParam();
  EXPECT_GE(BuildAndMeasure(config), 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllCandidates, CandidateFixture,
                         ::testing::Values(CandidateKind::kNeighbors,
                                           CandidateKind::kExpansion,
                                           CandidateKind::kSearch));

// ---------- C3 choices ----------

class SelectionKindFixture
    : public ::testing::TestWithParam<SelectionKind> {};

TEST_P(SelectionKindFixture, BuildsWithGoodRecall) {
  PipelineConfig config = BaseConfig();
  config.selection = GetParam();
  EXPECT_GE(BuildAndMeasure(config), 0.8);
}

INSTANTIATE_TEST_SUITE_P(AllSelections, SelectionKindFixture,
                         ::testing::Values(SelectionKind::kDistance,
                                           SelectionKind::kRng,
                                           SelectionKind::kAlphaTwoPass,
                                           SelectionKind::kAngle,
                                           SelectionKind::kDpg));

// ---------- C4/C6 choices ----------

class SeedKindFixture : public ::testing::TestWithParam<SeedKind> {};

TEST_P(SeedKindFixture, BuildsWithGoodRecall) {
  PipelineConfig config = BaseConfig();
  config.seeds = GetParam();
  EXPECT_GE(BuildAndMeasure(config), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    AllSeeds, SeedKindFixture,
    ::testing::Values(SeedKind::kRandomPerQuery, SeedKind::kRandomFixed,
                      SeedKind::kCentroid, SeedKind::kKdForest,
                      SeedKind::kKdLeaf, SeedKind::kVpTree,
                      SeedKind::kKMeansTree, SeedKind::kLsh));

// ---------- C7 choices ----------

class RoutingKindFixture : public ::testing::TestWithParam<RoutingKind> {};

TEST_P(RoutingKindFixture, BuildsWithGoodRecall) {
  PipelineConfig config = BaseConfig();
  config.routing = GetParam();
  EXPECT_GE(BuildAndMeasure(config), 0.75);  // guided trades some accuracy
}

INSTANTIATE_TEST_SUITE_P(AllRoutings, RoutingKindFixture,
                         ::testing::Values(RoutingKind::kBestFirst,
                                           RoutingKind::kRange,
                                           RoutingKind::kBacktrack,
                                           RoutingKind::kGuided,
                                           RoutingKind::kTwoStage));

// ---------- C5 ----------

TEST(PipelineConnectivityTest, DfsTreeMakesEverythingReachable) {
  PipelineConfig config = BaseConfig();
  config.connectivity = ConnectivityKind::kDfsTree;
  config.seeds = SeedKind::kCentroid;
  PipelineIndex index("probe", config);
  index.Build(SharedWorkload().workload.base);
  // Root = the medoid; every vertex must be reachable from it.
  bool any_root_reaches_all = false;
  for (uint32_t root = 0; root < index.graph().size(); ++root) {
    if (AllReachableFrom(index.graph(), root)) {
      any_root_reaches_all = true;
      break;
    }
  }
  EXPECT_TRUE(any_root_reaches_all);
}

TEST(PipelineConnectivityTest, RngPruningAloneCanDisconnect) {
  // Documents *why* C5 exists: aggressive pruning without repair can leave
  // unreachable vertices (not guaranteed on every dataset, so this test
  // only asserts the repaired version is never worse).
  PipelineConfig with_fix = BaseConfig();
  with_fix.connectivity = ConnectivityKind::kDfsTree;
  PipelineConfig without_fix = BaseConfig();
  without_fix.connectivity = ConnectivityKind::kNone;
  PipelineIndex repaired("fix", with_fix);
  PipelineIndex raw("raw", without_fix);
  repaired.Build(SharedWorkload().workload.base);
  raw.Build(SharedWorkload().workload.base);
  EXPECT_LE(CountConnectedComponents(repaired.graph()),
            CountConnectedComponents(raw.graph()));
}

// ---------- Misc pipeline behaviour ----------

TEST(PipelineTest, ReverseEdgesMakeGraphSymmetric) {
  PipelineConfig config = BaseConfig();
  config.add_reverse_edges = true;
  // C5's bridging edges are directed and added after undirection, so turn
  // connectivity repair off to observe pure symmetry (as DPG builds).
  config.connectivity = ConnectivityKind::kNone;
  PipelineIndex index("sym", config);
  index.Build(SharedWorkload().workload.base);
  const CsrGraph& graph = index.graph();
  for (uint32_t v = 0; v < graph.size(); v += 31) {
    for (uint32_t u : graph.Neighbors(v)) {
      const auto back = graph.Neighbors(u);
      EXPECT_NE(std::find(back.begin(), back.end(), v), back.end())
          << u << "->" << v;
    }
  }
}

TEST(PipelineTest, DeterministicUnderSeed) {
  PipelineConfig config = BaseConfig();
  config.seeds = SeedKind::kRandomFixed;  // per-query RNG would differ
  PipelineIndex a("a", config), b("b", config);
  a.Build(SharedWorkload().workload.base);
  b.Build(SharedWorkload().workload.base);
  ASSERT_TRUE(a.graph() == b.graph());
  SearchParams params;
  params.k = 10;
  params.pool_size = 80;
  const auto& tw = SharedWorkload();
  for (uint32_t q = 0; q < 10; ++q) {
    EXPECT_EQ(a.Search(tw.workload.queries.Row(q), params),
              b.Search(tw.workload.queries.Row(q), params));
  }
}

TEST(PipelineTest, MaxDegreeRespectedBeforeReverseEdges) {
  PipelineConfig config = BaseConfig();
  config.selection = SelectionKind::kRng;
  config.max_degree = 10;
  config.connectivity = ConnectivityKind::kNone;
  PipelineIndex index("deg", config);
  index.Build(SharedWorkload().workload.base);
  const DegreeStats stats = ComputeDegreeStats(index.graph());
  EXPECT_LE(stats.max, 10u);
}

TEST(PipelineTest, BuildStatsPopulated) {
  PipelineIndex index("stats", BaseConfig());
  index.Build(SharedWorkload().workload.base);
  EXPECT_GT(index.build_stats().seconds, 0.0);
  EXPECT_GT(index.build_stats().distance_evals,
            SharedWorkload().workload.base.size());
}

}  // namespace
}  // namespace weavess
