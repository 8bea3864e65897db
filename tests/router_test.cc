// Tests for the C7 routing strategies and C4/C6 seed providers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <set>

#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "graph/exact_knng.h"
#include "search/router.h"
#include "search/seed.h"

namespace weavess {
namespace {

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_base = 800;
    spec.dim = 10;
    spec.num_queries = 30;
    // A single cluster: routing tests exercise navigation mechanics, not
    // cross-cluster escape (which needs seed coverage, tested elsewhere).
    spec.num_clusters = 1;
    spec.stddev = 15.0f;
    spec.seed = 5;
    workload_ = GenerateSynthetic(spec);
    // Undirected exact KNNG: a navigable substrate for routing tests (a
    // raw directed KNNG is poorly navigable — the paper's own point about
    // KNNG-based algorithms needing reverse edges, §3.2/A4).
    const Graph knng = BuildExactKnng(workload_.base, 12);
    graph_ = Graph(knng.size());
    for (uint32_t v = 0; v < knng.size(); ++v) {
      for (uint32_t u : knng.Neighbors(v)) graph_.AddUndirectedEdge(v, u);
    }
    truth_ = ComputeGroundTruth(workload_.base, workload_.queries, 10);
  }

  double RouteRecall(
      const std::function<void(const float*, DistanceOracle&, SearchContext&,
                               CandidatePool&)>& route,
      uint32_t pool_size = 60) {
    SearchContext ctx(workload_.base.size());
    double total = 0.0;
    for (uint32_t q = 0; q < workload_.queries.size(); ++q) {
      ctx.BeginQuery(workload_.base.size());
      DistanceOracle oracle(workload_.base, nullptr);
      CandidatePool pool(pool_size);
      SeedPool({0, 100, 200, 300}, workload_.queries.Row(q), oracle, ctx,
               pool);
      route(workload_.queries.Row(q), oracle, ctx, pool);
      total += Recall(IdsOf(pool.TopScored(10)), truth_[q], 10);
    }
    return total / workload_.queries.size();
  }

  Workload workload_;
  Graph graph_;
  GroundTruth truth_;
};

TEST_F(RouterTest, SeedPoolEvaluatesAndMarksVisited) {
  SearchContext ctx(workload_.base.size());
  ctx.BeginQuery(workload_.base.size());
  DistanceCounter counter;
  DistanceOracle oracle(workload_.base, &counter);
  CandidatePool pool(10);
  SeedPool({1, 2, 3, 2}, workload_.queries.Row(0), oracle, ctx, pool);
  EXPECT_EQ(pool.size(), 3u);      // duplicate seed skipped
  EXPECT_EQ(counter.count, 3u);    // one evaluation per distinct seed
  EXPECT_TRUE(ctx.visited.Visited(1));
}

TEST_F(RouterTest, BestFirstSearchReachesHighRecall) {
  const double recall = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        BestFirstSearch(graph_, q, oracle, ctx, pool);
      });
  EXPECT_GT(recall, 0.85);
}

TEST_F(RouterTest, BestFirstCountsHopsAndDistances) {
  SearchContext ctx(workload_.base.size());
  ctx.BeginQuery(workload_.base.size());
  DistanceCounter counter;
  DistanceOracle oracle(workload_.base, &counter);
  CandidatePool pool(40);
  SeedPool({0}, workload_.queries.Row(0), oracle, ctx, pool);
  BestFirstSearch(graph_, workload_.queries.Row(0), oracle, ctx, pool);
  EXPECT_GT(ctx.hops, 0u);
  EXPECT_GT(counter.count, ctx.hops);  // several evals per expansion
}

TEST_F(RouterTest, LargerPoolNeverHurtsRecallMuch) {
  double small = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        BestFirstSearch(graph_, q, oracle, ctx, pool);
      },
      20);
  double large = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        BestFirstSearch(graph_, q, oracle, ctx, pool);
      },
      200);
  EXPECT_GE(large + 0.02, small);
  EXPECT_GT(large, 0.9);
}

TEST_F(RouterTest, BacktrackNotWorseThanPlainBestFirst) {
  const double plain = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        BestFirstSearch(graph_, q, oracle, ctx, pool);
      },
      30);
  const double backtracked = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        BacktrackSearch(graph_, q, oracle, ctx, pool, 200);
      },
      30);
  EXPECT_GE(backtracked + 1e-9, plain);
}

TEST_F(RouterTest, RangeSearchLargerEpsilonNotWorse) {
  const double tight = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        RangeSearch(graph_, q, oracle, ctx, pool, 0.0f);
      },
      30);
  const double loose = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        RangeSearch(graph_, q, oracle, ctx, pool, 0.4f);
      },
      30);
  EXPECT_GE(loose + 0.02, tight);
  EXPECT_GT(loose, 0.8);
}

TEST_F(RouterTest, GuidedSearchCheaperThanBestFirst) {
  uint64_t guided_ndc = 0, plain_ndc = 0;
  SearchContext ctx(workload_.base.size());
  for (uint32_t q = 0; q < workload_.queries.size(); ++q) {
    {
      ctx.BeginQuery(workload_.base.size());
      DistanceCounter counter;
      DistanceOracle oracle(workload_.base, &counter);
      CandidatePool pool(60);
      SeedPool({0, 100}, workload_.queries.Row(q), oracle, ctx, pool);
      GuidedSearch(graph_, workload_.base, workload_.queries.Row(q), oracle,
                   ctx, pool);
      guided_ndc += counter.count;
    }
    {
      ctx.BeginQuery(workload_.base.size());
      DistanceCounter counter;
      DistanceOracle oracle(workload_.base, &counter);
      CandidatePool pool(60);
      SeedPool({0, 100}, workload_.queries.Row(q), oracle, ctx, pool);
      BestFirstSearch(graph_, workload_.queries.Row(q), oracle, ctx, pool);
      plain_ndc += counter.count;
    }
  }
  EXPECT_LT(guided_ndc, plain_ndc);  // the point of guided search (§4.2)
}

TEST_F(RouterTest, TwoStageAtLeastAsAccurateAsGuided) {
  const double guided = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        GuidedSearch(graph_, workload_.base, q, oracle, ctx, pool);
      });
  const double two_stage = RouteRecall(
      [this](const float* q, DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) {
        TwoStageSearch(graph_, workload_.base, q, oracle, ctx, pool);
      });
  EXPECT_GE(two_stage + 0.02, guided);
}

// ---------- Seed providers ----------

TEST_F(RouterTest, RandomSeedProviderYieldsDistinctValidSeeds) {
  RandomSeedProvider provider(workload_.base.size(), 8, 3);
  SearchContext ctx(workload_.base.size());
  ctx.BeginQuery(workload_.base.size());
  DistanceOracle oracle(workload_.base, nullptr);
  CandidatePool pool(16);
  provider.Seed(workload_.queries.Row(0), oracle, ctx, pool);
  EXPECT_EQ(pool.size(), 8u);
}

TEST_F(RouterTest, FixedSeedProviderAlwaysSame) {
  FixedSeedProvider provider({4, 9});
  SearchContext ctx(workload_.base.size());
  DistanceOracle oracle(workload_.base, nullptr);
  for (int round = 0; round < 3; ++round) {
    ctx.BeginQuery(workload_.base.size());
    CandidatePool pool(8);
    provider.Seed(workload_.queries.Row(0), oracle, ctx, pool);
    ASSERT_EQ(pool.size(), 2u);
    std::set<uint32_t> ids = {pool[0].id, pool[1].id};
    EXPECT_TRUE(ids.count(4) && ids.count(9));
  }
}

TEST_F(RouterTest, TreeSeedProvidersProduceNearbySeeds) {
  auto forest = std::make_shared<KdForest>(workload_.base, 2, 16, 11);
  KdForestSeedProvider kd_provider(forest, 100);
  KdLeafSeedProvider leaf_provider(forest, 20);
  VpTree::Params vp_params;
  auto vp_tree = std::make_shared<VpTree>(workload_.base, vp_params);
  VpTreeSeedProvider vp_provider(vp_tree, 5, 100);

  SearchContext ctx(workload_.base.size());
  DistanceOracle oracle(workload_.base, nullptr);
  std::vector<SeedProvider*> providers = {&kd_provider, &leaf_provider,
                                          &vp_provider};
  // Tree seeds must land closer to the query than blind random seeds on
  // average (that is their entire purpose, Fig. 10d).
  RandomSeedProvider random_provider(workload_.base.size(), 10, 1);
  for (SeedProvider* provider : providers) {
    double tree_best = 0.0, random_best = 0.0;
    for (uint32_t q = 0; q < workload_.queries.size(); ++q) {
      ctx.BeginQuery(workload_.base.size());
      CandidatePool tree_pool(16);
      provider->Seed(workload_.queries.Row(q), oracle, ctx, tree_pool);
      ASSERT_GT(tree_pool.size(), 0u);
      tree_best += std::sqrt(tree_pool[0].distance);

      ctx.BeginQuery(workload_.base.size());
      CandidatePool random_pool(16);
      random_provider.Seed(workload_.queries.Row(q), oracle, ctx,
                           random_pool);
      random_best += std::sqrt(random_pool[0].distance);
    }
    EXPECT_LT(tree_best, random_best);
  }
}

TEST_F(RouterTest, LshSeedProviderReturnsSeeds) {
  auto table = std::make_shared<LshTable>(workload_.base, LshTable::Params{});
  LshSeedProvider provider(table, 20);
  SearchContext ctx(workload_.base.size());
  ctx.BeginQuery(workload_.base.size());
  DistanceOracle oracle(workload_.base, nullptr);
  CandidatePool pool(32);
  provider.Seed(workload_.queries.Row(0), oracle, ctx, pool);
  EXPECT_GT(pool.size(), 0u);
  EXPECT_LE(pool.size(), 20u + 12u);  // max_seeds plus pool slack
}

}  // namespace
}  // namespace weavess
