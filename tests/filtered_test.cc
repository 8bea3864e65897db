// Tests for the hybrid-query (attribute-filtered) search extension:
// correctness of both strategies against filtered brute force, and the
// selectivity tradeoff (post-filter collapses at low selectivity while
// during-routing holds).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "search/filtered.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

class FilteredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tw_ = MakeTestWorkload(1500, 12, 30, 1, 20.0f, 9);
    index_ = CreateAlgorithm("NSG");
    index_->Build(tw_.workload.base);
    // Deterministic labels: ~1/8 selectivity for label 0, rest spread.
    labels_.resize(tw_.workload.base.size());
    for (uint32_t i = 0; i < labels_.size(); ++i) labels_[i] = i % 8;
    searcher_ = std::make_unique<FilteredSearcher>(
        index_.get(), &tw_.workload.base, labels_);
  }

  // Exact filtered k-NN by brute force.
  std::vector<uint32_t> BruteForce(const float* query, uint32_t label,
                                   uint32_t k) {
    std::vector<Neighbor> scored;
    const Dataset& base = tw_.workload.base;
    for (uint32_t i = 0; i < base.size(); ++i) {
      if (labels_[i] != label) continue;
      scored.emplace_back(i, L2Sqr(query, base.Row(i), base.dim()));
    }
    std::sort(scored.begin(), scored.end());
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < k && i < scored.size(); ++i) {
      ids.push_back(scored[i].id);
    }
    return ids;
  }

  double FilteredRecall(FilterStrategy strategy, uint32_t label,
                        uint32_t pool) {
    SearchParams params;
    params.k = 10;
    params.pool_size = pool;
    double total = 0.0;
    const auto& queries = tw_.workload.queries;
    for (uint32_t q = 0; q < queries.size(); ++q) {
      const auto truth = BruteForce(queries.Row(q), label, 10);
      const auto result =
          searcher_->SearchWith(scratch_, queries.Row(q), label, params,
                                strategy);
      total += Recall(result, truth, 10);
    }
    return total / queries.size();
  }

  TestWorkload tw_;
  std::unique_ptr<AnnIndex> index_;
  std::vector<uint32_t> labels_;
  std::unique_ptr<FilteredSearcher> searcher_;
  SearchScratch scratch_;
};

TEST_F(FilteredTest, SelectivityIsMeasuredCorrectly) {
  EXPECT_NEAR(searcher_->Selectivity(0), 1.0 / 8, 0.01);
  EXPECT_DOUBLE_EQ(searcher_->Selectivity(999), 0.0);
}

TEST_F(FilteredTest, ResultsRespectTheLabelConstraint) {
  SearchParams params;
  params.k = 10;
  params.pool_size = 100;
  for (const FilterStrategy strategy :
       {FilterStrategy::kPostFilter, FilterStrategy::kDuringRouting}) {
    const auto result = searcher_->SearchWith(
        scratch_, tw_.workload.queries.Row(0), 3, params, strategy);
    EXPECT_FALSE(result.empty());
    for (uint32_t id : result) EXPECT_EQ(labels_[id], 3u);
  }
}

TEST_F(FilteredTest, DuringRoutingReachesHighFilteredRecall) {
  EXPECT_GT(FilteredRecall(FilterStrategy::kDuringRouting, 2, 150), 0.9);
}

TEST_F(FilteredTest, DuringRoutingBeatsPostFilterAtLowSelectivity) {
  // With 1/8 selectivity and a modest pool, post-filtering discards most
  // of its fetched candidates; during-routing keeps collecting matches.
  const double post = FilteredRecall(FilterStrategy::kPostFilter, 5, 60);
  const double routed =
      FilteredRecall(FilterStrategy::kDuringRouting, 5, 60);
  EXPECT_GT(routed, post);
}

TEST_F(FilteredTest, StatsAreAccumulated) {
  SearchParams params;
  params.k = 10;
  params.pool_size = 80;
  QueryStats stats;
  searcher_->SearchWith(scratch_, tw_.workload.queries.Row(1), 1, params,
                        FilterStrategy::kDuringRouting, &stats);
  EXPECT_GT(stats.distance_evals, 0u);
  EXPECT_GT(stats.hops, 0u);
}

TEST_F(FilteredTest, UnknownLabelReturnsEmpty) {
  SearchParams params;
  params.k = 5;
  params.pool_size = 50;
  const auto result = searcher_->SearchWith(
      scratch_, tw_.workload.queries.Row(0), 999, params,
      FilterStrategy::kDuringRouting);
  EXPECT_TRUE(result.empty());
}

TEST_F(FilteredTest, DuringRoutingOnOneSearcherFromFourThreads) {
  // One const searcher shared by four threads, each with its own scratch:
  // every thread runs every query (twice), and each answer must equal the
  // one-thread run's ids and stats.
  struct Answer {
    std::vector<uint32_t> ids;
    QueryStats stats;
  };
  SearchParams params;
  params.k = 10;
  params.pool_size = 60;
  const Dataset& queries = tw_.workload.queries;
  const FilteredSearcher& searcher = *searcher_;
  auto run = [&](SearchScratch& scratch, uint32_t q) {
    Answer answer;
    answer.ids = searcher.SearchWith(scratch, queries.Row(q), q % 8, params,
                                     FilterStrategy::kDuringRouting,
                                     &answer.stats);
    return answer;
  };
  std::vector<Answer> expected;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    expected.push_back(run(scratch_, q));
  }
  constexpr uint32_t kThreads = 4;
  constexpr uint32_t kRounds = 2;
  std::vector<std::vector<Answer>> got(kThreads);
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      SearchScratch scratch;
      for (uint32_t round = 0; round < kRounds; ++round) {
        for (uint32_t q = 0; q < queries.size(); ++q) {
          got[t].push_back(run(scratch, q));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (uint32_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), kRounds * queries.size());
    for (size_t i = 0; i < got[t].size(); ++i) {
      const Answer& want = expected[i % queries.size()];
      SCOPED_TRACE(::testing::Message() << "thread " << t << ", run " << i);
      EXPECT_EQ(got[t][i].ids, want.ids);
      EXPECT_EQ(got[t][i].stats.distance_evals, want.stats.distance_evals);
      EXPECT_EQ(got[t][i].stats.hops, want.stats.hops);
      EXPECT_EQ(got[t][i].stats.truncated, want.stats.truncated);
    }
  }
}

}  // namespace
}  // namespace weavess
