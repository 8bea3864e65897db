// Cross-algorithm property sweeps (parameterized): determinism under fixed
// seeds, recall monotonicity in the pool size, structural bounds, and
// robustness on degenerate datasets (duplicates, tiny inputs, dimension 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>

#include "algorithms/registry.h"
#include "core/distance.h"
#include "core/metrics.h"
#include "core/rng.h"
#include "core/topk_merge.h"
#include "search/engine.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

const TestWorkload& SmallWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(600, 10, 20, 1, 15.0f, 3));
  return *kWorkload;
}

AlgorithmOptions TinyOptions() {
  AlgorithmOptions options;
  options.knng_degree = 12;
  options.max_degree = 12;
  options.build_pool = 40;
  options.nn_descent_iters = 4;
  return options;
}

class PropertyFixture : public ::testing::TestWithParam<std::string> {};

TEST_P(PropertyFixture, BuildIsDeterministicUnderSeed) {
  const TestWorkload& tw = SmallWorkload();
  auto a = CreateAlgorithm(GetParam(), TinyOptions());
  auto b = CreateAlgorithm(GetParam(), TinyOptions());
  a->Build(tw.workload.base);
  b->Build(tw.workload.base);
  ASSERT_TRUE(a->graph() == b->graph()) << GetParam() << " differs";
}

TEST_P(PropertyFixture, RecallMonotoneInPoolSize) {
  const TestWorkload& tw = SmallWorkload();
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(tw.workload.base);
  double previous = -1.0;
  for (uint32_t pool : {15u, 60u, 240u}) {
    const double recall =
        ::weavess::testing::MeanRecall(*index, tw, 10, pool);
    // Allow small noise for per-query-random-seed algorithms.
    EXPECT_GE(recall + 0.05, previous)
        << GetParam() << " recall dropped at pool " << pool;
    previous = recall;
  }
  EXPECT_GT(previous, 0.85) << GetParam();
}

TEST_P(PropertyFixture, DegreeBoundsAreSane) {
  const TestWorkload& tw = SmallWorkload();
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(tw.workload.base);
  const DegreeStats stats = ComputeDegreeStats(index->graph());
  EXPECT_GT(stats.average, 1.0) << GetParam();
  // No algorithm should produce a near-complete graph at these settings.
  EXPECT_LT(stats.average, 100.0) << GetParam();
  EXPECT_LT(stats.max, tw.workload.base.size()) << GetParam();
}

TEST_P(PropertyFixture, SurvivesDuplicatePoints) {
  // 300 points, but only ~30 distinct locations: heavy duplication is the
  // classic degenerate case for distance-based tie handling.
  SyntheticSpec spec;
  spec.num_base = 300;
  spec.dim = 6;
  spec.num_queries = 5;
  spec.num_clusters = 1;
  spec.stddev = 5.0f;
  spec.seed = 8;
  Workload workload = GenerateSynthetic(spec);
  for (uint32_t i = 30; i < workload.base.size(); ++i) {
    std::memcpy(workload.base.MutableRow(i), workload.base.Row(i % 30),
                sizeof(float) * workload.base.dim());
  }
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 40;
  const auto result = index->Search(workload.queries.Row(0), params);
  EXPECT_FALSE(result.empty()) << GetParam();
}

TEST_P(PropertyFixture, SurvivesTinyDataset) {
  SyntheticSpec spec;
  spec.num_base = 40;
  spec.dim = 4;
  spec.num_queries = 3;
  spec.num_clusters = 1;
  spec.seed = 5;
  const Workload workload = GenerateSynthetic(spec);
  AlgorithmOptions options;
  options.knng_degree = 8;
  options.max_degree = 8;
  options.build_pool = 16;
  auto index = CreateAlgorithm(GetParam(), options);
  index->Build(workload.base);
  SearchParams params;
  params.k = 3;
  params.pool_size = 20;
  const auto result = index->Search(workload.queries.Row(0), params);
  EXPECT_EQ(result.size(), 3u) << GetParam();
}

TEST_P(PropertyFixture, SurvivesOneDimensionalData) {
  SyntheticSpec spec;
  spec.num_base = 200;
  spec.dim = 1;
  spec.num_queries = 5;
  spec.num_clusters = 2;
  spec.seed = 6;
  const Workload workload = GenerateSynthetic(spec);
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  EXPECT_FALSE(index->Search(workload.queries.Row(0), params).empty())
      << GetParam();
}

TEST_P(PropertyFixture, BatchResultsSortedAndDuplicateFree) {
  const TestWorkload& tw = SmallWorkload();
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  const SearchEngine engine(*index, 4);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  ASSERT_EQ(batch.ids.size(), tw.workload.queries.size());
  for (uint32_t q = 0; q < batch.ids.size(); ++q) {
    const std::vector<uint32_t>& ids = batch.ids[q];
    const float* query = tw.workload.queries.Row(q);
    const std::set<uint32_t> unique(ids.begin(), ids.end());
    EXPECT_EQ(unique.size(), ids.size())
        << GetParam() << " returned duplicates for query " << q;
    for (size_t i = 1; i < ids.size(); ++i) {
      const float prev = L2Sqr(query, tw.workload.base.Row(ids[i - 1]),
                               tw.workload.base.dim());
      const float curr = L2Sqr(query, tw.workload.base.Row(ids[i]),
                               tw.workload.base.dim());
      EXPECT_LE(prev, curr)
          << GetParam() << " result list not ascending for query " << q
          << " at position " << i;
    }
  }
}

TEST_P(PropertyFixture, BatchMatchesLoopedSingleQuerySearch) {
  const TestWorkload& tw = SmallWorkload();
  auto index = CreateAlgorithm(GetParam(), TinyOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  const SearchEngine engine(*index, 4);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    const auto single =
        index->Search(tw.workload.queries.Row(q), params, &stats);
    EXPECT_EQ(batch.ids[q], single)
        << GetParam() << " batch result diverges from looped Search for "
        << "query " << q;
    EXPECT_EQ(batch.stats[q].distance_evals, stats.distance_evals)
        << GetParam() << " query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, PropertyFixture,
                         ::testing::ValuesIn(AlgorithmNames()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == ':') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------- top-k merge properties

// Oracle for TopKAccumulator: sort everything, keep the first k.
std::vector<ScoredId> SortedPrefix(std::vector<ScoredId> all, uint32_t k) {
  std::sort(all.begin(), all.end());
  if (all.size() > k) all.resize(k);
  return all;
}

// SQ8 two-stage search properties, parameterized over base algorithms:
// results are sorted by exact float distance and duplicate-free (the
// rescore stage re-sorts the quantized pool with exact kernels), and at a
// large rescore factor the result set converges to what float traversal
// finds — the quantized walk visits a slightly different region, but
// rescoring enough of its pool recovers the same quality
// (docs/QUANTIZATION.md).
class QuantPropertyFixture : public ::testing::TestWithParam<std::string> {};

TEST_P(QuantPropertyFixture, RescoredResultsSortedDupFreeAndConverging) {
  const TestWorkload& tw = SmallWorkload();
  auto quantized = CreateAlgorithm("SQ8:" + GetParam(), TinyOptions());
  quantized->Build(tw.workload.base);
  auto exact = CreateAlgorithm(GetParam(), TinyOptions());
  exact->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  double recall_small = 0.0;
  double recall_large = 0.0;
  double recall_float = 0.0;
  const uint32_t num_queries = tw.workload.queries.size();
  for (uint32_t q = 0; q < num_queries; ++q) {
    const float* query = tw.workload.queries.Row(q);
    for (uint32_t factor : {1u, 16u}) {
      params.rescore_factor = factor;
      QueryStats stats;
      const auto ids = quantized->Search(query, params, &stats);
      ASSERT_EQ(ids.size(), 10u) << GetParam() << " query " << q;
      const std::set<uint32_t> unique(ids.begin(), ids.end());
      ASSERT_EQ(unique.size(), ids.size())
          << "SQ8:" << GetParam() << " returned duplicates for query " << q
          << " at rescore factor " << factor;
      for (size_t i = 1; i < ids.size(); ++i) {
        const float prev = L2Sqr(query, tw.workload.base.Row(ids[i - 1]),
                                 tw.workload.base.dim());
        const float curr = L2Sqr(query, tw.workload.base.Row(ids[i]),
                                 tw.workload.base.dim());
        ASSERT_LE(prev, curr)
            << "SQ8:" << GetParam() << " not ascending by exact distance "
            << "for query " << q << " at factor " << factor;
      }
      EXPECT_EQ(stats.distance_evals,
                stats.quantized_evals + stats.rescore_evals);
      (factor == 1 ? recall_small : recall_large) +=
          Recall(ids, tw.truth[q], 10);
    }
    recall_float += Recall(exact->Search(query, params), tw.truth[q], 10);
  }
  recall_small /= num_queries;
  recall_large /= num_queries;
  recall_float /= num_queries;
  // More rescoring never hurts on average, and at factor 16 the two-stage
  // search has converged to float-traversal quality.
  EXPECT_GE(recall_large, recall_small - 1e-9) << GetParam();
  EXPECT_GE(recall_large, recall_float - 0.05)
      << GetParam() << ": SQ8 at factor 16 = " << recall_large
      << ", float traversal = " << recall_float;
}

INSTANTIATE_TEST_SUITE_P(BaseAlgorithms, QuantPropertyFixture,
                         ::testing::Values("HNSW", "NSG", "KGraph"),
                         [](const auto& info) { return info.param; });

TEST(TopKMergeProperty, AccumulatorMatchesSortOracle) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t n = static_cast<uint32_t>(rng.NextBounded(200));
    const uint32_t k = static_cast<uint32_t>(rng.NextBounded(20));
    std::vector<ScoredId> all;
    TopKAccumulator acc(k);
    for (uint32_t i = 0; i < n; ++i) {
      // A small distance alphabet forces ties; ids may repeat too.
      const float distance = static_cast<float>(rng.NextBounded(8));
      const uint32_t id = static_cast<uint32_t>(rng.NextBounded(50));
      all.emplace_back(distance, id);
      acc.Push(distance, id);
    }
    EXPECT_EQ(acc.TakeSorted(), SortedPrefix(all, k)) << "trial " << trial;
  }
}

TEST(TopKMergeProperty, AccumulatorWorstDistanceTracksHeapTop) {
  TopKAccumulator acc(3);
  EXPECT_EQ(acc.WorstDistance(),
            std::numeric_limits<float>::infinity());
  acc.Push(5.0f, 1);
  acc.Push(2.0f, 2);
  EXPECT_EQ(acc.WorstDistance(),
            std::numeric_limits<float>::infinity());  // still under-full
  acc.Push(9.0f, 3);
  EXPECT_EQ(acc.WorstDistance(), 9.0f);
  acc.Push(1.0f, 4);  // evicts 9.0
  EXPECT_EQ(acc.WorstDistance(), 5.0f);
}

TEST(TopKMergeProperty, MergedListsSortedDupFreeAndMatchOracle) {
  // MergeTopK over sorted per-source lists must equal: concatenate, keep
  // the best (distance, id) entry per id, sort, take k. Sources overlap on
  // purpose — dedup is the property under test.
  Rng rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const uint32_t num_lists = 1 + static_cast<uint32_t>(rng.NextBounded(6));
    const uint32_t k = static_cast<uint32_t>(rng.NextBounded(15));
    std::vector<std::vector<ScoredId>> lists(num_lists);
    std::vector<ScoredId> all;
    for (auto& list : lists) {
      const uint32_t len = static_cast<uint32_t>(rng.NextBounded(30));
      for (uint32_t i = 0; i < len; ++i) {
        list.emplace_back(static_cast<float>(rng.NextBounded(10)),
                          static_cast<uint32_t>(rng.NextBounded(40)));
      }
      std::sort(list.begin(), list.end());
      all.insert(all.end(), list.begin(), list.end());
    }
    // Oracle: best entry per id, then global top-k.
    std::sort(all.begin(), all.end());
    std::vector<ScoredId> expected;
    std::set<uint32_t> taken;
    for (const ScoredId& entry : all) {
      if (expected.size() == k) break;
      if (taken.insert(entry.id).second) expected.push_back(entry);
    }
    const std::vector<ScoredId> merged = MergeTopK(lists, k);
    EXPECT_EQ(merged, expected) << "trial " << trial;
    // Explicit invariant checks, independent of the oracle.
    for (size_t i = 1; i < merged.size(); ++i) {
      EXPECT_TRUE(merged[i - 1] < merged[i]) << "unsorted at " << i;
    }
    std::set<uint32_t> ids;
    for (const ScoredId& entry : merged) {
      EXPECT_TRUE(ids.insert(entry.id).second)
          << "duplicate id " << entry.id;
    }
  }
}

TEST(TopKMergeProperty, EdgeCases) {
  EXPECT_TRUE(MergeTopK({}, 5).empty());
  EXPECT_TRUE(MergeTopK({{}, {}}, 5).empty());
  EXPECT_TRUE(MergeTopK({{ScoredId(1.0f, 0)}}, 0).empty());
  TopKAccumulator zero(0);
  zero.Push(1.0f, 0);
  EXPECT_EQ(zero.size(), 0u);
}

// Randomized kernel property (docs/KERNELS.md): for any dim, any id
// multiset, and every dispatch level this CPU supports, the batched kernel,
// the per-pair dispatched kernel, and the always-scalar oracle agree bit
// for bit. The exhaustive dim × alignment matrix lives in kernel_test.cc;
// this sweep covers random (dim, n, ids) combinations it does not.
TEST(KernelProperty, BatchedEqualsPerPairEqualsScalarAtEveryLevel) {
  std::vector<KernelLevel> levels;
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2,
                            KernelLevel::kAvx512, KernelLevel::kNeon}) {
    if (KernelLevelSupported(level)) levels.push_back(level);
  }
  const KernelLevel saved = ActiveKernelLevel();
  Rng rng(29);
  for (int trial = 0; trial < 40; ++trial) {
    const uint32_t dim = 1 + static_cast<uint32_t>(rng.NextBounded(300));
    const uint32_t n = 2 + static_cast<uint32_t>(rng.NextBounded(40));
    std::vector<float> flat(static_cast<size_t>(n) * dim);
    for (auto& v : flat) {
      v = static_cast<float>(rng.NextGaussian()) * 3.0f;
    }
    Dataset data(n, dim, flat);
    std::vector<float> query(dim);
    for (auto& v : query) v = static_cast<float>(rng.NextGaussian());
    std::vector<uint32_t> ids(1 + rng.NextBounded(64));
    for (auto& id : ids) id = static_cast<uint32_t>(rng.NextBounded(n));
    std::vector<float> scalar_ref(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      scalar_ref[i] = L2SqrScalar(query.data(), data.Row(ids[i]), dim);
    }
    for (KernelLevel level : levels) {
      ASSERT_TRUE(SetKernelLevel(level));
      std::vector<float> batched(ids.size());
      L2SqrBatch(query.data(), data.RowBase(), data.row_stride(), data.dim(),
                 ids.data(), ids.size(), batched.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(batched[i], L2Sqr(query.data(), data.Row(ids[i]), dim))
            << "trial " << trial << " level " << KernelLevelName(level)
            << " dim " << dim << " i " << i;
        ASSERT_EQ(batched[i], scalar_ref[i])
            << "trial " << trial << " level " << KernelLevelName(level)
            << " dim " << dim << " i " << i;
      }
    }
  }
  ASSERT_TRUE(SetKernelLevel(saved));
}

}  // namespace
}  // namespace weavess
