// Shared helpers for the test suites: small deterministic workloads with
// precomputed ground truth.
#ifndef WEAVESS_TESTS_TEST_UTIL_H_
#define WEAVESS_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/index.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"

namespace weavess::testing {

struct TestWorkload {
  Workload workload;
  GroundTruth truth;  // top-20 exact neighbors per query
};

inline TestWorkload MakeTestWorkload(uint32_t num_base = 1200,
                                     uint32_t dim = 16,
                                     uint32_t num_queries = 40,
                                     uint32_t clusters = 6,
                                     float stddev = 6.0f,
                                     uint64_t seed = 99) {
  SyntheticSpec spec;
  spec.num_base = num_base;
  spec.dim = dim;
  spec.num_queries = num_queries;
  spec.num_clusters = clusters;
  spec.stddev = stddev;
  spec.seed = seed;
  TestWorkload out{GenerateSynthetic(spec, "test"), {}};
  out.truth =
      ComputeGroundTruth(out.workload.base, out.workload.queries, 20);
  return out;
}

/// Mean Recall@k of an index over a full workload.
inline double MeanRecall(AnnIndex& index, const TestWorkload& tw, uint32_t k,
                         uint32_t pool_size) {
  SearchParams params;
  params.k = k;
  params.pool_size = pool_size;
  double total = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const auto result = index.Search(tw.workload.queries.Row(q), params);
    total += Recall(result, tw.truth[q], k);
  }
  return total / tw.workload.queries.size();
}

/// Checks SearchScored's contract for every row of `queries` under
/// `params`: at most k entries, closest first, each distance bit-equal to
/// L2Sqr to the returned row of `base`, and SearchWith returning the same
/// ids. Returns each query's list for further checks.
inline std::vector<std::vector<ScoredId>> ExpectExactScores(
    const AnnIndex& index, const Dataset& base, const Dataset& queries,
    const SearchParams& params) {
  SearchScratch scratch;
  std::vector<std::vector<ScoredId>> lists;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE(::testing::Message() << index.name() << ", query " << q);
    const float* query = queries.Row(q);
    std::vector<ScoredId> scored = index.SearchScored(scratch, query, params);
    EXPECT_LE(scored.size(), params.k);
    for (size_t i = 0; i < scored.size(); ++i) {
      const float exact = L2Sqr(query, base.Row(scored[i].id), base.dim());
      EXPECT_EQ(std::bit_cast<uint32_t>(scored[i].distance),
                std::bit_cast<uint32_t>(exact))
          << "entry " << i << ": " << scored[i].distance << " vs " << exact;
      if (i > 0) {
        EXPECT_LE(scored[i - 1].distance, scored[i].distance);
      }
    }
    EXPECT_EQ(IdsOf(scored), index.SearchWith(scratch, query, params));
    lists.push_back(std::move(scored));
  }
  return lists;
}

/// Streaming FNV-1a 64 over raw bytes: the hash behind the trace and
/// structure pins.
class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ bytes[i]) * 0x100000001b3ULL;
    }
  }
  void Add(uint64_t value) { Bytes(&value, sizeof(value)); }
  /// Folds one query's trace: its result ids, distance_evals, hops and
  /// truncated flag.
  void Query(const std::vector<uint32_t>& ids, const QueryStats& stats) {
    Add(ids.size());
    for (uint32_t id : ids) Add(id);
    Add(stats.distance_evals);
    Add(stats.hops);
    Add(stats.truncated ? 1 : 0);
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace weavess::testing

#endif  // WEAVESS_TESTS_TEST_UTIL_H_
