// Integration tests: every algorithm in the registry builds on a synthetic
// workload and reaches a sane Recall@10, with structural invariants on its
// graph. Parameterized over every registry name (TEST_P), mirroring the
// paper's uniform test environment.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "algorithms/hnsw.h"
#include "algorithms/registry.h"
#include "core/metrics.h"
#include "quant/quantized_index.h"
#include "quant/sq8.h"
#include "search/graph_index.h"
#include "search/loaded_index.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::ExpectExactScores;
using ::weavess::testing::Fnv;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::MeanRecall;
using ::weavess::testing::TestWorkload;

// Overlapping clusters (SD 18 on centers in [0,100]^16): navigable by every
// algorithm. Well-separated clusters legitimately break the algorithms that
// skip connectivity assurance — the paper's own finding (Table 4 shows
// Vamana with thousands of connected components); see
// ConnectivityFinding.VamanaDisconnectsOnSeparatedClusters below.
const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(1500, 16, 50, 6, 18.0f, 31));
  return *kWorkload;
}

AlgorithmOptions SmallOptions() {
  AlgorithmOptions options;
  options.knng_degree = 20;
  options.max_degree = 20;
  options.build_pool = 60;
  options.nn_descent_iters = 6;
  return options;
}

// A registry name as a gtest name: '-' and ':' become '_'.
std::string TestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-' || c == ':') c = '_';
  }
  return name;
}

class AlgorithmFixture : public ::testing::TestWithParam<std::string> {};

TEST_P(AlgorithmFixture, BuildsAndReachesRecall) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm(GetParam(), SmallOptions());
  ASSERT_NE(index, nullptr);
  index->Build(tw.workload.base);

  // Structural invariants.
  const CsrGraph& graph = index->graph();
  ASSERT_EQ(graph.size(), tw.workload.base.size());
  for (uint32_t v = 0; v < graph.size(); ++v) {
    std::set<uint32_t> seen;
    for (uint32_t u : graph.Neighbors(v)) {
      EXPECT_NE(u, v) << "self loop at " << v;
      EXPECT_LT(u, graph.size());
      EXPECT_TRUE(seen.insert(u).second) << "duplicate edge at " << v;
    }
  }
  EXPECT_GT(graph.NumEdges(), graph.size());  // nontrivial connectivity
  EXPECT_GT(index->IndexMemoryBytes(), 0u);
  EXPECT_GT(index->build_stats().seconds, 0.0);
  EXPECT_GT(index->build_stats().distance_evals, 0u);

  // Search quality: generous pool, modest bar — per-algorithm tuning is the
  // benchmarks' job; the integration bar catches broken algorithms. Vamana
  // gets a lower bar: without connectivity assurance (C5) it fragments on
  // clustered data — the paper's own finding (Table 4 reports Vamana CC up
  // to 5,982 and "we do not receive the results achieved in the original
  // paper", Appendix D).
  const double bar = GetParam() == "Vamana" ? 0.50 : 0.80;
  const double recall = MeanRecall(*index, tw, 10, 200);
  EXPECT_GE(recall, bar) << GetParam() << " recall@10 = " << recall;

  // Per-query stats populated.
  SearchParams params;
  params.k = 10;
  params.pool_size = 100;
  QueryStats stats;
  const auto result =
      index->Search(tw.workload.queries.Row(0), params, &stats);
  EXPECT_LE(result.size(), 10u);
  EXPECT_GT(stats.distance_evals, 0u);
  EXPECT_GT(stats.hops, 0u);
}

TEST_P(AlgorithmFixture, ResultsAreValidIds) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm(GetParam(), SmallOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 50;
  for (uint32_t q = 0; q < 5; ++q) {
    const auto result = index->Search(tw.workload.queries.Row(q), params);
    std::set<uint32_t> unique;
    for (uint32_t id : result) {
      EXPECT_LT(id, tw.workload.base.size());
      EXPECT_TRUE(unique.insert(id).second);
    }
  }
}

// ---------- Search-trace pins ----------
//
// Every query of the shared workload is searched at k = 10, pool 40, once
// unbounded and once under a distance-eval budget low enough to truncate.
// Each run folds every query's result ids, distance_evals, hops and
// truncated flag into one FNV-1a hash. The pins were recorded from the
// per-index query loops that GraphIndex::SearchWith replaced; a moved pin
// means a search's results or its work changed, not only its code.

constexpr uint32_t kPinPool = 40;
constexpr uint64_t kPinBudget = 100;

struct TracePin {
  uint64_t unbounded;
  uint64_t budgeted;
};

// Hashes the search traces of every workload query; `truncated` counts the
// queries whose budget tripped.
uint64_t HashSearchTraces(const AnnIndex& index, uint64_t max_distance_evals,
                          uint32_t* truncated) {
  const TestWorkload& tw = SharedWorkload();
  SearchScratch scratch(index.graph().size());
  SearchParams params;
  params.k = 10;
  params.pool_size = kPinPool;
  params.max_distance_evals = max_distance_evals;
  Fnv hash;
  *truncated = 0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    const std::vector<uint32_t> ids = index.SearchWith(
        scratch, tw.workload.queries.Row(q), params, &stats);
    hash.Query(ids, stats);
    if (stats.truncated) ++*truncated;
  }
  return hash.value();
}

void ExpectTracePin(const AnnIndex& index, const TracePin& expected) {
  uint32_t truncated = 0;
  EXPECT_EQ(HashSearchTraces(index, 0, &truncated), expected.unbounded)
      << index.name() << " unbounded";
  EXPECT_EQ(truncated, 0u) << index.name();
  EXPECT_EQ(HashSearchTraces(index, kPinBudget, &truncated),
            expected.budgeted)
      << index.name() << " budget " << kPinBudget;
  EXPECT_GT(truncated, 0u) << index.name() << " never truncated";
}

const std::map<std::string, TracePin>& TracePins() {
  static const auto* const kPins = new std::map<std::string, TracePin>{
      {"KGraph", {0x3015294218d27112ULL, 0xd5d4b41c7e114d0bULL}},
      {"NGT-panng", {0x156b8f11783edd52ULL, 0x9f25f01e5367ea12ULL}},
      {"NGT-onng", {0x0a6d2001a82cae7eULL, 0x652a8c3e4f4f1327ULL}},
      {"SPTAG-KDT", {0xe6c167ccd2ddc84eULL, 0x6b6fba963dd75444ULL}},
      {"SPTAG-BKT", {0xbbeae086f988a8c8ULL, 0x4af6a5391aee8621ULL}},
      {"NSW", {0x2fa4941e972fbbf3ULL, 0x8d7db26b1b0b9b63ULL}},
      {"IEH", {0x622c636cc328baf1ULL, 0x2fd2e7c9cd833808ULL}},
      {"FANNG", {0x60837e2fd29a0788ULL, 0x16abc09f06754e6aULL}},
      {"HNSW", {0x116ed5256b4a67a6ULL, 0x507d7cf032f68672ULL}},
      {"EFANNA", {0xb4a449e4e81c9e17ULL, 0xe03c29c4074b1ae0ULL}},
      {"DPG", {0x2e4983cd8390a032ULL, 0xfe3f3f42ce5776c0ULL}},
      {"NSG", {0xb203f6253fbaef33ULL, 0xc5edc3c4dac3ecefULL}},
      {"HCNNG", {0xbb326dfd5849ce29ULL, 0xeef64291b7f7475cULL}},
      {"Vamana", {0x488e51062f96e4d4ULL, 0x28fdbd297ea34b4bULL}},
      {"NSSG", {0x8753fcbd2841853dULL, 0x76775c14fbebe6ceULL}},
      {"k-DR", {0x88d30486eed6453fULL, 0x951dde9eed9e3207ULL}},
      {"OA", {0xefb4240b7bc508f5ULL, 0x8664115a9c4bb9d8ULL}},
      {"Dynamic:HNSW", {0xa9629322df38ebaeULL, 0x0e900c216f378890ULL}},
      {"SQ8:NSG", {0xc42f10df98ad5ef8ULL, 0x01688a352e4900a5ULL}},
      {"LoadedGraph:NSG", {0xb0961e902715acefULL, 0x23e70b8322546648ULL}},
  };
  return *kPins;
}

TEST_P(AlgorithmFixture, SearchTraceIsPinned) {
  auto index = CreateAlgorithm(GetParam(), SmallOptions());
  index->Build(SharedWorkload().workload.base);
  const auto pin = TracePins().find(GetParam());
  ASSERT_NE(pin, TracePins().end()) << "no trace pin for " << GetParam();
  ExpectTracePin(*index, pin->second);
}

TEST(SearchTracePinTest, QuantizedNsg) {
  auto index = CreateAlgorithm("SQ8:NSG", SmallOptions());
  index->Build(SharedWorkload().workload.base);
  ExpectTracePin(*index, TracePins().at("SQ8:NSG"));
}

TEST(SearchTracePinTest, LoadedNsgGraph) {
  const Dataset& base = SharedWorkload().workload.base;
  auto nsg = CreateAlgorithm("NSG", SmallOptions());
  nsg->Build(base);
  const LoadedGraphIndex loaded(nsg->graph(), base, "NSG");
  ExpectTracePin(loaded, TracePins().at("LoadedGraph:NSG"));
}

// ---------- Scored results ----------
//
// SearchScored hands out the distance its frame computed for each result;
// it must be the exact L2Sqr to that row, bit for bit, unbounded and under
// a truncating budget.

void ExpectExactScoresUnboundedAndBudgeted(const AnnIndex& index) {
  const Workload& workload = SharedWorkload().workload;
  SearchParams params;
  params.k = 10;
  params.pool_size = kPinPool;
  for (const uint64_t budget : {uint64_t{0}, kPinBudget}) {
    params.max_distance_evals = budget;
    ExpectExactScores(index, workload.base, workload.queries, params);
  }
}

TEST_P(AlgorithmFixture, SearchScoredCarriesExactDistances) {
  auto index = CreateAlgorithm(GetParam(), SmallOptions());
  index->Build(SharedWorkload().workload.base);
  ExpectExactScoresUnboundedAndBudgeted(*index);
}

TEST(SearchScoredTest, QuantizedIndexCarriesItsExactRescore) {
  auto index = CreateAlgorithm("SQ8:NSG", SmallOptions());
  index->Build(SharedWorkload().workload.base);
  ExpectExactScoresUnboundedAndBudgeted(*index);
}

// ---------- Index size (IS, Fig. 6) ----------
//
// An index holds its graph once, as the CsrGraph graph() returns, so IS is
// that graph's bytes plus the index's own auxiliary structures, each
// counted once.

class IndexSizeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(IndexSizeTest, CountsEachEdgeOnce) {
  const TestWorkload small_workload =
      MakeTestWorkload(300, 16, 1, 6, 18.0f, 5);
  const Dataset& base = small_workload.workload.base;
  const AlgorithmOptions options = SmallOptions();
  auto index = CreateAlgorithm(GetParam(), options);
  index->Build(base);
  const size_t bytes = index->IndexMemoryBytes();
  if (const auto* graph_index = dynamic_cast<const GraphIndex*>(index.get())) {
    EXPECT_EQ(bytes, graph_index->graph().MemoryBytes() +
                         graph_index->seeds().MemoryBytes());
  } else if (const auto* sq8 =
                 dynamic_cast<const QuantizedIndex*>(index.get())) {
    // The inner index's graph, routed on as it is, plus the codes.
    auto inner = CreateAlgorithm(GetParam().substr(4), options);
    inner->Build(base);
    EXPECT_TRUE(sq8->graph() == inner->graph());
    EXPECT_EQ(bytes, sq8->graph().MemoryBytes() + sq8->CodeMemoryBytes());
  } else if (const auto* sharded =
                 dynamic_cast<const ShardedIndex*>(index.get())) {
    // The composed CSR + per shard: id map, row subset and inner index
    // (rebuilt here from the shard's derived seed, bit-for-bit).
    size_t expected = sharded->graph().MemoryBytes();
    for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
      const Dataset rows = base.Subset(sharded->shard_ids(s));
      AlgorithmOptions shard_options = options;
      shard_options.build_threads = 1;
      shard_options.seed = DeriveShardSeed(options.seed, s);
      auto shard = CreateAlgorithm(sharded->algorithm(), shard_options);
      shard->Build(rows);
      expected += rows.size() * sizeof(uint32_t) + rows.MemoryBytes() +
                  shard->IndexMemoryBytes();
    }
    EXPECT_EQ(bytes, expected);
  } else {
    // HNSW: pages and tables only; graph()'s level-0 snapshot is not IS.
    ASSERT_NE(dynamic_cast<const HnswIndex*>(index.get()), nullptr);
  }
}

std::vector<std::string> IndexSizeNames() {
  std::vector<std::string> names = AlgorithmNames();
  names.insert(names.end(), {"SQ8:NSG", "SQ8:HNSW", "Sharded:NSG"});
  return names;
}

INSTANTIATE_TEST_SUITE_P(RegistryAndWrappers, IndexSizeTest,
                         ::testing::ValuesIn(IndexSizeNames()), TestName);

TEST(IndexSizeLoadedTest, LoadedQuantizedIndexOwnsOneGraph) {
  const Dataset& base = SharedWorkload().workload.base;
  auto nsg = CreateAlgorithm("NSG", SmallOptions());
  nsg->Build(base);
  const QuantizedIndex loaded(nsg->graph(), SQ8Codec::Train(base).Encode(base),
                              base, "NSG");
  EXPECT_TRUE(loaded.graph() == nsg->graph());
  EXPECT_EQ(loaded.IndexMemoryBytes(),
            loaded.graph().MemoryBytes() + loaded.CodeMemoryBytes());
}

// ---------- Scratch reuse ----------
//
// A scratch grows to cover whatever index it is handed, so one scratch
// carried from a small index to a larger one and back must trace every
// query exactly like a fresh scratch does, unbounded and under a budget.

uint64_t TraceWith(const AnnIndex& index, SearchScratch& scratch) {
  const Dataset& queries = SharedWorkload().workload.queries;
  SearchParams params;
  params.k = 10;
  params.pool_size = kPinPool;
  Fnv hash;
  for (const uint64_t budget : {uint64_t{0}, kPinBudget}) {
    params.max_distance_evals = budget;
    for (uint32_t q = 0; q < queries.size(); ++q) {
      QueryStats stats;
      hash.Query(index.SearchWith(scratch, queries.Row(q), params, &stats),
                 stats);
      hash.Add(stats.quantized_evals);
      hash.Add(stats.rescore_evals);
    }
  }
  return hash.value();
}

class ScratchReuseTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ScratchReuseTest, OneScratchServesSmallThenLargeThenSmall) {
  const TestWorkload small_workload =
      MakeTestWorkload(300, 16, 1, 6, 18.0f, 5);
  auto small = CreateAlgorithm(GetParam(), SmallOptions());
  small->Build(small_workload.workload.base);
  auto large = CreateAlgorithm(GetParam(), SmallOptions());
  large->Build(SharedWorkload().workload.base);

  SearchScratch fresh_small, fresh_large;
  const uint64_t small_trace = TraceWith(*small, fresh_small);
  const uint64_t large_trace = TraceWith(*large, fresh_large);
  SearchScratch reused;
  EXPECT_EQ(TraceWith(*small, reused), small_trace);
  EXPECT_EQ(TraceWith(*large, reused), large_trace);
  EXPECT_EQ(TraceWith(*small, reused), small_trace);
}

INSTANTIATE_TEST_SUITE_P(GraphHnswQuantized, ScratchReuseTest,
                         ::testing::Values("NSG", "HNSW", "SQ8:HNSW"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == ':') c = '_';
                           }
                           return name;
                         });

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmFixture,
                         ::testing::ValuesIn(AlgorithmNames()), TestName);

TEST(RegistryTest, NamesAreKnownAndConstructible) {
  EXPECT_EQ(AlgorithmNames().size(), 18u);
  for (const std::string& name : AlgorithmNames()) {
    EXPECT_TRUE(IsKnownAlgorithm(name));
    EXPECT_NE(CreateAlgorithm(name), nullptr);
  }
  EXPECT_FALSE(IsKnownAlgorithm("NotAnAlgorithm"));
}

TEST(RegistryTest, IndexReportsItsCanonicalName) {
  for (const std::string& name : AlgorithmNames()) {
    EXPECT_EQ(CreateAlgorithm(name)->name(), name);
  }
}

// ---------- The paper's connectivity finding (Fig. 10e / Table 4) ----------

TEST(ConnectivityFinding, VamanaDisconnectsOnSeparatedClustersNsgDoesNot) {
  // On well-separated clusters, Vamana (no C5) fragments into roughly one
  // component per cluster, while NSG's DFS tree-grow keeps one component —
  // reproducing Table 4 (Vamana CC in the thousands, NSG CC = 1) and the
  // C5 comparison of Fig. 10(e).
  const TestWorkload tw = MakeTestWorkload(1200, 16, 30, 6, 5.0f, 47);
  AlgorithmOptions options = SmallOptions();
  auto vamana = CreateAlgorithm("Vamana", options);
  auto nsg = CreateAlgorithm("NSG", options);
  vamana->Build(tw.workload.base);
  nsg->Build(tw.workload.base);
  const uint32_t vamana_cc = CountConnectedComponents(vamana->graph());
  const uint32_t nsg_cc = CountConnectedComponents(nsg->graph());
  EXPECT_GE(vamana_cc, 2u);
  EXPECT_EQ(nsg_cc, 1u);
  EXPECT_GT(MeanRecall(*nsg, tw, 10, 200),
            MeanRecall(*vamana, tw, 10, 200));
}

// ---------- HNSW specifics ----------

TEST(HnswTest, LevelDistributionDecaysGeometrically) {
  const TestWorkload& tw = SharedWorkload();
  HnswIndex::Params params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(tw.workload.base);
  std::vector<uint32_t> level_counts;
  for (uint32_t v = 0; v < tw.workload.base.size(); ++v) {
    const uint32_t level = index.Level(v);
    if (level >= level_counts.size()) level_counts.resize(level + 1, 0);
    ++level_counts[level];
  }
  ASSERT_GE(level_counts.size(), 2u);  // hierarchy actually formed
  // Level 0 dominates; each next level is much smaller.
  EXPECT_GT(level_counts[0], tw.workload.base.size() / 2);
  EXPECT_LT(level_counts[1], level_counts[0]);
  // Entry point lives on the top level.
  EXPECT_EQ(index.Level(index.entry_point()), index.max_level());
}

TEST(HnswTest, BottomLayerDegreeBounded) {
  const TestWorkload& tw = SharedWorkload();
  HnswIndex::Params params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(tw.workload.base);
  const DegreeStats stats = ComputeDegreeStats(index.graph());
  EXPECT_LE(stats.max, 2 * params.m);  // M0 = 2M enforced by shrink
}

TEST(HnswTest, DescentLayersAreNavigable) {
  // Pins the structure the phase-1 greedy descent relies on (the batched
  // rewrite dropped a dead `l <= max_level_` guard from the descent loop):
  // the entry point tops the hierarchy, and every vertex linked at layer l
  // itself exists at layer l — so descending from max_level down to
  // level + 1 only ever walks vertices present on the layer being
  // searched, and each layer respects its degree bound.
  const TestWorkload& tw = SharedWorkload();
  HnswIndex::Params params;
  params.m = 8;
  HnswIndex index(params);
  index.Build(tw.workload.base);
  ASSERT_GE(index.max_level(), 1u);  // a hierarchy actually formed
  EXPECT_EQ(index.Level(index.entry_point()), index.max_level());
  for (uint32_t v = 0; v < tw.workload.base.size(); ++v) {
    for (uint32_t l = 0; l <= index.Level(v); ++l) {
      const auto& links = index.Neighbors(v, l);
      EXPECT_LE(links.size(), l == 0 ? 2 * params.m : params.m);
      for (uint32_t nb : links) {
        EXPECT_NE(nb, v);
        ASSERT_GE(index.Level(nb), l)
            << "vertex " << v << " links to " << nb << " at layer " << l;
      }
    }
  }
}

}  // namespace
}  // namespace weavess
