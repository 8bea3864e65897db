// Sharded index subsystem (docs/SHARDING.md): partitioner invariants, the
// golden scatter-gather == global-brute-force equivalence, build/search
// determinism across thread counts, manifest round trips, and the per-shard
// failure-isolation + repair contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algorithms/registry.h"
#include "core/distance.h"
#include "core/file_io.h"
#include "core/parallel.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "core/topk_merge.h"
#include "fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/serving.h"
#include "shard/manifest.h"
#include "shard/partitioner.h"
#include "shard/scatter_gather.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::ExpectExactScores;
using ::weavess::testing::FlipBit;
using ::weavess::testing::Fnv;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(800, 12, 24));
  return *kWorkload;
}

AlgorithmOptions ShardedOptions(uint32_t num_shards,
                                const char* partitioner = "random") {
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 12;
  options.build_pool = 40;
  options.nn_descent_iters = 3;
  options.num_shards = num_shards;
  options.partitioner = partitioner;
  return options;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Workloads too small for MakeTestWorkload's top-20 ground truth.
Workload TinyWorkload(uint32_t num_base) {
  SyntheticSpec spec;
  spec.num_base = num_base;
  spec.dim = 8;
  spec.num_queries = 2;
  spec.num_clusters = 1;
  spec.seed = 5;
  return GenerateSynthetic(spec, "tiny");
}

std::string MustRead(const std::string& path) {
  std::string bytes;
  Status s = ReadFileToString(path, &bytes);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return bytes;
}

// ------------------------------------------------- partitioner

TEST(PartitionerTest, DisjointCoverSortedForBothKinds) {
  const TestWorkload& tw = SharedWorkload();
  for (PartitionerKind kind :
       {PartitionerKind::kRandom, PartitionerKind::kKMeans}) {
    for (uint32_t num_shards : {1u, 2u, 5u, 8u}) {
      auto shards_or =
          PartitionDataset(tw.workload.base, num_shards, kind, 7);
      ASSERT_TRUE(shards_or.ok());
      ASSERT_EQ(shards_or->size(), num_shards);
      std::vector<bool> seen(tw.workload.base.size(), false);
      for (const std::vector<uint32_t>& shard : *shards_or) {
        for (size_t i = 0; i < shard.size(); ++i) {
          ASSERT_LT(shard[i], tw.workload.base.size());
          ASSERT_FALSE(seen[shard[i]]) << "row assigned twice";
          seen[shard[i]] = true;
          if (i > 0) {
            ASSERT_LT(shard[i - 1], shard[i]) << "ids not sorted";
          }
        }
      }
      for (size_t row = 0; row < seen.size(); ++row) {
        ASSERT_TRUE(seen[row]) << "row " << row << " unassigned";
      }
    }
  }
}

TEST(PartitionerTest, PureFunctionOfSeed) {
  const TestWorkload& tw = SharedWorkload();
  for (PartitionerKind kind :
       {PartitionerKind::kRandom, PartitionerKind::kKMeans}) {
    const auto a = PartitionDataset(tw.workload.base, 4, kind, 11);
    const auto b = PartitionDataset(tw.workload.base, 4, kind, 11);
    const auto c = PartitionDataset(tw.workload.base, 4, kind, 12);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_EQ(*a, *b) << PartitionerName(kind);
    EXPECT_NE(*a, *c) << PartitionerName(kind)
                      << ": different seeds should partition differently";
  }
}

TEST(PartitionerTest, MoreShardsThanRowsYieldsEmptyShards) {
  const Workload tiny = TinyWorkload(3);
  const auto shards_or =
      PartitionDataset(tiny.base, 8, PartitionerKind::kRandom, 1);
  ASSERT_TRUE(shards_or.ok());
  ASSERT_EQ(shards_or->size(), 8u);
  size_t assigned = 0;
  for (const auto& shard : *shards_or) assigned += shard.size();
  EXPECT_EQ(assigned, 3u);
}

TEST(PartitionerTest, ZeroShardsIsInvalidArgument) {
  const TestWorkload& tw = SharedWorkload();
  const auto shards_or = PartitionDataset(tw.workload.base, 0,
                                          PartitionerKind::kRandom, 1);
  ASSERT_FALSE(shards_or.ok());
  EXPECT_TRUE(shards_or.status().IsInvalidArgument());
  EXPECT_FALSE(ParsePartitioner("bogus").ok());
}

TEST(ShardSeedTest, DerivedStreamsAreDistinctAndStable) {
  EXPECT_EQ(DeriveShardSeed(2024, 3), DeriveShardSeed(2024, 3));
  EXPECT_NE(DeriveShardSeed(2024, 0), DeriveShardSeed(2024, 1));
  EXPECT_NE(DeriveShardSeed(2024, 0), DeriveShardSeed(2025, 0));
}

// ------------------------------------------------- registry wiring

TEST(ShardedRegistryTest, WrapperNamesResolveButDoNotNest) {
  EXPECT_TRUE(IsKnownAlgorithm("Sharded:HNSW"));
  EXPECT_TRUE(IsKnownAlgorithm("Sharded:NSG"));
  EXPECT_FALSE(IsKnownAlgorithm("Sharded:bogus"));
  EXPECT_FALSE(IsKnownAlgorithm("Sharded:Sharded:HNSW"));
  // The base name list is what every cross-algorithm suite iterates; the
  // wrapper must not sneak into it.
  for (const std::string& name : AlgorithmNames()) {
    EXPECT_NE(name.rfind("Sharded:", 0), 0u);
  }
  auto index = CreateAlgorithm("Sharded:HNSW", ShardedOptions(3));
  EXPECT_EQ(index->name(), "Sharded:HNSW");
}

// ------------------------------------------------- golden equivalence

TEST(ShardedSearchTest, MergedPerShardBruteForceEqualsGlobalBruteForce) {
  // The gather step in isolation: exact per-shard top-k lists, k-way
  // merged, must equal exact global top-k — for both partitioners and any
  // shard count. This is the correctness core of scatter-gather.
  const TestWorkload& tw = SharedWorkload();
  const Dataset& base = tw.workload.base;
  for (PartitionerKind kind :
       {PartitionerKind::kRandom, PartitionerKind::kKMeans}) {
    const auto shards_or = PartitionDataset(base, 5, kind, 42);
    ASSERT_TRUE(shards_or.ok());
    std::vector<Dataset> shard_data;
    for (const auto& ids : *shards_or) shard_data.push_back(base.Subset(ids));
    for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
      const float* query = tw.workload.queries.Row(q);
      std::vector<std::vector<ScoredId>> lists;
      for (uint32_t s = 0; s < shards_or->size(); ++s) {
        const std::vector<uint32_t> local =
            BruteForceTopK(shard_data[s], query, 10);
        std::vector<ScoredId> list;
        for (uint32_t lid : local) {
          list.emplace_back(L2Sqr(query, shard_data[s].Row(lid), base.dim()),
                            (*shards_or)[s][lid]);
        }
        lists.push_back(std::move(list));
      }
      std::vector<uint32_t> merged;
      for (const ScoredId& entry : MergeTopK(lists, 10)) {
        merged.push_back(entry.id);
      }
      EXPECT_EQ(merged, BruteForceTopK(base, query, 10))
          << PartitionerName(kind) << " query " << q;
    }
  }
}

TEST(ShardedSearchTest, AllShardsDegradedEqualsGlobalBruteForce) {
  // End-to-end version of the golden test through ShardedIndex itself:
  // with every shard file corrupted, every shard serves an exact scan and
  // the scatter-gather answer must equal the global brute-force answer.
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("all_degraded");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  for (uint32_t s = 0; s < 4; ++s) {
    const std::string path =
        prefix + ".shard" + std::to_string(s) + ".wvs";
    ASSERT_TRUE(WriteStringToFile(FlipBit(MustRead(path), 99), path).ok());
  }
  auto loaded_or = ShardedIndex::Load(prefix + ".manifest",
                                      tw.workload.base);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  ShardedIndex& loaded = **loaded_or;
  EXPECT_EQ(loaded.num_degraded_shards(), 4u);
  SearchParams params;
  params.k = 10;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    const float* query = tw.workload.queries.Row(q);
    QueryStats stats;
    EXPECT_EQ(loaded.Search(query, params, &stats),
              BruteForceTopK(tw.workload.base, query, 10))
        << "query " << q;
    // Exact scans cost one evaluation per row, split across shards.
    EXPECT_EQ(stats.distance_evals, tw.workload.base.size());
  }
}

TEST(ShardedSearchTest, DescendingIdMapStillMergesInDistanceThenIdOrder) {
  // The manifest loader checks the id lists for a disjoint cover, not for
  // order. Every row here is the same point, so every distance ties; with no
  // graph files both shards serve exact scans, which return ties in local
  // order — descending global order under these id maps. The merged answer
  // must still be ascending (distance, id), as global brute force is.
  const uint32_t rows = 8;
  const Dataset base(rows, 4, std::vector<float>(rows * 4, 0.0f));
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "random";
  manifest.options = ShardedOptions(2);
  manifest.total_vertices = rows;
  manifest.shards = {{"missing0.wvs", {6, 4, 2, 0}},
                     {"missing1.wvs", {7, 5, 3, 1}}};
  const std::string manifest_path = TempPath("descending.manifest");
  ASSERT_TRUE(SaveManifest(manifest, manifest_path).ok());
  auto loaded_or = ShardedIndex::Load(manifest_path, base);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  ASSERT_EQ((*loaded_or)->num_degraded_shards(), 2u);
  SearchParams params;
  params.k = rows;
  const std::vector<float> query(4, 0.0f);
  EXPECT_EQ((*loaded_or)->Search(query.data(), params),
            BruteForceTopK(base, query.data(), rows));
}

// The merged list is MergeTopK's: strictly ascending by (distance, global
// id), each distance the one the shard's search computed on its own row
// copy, bit-equal to L2Sqr to the global row. Unbounded and under a
// 90-eval budget.
class ShardedScoredTest
    : public ::testing::TestWithParam<std::tuple<uint32_t, std::string>> {};

TEST_P(ShardedScoredTest, MergedListIsExactAndOrderedByDistanceThenId) {
  const auto& [num_shards, algorithm] = GetParam();
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("Sharded:" + algorithm,
                               ShardedOptions(num_shards));
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  for (const uint64_t budget : {uint64_t{0}, uint64_t{90}}) {
    params.max_distance_evals = budget;
    const std::vector<std::vector<ScoredId>> lists = ExpectExactScores(
        *index, tw.workload.base, tw.workload.queries, params);
    for (const std::vector<ScoredId>& merged : lists) {
      EXPECT_FALSE(merged.empty());
      for (size_t i = 1; i < merged.size(); ++i) {
        EXPECT_TRUE(merged[i - 1] < merged[i])
            << "budget " << budget << ", entry " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByAlgorithm, ShardedScoredTest,
    ::testing::Combine(::testing::Values(1u, 3u, 4u),
                       ::testing::Values("HNSW", "NSG")),
    [](const auto& info) {
      return std::get<1>(info.param) + "_" +
             std::to_string(std::get<0>(info.param)) + "shards";
    });

// ------------------------------------------------- determinism

TEST(ShardedBuildTest, BitForBitIdenticalAtAnyThreadCount) {
  // Each shard builds with the index's build_threads, so the shard builds
  // and their inner loops (HNSW's batched insert; NSG's NN-Descent and
  // selection pass) share the cores.
  const TestWorkload& tw = SharedWorkload();
  const struct {
    const char* algo;
    std::vector<uint32_t> threads;
  } cases[] = {{"Sharded:HNSW", {1, 2, 8}}, {"Sharded:NSG", {1, 4}}};
  for (const auto& c : cases) {
    std::unique_ptr<AnnIndex> reference;
    for (uint32_t threads : c.threads) {
      AlgorithmOptions options = ShardedOptions(4, "kmeans");
      options.build_threads = threads;
      auto index = CreateAlgorithm(c.algo, options);
      index->Build(tw.workload.base);
      if (reference == nullptr) {
        reference = std::move(index);
        continue;
      }
      EXPECT_TRUE(index->graph() == reference->graph())
          << c.algo << " threads=" << threads << " differs";
      EXPECT_EQ(index->build_stats().distance_evals,
                reference->build_stats().distance_evals)
          << c.algo << " threads=" << threads;
    }
  }
}

TEST(ShardedSearchTest, RepeatedSearchesAreIdentical) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("Sharded:HNSW", ShardedOptions(3));
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats first_stats, second_stats;
    const auto first =
        index->Search(tw.workload.queries.Row(q), params, &first_stats);
    const auto second =
        index->Search(tw.workload.queries.Row(q), params, &second_stats);
    EXPECT_EQ(first, second);
    EXPECT_EQ(first_stats.distance_evals, second_stats.distance_evals);
    EXPECT_EQ(first_stats.hops, second_stats.hops);
  }
}

TEST(ShardedSearchTest, RecallIsHighAndResultsSortedDupFree) {
  const TestWorkload& tw = SharedWorkload();
  for (const char* partitioner : {"random", "kmeans"}) {
    auto index =
        CreateAlgorithm("Sharded:HNSW", ShardedOptions(4, partitioner));
    index->Build(tw.workload.base);
    EXPECT_GE(::weavess::testing::MeanRecall(*index, tw, 10, 60), 0.9)
        << partitioner;
    SearchParams params;
    params.k = 10;
    params.pool_size = 60;
    const auto ids = index->Search(tw.workload.queries.Row(0), params);
    ASSERT_EQ(ids.size(), 10u);
    for (size_t i = 1; i < ids.size(); ++i) {
      for (size_t j = 0; j < i; ++j) EXPECT_NE(ids[i], ids[j]);
    }
  }
}

TEST(ShardedSearchTest, EvalBudgetSplitsAcrossShardsAndTruncates) {
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  index->Build(tw.workload.base);
  SearchParams unlimited;
  unlimited.k = 10;
  unlimited.pool_size = 40;
  QueryStats full;
  index->Search(tw.workload.queries.Row(0), unlimited, &full);
  EXPECT_FALSE(full.truncated);

  SearchParams budgeted = unlimited;
  budgeted.max_distance_evals = 4;  // one evaluation's budget per shard
  QueryStats stats;
  index->Search(tw.workload.queries.Row(0), budgeted, &stats);
  EXPECT_TRUE(stats.truncated);
  EXPECT_LT(stats.distance_evals, full.distance_evals);
}

// ------------------------------------------------- persistence + repair

TEST(ShardedPersistenceTest, SaveLoadRoundTripsSearchResults) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4, "kmeans"));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("roundtrip");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  auto loaded_or =
      ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  ShardedIndex& loaded = **loaded_or;
  EXPECT_EQ(loaded.num_degraded_shards(), 0u);
  EXPECT_EQ(loaded.algorithm(), "HNSW");
  EXPECT_TRUE(loaded.graph() == built->graph())
      << "loaded combined graph differs";
  // The built index searches hierarchically while the loaded one runs a
  // flat seeded best-first walk; they agree only when both converge to the
  // exact per-shard top-k, so give the comparison a generous pool.
  SearchParams params;
  params.k = 10;
  params.pool_size = 80;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    EXPECT_EQ(loaded.Search(tw.workload.queries.Row(q), params),
              built->Search(tw.workload.queries.Row(q), params))
        << "query " << q;
  }
}

TEST(ShardedPersistenceTest, CorruptShardDegradesOnlyThatShard) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("one_bad_shard");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string bad_path = prefix + ".shard2.wvs";
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(MustRead(bad_path), 321), bad_path).ok());

  auto loaded_or =
      ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  const ShardedIndex& loaded = **loaded_or;
  EXPECT_EQ(loaded.num_degraded_shards(), 1u);
  for (uint32_t s = 0; s < 4; ++s) {
    if (s == 2) continue;
    EXPECT_TRUE(loaded.shard_status(s).ok()) << "shard " << s;
  }
  const Status& bad = loaded.shard_status(2);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsCorruption()) << bad.ToString();
  // The failure names the shard and its file — satellite #2's contract.
  EXPECT_NE(bad.message().find("shard 2"), std::string::npos)
      << bad.ToString();
  EXPECT_NE(bad.message().find(bad_path), std::string::npos)
      << bad.ToString();
  // Healthy shards still run graph search; the degraded shard's exact scan
  // keeps answers complete, so recall stays high.
  EXPECT_GE(::weavess::testing::MeanRecall(**loaded_or, tw, 10, 60), 0.9);
}

TEST(ShardedPersistenceTest, RepairShardRestoresByteIdenticalFile) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("repair");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string bad_path = prefix + ".shard1.wvs";
  const std::string original_bytes = MustRead(bad_path);
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(original_bytes, 777), bad_path).ok());

  auto loaded_or =
      ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
  ASSERT_TRUE(loaded_or.ok());
  ShardedIndex& loaded = **loaded_or;
  ASSERT_EQ(loaded.num_degraded_shards(), 1u);
  // A degraded index must refuse to persist itself (it would launder the
  // damage into a clean-looking file).
  EXPECT_TRUE(loaded.Save(prefix).IsInvalidArgument());

  ASSERT_TRUE(loaded.RepairShard(1).ok());
  EXPECT_EQ(loaded.num_degraded_shards(), 0u);
  EXPECT_TRUE(loaded.shard_status(1).ok());
  // The rebuild reproduced the original graph bit-for-bit, so the rewritten
  // file is byte-identical — the determinism contract made visible on disk.
  EXPECT_EQ(MustRead(bad_path), original_bytes);
  EXPECT_TRUE(loaded.graph() == built->graph())
      << "repaired combined graph differs";
  EXPECT_TRUE(loaded.RepairShard(9).IsInvalidArgument());
}

TEST(ShardedPersistenceTest, MissingShardFileIsIOErrorNamingTheShard) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(3));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("missing_shard");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  ASSERT_EQ(std::remove((prefix + ".shard0.wvs").c_str()), 0);

  auto loaded_or =
      ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
  ASSERT_TRUE(loaded_or.ok());
  const Status& bad = (*loaded_or)->shard_status(0);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.IsIOError()) << bad.ToString();
  EXPECT_NE(bad.message().find("shard 0"), std::string::npos);
  EXPECT_EQ((*loaded_or)->num_degraded_shards(), 1u);
}

TEST(ShardedPersistenceTest, CorruptManifestFailsTheWholeLoad) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(2));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("bad_manifest");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string manifest_path = prefix + ".manifest";
  const std::string bytes = MustRead(manifest_path);
  // The manifest is the root of trust: every single-bit flip must be
  // caught by a CRC, never parsed into a wrong shard map.
  for (size_t bit : {0ul, 8ul * 12, 8ul * 20, 8ul * 40,
                     8ul * (bytes.size() - 2)}) {
    ASSERT_TRUE(
        WriteStringToFile(FlipBit(bytes, bit), manifest_path).ok());
    auto loaded_or = ShardedIndex::Load(manifest_path, tw.workload.base);
    ASSERT_FALSE(loaded_or.ok()) << "bit " << bit << " went undetected";
    EXPECT_TRUE(loaded_or.status().IsCorruption() ||
                loaded_or.status().IsNotSupported())
        << loaded_or.status().ToString();
  }
  ASSERT_TRUE(WriteStringToFile(bytes, manifest_path).ok());
  EXPECT_TRUE(ShardedIndex::Load(manifest_path, tw.workload.base).ok());
  // Dataset mismatch is corruption too: the manifest covers 800 rows.
  const auto other = MakeTestWorkload(100, 12, 4);
  EXPECT_TRUE(ShardedIndex::Load(manifest_path, other.workload.base)
                  .status()
                  .IsCorruption());
}

TEST(ShardedPersistenceTest, EmptyShardsSurviveSaveLoad) {
  const Workload tiny = TinyWorkload(5);
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(8));
  built->Build(tiny.base);
  const std::string prefix = TempPath("tiny_shards");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  auto loaded_or = ShardedIndex::Load(prefix + ".manifest", tiny.base);
  ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  SearchParams params;
  params.k = 3;
  const auto ids = (*loaded_or)->Search(tiny.queries.Row(0), params);
  EXPECT_EQ(ids.size(), 3u);
}

// ------------------------------------------------- fan-out pins
//
// Every query of the shared workload is searched at k = 10, pool 40, once
// unbounded and once under an eval budget that truncates. Each run folds
// every query's result ids, distance_evals, hops and truncated flag into one
// FNV-1a hash, and the degraded case also folds the run's shard.<s>.*
// counters. The pins were recorded from the per-tier fan-out loops that
// ScatterGather replaced; a moved pin means the results or the work of the
// sharded search changed, not only its code.

constexpr uint64_t kFanOutBudget = 200;

struct FanOutPin {
  uint64_t unbounded;
  uint64_t budgeted;
};

// Hashes one run over every workload query; `truncated` counts the queries
// whose budget tripped. With `metrics`, the run's shard.<s>.* counter values
// are hashed too.
uint64_t HashFanOut(ShardedIndex& index, uint64_t max_distance_evals,
                    uint32_t* truncated, bool hash_metrics = false) {
  const TestWorkload& tw = SharedWorkload();
  MetricsRegistry metrics;
  if (hash_metrics) index.set_metrics(&metrics);
  SearchScratch scratch(index.graph().size());
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  params.max_distance_evals = max_distance_evals;
  Fnv hash;
  *truncated = 0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    hash.Query(index.SearchWith(scratch, tw.workload.queries.Row(q), params,
                                &stats),
               stats);
    if (stats.truncated) ++*truncated;
  }
  if (hash_metrics) {
    for (uint32_t s = 0; s < index.num_shards(); ++s) {
      const std::string prefix = "shard." + std::to_string(s) + ".";
      for (const char* name :
           {"searches", "distance_evals", "exact_scans", "truncated"}) {
        hash.Add(metrics.CounterValue(prefix + name));
      }
    }
    index.set_metrics(nullptr);
  }
  return hash.value();
}

void ExpectFanOutPin(ShardedIndex& index, const FanOutPin& expected,
                     bool hash_metrics = false) {
  uint32_t truncated = 0;
  EXPECT_EQ(HashFanOut(index, 0, &truncated, hash_metrics),
            expected.unbounded)
      << index.name() << " unbounded";
  EXPECT_EQ(truncated, 0u) << index.name();
  EXPECT_EQ(HashFanOut(index, kFanOutBudget, &truncated, hash_metrics),
            expected.budgeted)
      << index.name() << " budget " << kFanOutBudget;
  EXPECT_GT(truncated, 0u) << index.name() << " never truncated";
}

TEST(ShardedFanOutPinTest, BuiltHnsw) {
  auto index = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  index->Build(SharedWorkload().workload.base);
  ExpectFanOutPin(dynamic_cast<ShardedIndex&>(*index),
                  {0x244541d912f477e5ULL, 0x1076a216da860b26ULL});
}

TEST(ShardedFanOutPinTest, BuiltNsg) {
  auto index = CreateAlgorithm("Sharded:NSG", ShardedOptions(4, "kmeans"));
  index->Build(SharedWorkload().workload.base);
  ExpectFanOutPin(dynamic_cast<ShardedIndex&>(*index),
                  {0xb9bf93a878a2bc5dULL, 0x0d5e0dad36c229e9ULL});
}

// A 4-shard Sharded:HNSW saved under `name`, with one bit flipped in shard
// 2's graph file, reloaded: shard 2 serves the exact-scan fallback.
std::unique_ptr<ShardedIndex> LoadWithDegradedShard2(const char* name) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath(name);
  EXPECT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string bad_path = prefix + ".shard2.wvs";
  EXPECT_TRUE(
      WriteStringToFile(FlipBit(MustRead(bad_path), 321), bad_path).ok());
  auto loaded_or = ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
  EXPECT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
  if (!loaded_or.ok()) return nullptr;
  return std::move(*loaded_or);
}

TEST(ShardedFanOutPinTest, ReloadedWithOneDegradedShard) {
  std::unique_ptr<ShardedIndex> loaded =
      LoadWithDegradedShard2("fan_out_degraded");
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->num_degraded_shards(), 1u);
  ExpectFanOutPin(*loaded, {0xa0a281cdf151235cULL, 0x2b0ef4acfb330f5cULL},
                  /*hash_metrics=*/true);
}

// ------------------------------------------------- trace pin
//
// A traced sharded query records every leg's events (seeds, expansions,
// kShardFallback for the exact-scan shard, kShardSearch) in shard order,
// whatever order the legs ran in. Each query folds its ids and stats, every
// (kind, id, value) event and the sink's dropped count into its own FNV-1a
// hash; the run hash folds those in query order. The pins were recorded
// from the sequential fan-out, before the legs ran in parallel.

// Holds every event of one query (about 160 here). The 128-, 64- and
// 16-event sinks overflow on every query, in leg 3, leg 1 and leg 0, so the
// dropped count and the events kept around it are pinned too; 16 is fewer
// than one leg records, so a leg's own sink overflows as well.
constexpr size_t kFullTrace = 4096;

struct TracePin {
  size_t capacity;
  uint64_t hash;
};

constexpr TracePin kTracePins[] = {
    {kFullTrace, 0x141c41a1cfe5df2fULL},
    {128, 0x9d94d8be35d6006eULL},
    {64, 0x34c53c6253d2722bULL},
    {16, 0xeaad2e0410a18d7bULL}};

uint64_t HashTracedQuery(const ShardedIndex& index, SearchScratch& scratch,
                         const float* query, size_t capacity) {
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  TraceSink sink(capacity);
  scratch.ctx.trace = &sink;
  QueryStats stats;
  const std::vector<uint32_t> ids =
      index.SearchWith(scratch, query, params, &stats);
  scratch.ctx.trace = nullptr;
  if (capacity < kFullTrace) {
    EXPECT_GT(sink.dropped(), 0u);
  } else {
    EXPECT_EQ(sink.dropped(), 0u);
    EXPECT_EQ(sink.CountOf(TraceEventKind::kShardFallback), 1u);
  }
  Fnv hash;
  hash.Query(ids, stats);
  for (const TraceEvent& event : sink.events()) {
    hash.Add(static_cast<uint64_t>(event.kind));
    hash.Add(event.id);
    hash.Add(event.value);
  }
  hash.Add(sink.dropped());
  return hash.value();
}

// Traces every workload query from `num_threads` threads sharing `index`,
// each on its own scratch (thread t takes queries t, t + num_threads, ...),
// and folds the per-query hashes in query order.
uint64_t HashTraces(const ShardedIndex& index, size_t capacity,
                    uint32_t num_threads) {
  const Dataset& queries = SharedWorkload().workload.queries;
  std::vector<uint64_t> per_query(queries.size());
  const auto run = [&](uint32_t t) {
    SearchScratch scratch;
    for (uint32_t q = t; q < queries.size(); q += num_threads) {
      per_query[q] = HashTracedQuery(index, scratch, queries.Row(q), capacity);
    }
  };
  std::vector<std::thread> threads;
  for (uint32_t t = 1; t < num_threads; ++t) threads.emplace_back(run, t);
  run(0);
  for (std::thread& thread : threads) thread.join();
  Fnv hash;
  for (uint64_t h : per_query) hash.Add(h);
  return hash.value();
}

TEST(ShardedTracePinTest, DegradedShardTraceIsPinnedAtOneAndFourThreads) {
  std::unique_ptr<ShardedIndex> loaded = LoadWithDegradedShard2("trace_pin");
  ASSERT_NE(loaded, nullptr);
  ASSERT_EQ(loaded->num_degraded_shards(), 1u);
  for (const TracePin& pin : kTracePins) {
    for (uint32_t threads : {1u, 4u}) {
      EXPECT_EQ(HashTraces(*loaded, pin.capacity, threads), pin.hash)
          << "capacity " << pin.capacity << ", " << threads << " threads";
    }
  }
}

// ------------------------------------------------- fan-out schedule
//
// Legs may run in any order, but a failure is reported as a sequential run
// would report it: the lowest failing shard's exception, with the trace of
// the legs up to it, and only once every leg that ran has finished (no leg
// still runs on the caller's scratch).

// Runs `body` as one task of a two-task batch on the shared pool: one of
// several parallel streams, where ScatterGather runs its legs inline.
void RunAsOneOfTwoStreams(const std::function<void()>& body) {
  ParallelFor(0, 2, 2, [&](uint32_t task) {
    EXPECT_TRUE(ThreadPool::InParallelTask());
    if (task == 0) body();
  });
}

TEST(ScatterGatherTest, LowestFailingLegIsRethrownAfterEveryLegFinishes) {
  SearchParams params;
  params.k = 4;
  for (bool inline_legs : {false, true}) {
    SearchScratch scratch;
    for (int repeat = 0; repeat < 200; ++repeat) {
      std::atomic<uint32_t> finished{0};
      TraceSink sink;
      scratch.ctx.trace = &sink;
      const ShardLeg leg = [&](uint32_t s, SearchScratch& leg_scratch,
                               const SearchParams&, QueryStats*) {
        // Leg 3 fails at once and leg 1 late, so under fan-out leg 3's
        // error is usually the first one thrown.
        if (s == 1) std::this_thread::sleep_for(std::chrono::microseconds(20));
        leg_scratch.ctx.trace->Record(TraceEventKind::kShardSearch, s);
        finished.fetch_add(1);
        if (s == 1) throw std::runtime_error("leg 1");
        if (s == 3) throw std::logic_error("leg 3");
        return std::vector<ScoredId>{ScoredId(static_cast<float>(s), s)};
      };
      const auto search = [&] {
        try {
          ScatterGather(4, scratch, params, nullptr, leg);
          ADD_FAILURE() << "no exception, repeat " << repeat;
        } catch (const std::runtime_error& error) {
          EXPECT_STREQ(error.what(), "leg 1") << "repeat " << repeat;
        } catch (const std::logic_error& error) {
          ADD_FAILURE() << "got " << error.what() << ", repeat " << repeat;
        }
      };
      if (inline_legs) {
        RunAsOneOfTwoStreams(search);
      } else {
        search();
      }
      // Fanned-out legs cannot be cancelled, so all four ran; inline legs
      // stop at leg 1's failure.
      EXPECT_EQ(finished.load(), inline_legs ? 2u : 4u)
          << "repeat " << repeat;
      ASSERT_EQ(sink.events().size(), 2u) << "repeat " << repeat;
      EXPECT_EQ(sink.events()[0].id, 0u);
      EXPECT_EQ(sink.events()[1].id, 1u);
      scratch.ctx.trace = nullptr;
    }
  }
}

TEST(ScatterGatherTest, SearchInsideParallelForMatchesTopLevel) {
  // No schedule dependence: a sharded search run from inside a
  // multi-stream ParallelFor task, whose legs run inline, gives the ids and
  // stats of a top-level call, whose legs fan out.
  const TestWorkload& tw = SharedWorkload();
  auto index = CreateAlgorithm("Sharded:HNSW", ShardedOptions(4));
  index->Build(tw.workload.base);
  const Dataset& queries = tw.workload.queries;
  for (uint64_t budget : {uint64_t{0}, kFanOutBudget}) {
    SearchParams params;
    params.k = 10;
    params.pool_size = 40;
    params.max_distance_evals = budget;
    std::vector<std::vector<uint32_t>> expected_ids(queries.size());
    std::vector<QueryStats> expected_stats(queries.size());
    SearchScratch top;
    for (uint32_t q = 0; q < queries.size(); ++q) {
      expected_ids[q] = index->SearchWith(top, queries.Row(q), params,
                                          &expected_stats[q]);
    }
    std::vector<std::vector<uint32_t>> ids(queries.size());
    std::vector<QueryStats> stats(queries.size());
    ParallelFor(0, queries.size(), 4, [&](uint32_t q) {
      EXPECT_TRUE(ThreadPool::InParallelTask());
      SearchScratch scratch;
      ids[q] = index->SearchWith(scratch, queries.Row(q), params, &stats[q]);
    });
    for (uint32_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(ids[q], expected_ids[q]) << "query " << q;
      EXPECT_EQ(stats[q].distance_evals, expected_stats[q].distance_evals);
      EXPECT_EQ(stats[q].hops, expected_stats[q].hops);
      EXPECT_EQ(stats[q].truncated, expected_stats[q].truncated);
    }
  }
}

// ------------------------------------------------- serving integration

ServingConfig PlainServingConfig() {
  ServingConfig config;
  config.num_threads = 2;
  config.admission.capacity = 64;
  return config;
}

TEST(ShardedServingTest, FromShardManifestServesHealthyIndex) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(3));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("serving_healthy");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  ServingEngine::Opened opened = ServingEngine::FromShardManifest(
      prefix + ".manifest", tw.workload.base, PlainServingConfig());
  ASSERT_TRUE(opened.load_status.ok()) << opened.load_status.ToString();
  ASSERT_NE(opened.engine->sharded_index(), nullptr);
  EXPECT_FALSE(opened.engine->fallback_mode());
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 40;
  const ServeOutcome out =
      opened.engine->Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.ids.size(), 10u);
  EXPECT_FALSE(out.stats.degraded);
}

TEST(ShardedServingTest, CorruptShardServesDegradedUntilRepaired) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(3));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("serving_degraded");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string bad_path = prefix + ".shard1.wvs";
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(MustRead(bad_path), 500), bad_path).ok());

  ServingEngine::Opened opened = ServingEngine::FromShardManifest(
      prefix + ".manifest", tw.workload.base, PlainServingConfig());
  // The engine came up — degraded availability beats unavailability — and
  // load_status carries the shard failure for the operator.
  ASSERT_FALSE(opened.load_status.ok());
  EXPECT_NE(opened.load_status.message().find("shard 1"), std::string::npos);
  EXPECT_FALSE(opened.engine->fallback_mode());
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 40;
  ServeOutcome out = opened.engine->Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.ids.size(), 10u);
  EXPECT_TRUE(out.stats.degraded) << "degraded shard must tag outcomes";

  ASSERT_TRUE(opened.engine->RepairShard(1).ok());
  EXPECT_EQ(opened.engine->sharded_index()->num_degraded_shards(), 0u);
  out = opened.engine->Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok());
  EXPECT_FALSE(out.stats.degraded) << "repair must clear the degraded tag";
}

TEST(ShardedServingTest, CorruptManifestFallsBackToBruteForce) {
  const TestWorkload& tw = SharedWorkload();
  auto built = CreateAlgorithm("Sharded:HNSW", ShardedOptions(2));
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("serving_bad_manifest");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string manifest_path = prefix + ".manifest";
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(MustRead(manifest_path), 50), manifest_path)
          .ok());

  ServingEngine::Opened opened = ServingEngine::FromShardManifest(
      manifest_path, tw.workload.base, PlainServingConfig());
  ASSERT_FALSE(opened.load_status.ok());
  EXPECT_TRUE(opened.engine->fallback_mode());
  EXPECT_EQ(opened.engine->sharded_index(), nullptr);
  RequestOptions request;
  request.params.k = 5;
  const ServeOutcome out =
      opened.engine->Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.status.ok());
  EXPECT_TRUE(out.stats.degraded);
  // RepairShard has nothing to repair in fallback mode.
  EXPECT_TRUE(opened.engine->RepairShard(0).IsInvalidArgument());
}

}  // namespace
}  // namespace weavess
