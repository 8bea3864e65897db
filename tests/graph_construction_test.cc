// Tests for the graph-construction substrates: exact KNNG, NN-Descent,
// MST + union-find, LSH, and connectivity repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <set>

#include "core/metrics.h"
#include "core/rng.h"
#include "eval/synthetic.h"
#include "graph/connectivity.h"
#include "graph/exact_knng.h"
#include "graph/mst.h"
#include "graph/nn_descent.h"
#include "graph/union_find.h"
#include "hash/lsh.h"

namespace weavess {
namespace {

Dataset SmallData(uint32_t n = 600, uint32_t dim = 10, uint64_t seed = 21) {
  SyntheticSpec spec;
  spec.num_base = n;
  spec.dim = dim;
  spec.num_queries = 1;
  spec.num_clusters = 4;
  spec.seed = seed;
  return GenerateSynthetic(spec).base;
}

// ---------- UnionFind ----------

TEST(UnionFindTest, BasicMergeSemantics) {
  UnionFind uf(5);
  EXPECT_EQ(uf.components(), 5u);
  EXPECT_TRUE(uf.Union(0, 1));
  EXPECT_FALSE(uf.Union(1, 0));  // already merged
  EXPECT_TRUE(uf.Union(2, 3));
  EXPECT_EQ(uf.components(), 3u);
  EXPECT_TRUE(uf.Connected(0, 1));
  EXPECT_FALSE(uf.Connected(0, 4));
  uf.Union(1, 3);
  EXPECT_TRUE(uf.Connected(0, 2));
}

TEST(UnionFindTest, ChainMergesToOneComponent) {
  UnionFind uf(100);
  for (uint32_t i = 0; i + 1 < 100; ++i) uf.Union(i, i + 1);
  EXPECT_EQ(uf.components(), 1u);
}

// ---------- Exact KNNG ----------

TEST(ExactKnngTest, NeighborsSortedAscendingAndExact) {
  const Dataset data = SmallData(200, 6);
  const Graph knng = BuildExactKnng(data, 5);
  DistanceOracle oracle(data, nullptr);
  for (uint32_t v = 0; v < data.size(); v += 17) {
    const auto& neighbors = knng.Neighbors(v);
    ASSERT_EQ(neighbors.size(), 5u);
    // Sorted ascending by distance.
    for (size_t i = 0; i + 1 < neighbors.size(); ++i) {
      EXPECT_LE(oracle.Between(v, neighbors[i]),
                oracle.Between(v, neighbors[i + 1]));
    }
    // No point outside the list is closer than the worst listed neighbor.
    const float worst = oracle.Between(v, neighbors.back());
    std::set<uint32_t> listed(neighbors.begin(), neighbors.end());
    for (uint32_t u = 0; u < data.size(); ++u) {
      if (u == v || listed.count(u)) continue;
      EXPECT_GE(oracle.Between(v, u), worst);
    }
  }
}

TEST(ExactKnngTest, NoSelfLoops) {
  const Dataset data = SmallData(100, 4);
  const Graph knng = BuildExactKnng(data, 8);
  for (uint32_t v = 0; v < data.size(); ++v) {
    for (uint32_t u : knng.Neighbors(v)) EXPECT_NE(u, v);
  }
}

TEST(ExactKnngTest, CountsDistanceEvaluations) {
  const Dataset data = SmallData(50, 4);
  DistanceCounter counter;
  BuildExactKnng(data, 3, &counter);
  EXPECT_EQ(counter.count, 50u * 49u);  // all ordered pairs
}

TEST(ExactKnngTest, MergeSubsetRespectsGlobalIds) {
  const Dataset data = SmallData(120, 5);
  Graph graph(data.size());
  const std::vector<uint32_t> subset = {3, 30, 60, 90, 110, 7, 45};
  MergeExactKnngOnSubset(data, subset, 3, graph);
  std::set<uint32_t> allowed(subset.begin(), subset.end());
  for (uint32_t id : subset) {
    EXPECT_LE(graph.Neighbors(id).size(), 3u);
    EXPECT_GT(graph.Neighbors(id).size(), 0u);
    for (uint32_t u : graph.Neighbors(id)) {
      EXPECT_TRUE(allowed.count(u));
      EXPECT_NE(u, id);
    }
  }
  // Points outside the subset are untouched.
  EXPECT_TRUE(graph.Neighbors(0).empty());
}

TEST(ExactKnngTest, MergeKeepsClosestAcrossCalls) {
  const Dataset data = SmallData(60, 4);
  Graph graph(data.size());
  std::vector<uint32_t> all(data.size());
  for (uint32_t i = 0; i < data.size(); ++i) all[i] = i;
  // Merging the full set twice must equal the exact KNNG.
  MergeExactKnngOnSubset(data, all, 4, graph);
  MergeExactKnngOnSubset(data, all, 4, graph);
  const CsrGraph exact(BuildExactKnng(data, 4));
  EXPECT_DOUBLE_EQ(ComputeGraphQuality(CsrGraph(graph), exact), 1.0);
}

// ---------- NN-Descent ----------

TEST(NnDescentTest, ImprovesGraphQualityOverRandom) {
  const Dataset data = SmallData(800, 12);
  const CsrGraph exact(BuildExactKnng(data, 10));

  NnDescentParams params;
  params.k = 10;
  params.iterations = 0;  // random only
  NnDescent random_only(data, params);
  random_only.InitRandom();
  const double random_quality =
      ComputeGraphQuality(CsrGraph(random_only.ExtractGraph(10)), exact);

  params.iterations = 8;
  NnDescent refined(data, params);
  refined.InitRandom();
  refined.Run();
  const double refined_quality =
      ComputeGraphQuality(CsrGraph(refined.ExtractGraph(10)), exact);

  EXPECT_LT(random_quality, 0.2);
  EXPECT_GT(refined_quality, 0.90);  // NN-Descent converges on easy data
  EXPECT_GT(refined_quality, random_quality);
}

TEST(NnDescentTest, QualityMonotoneInIterations) {
  const Dataset data = SmallData(500, 10);
  const CsrGraph exact(BuildExactKnng(data, 8));
  double last_quality = -1.0;
  for (uint32_t iters : {1u, 3u, 8u}) {
    NnDescentParams params;
    params.k = 8;
    params.iterations = iters;
    params.delta = 0.0;  // no early stop: isolate the iteration count
    NnDescent descent(data, params);
    descent.InitRandom();
    descent.Run();
    const double quality =
        ComputeGraphQuality(CsrGraph(descent.ExtractGraph(8)), exact);
    EXPECT_GE(quality + 0.02, last_quality);  // allow tiny noise
    last_quality = quality;
  }
  EXPECT_GT(last_quality, 0.85);
}

TEST(NnDescentTest, EarlyStopTriggers) {
  const Dataset data = SmallData(300, 8);
  NnDescentParams params;
  params.k = 8;
  params.iterations = 50;
  params.delta = 0.01;
  NnDescent descent(data, params);
  descent.InitRandom();
  EXPECT_LT(descent.Run(), 50u);  // converges long before 50 rounds
}

TEST(NnDescentTest, InitFromGraphUsesProvidedNeighbors) {
  const Dataset data = SmallData(300, 8);
  const Graph exact = BuildExactKnng(data, 8);
  NnDescentParams params;
  params.k = 8;
  params.iterations = 0;
  NnDescent descent(data, params);
  descent.InitFromGraph(exact);
  // Seeding with the exact graph keeps its quality without any iteration.
  EXPECT_GT(ComputeGraphQuality(CsrGraph(descent.ExtractGraph(8)),
                                CsrGraph(exact)),
            0.95);
}

TEST(NnDescentTest, InitRandomFillsPoolsAtTinyCardinality) {
  // Regression: the 3x-oversampling attempt cap could leave pools below
  // capacity when n ≈ k — hitting every distinct id by random draws needs
  // coupon-collector luck. The deterministic top-up sweep guarantees every
  // pool holds min(pool_capacity, n - 1) entries.
  const Dataset data = SmallData(12, 4);
  NnDescentParams params;
  params.k = 10;
  params.iterations = 0;
  NnDescent descent(data, params);
  descent.InitRandom();
  const size_t want = data.size() - 1;  // pool capacity clamps to n - 1
  for (uint32_t v = 0; v < data.size(); ++v) {
    EXPECT_EQ(descent.pools()[v].size(), want) << "vertex " << v;
  }
}

TEST(NnDescentTest, RunThreadCountInvariant) {
  // The staged parallel join must replay the sequential insertion order
  // per pool: adjacency and the distance-evaluation count are bit-for-bit
  // identical at any thread count (docs/CONCURRENCY.md).
  const Dataset data = SmallData(600, 10);
  Graph reference;
  uint64_t reference_evals = 0;
  for (const uint32_t threads : {1u, 2u, 8u}) {
    NnDescentParams params;
    params.k = 10;
    params.iterations = 4;
    params.num_threads = threads;
    DistanceCounter counter;
    NnDescent descent(data, params, &counter);
    descent.InitRandom();
    descent.Run();
    Graph graph = descent.ExtractGraph(10);
    if (threads == 1) {
      reference = std::move(graph);
      reference_evals = counter.count;
      continue;
    }
    for (uint32_t v = 0; v < data.size(); ++v) {
      ASSERT_EQ(graph.Neighbors(v), reference.Neighbors(v))
          << "vertex " << v << " at " << threads << " threads";
    }
    EXPECT_EQ(counter.count, reference_evals) << threads << " threads";
  }
}

TEST(NnDescentTest, PoolsSortedWithoutDuplicates) {
  const Dataset data = SmallData(200, 6);
  NnDescentParams params;
  params.k = 6;
  params.iterations = 3;
  NnDescent descent(data, params);
  descent.InitRandom();
  descent.Run();
  for (uint32_t v = 0; v < data.size(); ++v) {
    const auto& pool = descent.pools()[v];
    std::set<uint32_t> seen;
    for (size_t i = 0; i < pool.size(); ++i) {
      EXPECT_NE(pool[i].id, v);
      EXPECT_TRUE(seen.insert(pool[i].id).second);
      if (i + 1 < pool.size()) {
        EXPECT_LE(pool[i].distance, pool[i + 1].distance);
      }
    }
  }
}

// Exact pin of the local join's sequential semantics: the final pools
// (ids, distance bits, and the new/old flag), the distance-evaluation
// count, and the round count Run() returns. The expected values were
// recorded from the original in-place single-threaded join; every thread
// count must reproduce them, 3 included, whose stripes and worker ranges
// split unevenly. Blocks are cut by NnDescent::kStagingBudget: "random"
// spans three blocks in rounds 1-5 and one in round 6, "duplicates" three
// in every round, "overflow" one or two, and "n_near_k" one. So block
// boundaries, where the stage-time admission bounds refresh, are crossed.
struct PinCase {
  const char* name;
  Dataset data;
  NnDescentParams params;
  uint64_t pool_hash;
  uint64_t evals;
  uint32_t rounds;
  bool init_from_empty_graph = false;
};

Dataset RowsFrom(
    uint32_t n, uint32_t dim, uint64_t seed,
    const std::function<float(Rng&, uint32_t row, uint32_t d)>& value) {
  Rng rng(seed);
  std::vector<float> values(static_cast<size_t>(n) * dim);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t d = 0; d < dim; ++d) values[i * dim + d] = value(rng, i, d);
  }
  return Dataset(n, dim, values);
}

uint64_t HashPools(const std::vector<std::vector<Neighbor>>& pools) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64
  auto mix = [&hash](uint32_t word) {
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (word >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001b3ULL;
    }
  };
  for (const auto& pool : pools) {
    mix(static_cast<uint32_t>(pool.size()));
    for (const Neighbor& entry : pool) {
      mix(entry.id);
      mix(std::bit_cast<uint32_t>(entry.distance));
      mix(entry.checked ? 1u : 0u);
    }
  }
  return hash;
}

std::vector<PinCase> NnDescentPinCases() {
  std::vector<PinCase> cases;
  NnDescentParams params;
  params.k = 8;
  params.pool_size = 20;
  params.sample_size = 6;
  params.reverse_sample = 6;
  params.iterations = 6;
  auto uniform = [](Rng& rng, uint32_t, uint32_t) { return rng.NextFloat(); };
  // Uniform random rows: the common case.
  cases.push_back(
      {"random", RowsFrom(3000, 8, 101, uniform), params,
       0xb91864b6a28fc8feULL, 3885339, 6});
  // Every row copies one of 400 small-integer prototypes: exact duplicates
  // and long runs of equal distances exercise InsertIntoPool's tie scan.
  const Dataset prototypes =
      RowsFrom(400, 4, 103, [](Rng& rng, uint32_t, uint32_t) {
        return static_cast<float>(rng.NextBounded(4));
      });
  std::vector<uint32_t> prototype_of(2700);
  Rng pick(105);
  for (uint32_t& p : prototype_of) {
    p = static_cast<uint32_t>(pick.NextBounded(prototypes.size()));
  }
  cases.push_back(
      {"duplicates",
       RowsFrom(2700, 4, 0,
                [&](Rng&, uint32_t row, uint32_t d) {
                  return prototypes.Row(prototype_of[row])[d];
                }),
       params, 0x2ef746033721f6f6ULL, 2927073, 4});
  // Two thirds of the rows sit near 1e20, so most squared distances
  // overflow to +inf. Seeding from an empty graph starts every pool at k
  // of its 20 slots, so +inf candidates meet pools with room before the
  // pools fill and end with +inf as their worst entry.
  auto overflowing = [](Rng& rng, uint32_t row, uint32_t) {
    const float scale = row % 3 == 0 ? 1.0f : 1e20f;
    return (rng.NextFloat() - 0.5f) * scale;
  };
  cases.push_back({"overflow", RowsFrom(2600, 6, 107, overflowing), params,
                   0x309cf3116edccb43ULL, 2153778, 6,
                   /*init_from_empty_graph=*/true});
  // k >= n: the pool capacity exceeds the n - 1 other rows, so no pool is
  // ever full and no candidate may be dropped before replay. Seeding from
  // an empty graph leaves random gaps in the pools for the joins to fill.
  NnDescentParams tiny = params;
  tiny.k = 24;
  cases.push_back({"n_near_k", RowsFrom(24, 4, 109, overflowing), tiny,
                   0x0c8a5e8c85d77f59ULL, 16134, 2,
                   /*init_from_empty_graph=*/true});
  return cases;
}

TEST(NnDescentPinTest, PoolsEvalsAndRoundsMatchSequentialReference) {
  for (PinCase& c : NnDescentPinCases()) {
    for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
      c.params.num_threads = threads;
      DistanceCounter counter;
      NnDescent descent(c.data, c.params, &counter);
      if (c.init_from_empty_graph) {
        descent.InitFromGraph(Graph(c.data.size()));
      } else {
        descent.InitRandom();
      }
      const uint32_t rounds = descent.Run();
      EXPECT_EQ(HashPools(descent.pools()), c.pool_hash)
          << c.name << " at " << threads << " threads";
      EXPECT_EQ(counter.count, c.evals)
          << c.name << " at " << threads << " threads";
      EXPECT_EQ(rounds, c.rounds) << c.name << " at " << threads << " threads";
    }
  }
}

TEST(NnDescentTest, StagingStaysWithinBudgetAtEveryThreadCount) {
  // NSG's NN-Descent shape (k 25, pool 55, S = R = 10): a pivot stages at
  // most about 2,580 triples, so each early round spans a dozen blocks.
  // The most triples one block kept depends only on the block boundaries
  // and the frozen admission bounds, neither of which sees the thread
  // count.
  const Dataset data = SmallData(3000, 16);
  uint64_t reference_hash = 0;
  uint64_t reference_staged = 0;
  for (const uint32_t threads : {1u, 2u, 3u, 8u}) {
    NnDescentParams params;
    params.k = 25;
    params.pool_size = 55;
    params.sample_size = 10;
    params.reverse_sample = 10;
    params.iterations = 4;
    params.num_threads = threads;
    NnDescent descent(data, params);
    descent.InitRandom();
    descent.Run();
    const uint64_t hash = HashPools(descent.pools());
    EXPECT_GT(descent.peak_staged(), 0u);
    EXPECT_LE(descent.peak_staged(), NnDescent::kStagingBudget);
    if (threads == 1) {
      reference_hash = hash;
      reference_staged = descent.peak_staged();
      continue;
    }
    EXPECT_EQ(descent.peak_staged(), reference_staged)
        << threads << " threads";
    EXPECT_EQ(hash, reference_hash) << threads << " threads";
  }
}

TEST(NnDescentTest, PivotOverBudgetStagesAloneAtEveryThreadCount) {
  // Every vertex starts with vertex 0 in its pool and R admits all of
  // them, so pivot 0 joins ~1,200 new entries: a worst case of ~1.4 M
  // triples, more than kStagingBudget. Its block holds it alone, the
  // staging buffer grows to fit, and pools stay small enough to keep
  // every triple.
  const Dataset data = SmallData(1200, 2);
  Graph star(data.size());
  for (uint32_t v = 1; v < data.size(); ++v) star.MutableNeighbors(v) = {0};
  uint64_t reference_hash = 0;
  for (const uint32_t threads : {1u, 3u}) {
    NnDescentParams params;
    params.k = 2;
    params.pool_size = 4;
    params.sample_size = 4;
    params.reverse_sample = 2000;
    params.iterations = 1;
    params.num_threads = threads;
    NnDescent descent(data, params);
    descent.InitFromGraph(star);
    descent.Run();
    EXPECT_GT(descent.peak_staged(), NnDescent::kStagingBudget);
    const uint64_t hash = HashPools(descent.pools());
    if (threads == 1) {
      reference_hash = hash;
    } else {
      EXPECT_EQ(hash, reference_hash) << threads << " threads";
    }
  }
}

// ---------- MST ----------

TEST(MstTest, SpanningTreeProperties) {
  const Dataset data = SmallData(40, 5);
  std::vector<uint32_t> ids(data.size());
  for (uint32_t i = 0; i < data.size(); ++i) ids[i] = i;
  const auto edges = BuildMst(data, ids);
  ASSERT_EQ(edges.size(), data.size() - 1);
  UnionFind uf(data.size());
  for (const auto& [a, b] : edges) EXPECT_TRUE(uf.Union(a, b));  // acyclic
  EXPECT_EQ(uf.components(), 1u);  // spanning
}

TEST(MstTest, MinimalityOnTinyInputsAgainstExhaustive) {
  // 6 points: compare Kruskal's weight with the best spanning tree found
  // by exhaustive search over all labeled trees via random sampling of
  // Prüfer sequences (exact: enumerate all 6^4 = 1296 Prüfer codes).
  const Dataset data = SmallData(6, 3, 77);
  std::vector<uint32_t> ids = {0, 1, 2, 3, 4, 5};
  const auto mst = BuildMst(data, ids);
  const double mst_weight = EdgeListWeight(data, mst);

  double best = 1e30;
  const uint32_t n = 6;
  for (uint32_t code = 0; code < 1296; ++code) {
    // Decode the Prüfer sequence into a labeled tree.
    uint32_t prufer[4] = {(code / 1) % 6, (code / 6) % 6, (code / 36) % 6,
                          (code / 216) % 6};
    uint32_t degree[6];
    for (auto& d : degree) d = 1;
    for (uint32_t p : prufer) ++degree[p];
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    uint32_t used[6] = {0};
    for (uint32_t p : prufer) {
      for (uint32_t leaf = 0; leaf < n; ++leaf) {
        if (degree[leaf] == 1 && !used[leaf]) {
          edges.emplace_back(leaf, p);
          used[leaf] = 1;
          --degree[p];
          break;
        }
      }
    }
    std::vector<uint32_t> rest;
    for (uint32_t v = 0; v < n; ++v) {
      if (!used[v] && degree[v] >= 1) rest.push_back(v);
    }
    if (rest.size() == 2) edges.emplace_back(rest[0], rest[1]);
    if (edges.size() != n - 1) continue;
    best = std::min(best, EdgeListWeight(data, edges));
  }
  EXPECT_NEAR(mst_weight, best, 1e-4);
}

TEST(MstTest, EmptyAndSingletonInputs) {
  const Dataset data = SmallData(10, 3);
  EXPECT_TRUE(BuildMst(data, {}).empty());
  EXPECT_TRUE(BuildMst(data, {4}).empty());
}

// ---------- LSH ----------

TEST(LshTest, SignatureDeterministicAndBounded) {
  const Dataset data = SmallData(300, 8);
  LshTable::Params params;
  params.num_bits = 10;
  LshTable table(data, params);
  const uint32_t sig = table.Signature(data.Row(5));
  EXPECT_EQ(sig, table.Signature(data.Row(5)));
  EXPECT_LT(sig, 1u << 10);
}

TEST(LshTest, ProbeReturnsOwnBucketFirst) {
  const Dataset data = SmallData(300, 8);
  LshTable table(data, {});
  const auto ids = table.Probe(data.Row(17), 1);
  // The probed point itself hashed somewhere; its own bucket must contain it.
  EXPECT_TRUE(std::find(ids.begin(), ids.end(), 17u) != ids.end());
}

TEST(LshTest, ProbeExpandsToReachMinimum) {
  const Dataset data = SmallData(400, 8);
  LshTable::Params params;
  params.num_bits = 8;
  LshTable table(data, params);
  const auto ids = table.Probe(data.Row(0), 50);
  EXPECT_GE(ids.size(), 20u);  // Hamming-1 expansion gathers extra buckets
}

// ---------- Connectivity ----------

TEST(ConnectivityTest, RepairsDisconnectedGraph) {
  const Dataset data = SmallData(300, 8);
  // A sparse exact KNNG is typically disconnected across clusters.
  Graph graph = BuildExactKnng(data, 2);
  if (AllReachableFrom(CsrGraph(graph), 0)) {
    GTEST_SKIP() << "graph accidentally connected; nothing to repair";
  }
  const uint32_t bridges = EnsureReachableFrom(graph, data, 0, 20);
  EXPECT_GT(bridges, 0u);
  EXPECT_TRUE(AllReachableFrom(CsrGraph(graph), 0));
}

TEST(ConnectivityTest, NoOpOnConnectedGraph) {
  const Dataset data = SmallData(100, 4);
  Graph graph(data.size());
  for (uint32_t v = 0; v + 1 < data.size(); ++v) graph.AddEdge(v, v + 1);
  EXPECT_EQ(EnsureReachableFrom(graph, data, 0, 10), 0u);
}

}  // namespace
}  // namespace weavess
