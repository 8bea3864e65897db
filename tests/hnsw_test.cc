// Tests for HNSW: the batched static build, and the dynamic-update
// extension (insert / logical delete / compact) — the paper's §6
// real-time-update challenge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/hnsw.h"
#include "algorithms/registry.h"
#include "core/distance.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::Fnv;

class DynamicHnswTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticSpec spec;
    spec.num_base = 1200;
    spec.dim = 12;
    spec.num_queries = 30;
    spec.num_clusters = 1;
    spec.stddev = 15.0f;
    spec.seed = 44;
    workload_ = GenerateSynthetic(spec);
  }

  HnswIndex MakeBuilt(uint32_t count) {
    HnswIndex index(workload_.base.dim(), {});
    for (uint32_t i = 0; i < count; ++i) {
      EXPECT_EQ(index.Add(workload_.base.Row(i)), i);
    }
    return index;
  }

  uint32_t BruteForceNn(const float* query, uint32_t limit,
                        const std::set<uint32_t>& excluded = {}) {
    uint32_t best = UINT32_MAX;
    float best_dist = 1e30f;
    for (uint32_t i = 0; i < limit; ++i) {
      if (excluded.count(i)) continue;
      const float dist =
          L2Sqr(query, workload_.base.Row(i), workload_.base.dim());
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    return best;
  }

  Workload workload_;
};

TEST_F(DynamicHnswTest, EmptyIndexReturnsNothing) {
  HnswIndex index(8, {});
  SearchParams params;
  EXPECT_TRUE(index.Search(workload_.queries.Row(0), params).empty());
  EXPECT_EQ(index.size(), 0u);
}

TEST_F(DynamicHnswTest, IncrementalInsertFindsNearestNeighbors) {
  HnswIndex index = MakeBuilt(1200);
  SearchParams params;
  params.k = 1;
  params.pool_size = 80;
  int correct = 0;
  for (uint32_t q = 0; q < workload_.queries.size(); ++q) {
    const auto result = index.Search(workload_.queries.Row(q), params);
    ASSERT_FALSE(result.empty());
    if (result.front() == BruteForceNn(workload_.queries.Row(q), 1200)) {
      ++correct;
    }
  }
  EXPECT_GE(correct, 27);  // >= 90% top-1 accuracy
}

TEST_F(DynamicHnswTest, SearchWorksMidConstruction) {
  HnswIndex index(workload_.base.dim(), {});
  SearchParams params;
  params.k = 1;
  params.pool_size = 60;
  for (uint32_t i = 0; i < 600; ++i) index.Add(workload_.base.Row(i));
  const auto early = index.Search(workload_.queries.Row(0), params);
  ASSERT_FALSE(early.empty());
  EXPECT_LT(early.front(), 600u);
  for (uint32_t i = 600; i < 1200; ++i) index.Add(workload_.base.Row(i));
  const auto late = index.Search(workload_.queries.Row(0), params);
  ASSERT_FALSE(late.empty());
  // The later search considers the new points too.
  EXPECT_EQ(late.front(), BruteForceNn(workload_.queries.Row(0), 1200));
}

TEST_F(DynamicHnswTest, ScratchGrowsWhenAddOutrunsIt) {
  // A scratch that fit the index when it was made keeps serving after Add
  // grows the index past it, and traces the query like a fresh scratch.
  HnswIndex index = MakeBuilt(100);
  SearchScratch scratch(index.size());
  SearchParams params;
  params.k = 10;
  params.pool_size = 60;
  const float* query = workload_.queries.Row(0);
  (void)index.SearchWith(scratch, query, params);
  for (uint32_t i = 100; i < 1200; ++i) index.Add(workload_.base.Row(i));
  QueryStats reused_stats, fresh_stats;
  const std::vector<uint32_t> reused =
      index.SearchWith(scratch, query, params, &reused_stats);
  SearchScratch fresh(index.size());
  EXPECT_EQ(reused, index.SearchWith(fresh, query, params, &fresh_stats));
  EXPECT_EQ(reused_stats.distance_evals, fresh_stats.distance_evals);
  EXPECT_EQ(reused_stats.hops, fresh_stats.hops);
  ASSERT_FALSE(reused.empty());
  EXPECT_EQ(reused.front(), BruteForceNn(query, 1200));
}

TEST_F(DynamicHnswTest, RemovedIdsNeverReturned) {
  HnswIndex index = MakeBuilt(800);
  SearchParams params;
  params.k = 10;
  params.pool_size = 80;
  const auto before = index.Search(workload_.queries.Row(0), params);
  ASSERT_FALSE(before.empty());
  // Delete every returned id; none may come back.
  std::set<uint32_t> removed;
  for (uint32_t id : before) {
    index.Remove(id);
    removed.insert(id);
  }
  EXPECT_EQ(index.live_size(), 800u - removed.size());
  const auto after = index.Search(workload_.queries.Row(0), params);
  for (uint32_t id : after) {
    EXPECT_FALSE(removed.count(id));
  }
  // The new top-1 equals brute force over the survivors.
  ASSERT_FALSE(after.empty());
  EXPECT_EQ(after.front(),
            BruteForceNn(workload_.queries.Row(0), 800, removed));
}

TEST_F(DynamicHnswTest, RemoveIsIdempotent) {
  HnswIndex index = MakeBuilt(100);
  index.Remove(5);
  index.Remove(5);
  EXPECT_EQ(index.live_size(), 99u);
  EXPECT_TRUE(index.IsDeleted(5));
  EXPECT_FALSE(index.IsDeleted(6));
}

TEST_F(DynamicHnswTest, CompactReclaimsTombstones) {
  HnswIndex index = MakeBuilt(500);
  for (uint32_t id = 0; id < 500; id += 3) index.Remove(id);
  const uint32_t live = index.live_size();
  const auto mapping = index.Compact();
  EXPECT_EQ(mapping.size(), live);
  EXPECT_EQ(index.size(), live);
  EXPECT_EQ(index.live_size(), live);
  // Mapped vectors match the originals.
  for (uint32_t new_id = 0; new_id < mapping.size(); new_id += 17) {
    const float* stored = index.Vector(new_id);
    const float* original = workload_.base.Row(mapping[new_id]);
    for (uint32_t d = 0; d < workload_.base.dim(); ++d) {
      ASSERT_FLOAT_EQ(stored[d], original[d]);
    }
  }
  // Search still works after compaction.
  SearchParams params;
  params.k = 5;
  params.pool_size = 60;
  EXPECT_EQ(index.Search(workload_.queries.Row(0), params).size(), 5u);
}

TEST_F(DynamicHnswTest, AllDeletedReturnsEmpty) {
  HnswIndex index = MakeBuilt(50);
  for (uint32_t id = 0; id < 50; ++id) index.Remove(id);
  SearchParams params;
  EXPECT_TRUE(index.Search(workload_.queries.Row(0), params).empty());
}

TEST_F(DynamicHnswTest, StatsReported) {
  HnswIndex index = MakeBuilt(300);
  SearchParams params;
  params.k = 5;
  params.pool_size = 40;
  QueryStats stats;
  index.Search(workload_.queries.Row(0), params, &stats);
  EXPECT_GT(stats.distance_evals, 0u);
  EXPECT_GT(stats.hops, 0u);
  EXPECT_GT(index.IndexMemoryBytes(), 0u);
}

// A copy shares every page with its source; each side copies a page before
// its first write to it, and only then.
TEST_F(DynamicHnswTest, CopiesSharePagesUntilFirstWrite) {
  HnswIndex index = MakeBuilt(1200);
  EXPECT_EQ(index.copied_bytes(), 0u);  // built in place, never shared
  HnswIndex copy(index);
  const uint64_t tables = index.copied_bytes();
  EXPECT_GT(tables, 0u);
  EXPECT_EQ(copy.copied_bytes(), tables);

  copy.Remove(3);
  const uint64_t one_page = copy.copied_bytes() - tables;
  EXPECT_GT(one_page, 0u);
  copy.Remove(4);  // same page, now the copy's own: nothing to copy
  EXPECT_EQ(copy.copied_bytes() - tables, one_page);
  index.Remove(5);  // still shared from the source's side
  EXPECT_EQ(index.copied_bytes() - tables, one_page);

  EXPECT_TRUE(copy.IsDeleted(3));
  EXPECT_FALSE(index.IsDeleted(3));
  EXPECT_TRUE(index.IsDeleted(5));
  EXPECT_FALSE(copy.IsDeleted(5));
  EXPECT_EQ(index.Label(1100), 1100u);
}

// Build views the caller's rows; a later Add copies the tail page it writes
// into and leaves the other views in place.
TEST_F(DynamicHnswTest, BuildViewsRowsUntilAddCopiesTheTail) {
  std::vector<uint32_t> first(100);
  for (uint32_t i = 0; i < 100; ++i) first[i] = i;
  const Dataset head = workload_.base.Subset(first);
  HnswIndex index(HnswIndex::Params{});
  index.Build(head);
  EXPECT_EQ(index.Vector(70), head.Row(70));
  EXPECT_EQ(index.copied_bytes(), 0u);
  EXPECT_EQ(index.graph().size(), 100u);

  for (uint32_t i = 100; i < 200; ++i) {
    EXPECT_EQ(index.Add(workload_.base.Row(i)), i);
  }
  EXPECT_EQ(index.Vector(10), head.Row(10));
  EXPECT_NE(index.Vector(70), head.Row(70));
  EXPECT_EQ(std::memcmp(index.Vector(70), head.Row(70),
                        head.dim() * sizeof(float)),
            0);
  EXPECT_GT(index.copied_bytes(), 0u);
  EXPECT_EQ(index.graph().size(), 0u);  // level 0 is no longer materialized
  SearchParams params;
  params.k = 1;
  params.pool_size = 40;
  for (uint32_t id : {5u, 70u, 150u}) {
    const auto result = index.Search(workload_.base.Row(id), params);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_EQ(result[0], id);
  }
}

// graph() is a CSR snapshot of the paged level 0, and SQ8:HNSW routes on
// its inner index's snapshot: built with the same options, they are equal.
TEST_F(DynamicHnswTest, GraphIsTheLevelZeroSnapshotSq8RoutesOn) {
  std::vector<uint32_t> first(300);
  for (uint32_t i = 0; i < 300; ++i) first[i] = i;
  const Dataset head = workload_.base.Subset(first);
  auto built = CreateAlgorithm("HNSW", AlgorithmOptions());
  built->Build(head);
  const auto& index = dynamic_cast<const HnswIndex&>(*built);
  std::vector<uint64_t> offsets = {0};
  std::vector<uint32_t> ids;
  for (uint32_t v = 0; v < index.size(); ++v) {
    const std::span<const uint32_t> links = index.Neighbors(v, 0);
    ids.insert(ids.end(), links.begin(), links.end());
    offsets.push_back(ids.size());
  }
  EXPECT_TRUE(index.graph() == CsrGraph(std::move(offsets), std::move(ids)));

  auto quantized = CreateAlgorithm("SQ8:HNSW", AlgorithmOptions());
  quantized->Build(head);
  EXPECT_TRUE(quantized->graph() == index.graph());
}

// IndexMemoryBytes counts graph pages, upper-level blocks and page tables,
// never the vector rows, whether viewed (HNSW) or owned (Dynamic:HNSW).
TEST(HnswMemoryTest, IndexBytesExcludeTheRows) {
  SyntheticSpec spec;
  spec.num_base = 1000;
  spec.dim = 128;
  spec.num_queries = 1;
  spec.seed = 45;
  const Workload workload = GenerateSynthetic(spec);
  const size_t row_bytes =
      size_t{spec.num_base} * workload.base.row_stride() * sizeof(float);
  for (const char* name : {"HNSW", "Dynamic:HNSW"}) {
    SCOPED_TRACE(name);
    auto index = CreateAlgorithm(name);
    index->Build(workload.base);
    EXPECT_GT(index->IndexMemoryBytes(), 0u);
    EXPECT_LT(index->IndexMemoryBytes(), row_bytes);
  }
}

// ------------------------------------------------------------------ pins
//
// DynamicHnswPinTest pins the exact structures, construction spend and
// search traces of seeded add/remove/compact scripts. The structures, ids
// and hops were recorded from the original per-vertex-vector store; the
// build evals and NDC were re-recorded once the descent scored each vertex
// once, and fell by exactly the entry re-scores that removed (per query,
// one per upper level). The walk it hashes is layout-independent (per
// vertex: level, neighbour lists per level in order, tombstone bit, row
// bytes; plus entry point and max level), so any storage layout that keeps
// GreedyStep/SelectAt/Connect and the RNG stream unchanged reproduces every
// pin. A moved pin means the insertion logic, not just the layout, changed.

uint64_t SplitMix(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t HashStructure(const HnswIndex& index) {
  Fnv h;
  h.Add(index.size());
  h.Add(index.num_deleted());
  h.Add(index.entry_point());
  h.Add(index.max_level());
  for (uint32_t id = 0; id < index.size(); ++id) {
    h.Add(index.Level(id));
    for (uint32_t level = 0; level <= index.Level(id); ++level) {
      const auto& neighbors = index.Neighbors(id, level);
      h.Add(neighbors.size());
      for (uint32_t neighbor : neighbors) h.Add(neighbor);
    }
    h.Add(index.IsDeleted(id) ? 1 : 0);
    h.Bytes(index.Vector(id), index.dim() * sizeof(float));
  }
  return h.value();
}

struct Pin {
  uint32_t size;
  uint32_t live;
  uint64_t build_evals;
  uint64_t structure;
  uint64_t query_ids;  // hash of every query's result ids, in order
  uint64_t ndc;        // summed over the queries
  uint64_t hops;
};

struct PinScenario {
  uint32_t dim = 0;
  std::vector<float> rows;     // script rows, row-major
  std::vector<float> queries;  // 50 query rows
  HnswIndex::Params params;
  uint32_t pool_size = 40;
  const float* Row(uint32_t i) const {
    return rows.data() + static_cast<size_t>(i) * dim;
  }
  uint32_t num_rows() const {
    return static_cast<uint32_t>(rows.size() / dim);
  }
};

Pin Capture(const HnswIndex& index, const PinScenario& scenario) {
  Pin pin{index.size(), index.live_size(), index.build_distance_evals(),
          HashStructure(index), 0, 0, 0};
  SearchScratch scratch(std::max<uint32_t>(index.size(), 1));
  SearchParams params;
  params.k = 10;
  params.pool_size = scenario.pool_size;
  Fnv ids;
  for (size_t q = 0; q < scenario.queries.size() / scenario.dim; ++q) {
    QueryStats stats;
    const std::vector<uint32_t> result = index.SearchWith(
        scratch, scenario.queries.data() + q * scenario.dim, params, &stats);
    ids.Add(result.size());
    for (uint32_t id : result) ids.Add(id);
    pin.ndc += stats.distance_evals;
    pin.hops += stats.hops;
  }
  pin.query_ids = ids.value();
  return pin;
}

void ExpectPin(const Pin& actual, const Pin& expected, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(actual.size, expected.size);
  EXPECT_EQ(actual.live, expected.live);
  EXPECT_EQ(actual.build_evals, expected.build_evals);
  EXPECT_EQ(actual.structure, expected.structure);
  EXPECT_EQ(actual.query_ids, expected.query_ids);
  EXPECT_EQ(actual.ndc, expected.ndc);
  EXPECT_EQ(actual.hops, expected.hops);
}

// Adds rows [begin, end); after each add, one in `remove_every` steps
// tombstones a pseudo-random id (possibly an already-removed one, which is
// a no-op). Compacts once when the add at `compact_at` lands.
void RunScript(HnswIndex& index, const PinScenario& scenario,
               uint32_t begin, uint32_t end, uint64_t seed,
               uint32_t remove_every, uint32_t compact_at) {
  uint64_t state = seed;
  for (uint32_t i = begin; i < end; ++i) {
    index.Add(scenario.Row(i));
    if (SplitMix(state) % remove_every == 0) {
      index.Remove(static_cast<uint32_t>(SplitMix(state) % index.size()));
    }
    if (i == compact_at) index.Compact();
  }
}

PinScenario RandomRows(uint32_t n, uint32_t dim, uint64_t seed) {
  PinScenario scenario;
  scenario.dim = dim;
  uint64_t state = seed;
  const auto uniform = [&] {
    return static_cast<float>(SplitMix(state) >> 40) / 16777216.0f;
  };
  scenario.rows.resize(static_cast<size_t>(n) * dim);
  for (float& value : scenario.rows) value = uniform();
  scenario.queries.resize(static_cast<size_t>(50) * dim);
  for (float& value : scenario.queries) value = uniform();
  return scenario;
}

// Every row is one of `distinct` small-integer prototypes: most distances
// tie exactly, so neighbour order rests entirely on the tie-breaking rules.
PinScenario DuplicateRows(uint32_t n, uint32_t dim, uint32_t distinct,
                          uint64_t seed) {
  PinScenario scenario;
  scenario.dim = dim;
  uint64_t state = seed;
  std::vector<float> prototypes(static_cast<size_t>(distinct) * dim);
  for (float& value : prototypes) {
    value = static_cast<float>(SplitMix(state) % 5);
  }
  scenario.rows.resize(static_cast<size_t>(n) * dim);
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t p = static_cast<uint32_t>(SplitMix(state) % distinct);
    std::memcpy(scenario.rows.data() + static_cast<size_t>(i) * dim,
                prototypes.data() + static_cast<size_t>(p) * dim,
                dim * sizeof(float));
  }
  scenario.queries.resize(static_cast<size_t>(50) * dim);
  for (float& value : scenario.queries) {
    value = static_cast<float>(SplitMix(state) % 9) * 0.5f;
  }
  return scenario;
}

// Runs the three-phase script shared by the pin scenarios: a main script
// over rows [0, main_end), then a copy that diverges on the remaining rows
// while the original takes its own removes and adds. Copies must behave
// as if independent, so the original is re-hashed after the copy's script.
void RunPinScenario(const PinScenario& scenario, uint32_t main_end,
                    uint32_t remove_every, const Pin& expected_main,
                    const Pin& expected_fork, const Pin& expected_original) {
  HnswIndex index(scenario.dim, scenario.params);
  RunScript(index, scenario, 0, main_end, 11, remove_every, main_end / 2);
  const Pin main = Capture(index, scenario);
  ExpectPin(main, expected_main, "main script");

  HnswIndex fork(index);
  const uint32_t end = scenario.num_rows();
  RunScript(fork, scenario, main_end, end, 23, remove_every,
            main_end + (end - main_end) / 2);
  EXPECT_EQ(HashStructure(index), main.structure)
      << "mutating a copy changed the original";
  ExpectPin(Capture(fork, scenario), expected_fork, "fork");

  uint64_t state = 37;
  for (uint32_t step = 0; step < 40; ++step) {
    index.Remove(static_cast<uint32_t>(SplitMix(state) % index.size()));
  }
  RunScript(index, scenario, main_end, std::min(end, main_end + 20), 41,
            remove_every, end);
  ExpectPin(Capture(index, scenario), expected_original, "original");
}

TEST(DynamicHnswPinTest, RandomRows) {
  PinScenario scenario = RandomRows(3300, 16, 101);
  scenario.params.m = 8;
  scenario.params.ef_construction = 48;
  scenario.params.seed = 7;
  RunPinScenario(scenario, 3000, 4,
                 {2699, 2347, 2150077, 17132265241297694461ULL,
                  16265111265311753115ULL, 25349, 3364},
                 {2605, 2564, 3645326, 8291743264926401499ULL,
                  11798201346746846471ULL, 25341, 3390},
                 {2719, 2325, 2163890, 8399253257222539274ULL,
                  1864223178690237685ULL, 25371, 3363});
}

TEST(DynamicHnswPinTest, DuplicateHeavyRows) {
  PinScenario scenario = DuplicateRows(2700, 8, 30, 202);
  scenario.params.m = 5;
  scenario.params.ef_construction = 32;
  scenario.params.seed = 9;
  RunPinScenario(scenario, 2400, 3,
                 {2095, 1725, 359150, 18445407316666555407ULL,
                  5551441567055039742ULL, 4750, 3827},
                 {1988, 1945, 585664, 9596611886328369314ULL,
                  13020623094533094137ULL, 4747, 3663},
                 {2115, 1711, 361527, 17832624195357939462ULL,
                  10899395302806898964ULL, 4784, 3843});
}

TEST(DynamicHnswPinTest, TinySetBelowOnePage) {
  // Fewer vertices than one 64-vertex page, an odd dimension, and the
  // default degree bound.
  PinScenario scenario = RandomRows(48, 5, 303);
  scenario.pool_size = 16;
  RunPinScenario(scenario, 40, 3,
                 {34, 28, 1926, 18195057161100427442ULL,
                  18218183088666133276ULL, 1834, 1234},
                 {35, 35, 3857, 4502966199711436254ULL,
                  3750322780069344731ULL, 1789, 951},
                 {42, 15, 2756, 16938298553047388370ULL,
                  9340143935122873597ULL, 2234, 1337});
}

TEST(DynamicHnswPinTest, CompactToEmptyThenRegrow) {
  PinScenario scenario = RandomRows(60, 7, 404);
  scenario.params.m = 3;
  scenario.params.ef_construction = 12;
  scenario.pool_size = 16;
  HnswIndex index(scenario.dim, scenario.params);
  RunScript(index, scenario, 0, 30, 5, 2, 30);
  for (uint32_t id = 0; id < index.size(); ++id) index.Remove(id);
  EXPECT_TRUE(index.Compact().empty());
  EXPECT_EQ(index.size(), 0u);
  RunScript(index, scenario, 30, 60, 6, 5, 45);
  ExpectPin(Capture(index, scenario),
            {27, 26, 2320, 2425831933274327265ULL, 1345820407447755370ULL,
             1748, 1181},
            "regrown");
}

// HnswPinTest pins the static batched build the same way: the hierarchy
// (per vertex: level and neighbour lists per level in order; plus entry
// point and max level), build_stats().distance_evals, and ids/NDC/hops of
// 50 queries, at 1 and 4 build threads. Recorded like DynamicHnswPinTest's;
// a moved pin means the construction or the query walk changed.

struct StaticPin {
  uint64_t build_evals;
  uint64_t structure;
  uint64_t query_ids;
  uint64_t ndc;
  uint64_t hops;
};

uint64_t HashHierarchy(const HnswIndex& index) {
  Fnv h;
  h.Add(index.entry_point());
  h.Add(index.max_level());
  for (uint32_t id = 0; id < index.size(); ++id) {
    h.Add(index.Level(id));
    for (uint32_t level = 0; level <= index.Level(id); ++level) {
      const auto& neighbors = index.Neighbors(id, level);
      h.Add(neighbors.size());
      for (uint32_t neighbor : neighbors) h.Add(neighbor);
    }
  }
  return h.value();
}

void ExpectStaticPin(const PinScenario& scenario, uint32_t threads,
                     const StaticPin& expected) {
  SCOPED_TRACE(threads);
  const Dataset data(scenario.num_rows(), scenario.dim, scenario.rows);
  HnswIndex::Params params;
  params.m = scenario.params.m;
  params.ef_construction = scenario.params.ef_construction;
  params.seed = scenario.params.seed;
  params.build_threads = threads;
  HnswIndex index(params);
  index.Build(data);
  StaticPin pin{index.build_stats().distance_evals, HashHierarchy(index), 0,
                0, 0};
  SearchScratch scratch(index.size());
  SearchParams search;
  search.k = 10;
  search.pool_size = scenario.pool_size;
  Fnv ids;
  for (size_t q = 0; q < scenario.queries.size() / scenario.dim; ++q) {
    QueryStats stats;
    const std::vector<uint32_t> result = index.SearchWith(
        scratch, scenario.queries.data() + q * scenario.dim, search, &stats);
    ids.Add(result.size());
    for (uint32_t id : result) ids.Add(id);
    pin.ndc += stats.distance_evals;
    pin.hops += stats.hops;
  }
  pin.query_ids = ids.value();
  EXPECT_EQ(pin.build_evals, expected.build_evals);
  EXPECT_EQ(pin.structure, expected.structure);
  EXPECT_EQ(pin.query_ids, expected.query_ids);
  EXPECT_EQ(pin.ndc, expected.ndc);
  EXPECT_EQ(pin.hops, expected.hops);
}

TEST(HnswPinTest, RandomRows) {
  PinScenario scenario = RandomRows(3000, 16, 505);
  scenario.params.m = 8;
  scenario.params.ef_construction = 48;
  scenario.params.seed = 7;
  for (uint32_t threads : {1u, 4u}) {
    ExpectStaticPin(scenario, threads,
                    {1493979, 15283718287320290375ULL,
                     16665334168715386989ULL, 18091, 2396});
  }
}

TEST(HnswPinTest, DuplicateHeavyRows) {
  PinScenario scenario = DuplicateRows(2700, 8, 30, 606);
  scenario.params.m = 5;
  scenario.params.ef_construction = 32;
  scenario.params.seed = 9;
  for (uint32_t threads : {1u, 4u}) {
    ExpectStaticPin(scenario, threads,
                    {264017, 10581533140826462053ULL, 1088352821806923273ULL,
                     3559, 2343});
  }
}

}  // namespace
}  // namespace weavess
