// Concurrency suite for the batched query engine (docs/CONCURRENCY.md):
// ThreadPool semantics, bit-for-bit thread-count invariance of SearchBatch
// against a single-thread looped-Search oracle across registry algorithms,
// per-query budget isolation, and a many-producer stress test. The whole
// binary must run ThreadSanitizer-clean (build with -DWEAVESS_TSAN=ON).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>

#include "algorithms/registry.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/engine.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(997);
  for (auto& h : hits) h = 0;
  pool.RunTasks(997, [&hits](uint32_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroWorkersIsASequentialExecutor) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::vector<uint32_t> order;
  pool.RunTasks(8, [&order](uint32_t i) { order.push_back(i); });
  // No workers: the caller runs tasks in claim order, which is 0..n-1.
  ASSERT_EQ(order.size(), 8u);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ZeroTasksReturnsImmediately) {
  ThreadPool pool(2);
  pool.RunTasks(0, [](uint32_t) { FAIL() << "no task should run"; });
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  ThreadPool pool(3);
  std::atomic<int> completed{0};
  try {
    pool.RunTasks(64, [&completed](uint32_t i) {
      if (i == 7) throw std::runtime_error("task 7 failed");
      ++completed;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 7 failed");
  }
  // Every non-throwing task still ran (in-flight work is not cancelled).
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPoolTest, ReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.RunTasks(8, [](uint32_t) { throw std::runtime_error("x"); }),
      std::runtime_error);
  std::atomic<int> calls{0};
  pool.RunTasks(32, [&calls](uint32_t) { ++calls; });
  EXPECT_EQ(calls.load(), 32);
}

TEST(ThreadPoolTest, MarksTasksOfParallelBatchesOnly) {
  EXPECT_FALSE(ThreadPool::InParallelTask());
  ThreadPool pool(2);
  ThreadPool no_workers(0);
  std::atomic<int> marked{0};
  std::atomic<int> nested_marked{0};
  pool.RunTasks(16, [&](uint32_t) {
    if (ThreadPool::InParallelTask()) ++marked;
    // A nested one-stream batch keeps the outer batch's mark.
    no_workers.RunTasks(2, [&](uint32_t) {
      if (ThreadPool::InParallelTask()) ++nested_marked;
    });
  });
  EXPECT_EQ(marked.load(), 16);
  EXPECT_EQ(nested_marked.load(), 32);
  EXPECT_FALSE(ThreadPool::InParallelTask());  // cleared on the caller
  // One task, or a pool without workers, is a single stream.
  std::atomic<int> single_marked{0};
  pool.RunTasks(1, [&](uint32_t) {
    if (ThreadPool::InParallelTask()) ++single_marked;
  });
  no_workers.RunTasks(4, [&](uint32_t) {
    if (ThreadPool::InParallelTask()) ++single_marked;
  });
  EXPECT_EQ(single_marked.load(), 0);
}

TEST(ThreadPoolTest, NestedRunTasksDoesNotDeadlock) {
  // Inner calls on a saturated pool must complete on the calling threads.
  ThreadPool pool(2);
  std::atomic<int> inner_calls{0};
  pool.RunTasks(4, [&pool, &inner_calls](uint32_t) {
    pool.RunTasks(8, [&inner_calls](uint32_t) { ++inner_calls; });
  });
  EXPECT_EQ(inner_calls.load(), 4 * 8);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromManyProducers) {
  ThreadPool pool(3);
  constexpr int kProducers = 4;
  std::vector<std::atomic<int>> sums(kProducers);
  for (auto& s : sums) s = 0;
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&pool, &sums, p] {
      for (int round = 0; round < 20; ++round) {
        pool.RunTasks(25, [&sums, p](uint32_t) { ++sums[p]; });
      }
    });
  }
  for (auto& t : producers) t.join();
  for (const auto& s : sums) EXPECT_EQ(s.load(), 20 * 25);
}

// ------------------------------------------------- engine determinism

struct EngineCase {
  const char* algo;
  uint32_t pool_size;
};

class EngineDeterminismTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  static const TestWorkload& Shared() {
    static const TestWorkload* const tw =
        new TestWorkload(MakeTestWorkload(900, 12, 32));
    return *tw;
  }
};

// The single-thread looped-Search oracle SearchBatch must reproduce.
struct Oracle {
  std::vector<std::vector<uint32_t>> ids;
  std::vector<QueryStats> stats;
};

Oracle RunOracle(AnnIndex& index, const Dataset& queries,
                 const SearchParams& params) {
  Oracle oracle;
  oracle.ids.resize(queries.size());
  oracle.stats.resize(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    oracle.ids[q] = index.Search(queries.Row(q), params, &oracle.stats[q]);
  }
  return oracle;
}

TEST_P(EngineDeterminismTest, BitForBitIdenticalAtAnyThreadCount) {
  const EngineCase c = GetParam();
  const TestWorkload& tw = Shared();
  auto index = CreateAlgorithm(c.algo, AlgorithmOptions());
  index->Build(tw.workload.base);

  SearchParams params;
  params.k = 10;
  params.pool_size = c.pool_size;
  const Oracle oracle = RunOracle(*index, tw.workload.queries, params);

  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    const SearchEngine engine(*index, threads);
    const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
    ASSERT_EQ(batch.ids.size(), oracle.ids.size());
    for (uint32_t q = 0; q < oracle.ids.size(); ++q) {
      EXPECT_EQ(batch.ids[q], oracle.ids[q])
          << c.algo << " query " << q << " diverged at " << threads
          << " threads";
      EXPECT_EQ(batch.stats[q].distance_evals,
                oracle.stats[q].distance_evals)
          << c.algo << " NDC diverged for query " << q << " at " << threads
          << " threads";
      EXPECT_EQ(batch.stats[q].hops, oracle.stats[q].hops);
      EXPECT_EQ(batch.stats[q].truncated, oracle.stats[q].truncated);
    }
  }
}

TEST_P(EngineDeterminismTest, RepeatedBatchesAreIdentical) {
  // Scratch reuse across batches must not leak state between queries.
  const EngineCase c = GetParam();
  const TestWorkload& tw = Shared();
  auto index = CreateAlgorithm(c.algo, AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = c.pool_size;
  const SearchEngine engine(*index, 4);
  const BatchResult first = engine.SearchBatch(tw.workload.queries, params);
  const BatchResult second = engine.SearchBatch(tw.workload.queries, params);
  EXPECT_EQ(first.ids, second.ids);
  EXPECT_EQ(first.totals.distance_evals, second.totals.distance_evals);
  EXPECT_EQ(first.totals.hops, second.totals.hops);
}

// Four AnnIndex families (pipeline x3 + HNSW) plus two seed-provider-driven
// ones (acceptance requires at least four registry algorithms), and the
// sharded scatter-gather wrapper, which must honor the same thread-count
// invariance as any inner index.
INSTANTIATE_TEST_SUITE_P(
    RegistryAlgorithms, EngineDeterminismTest,
    ::testing::Values(EngineCase{"HNSW", 40}, EngineCase{"NSG", 40},
                      EngineCase{"KGraph", 60}, EngineCase{"OA", 40},
                      EngineCase{"HCNNG", 40}, EngineCase{"NGT-panng", 40},
                      EngineCase{"Sharded:HNSW", 40}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      std::string name = info.param.algo;
      for (char& ch : name) {
        if (ch == '-' || ch == ':') ch = '_';
      }
      return name;
    });

// ------------------------------------------------- budgets and batch shape

TEST(SearchEngineTest, BudgetsApplyPerQueryNotPerBatch) {
  const auto tw = MakeTestWorkload(700, 12, 24);
  auto index = CreateAlgorithm("HNSW", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  params.max_distance_evals = 150;

  // Oracle: budget-limited single queries in a loop.
  const Oracle oracle = RunOracle(*index, tw.workload.queries, params);
  uint32_t oracle_truncated = 0;
  for (const QueryStats& s : oracle.stats) {
    if (s.truncated) ++oracle_truncated;
  }
  // If the budget never tripped, the test would be vacuous.
  ASSERT_GT(oracle_truncated, 0u);

  const SearchEngine engine(*index, 4);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  EXPECT_EQ(batch.totals.truncated_queries, oracle_truncated);
  for (uint32_t q = 0; q < batch.ids.size(); ++q) {
    // Per-query budget: every query got its own allowance; a batch-global
    // budget would starve late queries entirely.
    EXPECT_EQ(batch.stats[q].distance_evals, oracle.stats[q].distance_evals);
    EXPECT_FALSE(batch.ids[q].empty());
  }
}

TEST(SearchEngineTest, SearchOneMatchesBatch) {
  const auto tw = MakeTestWorkload(600, 12, 16);
  auto index = CreateAlgorithm("NSG", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  const SearchEngine engine(*index, 2);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    QueryStats stats;
    EXPECT_EQ(engine.SearchOne(tw.workload.queries.Row(q), params, &stats),
              batch.ids[q]);
    EXPECT_EQ(stats.distance_evals, batch.stats[q].distance_evals);
  }
}

TEST(SearchEngineTest, TraceEventsAgreeWithQueryStats) {
  // The router's trace hook and its QueryStats are two views of the same
  // walk: one kExpand per hop, at least one kSeed, and a kTruncated event
  // exactly when the stats say the budget tripped.
  const auto tw = MakeTestWorkload(600, 12, 8);
  auto index = CreateAlgorithm("NSG", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  const SearchEngine engine(*index, 1);
  TraceSink sink;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    SCOPED_TRACE(q);
    sink.Clear();
    QueryStats stats;
    engine.SearchOne(tw.workload.queries.Row(q), params, &stats, &sink);
    EXPECT_GE(sink.CountOf(TraceEventKind::kSeed), 1u);
    EXPECT_EQ(sink.CountOf(TraceEventKind::kExpand), stats.hops);
    EXPECT_EQ(sink.CountOf(TraceEventKind::kTruncated),
              stats.truncated ? 1u : 0u);
  }
}

TEST(SearchEngineTest, EngineMetricsMatchBatchTotals) {
  // A registry-attached engine aggregates per-batch: the counters are the
  // batch totals, and the NDC histogram holds one sample per query.
  const auto tw = MakeTestWorkload(600, 12, 16);
  auto index = CreateAlgorithm("NSG", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  MetricsRegistry registry;
  const SearchEngine engine(*index, 3, &registry);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  EXPECT_EQ(registry.CounterValue("search.queries"),
            tw.workload.queries.size());
  EXPECT_EQ(registry.CounterValue("search.batches"), 1u);
  EXPECT_EQ(registry.CounterValue("search.distance_evals"),
            batch.totals.distance_evals);
  EXPECT_EQ(registry.CounterValue("search.hops"), batch.totals.hops);
  const Histogram* ndc = registry.FindHistogram("search.ndc");
  ASSERT_NE(ndc, nullptr);
  EXPECT_EQ(ndc->count(), tw.workload.queries.size());
  EXPECT_EQ(ndc->sum(), batch.totals.distance_evals);
}

TEST(SearchEngineTest, TotalsAreQueryOrderSums) {
  const auto tw = MakeTestWorkload(600, 12, 16);
  auto index = CreateAlgorithm("KGraph", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 50;
  const SearchEngine engine(*index, 3);
  const BatchResult batch = engine.SearchBatch(tw.workload.queries, params);
  uint64_t evals = 0;
  uint64_t hops = 0;
  for (const QueryStats& s : batch.stats) {
    evals += s.distance_evals;
    hops += s.hops;
  }
  EXPECT_EQ(batch.totals.distance_evals, evals);
  EXPECT_EQ(batch.totals.hops, hops);
  EXPECT_GT(batch.totals.wall_seconds, 0.0);
}

// ------------------------------------------------- many-producer stress

TEST(SearchEngineStressTest, ManyProducersShareOneEngine) {
  // SearchBatch is const and documented safe for concurrent producers:
  // hammer one engine from several threads and check every producer sees
  // the single-thread oracle's results. Under TSan this is the test that
  // would flag any scratch-sharing or stats-merge race.
  const auto tw = MakeTestWorkload(800, 12, 24);
  auto index = CreateAlgorithm("OA", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  const Oracle oracle = RunOracle(*index, tw.workload.queries, params);

  const SearchEngine engine(*index, 4);
  constexpr int kProducers = 4;
  constexpr int kRounds = 8;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        const BatchResult batch =
            engine.SearchBatch(tw.workload.queries, params);
        for (uint32_t q = 0; q < oracle.ids.size(); ++q) {
          if (batch.ids[q] != oracle.ids[q] ||
              batch.stats[q].distance_evals !=
                  oracle.stats[q].distance_evals) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SearchEngineStressTest, MixedBatchAndSingleProducers) {
  const auto tw = MakeTestWorkload(600, 12, 16);
  auto index = CreateAlgorithm("HNSW", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 5;
  params.pool_size = 30;
  const Oracle oracle = RunOracle(*index, tw.workload.queries, params);
  const SearchEngine engine(*index, 3);

  std::atomic<int> mismatches{0};
  std::thread batcher([&] {
    for (int round = 0; round < 10; ++round) {
      const BatchResult batch =
          engine.SearchBatch(tw.workload.queries, params);
      for (uint32_t q = 0; q < oracle.ids.size(); ++q) {
        if (batch.ids[q] != oracle.ids[q]) ++mismatches;
      }
    }
  });
  std::thread single([&] {
    for (int round = 0; round < 10; ++round) {
      for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
        if (engine.SearchOne(tw.workload.queries.Row(q), params) !=
            oracle.ids[q]) {
          ++mismatches;
        }
      }
    }
  });
  batcher.join();
  single.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace weavess
