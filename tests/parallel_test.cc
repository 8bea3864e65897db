// Thread-count invariance of the parallelizable construction stages: exact
// KNNG, ground truth, and the pipeline refinement pass must produce
// identical results at any thread count (§5.1's parallel builds may not
// change outcomes).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "algorithms/nsg.h"
#include "algorithms/registry.h"
#include "core/parallel.h"
#include "core/thread_pool.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "graph/exact_knng.h"
#include "test_util.h"

namespace weavess {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  // 1003 indices on 4 workers claim chunks of 1003 / 64 = 15, which do not
  // divide the range; the first indices cost far more than the rest.
  constexpr uint32_t kCount = 1003;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h = 0;
  std::atomic<uint64_t> sink{0};
  ParallelForWithWorker(0, kCount, 4, [&](uint32_t i, uint32_t) {
    uint64_t spin = i;
    const uint32_t rounds = i < 40 ? 20000 : 10;
    for (uint32_t r = 0; r < rounds; ++r) {
      spin = spin * 6364136223846793005ULL + 1;
    }
    sink.fetch_add(spin & 1, std::memory_order_relaxed);
    ++hits[i];
  });
  for (uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelForTest, EmptyAndSingleRanges) {
  int calls = 0;
  ParallelFor(5, 5, 4, [&calls](uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(5, 6, 4, [&calls](uint32_t i) {
    ++calls;
    EXPECT_EQ(i, 5u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, WorkerIndicesWithinBounds) {
  std::atomic<bool> ok{true};
  ParallelForWithWorker(0, 100, 3, [&ok](uint32_t, uint32_t worker) {
    if (worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForTest, RethrowsFirstWorkerException) {
  // Regression: the spawn-per-call ParallelFor let a worker exception
  // escape into std::terminate. The pool-backed version must capture it
  // and rethrow on the calling thread after the loop drains.
  EXPECT_THROW(
      ParallelFor(0, 64, 4,
                  [](uint32_t i) {
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  try {
    ParallelFor(0, 64, 4, [](uint32_t i) {
      if (i == 13) throw std::runtime_error("expected message");
    });
    FAIL() << "expected the worker exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "expected message");
  }
}

TEST(ParallelForTest, UsableAfterException) {
  // The shared pool must stay healthy after a throwing loop.
  EXPECT_THROW(ParallelFor(0, 16, 4,
                           [](uint32_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  std::atomic<int> calls{0};
  ParallelFor(0, 100, 4, [&calls](uint32_t) { ++calls; });
  EXPECT_EQ(calls.load(), 100);
}

TEST(ParallelForTest, WorkerSlotNeverRunsOnTwoThreadsAtOnce) {
  // Per-slot scratch relies on this: a slot that two threads held at once
  // would find its busy flag already set.
  constexpr uint32_t kThreads = 4;
  std::vector<std::atomic<bool>> busy(kThreads);
  for (auto& b : busy) b = false;
  std::atomic<int> overlaps{0};
  std::atomic<int> calls{0};
  ParallelForWithWorker(0, 2000, kThreads, [&](uint32_t, uint32_t worker) {
    ASSERT_LT(worker, kThreads);
    if (busy[worker].exchange(true)) ++overlaps;
    // Hold the slot long enough for a second holder to be caught.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    ++calls;
    busy[worker].store(false);
  });
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(calls.load(), 2000);
}

TEST(ParallelForTest, CompletesInsidePoolTasks) {
  // Sharded builds run each shard's build as a task of their own pool, and
  // the build's loops run on the shared pool; the nested loops must
  // finish even while every shared worker is busy with a sibling's loop.
  // The shared pool itself may also be the outer pool.
  ThreadPool outer(3);
  for (ThreadPool* pool : {&outer, &SharedThreadPool()}) {
    std::vector<std::atomic<int>> hits(4 * 500);
    for (auto& h : hits) h = 0;
    pool->RunTasks(4, [&hits](uint32_t task) {
      ParallelForWithWorker(0, 500, 4, [&hits, task](uint32_t i, uint32_t) {
        ++hits[task * 500 + i];
      });
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelTest, ExactKnngThreadCountInvariant) {
  SyntheticSpec spec;
  spec.num_base = 300;
  spec.dim = 8;
  spec.seed = 17;
  const Dataset data = GenerateSynthetic(spec).base;
  DistanceCounter serial_counter, parallel_counter;
  const Graph serial = BuildExactKnng(data, 6, &serial_counter, 1);
  const Graph parallel = BuildExactKnng(data, 6, &parallel_counter, 4);
  for (uint32_t v = 0; v < data.size(); ++v) {
    ASSERT_EQ(serial.Neighbors(v), parallel.Neighbors(v));
  }
  EXPECT_EQ(serial_counter.count, parallel_counter.count);
}

TEST(ParallelTest, GroundTruthThreadCountInvariant) {
  SyntheticSpec spec;
  spec.num_base = 400;
  spec.dim = 8;
  spec.num_queries = 25;
  spec.seed = 19;
  const Workload workload = GenerateSynthetic(spec);
  const GroundTruth serial =
      ComputeGroundTruth(workload.base, workload.queries, 5, 1);
  const GroundTruth parallel =
      ComputeGroundTruth(workload.base, workload.queries, 5, 4);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelTest, BuildThreadCountInvariantAcrossAlgorithms) {
  // The deterministic-construction contract of docs/CONCURRENCY.md: the
  // staged NN-Descent joins (KGraph, EFANNA, DPG, NSSG, OA) and HNSW's
  // batched insertion must produce bit-identical adjacency — and an
  // identical distance-evaluation count — at 1, 2, and 8 build threads.
  const auto tw = ::weavess::testing::MakeTestWorkload(500, 8, 10);
  for (const char* algo : {"KGraph", "EFANNA", "DPG", "NSSG", "OA", "HNSW"}) {
    std::unique_ptr<AnnIndex> reference;
    uint64_t reference_evals = 0;
    for (const uint32_t threads : {1u, 2u, 8u}) {
      AlgorithmOptions options;
      options.build_threads = threads;
      auto index = CreateAlgorithm(algo, options);
      index->Build(tw.workload.base);
      if (reference == nullptr) {
        reference = std::move(index);
        reference_evals = reference->build_stats().distance_evals;
        continue;
      }
      ASSERT_TRUE(index->graph() == reference->graph())
          << algo << " at " << threads << " threads";
      EXPECT_EQ(index->build_stats().distance_evals, reference_evals)
          << algo << " at " << threads << " threads";
    }
  }
}

TEST(ParallelTest, NsgBuildThreadCountInvariant) {
  const auto tw = ::weavess::testing::MakeTestWorkload(500, 8, 10);
  AlgorithmOptions serial_options;
  serial_options.build_threads = 1;
  AlgorithmOptions parallel_options = serial_options;
  parallel_options.build_threads = 4;
  auto a = CreateNsg(serial_options);
  auto b = CreateNsg(parallel_options);
  a->Build(tw.workload.base);
  b->Build(tw.workload.base);
  // The refinement pass reads a fixed base graph, so per-vertex results
  // are order-independent: the graphs must be identical.
  ASSERT_TRUE(a->graph() == b->graph());
}

}  // namespace
}  // namespace weavess
