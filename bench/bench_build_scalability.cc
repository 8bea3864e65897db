// Parallel-construction scalability: build time vs build_threads at
// growing cardinality, with the determinism contract re-proven at every
// point. Every build stage is bit-for-bit thread-count-invariant
// (docs/CONCURRENCY.md), so this bench both measures the speedup (the
// paper's Fig. 5/6 construction axis, scaled toward 1M synthetic points
// via WEAVESS_SCALE) and *verifies* that adjacency, distance evaluations,
// and recall are unchanged against the 1-thread oracle build. Emits one
// JSON line per build, one per standalone NN-Descent run, plus an
// environment line:
//
//   {"bench":"build_env","threads_available":H,"kernel_level":K,"scale":S}
//   {"bench":"build","algo":A,"n":N,"dim":D,"threads":T,"seconds":S,
//    "distance_evals":E,"speedup":X,"recall":R,"identical":true}
//   {"bench":"nn_descent","n":N,"threads":T,"seconds":S,
//    "distance_evals":E,"peak_staged":P}
//
// "identical" compares the full adjacency against the same-cardinality
// 1-thread build; "speedup" is that build's seconds / this build's
// seconds. On a machine with fewer hardware threads than the ladder the
// timings honestly flatten near 1.0x — threads_available records the
// context so downstream checks can gate speedup assertions on it.
// The nn_descent rows time NnDescent alone, with KGraph's parameters: the
// C1 layer under KGraph, NSG, NSSG, DPG, OA and EFANNA. "peak_staged" is
// NnDescent::peak_staged(), the most triples one join block kept; like
// distance_evals it does not depend on the thread count.
//
// Knobs beyond bench_common.h: WEAVESS_BUILD_THREADS (comma-separated
// ladder, default 1,2,4,8).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/kgraph.h"
#include "bench_common.h"
#include "core/distance.h"
#include "core/timer.h"
#include "graph/nn_descent.h"

namespace weavess::bench {
namespace {

constexpr uint32_t kRecallAtK = 10;
constexpr uint32_t kRecallPool = 80;

std::vector<uint32_t> ThreadLadder() {
  std::vector<uint32_t> ladder;
  const char* value = std::getenv("WEAVESS_BUILD_THREADS");
  for (const std::string& token :
       SplitCsv(value != nullptr ? value : "1,2,4,8")) {
    const long parsed = std::atol(token.c_str());
    if (parsed > 0) ladder.push_back(static_cast<uint32_t>(parsed));
  }
  return ladder;
}

AlgorithmOptions BuildOptions() {
  AlgorithmOptions options;
  options.knng_degree = 20;
  options.max_degree = 20;
  options.build_pool = 60;
  options.nn_descent_iters = 6;
  return options;
}

Workload TierWorkload(uint32_t n) {
  SyntheticSpec spec;
  spec.num_base = std::max(n, 64u);
  spec.dim = 24;
  spec.num_queries = 50;
  spec.num_clusters = 16;
  spec.seed = 42;
  return GenerateSynthetic(spec, "build-scale");
}

// Standalone NN-Descent with KGraph's parameters, one row per thread count.
void RunNnDescent(const Dataset& base,
                  const std::vector<uint32_t>& threads_ladder) {
  const AlgorithmOptions options = BuildOptions();
  for (const uint32_t threads : threads_ladder) {
    NnDescentParams params = KGraphConfig(options).nn_descent;
    params.seed = options.seed;
    params.num_threads = threads;
    DistanceCounter counter;
    Timer timer;
    NnDescent descent(base, params, &counter);
    descent.InitRandom();
    descent.Run();
    const double seconds = timer.Seconds();
    std::printf(
        "{\"bench\":\"nn_descent\",\"n\":%u,\"threads\":%u,"
        "\"seconds\":%.3f,\"distance_evals\":%llu,\"peak_staged\":%llu}\n",
        base.size(), threads, seconds,
        static_cast<unsigned long long>(counter.count),
        static_cast<unsigned long long>(descent.peak_staged()));
    std::fflush(stdout);
  }
}

void Run() {
  Banner("Build scalability: threads x cardinality, determinism verified",
         "Parallel NN-Descent joins, the NSG and Vamana pipelines and HNSW "
         "batch insertion on the shared ThreadPool; every build is checked "
         "bit-identical to the 1-thread oracle (docs/CONCURRENCY.md).");
  const double scale = EnvScale();
  const uint32_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf(
      "{\"bench\":\"build_env\",\"threads_available\":%u,"
      "\"kernel_level\":\"%s\",\"scale\":%.2f}\n",
      hw, KernelLevelName(ActiveKernelLevel()), scale);
  std::fflush(stdout);

  // Cardinality tiers of the construction-scalability sweep. At scale 1
  // the top tier is the paper-style 100k+ point regime; WEAVESS_SCALE=10
  // pushes it to 1M.
  const std::vector<uint32_t> tiers = {
      static_cast<uint32_t>(25000 * scale),
      static_cast<uint32_t>(100000 * scale),
  };
  const std::vector<uint32_t> threads_ladder = ThreadLadder();

  // KGraph exercises the staged NN-Descent joins and HNSW batched
  // prefix-doubling insertion, the two parallel construction substrates.
  // NSG adds its parallel selection pass and serial connectivity repair to
  // NN-Descent. Vamana's in-place refinement is still serial, and with no
  // connectivity repair its graph fragments on these 16 clusters, so its
  // recall is low (the paper's Table 4 finding; algorithms_test's
  // ConnectivityFinding).
  for (const std::string& algo :
       SelectedAlgorithms({"KGraph", "HNSW", "NSG", "Vamana"})) {
    for (const uint32_t n : tiers) {
      const Workload workload = TierWorkload(n);
      const GroundTruth truth = ComputeGroundTruth(
          workload.base, workload.queries, kRecallAtK, hw);

      AlgorithmOptions options = BuildOptions();

      std::unique_ptr<AnnIndex> oracle;  // the 1-thread reference build
      double oracle_seconds = 0.0;
      for (const uint32_t threads : threads_ladder) {
        options.build_threads = threads;
        auto index = CreateAlgorithm(algo, options);
        Timer timer;
        index->Build(workload.base);
        const double seconds = timer.Seconds();
        if (oracle == nullptr) {
          // First rung is the determinism oracle; force it to 1 thread so
          // a custom ladder without "1" still compares against sequential.
          oracle_seconds = seconds;
          if (threads != 1) {
            AlgorithmOptions sequential = options;
            sequential.build_threads = 1;
            oracle = CreateAlgorithm(algo, sequential);
            Timer oracle_timer;
            oracle->Build(workload.base);
            oracle_seconds = oracle_timer.Seconds();
          }
        }
        const AnnIndex& reference = oracle != nullptr ? *oracle : *index;
        const bool identical = &reference == index.get() ||
                               index->graph() == reference.graph();
        SearchParams params;
        params.k = kRecallAtK;
        params.pool_size = kRecallPool;
        const SearchPoint point = EvaluateSearch(
            *index, workload.queries, truth, params);
        std::printf(
            "{\"bench\":\"build\",\"algo\":\"%s\",\"n\":%u,\"dim\":%u,"
            "\"threads\":%u,\"seconds\":%.3f,\"distance_evals\":%llu,"
            "\"speedup\":%.2f,\"recall\":%.4f,\"identical\":%s}\n",
            algo.c_str(), workload.base.size(), workload.base.dim(),
            threads, seconds,
            static_cast<unsigned long long>(
                index->build_stats().distance_evals),
            oracle_seconds / std::max(seconds, 1e-9), point.recall,
            identical ? "true" : "false");
        std::fflush(stdout);
        if (oracle == nullptr) oracle = std::move(index);
      }
    }
  }
  for (const uint32_t n : tiers) {
    RunNnDescent(TierWorkload(n).base, threads_ladder);
  }
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
