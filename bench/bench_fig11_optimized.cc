// Reproduces the optimized-algorithm evaluation (§6 "Improvement" /
// Appendix P):
//   Figure 11 / 16 — Speedup vs Recall@10 of OA against the state of the
//                    art (NSG, NSSG, HCNNG, HNSW, DPG);
//   Table 19       — construction time;
//   Table 20       — index size;
//   Table 21       — GQ / AD / CC;
//   Table 22       — CS / PL / MO at the high-precision target.
// Expected shape: OA matches or beats every baseline's tradeoff curve
// while keeping NSG-like construction cost and index size.
#include <memory>

#include "bench_common.h"
#include "core/metrics.h"
#include "graph/exact_knng.h"

namespace weavess::bench {
namespace {

constexpr uint32_t kRecallAtK = 10;
constexpr double kTargetRecall = 0.90;

void Run() {
  Banner("Figure 11 / Tables 19-22",
         "Optimized algorithm (OA) vs the state of the art");
  const double scale = EnvScale();
  std::vector<std::string> datasets = SelectedDatasets();
  if (std::getenv("WEAVESS_DATASETS") == nullptr) {
    datasets = {"SIFT1M", "GIST1M"};
  }
  const std::vector<std::string> algorithms =
      SelectedAlgorithms({"OA", "NSG", "NSSG", "HCNNG", "HNSW", "DPG"});

  TablePrinter curves({"Dataset", "Algorithm", "L", "Recall@10", "Speedup",
                       "QPS"});
  TablePrinter build({"Dataset", "Algorithm", "CT(s)", "IS(MB)", "GQ", "AD",
                      "CC"});
  TablePrinter search_stats(
      {"Dataset", "Algorithm", "CS", "PL", "MO(MB)", "Recall@10"});

  for (const std::string& dataset_name : datasets) {
    const Workload workload = MakeStandIn(dataset_name, scale);
    const GroundTruth truth =
        ComputeGroundTruth(workload.base, workload.queries, kRecallAtK);
    const CsrGraph exact(BuildExactKnng(workload.base, 10));
    for (const std::string& algorithm : algorithms) {
      std::unique_ptr<AnnIndex> index =
          CreateAlgorithm(algorithm, DefaultOptions());
      index->Build(workload.base);
      const DegreeStats degrees = ComputeDegreeStats(index->graph());
      build.AddRow(
          {dataset_name, algorithm,
           TablePrinter::Fixed(index->build_stats().seconds, 2),
           TablePrinter::Megabytes(index->IndexMemoryBytes()),
           TablePrinter::Fixed(ComputeGraphQuality(index->graph(), exact),
                               3),
           TablePrinter::Fixed(degrees.average, 1),
           TablePrinter::Int(CountConnectedComponents(index->graph()))});
      bool reached = false;
      for (const SearchPoint& point :
           SweepPoolSizes(*index, workload.queries, truth, kRecallAtK,
                          BenchPoolLadder())) {
        curves.AddRow({dataset_name, algorithm,
                       TablePrinter::Int(point.params.pool_size),
                       TablePrinter::Fixed(point.recall, 3),
                       TablePrinter::Fixed(point.speedup, 1),
                       TablePrinter::Fixed(point.qps, 0)});
        if (!reached && point.recall >= kTargetRecall) {
          reached = true;
          search_stats.AddRow(
              {dataset_name, algorithm,
               TablePrinter::Int(point.params.pool_size),
               TablePrinter::Fixed(point.mean_hops, 0),
               TablePrinter::Megabytes(EstimateSearchMemory(
                   *index, workload.base, point.params)),
               TablePrinter::Fixed(point.recall, 3)});
        }
      }
      if (!reached) {
        search_stats.AddRow({dataset_name, algorithm,
                             TablePrinter::Int(BenchPoolLadder().back()) +
                                 "+",
                             "-", "-", "<target"});
      }
      std::printf("evaluated %-6s on %s\n", algorithm.c_str(),
                  dataset_name.c_str());
      std::fflush(stdout);
    }
  }
  std::printf("\n--- Figure 11: Speedup vs Recall@10 ---\n");
  curves.Print();
  std::printf("\n--- Tables 19-21: construction ---\n");
  build.Print();
  std::printf("\n--- Table 22: CS / PL / MO at Recall@10 >= %.2f ---\n",
              kTargetRecall);
  search_stats.Print();
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
