// Reproduces the k-DR study (Appendix N):
//   Table 16 — index construction time and index size of k-DR vs
//              NGT-panng / NGT-onng;
//   Table 17 — GQ / AD / CC and CS / PL / MO of the three.
// Expected shapes: NGT builds faster (exact init for k-DR is O(|S|^2));
// k-DR's stricter path pruning yields smaller average degree, index size,
// and memory; overall k-DR achieves the better tradeoff.
#include <memory>

#include "bench_common.h"
#include "core/metrics.h"
#include "graph/exact_knng.h"

namespace weavess::bench {
namespace {

constexpr uint32_t kRecallAtK = 10;
constexpr double kTargetRecall = 0.90;

void Run() {
  Banner("Tables 16-18 (Appendix N)", "k-DR vs NGT-panng vs NGT-onng");
  const double scale = EnvScale();
  std::vector<std::string> datasets = SelectedDatasets();
  if (std::getenv("WEAVESS_DATASETS") == nullptr) {
    datasets = {"Audio", "SIFT1M", "GloVe"};
  }
  const std::vector<std::string> algorithms =
      SelectedAlgorithms({"k-DR", "NGT-panng", "NGT-onng"});

  TablePrinter table16({"Dataset", "Algorithm", "ICT(s)", "IS(MB)"});
  TablePrinter table17({"Dataset", "Algorithm", "GQ", "AD", "CC", "CS",
                        "PL", "MO(MB)"});

  for (const std::string& dataset_name : datasets) {
    const Workload workload = MakeStandIn(dataset_name, scale);
    const GroundTruth truth =
        ComputeGroundTruth(workload.base, workload.queries, kRecallAtK);
    const CsrGraph exact(BuildExactKnng(workload.base, 10));
    for (const std::string& algorithm : algorithms) {
      std::unique_ptr<AnnIndex> index =
          CreateAlgorithm(algorithm, DefaultOptions());
      index->Build(workload.base);
      table16.AddRow({dataset_name, algorithm,
                      TablePrinter::Fixed(index->build_stats().seconds, 2),
                      TablePrinter::Megabytes(index->IndexMemoryBytes())});
      const DegreeStats degrees = ComputeDegreeStats(index->graph());
      const CandidateSizeResult found =
          FindCandidateSize(*index, workload.queries, truth, kRecallAtK,
                            kTargetRecall, BenchPoolLadder());
      table17.AddRow(
          {dataset_name, algorithm,
           TablePrinter::Fixed(ComputeGraphQuality(index->graph(), exact),
                               3),
           TablePrinter::Fixed(degrees.average, 1),
           TablePrinter::Int(CountConnectedComponents(index->graph())),
           TablePrinter::Int(found.point.params.pool_size) +
               (found.reached_target ? "" : "+"),
           TablePrinter::Fixed(found.point.mean_hops, 0),
           TablePrinter::Megabytes(EstimateSearchMemory(
               *index, workload.base, found.point.params))});
      std::printf("%-10s on %-8s done\n", algorithm.c_str(),
                  dataset_name.c_str());
      std::fflush(stdout);
    }
  }
  std::printf("\n--- Table 16: construction ---\n");
  table16.Print();
  std::printf("\n--- Table 17: structure and search stats ---\n");
  table17.Print();
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
