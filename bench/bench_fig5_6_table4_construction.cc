// Reproduces the paper's index-construction evaluation (§5.2):
//   Figure 5  — index construction time per algorithm per dataset;
//   Figure 6  — index size;
//   Table 4   — graph quality GQ, average out-degree AD, #connected
//               components CC;
//   Table 11  — maximum / minimum out-degree.
// All four share the same (expensive) builds, so one binary regenerates
// them together. The paper's expectations, which the shapes here track:
// NN-Descent algorithms (KGraph/EFANNA/DPG/NSSG) build fastest; brute-force
// initializations (IEH/FANNG/k-DR) slowest; RNG-pruned graphs (NSG/NSSG)
// have the smallest index; KNNG-based graphs have the highest GQ; DG/MST-
// based graphs have CC = 1.
#include <memory>

#include "bench_common.h"
#include "core/metrics.h"
#include "graph/exact_knng.h"

namespace weavess::bench {
namespace {

constexpr uint32_t kGqReferenceK = 10;  // exact-KNNG degree for GQ

void Run() {
  Banner("Figure 5 / Figure 6 / Table 4 / Table 11",
         "Construction time, index size, GQ/AD/CC, max/min out-degree");
  const double scale = EnvScale();

  TablePrinter fig5({"Dataset", "Algorithm", "CT(s)"});
  TablePrinter fig6({"Dataset", "Algorithm", "IS(MB)"});
  TablePrinter table4(
      {"Dataset", "Algorithm", "GQ", "AD", "CC", "D_max", "D_min"});

  for (const std::string& dataset_name : SelectedDatasets()) {
    const Workload workload = MakeStandIn(dataset_name, scale);
    const CsrGraph exact(BuildExactKnng(workload.base, kGqReferenceK));
    for (const std::string& algorithm : SelectedAlgorithms()) {
      std::unique_ptr<AnnIndex> index =
          CreateAlgorithm(algorithm, DefaultOptions());
      index->Build(workload.base);
      const BuildStats build = index->build_stats();
      const DegreeStats degrees = ComputeDegreeStats(index->graph());
      fig5.AddRow({dataset_name, algorithm,
                   TablePrinter::Fixed(build.seconds, 2)});
      fig6.AddRow({dataset_name, algorithm,
                   TablePrinter::Megabytes(index->IndexMemoryBytes())});
      table4.AddRow(
          {dataset_name, algorithm,
           TablePrinter::Fixed(ComputeGraphQuality(index->graph(), exact),
                               3),
           TablePrinter::Fixed(degrees.average, 1),
           TablePrinter::Int(CountConnectedComponents(index->graph())),
           TablePrinter::Int(degrees.max), TablePrinter::Int(degrees.min)});
      std::printf("built %-10s on %-8s (CT %.2fs)\n", algorithm.c_str(),
                  dataset_name.c_str(), build.seconds);
      std::fflush(stdout);
    }
  }
  std::printf("\n--- Figure 5: index construction time ---\n");
  fig5.Print();
  std::printf("\n--- Figure 6: index size ---\n");
  fig6.Print();
  std::printf("\n--- Table 4 + Table 11: graph structure ---\n");
  table4.Print();
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
