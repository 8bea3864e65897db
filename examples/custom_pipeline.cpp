// Composing a custom algorithm from the seven pipeline components — the
// workflow behind the paper's §6 "Improvement": pick the best-measured
// choice for each component and assemble an index no single published
// algorithm corresponds to. This example builds three compositions
// (a conservative one, the paper's OA recipe, and a deliberately bad one)
// and shows how component choices move the tradeoff curve.
//
//   $ ./build/examples/custom_pipeline [num_base]
//
// num_base is the number of base rows (default 15000, at least 1000).
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "eval/evaluator.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "eval/table.h"
#include "pipeline/pipeline.h"

int main(int argc, char** argv) {
  using namespace weavess;

  unsigned long num_base = 15000;
  if (argc > 2) {
    std::fprintf(stderr, "usage: %s [num_base]\n", argv[0]);
    return 1;
  }
  if (argc == 2) {
    char* end = nullptr;
    num_base = std::strtoul(argv[1], &end, 10);
    if (end == argv[1] || *end != '\0' || num_base < 1000 ||
        num_base > 10'000'000) {
      std::fprintf(stderr, "num_base must be an integer in [1000, 1e7]\n");
      return 1;
    }
  }

  SyntheticSpec spec;
  spec.dim = 48;
  spec.num_base = static_cast<uint32_t>(num_base);
  spec.num_queries = 300;
  spec.num_clusters = 8;
  spec.stddev = 10.0f;
  const Workload workload = GenerateSynthetic(spec, "custom");
  const GroundTruth truth =
      ComputeGroundTruth(workload.base, workload.queries, 10);

  // --- Composition 1: the paper's OA recipe (§6). ---
  PipelineConfig oa;
  oa.init = InitKind::kNnDescent;            // C1: moderate-quality init
  oa.candidates = CandidateKind::kExpansion; // C2: two-hop candidates
  oa.selection = SelectionKind::kRng;        // C3: HNSW/NSG heuristic
  oa.connectivity = ConnectivityKind::kDfsTree;  // C5: reachability
  oa.seeds = SeedKind::kRandomFixed;         // C4/C6: no auxiliary index
  oa.routing = RoutingKind::kTwoStage;       // C7: guided + best-first

  // --- Composition 2: "expensive everything" — brute-force init, LSH
  // seeds, backtracking. High build cost for little search gain. ---
  PipelineConfig heavy;
  heavy.init = InitKind::kBruteForce;
  heavy.candidates = CandidateKind::kNeighbors;
  heavy.selection = SelectionKind::kRng;
  heavy.connectivity = ConnectivityKind::kDfsTree;
  heavy.seeds = SeedKind::kLsh;
  heavy.routing = RoutingKind::kBacktrack;

  // --- Composition 3: distance-only selection + random-per-query seeds,
  // i.e., ignoring the paper's guidelines H2/H3. ---
  PipelineConfig naive;
  naive.init = InitKind::kRandom;
  naive.candidates = CandidateKind::kExpansion;
  naive.selection = SelectionKind::kDistance;
  naive.connectivity = ConnectivityKind::kNone;
  naive.seeds = SeedKind::kRandomPerQuery;
  naive.routing = RoutingKind::kBestFirst;

  TablePrinter table({"Composition", "Build(s)", "L", "Recall@10", "QPS",
                      "Speedup"});
  const struct {
    const char* label;
    PipelineConfig config;
  } compositions[] = {
      {"OA-recipe", oa}, {"heavyweight", heavy}, {"guideline-free", naive}};
  for (const auto& composition : compositions) {
    PipelineIndex index(composition.label, composition.config);
    index.Build(workload.base);
    for (const SearchPoint& point : SweepPoolSizes(
             index, workload.queries, truth, 10, {30, 120, 480})) {
      table.AddRow({composition.label,
                    TablePrinter::Fixed(index.build_stats().seconds, 2),
                    TablePrinter::Int(point.params.pool_size),
                    TablePrinter::Fixed(point.recall, 3),
                    TablePrinter::Fixed(point.qps, 0),
                    TablePrinter::Fixed(point.speedup, 1)});
    }
    std::printf("built and swept %s\n", composition.label);
  }
  std::printf("\nComponent choices, not algorithm brands, set the tradeoff "
              "(the paper's §6 thesis):\n");
  table.Print();
  return 0;
}
