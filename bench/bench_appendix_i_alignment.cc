// Reproduces the Appendix I discussion: aligning every adjacency list to
// the maximum out-degree enables contiguous memory access during search —
// worthwhile when degrees are uniform (KGraph-style), wasteful when hubs
// make the maximum out-degree huge (NSW, DPG). This bench runs the same
// best-first search over three layouts of the same NSG/NSW graphs:
// pointer-chasing vector<vector>, compact CSR, and fixed-stride aligned.
#include <memory>

#include "bench_common.h"
#include "core/flat_graph.h"
#include "core/graph.h"
#include "core/metrics.h"
#include "core/timer.h"
#include "search/router.h"

namespace weavess::bench {
namespace {

constexpr uint32_t kRecallAtK = 10;
constexpr uint32_t kPool = 100;

// Best-first search specialised for each layout (identical logic, only
// the adjacency access differs).
template <typename NeighborFn>
double RunQueries(const Dataset& base, const Dataset& queries,
                  const GroundTruth& truth, const std::vector<uint32_t>& seeds,
                  NeighborFn&& neighbors_of, double* recall_out) {
  SearchContext ctx(base.size());
  DistanceOracle oracle(base, nullptr);
  double recall_sum = 0.0;
  Timer timer;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    ctx.BeginQuery(base.size());
    CandidatePool pool(kPool);
    SeedPool(seeds, queries.Row(q), oracle, ctx, pool);
    size_t next;
    while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
      const uint32_t current = pool[next].id;
      pool.MarkChecked(next);
      neighbors_of(current, [&](uint32_t neighbor) {
        if (ctx.visited.CheckAndMark(neighbor)) return;
        pool.Insert(
            Neighbor(neighbor, oracle.ToQuery(queries.Row(q), neighbor)));
      });
    }
    recall_sum += Recall(IdsOf(pool.TopScored(kRecallAtK)), truth[q],
                         kRecallAtK);
  }
  const double seconds = timer.Seconds();
  *recall_out = recall_sum / queries.size();
  return queries.size() / seconds;
}

void Run() {
  Banner("Appendix I", "Adjacency-layout ablation: nested / CSR / aligned");
  const double scale = EnvScale();
  std::vector<std::string> datasets = SelectedDatasets();
  if (std::getenv("WEAVESS_DATASETS") == nullptr) {
    datasets = {"SIFT1M"};
  }
  const std::vector<std::string> algorithms =
      SelectedAlgorithms({"NSG", "KGraph", "NSW"});

  TablePrinter table({"Dataset", "Algorithm", "Layout", "D_max", "QPS",
                      "Recall@10", "Bytes(MB)"});
  for (const std::string& dataset_name : datasets) {
    const Workload workload = MakeStandIn(dataset_name, scale);
    const GroundTruth truth =
        ComputeGroundTruth(workload.base, workload.queries, kRecallAtK);
    for (const std::string& algorithm : algorithms) {
      auto index = CreateAlgorithm(algorithm, DefaultOptions());
      index->Build(workload.base);
      // Indexes hold CSR; the nested layout is rebuilt here to measure it.
      const CsrGraph& csr = index->graph();
      Graph graph(csr.size());
      for (uint32_t v = 0; v < csr.size(); ++v) {
        const auto list = csr.Neighbors(v);
        graph.MutableNeighbors(v).assign(list.begin(), list.end());
      }
      const DegreeStats degrees = ComputeDegreeStats(csr);
      const AlignedGraph aligned(csr);
      const std::vector<uint32_t> seeds = {0, graph.size() / 3,
                                           2 * graph.size() / 3};
      double recall = 0.0;
      // Repeat each layout measurement to damp timer noise; keep best QPS.
      auto measure = [&](auto&& fn) {
        double best = 0.0;
        for (int repetition = 0; repetition < 3; ++repetition) {
          best = std::max(
              best, RunQueries(workload.base, workload.queries, truth,
                               seeds, fn, &recall));
        }
        return best;
      };
      const double nested_qps =
          measure([&graph](uint32_t v, auto&& visit) {
            for (uint32_t u : graph.Neighbors(v)) visit(u);
          });
      table.AddRow({dataset_name, algorithm, "nested",
                    TablePrinter::Int(degrees.max),
                    TablePrinter::Fixed(nested_qps, 0),
                    TablePrinter::Fixed(recall, 3),
                    TablePrinter::Megabytes(graph.MemoryBytes())});
      const double csr_qps = measure([&csr](uint32_t v, auto&& visit) {
        for (uint32_t u : csr.Neighbors(v)) visit(u);
      });
      table.AddRow({dataset_name, algorithm, "csr",
                    TablePrinter::Int(degrees.max),
                    TablePrinter::Fixed(csr_qps, 0),
                    TablePrinter::Fixed(recall, 3),
                    TablePrinter::Megabytes(csr.MemoryBytes())});
      const double aligned_qps =
          measure([&aligned](uint32_t v, auto&& visit) {
            const uint32_t* slots = aligned.Slots(v);
            for (uint32_t s = 0; s < aligned.stride(); ++s) {
              if (slots[s] == AlignedGraph::kInvalid) break;
              visit(slots[s]);
            }
          });
      table.AddRow({dataset_name, algorithm, "aligned",
                    TablePrinter::Int(degrees.max),
                    TablePrinter::Fixed(aligned_qps, 0),
                    TablePrinter::Fixed(recall, 3),
                    TablePrinter::Megabytes(aligned.MemoryBytes())});
      std::printf("%-7s on %s done\n", algorithm.c_str(),
                  dataset_name.c_str());
      std::fflush(stdout);
    }
  }
  std::printf("\n--- Appendix I: layout ablation (aligned wins on uniform "
              "degrees, pads heavily on hubby graphs) ---\n");
  table.Print();
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
