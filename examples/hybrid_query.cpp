// Hybrid query scenario: attribute-constrained ANNS — e.g., an e-commerce
// visual search that must only return products from one category. This is
// the extension direction the paper's §6 "Tendencies" highlights
// (AnalyticDB-V-style structured constraints on graph search).
//
//   $ ./build/examples/hybrid_query
//
// Compares the two basic strategies (post-filtering vs during-routing
// filtering) as the label selectivity shrinks: post-filtering collapses,
// during-routing degrades gracefully.
#include <cstdio>
#include <memory>

#include "algorithms/registry.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "eval/ground_truth.h"
#include "eval/synthetic.h"
#include "eval/table.h"
#include "search/filtered.h"

namespace {

// Exact filtered k-NN by brute force (the evaluation reference).
std::vector<uint32_t> FilteredTruth(const weavess::Dataset& base,
                                    const std::vector<uint32_t>& labels,
                                    const float* query, uint32_t label,
                                    uint32_t k) {
  std::vector<weavess::Neighbor> scored;
  for (uint32_t i = 0; i < base.size(); ++i) {
    if (labels[i] != label) continue;
    scored.emplace_back(i,
                        weavess::L2Sqr(query, base.Row(i), base.dim()));
  }
  std::sort(scored.begin(), scored.end());
  std::vector<uint32_t> ids;
  for (uint32_t i = 0; i < k && i < scored.size(); ++i) {
    ids.push_back(scored[i].id);
  }
  return ids;
}

}  // namespace

int main() {
  using namespace weavess;

  SyntheticSpec spec;
  spec.dim = 32;
  spec.num_base = 12000;
  spec.num_queries = 200;
  spec.num_clusters = 1;
  spec.stddev = 20.0f;
  const Workload workload = GenerateSynthetic(spec, "catalog");

  auto index = CreateAlgorithm("NSG");
  index->Build(workload.base);
  std::printf("catalog: %u items; index %s built in %.2fs\n",
              workload.base.size(), index->name().c_str(),
              index->build_stats().seconds);

  TablePrinter table({"Selectivity", "Strategy", "Recall@10", "NDC/query"});
  // Label layouts with shrinking selectivity: 1/4, 1/16, 1/64.
  for (const uint32_t num_labels : {4u, 16u, 64u}) {
    std::vector<uint32_t> labels(workload.base.size());
    for (uint32_t i = 0; i < labels.size(); ++i) labels[i] = i % num_labels;
    FilteredSearcher searcher(index.get(), &workload.base, labels);
    SearchScratch scratch;
    const uint32_t target_label = 1;
    for (const auto& [strategy, name] :
         {std::pair{FilterStrategy::kPostFilter, "post-filter"},
          std::pair{FilterStrategy::kDuringRouting, "during-routing"}}) {
      double recall_sum = 0.0;
      uint64_t ndc = 0;
      SearchParams params;
      params.k = 10;
      params.pool_size = 100;
      for (uint32_t q = 0; q < workload.queries.size(); ++q) {
        const float* query = workload.queries.Row(q);
        const auto truth =
            FilteredTruth(workload.base, labels, query, target_label, 10);
        QueryStats stats;
        const auto result = searcher.SearchWith(scratch, query, target_label,
                                                params, strategy, &stats);
        recall_sum += Recall(result, truth, 10);
        ndc += stats.distance_evals;
      }
      const double n = workload.queries.size();
      table.AddRow({TablePrinter::Fixed(searcher.Selectivity(target_label),
                                        4),
                    name, TablePrinter::Fixed(recall_sum / n, 3),
                    TablePrinter::Fixed(ndc / n, 0)});
    }
    std::printf("evaluated selectivity 1/%u\n", num_labels);
  }
  std::printf("\nPost-filtering collapses as selectivity shrinks; "
              "during-routing filtering degrades gracefully:\n");
  table.Print();
  return 0;
}
