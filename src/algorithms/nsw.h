// A1 NSW [65]: navigable small world — incremental insertion with greedy
// search for candidates, undirected edges (approximate Delaunay graph).
// Early long-range edges provide navigation; later short edges, accuracy.
#ifndef WEAVESS_ALGORITHMS_NSW_H_
#define WEAVESS_ALGORITHMS_NSW_H_

#include <memory>

#include "algorithms/registry.h"
#include "core/rng.h"
#include "search/graph_index.h"

namespace weavess {

class NswIndex : public GraphIndex {
 public:
  struct Params {
    /// Undirected edges created per insertion (max_m0 controls nothing
    /// beyond this: NSW does not prune, so hub degrees can grow).
    uint32_t edges_per_insert = 10;
    /// Candidate-pool size of the construction-time greedy search.
    uint32_t ef_construction = 60;
    uint32_t num_search_seeds = 5;
    uint64_t seed = 2024;
  };

  explicit NswIndex(const Params& params);

  void Build(const Dataset& data) override;
  std::string name() const override { return "NSW"; }

 private:
  Params params_;
  Rng rng_;
};

std::unique_ptr<AnnIndex> CreateNsw(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_NSW_H_
