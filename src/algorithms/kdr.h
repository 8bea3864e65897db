// k-DR [7] (Appendix N): degree-reduced KNNG. Starting from an exact KNNG,
// the undirected edge (x, y) is kept only when a bounded search from y
// cannot already reach x along kept edges shorter than δ(x, y) — a stricter
// relative of NGT's path adjustment. Routing is ε-range search.
#ifndef WEAVESS_ALGORITHMS_KDR_H_
#define WEAVESS_ALGORITHMS_KDR_H_

#include <memory>

#include "algorithms/registry.h"
#include "search/graph_index.h"

namespace weavess {

class KdrIndex : public GraphIndex {
 public:
  struct Params {
    /// Neighbor count k of the initial exact KNNG (candidates for pruning).
    uint32_t knng_degree = 30;
    /// Degree bound R kept after pruning (R <= k); reverse edges may push
    /// actual degrees above R, as in the original.
    uint32_t max_degree = 15;
    /// Hop bound of the reachability check.
    uint32_t reach_hops = 3;
    uint64_t seed = 2024;
  };

  explicit KdrIndex(const Params& params);

  void Build(const Dataset& data) override;
  std::string name() const override { return "k-DR"; }

 private:
  // True when `target` is reachable from `start` within reach_hops hops
  // using only edges of `kept` with weight < `limit`.
  bool Reachable(const Graph& kept, uint32_t start, uint32_t target,
                 float limit, DistanceOracle& oracle,
                 SearchContext& ctx) const;

  Params params_;
};

std::unique_ptr<AnnIndex> CreateKdr(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_KDR_H_
