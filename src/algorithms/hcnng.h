// A13 HCNNG [72]: hierarchical-clustering nearest neighbor graph. The MST-
// based algorithm: repeated random two-pivot hierarchical clustering; all
// points of each leaf cluster are joined by a minimum spanning tree (C3 via
// MST); seeds come from KD-tree leaves (value comparisons, no distance
// evaluations) and routing is guided search.
#ifndef WEAVESS_ALGORITHMS_HCNNG_H_
#define WEAVESS_ALGORITHMS_HCNNG_H_

#include <memory>

#include "algorithms/registry.h"
#include "core/rng.h"
#include "search/graph_index.h"

namespace weavess {

class HcnngIndex : public GraphIndex {
 public:
  struct Params {
    /// Number of hierarchical-clustering repetitions m.
    uint32_t num_clusterings = 8;
    /// Minimum cluster size n: recursion stops below this.
    uint32_t min_cluster_size = 64;
    /// Per-vertex cap on edges contributed by each MST (paper's s).
    uint32_t max_mst_degree = 3;
    uint32_t num_seed_trees = 2;
    uint32_t max_seeds = 24;
    uint64_t seed = 2024;
  };

  explicit HcnngIndex(const Params& params);

  void Build(const Dataset& data) override;
  std::string name() const override { return "HCNNG"; }

 private:
  // Splits ids[begin, end) recursively and joins each leaf cluster's
  // members in `graph` by a degree-bounded MST.
  void ClusterAndConnect(std::vector<uint32_t>& ids, uint32_t begin,
                         uint32_t end, DistanceOracle& oracle, Rng& rng,
                         std::vector<uint32_t>& mst_degree,
                         Graph& graph) const;

  Params params_;
};

std::unique_ptr<AnnIndex> CreateHcnng(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_HCNNG_H_
