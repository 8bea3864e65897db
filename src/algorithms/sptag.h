// A5 SPTAG [27] (Microsoft): divide-and-conquer KNNG. The dataset is
// repeatedly partitioned by TP-tree-style hyperplanes; an exact KNNG is
// built per subset and merged; neighborhood propagation refines the result.
//  - SPTAG-KDT: KD-tree seeds, plain KNNG.
//  - SPTAG-BKT: balanced k-means tree seeds, plus an RNG selection pass.
// Search is best-first with iterated tree restarts when it stalls.
#ifndef WEAVESS_ALGORITHMS_SPTAG_H_
#define WEAVESS_ALGORITHMS_SPTAG_H_

#include <memory>

#include "algorithms/registry.h"
#include "search/graph_index.h"
#include "tree/kd_tree.h"
#include "tree/kmeans_tree.h"

namespace weavess {

class SptagIndex : public GraphIndex {
 public:
  enum class Variant { kKdt, kBkt };

  struct Params {
    Variant variant = Variant::kKdt;
    /// KNNG degree (SPTAG fixes 32 in the paper's runs).
    uint32_t knng_degree = 32;
    /// Divide-and-conquer repetitions (more partitions → better KNNG).
    uint32_t partition_iterations = 4;
    uint32_t max_leaf_size = 200;
    /// Neighborhood-propagation refinement passes.
    uint32_t propagation_passes = 1;
    /// Seed-tree distance budget per restart.
    uint32_t seed_tree_checks = 60;
    /// Maximum tree restarts when the search stalls.
    uint32_t max_restarts = 3;
    uint64_t seed = 2024;
  };

  explicit SptagIndex(const Params& params);

  void Build(const Dataset& data) override;
  std::string name() const override {
    return params_.variant == Variant::kKdt ? "SPTAG-KDT" : "SPTAG-BKT";
  }

 private:
  // Iterated search: best-first from the tree seeds; when it converges,
  // re-enter through the tree with a doubled budget — fresh leaves escape
  // the local optimum (§4.2, C7).
  void Route(const float* query, const SearchParams& params,
             DistanceOracle& oracle, SearchContext& ctx,
             CandidatePool& pool) const override;

  Params params_;
  // The seed tree, shared with the seed provider that makes the first
  // entry; the restarts search it again with larger budgets.
  std::shared_ptr<const KdForest> kd_forest_;
  std::shared_ptr<const KMeansTree> kmeans_tree_;
};

std::unique_ptr<AnnIndex> CreateSptagKdt(const AlgorithmOptions& options);
std::unique_ptr<AnnIndex> CreateSptagBkt(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_SPTAG_H_
