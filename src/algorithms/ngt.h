// A4 NGT [46] (Yahoo Japan): incremental ANNG construction with range
// search (approximate DG), followed by degree adjustment:
//  - NGT-panng: path adjustment (an RNG approximation, Appendix B);
//  - NGT-onng: out-/in-degree adjustment first, then path adjustment.
// Seeds come from a VP-tree; routing is ε-range search.
#ifndef WEAVESS_ALGORITHMS_NGT_H_
#define WEAVESS_ALGORITHMS_NGT_H_

#include <memory>

#include "algorithms/registry.h"
#include "core/rng.h"
#include "search/graph_index.h"

namespace weavess {

class NgtIndex : public GraphIndex {
 public:
  enum class Variant { kPanng, kOnng };

  struct Params {
    Variant variant = Variant::kPanng;
    /// Bidirectional edges added per insertion into the ANNG.
    uint32_t edges_per_insert = 10;
    /// Construction-time range-search pool and ε.
    uint32_t ef_construction = 60;
    float build_epsilon = 0.10f;
    /// Degree bound R after path adjustment.
    uint32_t max_degree = 30;
    /// NGT-onng: outgoing / incoming edge counts extracted from the ANNG.
    uint32_t out_edges = 20;
    uint32_t in_edges = 10;
    uint32_t num_search_seeds = 10;
    uint32_t seed_tree_checks = 60;
    uint64_t seed = 2024;
  };

  explicit NgtIndex(const Params& params);

  void Build(const Dataset& data) override;
  std::string name() const override {
    return params_.variant == Variant::kPanng ? "NGT-panng" : "NGT-onng";
  }

 private:
  Params params_;
  Rng rng_;
};

std::unique_ptr<AnnIndex> CreateNgtPanng(const AlgorithmOptions& options);
std::unique_ptr<AnnIndex> CreateNgtOnng(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_NGT_H_
