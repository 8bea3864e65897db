// ML1 [14] surrogate — learned routing. The paper's GPU-trained vertex
// representations are replaced by a landmark (pivot) embedding with the
// same cost profile and mechanism (DESIGN.md §2): every vertex stores its
// distances to m landmarks; routing ranks a vertex's neighbors by the
// cheap embedding-space distance to the query and spends true distance
// evaluations only on the most promising fraction. Preprocessing computes
// n·m true distances and stores n·m floats — reproducing §5.5's large
// index-processing time and memory consumption for a better
// speedup-vs-recall tradeoff.
#ifndef WEAVESS_ML_LEARNED_ROUTING_H_
#define WEAVESS_ML_LEARNED_ROUTING_H_

#include <memory>
#include <vector>

#include "core/index.h"
#include "core/rng.h"
#include "search/router.h"

namespace weavess {

class LearnedRoutingIndex : public AnnIndex {
 public:
  struct Params {
    /// Landmark count m (embedding dimension). Memory is n·m floats.
    uint32_t num_landmarks = 96;
    /// Fraction of each adjacency list evaluated exactly (ranked by the
    /// embedding surrogate); the rest is skipped.
    float evaluate_fraction = 0.5f;
    uint64_t seed = 2024;
  };

  /// Wraps an unbuilt base index (the paper applies ML1 to NSG / NSW).
  LearnedRoutingIndex(std::unique_ptr<AnnIndex> base, const Params& params);
  ~LearnedRoutingIndex() override;

  void Build(const Dataset& data) override;
  std::vector<ScoredId> SearchScored(
      SearchScratch& scratch, const float* query, const SearchParams& params,
      QueryStats* stats = nullptr) const override;
  const CsrGraph& graph() const override { return base_->graph(); }
  size_t IndexMemoryBytes() const override;
  BuildStats build_stats() const override { return build_stats_; }
  std::string name() const override { return base_->name() + "+ML1"; }

  double preprocessing_seconds() const { return preprocessing_seconds_; }

 private:
  // Squared l2 between a vertex's stored embedding and the query embedding.
  float SurrogateDistance(const float* query_embedding, uint32_t vertex) const;

  std::unique_ptr<AnnIndex> base_;
  Params params_;
  const Dataset* data_ = nullptr;
  std::vector<uint32_t> landmarks_;
  std::vector<float> embeddings_;  // n x m, row-major
  uint32_t entry_point_ = 0;       // medoid
  double preprocessing_seconds_ = 0.0;
  BuildStats build_stats_;
};

}  // namespace weavess

#endif  // WEAVESS_ML_LEARNED_ROUTING_H_
