// ML2 [59] — learned adaptive early termination. A lightweight regressor
// (least squares on search-state features, standing in for the paper's
// gradient-boosted trees; DESIGN.md §2) predicts, after a small fixed probe
// search, how large a candidate pool each individual query actually needs.
// Easy queries stop early; hard queries get a bigger budget. Reproduces the
// §5.5 finding: moderate extra index-processing time and memory for a
// latency reduction concentrated in the high-recall region.
#ifndef WEAVESS_ML_EARLY_TERMINATION_H_
#define WEAVESS_ML_EARLY_TERMINATION_H_

#include <memory>
#include <vector>

#include "core/index.h"

namespace weavess {

class EarlyTerminationIndex : public AnnIndex {
 public:
  struct Params {
    /// Probe pool size L0 (the fixed minimum effort).
    uint32_t probe_pool = 20;
    /// Training queries sampled from the base data.
    uint32_t train_queries = 200;
    /// Budget ladder searched for per-query oracle labels.
    uint32_t max_pool = 800;
    uint64_t seed = 2024;
  };

  /// Wraps an unbuilt base index; Build() builds it and then trains the
  /// termination model (the extra IPT that Table 24 charges to ML2).
  EarlyTerminationIndex(std::unique_ptr<AnnIndex> base, const Params& params);
  ~EarlyTerminationIndex() override;

  void Build(const Dataset& data) override;
  std::vector<ScoredId> SearchScored(
      SearchScratch& scratch, const float* query, const SearchParams& params,
      QueryStats* stats = nullptr) const override;
  const CsrGraph& graph() const override { return base_->graph(); }
  size_t IndexMemoryBytes() const override;
  BuildStats build_stats() const override { return build_stats_; }
  std::string name() const override { return base_->name() + "+ML2"; }

  /// Seconds spent training the model (on top of the base build).
  double training_seconds() const { return training_seconds_; }

 private:
  struct Features {
    double probe_best;   // best (squared) distance after the probe
    double probe_spread; // worst/best ratio within the probe pool
  };
  // Runs the fixed-effort probe under the budgets and clock of `params`
  // (its k capped at the probe pool) into `result`, counted in `stats`,
  // and reads the two features off its first and last distances.
  Features ProbeFeatures(SearchScratch& scratch, const float* query,
                         const SearchParams& params, QueryStats* stats,
                         std::vector<ScoredId>* result) const;
  double PredictPool(const Features& f) const;

  std::unique_ptr<AnnIndex> base_;
  Params params_;
  // Linear model: pool ≈ w0 + w1 * log(probe_best) + w2 * probe_spread.
  double weights_[3] = {0.0, 0.0, 0.0};
  double training_seconds_ = 0.0;
  BuildStats build_stats_;
};

}  // namespace weavess

#endif  // WEAVESS_ML_EARLY_TERMINATION_H_
