// Hybrid (attribute-constrained) ANNS — the extension direction the paper
// highlights in §6 "Tendencies" ("the latest research adds structured
// attribute constraints to the search process", citing AnalyticDB-V and
// NSW-based multi-attribute search). Each base vector carries a label;
// a query asks for the k nearest neighbors *with a matching label*.
//
// Two strategies, mirroring the literature's basic split:
//  - kPostFilter: run plain ANNS with an inflated k, then drop
//    non-matching results. Cheap, but recall collapses when the label's
//    selectivity is low.
//  - kDuringRouting: route over the whole graph (unconstrained routing
//    keeps the graph navigable) while only matching vertices enter the
//    result set. Robust at low selectivity for extra distance evaluations.
#ifndef WEAVESS_SEARCH_FILTERED_H_
#define WEAVESS_SEARCH_FILTERED_H_

#include <cstdint>
#include <vector>

#include "core/index.h"

namespace weavess {

enum class FilterStrategy {
  kPostFilter,
  kDuringRouting,
};

/// Wraps a *built* index with per-vertex labels. The index and dataset
/// must outlive the searcher; labels.size() must equal the base size.
class FilteredSearcher {
 public:
  FilteredSearcher(const AnnIndex* index, const Dataset* data,
                   std::vector<uint32_t> labels);

  /// k nearest neighbors of `query` whose label equals `label`. May return
  /// fewer than k ids when the strategy exhausts its budget. Thread-
  /// compatible like AnnIndex::SearchWith: the probe and the walk run on
  /// caller-owned scratch, so concurrent calls on distinct scratch objects
  /// are safe.
  std::vector<uint32_t> SearchWith(SearchScratch& scratch, const float* query,
                                   uint32_t label, const SearchParams& params,
                                   FilterStrategy strategy,
                                   QueryStats* stats = nullptr) const;

  /// Fraction of base vectors carrying `label` (the selectivity that
  /// drives the post-filter vs during-routing tradeoff).
  double Selectivity(uint32_t label) const;

 private:
  const AnnIndex* index_;
  const Dataset* data_;
  std::vector<uint32_t> labels_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_FILTERED_H_
