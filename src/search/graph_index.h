// The common search substrate of every fixed-graph index (§4–§5): one
// query frame — budget arming, C6 seed acquisition, C7 routing over the
// index's one CsrGraph, per-query stats — shared by the nine pipeline
// algorithms, NGT, HCNNG, k-DR, NSW, SPTAG and graphs loaded from disk.
// Holding the frame fixed is what lets the paper compare seeding and
// routing strategies in isolation (Fig. 10). HNSW runs the same stages in
// its own SearchScored (its paged store grows and tombstones): the descent
// seeds, level 0 routes. The SQ8, sharded and ML wrappers have their own
// frames too; every frame counts a query's work in its SearchContext.
#ifndef WEAVESS_SEARCH_GRAPH_INDEX_H_
#define WEAVESS_SEARCH_GRAPH_INDEX_H_

#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/flat_graph.h"
#include "core/index.h"
#include "search/seed.h"

namespace weavess {

/// C7 — routing strategy (Definition 4.6).
enum class RoutingKind {
  kBestFirst,  // NSW/HNSW/KGraph/IEH/EFANNA/DPG/NSG/NSSG/Vamana
  kRange,      // NGT
  kBacktrack,  // FANNG
  kGuided,     // HCNNG
  kTwoStage,   // optimized algorithm: guided then best-first
};

/// An index whose search walks one immutable graph from the entries of a
/// SeedProvider. Derived classes implement Build (and name()); Build starts
/// with BeginBuild and ends with FinishBuild, which hands the frozen graph,
/// the seed provider and the routing strategy over to the shared frame.
class GraphIndex : public AnnIndex {
 public:
  std::vector<ScoredId> SearchScored(SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats = nullptr) const final;
  const CsrGraph& graph() const final { return csr_; }
  /// The CSR graph + the seed provider's auxiliary structure.
  size_t IndexMemoryBytes() const final;
  BuildStats build_stats() const final { return build_stats_; }

  /// The installed C6 entry strategy (valid once built).
  const SeedProvider& seeds() const { return *seeds_; }

 protected:
  GraphIndex() = default;
  /// For an index that arrives built (LoadedGraphIndex): `data` must
  /// outlive it; FinishBuild follows in the derived constructor.
  explicit GraphIndex(const Dataset& data) : data_(&data) {}

  /// Checks that this is the instance's only Build and that `data` holds
  /// at least two points; afterwards data() is `data`.
  void BeginBuild(const Dataset& data);

  /// Installs the finished graph, the entry strategy and the routing
  /// strategy. Builders freeze their working Graph into `graph`.
  void FinishBuild(CsrGraph graph, std::unique_ptr<SeedProvider> seeds,
                   RoutingKind routing, BuildStats stats);

  /// C7 after seeding: walks graph() from the seeded pool with the
  /// installed RoutingKind. SPTAG overrides it with its tree-restart loop.
  virtual void Route(const float* query, const SearchParams& params,
                     DistanceOracle& oracle, SearchContext& ctx,
                     CandidatePool& pool) const;

  const Dataset& data() const { return *data_; }

 private:
  const Dataset* data_ = nullptr;
  /// The query path iterates contiguous neighbor blocks instead of chasing
  /// per-vertex vector headers (Appendix I; docs/KERNELS.md).
  CsrGraph csr_;
  std::unique_ptr<SeedProvider> seeds_;
  RoutingKind routing_ = RoutingKind::kBestFirst;
  BuildStats build_stats_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_GRAPH_INDEX_H_
