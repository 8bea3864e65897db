#include "search/graph_index.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "search/router.h"

namespace weavess {

void GraphIndex::BeginBuild(const Dataset& data) {
  WEAVESS_CHECK(data_ == nullptr);  // single Build per instance
  WEAVESS_CHECK(data.size() >= 2);
  data_ = &data;
}

void GraphIndex::FinishBuild(CsrGraph graph,
                             std::unique_ptr<SeedProvider> seeds,
                             RoutingKind routing, BuildStats stats) {
  WEAVESS_CHECK(data_ != nullptr && seeds != nullptr);
  csr_ = std::move(graph);
  seeds_ = std::move(seeds);
  routing_ = routing;
  build_stats_ = stats;
}

std::vector<ScoredId> GraphIndex::SearchScored(SearchScratch& scratch,
                                               const float* query,
                                               const SearchParams& params,
                                               QueryStats* stats) const {
  WEAVESS_CHECK(seeds_ != nullptr && "index is not built");
  SearchContext& ctx = scratch.ctx;
  ctx.BeginQuery(csr_.size());
  ctx.ArmBudget(params.max_distance_evals, params.time_budget_us,
                params.clock);
  DistanceOracle oracle(*data_, &ctx.counter);
  CandidatePool& pool = scratch.pool;
  pool.Reset(std::max(params.pool_size, params.k));
  seeds_->Seed(query, oracle, ctx, pool);
  Route(query, params, oracle, ctx, pool);
  ctx.WriteStats(stats);
  return pool.TopScored(params.k);
}

// flatten: with five routers instantiated in this one translation unit,
// GCC stops inlining their shared helpers (GatherAndEval,
// CandidatePool::Insert) into the expansion loop, and an NSG query took
// about 15% more CPU than with a one-router instantiation. Flattening
// inlines them into every router here, whichever weak copy of a router
// the linker keeps for other callers.
__attribute__((flatten))
void GraphIndex::Route(const float* query, const SearchParams& params,
                       DistanceOracle& oracle, SearchContext& ctx,
                       CandidatePool& pool) const {
  switch (routing_) {
    case RoutingKind::kBestFirst:
      BestFirstSearch(csr_, query, oracle, ctx, pool);
      break;
    case RoutingKind::kRange:
      RangeSearch(csr_, query, oracle, ctx, pool, params.epsilon);
      break;
    case RoutingKind::kBacktrack:
      BacktrackSearch(csr_, query, oracle, ctx, pool, params.backtrack);
      break;
    case RoutingKind::kGuided:
      GuidedSearch(csr_, *data_, query, oracle, ctx, pool);
      break;
    case RoutingKind::kTwoStage:
      TwoStageSearch(csr_, *data_, query, oracle, ctx, pool);
      break;
  }
}

size_t GraphIndex::IndexMemoryBytes() const {
  return csr_.MemoryBytes() + (seeds_ ? seeds_->MemoryBytes() : 0);
}

}  // namespace weavess
