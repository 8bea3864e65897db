#include "search/filtered.h"

#include <algorithm>

#include "core/check.h"
#include "core/distance.h"
#include "core/neighbor.h"

namespace weavess {

FilteredSearcher::FilteredSearcher(const AnnIndex* index,
                                   const Dataset* data,
                                   std::vector<uint32_t> labels)
    : index_(index), data_(data), labels_(std::move(labels)) {
  WEAVESS_CHECK(index_ != nullptr && data_ != nullptr);
  WEAVESS_CHECK(labels_.size() == data_->size());
  WEAVESS_CHECK(index_->graph().size() == data_->size());
}

double FilteredSearcher::Selectivity(uint32_t label) const {
  uint64_t matches = 0;
  for (uint32_t l : labels_) matches += l == label ? 1 : 0;
  return static_cast<double>(matches) / labels_.size();
}

std::vector<uint32_t> FilteredSearcher::SearchWith(
    SearchScratch& scratch, const float* query, uint32_t label,
    const SearchParams& params, FilterStrategy strategy,
    QueryStats* stats) const {
  if (strategy == FilterStrategy::kPostFilter) {
    // Over-fetch by the pool size (the natural inflation bound: the plain
    // search cannot return more than its pool), then keep matches.
    SearchParams inflated = params;
    inflated.k = std::max(params.pool_size, params.k);
    const std::vector<uint32_t> fetched =
        index_->SearchWith(scratch, query, inflated, stats);
    std::vector<uint32_t> result;
    for (uint32_t id : fetched) {
      if (labels_[id] == label) {
        result.push_back(id);
        if (result.size() == params.k) break;
      }
    }
    return result;
  }

  // During-routing: route unconstrained (the graph stays navigable), but
  // only matching vertices enter the result pool. The routing frontier is
  // seeded by a cheap unconstrained probe through the wrapped index, which
  // runs under the caller's budget; the walk gets what the probe left.
  const ProbeBudget budget(params);
  SearchParams probe = params;
  probe.k = std::min<uint32_t>(8, params.k);
  probe.pool_size = std::min<uint32_t>(16, params.pool_size);
  QueryStats probe_stats;
  const std::vector<ScoredId> entries =
      index_->SearchScored(scratch, query, probe, &probe_stats);

  // A probe that spent a whole budget answers the query itself, truncated:
  // its label matches are the best-so-far results.
  SearchParams walk;
  if (!budget.Left(probe_stats, &walk)) {
    std::vector<uint32_t> result;
    for (const ScoredId& entry : entries) {
      if (labels_[entry.id] == label) result.push_back(entry.id);
    }
    if (stats != nullptr) {
      stats->distance_evals = probe_stats.distance_evals;
      stats->hops = probe_stats.hops;
      stats->truncated = true;
    }
    return result;
  }

  // The walk reuses the scratch the probe ran on; only the k-sized pool of
  // matches is its own.
  SearchContext& ctx = scratch.ctx;
  ctx.BeginQuery(data_->size());
  ctx.ArmBudget(walk.max_distance_evals, walk.time_budget_us, walk.clock);
  DistanceOracle oracle(*data_, &ctx.counter);
  const CsrGraph& graph = index_->graph();
  CandidatePool& routing = scratch.pool;
  routing.Reset(std::max(params.pool_size, params.k));
  CandidatePool results(std::max(params.k, 1u));
  auto offer = [&](uint32_t id, float dist) {
    routing.Insert(Neighbor(id, dist));
    if (labels_[id] == label) results.Insert(Neighbor(id, dist));
  };
  // The probe's entries arrive scored: they seed the walk unevaluated.
  for (const ScoredId& entry : entries) {
    if (!ctx.visited.CheckAndMark(entry.id)) offer(entry.id, entry.distance);
  }
  size_t next;
  while ((next = routing.NextUnchecked()) != CandidatePool::kNpos) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      break;
    }
    const uint32_t current = routing[next].id;
    routing.MarkChecked(next);
    ++ctx.hops;
    for (uint32_t neighbor : graph.Neighbors(current)) {
      if (ctx.visited.CheckAndMark(neighbor)) continue;
      offer(neighbor, oracle.ToQuery(query, neighbor));
    }
  }
  ctx.WriteStats(stats);
  if (stats != nullptr) {  // the probe's work is the query's too
    stats->distance_evals += probe_stats.distance_evals;
    stats->hops += probe_stats.hops;
  }
  return IdsOf(results.TopScored(params.k));
}

}  // namespace weavess
