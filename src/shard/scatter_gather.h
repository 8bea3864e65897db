// Scatter-gather search over shards: the one fan-out that both the static
// ShardedIndex and the mutable MutableShardedIndex search through
// (docs/SHARDING.md). A tier supplies the per-shard leg; ScatterGather
// splits the budgets, runs the legs in shard order on the calling thread,
// k-way merges their lists with global dedup (core/topk_merge.h) and sums
// their stats, so results are a pure function of the legs' answers.
#ifndef WEAVESS_SHARD_SCATTER_GATHER_H_
#define WEAVESS_SHARD_SCATTER_GATHER_H_

#include <cstdint>
#include <vector>

#include "core/index.h"
#include "core/topk_merge.h"

namespace weavess {

/// Seed for shard `shard` derived from the base build seed: a hash fold of
/// the shard number, so per-shard RNG streams are independent and stable
/// across shard counts, thread counts, and build order.
uint64_t DeriveShardSeed(uint64_t base_seed, uint32_t shard);

/// Even split of a budget across `num_shards` shards: earlier shards absorb
/// the remainder, and a nonzero total never rounds a share to zero (a
/// budget of 0 would be unlimited, inverting the intent).
uint64_t SplitBudget(uint64_t total, uint32_t shard, uint32_t num_shards);

/// Runs `leg(s, per_shard_params, &shard_stats)` for every shard s, each
/// under its SplitBudget share of max_distance_evals and time_budget_us, and
/// merges the legs' lists into the global top-params.k, sorted by
/// (distance, id). A leg returns its shard's candidates as (distance, global
/// id) sorted by (distance, id), and an empty list for an empty shard.
/// `stats`, when given, is overwritten with the summed evals and hops and
/// the OR of truncated.
template <typename Leg>
std::vector<ScoredId> ScatterGather(uint32_t num_shards,
                                    const SearchParams& params,
                                    QueryStats* stats, Leg&& leg) {
  QueryStats total;
  std::vector<std::vector<ScoredId>> lists;
  lists.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    SearchParams per_shard = params;
    per_shard.max_distance_evals =
        SplitBudget(params.max_distance_evals, s, num_shards);
    per_shard.time_budget_us =
        SplitBudget(params.time_budget_us, s, num_shards);
    QueryStats shard_stats;
    lists.push_back(leg(s, per_shard, &shard_stats));
    total.distance_evals += shard_stats.distance_evals;
    total.hops += shard_stats.hops;
    total.truncated |= shard_stats.truncated;
  }
  std::vector<ScoredId> merged = MergeTopK(lists, params.k);
  if (stats != nullptr) *stats = total;
  return merged;
}

}  // namespace weavess

#endif  // WEAVESS_SHARD_SCATTER_GATHER_H_
