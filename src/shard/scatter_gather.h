// Scatter-gather search over shards: the one fan-out that both the static
// ShardedIndex and the mutable MutableShardedIndex search through
// (docs/SHARDING.md). A tier supplies the per-shard leg; ScatterGather
// splits the budgets, runs the legs at the same time on the shared pool
// (or in shard order on the calling thread, for a query that is already one
// of several parallel streams), then k-way merges their lists with global
// dedup (core/topk_merge.h), sums their stats, replays their traces and
// reports their failures in shard order. Results, stats, traces and errors
// are a pure function of the legs' answers, whatever the schedule
// (docs/CONCURRENCY.md).
#ifndef WEAVESS_SHARD_SCATTER_GATHER_H_
#define WEAVESS_SHARD_SCATTER_GATHER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/index.h"
#include "core/search_context.h"

namespace weavess {

/// Seed for shard `shard` derived from the base build seed: a hash fold of
/// the shard number, so per-shard RNG streams are independent and stable
/// across shard counts, thread counts, and build order.
uint64_t DeriveShardSeed(uint64_t base_seed, uint32_t shard);

/// Even split of a budget across `num_shards` shards: earlier shards absorb
/// the remainder, and a nonzero total never rounds a share to zero (a
/// budget of 0 would be unlimited, inverting the intent).
uint64_t SplitBudget(uint64_t total, uint32_t shard, uint32_t num_shards);

/// One shard's search inside ScatterGather: the shard, the leg's own child
/// scratch, the shard's params and the leg's stats, to the shard's
/// candidates as (distance, global id) sorted by (distance, id); an empty
/// list for an empty shard. Legs of one query may run at the same time, so
/// a leg touches only its own scratch, stats and list, and anything it
/// shares with other legs must be safe to use concurrently (atomic
/// counters, the immutable index).
using ShardLeg = std::function<std::vector<ScoredId>(
    uint32_t shard, SearchScratch& scratch, const SearchParams& params,
    QueryStats* stats)>;

/// Runs `leg` for every shard s under its SplitBudget share of
/// max_distance_evals and time_budget_us, and merges the legs' lists into
/// the global top-params.k, sorted by (distance, id). The legs fan out over
/// the shared pool, the caller working through legs too, leg s on
/// scratch.legs[s] (grown on first use), unless the caller is already a
/// task of a multi-stream batch (ThreadPool::InParallelTask): then they run
/// in shard order on the calling thread, all on scratch.legs[0], stopping
/// at the first leg that throws. After the legs
/// have finished, the gather walks them in shard order: each leg's trace
/// (recorded into its own sink when scratch.ctx.trace is armed) is replayed
/// into the caller's sink, and the first leg that threw has its exception
/// rethrown, so a failure and the events before it are the same as a
/// sequential run's. `stats`, when given and no leg threw, is overwritten
/// with the summed evals and hops and the OR of truncated.
std::vector<ScoredId> ScatterGather(uint32_t num_shards,
                                    SearchScratch& scratch,
                                    const SearchParams& params,
                                    QueryStats* stats, const ShardLeg& leg);

}  // namespace weavess

#endif  // WEAVESS_SHARD_SCATTER_GATHER_H_
