#include "shard/scatter_gather.h"

#include <exception>
#include <memory>
#include <optional>

#include "core/rng.h"
#include "core/thread_pool.h"
#include "core/topk_merge.h"
#include "obs/trace.h"

namespace weavess {

uint64_t DeriveShardSeed(uint64_t base_seed, uint32_t shard) {
  // Explicit little-endian bytes: the derived stream is identical across
  // architectures, like the on-disk formats.
  const unsigned char bytes[4] = {
      static_cast<unsigned char>(shard & 0xFF),
      static_cast<unsigned char>((shard >> 8) & 0xFF),
      static_cast<unsigned char>((shard >> 16) & 0xFF),
      static_cast<unsigned char>((shard >> 24) & 0xFF)};
  return HashBytes(bytes, sizeof(bytes), base_seed);
}

uint64_t SplitBudget(uint64_t total, uint32_t shard, uint32_t num_shards) {
  if (total == 0) return 0;
  const uint64_t base = total / num_shards;
  const uint64_t share = base + (shard < total % num_shards ? 1 : 0);
  return share == 0 ? 1 : share;
}

namespace {

// What one leg leaves for the gather step besides its list.
struct LegOutcome {
  QueryStats stats;
  std::exception_ptr error;
  std::optional<TraceSink> trace;  // only while the caller's sink is armed
};

}  // namespace

std::vector<ScoredId> ScatterGather(uint32_t num_shards,
                                    SearchScratch& scratch,
                                    const SearchParams& params,
                                    QueryStats* stats, const ShardLeg& leg) {
  // One leg, or a caller that is already one of several streams, where a
  // second level of fan-out would only add hand-offs, runs the legs in
  // shard order. They then share child 0, which stays warm in cache from
  // leg to leg (4-stream SearchBatch QPS was lower with a child per leg).
  const bool fan_out = num_shards >= 2 && !ThreadPool::InParallelTask();
  while (scratch.legs.size() < (fan_out ? num_shards : 1)) {
    scratch.legs.push_back(std::make_unique<SearchScratch>());
  }
  TraceSink* const trace = scratch.ctx.trace;
  // A leg's sink holds at most the caller's free room: the replay would
  // drop anything past it, and counts what the leg dropped itself.
  const size_t leg_trace_capacity =
      trace != nullptr ? trace->capacity() - trace->events().size() : 0;
  std::vector<std::vector<ScoredId>> lists(num_shards);
  std::vector<LegOutcome> outcomes(num_shards);
  const auto run_leg = [&](uint32_t s) {
    LegOutcome& outcome = outcomes[s];
    SearchScratch& leg_scratch = *scratch.legs[fan_out ? s : 0];
    SearchParams per_shard = params;
    per_shard.max_distance_evals =
        SplitBudget(params.max_distance_evals, s, num_shards);
    per_shard.time_budget_us =
        SplitBudget(params.time_budget_us, s, num_shards);
    if (trace != nullptr) {
      leg_scratch.ctx.trace = &outcome.trace.emplace(leg_trace_capacity);
    }
    try {
      lists[s] = leg(s, leg_scratch, per_shard, &outcome.stats);
    } catch (...) {
      outcome.error = std::current_exception();
    }
    leg_scratch.ctx.trace = nullptr;
  };
  if (fan_out) {
    SharedThreadPool().RunTasks(num_shards, run_leg);
  } else {
    // Stop at the first failure; fanned-out legs cannot be cancelled.
    for (uint32_t s = 0; s < num_shards; ++s) {
      run_leg(s);
      if (outcomes[s].error != nullptr) break;
    }
  }
  // Every leg that ran has finished; gather in shard order, so what the
  // caller sees does not depend on which leg finished first.
  QueryStats total;
  for (uint32_t s = 0; s < num_shards; ++s) {
    const LegOutcome& outcome = outcomes[s];
    if (trace != nullptr) trace->Append(*outcome.trace);
    if (outcome.error != nullptr) std::rethrow_exception(outcome.error);
    total.distance_evals += outcome.stats.distance_evals;
    total.hops += outcome.stats.hops;
    total.truncated |= outcome.stats.truncated;
  }
  std::vector<ScoredId> merged = MergeTopK(lists, params.k);
  if (stats != nullptr) *stats = total;
  return merged;
}

}  // namespace weavess
