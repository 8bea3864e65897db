#include "shard/mutable_shard.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "core/distance.h"

namespace weavess {

MutableShard::MutableShard(uint32_t dim, const HnswIndex::Params& params)
    : writer_(dim, params) {
  auto initial = std::make_shared<Snapshot>();
  initial->index = std::make_shared<const HnswIndex>(writer_);
  published_ = std::move(initial);
}

std::shared_ptr<const MutableShard::Snapshot> MutableShard::Pin() const {
  return std::atomic_load_explicit(&published_, std::memory_order_acquire);
}

void MutableShard::Publish(bool degraded) {
  auto next = std::make_shared<Snapshot>();
  // Shares every page with the working index, whose next write therefore
  // copies each page before changing it: published pages never change.
  next->index = std::make_shared<const HnswIndex>(writer_);
  next->version = ++version_;  // single writer: plain counter is enough
  next->degraded = degraded_ = degraded;
  std::atomic_store_explicit(&published_,
                             std::shared_ptr<const Snapshot>(std::move(next)),
                             std::memory_order_release);
}

void MutableShard::Add(uint32_t global_id, const float* vector) {
  WEAVESS_CHECK(global_to_local_.count(global_id) == 0 &&
                "global id already lives in this shard");
  // Readers search published copies, never the working index. Each copy
  // carries the RNG state, so the published sequence of structures is
  // identical to a sequential build over the same mutation order — the
  // WAL-replay determinism contract. The label keeps the global id with
  // the vector through compaction.
  global_to_local_[global_id] = writer_.Add(vector, global_id);
  Publish(degraded_);
}

bool MutableShard::Remove(uint32_t global_id) {
  const auto it = global_to_local_.find(global_id);
  if (it == global_to_local_.end()) return false;
  writer_.Remove(it->second);
  global_to_local_.erase(it);
  Publish(degraded_);
  return true;
}

bool MutableShard::Contains(uint32_t global_id) const {
  return global_to_local_.count(global_id) != 0;
}

Status MutableShard::Compact() {
  if (fault_armed_) {
    // Simulated rebuild failure: the old structure still serves, but its
    // quality is no longer trusted — degrade to exact scan until a clean
    // compaction replaces it.
    fault_armed_ = false;
    Publish(/*degraded=*/true);
    return Status::Unavailable(
        "compaction failed (injected fault); shard degraded to exact scan");
  }
  // The rebuild renumbers local ids; labels carry the global ids across,
  // so a global id resolves to the same vector before and after the swap.
  writer_.Compact();
  global_to_local_.clear();
  global_to_local_.reserve(writer_.size());
  for (uint32_t local = 0; local < writer_.size(); ++local) {
    global_to_local_[writer_.Label(local)] = local;
  }
  Publish(/*degraded=*/false);
  return Status::OK();
}

std::vector<ScoredId> SearchSnapshot(const MutableShard::Snapshot& snapshot,
                                     SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats) {
  const HnswIndex& index = *snapshot.index;
  if (stats != nullptr) {
    stats->distance_evals = 0;
    stats->hops = 0;
    stats->truncated = false;
  }
  std::vector<ScoredId> list;
  if (index.live_size() == 0) return list;
  if (snapshot.degraded) {
    // Exact scan over the live rows. One evaluation per row makes the eval
    // budget an exact row cap, mirroring the degraded static shards.
    uint64_t budget = params.max_distance_evals;
    uint64_t evals = 0;
    bool truncated = false;
    TopKAccumulator best(params.k);
    for (uint32_t local = 0; local < index.size(); ++local) {
      if (index.IsDeleted(local)) continue;
      if (budget > 0 && evals >= budget) {
        truncated = true;
        break;
      }
      best.Push(L2Sqr(query, index.Vector(local), index.dim()), local);
      ++evals;
    }
    if (stats != nullptr) {
      stats->distance_evals = evals;
      stats->truncated = truncated;
    }
    for (const ScoredId& entry : best.TakeSorted()) {
      list.emplace_back(entry.distance, index.Label(entry.id));
    }
    return list;
  }
  QueryStats local_stats;
  const std::vector<ScoredId> local =
      index.SearchScored(scratch, query, params, &local_stats);
  if (stats != nullptr) {
    stats->distance_evals = local_stats.distance_evals;
    stats->hops = local_stats.hops;
    stats->truncated = local_stats.truncated;
  }
  list.reserve(local.size());
  for (const ScoredId& entry : local) {
    // Tombstone enforcement at the merge boundary: the graph search already
    // filtered deleted ids, but the merged result is the serving contract,
    // so re-check before a candidate can cross into it.
    if (index.IsDeleted(entry.id)) continue;
    list.emplace_back(entry.distance, index.Label(entry.id));
  }
  // The search orders by distance alone (ties in reverse insertion order),
  // and compaction remaps locals, so sort by (distance, global id) for the
  // k-way merge, as the static legs do.
  std::sort(list.begin(), list.end());
  return list;
}

}  // namespace weavess
