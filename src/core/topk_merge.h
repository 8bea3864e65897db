// Shared top-k selection and k-way merge. Three collaborating pieces:
//
//  * TopKAccumulator — a bounded max-heap that keeps the k smallest
//    (distance, id) pairs seen so far.
//
//  * ExactScanTopK — the budget-capped exact scan over a dataset's rows
//    built on it: the serving brute-force fallback and degraded shard
//    scans (the mutable tier's tombstone-skipping scan feeds its own
//    accumulator).
//
//  * MergeTopK — merges per-source sorted candidate lists into one global
//    top-k with duplicate-id suppression: the gather step of ScatterGather
//    (src/shard/scatter_gather.h), which both the static and the mutable
//    sharded tier search through. Disjoint partitions cannot produce
//    duplicates, but the merge does not rely on that — an overlapping
//    source set (replicated shards, multi-probe) merges correctly too.
//
// Ordering everywhere is lexicographic (distance, id): distance ties break
// by ascending id, so results are deterministic regardless of source order.
#ifndef WEAVESS_CORE_TOPK_MERGE_H_
#define WEAVESS_CORE_TOPK_MERGE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/index.h"
#include "core/neighbor.h"

namespace weavess {

/// Keeps the k smallest (distance, id) pairs pushed into it. `k == 0` keeps
/// nothing. Push is O(log k); extraction sorts ascending. No duplicate
/// detection — callers feeding one source (a linear scan) never produce
/// duplicates; use MergeTopK when sources may overlap.
class TopKAccumulator {
 public:
  explicit TopKAccumulator(uint32_t k) : k_(k) { heap_.reserve(k + 1); }

  void Push(float distance, uint32_t id) {
    if (k_ == 0) return;
    const ScoredId entry(distance, id);
    if (heap_.size() < k_) {
      heap_.push_back(entry);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (entry < heap_.front()) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = entry;
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  size_t size() const { return heap_.size(); }

  /// Worst kept distance, +inf while fewer than k entries are held. Lets a
  /// scan skip the Push for obviously hopeless candidates.
  float WorstDistance() const {
    return heap_.size() < k_ ? std::numeric_limits<float>::infinity()
                             : heap_.front().distance;
  }

  /// Extracts the kept entries in ascending (distance, id) order. The
  /// accumulator is empty afterwards.
  std::vector<ScoredId> TakeSorted() {
    std::sort_heap(heap_.begin(), heap_.end());
    return std::move(heap_);
  }

 private:
  size_t k_;
  std::vector<ScoredId> heap_;  // max-heap under operator<
};

/// Exact top-k over the first min(data.size(), max_rows) rows of `data`
/// (max_rows 0 = every row), sorted by (distance, id). One evaluation per row
/// makes a nonzero `max_distance_evals` below that row count an exact row
/// cap: the scan stops there and reports truncated. The scan is already
/// bounded, so no time budget is polled mid-scan. `stats`, when given, is
/// overwritten with the evaluations spent and the truncated flag.
inline std::vector<ScoredId> ExactScanTopK(const Dataset& data,
                                           const float* query, uint32_t k,
                                           uint32_t max_rows,
                                           uint64_t max_distance_evals,
                                           QueryStats* stats) {
  uint32_t rows =
      max_rows == 0 ? data.size() : std::min(data.size(), max_rows);
  const bool truncated =
      max_distance_evals > 0 && max_distance_evals < rows;
  if (truncated) rows = static_cast<uint32_t>(max_distance_evals);
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  TopKAccumulator best(std::min(k, rows));
  for (uint32_t i = 0; i < rows; ++i) best.Push(oracle.ToQuery(query, i), i);
  if (stats != nullptr) {
    *stats = QueryStats{};
    stats->distance_evals = counter.count;
    stats->truncated = truncated;
  }
  return best.TakeSorted();
}

/// K-way merge of per-source candidate lists, each sorted ascending by
/// (distance, id), into the global top-k. The merge compares only list
/// heads, so unsorted input gives a wrong top-k ([5, 1] and [3] at k = 1
/// return 3). Only the smallest (distance, id) occurrence of an id
/// survives: the result is sorted and dup-free with size <= k.
namespace topk_internal {

struct MergeHead {
  ScoredId entry;
  uint32_t list = 0;
  uint32_t pos = 0;
  // Min-heap via reversed comparison; ties broken by list index for a
  // fully deterministic pop order.
  friend bool operator<(const MergeHead& a, const MergeHead& b) {
    if (b.entry < a.entry) return true;
    if (a.entry < b.entry) return false;
    return a.list > b.list;
  }
};

}  // namespace topk_internal

inline std::vector<ScoredId> MergeTopK(
    const std::vector<std::vector<ScoredId>>& lists, uint32_t k) {
  using topk_internal::MergeHead;
  std::priority_queue<MergeHead> heads;
  for (uint32_t l = 0; l < lists.size(); ++l) {
    if (!lists[l].empty()) heads.push({lists[l][0], l, 0});
  }
  std::vector<ScoredId> merged;
  merged.reserve(k);
  std::unordered_set<uint32_t> seen;
  seen.reserve(k);
  while (merged.size() < k && !heads.empty()) {
    const MergeHead head = heads.top();
    heads.pop();
    if (seen.insert(head.entry.id).second) merged.push_back(head.entry);
    const uint32_t next = head.pos + 1;
    if (next < lists[head.list].size()) {
      heads.push({lists[head.list][next], head.list, next});
    }
  }
  return merged;
}

}  // namespace weavess

#endif  // WEAVESS_CORE_TOPK_MERGE_H_
