// Neighbor records and the fixed-capacity sorted candidate pool that drives
// best-first search (Definition 4.7 / Algorithm 1 in the paper).
#ifndef WEAVESS_CORE_NEIGHBOR_H_
#define WEAVESS_CORE_NEIGHBOR_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/check.h"

namespace weavess {

/// A candidate vertex with its (squared) distance to the reference point.
struct Neighbor {
  uint32_t id = 0;
  float distance = 0.0f;
  /// Routing uses `checked` to mark vertices whose adjacency list has been
  /// expanded; NN-Descent reuses it as the "new neighbor" flag.
  bool checked = false;

  Neighbor() = default;
  Neighbor(uint32_t id_in, float distance_in, bool checked_in = false)
      : id(id_in), distance(distance_in), checked(checked_in) {}
};

inline bool operator<(const Neighbor& a, const Neighbor& b) {
  return a.distance < b.distance || (a.distance == b.distance && a.id < b.id);
}

inline bool operator>(const Neighbor& a, const Neighbor& b) { return b < a; }

/// A search result: a candidate's id with its (squared) distance to the
/// query, ordered by (distance, id).
struct ScoredId {
  float distance = 0.0f;
  uint32_t id = 0;

  ScoredId() = default;
  ScoredId(float distance_in, uint32_t id_in)
      : distance(distance_in), id(id_in) {}

  friend bool operator<(const ScoredId& a, const ScoredId& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.id < b.id);
  }
  friend bool operator==(const ScoredId& a, const ScoredId& b) {
    return a.distance == b.distance && a.id == b.id;
  }
};

/// The ids of `entries`, in order.
inline std::vector<uint32_t> IdsOf(const std::vector<ScoredId>& entries) {
  std::vector<uint32_t> ids;
  ids.reserve(entries.size());
  for (const ScoredId& entry : entries) ids.push_back(entry.id);
  return ids;
}

/// Fixed-capacity pool of candidates kept sorted by ascending distance: the
/// set C of Definition 4.7 with |C| <= c. Insertion is O(capacity) via
/// shifted insert, which beats heap-based pools at the small capacities
/// (tens to a few thousand) used for ANNS candidate sets.
class CandidatePool {
 public:
  static constexpr size_t kNpos = static_cast<size_t>(-1);

  explicit CandidatePool(size_t capacity) : capacity_(capacity) {
    WEAVESS_CHECK(capacity > 0);
    pool_.reserve(capacity + 1);
  }

  /// Empties the pool and re-targets it at a new capacity, reusing the
  /// backing storage. Lets per-worker scratch carry one pool across many
  /// queries instead of allocating per search.
  void Reset(size_t capacity) {
    WEAVESS_CHECK(capacity > 0);
    capacity_ = capacity;
    scan_hint_ = 0;
    pool_.clear();
    pool_.reserve(capacity + 1);
  }

  size_t size() const { return pool_.size(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return pool_.size() == capacity_; }
  const Neighbor& operator[](size_t i) const { return pool_[i]; }
  const std::vector<Neighbor>& entries() const { return pool_; }

  /// Distance of the current worst pool entry, or +inf while not full.
  float WorstDistance() const {
    return full() ? pool_.back().distance
                  : std::numeric_limits<float>::infinity();
  }

  /// Inserts candidate if it beats the worst entry (or the pool is not
  /// full) and is not already present. Returns the insertion position or
  /// kNpos if rejected. Duplicates are detected by id among equal-distance
  /// neighbors and across the pool.
  size_t Insert(Neighbor candidate) {
    if (full() && candidate.distance >= pool_.back().distance) return kNpos;
    // Binary search for insertion point.
    auto it = std::lower_bound(
        pool_.begin(), pool_.end(), candidate,
        [](const Neighbor& a, const Neighbor& b) {
          return a.distance < b.distance;
        });
    // Reject duplicates: scan the run of equal distances around `it`.
    for (auto probe = it;
         probe != pool_.end() && probe->distance == candidate.distance;
         ++probe) {
      if (probe->id == candidate.id) return kNpos;
    }
    if (it != pool_.begin()) {
      for (auto probe = std::prev(it);
           probe->distance == candidate.distance;
           --probe) {
        if (probe->id == candidate.id) return kNpos;
        if (probe == pool_.begin()) break;
      }
    }
    size_t pos = static_cast<size_t>(it - pool_.begin());
    pool_.insert(it, candidate);
    if (pool_.size() > capacity_) pool_.pop_back();
    if (pos >= pool_.size()) return kNpos;
    if (pos < scan_hint_) scan_hint_ = pos;
    return pos;
  }

  /// Index of the closest unchecked candidate, or kNpos when converged.
  /// Amortized O(1) via a monotone scan cursor that Insert rewinds.
  size_t NextUnchecked() {
    for (size_t i = scan_hint_; i < pool_.size(); ++i) {
      if (!pool_[i].checked) {
        scan_hint_ = i;
        return i;
      }
    }
    scan_hint_ = pool_.size();
    return kNpos;
  }

  void MarkChecked(size_t i) {
    WEAVESS_DCHECK(i < pool_.size());
    pool_[i].checked = true;
  }

  /// Copies the closest k entries out of the pool, in pool order.
  std::vector<ScoredId> TopScored(size_t k) const {
    std::vector<ScoredId> top;
    top.reserve(std::min(k, pool_.size()));
    for (size_t i = 0; i < pool_.size() && i < k; ++i) {
      top.emplace_back(pool_[i].distance, pool_[i].id);
    }
    return top;
  }

 private:
  size_t capacity_;
  size_t scan_hint_ = 0;
  std::vector<Neighbor> pool_;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_NEIGHBOR_H_
