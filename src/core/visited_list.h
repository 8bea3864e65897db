// Epoch-stamped visited marker. Resetting between queries is O(1): bump the
// epoch instead of clearing the array. Standard trick from HNSW-style
// implementations; shared by every routing strategy in search/.
#ifndef WEAVESS_CORE_VISITED_LIST_H_
#define WEAVESS_CORE_VISITED_LIST_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace weavess {

class VisitedList {
 public:
  VisitedList() = default;
  explicit VisitedList(uint32_t num_elements) : stamps_(num_elements, 0) {}

  /// Makes ids [0, num_elements) markable. New slots are stamped 0, which
  /// no epoch equals after Reset, so they start unvisited. Each growth at
  /// least doubles the list, so a growing index reallocates O(log n) times.
  void Grow(uint32_t num_elements) {
    if (num_elements <= stamps_.size()) return;
    const size_t doubled =
        std::min<size_t>(2 * stamps_.size(), UINT32_MAX);
    stamps_.resize(std::max<size_t>(num_elements, doubled), 0);
  }

  /// Starts a new query; all elements become unvisited.
  void Reset() {
    if (++epoch_ == 0) {  // wrapped: do the rare full clear
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  bool Visited(uint32_t id) const { return stamps_[id] == epoch_; }

  void MarkVisited(uint32_t id) { stamps_[id] = epoch_; }

  /// Marks and reports whether the element was already visited.
  bool CheckAndMark(uint32_t id) {
    if (stamps_[id] == epoch_) return true;
    stamps_[id] = epoch_;
    return false;
  }

  uint32_t size() const { return static_cast<uint32_t>(stamps_.size()); }

  uint32_t epoch() const { return epoch_; }

  /// Test hook: jumps the epoch so a test can exercise the rare wrap-around
  /// full clear without 2^32 Reset calls. Stale stamps from earlier epochs
  /// are left in place on purpose — that is exactly the hazard the wrap
  /// clear must defuse.
  void SetEpochForTesting(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_VISITED_LIST_H_
