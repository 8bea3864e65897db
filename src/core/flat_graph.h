// Flattened adjacency storage for search-time memory locality (Appendix I
// of the paper: aligning neighbor lists to a fixed stride enables
// contiguous access and improves search efficiency — unless the maximum
// out-degree is too large, when padding blows the memory budget).
//
//  - CsrGraph: compact offsets + one id array (no padding). The one graph
//    every built or loaded index holds, and what AnnIndex::graph() returns;
//    builders edit a Graph (core/graph.h) and freeze it into one.
//  - AlignedGraph: fixed stride = max degree, padded with kInvalid
//    (the paper's "align the adjacency list to the same size").
#ifndef WEAVESS_CORE_FLAT_GRAPH_H_
#define WEAVESS_CORE_FLAT_GRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/graph.h"

namespace weavess {

/// Compressed-sparse-row graph: neighbors of v are ids_[offsets_[v]] ..
/// ids_[offsets_[v+1]).
class CsrGraph {
 public:
  /// Zero vertices, and no allocation: HNSW resets its level-0 snapshot to
  /// this on every Add, and the mutable tier copies it on every publish.
  CsrGraph() = default;

  /// Freezes a built graph, keeping each vertex's neighbor order.
  explicit CsrGraph(const Graph& graph);

  /// Adopts an offset table and id array; WEAVESS_CHECKs offsets[0] == 0,
  /// non-decreasing offsets and offsets.back() == ids.size().
  CsrGraph(std::vector<uint64_t> offsets, std::vector<uint32_t> ids);

  uint32_t size() const {
    return offsets_.empty() ? 0 : static_cast<uint32_t>(offsets_.size()) - 1;
  }

  uint64_t NumEdges() const { return ids_.size(); }

  std::span<const uint32_t> Neighbors(uint32_t v) const {
    WEAVESS_DCHECK(v + 1 < offsets_.size());
    return {ids_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  size_t MemoryBytes() const {
    return offsets_.size() * sizeof(uint64_t) + ids_.size() * sizeof(uint32_t);
  }

  bool operator==(const CsrGraph&) const = default;

 private:
  // size() + 1 entries, or none for a zero-vertex graph.
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> ids_;
};

/// Fixed-stride view: every vertex owns exactly `stride()` slots; unused
/// slots hold kInvalid. Neighbor iteration never chases a second pointer.
class AlignedGraph {
 public:
  static constexpr uint32_t kInvalid = 0xffffffffu;

  explicit AlignedGraph(const CsrGraph& graph);

  uint32_t size() const { return num_vertices_; }
  uint32_t stride() const { return stride_; }

  /// All slots of v (iterate until kInvalid).
  const uint32_t* Slots(uint32_t v) const {
    WEAVESS_DCHECK(v < num_vertices_);
    return slots_.data() + static_cast<size_t>(v) * stride_;
  }

  size_t MemoryBytes() const { return slots_.size() * sizeof(uint32_t); }

 private:
  uint32_t num_vertices_ = 0;
  uint32_t stride_ = 0;
  std::vector<uint32_t> slots_;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_FLAT_GRAPH_H_
