// The graph index G(V, E) of Definition 2.3 while it is built: adjacency
// lists over vertex ids that correspond 1:1 to dataset rows, frozen into a
// CsrGraph (core/flat_graph.h) when done. Directed by convention;
// undirected graphs (NSW, DPG, k-DR) store both arc directions.
#ifndef WEAVESS_CORE_GRAPH_H_
#define WEAVESS_CORE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/check.h"

namespace weavess {

class Graph {
 public:
  Graph() = default;
  explicit Graph(uint32_t num_vertices) : adjacency_(num_vertices) {}

  uint32_t size() const { return static_cast<uint32_t>(adjacency_.size()); }

  const std::vector<uint32_t>& Neighbors(uint32_t v) const {
    WEAVESS_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }
  std::vector<uint32_t>& MutableNeighbors(uint32_t v) {
    WEAVESS_DCHECK(v < adjacency_.size());
    return adjacency_[v];
  }

  /// Appends the directed edge u -> v (no duplicate check; see AddEdgeUnique).
  void AddEdge(uint32_t u, uint32_t v) {
    WEAVESS_DCHECK(u < size() && v < size());
    adjacency_[u].push_back(v);
  }

  /// Appends u -> v only if absent. Linear scan: adjacency lists are short.
  /// Returns true if the edge was added.
  bool AddEdgeUnique(uint32_t u, uint32_t v);

  /// Adds both u -> v and v -> u, skipping duplicates.
  void AddUndirectedEdge(uint32_t u, uint32_t v) {
    AddEdgeUnique(u, v);
    AddEdgeUnique(v, u);
  }

  /// Bytes of this nested layout: 4 per stored arc plus a vector header
  /// per vertex (the "nested" row of the Appendix I layout ablation).
  size_t MemoryBytes() const;

  /// Caps every adjacency list at `max_degree`, keeping the first entries
  /// (callers order lists by distance before truncation).
  void TruncateDegrees(uint32_t max_degree);

 private:
  std::vector<std::vector<uint32_t>> adjacency_;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_GRAPH_H_
