#include "core/graph.h"

#include <algorithm>

namespace weavess {

bool Graph::AddEdgeUnique(uint32_t u, uint32_t v) {
  WEAVESS_DCHECK(u < size() && v < size());
  auto& list = adjacency_[u];
  if (std::find(list.begin(), list.end(), v) != list.end()) return false;
  list.push_back(v);
  return true;
}

size_t Graph::MemoryBytes() const {
  size_t bytes = adjacency_.size() * sizeof(std::vector<uint32_t>);
  for (const auto& list : adjacency_) bytes += list.size() * sizeof(uint32_t);
  return bytes;
}

void Graph::TruncateDegrees(uint32_t max_degree) {
  for (auto& list : adjacency_) {
    if (list.size() > max_degree) list.resize(max_degree);
  }
}

}  // namespace weavess
