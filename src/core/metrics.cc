#include "core/metrics.h"

#include <algorithm>
#include <limits>
#include <unordered_set>
#include <vector>

namespace weavess {

DegreeStats ComputeDegreeStats(const CsrGraph& graph) {
  DegreeStats stats;
  if (graph.size() == 0) return stats;
  uint64_t total = 0;
  uint32_t max_degree = 0;
  uint32_t min_degree = std::numeric_limits<uint32_t>::max();
  for (uint32_t v = 0; v < graph.size(); ++v) {
    const auto degree = static_cast<uint32_t>(graph.Neighbors(v).size());
    total += degree;
    max_degree = std::max(max_degree, degree);
    min_degree = std::min(min_degree, degree);
  }
  stats.average = static_cast<double>(total) / graph.size();
  stats.max = max_degree;
  stats.min = min_degree;
  return stats;
}

double ComputeGraphQuality(const CsrGraph& graph,
                           const CsrGraph& exact_knng) {
  WEAVESS_CHECK(graph.size() == exact_knng.size());
  if (exact_knng.NumEdges() == 0) return 0.0;
  uint64_t hits = 0;
  uint64_t total = 0;
  std::unordered_set<uint32_t> present;
  for (uint32_t v = 0; v < graph.size(); ++v) {
    const auto approx = graph.Neighbors(v);
    present.clear();
    present.insert(approx.begin(), approx.end());
    for (uint32_t u : exact_knng.Neighbors(v)) {
      ++total;
      if (present.count(u) != 0) ++hits;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(hits) / total;
}

uint32_t CountConnectedComponents(const CsrGraph& graph) {
  const uint32_t n = graph.size();
  if (n == 0) return 0;
  // Build the undirected view implicitly: union by both arc directions.
  std::vector<uint32_t> parent(n);
  for (uint32_t i = 0; i < n; ++i) parent[i] = i;
  // Iterative path-halving find.
  auto find = [&parent](uint32_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  uint32_t components = n;
  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t u : graph.Neighbors(v)) {
      uint32_t a = find(v);
      uint32_t b = find(u);
      if (a != b) {
        parent[a] = b;
        --components;
      }
    }
  }
  return components;
}

bool AllReachableFrom(const CsrGraph& graph, uint32_t root) {
  const uint32_t n = graph.size();
  if (n == 0) return true;
  WEAVESS_CHECK(root < n);
  std::vector<bool> seen(n, false);
  std::vector<uint32_t> stack = {root};
  seen[root] = true;
  uint32_t visited = 0;
  while (!stack.empty()) {
    uint32_t v = stack.back();
    stack.pop_back();
    ++visited;
    for (uint32_t u : graph.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
  return visited == n;
}

}  // namespace weavess
