#include "graph/connectivity.h"

#include <vector>

#include "core/neighbor.h"
#include "search/router.h"

namespace weavess {

namespace {

// Marks everything reachable from the vertices currently flagged in `seen`
// whose ids are on `stack`.
void Reach(const Graph& graph, std::vector<bool>& seen,
           std::vector<uint32_t>& stack) {
  while (!stack.empty()) {
    const uint32_t v = stack.back();
    stack.pop_back();
    for (uint32_t u : graph.Neighbors(v)) {
      if (!seen[u]) {
        seen[u] = true;
        stack.push_back(u);
      }
    }
  }
}

}  // namespace

uint32_t EnsureReachableFrom(Graph& graph, const Dataset& data, uint32_t root,
                             uint32_t search_pool_size,
                             DistanceCounter* counter) {
  const uint32_t n = graph.size();
  WEAVESS_CHECK(root < n);
  std::vector<bool> seen(n, false);
  std::vector<uint32_t> stack = {root};
  seen[root] = true;
  Reach(graph, seen, stack);

  DistanceOracle oracle(data, counter);
  SearchContext ctx;
  uint32_t bridges = 0;
  for (uint32_t u = 0; u < n; ++u) {
    if (seen[u]) continue;
    // Search the reachable part of the graph for vertices near u, then
    // bridge from the closest reachable vertex found.
    ctx.BeginQuery(n);
    CandidatePool pool(search_pool_size);
    SeedPool({root}, data.Row(u), oracle, ctx, pool);
    BestFirstSearch(graph, data.Row(u), oracle, ctx, pool);
    uint32_t attach = root;
    for (const Neighbor& candidate : pool.entries()) {
      if (seen[candidate.id]) {
        attach = candidate.id;
        break;  // pool is sorted: first reachable hit is the closest
      }
    }
    graph.AddEdgeUnique(attach, u);
    ++bridges;
    // Everything reachable from u is now reachable from the root.
    seen[u] = true;
    stack.push_back(u);
    Reach(graph, seen, stack);
  }
  return bridges;
}

}  // namespace weavess
