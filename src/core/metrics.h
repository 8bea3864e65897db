// Index-structure metrics from §5.1 of the paper: graph quality (GQ),
// average/max/min out-degree (AD), and number of connected components (CC).
// These feed Table 4, Table 11, and Figure 6.
#ifndef WEAVESS_CORE_METRICS_H_
#define WEAVESS_CORE_METRICS_H_

#include <cstdint>

#include "core/flat_graph.h"

namespace weavess {

struct DegreeStats {
  double average = 0.0;
  uint32_t max = 0;
  uint32_t min = 0;
};

/// Out-degree statistics over all vertices.
DegreeStats ComputeDegreeStats(const CsrGraph& graph);

/// Graph quality GQ = |E' ∩ E| / |E| where E' is `graph`'s edge set and E is
/// the exact KNNG's (both directed). `exact_knng` lists each vertex's true
/// K nearest neighbors. Matches the definition of [21, 26, 97] cited in §5.1.
double ComputeGraphQuality(const CsrGraph& graph, const CsrGraph& exact_knng);

/// Number of connected components of the *undirected view* of the graph
/// (edge direction ignored), via breadth-first traversal.
uint32_t CountConnectedComponents(const CsrGraph& graph);

/// True when every vertex is reachable from `root` following directed edges.
bool AllReachableFrom(const CsrGraph& graph, uint32_t root);

}  // namespace weavess

#endif  // WEAVESS_CORE_METRICS_H_
