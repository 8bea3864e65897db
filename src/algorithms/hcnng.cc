#include "algorithms/hcnng.h"

#include <algorithm>

#include "core/timer.h"
#include "graph/mst.h"
#include "tree/kd_tree.h"

namespace weavess {

HcnngIndex::HcnngIndex(const Params& params) : params_(params) {}

void HcnngIndex::ClusterAndConnect(std::vector<uint32_t>& ids, uint32_t begin,
                                   uint32_t end, DistanceOracle& oracle,
                                   Rng& rng,
                                   std::vector<uint32_t>& mst_degree,
                                   Graph& graph) const {
  const uint32_t count = end - begin;
  if (count <= params_.min_cluster_size) {
    // Leaf cluster: connect its members with an MST, respecting the
    // per-vertex per-MST degree cap.
    const std::vector<uint32_t> cluster(ids.begin() + begin,
                                        ids.begin() + end);
    // Kruskal, but an edge is skipped when either endpoint exhausted its
    // cap — the degree-bounded MST of [72].
    struct WeightedEdge {
      float weight;
      uint32_t a;
      uint32_t b;
    };
    std::vector<WeightedEdge> edges;
    edges.reserve(static_cast<size_t>(count) * (count - 1) / 2);
    for (uint32_t a = 0; a < count; ++a) {
      for (uint32_t b = a + 1; b < count; ++b) {
        edges.push_back({oracle.Between(cluster[a], cluster[b]), a, b});
      }
    }
    std::sort(edges.begin(), edges.end(),
              [](const WeightedEdge& x, const WeightedEdge& y) {
                return x.weight < y.weight;
              });
    std::vector<uint32_t> parent(count);
    for (uint32_t i = 0; i < count; ++i) parent[i] = i;
    auto find = [&parent](uint32_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (const WeightedEdge& edge : edges) {
      const uint32_t ga = cluster[edge.a];
      const uint32_t gb = cluster[edge.b];
      if (mst_degree[ga] >= params_.max_mst_degree ||
          mst_degree[gb] >= params_.max_mst_degree) {
        continue;
      }
      const uint32_t ra = find(edge.a);
      const uint32_t rb = find(edge.b);
      if (ra == rb) continue;
      parent[ra] = rb;
      graph.AddUndirectedEdge(ga, gb);
      ++mst_degree[ga];
      ++mst_degree[gb];
    }
    return;
  }
  // Two random pivots; each point goes to the closer one.
  const uint32_t pivot_a =
      ids[begin + static_cast<uint32_t>(rng.NextBounded(count))];
  uint32_t pivot_b = pivot_a;
  while (pivot_b == pivot_a) {
    pivot_b = ids[begin + static_cast<uint32_t>(rng.NextBounded(count))];
  }
  auto mid_it = std::partition(
      ids.begin() + begin, ids.begin() + end,
      [&oracle, pivot_a, pivot_b](uint32_t id) {
        return oracle.Between(id, pivot_a) <= oracle.Between(id, pivot_b);
      });
  uint32_t mid = static_cast<uint32_t>(mid_it - ids.begin());
  if (mid == begin || mid == end) mid = begin + count / 2;  // degenerate
  ClusterAndConnect(ids, begin, mid, oracle, rng, mst_degree, graph);
  ClusterAndConnect(ids, mid, end, oracle, rng, mst_degree, graph);
}

void HcnngIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  Rng rng(params_.seed);
  Graph graph(data.size());

  std::vector<uint32_t> ids(data.size());
  for (uint32_t clustering = 0; clustering < params_.num_clusterings;
       ++clustering) {
    for (uint32_t i = 0; i < data.size(); ++i) ids[i] = i;
    // Degree budget is per clustering round: each MST round may add up to
    // max_mst_degree edges per vertex.
    std::vector<uint32_t> mst_degree(data.size(), 0);
    ClusterAndConnect(ids, 0, data.size(), oracle, rng, mst_degree, graph);
  }

  auto forest = std::make_shared<KdForest>(data, params_.num_seed_trees,
                                           /*leaf_size=*/16,
                                           params_.seed ^ 0x8c99ULL);
  FinishBuild(CsrGraph(graph),
              std::make_unique<KdLeafSeedProvider>(std::move(forest),
                                                   params_.max_seeds),
              RoutingKind::kGuided, {timer.Seconds(), counter.count});
}

std::unique_ptr<AnnIndex> CreateHcnng(const AlgorithmOptions& options) {
  HcnngIndex::Params params;
  params.num_clusterings = std::max(4u, options.num_trees * 2);
  params.seed = options.seed;
  return std::make_unique<HcnngIndex>(params);
}

}  // namespace weavess
