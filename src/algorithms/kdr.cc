#include "algorithms/kdr.h"

#include <algorithm>

#include "core/timer.h"
#include "graph/exact_knng.h"

namespace weavess {

KdrIndex::KdrIndex(const Params& params) : params_(params) {}

bool KdrIndex::Reachable(const Graph& kept, uint32_t start, uint32_t target,
                         float limit, DistanceOracle& oracle,
                         SearchContext& ctx) const {
  // Bounded breadth-first reachability over kept edges; only edges shorter
  // than the direct edge can justify dropping it.
  std::vector<uint32_t> frontier = {start};
  std::vector<uint32_t> next;
  ctx.BeginQuery(kept.size());
  ctx.visited.MarkVisited(start);
  for (uint32_t hop = 0; hop < params_.reach_hops; ++hop) {
    next.clear();
    for (uint32_t v : frontier) {
      for (uint32_t u : kept.Neighbors(v)) {
        if (ctx.visited.Visited(u)) continue;
        if (oracle.Between(v, u) >= limit) continue;
        if (u == target) return true;
        ctx.visited.MarkVisited(u);
        next.push_back(u);
      }
    }
    frontier.swap(next);
    if (frontier.empty()) break;
  }
  return false;
}

void KdrIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  SearchContext ctx;

  const Graph knng = BuildExactKnng(data, params_.knng_degree, &counter);
  Graph graph(data.size());
  // Process candidate edges per vertex in ascending distance order (the
  // exact KNNG lists are already sorted): keep (x, y) only if y cannot
  // already reach x along kept shorter edges.
  for (uint32_t x = 0; x < data.size(); ++x) {
    uint32_t kept = 0;
    for (uint32_t y : knng.Neighbors(x)) {
      if (kept >= params_.max_degree) break;
      const float direct = oracle.Between(x, y);
      if (Reachable(graph, y, x, direct, oracle, ctx)) continue;
      graph.AddUndirectedEdge(x, y);
      ++kept;
    }
  }
  // Pool-filling random seeds, like KGraph: cluster coverage scales with L.
  FinishBuild(CsrGraph(graph),
              std::make_unique<RandomSeedProvider>(
                  data.size(), /*num_seeds=*/0, params_.seed),
              RoutingKind::kRange, {timer.Seconds(), counter.count});
}

std::unique_ptr<AnnIndex> CreateKdr(const AlgorithmOptions& options) {
  KdrIndex::Params params;
  params.knng_degree = options.knng_degree;
  params.max_degree = options.max_degree / 2 + 1;
  params.seed = options.seed;
  return std::make_unique<KdrIndex>(params);
}

}  // namespace weavess
