#include "algorithms/nsw.h"

#include <algorithm>

#include "core/timer.h"
#include "search/router.h"

namespace weavess {

NswIndex::NswIndex(const Params& params)
    : params_(params), rng_(params.seed) {}

void NswIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  Graph graph(data.size());
  SearchContext ctx;

  // Increment strategy: each point is inserted as a query against the
  // subgraph of previously inserted points (C1 == seed acquisition).
  for (uint32_t point = 1; point < data.size(); ++point) {
    ctx.BeginQuery(data.size());
    CandidatePool pool(params_.ef_construction);
    // Random seeds among the already-inserted prefix.
    std::vector<uint32_t> seeds;
    const uint32_t want = std::min(params_.num_search_seeds, point);
    while (seeds.size() < want) {
      seeds.push_back(static_cast<uint32_t>(rng_.NextBounded(point)));
    }
    SeedPool(seeds, data.Row(point), oracle, ctx, pool);
    BestFirstSearch(graph, data.Row(point), oracle, ctx, pool);
    const uint32_t connect =
        std::min<uint32_t>(params_.edges_per_insert,
                           static_cast<uint32_t>(pool.size()));
    for (uint32_t i = 0; i < connect; ++i) {
      graph.AddUndirectedEdge(point, pool[i].id);
    }
  }
  // KGraph-style query seeding: fill the pool with random entries, which
  // keeps cluster coverage proportional to the search effort L.
  FinishBuild(CsrGraph(graph),
              std::make_unique<RandomSeedProvider>(
                  data.size(), /*num_seeds=*/0, params_.seed),
              RoutingKind::kBestFirst, {timer.Seconds(), counter.count});
}

std::unique_ptr<AnnIndex> CreateNsw(const AlgorithmOptions& options) {
  NswIndex::Params params;
  params.edges_per_insert = options.max_degree / 2 + 1;
  params.ef_construction = options.build_pool;
  params.seed = options.seed;
  return std::make_unique<NswIndex>(params);
}

}  // namespace weavess
