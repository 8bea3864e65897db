#include "algorithms/ngt.h"

#include <algorithm>

#include "core/timer.h"
#include "graph/neighbor_selection.h"
#include "search/router.h"
#include "tree/vp_tree.h"

namespace weavess {

NgtIndex::NgtIndex(const Params& params)
    : params_(params), rng_(params.seed) {}

void NgtIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  SearchContext ctx;

  // --- Stage 1: incremental ANNG via range search (like NSW, but the
  // construction-time search is NGT's range search). ---
  Graph anng(data.size());
  for (uint32_t point = 1; point < data.size(); ++point) {
    ctx.BeginQuery(data.size());
    CandidatePool pool(params_.ef_construction);
    std::vector<uint32_t> entries;
    const uint32_t want = std::min(3u, point);
    while (entries.size() < want) {
      entries.push_back(static_cast<uint32_t>(rng_.NextBounded(point)));
    }
    SeedPool(entries, data.Row(point), oracle, ctx, pool);
    RangeSearch(anng, data.Row(point), oracle, ctx, pool,
                params_.build_epsilon);
    const uint32_t connect = std::min<uint32_t>(
        params_.edges_per_insert, static_cast<uint32_t>(pool.size()));
    for (uint32_t i = 0; i < connect; ++i) {
      anng.AddUndirectedEdge(point, pool[i].id);
    }
  }

  // --- Stage 2 (onng only): out-/in-degree adjustment. Keep the closest
  // `out_edges` outgoing edges per vertex, then guarantee every vertex at
  // least `in_edges` incoming edges by re-adding reverse arcs. ---
  Graph adjusted(data.size());
  if (params_.variant == Variant::kOnng) {
    std::vector<Neighbor> scored;
    for (uint32_t v = 0; v < data.size(); ++v) {
      scored.clear();
      for (uint32_t u : anng.Neighbors(v)) {
        scored.emplace_back(u, oracle.Between(v, u));
      }
      std::sort(scored.begin(), scored.end());
      auto& list = adjusted.MutableNeighbors(v);
      for (const Neighbor& nb : scored) {
        if (list.size() >= params_.out_edges) break;
        list.push_back(nb.id);
      }
    }
    std::vector<uint32_t> in_degree(data.size(), 0);
    for (uint32_t v = 0; v < data.size(); ++v) {
      for (uint32_t u : adjusted.Neighbors(v)) ++in_degree[u];
    }
    for (uint32_t v = 0; v < data.size(); ++v) {
      if (in_degree[v] >= params_.in_edges) continue;
      // Push arcs u -> v for v's nearest ANNG neighbors u.
      scored.clear();
      for (uint32_t u : anng.Neighbors(v)) {
        scored.emplace_back(u, oracle.Between(v, u));
      }
      std::sort(scored.begin(), scored.end());
      for (const Neighbor& nb : scored) {
        if (in_degree[v] >= params_.in_edges) break;
        if (adjusted.AddEdgeUnique(nb.id, v)) ++in_degree[v];
      }
    }
  } else {
    adjusted = std::move(anng);
  }

  // --- Stage 3: path adjustment (RNG approximation) down to max_degree;
  // edges are kept undirected as in the released NGT. ---
  Graph graph(data.size());
  std::vector<Neighbor> scored;
  for (uint32_t v = 0; v < data.size(); ++v) {
    scored.clear();
    for (uint32_t u : adjusted.Neighbors(v)) {
      scored.emplace_back(u, oracle.Between(v, u));
    }
    std::sort(scored.begin(), scored.end());
    const std::vector<Neighbor> kept =
        SelectPathAdjustment(oracle, v, scored, params_.max_degree);
    for (const Neighbor& nb : kept) graph.AddUndirectedEdge(v, nb.id);
  }

  // --- Seed preprocessing: the VP-tree. ---
  VpTree::Params tree_params;
  tree_params.seed = params_.seed ^ 0x77ULL;
  auto tree = std::make_shared<VpTree>(data, tree_params);
  FinishBuild(CsrGraph(graph),
              std::make_unique<VpTreeSeedProvider>(std::move(tree),
                                                   params_.num_search_seeds,
                                                   params_.seed_tree_checks),
              RoutingKind::kRange, {timer.Seconds(), counter.count});
}

namespace {

NgtIndex::Params MakeNgtParams(const AlgorithmOptions& options,
                               NgtIndex::Variant variant) {
  NgtIndex::Params params;
  params.variant = variant;
  params.edges_per_insert = std::max(2u, options.knng_degree / 2);
  params.ef_construction = options.build_pool;
  params.max_degree = options.max_degree;
  params.out_edges = std::max(2u, options.max_degree * 2 / 3);
  params.in_edges = std::max(1u, options.max_degree / 3);
  params.seed = options.seed;
  return params;
}

}  // namespace

std::unique_ptr<AnnIndex> CreateNgtPanng(const AlgorithmOptions& options) {
  return std::make_unique<NgtIndex>(
      MakeNgtParams(options, NgtIndex::Variant::kPanng));
}

std::unique_ptr<AnnIndex> CreateNgtOnng(const AlgorithmOptions& options) {
  return std::make_unique<NgtIndex>(
      MakeNgtParams(options, NgtIndex::Variant::kOnng));
}

}  // namespace weavess
