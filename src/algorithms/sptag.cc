#include "algorithms/sptag.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/timer.h"
#include "graph/exact_knng.h"
#include "graph/neighbor_selection.h"
#include "search/router.h"
#include "tree/tp_tree.h"

namespace weavess {

SptagIndex::SptagIndex(const Params& params) : params_(params) {}

void SptagIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;
  DistanceOracle oracle(data, &counter);
  Rng rng(params_.seed);

  // --- Divide and conquer: union of per-leaf exact KNNGs over several
  // independent TP-tree partitions (C1 dataset division + C2 subspace). ---
  Graph graph(data.size());
  TpTreeParams tp;
  tp.max_leaf_size = params_.max_leaf_size;
  for (uint32_t iter = 0; iter < params_.partition_iterations; ++iter) {
    const auto leaves = TpTreePartition(data, tp, rng);
    for (const auto& leaf : leaves) {
      MergeExactKnngOnSubset(data, leaf, params_.knng_degree, graph,
                             &counter);
    }
  }

  // --- Neighborhood propagation: neighbors' neighbors become candidates,
  // keeping the closest K (SPTAG's refinement [100]). ---
  std::vector<Neighbor> candidates;
  for (uint32_t pass = 0; pass < params_.propagation_passes; ++pass) {
    Graph propagated(data.size());
    for (uint32_t p = 0; p < data.size(); ++p) {
      candidates.clear();
      std::unordered_set<uint32_t> seen = {p};
      for (uint32_t nb : graph.Neighbors(p)) {
        if (seen.insert(nb).second) {
          candidates.emplace_back(nb, oracle.Between(p, nb));
        }
      }
      const size_t direct = candidates.size();
      for (size_t i = 0; i < direct; ++i) {
        for (uint32_t hop2 : graph.Neighbors(candidates[i].id)) {
          if (seen.insert(hop2).second) {
            candidates.emplace_back(hop2, oracle.Between(p, hop2));
          }
        }
      }
      std::sort(candidates.begin(), candidates.end());
      auto& list = propagated.MutableNeighbors(p);
      const size_t take =
          std::min<size_t>(params_.knng_degree, candidates.size());
      for (size_t i = 0; i < take; ++i) list.push_back(candidates[i].id);
    }
    graph = std::move(propagated);
  }

  // --- BKT variant: RNG selection over the KNNG (the "recently added
  // option of approximating RNG" in the SPTAG project). ---
  if (params_.variant == Variant::kBkt) {
    Graph pruned(data.size());
    for (uint32_t p = 0; p < data.size(); ++p) {
      candidates.clear();
      for (uint32_t nb : graph.Neighbors(p)) {
        candidates.emplace_back(nb, oracle.Between(p, nb));
      }
      std::sort(candidates.begin(), candidates.end());
      const std::vector<Neighbor> kept =
          SelectRng(oracle, p, candidates, params_.knng_degree);
      auto& list = pruned.MutableNeighbors(p);
      for (const Neighbor& nb : kept) list.push_back(nb.id);
    }
    graph = std::move(pruned);
  }

  // --- Seed trees. ---
  std::unique_ptr<SeedProvider> seeds;
  if (params_.variant == Variant::kKdt) {
    auto forest = std::make_shared<const KdForest>(
        data, /*num_trees=*/2, /*leaf_size=*/16, params_.seed ^ 0x5d7ULL);
    kd_forest_ = forest;
    seeds = std::make_unique<KdForestSeedProvider>(std::move(forest),
                                                   params_.seed_tree_checks);
  } else {
    KMeansTree::Params tree_params;
    tree_params.seed = params_.seed ^ 0xb7ULL;
    auto tree = std::make_shared<const KMeansTree>(data, tree_params);
    kmeans_tree_ = tree;
    seeds = std::make_unique<KMeansTreeSeedProvider>(std::move(tree),
                                                     params_.seed_tree_checks);
  }
  FinishBuild(CsrGraph(graph), std::move(seeds), RoutingKind::kBestFirst,
              {timer.Seconds(), counter.count});
}

void SptagIndex::Route(const float* query, const SearchParams&,
                       DistanceOracle& oracle, SearchContext& ctx,
                       CandidatePool& pool) const {
  // The seed provider made round 0's tree entry with seed_tree_checks.
  uint32_t tree_budget = params_.seed_tree_checks;
  float best_before = std::numeric_limits<float>::infinity();
  for (uint32_t round = 0; round <= params_.max_restarts; ++round) {
    if (round > 0) {
      if (kd_forest_ != nullptr) {
        kd_forest_->SearchKnn(query, tree_budget, oracle, pool);
      } else {
        kmeans_tree_->SearchKnn(query, tree_budget, oracle, pool);
      }
      for (const Neighbor& entry : pool.entries()) {
        ctx.visited.MarkVisited(entry.id);
      }
    }
    BestFirstSearch(graph(), query, oracle, ctx, pool);
    if (ctx.truncated) break;  // budget tripped: no further restarts
    const float best_after =
        pool.size() > 0 ? pool[0].distance
                        : std::numeric_limits<float>::infinity();
    if (round > 0 && best_after >= best_before) break;  // no improvement
    best_before = best_after;
    tree_budget *= 2;
  }
}

std::unique_ptr<AnnIndex> CreateSptagKdt(const AlgorithmOptions& options) {
  SptagIndex::Params params;
  params.variant = SptagIndex::Variant::kKdt;
  params.knng_degree = options.knng_degree;
  params.seed = options.seed;
  return std::make_unique<SptagIndex>(params);
}

std::unique_ptr<AnnIndex> CreateSptagBkt(const AlgorithmOptions& options) {
  SptagIndex::Params params;
  params.variant = SptagIndex::Variant::kBkt;
  params.knng_degree = options.knng_degree;
  params.seed = options.seed;
  return std::make_unique<SptagIndex>(params);
}

}  // namespace weavess
