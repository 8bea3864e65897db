#include "pipeline/pipeline.h"

#include <algorithm>
#include <unordered_set>

#include "core/parallel.h"
#include "core/timer.h"
#include "graph/connectivity.h"
#include "graph/exact_knng.h"
#include "graph/neighbor_selection.h"

namespace weavess {

PipelineIndex::PipelineIndex(std::string name, const PipelineConfig& config)
    : name_(std::move(name)), config_(config) {}

Graph PipelineIndex::BuildInitialGraph(DistanceCounter* counter) {
  const Dataset& data = this->data();
  const uint32_t degree = config_.nn_descent.k;
  switch (config_.init) {
    case InitKind::kRandom: {
      Rng rng(config_.seed);
      Graph graph(data.size());
      for (uint32_t i = 0; i < data.size(); ++i) {
        auto& list = graph.MutableNeighbors(i);
        const uint32_t want = std::min(degree, data.size() - 1);
        while (list.size() < want) {
          const auto j = static_cast<uint32_t>(rng.NextBounded(data.size()));
          if (j != i &&
              std::find(list.begin(), list.end(), j) == list.end()) {
            list.push_back(j);
          }
        }
      }
      return graph;
    }
    case InitKind::kKdForest: {
      KdForest forest(data, config_.kd_trees, /*leaf_size=*/16,
                      config_.seed);
      DistanceOracle oracle(data, counter);
      Graph graph(data.size());
      for (uint32_t i = 0; i < data.size(); ++i) {
        CandidatePool pool(degree + 1);  // +1 absorbs the point itself
        forest.SearchKnn(data.Row(i), config_.kd_init_checks, oracle, pool);
        auto& list = graph.MutableNeighbors(i);
        for (const Neighbor& nb : pool.entries()) {
          if (nb.id != i && list.size() < degree) list.push_back(nb.id);
        }
      }
      return graph;
    }
    case InitKind::kNnDescent:
    case InitKind::kKdNnDescent: {
      NnDescentParams nd = config_.nn_descent;
      nd.seed = config_.seed;
      nd.num_threads = config_.build_threads;
      NnDescent descent(data, nd, counter);
      if (config_.init == InitKind::kKdNnDescent) {
        KdForest forest(data, config_.kd_trees, /*leaf_size=*/16,
                        config_.seed);
        DistanceOracle oracle(data, counter);
        Graph kd_init(data.size());
        for (uint32_t i = 0; i < data.size(); ++i) {
          CandidatePool pool(nd.k + 1);
          forest.SearchKnn(data.Row(i), config_.kd_init_checks, oracle,
                           pool);
          auto& list = kd_init.MutableNeighbors(i);
          for (const Neighbor& nb : pool.entries()) {
            if (nb.id != i && list.size() < nd.k) list.push_back(nb.id);
          }
        }
        descent.InitFromGraph(kd_init);
      } else {
        descent.InitRandom();
      }
      descent.Run();
      return descent.ExtractGraph(nd.k);
    }
    case InitKind::kBruteForce:
      return BuildExactKnng(data, degree, counter, config_.build_threads);
  }
  WEAVESS_CHECK(false);
  return Graph();
}

std::vector<Neighbor> PipelineIndex::AcquireCandidates(const Graph& base,
                                                       uint32_t point,
                                                       DistanceOracle& oracle,
                                                       SearchContext& ctx) {
  const Dataset& data = this->data();
  std::vector<Neighbor> candidates;
  switch (config_.candidates) {
    case CandidateKind::kNeighbors: {
      for (uint32_t nb : base.Neighbors(point)) {
        if (nb != point) {
          candidates.emplace_back(nb, oracle.Between(point, nb));
        }
      }
      break;
    }
    case CandidateKind::kExpansion: {
      std::unordered_set<uint32_t> seen = {point};
      for (uint32_t nb : base.Neighbors(point)) {
        if (seen.insert(nb).second) {
          candidates.emplace_back(nb, oracle.Between(point, nb));
        }
      }
      const size_t direct = candidates.size();
      for (size_t i = 0; i < direct; ++i) {
        for (uint32_t hop2 : base.Neighbors(candidates[i].id)) {
          if (candidates.size() >= config_.candidate_limit) break;
          if (seen.insert(hop2).second) {
            candidates.emplace_back(hop2, oracle.Between(point, hop2));
          }
        }
      }
      break;
    }
    case CandidateKind::kSearch: {
      // NSG/Vamana collect *every vertex visited* by the construction-time
      // ANNS as a candidate — the search path supplies the long-range
      // candidates that make the selected graph navigable, not just the
      // converged local pool.
      ctx.BeginQuery(data.size());
      CandidatePool pool(config_.candidate_search_pool);
      ctx.visited.MarkVisited(point);  // never offer p as its own neighbor
      const float* target = data.Row(point);
      auto visit = [&](uint32_t id) {
        if (ctx.visited.CheckAndMark(id)) return;
        const float dist = oracle.ToQuery(target, id);
        pool.Insert(Neighbor(id, dist));
        candidates.emplace_back(id, dist);
      };
      visit(connect_root_);
      for (uint32_t nb : base.Neighbors(point)) visit(nb);
      size_t next;
      while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
        const uint32_t current = pool[next].id;
        pool.MarkChecked(next);
        for (uint32_t neighbor : base.Neighbors(current)) visit(neighbor);
      }
      break;
    }
  }
  std::sort(candidates.begin(), candidates.end());
  if (candidates.size() > config_.candidate_limit) {
    candidates.resize(config_.candidate_limit);
  }
  return candidates;
}

Graph PipelineIndex::RefinePass(const Graph& base, float alpha,
                                DistanceCounter* counter) {
  const Dataset& data = this->data();
  // In-place (Vamana) refinement mutates a working copy that candidate
  // acquisition also reads, so later vertices navigate the refined lists;
  // vertices are processed in a random permutation σ, as in DiskANN.
  Graph refined = config_.refine_in_place ? base : Graph(data.size());
  const Graph& source = config_.refine_in_place ? refined : base;

  // C2 + C3 for one vertex; writes the selected list and returns it.
  auto refine_one = [this, alpha, &refined, &source](
                        uint32_t p, DistanceOracle& oracle,
                        SearchContext& ctx) {
    std::vector<Neighbor> candidates =
        AcquireCandidates(source, p, oracle, ctx);
    std::vector<Neighbor> selected;
    switch (config_.selection) {
      case SelectionKind::kDistance:
        selected = SelectByDistance(candidates, config_.max_degree);
        break;
      case SelectionKind::kRng:
        selected = SelectRng(oracle, p, candidates, config_.max_degree);
        break;
      case SelectionKind::kAlphaTwoPass:
        selected =
            SelectRng(oracle, p, candidates, config_.max_degree, alpha);
        break;
      case SelectionKind::kAngle:
        selected = SelectByAngle(oracle, p, candidates, config_.max_degree,
                                 config_.angle_degrees);
        break;
      case SelectionKind::kDpg:
        selected = SelectDpg(oracle, p, candidates, config_.max_degree);
        break;
    }
    auto& list = refined.MutableNeighbors(p);
    list.clear();
    list.reserve(selected.size());
    for (const Neighbor& nb : selected) list.push_back(nb.id);
    return selected;
  };

  // Parallel path: refinement reads only `base` and writes only vertex p's
  // list, so distinct vertices are independent (not available for the
  // in-place variant, whose passes are inherently sequential).
  const uint32_t workers = std::max(1u, config_.build_threads);
  if (!config_.refine_in_place && workers > 1) {
    WorkerDistanceCounters worker_counters(workers);
    std::vector<std::unique_ptr<SearchContext>> contexts;
    contexts.reserve(workers);
    for (uint32_t w = 0; w < workers; ++w) {
      contexts.push_back(std::make_unique<SearchContext>());
    }
    ParallelForWithWorker(0, data.size(), workers,
                          [&](uint32_t p, uint32_t worker) {
                            DistanceOracle oracle(
                                data, &worker_counters.of(worker));
                            refine_one(p, oracle, *contexts[worker]);
                          });
    worker_counters.FoldInto(counter);
    return refined;
  }

  DistanceOracle oracle(data, counter);
  SearchContext ctx;
  std::vector<uint32_t> order(data.size());
  for (uint32_t i = 0; i < data.size(); ++i) order[i] = i;
  if (config_.refine_in_place) {
    Rng rng(config_.seed ^ 0x0adeULL);
    rng.Shuffle(order);
  }
  for (const uint32_t p : order) {
    const std::vector<Neighbor> selected = refine_one(p, oracle, ctx);
    if (config_.refine_in_place) {
      // Backward edges x→p with α-pruning on overflow (Vamana's insert).
      for (const Neighbor& nb : selected) {
        auto& theirs = refined.MutableNeighbors(nb.id);
        if (std::find(theirs.begin(), theirs.end(), p) != theirs.end()) {
          continue;
        }
        theirs.push_back(p);
        if (theirs.size() > config_.max_degree) {
          std::vector<Neighbor> scored;
          scored.reserve(theirs.size());
          for (uint32_t id : theirs) {
            scored.emplace_back(id, oracle.Between(nb.id, id));
          }
          std::sort(scored.begin(), scored.end());
          const std::vector<Neighbor> kept =
              SelectRng(oracle, nb.id, scored, config_.max_degree, alpha);
          theirs.clear();
          for (const Neighbor& keep : kept) theirs.push_back(keep.id);
        }
      }
    }
  }
  return refined;
}

uint32_t PipelineIndex::PickRoot(DistanceCounter* counter) const {
  const Dataset& data = this->data();
  if (config_.seeds != SeedKind::kCentroid) return 0;
  // Medoid: the dataset point nearest to the component-wise mean.
  const std::vector<float> mean = data.Mean();
  DistanceOracle oracle(data, counter);
  uint32_t best = 0;
  float best_dist = std::numeric_limits<float>::infinity();
  for (uint32_t i = 0; i < data.size(); ++i) {
    const float dist = oracle.ToVector(mean.data(), data.Row(i));
    if (dist < best_dist) {
      best_dist = dist;
      best = i;
    }
  }
  return best;
}

std::unique_ptr<SeedProvider> PipelineIndex::PrepareSeeds() {
  const Dataset& data = this->data();
  Rng rng(config_.seed ^ 0x5eedULL);
  switch (config_.seeds) {
    case SeedKind::kRandomPerQuery:
      return std::make_unique<RandomSeedProvider>(
          data.size(), config_.num_seeds, config_.seed ^ 0x5eedULL);
    case SeedKind::kRandomFixed: {
      std::vector<uint32_t> seeds = rng.SampleDistinct(
          data.size(), std::min(config_.num_seeds, data.size()));
      connect_root_ = seeds[0];
      return std::make_unique<FixedSeedProvider>(std::move(seeds));
    }
    case SeedKind::kCentroid:
      // connect_root_ was set to the medoid at the start of Build.
      return std::make_unique<FixedSeedProvider>(
          std::vector<uint32_t>{connect_root_});
    case SeedKind::kKdForest: {
      auto forest = std::make_shared<KdForest>(data, config_.kd_trees,
                                               /*leaf_size=*/16,
                                               config_.seed ^ 0xf0e57ULL);
      return std::make_unique<KdForestSeedProvider>(
          std::move(forest), config_.seed_tree_checks);
    }
    case SeedKind::kKdLeaf: {
      auto forest = std::make_shared<KdForest>(data, config_.kd_trees,
                                               /*leaf_size=*/16,
                                               config_.seed ^ 0xf0e57ULL);
      return std::make_unique<KdLeafSeedProvider>(
          std::move(forest), config_.seed_tree_checks);
    }
    case SeedKind::kVpTree: {
      VpTree::Params params;
      params.seed = config_.seed ^ 0x59eedULL;
      auto tree = std::make_shared<VpTree>(data, params);
      return std::make_unique<VpTreeSeedProvider>(
          std::move(tree), config_.num_seeds, config_.seed_tree_checks);
    }
    case SeedKind::kKMeansTree: {
      KMeansTree::Params params;
      params.seed = config_.seed ^ 0xb4eedULL;
      auto tree = std::make_shared<KMeansTree>(data, params);
      return std::make_unique<KMeansTreeSeedProvider>(
          std::move(tree), config_.seed_tree_checks);
    }
    case SeedKind::kLsh: {
      LshTable::Params params;
      params.num_bits = config_.lsh_bits;
      params.seed = config_.seed ^ 0x1a54ULL;
      auto table = std::make_shared<LshTable>(data, params);
      return std::make_unique<LshSeedProvider>(
          std::move(table), std::max(config_.num_seeds, 1u));
    }
  }
  WEAVESS_CHECK(false);
  return nullptr;
}

void PipelineIndex::Build(const Dataset& data) {
  BeginBuild(data);
  Timer timer;
  DistanceCounter counter;

  // The medoid doubles as construction-time search entry and DFS root.
  if (config_.seeds == SeedKind::kCentroid) {
    connect_root_ = PickRoot(&counter);
  }

  // C1: initialization.
  Graph init_graph = BuildInitialGraph(&counter);

  // C2 + C3: candidate acquisition and neighbor selection.
  Graph graph = RefinePass(init_graph, 1.0f, &counter);
  if (config_.selection == SelectionKind::kAlphaTwoPass) {
    // Vamana's second pass runs over the pass-1 graph with α > 1.
    graph = RefinePass(graph, config_.alpha, &counter);
  }

  // DPG-style undirection.
  if (config_.add_reverse_edges) {
    const Graph forward = graph;
    for (uint32_t v = 0; v < forward.size(); ++v) {
      for (uint32_t u : forward.Neighbors(v)) {
        graph.AddEdgeUnique(u, v);
      }
    }
    if (config_.reverse_edge_cap > 0) {
      graph.TruncateDegrees(config_.reverse_edge_cap);
    }
  }

  // C4: seed preprocessing (before C5 so the DFS root matches the entry).
  std::unique_ptr<SeedProvider> seeds = PrepareSeeds();

  // C5: connectivity, rooted at the search entry (so reachability from the
  // root implies reachability from the seeds).
  if (config_.connectivity == ConnectivityKind::kDfsTree) {
    EnsureReachableFrom(graph, data, connect_root_,
                        config_.connect_pool_size, &counter);
  }

  FinishBuild(CsrGraph(graph), std::move(seeds), config_.routing,
              {timer.Seconds(), counter.count});
}

}  // namespace weavess
