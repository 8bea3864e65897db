// The unified seven-component pipeline of §4 (Figure 4), instantiated for
// the *Refinement* construction strategy that the paper's component study
// (§5.4) builds its benchmark algorithm on. Every component (C1
// initialization, C2 candidate acquisition, C3 neighbor selection, C5
// connectivity, C4/C6 seeding, C7 routing) is a pluggable choice, so
// swapping exactly one while holding the rest fixed reproduces Fig. 10.
//
// KGraph, EFANNA, IEH, FANNG, DPG, NSG, NSSG, Vamana and the optimized
// algorithm are thin configurations of this pipeline (algorithms/*.cc);
// increment-based (NSW/HNSW/NGT) and divide-and-conquer (SPTAG/HCNNG)
// algorithms keep their own build loops but share the same C3/C6/C7 blocks.
#ifndef WEAVESS_PIPELINE_PIPELINE_H_
#define WEAVESS_PIPELINE_PIPELINE_H_

#include <memory>
#include <string>

#include "graph/nn_descent.h"
#include "search/graph_index.h"  // RoutingKind (C7)
#include "search/seed.h"

namespace weavess {

/// C1 — how the initial graph G_init is obtained (Definition 4.2).
enum class InitKind {
  kRandom,       // KGraph / Vamana: random neighbors
  kKdForest,     // EFANNA without descent: KD-tree ANN per point
  kNnDescent,    // NSG / DPG / NSSG: random init + NN-Descent
  kKdNnDescent,  // EFANNA: KD-tree init + NN-Descent
  kBruteForce,   // IEH / FANNG: exact KNNG
};

/// C2 — where each point's candidate neighbors come from (Definition 4.4).
enum class CandidateKind {
  kNeighbors,  // DPG: G_init neighbors only
  kExpansion,  // KGraph / EFANNA / NSSG: neighbors + neighbors' neighbors
  kSearch,     // NSW / HNSW / NSG / Vamana: ANNS for p on G_init
};

/// C3 — neighbor selection strategy (Definition 4.5).
enum class SelectionKind {
  kDistance,      // KGraph / EFANNA / IEH / NSW
  kRng,           // HNSW / NSG / FANNG heuristic (α = 1)
  kAlphaTwoPass,  // Vamana: pass 1 α=1, pass 2 α>1
  kAngle,         // NSSG: θ threshold
  kDpg,           // DPG: maximize angle sum
};

/// C5 — connectivity assurance.
enum class ConnectivityKind {
  kNone,     // IEH / FANNG / Vamana / DPG-as-built
  kDfsTree,  // NSG / NSSG: depth-first tree grow from the root
};

/// C4/C6 — seed preprocessing + acquisition (Definitions 4.3, §4.2).
enum class SeedKind {
  kRandomPerQuery,  // KGraph / FANNG / NSW / DPG
  kRandomFixed,     // NSSG / optimized algorithm: frozen random entries
  kCentroid,        // NSG / Vamana: medoid of the dataset
  kKdForest,        // EFANNA / SPTAG-KDT
  kKdLeaf,          // HCNNG: leaf lookup, no distance evals on the path
  kVpTree,          // NGT
  kKMeansTree,      // SPTAG-BKT
  kLsh,             // IEH
};

struct PipelineConfig {
  InitKind init = InitKind::kNnDescent;
  CandidateKind candidates = CandidateKind::kExpansion;
  SelectionKind selection = SelectionKind::kRng;
  ConnectivityKind connectivity = ConnectivityKind::kDfsTree;
  SeedKind seeds = SeedKind::kRandomFixed;
  RoutingKind routing = RoutingKind::kBestFirst;

  // C1 parameters.
  NnDescentParams nn_descent;  // also sets the init-graph degree K
  uint32_t kd_trees = 4;
  uint32_t kd_init_checks = 200;  // per-point ANN budget for KD-tree init

  // C2 parameters.
  uint32_t candidate_limit = 100;  // cap on |C|
  uint32_t candidate_search_pool = 100;  // L for the kSearch variant

  // C3 parameters.
  uint32_t max_degree = 30;
  float alpha = 2.0f;           // kAlphaTwoPass second pass
  float angle_degrees = 60.0f;  // kAngle threshold θ
  /// DPG-style post-processing: make every edge bidirectional.
  bool add_reverse_edges = false;
  /// Cap applied after reverse-edge insertion (0 = uncapped, like DPG).
  uint32_t reverse_edge_cap = 0;

  // C4/C6 parameters.
  uint32_t num_seeds = 10;
  uint32_t seed_tree_checks = 100;
  uint32_t lsh_bits = 12;

  // C5 parameters.
  uint32_t connect_pool_size = 100;

  /// Vamana-style refinement: the C2 search runs on the *evolving* graph
  /// (already-refined vertices use their new lists) and every selected
  /// edge p→x also inserts the backward edge x→p, re-pruned on overflow.
  bool refine_in_place = false;

  /// Construction threads for the brute-force init, NN-Descent's local
  /// joins, and the (non-in-place) refinement pass — the parts the paper
  /// parallelized (§5.1). Every parallel stage is bit-for-bit
  /// thread-count-invariant, so any value yields the same graph and
  /// distance_evals as 1 (docs/CONCURRENCY.md).
  uint32_t build_threads = 1;

  uint64_t seed = 2024;
};

/// Refinement-strategy index assembled from the seven components.
class PipelineIndex : public GraphIndex {
 public:
  PipelineIndex(std::string name, const PipelineConfig& config);

  void Build(const Dataset& data) override;
  std::string name() const override { return name_; }

  const PipelineConfig& config() const { return config_; }

 private:
  Graph BuildInitialGraph(DistanceCounter* counter);
  // One C2+C3 refinement pass over every vertex of `base`, producing the
  // selected graph. `alpha` parameterizes kRng-style selection.
  Graph RefinePass(const Graph& base, float alpha, DistanceCounter* counter);
  std::vector<Neighbor> AcquireCandidates(const Graph& base, uint32_t point,
                                          DistanceOracle& oracle,
                                          SearchContext& ctx);
  std::unique_ptr<SeedProvider> PrepareSeeds();
  uint32_t PickRoot(DistanceCounter* counter) const;

  std::string name_;
  PipelineConfig config_;
  /// Root used by C5 connectivity repair; must be a search entry so that
  /// reachability-from-root implies reachability-from-seeds.
  uint32_t connect_root_ = 0;
};

}  // namespace weavess

#endif  // WEAVESS_PIPELINE_PIPELINE_H_
