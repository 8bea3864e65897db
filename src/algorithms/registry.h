// String-keyed factory over every algorithm in the survey (§3.2): the 13
// representative algorithms (with both NGT and SPTAG variants), k-DR from
// Appendix N, and the optimized algorithm OA from §6.
#ifndef WEAVESS_ALGORITHMS_REGISTRY_H_
#define WEAVESS_ALGORITHMS_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/index.h"

namespace weavess {

/// Construction-side knobs shared across algorithms. Each algorithm maps
/// these onto its own parameters (Appendix H); defaults are tuned for the
/// laptop-scale stand-in datasets used by the benchmarks.
struct AlgorithmOptions {
  /// K of the underlying KNNG / NN-Descent pools.
  uint32_t knng_degree = 25;
  /// Degree bound after neighbor selection (R).
  uint32_t max_degree = 30;
  /// Candidate-set size during construction (L / C / efConstruction).
  uint32_t build_pool = 100;
  /// NN-Descent refinement rounds (`iter`).
  uint32_t nn_descent_iters = 8;
  /// Number of auxiliary trees (KD-forest size).
  uint32_t num_trees = 4;
  /// Entry count for random / fixed seed strategies.
  uint32_t num_seeds = 10;
  /// Vamana's second-pass α.
  float alpha = 2.0f;
  /// NSSG's minimum inter-neighbor angle θ (degrees).
  float angle_degrees = 60.0f;
  /// Construction threads (exact-KNNG init, NN-Descent local joins, HNSW
  /// batch insertion, refinement pass, SQ8 encoding). Every parallel build
  /// stage is bit-for-bit thread-count invariant — adjacency lists, entry
  /// points, and distance_evals are identical at any value
  /// (docs/CONCURRENCY.md).
  /// For "Sharded:<algo>" this bounds both the parallel per-shard builds
  /// and the threads of each inner build.
  uint32_t build_threads = 1;
  uint64_t seed = 2024;
  /// "Sharded:<algo>" only: shard count (>= 1) and partitioner spelling
  /// ("random" / "kmeans", see shard/partitioner.h). Ignored by base
  /// algorithms.
  uint32_t num_shards = 4;
  std::string partitioner = "random";
};

/// Canonical algorithm names, in the paper's presentation order:
/// KGraph, NGT-panng, NGT-onng, SPTAG-KDT, SPTAG-BKT, NSW, IEH, FANNG,
/// HNSW, EFANNA, DPG, NSG, HCNNG, Vamana, NSSG, k-DR, OA — plus
/// Dynamic:HNSW, the incrementally built mutable substrate of
/// docs/MUTATION.md served through the same immutable-index facade.
const std::vector<std::string>& AlgorithmNames();

/// Creates an unbuilt index by canonical name; WEAVESS_CHECK-fails on an
/// unknown name (use IsKnownAlgorithm to probe). "Sharded:<name>" wraps a
/// base algorithm in the partitioned scatter-gather index of
/// shard/sharded_index.h (options.num_shards / options.partitioner);
/// "SQ8:<name>" wraps one in the two-stage quantized index of
/// quant/quantized_index.h (traverse on SQ8 codes, rescore with exact
/// floats — docs/QUANTIZATION.md). Neither wrapper nests, so the inner
/// name must be a base name.
std::unique_ptr<AnnIndex> CreateAlgorithm(
    const std::string& name, const AlgorithmOptions& options = {});

/// True for every base name in AlgorithmNames() plus their "Sharded:<name>"
/// and "SQ8:<name>" wrappers.
bool IsKnownAlgorithm(const std::string& name);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_REGISTRY_H_
