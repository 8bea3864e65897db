// Search-performance evaluation: the metric bundle of §5.1 — Recall@k, QPS,
// Speedup (= |S| / NDC), candidate-set size CS, query path length PL, and a
// peak-memory estimate MO — plus sweep drivers for the QPS-vs-recall and
// Speedup-vs-recall tradeoff curves of Figures 7/8.
#ifndef WEAVESS_EVAL_EVALUATOR_H_
#define WEAVESS_EVAL_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/index.h"
#include "eval/ground_truth.h"
#include "search/engine.h"
#include "search/serving.h"

namespace weavess {

struct SearchPoint {
  SearchParams params;       // the swept parameter values
  double recall = 0.0;       // mean Recall@k
  double qps = 0.0;          // queries / wall-second
  double mean_ndc = 0.0;     // mean distance evaluations per query
  double speedup = 0.0;      // |S| / mean_ndc
  double mean_hops = 0.0;    // query path length PL
  uint32_t truncated_queries = 0;  // queries stopped by a search budget
};

/// Runs every query once under `params` through `engine` (QPS reflects the
/// engine's thread count; recall/NDC/PL are thread-count invariant).
/// `dataset_size` is |S| in Speedup = |S| / NDC (§5.1): the cardinality of
/// the dataset being searched. Pass base.size(); 0 falls back to the
/// engine's graph vertex count, which coincides with |S| only for flat
/// single-layer indexes over the full dataset.
SearchPoint EvaluateSearch(const SearchEngine& engine, const Dataset& queries,
                           const GroundTruth& truth,
                           const SearchParams& params,
                           uint32_t dataset_size = 0);

/// Single-threaded convenience overload (a 1-thread engine per call).
SearchPoint EvaluateSearch(AnnIndex& index, const Dataset& queries,
                           const GroundTruth& truth,
                           const SearchParams& params,
                           uint32_t dataset_size = 0);

/// Sweeps the candidate-pool size L over `pool_sizes`, producing one curve
/// point per value (k fixed). This is the paper's tradeoff-curve driver.
/// `base_params` carries the non-swept knobs (epsilon, search budgets) into
/// every point.
std::vector<SearchPoint> SweepPoolSizes(
    const SearchEngine& engine, const Dataset& queries,
    const GroundTruth& truth, uint32_t k,
    const std::vector<uint32_t>& pool_sizes,
    const SearchParams& base_params = {}, uint32_t dataset_size = 0);

std::vector<SearchPoint> SweepPoolSizes(
    AnnIndex& index, const Dataset& queries, const GroundTruth& truth,
    uint32_t k, const std::vector<uint32_t>& pool_sizes,
    const SearchParams& base_params = {}, uint32_t dataset_size = 0);

/// One overload-aware sweep point: the recall contract is evaluated over
/// completed queries only, next to the shed/degraded accounting that shows
/// what defending it cost (docs/SERVING.md).
struct ServingPoint {
  SearchParams params;
  ServingReport report;
  /// Queries that completed (== report.completed, hoisted so consumers can
  /// tell "recall was 0.0" from "no query completed, recall is undefined"
  /// without digging into the report).
  uint64_t completed = 0;
  double recall_completed = 0.0;  // mean Recall@k over completed queries
  double p50_latency_us = 0.0;    // completed-query latency percentiles
  double p99_latency_us = 0.0;
};

/// One-line JSON object for a ServingPoint. The statistics that are
/// undefined when zero queries completed — recall_completed, p50, p99 —
/// are emitted as JSON null in that case, never a misleading 0.0 (the
/// all-rejected drain-mode ambiguity).
std::string ServingPointJson(const ServingPoint& point);

/// Serves every query once through `serving` as one burst (ServeBatch) with
/// `request` carrying the deadline and full-quality params. Queries shed by
/// admission or deadline score zero recall nowhere — they are excluded from
/// recall_completed and counted in the report instead.
ServingPoint EvaluateServing(ServingEngine& serving, const Dataset& queries,
                             const GroundTruth& truth,
                             const RequestOptions& request);

/// Smallest pool size reaching `target_recall` (the CS metric of Table 5),
/// found by sweeping `pool_sizes` in ascending order. Returns the point for
/// the first size that reaches the target, or the last point (recall
/// "ceiling") if none does — mirroring the paper's "CS+" entries.
struct CandidateSizeResult {
  SearchPoint point;
  bool reached_target = false;
};
CandidateSizeResult FindCandidateSize(AnnIndex& index, const Dataset& queries,
                                      const GroundTruth& truth, uint32_t k,
                                      double target_recall,
                                      const std::vector<uint32_t>& pool_sizes);

/// One row of a shard-count sweep (bench_sharding, `weavess_cli eval
/// --shard-sweep`): how partitioned build and scatter-gather search trade
/// off as the shard count grows (docs/SHARDING.md).
struct ShardingPoint {
  uint32_t num_shards = 0;
  /// Fixed-params evaluation of the sharded index (recall/QPS/NDC/PL)
  /// through a single-threaded engine: one query stream, whose legs fan out
  /// over the shared pool.
  SearchPoint search;
  /// QPS of the same queries through a 4-thread SearchBatch: four query
  /// streams, each running its legs inline (docs/CONCURRENCY.md).
  double qps_4t = 0.0;
  double build_seconds = 0.0;
  uint64_t build_distance_evals = 0;
  size_t index_bytes = 0;
};

/// Builds "Sharded:<algorithm>" once per entry of `shard_counts` (same
/// options apart from num_shards) and evaluates each at fixed `params`
/// through a single-threaded engine, then times the same queries through a
/// 4-thread one. `algorithm` is a base registry name; a shard count of 1 is
/// the unsharded baseline in the same harness.
std::vector<ShardingPoint> EvaluateSharding(
    const std::string& algorithm, const AlgorithmOptions& options,
    const Dataset& base, const Dataset& queries, const GroundTruth& truth,
    const std::vector<uint32_t>& shard_counts, const SearchParams& params);

/// Peak-memory estimate during search (MO): vectors + index + per-query
/// scratch. A deliberate estimate, not an RSS probe — it is reproducible
/// and matches what the paper's MO column tracks across algorithms.
size_t EstimateSearchMemory(const AnnIndex& index, const Dataset& base,
                            const SearchParams& params);

/// Default pool-size ladder used by benches (16 .. 4096, roughly log-spaced).
const std::vector<uint32_t>& DefaultPoolLadder();

}  // namespace weavess

#endif  // WEAVESS_EVAL_EVALUATOR_H_
