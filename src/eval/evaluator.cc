#include "eval/evaluator.h"

#include <algorithm>
#include <cstdio>

#include "algorithms/registry.h"
#include "core/check.h"
#include "core/timer.h"
#include "obs/metrics.h"

namespace weavess {

ServingPoint EvaluateServing(ServingEngine& serving, const Dataset& queries,
                             const GroundTruth& truth,
                             const RequestOptions& request) {
  WEAVESS_CHECK(queries.size() == truth.size());
  ServingPoint point;
  point.params = request.params;
  const ServeBatchResult batch = serving.ServeBatch(queries, request);
  point.report = batch.report;
  double recall_sum = 0.0;
  std::vector<uint64_t> latencies;
  latencies.reserve(batch.outcomes.size());
  for (uint32_t q = 0; q < queries.size(); ++q) {
    const ServeOutcome& out = batch.outcomes[q];
    if (!out.status.ok()) continue;
    recall_sum += Recall(out.ids, truth[q], request.params.k);
    latencies.push_back(out.latency_us);
  }
  point.completed = batch.report.completed;
  WEAVESS_CHECK(point.completed == latencies.size());
  if (!latencies.empty()) {
    point.recall_completed = recall_sum / static_cast<double>(latencies.size());
    std::sort(latencies.begin(), latencies.end());
    point.p50_latency_us = NearestRankPercentile(latencies, 0.5);
    point.p99_latency_us = NearestRankPercentile(latencies, 0.99);
  }
  return point;
}

std::string ServingPointJson(const ServingPoint& point) {
  std::string out = "{\"pool_size\":" + std::to_string(point.params.pool_size);
  out += ",\"submitted\":" + std::to_string(point.report.submitted);
  out += ",\"completed\":" + std::to_string(point.completed);
  out += ",\"shed_overload\":" + std::to_string(point.report.shed_overload);
  out += ",\"shed_deadline\":" + std::to_string(point.report.shed_deadline);
  out += ",\"failed\":" + std::to_string(point.report.failed);
  out += ",\"degraded\":" + std::to_string(point.report.degraded);
  out += ",\"max_tier\":" + std::to_string(point.report.max_tier);
  if (point.completed == 0) {
    // Undefined, not zero: nothing completed, so there is no recall or
    // latency distribution to report.
    out += ",\"recall_completed\":null,\"p50_latency_us\":null,"
           "\"p99_latency_us\":null}";
  } else {
    char buffer[128];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"recall_completed\":%.6f,\"p50_latency_us\":%.1f,"
                  "\"p99_latency_us\":%.1f}",
                  point.recall_completed, point.p50_latency_us,
                  point.p99_latency_us);
    out += buffer;
  }
  return out;
}

SearchPoint EvaluateSearch(const SearchEngine& engine, const Dataset& queries,
                           const GroundTruth& truth,
                           const SearchParams& params,
                           uint32_t dataset_size) {
  WEAVESS_CHECK(queries.size() == truth.size());
  WEAVESS_CHECK(queries.size() > 0);
  SearchPoint point;
  point.params = params;
  const BatchResult batch = engine.SearchBatch(queries, params);
  double recall_sum = 0.0;
  for (uint32_t q = 0; q < queries.size(); ++q) {
    recall_sum += Recall(batch.ids[q], truth[q], params.k);
  }
  const double n = queries.size();
  point.recall = recall_sum / n;
  point.qps = batch.totals.wall_seconds > 0.0
                  ? n / batch.totals.wall_seconds
                  : 0.0;
  point.mean_ndc = static_cast<double>(batch.totals.distance_evals) / n;
  // Speedup = |S| / NDC (§5.1): the numerator is the dataset cardinality —
  // the cost of the linear scan being beaten — not the graph's vertex
  // count, which can diverge from |S| for layered or composed graphs.
  const uint32_t cardinality =
      dataset_size > 0 ? dataset_size : engine.index().graph().size();
  point.speedup = point.mean_ndc > 0.0
                      ? static_cast<double>(cardinality) / point.mean_ndc
                      : 0.0;
  point.mean_hops = static_cast<double>(batch.totals.hops) / n;
  point.truncated_queries = batch.totals.truncated_queries;
  return point;
}

SearchPoint EvaluateSearch(AnnIndex& index, const Dataset& queries,
                           const GroundTruth& truth,
                           const SearchParams& params,
                           uint32_t dataset_size) {
  const SearchEngine engine(index, /*num_threads=*/1);
  return EvaluateSearch(engine, queries, truth, params, dataset_size);
}

std::vector<SearchPoint> SweepPoolSizes(
    const SearchEngine& engine, const Dataset& queries,
    const GroundTruth& truth, uint32_t k,
    const std::vector<uint32_t>& pool_sizes,
    const SearchParams& base_params, uint32_t dataset_size) {
  std::vector<SearchPoint> points;
  points.reserve(pool_sizes.size());
  for (uint32_t pool : pool_sizes) {
    SearchParams params = base_params;
    params.k = k;
    params.pool_size = pool;
    points.push_back(
        EvaluateSearch(engine, queries, truth, params, dataset_size));
  }
  return points;
}

std::vector<SearchPoint> SweepPoolSizes(
    AnnIndex& index, const Dataset& queries, const GroundTruth& truth,
    uint32_t k, const std::vector<uint32_t>& pool_sizes,
    const SearchParams& base_params, uint32_t dataset_size) {
  const SearchEngine engine(index, /*num_threads=*/1);
  return SweepPoolSizes(engine, queries, truth, k, pool_sizes, base_params,
                        dataset_size);
}

CandidateSizeResult FindCandidateSize(
    AnnIndex& index, const Dataset& queries, const GroundTruth& truth,
    uint32_t k, double target_recall,
    const std::vector<uint32_t>& pool_sizes) {
  CandidateSizeResult result;
  for (uint32_t pool : pool_sizes) {
    SearchParams params;
    params.k = k;
    params.pool_size = pool;
    result.point = EvaluateSearch(index, queries, truth, params);
    if (result.point.recall >= target_recall) {
      result.reached_target = true;
      break;
    }
  }
  return result;
}

std::vector<ShardingPoint> EvaluateSharding(
    const std::string& algorithm, const AlgorithmOptions& options,
    const Dataset& base, const Dataset& queries, const GroundTruth& truth,
    const std::vector<uint32_t>& shard_counts, const SearchParams& params) {
  std::vector<ShardingPoint> points;
  points.reserve(shard_counts.size());
  for (uint32_t num_shards : shard_counts) {
    AlgorithmOptions shard_options = options;
    shard_options.num_shards = num_shards;
    auto index = CreateAlgorithm("Sharded:" + algorithm, shard_options);
    index->Build(base);
    ShardingPoint point;
    point.num_shards = num_shards;
    point.build_seconds = index->build_stats().seconds;
    point.build_distance_evals = index->build_stats().distance_evals;
    point.index_bytes = index->IndexMemoryBytes();
    point.search = EvaluateSearch(*index, queries, truth, params,
                                  base.size());
    const SearchEngine four_streams(*index, /*num_threads=*/4);
    point.qps_4t =
        EvaluateSearch(four_streams, queries, truth, params, base.size()).qps;
    points.push_back(std::move(point));
  }
  return points;
}

size_t EstimateSearchMemory(const AnnIndex& index, const Dataset& base,
                            const SearchParams& params) {
  // Vectors + graph/aux index + visited stamps + candidate pool.
  return base.MemoryBytes() + index.IndexMemoryBytes() +
         base.size() * sizeof(uint32_t) +
         static_cast<size_t>(params.pool_size) * sizeof(uint64_t);
}

const std::vector<uint32_t>& DefaultPoolLadder() {
  static const std::vector<uint32_t>* const kLadder =
      new std::vector<uint32_t>{10,  16,  24,  36,  54,   81,   120,  180,
                                270, 400, 600, 900, 1350, 2000, 3000, 4500};
  return *kLadder;
}

}  // namespace weavess
