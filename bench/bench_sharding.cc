// Sharding sweep: recall / QPS / NDC as the shard count grows, for both
// partitioners (docs/SHARDING.md). Scatter-gather visits every shard, so
// NDC rises roughly with the shard count while per-shard build cost falls —
// this bench puts numbers on that tradeoff, with shard count 1 as the
// unsharded baseline in the same harness.
//
// Each sweep point prints a table row and emits one machine-readable JSON
// line:
//   {"bench":"sharding","algo":...,"partitioner":...,"num_shards":...,
//    "recall":...,"qps":...,"qps_4t":...,"ndc":...,"path_len":...,
//    "build_seconds":...,"index_mb":...}
// `qps` is one query stream (a 1-thread engine, whose sharded queries fan
// their legs out over the shared pool); `qps_4t` is a 4-thread SearchBatch
// over the same queries, four streams that each run their legs inline.
// After each partitioner sweep the largest shard count is re-run with the
// metrics registry attached and one snapshot line is emitted
// (docs/OBSERVABILITY.md):
//   {"bench":"sharding_metrics","algo":...,"partitioner":...,
//    "num_shards":...,"snapshot":{"snapshot_version":...,...}}
//
// Knobs: WEAVESS_SCALE, WEAVESS_DATASETS, WEAVESS_ALGOS (bench_common.h),
//   WEAVESS_SHARDS  comma-separated shard-count ladder (default 1,2,4,8)
//   WEAVESS_POOL    fixed candidate-pool size L (default 80)
#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "obs/metrics.h"
#include "search/engine.h"
#include "shard/partitioner.h"
#include "shard/sharded_index.h"

namespace weavess::bench {
namespace {

std::vector<uint32_t> ShardLadder() {
  const char* value = std::getenv("WEAVESS_SHARDS");
  std::vector<uint32_t> ladder;
  if (value != nullptr) {
    for (const std::string& token : SplitCsv(value)) {
      const unsigned long parsed = std::strtoul(token.c_str(), nullptr, 10);
      if (parsed > 0) ladder.push_back(static_cast<uint32_t>(parsed));
    }
  }
  if (ladder.empty()) ladder = {1, 2, 4, 8};
  return ladder;
}

void Run() {
  Banner("Sharding: recall/QPS/NDC vs shard count",
         "Partitioned build + deterministic scatter-gather search at a "
         "fixed pool size; shard count 1 is the unsharded baseline "
         "(docs/SHARDING.md).");
  const std::vector<uint32_t> shard_counts = ShardLadder();
  const char* pool_env = std::getenv("WEAVESS_POOL");
  const uint32_t pool =
      pool_env != nullptr && std::atoi(pool_env) > 0
          ? static_cast<uint32_t>(std::atoi(pool_env))
          : 80;

  const std::vector<std::string> datasets = SelectedDatasets();
  // One dataset by default: the sweep is about partitioning, not data shape.
  Workload workload = MakeStandIn(datasets.front(), EnvScale());
  const GroundTruth truth =
      ComputeGroundTruth(workload.base, workload.queries, 10);
  SearchParams params;
  params.k = 10;
  params.pool_size = pool;

  for (const std::string& algo : SelectedAlgorithms({"HNSW"})) {
    for (PartitionerKind kind :
         {PartitionerKind::kRandom, PartitionerKind::kKMeans}) {
      AlgorithmOptions options = DefaultOptions();
      options.partitioner = PartitionerName(kind);
      std::printf("\n%s / Sharded:%s, %s partitioner, L=%u (n=%u)\n",
                  datasets.front().c_str(), algo.c_str(),
                  options.partitioner.c_str(), pool, workload.base.size());
      TablePrinter table({"Shards", "Recall@10", "QPS", "QPS4T", "NDC", "PL",
                          "BuildS", "IndexMB"});
      for (const ShardingPoint& point :
           EvaluateSharding(algo, options, workload.base, workload.queries,
                            truth, shard_counts, params)) {
        const double index_mb =
            static_cast<double>(point.index_bytes) / (1024.0 * 1024.0);
        table.AddRow({TablePrinter::Int(point.num_shards),
                      TablePrinter::Fixed(point.search.recall, 3),
                      TablePrinter::Fixed(point.search.qps, 0),
                      TablePrinter::Fixed(point.qps_4t, 0),
                      TablePrinter::Fixed(point.search.mean_ndc, 0),
                      TablePrinter::Fixed(point.search.mean_hops, 0),
                      TablePrinter::Fixed(point.build_seconds, 2),
                      TablePrinter::Fixed(index_mb, 2)});
        std::printf(
            "{\"bench\":\"sharding\",\"algo\":\"%s\",\"partitioner\":\"%s\","
            "\"num_shards\":%u,\"recall\":%.4f,\"qps\":%.1f,\"qps_4t\":%.1f,"
            "\"ndc\":%.1f,\"path_len\":%.1f,\"build_seconds\":%.3f,"
            "\"index_mb\":%.2f}\n",
            algo.c_str(), options.partitioner.c_str(), point.num_shards,
            point.search.recall, point.search.qps, point.qps_4t,
            point.search.mean_ndc, point.search.mean_hops, point.build_seconds,
            index_mb);
      }
      table.Print();

      // One metrics-tagged rerun at the largest shard count: a batch
      // through a registry-attached engine populates the search.* totals
      // and the per-shard shard.<s>.* scatter-gather counters.
      const uint32_t snapshot_shards = shard_counts.back();
      AlgorithmOptions snap_options = options;
      snap_options.num_shards = snapshot_shards;
      ShardedIndex sharded(algo, snap_options);
      sharded.Build(workload.base);
      MetricsRegistry registry;
      sharded.set_metrics(&registry);
      const SearchEngine engine(sharded, 1, &registry);
      engine.SearchBatch(workload.queries, params);
      std::printf(
          "{\"bench\":\"sharding_metrics\",\"algo\":\"%s\","
          "\"partitioner\":\"%s\",\"num_shards\":%u,\"snapshot\":%s}\n",
          algo.c_str(), options.partitioner.c_str(), snapshot_shards,
          registry.ToJson().c_str());
    }
  }
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
