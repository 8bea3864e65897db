// Sharded index: partition the dataset (shard/partitioner.h), build one
// inner index per shard in parallel, and serve queries by deterministic
// scatter-gather (docs/SHARDING.md).
//
// Determinism contract (the PR 2 invariants, extended to sharding):
//   * Build — each shard builds from its own subset with its own derived
//     seed (DeriveShardSeed(base_seed, shard)), and a shard's build is
//     thread-count invariant, so the composed index is bit-for-bit
//     identical at any thread count and for any shard-build completion
//     order.
//   * Search — one ScatterGather (shard/scatter_gather.h): the shards'
//     legs run at the same time on the shared pool, each on its own child
//     scratch, and are gathered in shard order, so results, stats, traces
//     and failures are a pure function of (index, query bytes, params)
//     whatever the schedule.
//
// Degraded shards: a shard whose graph file fails its checksummed load
// keeps serving via an exact scan over its own rows while every other shard
// runs graph search — corruption costs one shard's speed, never the whole
// index's availability. RepairShard rebuilds the shard from the
// manifest-recorded options, reproducing the original build bit-for-bit.
#ifndef WEAVESS_SHARD_SHARDED_INDEX_H_
#define WEAVESS_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/index.h"
#include "core/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "shard/manifest.h"
#include "shard/partitioner.h"
#include "shard/scatter_gather.h"

namespace weavess {

/// Shards with fewer rows than this (the library-wide `data.size() >= 2`
/// graph-construction floor) never get an inner index: they serve exact
/// scans by design, with an OK status — a policy, not damage. Arises only
/// when num_shards approaches the row count.
inline constexpr uint32_t kMinGraphShardRows = 2;

class ShardedIndex final : public AnnIndex {
 public:
  /// An unbuilt sharded index over `options.num_shards` shards of inner
  /// `algorithm` (a base registry name; sharding does not nest). The
  /// partitioner is options.partitioner; options.build_threads bounds how
  /// many shards build at once and the threads of each shard's build;
  /// options.seed is the base seed.
  ShardedIndex(std::string algorithm, AlgorithmOptions options);

  /// Partitions `data`, then builds every shard on a thread pool. `data`
  /// must outlive the index.
  void Build(const Dataset& data) override;

  /// ScatterGather over the shards. Each leg searches its shard on
  /// scratch.legs[s] and records the shard's trace events (into its own
  /// sink, replayed in shard order) and shard.<s>.* counters. The legs fan
  /// out over the shared pool unless the caller is already a task of a
  /// multi-stream batch (ThreadPool::InParallelTask).
  std::vector<ScoredId> SearchScored(
      SearchScratch& scratch, const float* query, const SearchParams& params,
      QueryStats* stats = nullptr) const override;

  /// The composed graph in global ids: shard adjacency translated through
  /// each shard's id map, rebuilt whole after Build, Load and RepairShard.
  /// Degraded and tiny shards contribute isolated vertices.
  const CsrGraph& graph() const override { return combined_; }

  size_t IndexMemoryBytes() const override;
  BuildStats build_stats() const override { return build_stats_; }
  std::string name() const override { return "Sharded:" + algorithm_; }

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  const std::string& algorithm() const { return algorithm_; }
  const std::vector<uint32_t>& shard_ids(uint32_t shard) const {
    return shards_[shard].ids;
  }
  /// OK for a shard serving graph search; the load failure for one serving
  /// the exact-scan fallback.
  const Status& shard_status(uint32_t shard) const {
    return shards_[shard].status;
  }
  /// Shards currently serving the exact-scan fallback. Safe to poll from
  /// serving threads (atomic).
  uint32_t num_degraded_shards() const {
    return degraded_count_.load(std::memory_order_acquire);
  }

  /// Generation number stamped into Save()'s manifest and restored by
  /// Load() (docs/MUTATION.md): 0 for a plain static build, the committed
  /// generation when the save snapshots a live mutable index.
  uint64_t generation() const { return generation_; }
  void set_generation(uint64_t generation) { generation_ = generation; }

  /// Writes `prefix`.manifest plus one `prefix`.shardN.wvs graph file per
  /// shard (core/graph_io.h format). Every shard must be healthy —
  /// persisting an exact-scan placeholder would launder a degraded shard
  /// into a clean-looking file (kInvalidArgument instead). Non-const: the
  /// written files become each shard's backing path, so a later
  /// RepairShard can rewrite them.
  Status Save(const std::string& prefix);

  /// Opens a saved sharded index over `data` (the same dataset it was
  /// built on). A bad manifest — or a vertex-count mismatch with `data` —
  /// fails outright. A shard graph file that fails its load does NOT: that
  /// shard comes up degraded (exact scan) with shard_status naming the
  /// shard id and path, and everything else serves graph search.
  static StatusOr<std::unique_ptr<ShardedIndex>> Load(
      const std::string& manifest_path, const Dataset& data);

  /// Rebuilds one shard from the recorded build options — bit-for-bit the
  /// original graph — installs it, and (when the shard has a backing file)
  /// rewrites the file. Requires quiescence: no concurrent SearchWith
  /// while a repair runs (the serving layer's synchronous ServeBatch makes
  /// between-batch repairs quiescent by construction).
  Status RepairShard(uint32_t shard);

  /// Tags every subsequent SearchWith with per-shard scatter-gather stats:
  /// `shard.<s>.{searches,distance_evals,exact_scans,truncated}` counters in
  /// `metrics` (docs/OBSERVABILITY.md). Call after Build or Load — the
  /// counters are resolved per shard once, here, not per query. nullptr
  /// detaches. Requires quiescence, like RepairShard; the registry must
  /// outlive the index.
  void set_metrics(MetricsRegistry* metrics);

 private:
  struct Shard {
    std::vector<uint32_t> ids;        // local vertex -> global row id
    Dataset data;                     // the shard's rows, in ids order
    std::unique_ptr<AnnIndex> index;  // null => exact scan (tiny/degraded)
    Status status;                    // why degraded (OK when healthy)
    std::string path;                 // backing graph file, may be empty

    /// Below the graph-construction floor: exact scan by design, never
    /// counted degraded, nothing to persist or repair.
    bool tiny() const { return ids.size() < kMinGraphShardRows; }
  };

  ShardedIndex() = default;  // Load() assembles the members itself

  /// Per-shard build options: the index's options (build_threads
  /// included) with the shard's derived seed.
  AlgorithmOptions ShardBuildOptions(uint32_t shard) const;

  /// Rebuilds combined_ from every shard's index.
  void Compose();

  void RecountDegraded();

  /// Pre-resolved `shard.<s>.*` instruments, one slot per shard (registry
  /// pointers are stable for its lifetime, so SearchWith never does a name
  /// lookup on the query path).
  struct ShardCounters {
    Counter* searches;
    Counter* distance_evals;
    Counter* exact_scans;
    Counter* truncated;
  };

  std::string algorithm_;
  AlgorithmOptions options_;
  PartitionerKind partitioner_ = PartitionerKind::kRandom;
  std::vector<Shard> shards_;  // sized once; Shard addresses are stable
  CsrGraph combined_;
  BuildStats build_stats_;
  uint64_t generation_ = 0;
  std::atomic<uint32_t> degraded_count_{0};
  std::vector<ShardCounters> shard_counters_;  // empty until set_metrics
};

}  // namespace weavess

#endif  // WEAVESS_SHARD_SHARDED_INDEX_H_
