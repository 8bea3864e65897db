// Live mutation under traffic (docs/MUTATION.md): a sharded index that
// accepts Add/Remove/Compact while queries run. Three cooperating layers:
//
//   * Epoch snapshots — each shard is a MutableShard publishing immutable
//     generations through one atomic pointer; queries pin per-shard
//     snapshots and never block on (or observe a torn state from) writers.
//   * Scatter-gather with tombstone enforcement — Search runs the shared
//     ScatterGather (shard/scatter_gather.h) over the pinned snapshots, its
//     legs at the same time on the shared pool; deleted ids keep routing
//     inside the graph but are filtered both at extraction and again at the
//     merge boundary.
//   * Crash-safe generational persistence — every mutation appends a
//     CRC32C-framed record to a write-ahead log before it is applied, and
//     Commit() seals a generation (kCommit frame + flush + atomic
//     generation-manifest rewrite). Open() replays the committed prefix,
//     truncates a torn tail cleanly, and rolls back past the last commit —
//     a process killed anywhere recovers to a consistent generation
//     (shard/mutation_log.h).
//
// Determinism: replay applies the same mutation sequence through the same
// per-shard RNG streams (DeriveShardSeed), and compaction rebuilds from a
// fresh seed in ascending id order, so a recovered index is bit-for-bit
// the index that committed — the property the kill-anywhere chaos suite
// asserts (tests/mutation_chaos_test.cc).
//
// Concurrency contract: Search is const and safe from any number of threads
// concurrently with any mutation. It never waits on writers or compaction:
// its only locks are the scratch pool's mutex, held for one pointer push or
// pop, and the shared thread pool's, held to hand out and join its legs
// (docs/CONCURRENCY.md). Mutators and Commit serialize on one writer mutex.
// CompactShard holds the writer mutex for the rebuild — concurrent
// *mutations* stall briefly, readers never do (they keep serving the
// pre-compaction snapshot until the atomic swap).
#ifndef WEAVESS_SHARD_MUTABLE_INDEX_H_
#define WEAVESS_SHARD_MUTABLE_INDEX_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/file_io.h"
#include "core/index.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "shard/mutable_shard.h"
#include "shard/mutation_log.h"

namespace weavess {

struct MutableIndexOptions {
  /// Vector dimensionality (must be > 0 and match any existing log).
  uint32_t dim = 0;
  /// Shard fan-out; global id `g` lives in shard `g % num_shards`.
  uint32_t num_shards = 1;
  /// HnswIndex construction knobs; each shard derives its own RNG stream
  /// from `seed` via DeriveShardSeed, exactly like the static ShardedIndex.
  uint32_t m = 8;
  uint32_t ef_construction = 60;
  uint64_t seed = 2024;
  /// Worker threads for background maintenance (CompactAllAsync).
  uint32_t num_threads = 1;
};

class MutableShardedIndex {
 public:
  /// What Open() found in the directory — exposed so recovery tests can
  /// assert exactly how much of a damaged log survived.
  struct RecoveryInfo {
    uint64_t generation = 0;
    uint32_t next_id = 0;
    /// Committed mutation records replayed into the shards.
    size_t replayed_records = 0;
    /// Valid records past the last commit, discarded by rollback.
    size_t rolled_back_records = 0;
    /// True when a torn/corrupt tail was truncated from the log.
    bool truncated_tail = false;
  };

  /// Opens (or creates) a mutable index persisted under `directory`:
  /// replays `mutations.wal`, rolls back past the last commit, rewrites the
  /// log to its committed prefix, and re-syncs `generation.manifest`. The
  /// directory must exist. A generation manifest whose geometry (dim,
  /// num_shards, seed) disagrees with `options` is kInvalidArgument — the
  /// caller is opening someone else's index.
  static StatusOr<std::unique_ptr<MutableShardedIndex>> Open(
      const std::string& directory, const MutableIndexOptions& options);

  /// Waits for background maintenance, then closes the log.
  ~MutableShardedIndex();
  MutableShardedIndex(const MutableShardedIndex&) = delete;
  MutableShardedIndex& operator=(const MutableShardedIndex&) = delete;

  // -------------------------------------------------------- mutation

  /// Logs and applies one insertion; returns the assigned global id (dense,
  /// monotonically increasing, never reused). Visible to queries
  /// immediately; durable at the next Commit().
  StatusOr<uint32_t> Add(const float* vector);

  /// Logs and applies one logical deletion. kInvalidArgument for an id that
  /// was never assigned or is already removed.
  Status Remove(uint32_t global_id);

  /// Seals everything logged so far into generation `generation() + 1`:
  /// appends the kCommit frame, flushes the log, and atomically rewrites
  /// the generation manifest. On failure the generation does not advance
  /// and recovery rolls back to the previous commit.
  Status Commit();

  // ----------------------------------------------------------- search

  /// k nearest live ids: ScatterGather with SearchSnapshot as the leg, over
  /// snapshots pinned up front, on scratch leased from the index's
  /// ScratchPool (each fanned-out leg on its own child of the leased
  /// scratch). The legs fan out over the shared pool, or run in shard order
  /// on the calling thread when it is already a task of a multi-stream
  /// batch.
  /// Never blocks on writers or compaction, at any concurrency.
  std::vector<uint32_t> Search(const float* query, const SearchParams& params,
                               QueryStats* stats = nullptr) const;

  // ------------------------------------------------------ maintenance

  /// Rebuilds one shard with tombstones physically removed and swaps it in
  /// without dropping availability: readers serve the old snapshot for the
  /// whole rebuild. Holds the writer mutex, so concurrent mutations stall
  /// until the swap. On a (injected) compaction failure the shard degrades
  /// to exact-scan serving and kUnavailable is returned; the next
  /// successful CompactShard restores graph search.
  Status CompactShard(uint32_t shard);

  /// Kicks off CompactShard for every shard on a background thread (work
  /// distributed over the maintenance pool). Idempotent while running.
  void CompactAllAsync();

  /// Joins any background maintenance started by CompactAllAsync.
  void WaitForMaintenance();

  /// Arms a one-shot compaction failure for `shard` (chaos-test seam).
  void InjectCompactionFault(uint32_t shard);

  // ------------------------------------------------------ observation

  uint32_t dim() const { return options_.dim; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// Last committed generation.
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Next global id to be assigned (== total Adds ever applied).
  uint32_t next_id() const { return next_id_.load(std::memory_order_acquire); }
  /// Currently live (inserted and not removed) vectors.
  uint32_t live_size() const {
    return live_count_.load(std::memory_order_acquire);
  }
  /// Shards serving the exact-scan fallback after a failed compaction.
  uint32_t num_degraded_shards() const;
  const RecoveryInfo& recovery_info() const { return recovery_; }
  const std::string& directory() const { return directory_; }

  /// Tags every subsequent mutation with `mutation.*` counters in
  /// `metrics` (docs/OBSERVABILITY.md): adds, removes, commits,
  /// compactions, compaction_failures, wal_records, copied_bytes. nullptr
  /// detaches.
  /// Requires mutation quiescence, like ShardedIndex::set_metrics; the
  /// registry must outlive the index.
  void set_metrics(MetricsRegistry* metrics);

  static std::string WalPath(const std::string& directory) {
    return directory + "/mutations.wal";
  }
  static std::string ManifestPath(const std::string& directory) {
    return directory + "/generation.manifest";
  }

 private:
  MutableShardedIndex(std::string directory, MutableIndexOptions options);

  uint32_t ShardOf(uint32_t global_id) const {
    return global_id % num_shards();
  }

  /// Appends one framed record to the log; must hold writer_mu_.
  Status AppendRecordLocked(const MutationRecord& record);

  /// Applies one committed record during replay (no logging, no metrics);
  /// single-threaded, called only from Open.
  Status ApplyReplayedRecord(const MutationRecord& record);

  /// Compaction body shared by the live and replay paths; must hold
  /// writer_mu_ on the live path. `log` appends the kCompact record after
  /// a successful rebuild (false during replay — the record that drove the
  /// replay is already in the log).
  Status CompactShardLocked(uint32_t shard, bool log);

  const std::string directory_;
  const MutableIndexOptions options_;
  std::vector<std::unique_ptr<MutableShard>> shards_;  // sized once at Open

  /// Serializes Add/Remove/Commit/CompactShard and the WAL writer.
  mutable std::mutex writer_mu_;
  StdioWriter wal_;                     // guarded by writer_mu_
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint32_t> next_id_{0};
  std::atomic<uint32_t> live_count_{0};
  RecoveryInfo recovery_;
  /// Reader scratch, shared by every concurrent Search.
  mutable ScratchPool scratch_pool_;

  /// Pre-resolved mutation instruments (null slots when detached);
  /// written by set_metrics under quiescence, read under writer_mu_.
  struct MutationCounters {
    Counter* adds = nullptr;
    Counter* removes = nullptr;
    Counter* commits = nullptr;
    Counter* compactions = nullptr;
    Counter* compaction_failures = nullptr;
    Counter* wal_records = nullptr;
    Counter* copied_bytes = nullptr;
  };
  MutationCounters counters_;

  /// Background maintenance: one managed thread driving the pool.
  ThreadPool pool_;
  std::mutex maintenance_mu_;
  std::thread maintenance_;
  bool maintenance_running_ = false;  // guarded by maintenance_mu_
};

}  // namespace weavess

#endif  // WEAVESS_SHARD_MUTABLE_INDEX_H_
