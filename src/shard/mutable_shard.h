// One shard of the mutable serving path (docs/MUTATION.md): an HnswIndex
// grown by Add and published to readers through epoch snapshots. Writers
// never modify the structure readers are searching: the shard's writer
// mutates its own working index and, after each write, publishes a copy
// of it with one atomic pointer store. The copy shares every unchanged
// page with the working index and with earlier snapshots
// (algorithms/hnsw.h), so a write copies only the pages it touches plus
// the page tables, never the whole shard. A query pins a snapshot with one
// atomic load and keeps it alive via shared_ptr for as long as the search
// runs, so readers are wait-free with respect to writers and a pinned
// snapshot keeps resolving pre-compaction ids even while Compact() swaps
// the shard underneath it.
//
// Concurrency contract: Pin() and the snapshot accessors are safe from any
// thread at any time. The mutators (Add/Remove/Compact/InjectCompactionFault)
// are writer-side: the owning MutableShardedIndex serializes them under its
// writer mutex, so MutableShard itself keeps no writer lock.
#ifndef WEAVESS_SHARD_MUTABLE_SHARD_H_
#define WEAVESS_SHARD_MUTABLE_SHARD_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "algorithms/hnsw.h"
#include "core/status.h"
#include "core/topk_merge.h"

namespace weavess {

class MutableShard {
 public:
  /// An immutable generation of the shard. Readers hold one by shared_ptr;
  /// nothing in it changes after publication.
  struct Snapshot {
    /// The searchable structure (never null; may be empty). Vertex labels
    /// are global ids: index->Label(l) is the global id of local vertex l
    /// in *this* snapshot, across compaction remaps.
    std::shared_ptr<const HnswIndex> index;
    /// Monotonic per-shard publication count (0 = the empty initial state).
    uint64_t version = 0;
    /// True after a failed compaction: the structure is intact but its
    /// quality is suspect, so searches fall back to an exact scan over the
    /// shard's live vectors until the next successful Compact().
    bool degraded = false;
  };

  MutableShard(uint32_t dim, const HnswIndex::Params& params);

  /// Pins the current snapshot: one atomic load, never blocks, and the
  /// returned snapshot stays valid (and unchanged) for as long as the
  /// caller holds it — regardless of concurrent mutation or compaction.
  std::shared_ptr<const Snapshot> Pin() const;

  // ------------------------------------------------------- writer side

  /// Inserts `vector` as global id `global_id` and publishes the new
  /// snapshot. The id must not already live in this shard.
  void Add(uint32_t global_id, const float* vector);

  /// Tombstones `global_id` and publishes. Returns false (and publishes
  /// nothing) when the id is unknown to this shard or already removed.
  bool Remove(uint32_t global_id);

  /// Writer-side membership test (live ids only).
  bool Contains(uint32_t global_id) const;

  /// Rebuilds the shard with tombstones physically removed and publishes
  /// the compacted snapshot. Readers keep serving the old snapshot for the
  /// whole rebuild; the swap is the usual single pointer store. On an
  /// injected fault the shard publishes a degraded snapshot (same
  /// structure, exact-scan search mode) and returns kUnavailable; the next
  /// successful Compact clears the degradation.
  Status Compact();

  /// Arms a one-shot failure for the next Compact() (the chaos suite's
  /// compaction-crash seam).
  void InjectCompactionFault() { fault_armed_ = true; }

  // ------------------------------------------------------ observation

  uint32_t dim() const { return writer_.dim(); }
  uint64_t version() const { return Pin()->version; }
  bool degraded() const { return Pin()->degraded; }
  uint32_t live_size() const { return Pin()->index->live_size(); }
  /// Writer-side: bytes copied so far to publish this shard's writes
  /// (HnswIndex::copied_bytes of the working index).
  uint64_t copied_bytes() const { return writer_.copied_bytes(); }

 private:
  /// Publishes a page-sharing copy of the working index.
  void Publish(bool degraded);

  /// The writer's working index. Each Publish shares its pages with the
  /// new snapshot, so its next write copies what it touches; it also owns
  /// the construction scratch, which thereby outlives every snapshot.
  HnswIndex writer_;
  /// Read via std::atomic_load, replaced via std::atomic_store: the epoch
  /// publication point.
  std::shared_ptr<const Snapshot> published_;
  /// Writer-only reverse map over live ids (tombstoned ids are erased so a
  /// double Remove is caught here, not in the index).
  std::unordered_map<uint32_t, uint32_t> global_to_local_;
  /// Writer-only publication counter behind Snapshot::version.
  uint64_t version_ = 0;
  /// Writer-only copy of the published snapshot's degraded flag.
  bool degraded_ = false;
  bool fault_armed_ = false;
};

/// Searches one pinned snapshot and returns up to params.k live candidates
/// as (distance, global id), sorted ascending — the per-shard leg of the
/// mutable scatter-gather. A degraded snapshot is served by an exact scan
/// over its live vectors. Tombstoned ids never appear in the result: the
/// graph search filters them at extraction and this wrapper re-checks at
/// the merge boundary.
std::vector<ScoredId> SearchSnapshot(const MutableShard::Snapshot& snapshot,
                                     SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats = nullptr);

}  // namespace weavess

#endif  // WEAVESS_SHARD_MUTABLE_SHARD_H_
