// Dynamic HNSW: incremental insertion and logical deletion over a growing
// vector store — the paper's §6 "Challenges" calls real-time graph-index
// update a major open problem; HNSW's increment construction strategy is
// the natural substrate for it. Deletions are handled by tombstoning:
// deleted vertices still route (their edges stay navigable) but never
// enter result sets; Compact() rebuilds to reclaim them.
//
// Storage is a table of fixed-size pages, each covering kPageSize
// consecutive vertices and held by shared_ptr<const ...>. A graph page
// holds its vertices' fixed-slot level-0 adjacency, their upper-level
// lists, tombstone bits, levels and labels; a row page holds their
// 64-byte-aligned vector rows. Copying an index copies only the two page
// tables, so a copy shares every page with its source. Each index carries
// a stamp, and a page is written in place only by the index whose stamp it
// bears; any other write first copies the page and stamps the copy.
// Copying re-stamps both sides, so a page is never written again once two
// indexes can see it. An Add therefore copies the tail pages plus the
// pages of the neighbours Connect rewires; a Remove copies one page.
//
// Concurrency contract: mutation (Add/Remove/Compact) and copying require
// exclusive access, but SearchWith is const and touches no index state
// beyond reads, so any number of threads may search one *unchanging*
// DynamicHnsw concurrently with caller-owned scratch. The mutable serving
// layer (shard/mutable_shard.h) builds epoch snapshots on top of this: its
// writer mutates one working index and publishes a page-sharing copy of it
// after each write, while readers keep searching earlier copies.
#ifndef WEAVESS_ALGORITHMS_DYNAMIC_HNSW_H_
#define WEAVESS_ALGORITHMS_DYNAMIC_HNSW_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algorithms/registry.h"
#include "core/aligned.h"
#include "core/budget.h"
#include "core/dataset.h"
#include "core/graph.h"
#include "core/index.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/search_context.h"
#include "core/visited_list.h"

namespace weavess {

class DynamicHnsw {
 public:
  struct Params {
    uint32_t m = 15;                // degree bound above layer 0 (M0 = 2M)
    uint32_t ef_construction = 100;
    uint64_t seed = 2024;
  };

  /// An empty index over `dim`-dimensional vectors.
  DynamicHnsw(uint32_t dim, const Params& params);

  /// A copy that shares every page with `other` (only the page tables are
  /// copied). Afterwards each side copies a page before its first write to
  /// it, so the two evolve independently. The copy carries the same RNG
  /// state, so interleaving the same future Adds into original and copy
  /// produces identical structures — the property the epoch publication
  /// protocol relies on. Construction scratch is not copied. Copying
  /// re-stamps `other` (and counts the tables into its copied_bytes()), so
  /// like a mutation it needs exclusive access to `other`.
  DynamicHnsw(const DynamicHnsw& other);
  DynamicHnsw& operator=(const DynamicHnsw&) = delete;
  DynamicHnsw(DynamicHnsw&&) = default;
  DynamicHnsw& operator=(DynamicHnsw&&) = default;

  /// Inserts a vector; returns its id (ids are dense, insertion-ordered,
  /// and stable — deletion does not reassign them). The vertex's label is
  /// its id.
  uint32_t Add(const float* vector) { return Add(vector, num_points_); }

  /// Inserts a vector carrying `label`, a caller-chosen tag that Compact()
  /// keeps with the vector (the mutable shards store global ids there).
  uint32_t Add(const float* vector, uint32_t label);

  /// Logically deletes id (idempotent). Deleted ids keep routing but are
  /// excluded from results. WEAVESS_CHECK-fails on out-of-range ids.
  void Remove(uint32_t id);

  bool IsDeleted(uint32_t id) const;

  /// k nearest *live* ids. Returns empty when the index is empty or all
  /// points are deleted. Convenience wrapper over SearchWith using scratch
  /// owned by the index; not safe to call concurrently on one instance.
  std::vector<uint32_t> Search(const float* query, const SearchParams& params,
                               QueryStats* stats = nullptr);

  /// Thread-compatible search against a fixed structure: const, uses only
  /// the caller's scratch (visited stamps sized to at least size()
  /// vertices). Honors SearchParams budgets including params.clock, so
  /// time-budget truncation is deterministic under VirtualClock exactly
  /// like the static routers.
  std::vector<uint32_t> SearchWith(SearchScratch& scratch, const float* query,
                                   const SearchParams& params,
                                   QueryStats* stats = nullptr) const;

  /// Stored vector for id (valid for dim() floats, 64-byte aligned).
  const float* Vector(uint32_t id) const;

  /// Label id was added with (survives Compact()).
  uint32_t Label(uint32_t id) const;

  /// Rebuilds the structure with tombstones physically removed. Returns
  /// the mapping new_id -> old_id. Invalidates all previous ids; labels
  /// travel with their vectors. The rebuild re-adds survivors in ascending
  /// old-id order with a fresh RNG seeded from Params::seed, so compacting
  /// equal states yields bit-identical structures (the WAL replay
  /// determinism contract of docs/MUTATION.md).
  std::vector<uint32_t> Compact();

  uint32_t size() const { return num_points_; }
  uint32_t live_size() const { return num_points_ - num_deleted_; }
  uint32_t num_deleted() const { return num_deleted_; }
  uint32_t dim() const { return dim_; }
  /// Top level of id (it has adjacency at levels 0..Level(id)).
  uint32_t Level(uint32_t id) const;
  /// Adjacency of id at `level` (<= Level(id)), in insertion order. Valid
  /// until the next mutation of this index.
  std::span<const uint32_t> Neighbors(uint32_t id, uint32_t level) const;
  uint32_t entry_point() const { return entry_point_; }
  uint32_t max_level() const { return max_level_; }
  /// Distance evaluations spent by construction so far (Add/Compact).
  uint64_t build_distance_evals() const { return build_evals_; }
  /// Bytes copied so far to write into pages shared with a copy, plus the
  /// page tables handed to copies of this index. Deterministic: it depends
  /// only on the sequence of mutations and copies.
  uint64_t copied_bytes() const { return copied_bytes_; }
  size_t IndexMemoryBytes() const;

 private:
  // Vertices per storage page: the unit a write copies.
  static constexpr uint32_t kPageBits = 6;
  static constexpr uint32_t kPageSize = 1u << kPageBits;

  // Graph state of kPageSize consecutive vertices. Every list is
  // count-prefixed in fixed slots: level 0 has 2m slots per vertex in
  // `base`; a vertex above level 0 owns `level` blocks of m slots in
  // `upper`, starting at upper_at[slot].
  struct Page {
    uint64_t stamp = 0;    // the only index that may write this page
    uint64_t deleted = 0;  // tombstone bit per slot
    std::array<uint32_t, kPageSize> label{};
    std::array<uint32_t, kPageSize> level{};
    std::array<uint32_t, kPageSize> upper_at{};
    std::vector<uint32_t> base;
    std::vector<uint32_t> upper;
    size_t Bytes() const {
      return sizeof(Page) + (base.size() + upper.size()) * sizeof(uint32_t);
    }
  };
  // Vector rows of kPageSize consecutive vertices at the padded stride.
  // Rows never change once written, so only an Add ever copies one (the
  // tail's). The rows are aligned by hand inside a plain allocation:
  // glibc cannot reuse a freed over-aligned block for the next
  // over-aligned request of the same size, so copying aligned blocks on
  // every write grew the heap without bound.
  struct RowPage {
    explicit RowPage(size_t capacity_floats)
        : capacity(capacity_floats),
          storage(std::make_unique_for_overwrite<float[]>(
              capacity + Dataset::kStrideQuantum)) {
      void* base = storage.get();
      size_t space = (capacity + Dataset::kStrideQuantum) * sizeof(float);
      rows = static_cast<float*>(std::align(
          kRowAlignment, capacity * sizeof(float), base, space));
    }
    RowPage(const RowPage& other) : RowPage(other.capacity) {
      stamp = other.stamp;
      used = other.used;
      std::copy_n(other.rows, used, rows);
    }
    size_t Bytes() const { return used * sizeof(float); }
    uint64_t stamp = 0;
    size_t capacity;  // floats
    size_t used = 0;  // floats written, whole padded rows
    std::unique_ptr<float[]> storage;
    float* rows;  // `storage` rounded up to kRowAlignment
  };
  // Writer-side construction scratch, reused across Adds and never copied.
  struct BuildScratch {
    explicit BuildScratch(uint32_t capacity)
        : visited(capacity), pool(1) {}
    VisitedList visited;
    CandidatePool pool;
    std::vector<Neighbor> selected;
    std::vector<Neighbor> scored;
    std::vector<Neighbor> kept;
  };

  static uint32_t Slot(uint32_t id) { return id & (kPageSize - 1); }
  const Page& PageOf(uint32_t id) const { return *pages_[id >> kPageBits]; }
  const float* Row(uint32_t id) const {
    return rows_[id >> kPageBits]->rows +
           static_cast<size_t>(Slot(id)) * stride_;
  }
  bool Deleted(uint32_t id) const {
    return (PageOf(id).deleted >> Slot(id)) & 1;
  }
  // Offset of id's count-prefixed list at `level` within its page.
  size_t ListOffset(const Page& page, uint32_t slot, uint32_t level) const;
  std::span<const uint32_t> Links(uint32_t id, uint32_t level) const;
  // id's count-prefixed list at `level`, in a page this index owns.
  uint32_t* MutableLinks(uint32_t id, uint32_t level);
  // Returns table[page] for writing, first replacing it with a stamped
  // copy unless this index's stamp is on it.
  template <typename P>
  P& Own(std::vector<std::shared_ptr<const P>>& table, uint32_t page);
  // Appends vertex `id` (the next one) to the tail pages.
  void AppendVertex(uint32_t id, const float* vector, uint32_t label,
                    uint32_t level);

  uint32_t GreedyStep(const float* query, uint32_t entry, uint32_t level,
                      uint64_t* ndc) const;
  // Best-first over one level; fills `pool`. Counts NDC/hops into the
  // pointers when given. When `budget` is non-null and trips, the walk
  // stops with best-so-far pool contents and sets `*truncated`.
  void SearchLevel(const float* query, uint32_t level, CandidatePool& pool,
                   VisitedList& visited, uint64_t* ndc, uint64_t* hops,
                   const SearchBudget* budget = nullptr,
                   bool* truncated = nullptr) const;
  void Connect(uint32_t point, uint32_t level,
               const std::vector<Neighbor>& selected);
  uint32_t DegreeBound(uint32_t level) const {
    return level == 0 ? 2 * params_.m : params_.m;
  }
  float Distance(const float* a, uint32_t id, uint64_t* ndc) const;

  uint32_t dim_;
  uint32_t stride_;  // floats per stored row (dim_ padded to 64 bytes)
  Params params_;
  double level_lambda_;
  std::vector<std::shared_ptr<const Page>> pages_;
  std::vector<std::shared_ptr<const RowPage>> rows_;
  uint32_t num_points_ = 0;
  uint32_t num_deleted_ = 0;
  uint32_t entry_point_ = 0;
  uint32_t max_level_ = 0;
  Rng rng_;
  // Construction spend: Distance calls with no per-query counter are
  // build-side by construction (every search path threads a counter), so
  // they charge here. `mutable` keeps Distance const for the search path.
  mutable uint64_t build_evals_ = 0;
  // Page ownership (see the file comment). `mutable` because copying an
  // index re-stamps its source and charges it the copied tables.
  mutable uint64_t stamp_;
  mutable uint64_t copied_bytes_ = 0;
  // Construction scratch and the lazily sized scratch behind Search.
  std::unique_ptr<BuildScratch> build_;
  std::unique_ptr<SearchScratch> scratch_;
};

/// AnnIndex adapter: builds a DynamicHnsw by inserting every dataset row in
/// order, then serves the standard immutable-index contract (const
/// SearchWith, materialized level-0 graph). Registered as "Dynamic:HNSW" so
/// the CLI/eval/bench stack can exercise the mutable substrate next to the
/// 17 static algorithms.
class DynamicHnswIndex : public AnnIndex {
 public:
  explicit DynamicHnswIndex(const DynamicHnsw::Params& params)
      : impl_(std::make_unique<DynamicHnsw>(1, params)), params_(params) {}

  void Build(const Dataset& data) override;
  std::vector<uint32_t> SearchWith(SearchScratch& scratch, const float* query,
                                   const SearchParams& params,
                                   QueryStats* stats = nullptr) const override;
  const Graph& graph() const override { return base_layer_; }
  size_t IndexMemoryBytes() const override {
    return impl_->IndexMemoryBytes();
  }
  BuildStats build_stats() const override { return build_stats_; }
  std::string name() const override { return "Dynamic:HNSW"; }

 private:
  std::unique_ptr<DynamicHnsw> impl_;
  DynamicHnsw::Params params_;
  Graph base_layer_;  // copy of level 0, exposed via graph()
  BuildStats build_stats_;
};

std::unique_ptr<AnnIndex> CreateDynamicHnsw(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_DYNAMIC_HNSW_H_
