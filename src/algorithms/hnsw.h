// A2 HNSW [67]: hierarchical navigable small world. Exponentially sampled
// layer assignment, heuristic (RNG) neighbor selection at every layer,
// greedy descent from the top layer to a best-first search at layer 0.
//
// HNSW is the paper's *increment* strategy: the index is whatever inserting
// points one at a time produces. As in ParlayANN, every construction is one
// staged insertion: Build inserts prefix-doubling batches, and Add — the
// live insert of the mutable tier (docs/MUTATION.md) — is a batch of one.
// Deleted vertices are tombstoned: they still route but never enter
// results, and Compact() rebuilds without them.
//
// Storage is a table of pages, each covering kPageSize consecutive
// vertices and held by shared_ptr<const ...>. A graph page holds their
// fixed-slot level-0 adjacency, upper-level lists, tombstone bits, levels
// and labels; a row page holds their 64-byte-aligned rows — copies made by
// Add, or a view of the Dataset passed to Build, which must then outlive
// the index and its copies. Copying an index copies only the page tables.
// Each index carries a stamp, and a page is written in place only by the
// index whose stamp it bears; any other write first copies the page and
// stamps the copy (a row view bears no stamp). Copying re-stamps both
// sides, so a page is never written again once two indexes can see it: an
// Add copies the tail pages plus the pages Connect rewires, a Remove one.
//
// Concurrency contract: Build/Add/Remove/Compact and copying need exclusive
// access; SearchScored is const and only reads, so any number of threads may
// search one *unchanging* index with caller-owned scratch. The mutable
// shards (shard/mutable_shard.h) publish a page-sharing copy of their
// working index after each write while readers search earlier copies.
#ifndef WEAVESS_ALGORITHMS_HNSW_H_
#define WEAVESS_ALGORITHMS_HNSW_H_

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algorithms/registry.h"
#include "core/check.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "core/flat_graph.h"
#include "core/index.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "core/search_context.h"

namespace weavess {

class HnswIndex : public AnnIndex {
 public:
  struct Params {
    /// Degree bound M at layers >= 1; layer 0 allows 2M (HNSW's M0).
    uint32_t m = 15;
    uint32_t ef_construction = 100;
    uint64_t seed = 2024;
    /// Workers for Build's batched insertion phases. Output is bit-for-bit
    /// identical at any value — see Build.
    uint32_t build_threads = 1;
  };

  /// An unbuilt index; Build sets the dimension.
  explicit HnswIndex(const Params& params) : HnswIndex(0, params) {}
  /// An empty index over `dim`-dimensional vectors, grown by Add (or Build).
  HnswIndex(uint32_t dim, const Params& params);

  /// A copy that shares every page with `other` (only the page tables are
  /// copied). Afterwards each side copies a page before its first write to
  /// it, so the two evolve independently. The copy carries the same RNG
  /// state, so interleaving the same future Adds into original and copy
  /// produces identical structures — the property the epoch publication
  /// protocol relies on. Construction scratch is not copied. Copying
  /// re-stamps `other` (and counts the tables into its copied_bytes()), so
  /// like a mutation it needs exclusive access to `other`.
  HnswIndex(const HnswIndex& other);
  HnswIndex& operator=(const HnswIndex&) = delete;
  HnswIndex(HnswIndex&&) = default;
  HnswIndex& operator=(HnswIndex&&) = default;

  /// Batched prefix-doubling construction (ParlayANN-style) over `data`,
  /// whose rows the index views rather than copies: levels are pre-drawn
  /// from the seeded RNG stream in id order (vertex 0 at level 0), then
  /// each doubling batch [built, built + batch) searches the *frozen*
  /// prefix graph in parallel and commits its links sequentially in id
  /// order. Every parallel stage is a pure function of the frozen prefix,
  /// so adjacency lists, entry point, and distance_evals are bit-for-bit
  /// identical at any build_threads value (docs/CONCURRENCY.md).
  void Build(const Dataset& data) override;

  /// Inserts a vector (copied into the index) as a batch of one; returns
  /// its id. Ids are dense, insertion-ordered and stable until Compact.
  /// Each call draws its vertex's level from the RNG stream. The vertex's
  /// label is its id.
  uint32_t Add(const float* vector) { return Add(vector, size()); }
  /// Inserts a vector carrying `label`, a caller-chosen tag that Compact()
  /// keeps with the vector (the mutable shards store global ids there).
  uint32_t Add(const float* vector, uint32_t label);

  /// Logically deletes id (idempotent). Deleted ids keep routing but are
  /// excluded from results. WEAVESS_CHECK-fails on out-of-range ids.
  void Remove(uint32_t id);
  bool IsDeleted(uint32_t id) const {
    return (PageOf(id).deleted >> Slot(id)) & 1;
  }

  /// Rebuilds the structure with tombstones physically removed by Adding
  /// the survivors in ascending old-id order with a fresh RNG seeded from
  /// Params::seed, so compacting equal states yields bit-identical
  /// structures (the WAL replay determinism contract of docs/MUTATION.md).
  /// Returns the mapping new_id -> old_id; labels travel with their
  /// vectors.
  std::vector<uint32_t> Compact();

  /// k nearest *live* ids: greedy descent through the upper levels (seed
  /// acquisition, C6), then best-first search at level 0 (routing, C7).
  /// Returns empty when no id is live. Honors SearchParams budgets
  /// including params.clock.
  std::vector<ScoredId> SearchScored(
      SearchScratch& scratch, const float* query, const SearchParams& params,
      QueryStats* stats = nullptr) const override;
  /// A CSR snapshot of level 0 as of the last Build; empty once Add or
  /// Compact has changed the structure (walk Neighbors(v, 0) instead).
  /// Search walks the pages, and IndexMemoryBytes leaves it out.
  const CsrGraph& graph() const override { return base_layer_; }
  /// Graph pages, upper-level blocks and page tables — every layer, since
  /// the hierarchy is what makes HNSW's index large — but never the rows.
  size_t IndexMemoryBytes() const override;
  BuildStats build_stats() const override {
    return {build_seconds_, build_evals_};
  }
  std::string name() const override { return "HNSW"; }

  uint32_t size() const { return num_points_; }
  uint32_t live_size() const { return num_points_ - num_deleted_; }
  uint32_t num_deleted() const { return num_deleted_; }
  uint32_t dim() const { return dim_; }
  uint32_t max_level() const { return max_level_; }
  uint32_t entry_point() const { return entry_point_; }
  /// Top level of id (it has adjacency at levels 0..Level(id)).
  uint32_t Level(uint32_t id) const { return PageOf(id).level[Slot(id)]; }
  /// Adjacency of id at `level` (<= Level(id)), in insertion order. Valid
  /// until the next mutation of this index.
  std::span<const uint32_t> Neighbors(uint32_t id, uint32_t level) const {
    WEAVESS_CHECK(level <= Level(id));
    return Links(id, level);
  }
  /// Stored vector for id (valid for dim() floats, 64-byte aligned).
  const float* Vector(uint32_t id) const {
    WEAVESS_CHECK(id < num_points_);
    return Row(id);
  }
  /// Label id was added with (survives Compact()).
  uint32_t Label(uint32_t id) const { return PageOf(id).label[Slot(id)]; }
  /// Distance evaluations spent by construction so far (Build/Add/Compact).
  uint64_t build_distance_evals() const { return build_evals_; }
  /// Bytes copied so far to write into pages shared with a copy, plus the
  /// page tables handed to copies of this index. Deterministic: it depends
  /// only on the sequence of mutations and copies.
  uint64_t copied_bytes() const { return copied_bytes_; }

 protected:
  // Build's bookends, shared with the registry's Add-built "Dynamic:HNSW":
  // adopt data's dimension before the first row; materialize graph() and
  // release the construction scratch after the last.
  void BeginBuild(const Dataset& data);
  void EndBuild(double seconds);

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
  // Vector rows of kPageSize consecutive vertices at the padded stride,
  // either owned or a view of a Dataset. Rows never change once written,
  // so only an Add ever copies one (the tail's). Owned rows are aligned by
  // hand inside a plain allocation: glibc cannot reuse a freed
  // over-aligned block for the next over-aligned request of the same size,
  // so copying aligned blocks on every write grew the heap without bound.
  struct RowPage {
    explicit RowPage(size_t capacity_floats);
    RowPage(const float* view, size_t used_floats, size_t capacity_floats)
        : capacity(capacity_floats), used(used_floats), rows(view) {}
    RowPage(const RowPage& other);  // always an owned copy
    size_t Bytes() const { return used * sizeof(float); }
    uint64_t stamp = 0;  // 0 for a view: no index may write it
    size_t capacity;     // floats
    size_t used = 0;     // floats written, whole padded rows
    std::unique_ptr<float[]> storage;  // null for a view
    const float* rows;  // `storage` rounded up to kRowAlignment, or the view
  };
  // Distance oracle over the paged rows with DistanceOracle's interface,
  // so the shared routers and SelectRng run on the store unchanged.
  class RowOracle {
   public:
    RowOracle(const HnswIndex& index, DistanceCounter* counter)
        : index_(index), counter_(counter) {}
    float ToQuery(const float* query, uint32_t id) {
      ++counter_->count;
      return L2Sqr(query, index_.Row(id), index_.dim_);
    }
    float Between(uint32_t a, uint32_t b) { return ToQuery(index_.Row(a), b); }
    void ToQueryBatch(const float* query, const uint32_t* ids, size_t n,
                      float* out) {
      for (size_t i = 0; i < n; ++i) out[i] = ToQuery(query, ids[i]);
    }

   private:
    const HnswIndex& index_;
    DistanceCounter* counter_;
  };
  // One level of the hierarchy as a router graph (search/router.h).
  struct Layer {
    const HnswIndex& index;
    uint32_t level;
    std::span<const uint32_t> Neighbors(uint32_t id) const {
      return index.Links(id, level);
    }
  };
  // Writer-side construction scratch, reused across batches and Adds and
  // never copied: a slot per build worker (cache-line aligned, so workers
  // never write one line), the staged selections of a batch, and the
  // commit-side buffers.
  struct BuildScratch {
    struct alignas(64) Worker {
      SearchScratch search;
      DistanceCounter evals;
    };
    std::vector<Worker> workers;
    // staged[j][l] = the selected neighbours of batch point j at level l.
    std::vector<std::vector<std::vector<Neighbor>>> staged;
    std::vector<Neighbor> selected, scored, kept;
  };

  static uint32_t Slot(uint32_t id) { return id & (kPageSize - 1); }
  // Page of a caller-supplied id, range-checked.
  const Page& PageOf(uint32_t id) const {
    WEAVESS_CHECK(id < num_points_);
    return *pages_[id >> kPageBits];
  }
  const float* Row(uint32_t id) const {
    return rows_[id >> kPageBits]->rows +
           static_cast<size_t>(Slot(id)) * stride_;
  }
  uint32_t DegreeBound(uint32_t level) const {
    return level == 0 ? 2 * params_.m : params_.m;
  }
  // id's count-prefixed list at `level` within `page`, id's page.
  const uint32_t* List(const Page& page, uint32_t id, uint32_t level) const;
  std::span<const uint32_t> Links(uint32_t id, uint32_t level) const;
  // id's count-prefixed list at `level`, in a page this index owns.
  uint32_t* MutableLinks(uint32_t id, uint32_t level);
  // Returns table[page] for writing, first replacing it with a stamped
  // copy unless this index's stamp is on it.
  template <typename P>
  P& Own(std::vector<std::shared_ptr<const P>>& table, uint32_t page);
  // Appends the next vertex's graph slots (its row must already be stored).
  void AppendVertex(uint32_t label, uint32_t level);
  uint32_t DrawLevel();
  BuildScratch& Scratch(uint32_t workers);

  // Links the appended vertices [begin, end) into the graph over [0, begin):
  // a parallel search phase over the frozen prefix, then an id-ordered
  // commit. A batch of one runs inline.
  void Insert(uint32_t begin, uint32_t end, uint32_t workers);
  // Greedy ef=1 descent on `level` from the scored `entry` (not scored
  // again), returning the closest vertex found with its distance.
  Neighbor GreedyStep(const float* query, Neighbor entry, uint32_t level,
                      RowOracle& oracle, SearchContext& ctx) const;
  // ef_construction search of `level` from the scored `entry`, then RNG
  // selection of point's neighbours into `selected`. Returns the next
  // level's entry, scored.
  Neighbor SelectAt(const float* query, uint32_t point, Neighbor entry,
                    uint32_t level, RowOracle& oracle, SearchScratch& scratch,
                    std::vector<Neighbor>& selected) const;
  void Connect(uint32_t point, uint32_t level,
               const std::vector<Neighbor>& selected, RowOracle& oracle);

  Params params_;
  double level_lambda_;  // mL = 1 / ln(M)
  uint32_t dim_;
  uint32_t stride_;  // floats per stored row (dim_ padded to 64 bytes)
  std::vector<std::shared_ptr<const Page>> pages_;
  std::vector<std::shared_ptr<const RowPage>> rows_;
  uint32_t num_points_ = 0;
  uint32_t num_deleted_ = 0;
  uint32_t entry_point_ = 0;
  uint32_t max_level_ = 0;
  Rng rng_;
  CsrGraph base_layer_;  // level 0 frozen by EndBuild, exposed via graph()
  double build_seconds_ = 0.0;
  uint64_t build_evals_ = 0;
  // Page ownership (see the file comment). `mutable` because copying an
  // index re-stamps its source and charges it the copied tables.
  mutable uint64_t stamp_;
  mutable uint64_t copied_bytes_ = 0;
  std::unique_ptr<BuildScratch> build_;
};

std::unique_ptr<AnnIndex> CreateHnsw(const AlgorithmOptions& options);

/// "Dynamic:HNSW": the index the mutable tier grows, built by one Add per
/// row (so every vertex, vertex 0 included, draws its level) and served
/// through the same immutable-index facade as the static algorithms.
std::unique_ptr<AnnIndex> CreateDynamicHnsw(const AlgorithmOptions& options);

}  // namespace weavess

#endif  // WEAVESS_ALGORITHMS_HNSW_H_
