#include "algorithms/hnsw.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/check.h"
#include "core/parallel.h"
#include "core/timer.h"
#include "graph/neighbor_selection.h"
#include "search/router.h"

namespace weavess {

namespace {

// Page-ownership stamps: unique per index and per copy, never 0 (the stamp
// of a row view). Only equality matters, so the values never reach a
// result.
uint64_t NewStamp() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

uint32_t PaddedStride(uint32_t dim) {
  return (dim + Dataset::kStrideQuantum - 1) / Dataset::kStrideQuantum *
         Dataset::kStrideQuantum;
}

}  // namespace

HnswIndex::HnswIndex(uint32_t dim, const Params& params)
    : params_(params),
      level_lambda_(1.0 /
                    std::log(static_cast<double>(std::max(2u, params.m)))),
      dim_(dim),
      stride_(PaddedStride(dim)),
      rng_(params.seed),
      stamp_(NewStamp()) {
  WEAVESS_CHECK(params.m >= 2);
}

HnswIndex::HnswIndex(const HnswIndex& other)
    : AnnIndex(),
      params_(other.params_),
      level_lambda_(other.level_lambda_),
      dim_(other.dim_),
      stride_(other.stride_),
      pages_(other.pages_),
      rows_(other.rows_),
      num_points_(other.num_points_),
      num_deleted_(other.num_deleted_),
      entry_point_(other.entry_point_),
      max_level_(other.max_level_),
      rng_(other.rng_),
      base_layer_(other.base_layer_),
      build_seconds_(other.build_seconds_),
      build_evals_(other.build_evals_),
      stamp_(NewStamp()) {
  // Every page is now visible to both sides: neither may write one in
  // place again.
  other.stamp_ = NewStamp();
  other.copied_bytes_ +=
      (pages_.size() + rows_.size()) * sizeof(std::shared_ptr<const Page>);
  copied_bytes_ = other.copied_bytes_;
}

HnswIndex::RowPage::RowPage(size_t capacity_floats)
    : capacity(capacity_floats),
      storage(std::make_unique_for_overwrite<float[]>(
          capacity + Dataset::kStrideQuantum)) {
  void* base = storage.get();
  size_t space = (capacity + Dataset::kStrideQuantum) * sizeof(float);
  rows = static_cast<float*>(
      std::align(kRowAlignment, capacity * sizeof(float), base, space));
}

HnswIndex::RowPage::RowPage(const RowPage& other) : RowPage(other.capacity) {
  stamp = other.stamp;
  used = other.used;
  std::copy_n(other.rows, used, const_cast<float*>(rows));
}

// ------------------------------------------------------------- storage

template <typename P>
P& HnswIndex::Own(std::vector<std::shared_ptr<const P>>& table,
                  uint32_t page) {
  if (table[page]->stamp != stamp_) {
    auto copy = std::make_shared<P>(*table[page]);
    copy->stamp = stamp_;
    copied_bytes_ += copy->Bytes();
    table[page] = std::move(copy);
  }
  // The stamp matches: this index created the page (non-const) and has
  // not been copied since, so nothing else can see it.
  return const_cast<P&>(*table[page]);
}

const uint32_t* HnswIndex::List(const Page& page, uint32_t id,
                                uint32_t level) const {
  const uint32_t slot = Slot(id);
  if (level == 0) {
    return page.base.data() + static_cast<size_t>(slot) * (1 + DegreeBound(0));
  }
  return page.upper.data() + page.upper_at[slot] +
         static_cast<size_t>(level - 1) * (1 + DegreeBound(level));
}

std::span<const uint32_t> HnswIndex::Links(uint32_t id,
                                           uint32_t level) const {
  const uint32_t* list = List(*pages_[id >> kPageBits], id, level);
  return {list + 1, list[0]};
}

uint32_t* HnswIndex::MutableLinks(uint32_t id, uint32_t level) {
  return const_cast<uint32_t*>(List(Own(pages_, id >> kPageBits), id, level));
}

void HnswIndex::AppendVertex(uint32_t label, uint32_t level) {
  const uint32_t id = num_points_++;
  const uint32_t slot = Slot(id);
  if (slot == 0) {
    auto page = std::make_shared<Page>();
    page->stamp = stamp_;
    page->base.assign(static_cast<size_t>(kPageSize) * (1 + DegreeBound(0)),
                      0);
    pages_.push_back(std::move(page));
  }
  Page& page = Own(pages_, id >> kPageBits);
  page.label[slot] = label;
  page.level[slot] = level;
  if (level > 0) {
    page.upper_at[slot] = static_cast<uint32_t>(page.upper.size());
    page.upper.resize(page.upper.size() +
                          static_cast<size_t>(level) * (1 + DegreeBound(1)),
                      0);
  }
}

uint32_t HnswIndex::DrawLevel() {
  return static_cast<uint32_t>(
      -std::log(std::max(rng_.NextDouble(), 1e-12)) * level_lambda_);
}

HnswIndex::BuildScratch& HnswIndex::Scratch(uint32_t workers) {
  if (build_ == nullptr || build_->workers.size() < workers) {
    build_ = std::make_unique<BuildScratch>(
        std::vector<BuildScratch::Worker>(workers));
  }
  return *build_;
}

size_t HnswIndex::IndexMemoryBytes() const {
  size_t bytes =
      (pages_.size() + rows_.size()) * sizeof(std::shared_ptr<const Page>);
  for (const auto& page : pages_) bytes += page->Bytes();
  return bytes;
}

// ------------------------------------------------------- construction

Neighbor HnswIndex::GreedyStep(const float* query, Neighbor entry,
                               uint32_t level, RowOracle& oracle,
                               SearchContext& ctx) const {
  Neighbor current = entry;
  bool improved = true;
  while (improved) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      break;
    }
    improved = false;
    ++ctx.hops;
    for (uint32_t neighbor : Links(current.id, level)) {
      const float dist = oracle.ToQuery(query, neighbor);
      if (dist < current.distance) {
        current = Neighbor(neighbor, dist);
        improved = true;
      }
    }
  }
  return current;
}

Neighbor HnswIndex::SelectAt(const float* query, uint32_t point,
                             Neighbor entry, uint32_t level,
                             RowOracle& oracle, SearchScratch& scratch,
                             std::vector<Neighbor>& selected) const {
  SearchContext& ctx = scratch.ctx;
  CandidatePool& pool = scratch.pool;
  ctx.BeginQuery(num_points_);
  pool.Reset(params_.ef_construction);
  ctx.visited.MarkVisited(entry.id);
  pool.Insert(entry);
  BestFirstSearch(Layer{*this, level}, query, oracle, ctx, pool);
  SelectRng(oracle, point, pool.entries(), params_.m, 1.0f, selected);
  // Unchecked: the level below expands it afresh.
  return Neighbor(pool[0].id, pool[0].distance);
}

void HnswIndex::Connect(uint32_t point, uint32_t level,
                        const std::vector<Neighbor>& selected,
                        RowOracle& oracle) {
  const uint32_t bound = DegreeBound(level);
  std::vector<Neighbor>& scored = build_->scored;
  std::vector<Neighbor>& kept = build_->kept;
  for (const Neighbor& nb : selected) {
    uint32_t* own = MutableLinks(point, level);
    own[1 + own[0]++] = nb.id;
    // Bidirectional link; shrink the neighbor's list with the heuristic if
    // it overflows (Algorithm 1, line "shrink connections" in [67]).
    uint32_t* theirs = MutableLinks(nb.id, level);
    if (theirs[0] < bound) {
      theirs[1 + theirs[0]++] = point;
      continue;
    }
    scored.clear();
    for (uint32_t i = 1; i <= bound; ++i) {
      scored.emplace_back(theirs[i], oracle.Between(nb.id, theirs[i]));
    }
    scored.emplace_back(point, oracle.Between(nb.id, point));
    std::sort(scored.begin(), scored.end());
    SelectRng(oracle, nb.id, scored, bound, 1.0f, kept);
    theirs[0] = static_cast<uint32_t>(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) theirs[1 + i] = kept[i].id;
  }
}

void HnswIndex::Insert(uint32_t begin, uint32_t end, uint32_t workers) {
  BuildScratch& scratch = Scratch(workers);
  const uint32_t frozen_entry = entry_point_;
  const uint32_t frozen_max = max_level_;
  if (scratch.staged.size() < end - begin) scratch.staged.resize(end - begin);

  // Search phase: every batch point searches the frozen prefix graph
  // [0, begin) — a pure function of (point, frozen prefix), so the staged
  // lists are identical at any worker count. Workers never write the
  // store here; distance evaluations land in per-worker counters.
  ParallelForWithWorker(begin, end, workers, [&](uint32_t point,
                                                 uint32_t worker) {
    RowOracle oracle(*this, &scratch.workers[worker].evals);
    SearchScratch& slot = scratch.workers[worker].search;
    const float* query = Row(point);
    const uint32_t level = Level(point);
    Neighbor entry(frozen_entry, oracle.ToQuery(query, frozen_entry));
    // Phase 1: greedy descent through frozen layers above `level`.
    for (uint32_t l = frozen_max; l > level; --l) {
      entry = GreedyStep(query, entry, l, oracle, slot.ctx);
    }
    // Phase 2: ef-search and heuristic selection per visible layer.
    const uint32_t top = std::min(level, frozen_max);
    auto& per_level = scratch.staged[point - begin];
    if (per_level.size() <= top) per_level.resize(top + 1);
    for (uint32_t l = top + 1; l-- > 0;) {
      entry = SelectAt(query, point, entry, l, oracle, slot, per_level[l]);
    }
  });

  // Commit phase: strictly in id order, single-threaded — bidirectional
  // linking and neighbor-list shrinking mutate shared state, and id order
  // makes the result independent of the search schedule above.
  RowOracle oracle(*this, &scratch.workers[0].evals);
  SearchScratch& slot = scratch.workers[0].search;
  for (uint32_t point = begin; point < end; ++point) {
    const uint32_t level = Level(point);
    if (std::min(level, max_level_) > frozen_max) {
      // Layers the frozen search could not see, which earlier batch
      // members have raised since: search them live.
      Neighbor entry(entry_point_, oracle.ToQuery(Row(point), entry_point_));
      for (uint32_t l = max_level_; l > level; --l) {
        entry = GreedyStep(Row(point), entry, l, oracle, slot.ctx);
      }
      for (uint32_t l = std::min(level, max_level_); l > frozen_max; --l) {
        entry = SelectAt(Row(point), point, entry, l, oracle, slot,
                         scratch.selected);
        Connect(point, l, scratch.selected, oracle);
      }
    }
    for (uint32_t l = std::min(level, frozen_max) + 1; l-- > 0;) {
      Connect(point, l, scratch.staged[point - begin][l], oracle);
    }
    if (level > max_level_) {
      max_level_ = level;
      entry_point_ = point;
    }
  }
  // The evaluated *set* is batch-determined, so the total is exact and
  // thread-invariant whatever order the counters fold in.
  for (BuildScratch::Worker& worker : scratch.workers) {
    build_evals_ += worker.evals.count;
    worker.evals.count = 0;
  }
}

void HnswIndex::BeginBuild(const Dataset& data) {
  WEAVESS_CHECK(num_points_ == 0);
  WEAVESS_CHECK(dim_ == 0 || dim_ == data.dim());
  dim_ = data.dim();
  stride_ = PaddedStride(dim_);
  WEAVESS_CHECK(stride_ == data.row_stride());
}

void HnswIndex::EndBuild(double seconds) {
  std::vector<uint64_t> offsets(1, 0);
  for (uint32_t v = 0; v < num_points_; ++v) {
    offsets.push_back(offsets.back() + Links(v, 0).size());
  }
  std::vector<uint32_t> ids;
  ids.reserve(offsets.back());
  for (uint32_t v = 0; v < num_points_; ++v) {
    const std::span<const uint32_t> links = Links(v, 0);
    ids.insert(ids.end(), links.begin(), links.end());
  }
  base_layer_ = CsrGraph(std::move(offsets), std::move(ids));
  build_.reset();
  build_seconds_ = seconds;
}

void HnswIndex::Build(const Dataset& data) {
  WEAVESS_CHECK(data.size() >= 2);
  Timer timer;
  BeginBuild(data);
  const uint32_t n = data.size();
  for (uint32_t first = 0; first < n; first += kPageSize) {
    const uint32_t count = std::min(kPageSize, n - first);
    rows_.push_back(std::make_shared<const RowPage>(
        data.Row(first), static_cast<size_t>(count) * stride_,
        static_cast<size_t>(kPageSize) * stride_));
  }
  // Levels are drawn in id order so the level sequence — and hence the
  // hierarchy shape — consumes the seeded RNG stream exactly as the
  // point-at-a-time formulation did, independent of batching and threads.
  // Vertex 0 starts the structure at level 0.
  for (uint32_t point = 0; point < n; ++point) {
    AppendVertex(point, point == 0 ? 0 : DrawLevel());
  }
  entry_point_ = 0;
  max_level_ = 0;
  for (uint32_t built = 1; built < n;) {
    const uint32_t batch = std::min(n - built, built);
    Insert(built, built + batch, std::max(1u, params_.build_threads));
    built += batch;
  }
  EndBuild(timer.Seconds());
}

uint32_t HnswIndex::Add(const float* vector, uint32_t label) {
  WEAVESS_CHECK(dim_ > 0);
  const uint32_t id = num_points_;
  if (Slot(id) == 0) {
    auto rows =
        std::make_shared<RowPage>(static_cast<size_t>(kPageSize) * stride_);
    rows->stamp = stamp_;
    rows_.push_back(std::move(rows));
  }
  RowPage& rows = Own(rows_, id >> kPageBits);
  float* row = const_cast<float*>(rows.rows) + rows.used;
  std::copy_n(vector, dim_, row);
  std::fill(row + dim_, row + stride_, 0.0f);
  rows.used += stride_;
  AppendVertex(label, DrawLevel());
  base_layer_ = CsrGraph();
  if (id == 0) {
    entry_point_ = 0;
    max_level_ = Level(0);
  } else {
    Insert(id, id + 1, 1);
  }
  return id;
}

void HnswIndex::Remove(uint32_t id) {
  if (!IsDeleted(id)) {
    Own(pages_, id >> kPageBits).deleted |= uint64_t{1} << Slot(id);
    ++num_deleted_;
  }
}

std::vector<uint32_t> HnswIndex::Compact() {
  std::vector<uint32_t> mapping;
  mapping.reserve(live_size());
  HnswIndex rebuilt(dim_, params_);
  rebuilt.build_ = std::move(build_);
  for (uint32_t id = 0; id < num_points_; ++id) {
    if (IsDeleted(id)) continue;
    rebuilt.Add(Row(id), Label(id));
    mapping.push_back(id);
  }
  rebuilt.build_evals_ += build_evals_;
  rebuilt.copied_bytes_ = copied_bytes_;
  *this = std::move(rebuilt);
  return mapping;
}

// -------------------------------------------------------------- search

std::vector<ScoredId> HnswIndex::SearchScored(SearchScratch& scratch,
                                              const float* query,
                                              const SearchParams& params,
                                              QueryStats* stats) const {
  SearchContext& ctx = scratch.ctx;
  ctx.BeginQuery(num_points_);
  ctx.ArmBudget(params.max_distance_evals, params.time_budget_us,
                params.clock);
  // Oversize the pool slightly so tombstones do not crowd out live
  // results; they are filtered only from the extracted top-k.
  const uint32_t slack =
      std::min(num_deleted_, std::max(params.pool_size / 2, 8u));
  CandidatePool& pool = scratch.pool;
  pool.Reset(std::max(params.pool_size, params.k) + slack);
  if (live_size() > 0) {
    RowOracle oracle(*this, &ctx.counter);
    // C6: the greedy descent through the upper levels hands each level's
    // closest vertex down already scored, and seeds level 0 with it.
    Neighbor entry(entry_point_, oracle.ToQuery(query, entry_point_));
    for (uint32_t l = max_level_; l > 0; --l) {
      entry = GreedyStep(query, entry, l, oracle, ctx);
    }
    if (AdmitSeed(entry.id, ctx)) pool.Insert(entry);
    // C7: best-first routing on level 0.
    BestFirstSearch(Layer{*this, 0}, query, oracle, ctx, pool);
  }
  ctx.WriteStats(stats);
  std::vector<ScoredId> result;
  for (const Neighbor& candidate : pool.entries()) {
    if (result.size() == params.k) break;
    if (!IsDeleted(candidate.id)) {
      result.emplace_back(candidate.distance, candidate.id);
    }
  }
  return result;
}

// ------------------------------------------------------------ registry

namespace {

HnswIndex::Params ParamsFrom(const AlgorithmOptions& options) {
  HnswIndex::Params params;
  params.m = std::max(2u, options.max_degree / 2);
  params.ef_construction = options.build_pool;
  params.seed = options.seed;
  params.build_threads = options.build_threads;
  return params;
}

// Grows the index the way the mutable tier does: one Add per row.
class AddBuiltHnsw final : public HnswIndex {
 public:
  using HnswIndex::HnswIndex;
  void Build(const Dataset& data) override {
    WEAVESS_CHECK(data.size() > 0);
    Timer timer;
    BeginBuild(data);
    for (uint32_t row = 0; row < data.size(); ++row) Add(data.Row(row));
    EndBuild(timer.Seconds());
  }
  std::string name() const override { return "Dynamic:HNSW"; }
};

}  // namespace

std::unique_ptr<AnnIndex> CreateHnsw(const AlgorithmOptions& options) {
  return std::make_unique<HnswIndex>(ParamsFrom(options));
}

std::unique_ptr<AnnIndex> CreateDynamicHnsw(const AlgorithmOptions& options) {
  return std::make_unique<AddBuiltHnsw>(ParamsFrom(options));
}

}  // namespace weavess
