#include "algorithms/dynamic_hnsw.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/check.h"
#include "core/distance.h"
#include "core/timer.h"

namespace weavess {

namespace {

// Page-ownership stamps: unique per index and per copy, never 0. Only
// equality matters, so the values never reach a result.
uint64_t NewStamp() {
  static std::atomic<uint64_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

DynamicHnsw::DynamicHnsw(uint32_t dim, const Params& params)
    : dim_(dim),
      stride_((dim + Dataset::kStrideQuantum - 1) / Dataset::kStrideQuantum *
              Dataset::kStrideQuantum),
      params_(params),
      level_lambda_(1.0 /
                    std::log(static_cast<double>(std::max(2u, params.m)))),
      rng_(params.seed),
      stamp_(NewStamp()) {
  WEAVESS_CHECK(dim >= 1);
  WEAVESS_CHECK(params.m >= 2);
}

DynamicHnsw::DynamicHnsw(const DynamicHnsw& other)
    : dim_(other.dim_),
      stride_(other.stride_),
      params_(other.params_),
      level_lambda_(other.level_lambda_),
      pages_(other.pages_),
      rows_(other.rows_),
      num_points_(other.num_points_),
      num_deleted_(other.num_deleted_),
      entry_point_(other.entry_point_),
      max_level_(other.max_level_),
      rng_(other.rng_),
      build_evals_(other.build_evals_),
      stamp_(NewStamp()) {
  // Every page is now visible to both sides: neither may write one in
  // place again.
  other.stamp_ = NewStamp();
  other.copied_bytes_ +=
      (pages_.size() + rows_.size()) * sizeof(std::shared_ptr<const Page>);
  copied_bytes_ = other.copied_bytes_;
}

template <typename P>
P& DynamicHnsw::Own(std::vector<std::shared_ptr<const P>>& table,
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

size_t DynamicHnsw::ListOffset(const Page& page, uint32_t slot,
                               uint32_t level) const {
  if (level == 0) return static_cast<size_t>(slot) * (1 + DegreeBound(0));
  return page.upper_at[slot] +
         static_cast<size_t>(level - 1) * (1 + DegreeBound(level));
}

std::span<const uint32_t> DynamicHnsw::Links(uint32_t id,
                                             uint32_t level) const {
  const Page& page = PageOf(id);
  const uint32_t* list =
      (level == 0 ? page.base.data() : page.upper.data()) +
      ListOffset(page, Slot(id), level);
  return {list + 1, list[0]};
}

uint32_t* DynamicHnsw::MutableLinks(uint32_t id, uint32_t level) {
  Page& page = Own(pages_, id >> kPageBits);
  return (level == 0 ? page.base.data() : page.upper.data()) +
         ListOffset(page, Slot(id), level);
}

void DynamicHnsw::AppendVertex(uint32_t id, const float* vector,
                               uint32_t label, uint32_t level) {
  const uint32_t index = id >> kPageBits;
  const uint32_t slot = Slot(id);
  if (slot == 0) {
    auto page = std::make_shared<Page>();
    page->stamp = stamp_;
    page->base.assign(static_cast<size_t>(kPageSize) * (1 + DegreeBound(0)),
                      0);
    pages_.push_back(std::move(page));
    auto rows =
        std::make_shared<RowPage>(static_cast<size_t>(kPageSize) * stride_);
    rows->stamp = stamp_;
    rows_.push_back(std::move(rows));
  }
  Page& page = Own(pages_, index);
  page.label[slot] = label;
  page.level[slot] = level;
  if (level > 0) {
    page.upper_at[slot] = static_cast<uint32_t>(page.upper.size());
    page.upper.resize(page.upper.size() +
                          static_cast<size_t>(level) * (1 + DegreeBound(1)),
                      0);
  }
  RowPage& rows = Own(rows_, index);
  float* row = rows.rows + rows.used;
  std::copy_n(vector, dim_, row);
  std::fill(row + dim_, row + stride_, 0.0f);
  rows.used += stride_;
}

float DynamicHnsw::Distance(const float* a, uint32_t id,
                            uint64_t* ndc) const {
  if (ndc != nullptr) {
    ++*ndc;
  } else {
    ++build_evals_;
  }
  return L2Sqr(a, Row(id), dim_);
}

const float* DynamicHnsw::Vector(uint32_t id) const {
  WEAVESS_CHECK(id < num_points_);
  return Row(id);
}

uint32_t DynamicHnsw::Label(uint32_t id) const {
  WEAVESS_CHECK(id < num_points_);
  return PageOf(id).label[Slot(id)];
}

uint32_t DynamicHnsw::Level(uint32_t id) const {
  WEAVESS_CHECK(id < num_points_);
  return PageOf(id).level[Slot(id)];
}

std::span<const uint32_t> DynamicHnsw::Neighbors(uint32_t id,
                                                 uint32_t level) const {
  WEAVESS_CHECK(id < num_points_ && level <= Level(id));
  return Links(id, level);
}

uint32_t DynamicHnsw::GreedyStep(const float* query, uint32_t entry,
                                 uint32_t level, uint64_t* ndc) const {
  uint32_t current = entry;
  float current_dist = Distance(query, current, ndc);
  bool improved = true;
  while (improved) {
    improved = false;
    for (uint32_t neighbor : Links(current, level)) {
      const float dist = Distance(query, neighbor, ndc);
      if (dist < current_dist) {
        current = neighbor;
        current_dist = dist;
        improved = true;
      }
    }
  }
  return current;
}

void DynamicHnsw::SearchLevel(const float* query, uint32_t level,
                              CandidatePool& pool, VisitedList& visited,
                              uint64_t* ndc, uint64_t* hops,
                              const SearchBudget* budget,
                              bool* truncated) const {
  size_t next;
  while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
    if (budget != nullptr && ndc != nullptr && budget->Exhausted(*ndc)) {
      if (truncated != nullptr) *truncated = true;
      return;
    }
    const uint32_t current = pool[next].id;
    pool.MarkChecked(next);
    if (hops != nullptr) ++*hops;
    for (uint32_t neighbor : Links(current, level)) {
      if (visited.CheckAndMark(neighbor)) continue;
      pool.Insert(Neighbor(neighbor, Distance(query, neighbor, ndc)));
    }
  }
}

void DynamicHnsw::Connect(uint32_t point, uint32_t level,
                          const std::vector<Neighbor>& selected) {
  const uint32_t bound = DegreeBound(level);
  std::vector<Neighbor>& scored = build_->scored;
  std::vector<Neighbor>& kept = build_->kept;
  for (const Neighbor& nb : selected) {
    uint32_t* own = MutableLinks(point, level);
    own[1 + own[0]++] = nb.id;
    uint32_t* theirs = MutableLinks(nb.id, level);
    if (theirs[0] < bound) {
      theirs[1 + theirs[0]++] = point;
      continue;
    }
    // Full: shrink the list plus `point` with the RNG heuristic, computed
    // directly on the store.
    scored.clear();
    const float* base = Row(nb.id);
    for (uint32_t i = 1; i <= bound; ++i) {
      scored.emplace_back(theirs[i], Distance(base, theirs[i], nullptr));
    }
    scored.emplace_back(point, Distance(base, point, nullptr));
    std::sort(scored.begin(), scored.end());
    kept.clear();
    for (const Neighbor& candidate : scored) {
      if (kept.size() >= bound) break;
      bool occluded = false;
      for (const Neighbor& existing : kept) {
        const float between =
            Distance(Row(existing.id), candidate.id, nullptr);
        if (between <= candidate.distance) {
          occluded = true;
          break;
        }
      }
      if (!occluded) kept.push_back(candidate);
    }
    theirs[0] = static_cast<uint32_t>(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) theirs[1 + i] = kept[i].id;
  }
}

uint32_t DynamicHnsw::Add(const float* vector, uint32_t label) {
  const uint32_t id = num_points_++;
  const auto level = static_cast<uint32_t>(
      -std::log(std::max(rng_.NextDouble(), 1e-12)) * level_lambda_);
  AppendVertex(id, vector, label, level);
  if (build_ == nullptr || build_->visited.size() < num_points_) {
    build_ = std::make_unique<BuildScratch>(
        std::max<uint32_t>(2 * num_points_, 64));
  }

  if (id == 0) {
    entry_point_ = 0;
    max_level_ = level;
    return id;
  }
  VisitedList& visited = build_->visited;
  CandidatePool& pool = build_->pool;
  std::vector<Neighbor>& selected = build_->selected;
  uint32_t entry = entry_point_;
  for (uint32_t l = max_level_; l > level && l > 0; --l) {
    entry = GreedyStep(vector, entry, l, nullptr);
  }
  const uint32_t top = std::min(level, max_level_);
  for (uint32_t l = top + 1; l-- > 0;) {
    visited.Reset();
    visited.MarkVisited(id);
    pool.Reset(params_.ef_construction);
    visited.MarkVisited(entry);
    pool.Insert(Neighbor(entry, Distance(vector, entry, nullptr)));
    SearchLevel(vector, l, pool, visited, nullptr, nullptr);
    // RNG heuristic selection against the store.
    selected.clear();
    for (const Neighbor& candidate : pool.entries()) {
      if (selected.size() >= params_.m) break;
      bool occluded = false;
      for (const Neighbor& kept : selected) {
        if (Distance(Row(kept.id), candidate.id, nullptr) <=
            candidate.distance) {
          occluded = true;
          break;
        }
      }
      if (!occluded) selected.push_back(candidate);
    }
    Connect(id, l, selected);
    if (!pool.entries().empty()) entry = pool[0].id;
  }
  if (level > max_level_) {
    max_level_ = level;
    entry_point_ = id;
  }
  return id;
}

void DynamicHnsw::Remove(uint32_t id) {
  WEAVESS_CHECK(id < num_points_);
  if (!Deleted(id)) {
    Own(pages_, id >> kPageBits).deleted |= uint64_t{1} << Slot(id);
    ++num_deleted_;
  }
}

bool DynamicHnsw::IsDeleted(uint32_t id) const {
  WEAVESS_CHECK(id < num_points_);
  return Deleted(id);
}

std::vector<uint32_t> DynamicHnsw::Search(const float* query,
                                          const SearchParams& params,
                                          QueryStats* stats) {
  if (scratch_ == nullptr ||
      scratch_->ctx.visited.size() < num_points_) {
    scratch_ =
        std::make_unique<SearchScratch>(std::max<uint32_t>(num_points_, 1));
  }
  return SearchWith(*scratch_, query, params, stats);
}

std::vector<uint32_t> DynamicHnsw::SearchWith(SearchScratch& scratch,
                                              const float* query,
                                              const SearchParams& params,
                                              QueryStats* stats) const {
  std::vector<uint32_t> result;
  if (stats != nullptr) {
    stats->distance_evals = 0;
    stats->hops = 0;
    stats->truncated = false;
  }
  if (num_points_ == 0 || live_size() == 0) return result;
  WEAVESS_CHECK(scratch.ctx.visited.size() >= num_points_);
  uint64_t ndc = 0, hops = 0;
  uint32_t entry = entry_point_;
  for (uint32_t l = max_level_; l > 0; --l) {
    entry = GreedyStep(query, entry, l, &ndc);
    ++hops;
  }
  VisitedList& visited = scratch.ctx.visited;
  visited.Reset();
  // Oversize the pool slightly so tombstones do not crowd out live
  // results.
  const uint32_t slack =
      std::min(num_deleted_, std::max(params.pool_size / 2, 8u));
  scratch.pool.Reset(std::max(params.pool_size, params.k) + slack);
  visited.MarkVisited(entry);
  scratch.pool.Insert(Neighbor(entry, Distance(query, entry, &ndc)));
  const SearchBudget budget = SearchBudget::FromLimits(
      params.max_distance_evals, params.time_budget_us, params.clock);
  bool truncated = false;
  SearchLevel(query, 0, scratch.pool, visited, &ndc, &hops,
              budget.unlimited() ? nullptr : &budget, &truncated);
  for (const Neighbor& candidate : scratch.pool.entries()) {
    if (Deleted(candidate.id)) continue;
    result.push_back(candidate.id);
    if (result.size() == params.k) break;
  }
  if (stats != nullptr) {
    stats->distance_evals = ndc;
    stats->hops = hops;
    stats->truncated = truncated;
  }
  return result;
}

std::vector<uint32_t> DynamicHnsw::Compact() {
  std::vector<uint32_t> mapping;
  mapping.reserve(live_size());
  DynamicHnsw rebuilt(dim_, params_);
  rebuilt.build_ = std::move(build_);
  for (uint32_t id = 0; id < num_points_; ++id) {
    if (Deleted(id)) continue;
    rebuilt.Add(Row(id), Label(id));
    mapping.push_back(id);
  }
  rebuilt.build_evals_ += build_evals_;
  rebuilt.copied_bytes_ = copied_bytes_;
  *this = std::move(rebuilt);
  return mapping;
}

size_t DynamicHnsw::IndexMemoryBytes() const {
  size_t bytes = 0;
  for (const auto& page : pages_) bytes += page->Bytes();
  for (const auto& rows : rows_) bytes += rows->capacity * sizeof(float);
  return bytes;
}

// ------------------------------------------------- registry adapter

void DynamicHnswIndex::Build(const Dataset& data) {
  WEAVESS_CHECK(data.size() > 0);
  Timer timer;
  impl_ = std::make_unique<DynamicHnsw>(data.dim(), params_);
  for (uint32_t row = 0; row < data.size(); ++row) {
    impl_->Add(data.Row(row));
  }
  base_layer_ = Graph(impl_->size());
  for (uint32_t v = 0; v < impl_->size(); ++v) {
    const std::span<const uint32_t> links = impl_->Neighbors(v, 0);
    base_layer_.MutableNeighbors(v).assign(links.begin(), links.end());
  }
  build_stats_.seconds = timer.Seconds();
  build_stats_.distance_evals = impl_->build_distance_evals();
}

std::vector<uint32_t> DynamicHnswIndex::SearchWith(
    SearchScratch& scratch, const float* query, const SearchParams& params,
    QueryStats* stats) const {
  return impl_->SearchWith(scratch, query, params, stats);
}

std::unique_ptr<AnnIndex> CreateDynamicHnsw(const AlgorithmOptions& options) {
  DynamicHnsw::Params params;
  params.m = std::max(2u, options.max_degree / 2);
  params.ef_construction = options.build_pool;
  params.seed = options.seed;
  return std::make_unique<DynamicHnswIndex>(params);
}

}  // namespace weavess
