#include "search/seed.h"

#include <algorithm>

#include "core/check.h"

namespace weavess {

namespace {

// Moves pool-inserted tree results through the shared visited set so the
// router does not re-evaluate them. Tree SearchKnn implementations insert
// into the pool themselves; this marks what they found.
void MarkPoolVisited(const CandidatePool& pool, SearchContext& ctx) {
  for (const Neighbor& entry : pool.entries()) {
    ctx.visited.MarkVisited(entry.id);
  }
}

}  // namespace

std::vector<uint32_t> QuerySeedIds(const float* query, uint32_t dim,
                                   uint32_t num_vertices, uint32_t count,
                                   uint64_t seed) {
  Rng rng(HashBytes(query, dim * sizeof(float), seed));
  return rng.SampleDistinct(num_vertices, std::min(count, num_vertices));
}

RandomSeedProvider::RandomSeedProvider(uint32_t num_vertices,
                                       uint32_t num_seeds, uint64_t seed)
    : num_vertices_(num_vertices), num_seeds_(num_seeds), seed_(seed) {
  WEAVESS_CHECK(num_vertices > 0);
}

void RandomSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                              SearchContext& ctx, CandidatePool& pool) const {
  const uint32_t count =
      num_seeds_ > 0 ? num_seeds_ : static_cast<uint32_t>(pool.capacity());
  SeedPool(QuerySeedIds(query, oracle.dim(), num_vertices_, count, seed_),
           query, oracle, ctx, pool);
}

FixedSeedProvider::FixedSeedProvider(std::vector<uint32_t> seeds)
    : seeds_(std::move(seeds)) {
  WEAVESS_CHECK(!seeds_.empty());
}

void FixedSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                             SearchContext& ctx, CandidatePool& pool) const {
  SeedPool(seeds_, query, oracle, ctx, pool);
}

KdForestSeedProvider::KdForestSeedProvider(
    std::shared_ptr<const KdForest> forest, uint32_t max_checks)
    : forest_(std::move(forest)), max_checks_(max_checks) {
  WEAVESS_CHECK(forest_ != nullptr);
}

void KdForestSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                                SearchContext& ctx, CandidatePool& pool) const {
  forest_->SearchKnn(query, max_checks_, oracle, pool);
  MarkPoolVisited(pool, ctx);
}

size_t KdForestSeedProvider::MemoryBytes() const {
  return forest_->MemoryBytes();
}

KdLeafSeedProvider::KdLeafSeedProvider(std::shared_ptr<const KdForest> forest,
                                       uint32_t max_seeds)
    : forest_(std::move(forest)), max_seeds_(max_seeds) {
  WEAVESS_CHECK(forest_ != nullptr);
}

void KdLeafSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                              SearchContext& ctx, CandidatePool& pool) const {
  std::vector<uint32_t> ids = forest_->LeafIds(query);
  if (ids.size() > max_seeds_) ids.resize(max_seeds_);
  SeedPool(ids, query, oracle, ctx, pool);
}

size_t KdLeafSeedProvider::MemoryBytes() const {
  return forest_->MemoryBytes();
}

VpTreeSeedProvider::VpTreeSeedProvider(std::shared_ptr<const VpTree> tree,
                                       uint32_t k, uint32_t max_checks)
    : tree_(std::move(tree)), k_(k), max_checks_(max_checks) {
  WEAVESS_CHECK(tree_ != nullptr);
}

void VpTreeSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                              SearchContext& ctx, CandidatePool& pool) const {
  tree_->SearchKnn(query, k_, max_checks_, oracle, pool);
  MarkPoolVisited(pool, ctx);
}

size_t VpTreeSeedProvider::MemoryBytes() const {
  return tree_->MemoryBytes();
}

KMeansTreeSeedProvider::KMeansTreeSeedProvider(
    std::shared_ptr<const KMeansTree> tree, uint32_t max_checks)
    : tree_(std::move(tree)), max_checks_(max_checks) {
  WEAVESS_CHECK(tree_ != nullptr);
}

void KMeansTreeSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                                  SearchContext& ctx, CandidatePool& pool) const {
  tree_->SearchKnn(query, max_checks_, oracle, pool);
  MarkPoolVisited(pool, ctx);
}

size_t KMeansTreeSeedProvider::MemoryBytes() const {
  return tree_->MemoryBytes();
}

LshSeedProvider::LshSeedProvider(std::shared_ptr<const LshTable> table,
                                 uint32_t max_seeds)
    : table_(std::move(table)), max_seeds_(max_seeds) {
  WEAVESS_CHECK(table_ != nullptr);
}

void LshSeedProvider::Seed(const float* query, DistanceOracle& oracle,
                           SearchContext& ctx, CandidatePool& pool) const {
  std::vector<uint32_t> ids = table_->Probe(query, max_seeds_);
  if (ids.size() > max_seeds_) ids.resize(max_seeds_);
  SeedPool(ids, query, oracle, ctx, pool);
}

size_t LshSeedProvider::MemoryBytes() const { return table_->MemoryBytes(); }

}  // namespace weavess
