// Seed acquisition (components C4/C6): the strategies by which algorithms
// obtain entry vertices for routing — random, fixed (centroid / preset),
// and the auxiliary-index providers (KD-tree, VP-tree, k-means tree, LSH,
// KD-leaf) whose costs the paper compares in Fig. 10(d).
#ifndef WEAVESS_SEARCH_SEED_H_
#define WEAVESS_SEARCH_SEED_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "core/rng.h"
#include "hash/lsh.h"
#include "search/router.h"
#include "tree/kd_tree.h"
#include "tree/kmeans_tree.h"
#include "tree/vp_tree.h"

namespace weavess {

/// Inserts evaluated entry candidates into `pool` (marking them visited via
/// `ctx`). Implementations own whatever auxiliary index they need; any
/// distance evaluation they spend is charged to the oracle's counter, which
/// is how the paper attributes tree/hash seed costs to the query.
/// Seed is const and stateless across calls: concurrent queries may share
/// one provider, and a given query always receives the same entries.
class SeedProvider {
 public:
  virtual ~SeedProvider() = default;

  virtual void Seed(const float* query, DistanceOracle& oracle,
                    SearchContext& ctx, CandidatePool& pool) const = 0;

  /// Bytes of any auxiliary structure (counted into the MO metric).
  virtual size_t MemoryBytes() const { return 0; }
};

/// The query-hash-derived random entry ids: min(count, num_vertices)
/// distinct ids below num_vertices, drawn from an RNG stream seeded by
/// HashBytes over the query's `dim` floats folded with `seed`. A pure
/// function of its arguments, so repeated and concurrent searches of one
/// query see identical entries. RandomSeedProvider and the SQ8 index's
/// code-space seeding both draw through it.
std::vector<uint32_t> QuerySeedIds(const float* query, uint32_t dim,
                                   uint32_t num_vertices, uint32_t count,
                                   uint64_t seed);

/// Per-query uniform-random seeds (KGraph, FANNG, NSW, DPG, k-DR). The RNG
/// stream is derived from HashBytes(query), not from provider state, so
/// distinct queries still get independent entries but a repeated query —
/// on any thread — sees identical ones. `num_seeds == 0` fills the
/// candidate pool to capacity with random vertices — the classic
/// KGraph/EFANNA initialization, which is what gives random-seeded
/// algorithms their cluster coverage at large L.
class RandomSeedProvider : public SeedProvider {
 public:
  RandomSeedProvider(uint32_t num_vertices, uint32_t num_seeds, uint64_t seed);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;

 private:
  uint32_t num_vertices_;
  uint32_t num_seeds_;
  uint64_t seed_;
};

/// A fixed entry set chosen at build time: NSG/Vamana's medoid, NSSG's
/// random-but-frozen vertices, or the optimized algorithm's random entries.
class FixedSeedProvider : public SeedProvider {
 public:
  explicit FixedSeedProvider(std::vector<uint32_t> seeds);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;

 private:
  std::vector<uint32_t> seeds_;
};

/// Best-bin-first over a KD-forest (EFANNA, SPTAG-KDT).
class KdForestSeedProvider : public SeedProvider {
 public:
  KdForestSeedProvider(std::shared_ptr<const KdForest> forest,
                       uint32_t max_checks);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;
  size_t MemoryBytes() const override;

 private:
  std::shared_ptr<const KdForest> forest_;
  uint32_t max_checks_;
};

/// Leaf lookup over a KD-forest without distance evaluations on the path —
/// HCNNG's cheap seed acquisition (value comparisons only; the collected
/// leaf points are then evaluated as normal seeds).
class KdLeafSeedProvider : public SeedProvider {
 public:
  KdLeafSeedProvider(std::shared_ptr<const KdForest> forest,
                     uint32_t max_seeds);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;
  size_t MemoryBytes() const override;

 private:
  std::shared_ptr<const KdForest> forest_;
  uint32_t max_seeds_;
};

/// VP-tree descent (NGT).
class VpTreeSeedProvider : public SeedProvider {
 public:
  VpTreeSeedProvider(std::shared_ptr<const VpTree> tree, uint32_t k,
                     uint32_t max_checks);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;
  size_t MemoryBytes() const override;

 private:
  std::shared_ptr<const VpTree> tree_;
  uint32_t k_;
  uint32_t max_checks_;
};

/// Balanced k-means tree descent (SPTAG-BKT).
class KMeansTreeSeedProvider : public SeedProvider {
 public:
  KMeansTreeSeedProvider(std::shared_ptr<const KMeansTree> tree,
                         uint32_t max_checks);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;
  size_t MemoryBytes() const override;

 private:
  std::shared_ptr<const KMeansTree> tree_;
  uint32_t max_checks_;
};

/// Hash-bucket probe (IEH): bucket members are evaluated as seeds.
class LshSeedProvider : public SeedProvider {
 public:
  LshSeedProvider(std::shared_ptr<const LshTable> table, uint32_t max_seeds);
  void Seed(const float* query, DistanceOracle& oracle, SearchContext& ctx,
            CandidatePool& pool) const override;
  size_t MemoryBytes() const override;

 private:
  std::shared_ptr<const LshTable> table_;
  uint32_t max_seeds_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_SEED_H_
