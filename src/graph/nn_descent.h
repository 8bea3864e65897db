// NN-Descent (Dong et al., WWW'11): iterative KNNG refinement by
// neighborhood propagation — "my neighbors' neighbors are likely my
// neighbors". This is the KGraph construction, the neighbor initialization
// (C1) of NSG / NSSG / DPG / OA, and (seeded by KD-trees) of EFANNA.
// Complexity is empirically O(|S|^1.14) (Table 2 of the paper). Builds are
// deterministic: the parallel local join stages candidates and commits
// them in sequential order, so any thread count gives the same pools.
#ifndef WEAVESS_GRAPH_NN_DESCENT_H_
#define WEAVESS_GRAPH_NN_DESCENT_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"

namespace weavess {

struct NnDescentParams {
  /// Out-degree K of the extracted KNNG.
  uint32_t k = 20;
  /// Per-vertex pool capacity L (>= k). 0 means k + 30.
  uint32_t pool_size = 0;
  /// Maximum NN-Descent iterations (`iter` in KGraph's parameters).
  uint32_t iterations = 8;
  /// Forward sample size S: how many "new" neighbors join per round.
  uint32_t sample_size = 10;
  /// Reverse sample size R: how many reverse neighbors join per round.
  uint32_t reverse_sample = 10;
  /// Early-stop when the fraction of pool updates drops below delta.
  double delta = 0.001;
  uint64_t seed = 7;
  /// Workers for the local-join rounds (the distance-heavy phase). Results
  /// are bit-for-bit identical at any value — see NnDescent::Run.
  uint32_t num_threads = 1;
};

class NnDescent {
 public:
  /// `counter`, when provided, accumulates construction-time distance
  /// evaluations. The dataset must outlive this object.
  NnDescent(const Dataset& data, const NnDescentParams& params,
            DistanceCounter* counter = nullptr);

  /// Fills every pool with random neighbors (KGraph / NSG / DPG init).
  void InitRandom();

  /// Seeds pools from an existing graph's adjacency lists (EFANNA's
  /// KD-tree initialization); distances are computed here. Pools are
  /// topped up with random entries if the graph is sparser than the pool.
  void InitFromGraph(const Graph& initial);

  /// Runs refinement rounds; returns the number executed (may stop early).
  ///
  /// Each round's local join runs on one path at every thread count, one
  /// block of pivots at a time. A block takes pivots in id order while the
  /// sum of their worst-case triple counts stays within kStagingBudget; a
  /// pivot's worst case is 2·(C(|jn|,2) + |jn|·|jo|) over its new and old
  /// join lists, every block takes at least one pivot, and a pivot with no
  /// new entries joins nothing and is skipped. Within a block, workers (up
  /// to params.num_threads on the shared ThreadPool) compute each pivot's
  /// join pairs and stage (target, candidate, distance) triples instead of
  /// mutating pools. A triple is dropped at stage time when its distance
  /// is >= the target's admission bound, frozen at the block start: the
  /// worst distance of a full pool, or NaN for a pool with room (NaN makes
  /// the test false for every distance). A full pool stays full and its
  /// worst distance only shrinks, so every dropped triple is one the
  /// insertion would have rejected, whichever block boundary froze the
  /// bound: where the blocks fall changes no pool. Kept triples go into
  /// the pivot's slice of one flat buffer, grouped by target stripe (a
  /// contiguous id range per worker), and each stripe replays its pivots
  /// in block order. Because InsertIntoPool's accept/reject decision
  /// depends only on the target pool's own state, every pool sees exactly
  /// the sequential insertion sequence: refined pools, the
  /// distance-evaluation count and the round count are bit-for-bit
  /// identical at any thread count. NnDescentPinTest pins them against
  /// values recorded from the original in-place sequential join
  /// (docs/CONCURRENCY.md).
  ///
  /// The flat buffer holds kStagingBudget triples whatever n, the pool
  /// size, S or R (more only when one pivot's worst case alone exceeds
  /// it), and it and the per-worker scratch are allocated once per Run.
  uint32_t Run();

  /// Extracts the directed KNNG: each vertex's closest `k` pool entries in
  /// ascending distance order.
  Graph ExtractGraph(uint32_t k) const;

  /// Read access to the refined pools (id + distance, ascending); used by
  /// algorithms that select neighbors directly from the candidate pools.
  const std::vector<std::vector<Neighbor>>& pools() const { return pools_; }

  /// Staging budget of one join block, in triples (640 Ki, 7.5 MiB).
  static constexpr uint64_t kStagingBudget = 640 * 1024;

  /// The most triples any one join block kept at stage time, over every
  /// Run so far. Block boundaries and the frozen bounds do not depend on
  /// the thread count, so neither does this count.
  uint64_t peak_staged() const { return peak_staged_; }

 private:
  // One staged join product: candidate `id` at `distance` destined for
  // pools_[target].
  struct StagedCandidate {
    uint32_t target;
    uint32_t id;
    float distance;
  };
  // Buffers one Run's local joins share (nn_descent.cc).
  struct JoinStaging;

  // Inserts into pools_[node] keeping it sorted/bounded; returns true if
  // the pool changed. `Neighbor::checked == false` marks "new" entries.
  bool InsertIntoPool(uint32_t node, uint32_t id, float distance);

  // One round's local join over every pivot vertex, staged in `staging`
  // and replayed per target stripe (see Run). Returns the number of pool
  // updates.
  uint64_t Join(const std::vector<std::vector<uint32_t>>& new_lists,
                const std::vector<std::vector<uint32_t>>& old_lists,
                const std::vector<std::vector<uint32_t>>& rev_new,
                const std::vector<std::vector<uint32_t>>& rev_old,
                JoinStaging& staging);

  const Dataset* data_;
  NnDescentParams params_;
  DistanceCounter* counter_;
  uint32_t pool_capacity_;
  std::vector<std::vector<Neighbor>> pools_;
  uint64_t peak_staged_ = 0;
};

}  // namespace weavess

#endif  // WEAVESS_GRAPH_NN_DESCENT_H_
