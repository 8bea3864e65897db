// Per-query search state. Lives in core (not search/) because the index
// facade exposes a thread-compatible search entry point that takes this
// scratch explicitly: concurrent searchers lease one SearchScratch per
// in-flight query from a ScratchPool and hand it to AnnIndex::SearchScored, so
// an immutable index can serve many queries in parallel.
#ifndef WEAVESS_CORE_SEARCH_CONTEXT_H_
#define WEAVESS_CORE_SEARCH_CONTEXT_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/budget.h"
#include "core/clock.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "core/visited_list.h"
#include "obs/trace.h"

namespace weavess {

/// Per-query measurements backing Speedup (= |S| / distance_evals) and the
/// query-path-length metric PL (= hops, expanded vertices).
struct QueryStats {
  uint64_t distance_evals = 0;
  uint64_t hops = 0;
  /// NDC split for quantized two-stage search: evaluations spent on SQ8
  /// codes during traversal vs exact float evaluations spent re-ranking
  /// the candidate pool. distance_evals is their sum for quantized
  /// indexes; both stay 0 for float indexes.
  uint64_t quantized_evals = 0;
  uint64_t rescore_evals = 0;
  /// True when a SearchParams budget tripped and the results are the
  /// best-so-far prefix of the walk rather than a converged search.
  bool truncated = false;
  /// True when the result was produced in a degraded serving mode: a
  /// quality tier below full (degradation ladder) or the brute-force
  /// fallback after an index-load failure (search/serving.h). Algorithms
  /// never set this themselves; the serving layer owns it.
  bool degraded = false;
};

/// Per-query scratch state: visited stamps, the NDC counter behind the
/// Speedup metric, the hop counter behind the query-path-length metric
/// (PL in Table 5 counts expanded vertices along the search), and the
/// optional search budget that lets routing stop early with best-so-far
/// results instead of walking to convergence.
struct SearchContext {
  SearchContext() = default;
  explicit SearchContext(uint32_t num_vertices) : visited(num_vertices) {}

  /// Call once per query before seeding, with the vertex count of the index
  /// being searched: the visited list grows to cover it. Zeroes the query's
  /// counters and leaves the budget unlimited; arm it afterwards with
  /// ArmBudget when the caller set one.
  void BeginQuery(uint32_t num_vertices) {
    visited.Grow(num_vertices);
    visited.Reset();
    counter.count = 0;
    hops = 0;
    truncated = false;
    budget = SearchBudget::Unlimited();
  }

  /// Arms the per-query budget against `counter`, which the query's oracle
  /// writes into. A null `clock` measures time_budget_us against the
  /// process SteadyClock; tests pass a VirtualClock for deterministic
  /// wall-clock truncation.
  void ArmBudget(uint64_t max_distance_evals, uint64_t time_budget_us,
                 const Clock* clock = nullptr) {
    budget = SearchBudget::FromLimits(max_distance_evals, time_budget_us,
                                      clock);
  }

  /// True once routing must stop. Routers call this before each vertex
  /// expansion and set `truncated` when it trips with work remaining.
  bool BudgetExhausted() const {
    return !budget.unlimited() && budget.Exhausted(counter.count);
  }

  /// Writes this query's distance_evals, hops and truncated flag into
  /// `stats`, when given.
  void WriteStats(QueryStats* stats) const {
    if (stats == nullptr) return;
    stats->distance_evals = counter.count;
    stats->hops = hops;
    stats->truncated = truncated;
  }

  VisitedList visited;
  /// The query's distance evaluations: its oracle counts into this, and
  /// the budget is measured against it.
  DistanceCounter counter;
  uint64_t hops = 0;
  /// Set by routers when the budget stopped the walk before convergence.
  bool truncated = false;
  SearchBudget budget;
  /// Scratch for the routers' batched expansion step (search/router.h):
  /// the unvisited neighbors of the vertex being expanded and their
  /// batch-evaluated distances. Reused across expansions and queries so
  /// steady-state search never reallocates; contents are transient within
  /// one expansion.
  std::vector<uint32_t> batch_ids;
  std::vector<float> batch_dists;
  /// Per-query encoded query for quantized traversal (quant/
  /// quantized_index.cc): dim bytes, re-encoded at the start of each
  /// quantized search. Lives here so steady-state search never reallocates.
  std::vector<uint8_t> query_code;
  /// Optional per-query trace hook (docs/OBSERVABILITY.md): when non-null,
  /// routers record seed/expand/truncation events into it. Owned by the
  /// caller that armed it (the engine's SearchOne, or a test); BeginQuery
  /// intentionally leaves it alone — the owner sets and clears it around
  /// each traced query, so scratch reuse never leaks a stale sink.
  TraceSink* trace = nullptr;
};

/// Everything one in-flight query needs: visited stamps plus a reusable
/// candidate pool. One scratch serves any index, growing on first use, so
/// steady-state search allocates nothing per query beyond the result vector.
struct SearchScratch {
  SearchScratch() = default;
  /// `num_vertices` only presizes the visited list; BeginQuery grows it.
  explicit SearchScratch(uint32_t num_vertices) : ctx(num_vertices) {}

  SearchContext ctx;
  CandidatePool pool{1};
  /// One child scratch per shard leg, grown to the shard count on a
  /// sharded query's first fan-out. A fanned-out leg s always runs on
  /// legs[s], so legs can run at the same time and a steady-state sharded
  /// query allocates no scratch; legs run inline share legs[0].
  std::vector<std::unique_ptr<SearchScratch>> legs;
};

/// Free list of scratch shared by concurrent searchers (the query engine
/// and the mutable sharded tier). A Lease checks one out, allocating when
/// the list is dry, and returns it on destruction, so a throwing search
/// never leaks one. The mutex is held for one pointer push or pop; the list
/// grows to the peak number of concurrent leases and stays there.
class ScratchPool {
 public:
  class Lease {
   public:
    explicit Lease(ScratchPool& pool) : pool_(pool) {
      {
        std::lock_guard<std::mutex> lock(pool_.mu_);
        if (!pool_.free_.empty()) {
          scratch_ = std::move(pool_.free_.back());
          pool_.free_.pop_back();
        }
      }
      if (scratch_ == nullptr) scratch_ = std::make_unique<SearchScratch>();
    }
    ~Lease() {
      std::lock_guard<std::mutex> lock(pool_.mu_);
      pool_.free_.push_back(std::move(scratch_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    SearchScratch& get() { return *scratch_; }

   private:
    ScratchPool& pool_;
    std::unique_ptr<SearchScratch> scratch_;
  };

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<SearchScratch>> free_;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_SEARCH_CONTEXT_H_
