// The uniform facade over all graph-based ANNS algorithms (Definition 2.3):
// build an index over a dataset, search it with per-query statistics, and
// expose the graph for the structural metrics of §5.
#ifndef WEAVESS_CORE_INDEX_H_
#define WEAVESS_CORE_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/dataset.h"
#include "core/flat_graph.h"
#include "core/neighbor.h"
#include "core/search_context.h"

namespace weavess {

/// Knobs shared by all search routines. Not every field applies to every
/// algorithm; unused fields are ignored (e.g., epsilon outside NGT/k-DR).
struct SearchParams {
  /// Number of nearest neighbors to return (Recall@k's k).
  uint32_t k = 10;
  /// Candidate-set size L (the CS metric of Table 5; HNSW's ef).
  uint32_t pool_size = 100;
  /// Range-search expansion factor ε (NGT, k-DR).
  float epsilon = 0.10f;
  /// Extra post-convergence expansions (FANNG's backtracking).
  uint32_t backtrack = 100;
  /// Two-stage rescoring breadth for quantized indexes (`SQ8:<Algo>`): the
  /// traversal runs on SQ8 codes and the closest rescore_factor * k
  /// quantized candidates are re-ranked with exact float distances before
  /// the final top-k (docs/QUANTIZATION.md). Clamped to ≥ 1; ignored by
  /// float indexes.
  uint32_t rescore_factor = 4;
  /// Graceful-degradation budgets (0 = unlimited). When a budget trips, the
  /// search stops where it is, returns its best-so-far results, and sets
  /// QueryStats::truncated — a disconnected or adversarial graph cannot
  /// wedge a query thread. Checked per expanded vertex, so the actual spend
  /// may overshoot max_distance_evals by one adjacency list.
  uint64_t max_distance_evals = 0;
  uint64_t time_budget_us = 0;
  /// Clock that time_budget_us deadlines are measured against. nullptr
  /// selects the process SteadyClock; tests and the serving layer inject a
  /// VirtualClock so wall-clock truncation is deterministic (core/clock.h).
  const Clock* clock = nullptr;
};

/// One query's budgets shared by a probe search and the search it seeds
/// (ML2's adaptive search, the during-routing filter). Construct it before
/// the probe; Left then says what the probe left for the second search.
class ProbeBudget {
 public:
  explicit ProbeBudget(const SearchParams& params)
      : params_(params),
        clock_(params.clock != nullptr ? *params.clock : SteadyClock()),
        start_us_(params.time_budget_us > 0 ? clock_.NowMicros() : 0) {}

  /// Sets `rest` to the query's params with each set budget reduced by the
  /// probe's spend. Returns false, leaving `rest` alone, when the probe was
  /// truncated or spent a whole budget: its results then answer the query,
  /// truncated.
  bool Left(const QueryStats& probe, SearchParams* rest) const {
    const uint64_t elapsed_us =
        params_.time_budget_us > 0 ? clock_.NowMicros() - start_us_ : 0;
    if (probe.truncated ||
        (params_.max_distance_evals > 0 &&
         probe.distance_evals >= params_.max_distance_evals) ||
        (params_.time_budget_us > 0 &&
         elapsed_us >= params_.time_budget_us)) {
      return false;
    }
    *rest = params_;
    if (rest->max_distance_evals > 0) {
      rest->max_distance_evals -= probe.distance_evals;
    }
    if (rest->time_budget_us > 0) rest->time_budget_us -= elapsed_us;
    return true;
  }

 private:
  const SearchParams params_;
  const Clock& clock_;
  const uint64_t start_us_;
};

/// Construction-side measurements.
struct BuildStats {
  double seconds = 0.0;
  uint64_t distance_evals = 0;
};

/// Abstract graph-based ANNS index. Implementations keep a pointer to the
/// dataset passed to Build (the caller keeps it alive). A built index is
/// immutable: SearchScored is const and touches no index state beyond
/// reads, so any number of threads may search concurrently as long as each
/// brings its own SearchScratch. Results are a pure function of (index,
/// query, params) — search-time randomness is derived from the query bytes,
/// never from mutable RNG state — which is what lets the concurrent engine
/// guarantee bit-for-bit identical results at any thread count.
class AnnIndex {
 public:
  virtual ~AnnIndex() = default;

  /// Builds the index over `data`; may be called once per instance.
  virtual void Build(const Dataset& data) = 0;

  /// Thread-compatible search, the one each index implements: returns the
  /// approximate k nearest neighbors of `query`, closest first, each with
  /// the exact float distance its frame computed — squared L2 to the row,
  /// bit-equal to L2Sqr, so no caller needs to evaluate a result again.
  /// Uses caller-owned scratch (any SearchScratch; it grows to cover this
  /// index). `stats`, when given, receives this query's counters.
  /// Concurrent calls on distinct scratch objects are safe.
  virtual std::vector<ScoredId> SearchScored(SearchScratch& scratch,
                                             const float* query,
                                             const SearchParams& params,
                                             QueryStats* stats = nullptr)
      const = 0;

  /// SearchScored's ids, in its order.
  std::vector<uint32_t> SearchWith(SearchScratch& scratch, const float* query,
                                   const SearchParams& params,
                                   QueryStats* stats = nullptr) const {
    return IdsOf(SearchScored(scratch, query, params, stats));
  }

  /// Single-threaded convenience wrapper over SearchWith using scratch
  /// owned by the index. Not safe to call concurrently on one index; the
  /// concurrent engine (search/engine.h) uses SearchWith directly.
  std::vector<uint32_t> Search(const float* query, const SearchParams& params,
                               QueryStats* stats = nullptr) {
    if (scratch_ == nullptr) scratch_ = std::make_unique<SearchScratch>();
    return SearchWith(*scratch_, query, params, stats);
  }

  /// The (bottom-layer) graph, as the CsrGraph the index holds at rest:
  /// what GQ/AD/CC measure, SaveGraph persists and most routers walk.
  virtual const CsrGraph& graph() const = 0;

  /// Bytes of the graph plus any auxiliary structures (trees, hash tables,
  /// extra layers) — the index-size metric of Figure 6. Excludes the raw
  /// vectors, which every algorithm shares equally.
  virtual size_t IndexMemoryBytes() const = 0;

  virtual BuildStats build_stats() const = 0;

  virtual std::string name() const = 0;

 protected:
  AnnIndex() = default;
  AnnIndex(AnnIndex&&) = default;
  AnnIndex& operator=(AnnIndex&&) = default;

 private:
  // Lazily created scratch backing the Search convenience wrapper.
  std::unique_ptr<SearchScratch> scratch_;
};

}  // namespace weavess

#endif  // WEAVESS_CORE_INDEX_H_
