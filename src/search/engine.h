// Concurrent batched query engine. A SearchEngine owns a persistent worker
// pool and a ScratchPool of per-query scratch (visited stamps + candidate
// pool) and fans a batch of queries across the pool, one task per query.
//
// Determinism guarantee: every index's SearchWith is a pure function of
// (index, query bytes, params) — no mutable index state, no thread-local
// randomness. Queries are claimed dynamically, but each task writes only
// its own result/stats slot, and the batch totals are reduced in query
// order after the barrier. Results are therefore bit-for-bit identical for
// any thread count, including num_threads == 1. SearchParams budgets are
// deterministic too: max_distance_evals counts exact work, and
// time_budget_us is read through SearchParams::clock (core/clock.h), so a
// test that injects a VirtualClock gets reproducible truncation points.
// Only the default SteadyClock reintroduces scheduler-dependent timing.
//
// Thread safety: SearchBatch/SearchOne are const and safe to call from many
// producer threads concurrently — scratch is leased from the ScratchPool
// (core/search_context.h) per query, never keyed by worker identity.
//
// Sharded indexes: SearchOne and a batch on one execution stream let a
// sharded index fan its legs out over the shared pool; a batch on more than
// one stream runs each query's legs on its own task (ThreadPool's
// InParallelTask), so a saturated batch never pays for a second level of
// fan-out (docs/CONCURRENCY.md).
#ifndef WEAVESS_SEARCH_ENGINE_H_
#define WEAVESS_SEARCH_ENGINE_H_

#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/index.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace weavess {

/// Batch-level reduction of the per-query stats, accumulated in query order
/// (so the totals are as deterministic as the per-query values).
struct BatchStats {
  uint64_t distance_evals = 0;
  uint64_t hops = 0;
  /// Quantized-index split of distance_evals (zero for float indexes):
  /// code-space traversal evaluations vs exact float rescore evaluations
  /// (docs/QUANTIZATION.md).
  uint64_t quantized_evals = 0;
  uint64_t rescore_evals = 0;
  uint32_t truncated_queries = 0;
  uint32_t degraded_queries = 0;
  /// Wall time of the whole batch (the only intentionally nondeterministic
  /// field; everything else is thread-count invariant).
  double wall_seconds = 0.0;
};

struct BatchResult {
  /// ids[q] = top-k neighbor ids of query q, ascending by distance.
  std::vector<std::vector<uint32_t>> ids;
  /// stats[q] = per-query counters, indexed like `ids`.
  std::vector<QueryStats> stats;
  BatchStats totals;
};

class SearchEngine {
 public:
  /// `index` must be built and must outlive the engine; the engine treats
  /// it as immutable. `num_threads` >= 1 counts the calling thread: the
  /// engine spawns num_threads - 1 workers and the SearchBatch caller
  /// participates as the last execution stream. An optional `metrics`
  /// registry (caller-owned, outlives the engine) receives the `search.*`
  /// counters and the per-query NDC histogram, aggregated once per batch in
  /// query order so the exported totals are as thread-count invariant as
  /// the per-query stats (docs/OBSERVABILITY.md); batch wall time goes to
  /// the registry's `timing` section, the quarantine for wall-clock values.
  SearchEngine(const AnnIndex& index, uint32_t num_threads,
               MetricsRegistry* metrics = nullptr);
  ~SearchEngine();

  SearchEngine(const SearchEngine&) = delete;
  SearchEngine& operator=(const SearchEngine&) = delete;

  uint32_t num_threads() const { return num_threads_; }
  const AnnIndex& index() const { return index_; }

  /// Searches every row of `queries` under the same params. Budgets in
  /// `params` (max_distance_evals / time_budget_us) apply per query, never
  /// to the batch as a whole. An empty batch returns a well-formed empty
  /// result, and `k` greater than the dataset size is clamped so every
  /// result list holds at most dataset-size ids regardless of algorithm.
  BatchResult SearchBatch(const Dataset& queries,
                          const SearchParams& params) const;

  /// Pointer-batch variant (rows need not come from one Dataset).
  BatchResult SearchBatch(const std::vector<const float*>& queries,
                          const SearchParams& params) const;

  /// Single query on the calling thread, using pooled scratch. Equivalent
  /// to a one-element batch. `trace`, when given, receives this query's
  /// routing events (seeds, expansions, truncation); the sink is armed for
  /// exactly this call and never leaks into pooled scratch.
  std::vector<uint32_t> SearchOne(const float* query,
                                  const SearchParams& params,
                                  QueryStats* stats = nullptr,
                                  TraceSink* trace = nullptr) const;

  MetricsRegistry* metrics() const { return metrics_; }

 private:
  SearchParams ClampParams(const SearchParams& params) const;

  const AnnIndex& index_;
  uint32_t num_threads_;
  MetricsRegistry* metrics_ = nullptr;
  mutable ThreadPool pool_;
  mutable ScratchPool scratch_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_ENGINE_H_
