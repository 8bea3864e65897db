#include "search/engine.h"

#include "core/check.h"
#include "core/timer.h"
#include "quant/quantized_index.h"

namespace weavess {

SearchEngine::SearchEngine(const AnnIndex& index, uint32_t num_threads,
                           MetricsRegistry* metrics)
    : index_(index),
      num_threads_(num_threads),
      metrics_(metrics),
      pool_(num_threads - 1) {
  WEAVESS_CHECK(num_threads >= 1);
  WEAVESS_CHECK(index.graph().size() > 0);  // must be built
  if (metrics_ != nullptr) {
    // Which distance-kernel tier this process dispatches to (stable enum
    // values of KernelLevel: 0 scalar, 1 avx2, 2 avx512, 3 neon). A gauge,
    // not a counter: it answers "what ISA is this deployment actually
    // running" when comparing QPS across hosts (docs/KERNELS.md).
    metrics_->GetGauge("kernel.dispatch")
        ->Set(static_cast<uint64_t>(ActiveKernelLevel()));
    if (const auto* quantized =
            dynamic_cast<const QuantizedIndex*>(&index_)) {
      // Resident SQ8 code bytes (codes + per-dimension scales): the memory
      // side of the quantization trade, next to the QPS side in quant.*
      // counters (docs/QUANTIZATION.md).
      metrics_->GetGauge("quant.code_bytes")
          ->Set(quantized->CodeMemoryBytes());
    }
  }
}

SearchEngine::~SearchEngine() = default;

BatchResult SearchEngine::SearchBatch(const Dataset& queries,
                                      const SearchParams& params) const {
  std::vector<const float*> rows(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) rows[q] = queries.Row(q);
  return SearchBatch(rows, params);
}

// Clamps k (and the dependent pool size floor) to the number of indexed
// vectors, so `k > dataset size` yields a well-formed short result instead
// of whatever the individual algorithm would improvise.
SearchParams SearchEngine::ClampParams(const SearchParams& params) const {
  SearchParams clamped = params;
  const uint32_t n = index_.graph().size();
  if (clamped.k > n) clamped.k = n;
  return clamped;
}

BatchResult SearchEngine::SearchBatch(const std::vector<const float*>& queries,
                                      const SearchParams& params) const {
  const auto n = static_cast<uint32_t>(queries.size());
  BatchResult out;
  if (n == 0) return out;  // well-formed empty batch: no timer, no tasks
  const SearchParams clamped = ClampParams(params);
  out.ids.resize(n);
  out.stats.resize(n);
  Timer timer;
  // One task per query; tasks are claimed dynamically (load balance) but
  // task q only ever writes slot q, so the output is claim-order invariant.
  pool_.RunTasks(n, [&](uint32_t q) {
    ScratchPool::Lease lease(scratch_);
    out.ids[q] = index_.SearchWith(lease.get(), queries[q], clamped,
                                   &out.stats[q]);
  });
  out.totals.wall_seconds = timer.Seconds();
  for (uint32_t q = 0; q < n; ++q) {
    out.totals.distance_evals += out.stats[q].distance_evals;
    out.totals.hops += out.stats[q].hops;
    out.totals.quantized_evals += out.stats[q].quantized_evals;
    out.totals.rescore_evals += out.stats[q].rescore_evals;
    if (out.stats[q].truncated) ++out.totals.truncated_queries;
    if (out.stats[q].degraded) ++out.totals.degraded_queries;
  }
  if (metrics_ != nullptr) {
    // Aggregate once per batch, from the query-order reduction above, so the
    // exported counters are thread-count invariant. Only the wall-clock
    // entry (quarantined under the `timing` JSON key) is nondeterministic.
    metrics_->GetCounter("search.queries")->Add(n);
    metrics_->GetCounter("search.batches")->Add(1);
    metrics_->GetCounter("search.distance_evals")
        ->Add(out.totals.distance_evals);
    metrics_->GetCounter("search.hops")->Add(out.totals.hops);
    metrics_->GetCounter("search.truncated_queries")
        ->Add(out.totals.truncated_queries);
    metrics_->GetCounter("search.degraded_queries")
        ->Add(out.totals.degraded_queries);
    Histogram* ndc =
        metrics_->GetHistogram("search.ndc", DefaultNdcBuckets());
    for (uint32_t q = 0; q < n; ++q) {
      ndc->Record(out.stats[q].distance_evals);
    }
    if (out.totals.quantized_evals > 0 || out.totals.rescore_evals > 0) {
      // Quantized two-stage split, only materialized when the index
      // actually traverses codes — float-only deployments keep a clean
      // search.* namespace.
      metrics_->GetCounter("quant.quantized_evals")
          ->Add(out.totals.quantized_evals);
      metrics_->GetCounter("quant.rescore_evals")
          ->Add(out.totals.rescore_evals);
      Histogram* rescore =
          metrics_->GetHistogram("quant.rescore_pool", DefaultNdcBuckets());
      for (uint32_t q = 0; q < n; ++q) {
        if (out.stats[q].rescore_evals > 0) {
          rescore->Record(out.stats[q].rescore_evals);
        }
      }
    }
    metrics_->AddTiming("search.batch_wall_seconds",
                        out.totals.wall_seconds);
  }
  return out;
}

std::vector<uint32_t> SearchEngine::SearchOne(const float* query,
                                              const SearchParams& params,
                                              QueryStats* stats,
                                              TraceSink* trace) const {
  ScratchPool::Lease lease(scratch_);
  // Arm the caller's sink for exactly this query; scratch goes back to the
  // pool with a null sink, so reuse never leaks a stale pointer.
  lease.get().ctx.trace = trace;
  std::vector<uint32_t> ids;
  try {
    ids = index_.SearchWith(lease.get(), query, ClampParams(params), stats);
  } catch (...) {
    lease.get().ctx.trace = nullptr;
    throw;
  }
  lease.get().ctx.trace = nullptr;
  return ids;
}

}  // namespace weavess
