// Overload-resilient serving layer over the batched query engine
// (docs/SERVING.md). A ServingEngine wraps an immutable index with:
//
//   1. Admission control — a bounded in-flight budget; excess load is
//      rejected fast with kUnavailable and a retry-after hint instead of
//      queuing unboundedly (search/admission.h).
//   2. Deadline propagation — a per-request absolute deadline checked at
//      enqueue and dequeue and converted into the remaining-time budget the
//      routers already honor, so a request that can no longer make its
//      deadline is shed before burning CPU.
//   3. A graceful-degradation ladder — under sustained queue pressure the
//      engine steps down through configured SearchParams tiers, tagging
//      results with QueryStats::degraded (search/degradation.h).
//   4. Brute-force fallback — when a saved graph fails its checksummed
//      load (core/graph_io.h), FromSavedGraph serves exact results over a
//      bounded shard instead of erroring; every outcome is degraded.
//
// Determinism: admission and tier decisions are made sequentially, in
// request-submission order, under one lock — never on worker threads — so
// for a fixed submission sequence the shed/degrade trace is bit-for-bit
// identical at any num_threads (chaos_test.cc drives this under a
// VirtualClock).
#ifndef WEAVESS_SEARCH_SERVING_H_
#define WEAVESS_SEARCH_SERVING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/clock.h"
#include "core/dataset.h"
#include "core/index.h"
#include "core/status.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/admission.h"
#include "search/degradation.h"
#include "search/engine.h"
#include "shard/mutable_index.h"
#include "shard/sharded_index.h"

namespace weavess {

/// Per-request serving options. `params` is what the request wants at full
/// quality; the ladder may cap it (tier > 0) before execution.
struct RequestOptions {
  SearchParams params;
  /// Absolute deadline in serving-clock microseconds (ServingEngine::clock),
  /// 0 = none. Checked at admission and again before execution; the
  /// remaining time is merged into params.time_budget_us (tightest wins) so
  /// routing itself stops at the deadline.
  uint64_t deadline_us = 0;
  /// Optional per-request trace sink (obs/trace.h): receives the routing
  /// events plus this layer's shed/degrade/failure reason codes. A TraceSink
  /// is single-query state, so a multi-threaded ServeBatch arms it only for
  /// the sequential admission decisions, not for the parallel executions;
  /// use Serve (or a one-thread engine) for full per-query traces.
  TraceSink* trace = nullptr;
};

struct ServeOutcome {
  /// OK, kUnavailable ("overloaded: ..." or "backend failure: ..."), or
  /// kDeadlineExceeded ("deadline exceeded: ...").
  Status status;
  std::vector<uint32_t> ids;
  QueryStats stats;
  /// Quality tier served at (0 = full quality).
  uint32_t tier = 0;
  /// Back-off hint, set when status is the admission-reject kUnavailable.
  uint64_t retry_after_us = 0;
  /// Admission-to-completion time on the serving clock (completed only).
  uint64_t latency_us = 0;
};

struct ServingReport {
  uint64_t submitted = 0;
  uint64_t completed = 0;
  /// Rejected at admission (kUnavailable, "overloaded:").
  uint64_t shed_overload = 0;
  /// Shed because the deadline passed at enqueue or dequeue.
  uint64_t shed_deadline = 0;
  /// Backend threw (kUnavailable, "backend failure:").
  uint64_t failed = 0;
  /// Completed below full quality (ladder tier > 0 or fallback mode).
  uint64_t degraded = 0;
  uint32_t max_tier = 0;
};

struct ServeBatchResult {
  /// outcomes[q] corresponds to query q, shed or served.
  std::vector<ServeOutcome> outcomes;
  ServingReport report;
};

/// One write admitted through the serving layer (mutable engines only).
enum class MutationOp : uint8_t { kAdd, kRemove };

struct MutationRequest {
  MutationOp op = MutationOp::kAdd;
  /// kAdd: the vector to insert (index dim() floats; caller-owned).
  const float* vector = nullptr;
  /// kRemove: the global id to tombstone.
  uint32_t id = 0;
  /// Absolute deadline on the serving clock, 0 = none. Checked at
  /// admission, like queries.
  uint64_t deadline_us = 0;
};

struct MutationOutcome {
  /// OK, kUnavailable ("overloaded: ..."), kDeadlineExceeded, or the
  /// index's own failure (bad id, log I/O error).
  Status status;
  /// The assigned global id for an applied kAdd; echoes the request id for
  /// kRemove.
  uint32_t id = 0;
  /// Back-off hint, set on the admission-reject kUnavailable.
  uint64_t retry_after_us = 0;
  /// Admission-to-applied time on the serving clock (applied only).
  uint64_t latency_us = 0;
};

/// Mutation-side mirror of ServingReport. The accounting invariant,
/// asserted by the chaos suite at every snapshot:
///   submitted == applied + rejected_overload + deadline_exceeded + failed.
struct MutationReport {
  uint64_t submitted = 0;
  uint64_t applied = 0;
  uint64_t rejected_overload = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t failed = 0;
};

struct ServingConfig {
  /// Execution streams for ServeBatch (>= 1, counting the caller).
  uint32_t num_threads = 1;
  AdmissionConfig admission;
  DegradationConfig degradation;
  /// Rows the brute-force fallback scans per query (0 = whole dataset).
  uint32_t fallback_shard = 4096;
  /// Backend for degradation tiers with mode == ServeMode::kQuantized: a
  /// built `SQ8:<Algo>` (or loaded) quantized index over the same dataset,
  /// outliving the engine. When null, quantized tiers serve on the primary
  /// backend (caps still apply) — configuring a quantized tier without a
  /// quantized index degrades parameters only, never fails.
  const AnnIndex* quantized_index = nullptr;
  /// Dataset for ServeMode::kBruteForce tiers (exact scan of last resort).
  /// When null, brute-force tiers fall back to the primary backend unless
  /// the engine is already in fallback mode (which has its own dataset).
  const Dataset* degrade_data = nullptr;
  /// Serving clock; nullptr = process SteadyClock. Tests inject a
  /// VirtualClock for reproducible deadline/overload behavior.
  const Clock* clock = nullptr;
  /// Metrics registry to record the `serving.*` (and nested `search.*`,
  /// `shard.*`) instruments into. nullptr = the engine owns a private
  /// registry, still reachable via ServingEngine::metrics(). A non-null
  /// registry must outlive the engine; share one to aggregate several
  /// engines into a single snapshot.
  MetricsRegistry* metrics = nullptr;
};

class ServingEngine {
 public:
  /// Serves `index` (built, outlives the engine, treated as immutable).
  ServingEngine(const AnnIndex& index, ServingConfig config);

  /// Fallback-only engine: exact brute force over a bounded shard of
  /// `data`; every outcome is tagged degraded. This is the mode
  /// FromSavedGraph drops into when the index cannot be loaded.
  ServingEngine(const Dataset& data, ServingConfig config);

  /// Serves a live mutable index (docs/MUTATION.md): queries scatter-gather
  /// across its epoch snapshots, and ServeMutation admits writes through
  /// the same bounded in-flight budget as reads. `index` must outlive the
  /// engine; its `mutation.*` counters land in this engine's registry.
  ServingEngine(MutableShardedIndex& index, ServingConfig config);

  ~ServingEngine();
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  struct Opened {
    std::unique_ptr<ServingEngine> engine;  // never null
    /// OK when the graph loaded clean; the load/corruption Status when the
    /// engine had to fall back to brute force.
    Status load_status;
  };

  /// Opens a saved graph (checksummed format of core/graph_io.h) over its
  /// dataset and serves best-first search on it. On kIOError/kCorruption —
  /// or a graph whose vertex count does not match `data` — the engine
  /// comes up in brute-force fallback mode instead of failing: degraded
  /// availability beats unavailability for a replica that can be repaired
  /// out of band.
  static Opened FromSavedGraph(const std::string& path, const Dataset& data,
                               ServingConfig config);

  /// Opens a saved *sharded* index (shard manifest + per-shard graph files,
  /// docs/SHARDING.md) over its dataset. Failure isolation is per shard: a
  /// corrupt or missing shard file degrades only that shard to an exact
  /// scan (outcomes are tagged degraded, load_status carries the first
  /// shard failure) while the other shards keep serving graph search. Only
  /// a corrupt manifest — the root of trust — drops the whole engine into
  /// the brute-force fallback, as FromSavedGraph does.
  static Opened FromShardManifest(const std::string& manifest_path,
                                  const Dataset& data, ServingConfig config);

  /// Opens a saved graph plus its WVSSQNT1 quantized codes
  /// (quant/quant_io.h) and serves two-stage quantized search (traverse on
  /// SQ8 codes, rescore with exact floats) as the healthy path. Corruption
  /// degrades, never fails: a bad graph falls back to brute force like
  /// FromSavedGraph; bad codes (load failure or a graph/codes shape
  /// mismatch) fall back to float-row graph traversal with load_status
  /// carrying the codes' failure — float traversal is full quality, just
  /// without the quantized memory savings.
  static Opened FromSavedGraphWithCodes(const std::string& graph_path,
                                        const std::string& codes_path,
                                        const Dataset& data,
                                        ServingConfig config);

  /// Rebuilds one degraded shard from the manifest-recorded build options
  /// (bit-for-bit the original graph), rewrites its file, and restores the
  /// shard to graph search. Only valid on a FromShardManifest engine
  /// (kInvalidArgument otherwise). Requires quiescence: the caller must
  /// drain in-flight queries first, exactly like swapping an index.
  Status RepairShard(uint32_t shard);

  /// The sharded index behind a FromShardManifest engine (nullptr
  /// otherwise); shard_status/num_degraded_shards live there.
  const ShardedIndex* sharded_index() const { return sharded_; }

  /// One request, executed on the calling thread. Thread-safe: concurrent
  /// callers contend for admission slots exactly like real traffic. A
  /// sharded backend fans its legs out over the shared pool, unless the
  /// caller is itself a task of a multi-stream batch.
  ServeOutcome Serve(const float* query, const RequestOptions& request = {});

  /// A burst of requests sharing one RequestOptions: admission and tier
  /// decisions for the whole burst are made first, in query order, then the
  /// admitted queries fan across the engine's threads. Capacity therefore
  /// bounds how much of a single burst is absorbed. With more than one
  /// execution stream each query runs a sharded backend's legs inline.
  ServeBatchResult ServeBatch(const Dataset& queries,
                              const RequestOptions& request = {});
  ServeBatchResult ServeBatch(const std::vector<const float*>& queries,
                              const RequestOptions& request = {});

  /// One write, admitted under the same in-flight budget as queries and
  /// classified into exactly one terminal `mutation.*` counter. Thread-safe
  /// and safe to interleave with Serve/ServeBatch: the index applies writes
  /// under its own writer lock while queries keep reading pinned snapshots.
  /// On a non-mutable engine the request fails (and is counted failed) —
  /// the invariant holds on every engine.
  MutationOutcome ServeMutation(const MutationRequest& request);

  /// The mutable index behind a mutable engine (nullptr otherwise).
  MutableShardedIndex* mutable_index() const { return mutable_; }
  /// Totals across every ServeMutation since construction.
  MutationReport mutation_report() const;

  /// True when serving brute-force fallback instead of a graph index.
  bool fallback_mode() const {
    return engine_ == nullptr && mutable_ == nullptr;
  }
  uint32_t num_threads() const { return config_.num_threads; }
  uint32_t current_tier() const;
  AdmissionStats admission_stats() const { return admission_.stats(); }
  /// Live admission-capacity change (0 = drain mode). Nothing in flight is
  /// evicted; new requests are rejected until completions bring the depth
  /// back under the new bound. Safe to call while traffic is running.
  void SetCapacity(uint32_t capacity) { admission_.set_capacity(capacity); }
  /// Totals across every Serve/ServeBatch since construction.
  ServingReport lifetime_report() const;
  const Clock& clock() const { return *clock_; }

  /// The registry every serving counter lands in (config-provided or
  /// engine-owned). Never null.
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Refreshes the point-in-time gauges (in-flight, tier, degraded shards)
  /// and returns the registry's versioned JSON snapshot. Excluding timing
  /// yields the deterministic core that is bit-for-bit identical across
  /// thread counts for a fixed submission sequence under a VirtualClock
  /// (docs/OBSERVABILITY.md).
  std::string SnapshotMetrics(bool include_timing = true) const;

 private:
  ServingEngine(std::unique_ptr<AnnIndex> owned_index, ServingConfig config);
  /// The body every constructor delegates to: metrics, pools, admission,
  /// the ladder, and the SearchEngine over `index` (none when null). Each
  /// public constructor then sets its own backend member.
  ServingEngine(ServingConfig config, const AnnIndex* index);

  /// Admission + deadline + tier decision for one request; must hold mu_.
  /// Returns true when admitted (tier filled in); false when shed (outcome
  /// filled in and accounted into lifetime_ and `batch_report`).
  bool AdmitLocked(const RequestOptions& request, uint64_t now_us,
                   ServeOutcome* outcome, uint32_t* tier,
                   ServingReport* batch_report);

  /// Classifies an outcome into lifetime_ (and `batch_report` when given);
  /// must hold mu_.
  void RecordOutcomeLocked(const ServeOutcome& outcome,
                           ServingReport* batch_report);

  /// Runs one admitted request on the calling thread: dequeue-time deadline
  /// recheck, tier application, search or fallback scan. Does not touch
  /// admission or ladder state.
  ServeOutcome Execute(const float* query, const RequestOptions& request,
                       uint32_t tier, uint64_t admit_us) const;

  std::vector<uint32_t> FallbackSearch(const Dataset& data, const float* query,
                                       const SearchParams& params,
                                       QueryStats* stats) const;

  const ServingConfig config_;
  const Clock* clock_;
  // Declared before engine_: the SearchEngine is constructed with a pointer
  // into this registry, and members initialize in declaration order.
  std::unique_ptr<MetricsRegistry> own_metrics_;  // null when config_.metrics
  MetricsRegistry* metrics_;                      // never null
  const Dataset* fallback_data_ = nullptr;   // fallback mode only
  std::unique_ptr<AnnIndex> owned_index_;    // FromSavedGraph healthy path
  ShardedIndex* sharded_ = nullptr;          // owned_index_, when sharded
  MutableShardedIndex* mutable_ = nullptr;   // mutable-index engines only
  std::unique_ptr<SearchEngine> engine_;     // null in fallback/mutable mode
  // Secondary engine over config_.quantized_index, serving kQuantized
  // degradation tiers (null when no quantized index is configured).
  std::unique_ptr<SearchEngine> quant_engine_;
  mutable ThreadPool pool_;                  // ServeBatch execution streams
  AdmissionController admission_;
  mutable std::mutex mu_;                    // ladder + lifetime totals
  DegradationLadder ladder_;
  ServingReport lifetime_;
  MutationReport mutation_lifetime_;         // guarded by mu_
  // Serve mode of the most recent admission decision; quant.tier_transitions
  // counts its edges. Guarded by mu_ (admission order = transition order).
  ServeMode last_mode_ = ServeMode::kExact;
};

/// Exact top-k ids (ascending distance, ties by id) over the first
/// min(data.size(), shard) rows; shard 0 means the whole dataset. This is
/// the scan behind fallback mode, exposed so tests can check fallback
/// results against an independently computed answer.
std::vector<uint32_t> BruteForceTopK(const Dataset& data, const float* query,
                                     uint32_t k, uint32_t shard = 0,
                                     QueryStats* stats = nullptr);

}  // namespace weavess

#endif  // WEAVESS_SEARCH_SERVING_H_
