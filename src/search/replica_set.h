// Replicated serving tier (docs/SERVING.md): N replicas, each a full
// ServingEngine (loaded graph, shard manifest, or injected backend), behind
// one front door that
//
//   1. Routes — deterministic rendezvous (highest-random-weight) hashing
//      over the currently routable replicas picks a primary and a full
//      candidate order per query, so the same query prefers the same
//      replica (cache affinity) and traffic redistributes minimally when a
//      replica drops out.
//   2. Tracks health — a per-replica HealthTracker (search/health.h) folds
//      each replica's outcome stream into healthy/suspect/quarantined with
//      hysteresis; quarantined replicas stop receiving primary traffic and
//      are probed back to life with exponential backoff.
//   3. Fails over — a failed primary attempt retries down the candidate
//      order, bounded by max_failover and an exponential backoff that is
//      skipped entirely when it cannot fit in the remaining deadline
//      budget.
//   4. Hedges — optionally, a primary attempt is budget-capped at
//      hedge_after_us; if it comes back truncated or failed, a second send
//      goes to the next candidate with the full remaining budget. First
//      success wins; the loser was already cancelled by its budget.
//   5. Repairs — RepairReplica reloads a fallback replica from its
//      manifest-recorded source, then rebuilds degraded shards
//      (RepairShard), and ProbeQuarantined re-admits repaired replicas
//      through probe traffic.
//
// Determinism: routing plans and health transitions are computed
// sequentially, in request-submission order, under one lock — never on
// worker threads. A plan is fixed at submission; workers only execute it.
// Within one ServeBatch burst every query routes against the same health
// snapshot, and outcomes are folded back into the trackers post-barrier in
// submission order, so for a fixed submission sequence and fault schedule
// the route/failover/hedge trace is bit-for-bit identical at any
// num_threads (tests/replica_chaos_test.cc drives this under a
// VirtualClock). The engine-level prerequisites are the same as ServeBatch:
// per-replica admission capacity at least the burst's concurrency and no
// per-replica degradation tiers, or those engine-local decisions may
// interleave-depend.
//
// Accounting: every routed query lands in exactly one terminal counter —
//   replica.routed == replica.completed + replica.failed_over
//                     + replica.hedge_won + replica.failed
// — the replicated mirror of the serving.* invariant, asserted at every
// snapshot by the chaos suite (docs/OBSERVABILITY.md).
#ifndef WEAVESS_SEARCH_REPLICA_SET_H_
#define WEAVESS_SEARCH_REPLICA_SET_H_

#include <cstdint>
#include <functional>
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
#include "search/health.h"
#include "search/serving.h"

namespace weavess {

struct ReplicaSetConfig {
  /// Execution streams for ServeBatch (>= 1, counting the caller).
  /// Replica engines should be built with num_threads 1 — parallelism
  /// lives at the set level, one worker per in-flight query.
  uint32_t num_threads = 1;
  /// Vector dimensionality; queries are hashed over dim floats for
  /// rendezvous routing. Must match the replicas' datasets.
  uint32_t dim = 0;
  /// Health hysteresis shared by every replica's tracker.
  HealthConfig health;
  /// Failover attempts after the primary (0 disables failover).
  uint32_t max_failover = 2;
  /// Exponential failover backoff: attempt i waits
  /// min(backoff_base_us << (i-1), backoff_max_us), skipped — and the
  /// failover abandoned — when the wait cannot fit in the remaining
  /// deadline budget.
  uint64_t backoff_base_us = 200;
  uint64_t backoff_max_us = 5000;
  /// Hedged second-sends: cap the primary attempt's time budget here and
  /// send to the next candidate if the primary comes back truncated or
  /// failed. 0 disables hedging.
  uint64_t hedge_after_us = 0;
  /// Salt for the rendezvous hash (vary to decorrelate deployments).
  uint64_t seed = 0x7e91ca5e;
  /// Set clock; nullptr = process SteadyClock. Deadlines, backoff budgets,
  /// and probe scheduling all read this.
  const Clock* clock = nullptr;
  /// Registry for the replica.* instruments; shared with the replica
  /// engines created through AddReplica/FromReplicaManifest so one
  /// snapshot covers the whole tier. nullptr = the set owns a registry.
  MetricsRegistry* metrics = nullptr;
  /// Failover backoff waiter. Default: sleep on the real clock when
  /// `clock` is null, no-op under an injected clock (tests drive time
  /// explicitly; the deadline-budget check still applies either way).
  std::function<void(uint64_t wait_us)> wait_fn;
};

/// One query's outcome through the replicated tier.
struct RoutedOutcome {
  ServeOutcome outcome;
  /// Replica that produced `outcome` (the primary when nothing was routed,
  /// e.g. a deadline that expired before routing).
  uint32_t replica = 0;
  /// Engine attempts spent (primary + hedge + failovers); 0 when the
  /// deadline expired before routing.
  uint32_t attempts = 0;
  uint32_t failovers = 0;
  bool hedged = false;
  bool hedge_won = false;
};

/// Terminal accounting across the tier; the invariant
/// routed == completed + failed_over + hedge_won + failed holds at every
/// snapshot.
struct ReplicaReport {
  uint64_t routed = 0;
  /// Completed on the primary attempt (including a budget-truncated
  /// primary kept after a failed hedge).
  uint64_t completed = 0;
  /// Completed after at least one failover retry.
  uint64_t failed_over = 0;
  /// Completed by a hedged second-send.
  uint64_t hedge_won = 0;
  /// Every attempt exhausted (or the deadline expired before routing).
  uint64_t failed = 0;
  /// Non-terminal extras.
  uint64_t failover_attempts = 0;
  uint64_t hedges_sent = 0;
  uint64_t probes = 0;
  uint64_t quarantines = 0;
};

struct ReplicaBatchResult {
  std::vector<RoutedOutcome> outcomes;
  ReplicaReport report;
};

class ReplicaSet {
 public:
  explicit ReplicaSet(ReplicaSetConfig config);
  ~ReplicaSet();
  ReplicaSet(const ReplicaSet&) = delete;
  ReplicaSet& operator=(const ReplicaSet&) = delete;

  /// Adds a replica behind an already-constructed engine. For the
  /// accounting invariant to aggregate, build the engine with this set's
  /// metrics() in its ServingConfig. Returns the replica id.
  uint32_t AddReplica(std::unique_ptr<ServingEngine> engine,
                      std::string label = {});

  /// Convenience: wraps `index` in a ServingEngine sharing this set's
  /// clock (unless `serving.clock` is set — chaos tests skew individual
  /// replicas) and metrics registry.
  uint32_t AddReplica(const AnnIndex& index, ServingConfig serving,
                      std::string label = {});

  struct Opened {
    std::unique_ptr<ReplicaSet> set;  // never null on OK open
    /// Per-replica condition: OK for a clean load; the CRC-mismatch or
    /// load Status for a replica that came up degraded (it still serves,
    /// via per-shard exact scan or brute-force fallback).
    std::vector<Status> replica_status;
  };

  /// Opens every replica listed in a WVSSREPL1 manifest
  /// (shard/replica_manifest.h) over `data`. A replica whose recorded file
  /// CRC no longer matches disk — or whose file fails its own checksummed
  /// load — degrades (FromSavedGraph / FromShardManifest fallback) instead
  /// of failing the open: it serves reduced quality until RepairReplica
  /// reloads it, and its health tracker quarantines it only if it actually
  /// misbehaves. Only an unreadable/corrupt replica manifest itself fails.
  /// `data` and `config.metrics` (when set) must outlive the set.
  static StatusOr<Opened> FromReplicaManifest(const std::string& path,
                                              const Dataset& data,
                                              ReplicaSetConfig config,
                                              ServingConfig per_replica);

  /// One query through route -> (hedge) -> failover, on the calling
  /// thread. Runs due health probes first, using `query` as the probe.
  RoutedOutcome Serve(const float* query, const RequestOptions& request = {});

  /// A burst sharing one RequestOptions: probes and routing plans for the
  /// whole burst are computed first, in query order, against one health
  /// snapshot; execution fans across the set's threads; outcomes fold back
  /// into health and the terminal counters post-barrier in query order.
  ReplicaBatchResult ServeBatch(const Dataset& queries,
                                const RequestOptions& request = {});
  ReplicaBatchResult ServeBatch(const std::vector<const float*>& queries,
                                const RequestOptions& request = {});

  /// Out-of-band repair: reloads a fallback replica from its
  /// manifest-recorded source file, then rebuilds every degraded shard of
  /// a sharded replica (RepairShard), the reloaded one included. On
  /// success the replica's next probe is due immediately; it re-earns
  /// traffic through probes and live successes rather than being declared
  /// healthy. Requires quiescence on that replica (drain or idle), like
  /// RepairShard itself.
  Status RepairReplica(uint32_t replica);

  /// Runs every due probe (quarantined replicas whose backoff elapsed)
  /// using `query`. Serve/ServeBatch call this implicitly; exposed for
  /// operators that probe on their own schedule.
  void ProbeQuarantined(const float* query, const SearchParams& params);

  /// The candidate order routing would use for `query` right now: primary
  /// first, then failover/hedge candidates. Quarantined replicas sort
  /// last, as last-resort candidates.
  std::vector<uint32_t> RouteOrder(const float* query) const;

  uint32_t num_replicas() const;
  HealthState replica_state(uint32_t replica) const;
  const std::string& replica_label(uint32_t replica) const;
  ServingEngine& replica(uint32_t replica);
  const ServingEngine& replica(uint32_t replica) const;

  /// Totals across every Serve/ServeBatch since construction.
  ReplicaReport lifetime_report() const;
  const Clock& clock() const { return *clock_; }
  MetricsRegistry& metrics() const { return *metrics_; }

  /// Refreshes the tier gauges (per-replica state, quarantined count) plus
  /// every replica engine's serving gauges and returns the shared
  /// registry's versioned JSON snapshot; exclude timing for the
  /// deterministic comparable core (docs/OBSERVABILITY.md).
  std::string SnapshotMetrics(bool include_timing = true) const;

 private:
  struct Replica {
    std::unique_ptr<ServingEngine> engine;
    std::string label;
    HealthTracker tracker;
    /// Manifest-recorded source for RepairReplica reloads (empty when the
    /// replica was injected via AddReplica).
    std::string source_path;
    bool source_is_shard_manifest = false;
    /// Pre-resolved replica.<r>.* instruments.
    Counter* routed = nullptr;
    Counter* attempt_count = nullptr;
    Counter* attempt_failures = nullptr;
    Counter* probe_count = nullptr;
    Counter* quarantine_counter = nullptr;
    Gauge* state_gauge = nullptr;
  };

  /// One engine attempt's digest, folded into health post-barrier.
  struct AttemptRecord {
    uint32_t replica = 0;
    bool failure_sample = false;
    uint64_t latency_us = 0;
  };

  struct PlanResult {
    RoutedOutcome routed;
    std::vector<AttemptRecord> attempts;
  };

  uint32_t AddReplicaLocked(std::unique_ptr<ServingEngine> engine,
                            std::string label, std::string source_path,
                            bool source_is_shard_manifest);
  std::vector<uint32_t> RouteOrderLocked(const float* query) const;
  void ProbeQuarantinedLocked(const float* query, const SearchParams& params,
                              TraceSink* trace);
  /// Executes a fixed routing plan; reads the clock and the replica
  /// engines, touches no set state.
  PlanResult ExecutePlan(const float* query, const RequestOptions& request,
                         const std::vector<uint32_t>& plan) const;
  /// Folds one plan's outcome into health, lifetime_, the terminal
  /// counters, and `batch_report` (when given); must hold mu_.
  void ApplyOutcomeLocked(const PlanResult& result, TraceSink* trace,
                          ReplicaReport* batch_report);
  void Backoff(uint64_t wait_us) const;

  const ReplicaSetConfig config_;
  const Clock* clock_;
  std::unique_ptr<MetricsRegistry> own_metrics_;  // null when config_.metrics
  MetricsRegistry* metrics_;                      // never null
  const Dataset* manifest_data_ = nullptr;  // FromReplicaManifest reloads
  ServingConfig manifest_serving_;          // template for reloads
  mutable ThreadPool pool_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  ReplicaReport lifetime_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_REPLICA_SET_H_
