#include "search/replica_set.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "core/check.h"
#include "shard/replica_manifest.h"

namespace weavess {

namespace {

// SplitMix64 finalizer: the bit mixer behind the rendezvous scores.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FNV-1a over the query's raw float bytes: stable across runs and thread
// counts, sensitive to every bit of the vector.
uint64_t HashQuery(const float* query, uint32_t dim) {
  uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(query);
  for (size_t i = 0; i < size_t{dim} * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

ReplicaSet::ReplicaSet(ReplicaSetConfig config)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : &SteadyClock()),
      own_metrics_(config_.metrics != nullptr ? nullptr
                                              : new MetricsRegistry()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : own_metrics_.get()),
      pool_(config_.num_threads > 0 ? config_.num_threads - 1 : 0) {
  WEAVESS_CHECK(config_.num_threads >= 1);
  WEAVESS_CHECK(config_.dim > 0 && "ReplicaSetConfig::dim is required");
}

ReplicaSet::~ReplicaSet() = default;

uint32_t ReplicaSet::AddReplicaLocked(std::unique_ptr<ServingEngine> engine,
                                      std::string label,
                                      std::string source_path,
                                      bool source_is_shard_manifest) {
  WEAVESS_CHECK(engine != nullptr);
  const auto r = static_cast<uint32_t>(replicas_.size());
  auto replica = std::make_unique<Replica>(
      Replica{std::move(engine),
              label.empty() ? "replica" + std::to_string(r) : std::move(label),
              HealthTracker(config_.health), std::move(source_path),
              source_is_shard_manifest});
  const std::string prefix = "replica." + std::to_string(r) + ".";
  replica->routed = metrics_->GetCounter(prefix + "routed");
  replica->attempt_count = metrics_->GetCounter(prefix + "attempts");
  replica->attempt_failures =
      metrics_->GetCounter(prefix + "attempt_failures");
  replica->probe_count = metrics_->GetCounter(prefix + "probes");
  replica->quarantine_counter = metrics_->GetCounter(prefix + "quarantines");
  replica->state_gauge = metrics_->GetGauge(prefix + "state");
  replica->state_gauge->Set(
      static_cast<uint64_t>(replica->tracker.state()));
  replicas_.push_back(std::move(replica));
  return r;
}

uint32_t ReplicaSet::AddReplica(std::unique_ptr<ServingEngine> engine,
                                std::string label) {
  std::lock_guard<std::mutex> lock(mu_);
  return AddReplicaLocked(std::move(engine), std::move(label), {}, false);
}

uint32_t ReplicaSet::AddReplica(const AnnIndex& index, ServingConfig serving,
                                std::string label) {
  if (serving.clock == nullptr) serving.clock = config_.clock;
  serving.metrics = metrics_;
  auto engine = std::make_unique<ServingEngine>(index, std::move(serving));
  return AddReplica(std::move(engine), std::move(label));
}

StatusOr<ReplicaSet::Opened> ReplicaSet::FromReplicaManifest(
    const std::string& path, const Dataset& data, ReplicaSetConfig config,
    ServingConfig per_replica) {
  StatusOr<ReplicaManifest> manifest_or = LoadReplicaManifest(path);
  WEAVESS_RETURN_IF_ERROR(manifest_or.status());
  if (manifest_or->replicas.empty()) {
    return Status::Corruption("replica-set manifest lists no replicas");
  }
  Opened opened;
  opened.set.reset(new ReplicaSet(std::move(config)));
  ReplicaSet& set = *opened.set;
  set.manifest_data_ = &data;
  set.manifest_serving_ = per_replica;
  for (uint32_t r = 0; r < manifest_or->replicas.size(); ++r) {
    const ReplicaManifest::Entry& entry = manifest_or->replicas[r];
    const std::string resolved = ResolveShardPath(path, entry.path);
    // The recorded file CRC distinguishes "this replica's source rotted"
    // from "this replica is fine" before the (costlier) load even starts;
    // either way the replica comes up — degraded at worst, never absent.
    Status condition;
    StatusOr<uint32_t> crc_or = FileCrc32c(resolved);
    if (!crc_or.ok()) {
      condition = crc_or.status();
    } else if (*crc_or != entry.file_crc32c) {
      condition = Status::Corruption(
          "replica " + std::to_string(r) + " file " + resolved +
          " CRC32C does not match the replica-set manifest");
    }
    ServingConfig serving = per_replica;
    if (serving.clock == nullptr) serving.clock = set.config_.clock;
    serving.metrics = set.metrics_;
    ServingEngine::Opened eng =
        entry.kind == ReplicaManifest::Kind::kShardManifest
            ? ServingEngine::FromShardManifest(resolved, data,
                                               std::move(serving))
            : ServingEngine::FromSavedGraph(resolved, data,
                                            std::move(serving));
    if (condition.ok() && !eng.load_status.ok()) {
      condition = eng.load_status;
    }
    {
      std::lock_guard<std::mutex> lock(set.mu_);
      set.AddReplicaLocked(
          std::move(eng.engine), "replica" + std::to_string(r), resolved,
          entry.kind == ReplicaManifest::Kind::kShardManifest);
    }
    opened.replica_status.push_back(std::move(condition));
  }
  return opened;
}

std::vector<uint32_t> ReplicaSet::RouteOrderLocked(
    const float* query) const {
  const uint64_t query_hash = HashQuery(query, config_.dim);
  struct Candidate {
    bool quarantined;
    uint64_t score;
    uint32_t replica;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(replicas_.size());
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    candidates.push_back(Candidate{
        replicas_[r]->tracker.state() == HealthState::kQuarantined,
        Mix64(query_hash ^ Mix64(config_.seed + r)), r});
  }
  // Routable replicas first by descending rendezvous weight; quarantined
  // ones sort last as last-resort failover candidates — a fully-broken
  // fleet still answers with whatever it has.
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.quarantined != b.quarantined) return b.quarantined;
              if (a.score != b.score) return a.score > b.score;
              return a.replica < b.replica;
            });
  std::vector<uint32_t> order;
  order.reserve(candidates.size());
  for (const Candidate& c : candidates) order.push_back(c.replica);
  return order;
}

std::vector<uint32_t> ReplicaSet::RouteOrder(const float* query) const {
  std::lock_guard<std::mutex> lock(mu_);
  WEAVESS_CHECK(!replicas_.empty());
  return RouteOrderLocked(query);
}

void ReplicaSet::Backoff(uint64_t wait_us) const {
  if (config_.wait_fn) {
    config_.wait_fn(wait_us);
    return;
  }
  if (config_.clock == nullptr) {
    std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
  }
  // Injected clock: the test drives time explicitly; the deadline-budget
  // check above already charged the decision, so waiting would deadlock
  // determinism, not improve it.
}

ReplicaSet::PlanResult ReplicaSet::ExecutePlan(
    const float* query, const RequestOptions& request,
    const std::vector<uint32_t>& plan) const {
  PlanResult pr;
  RoutedOutcome& out = pr.routed;
  out.replica = plan.front();
  const uint64_t now0 = clock_->NowMicros();
  if (request.deadline_us > 0 && now0 >= request.deadline_us) {
    out.outcome.status = Status::DeadlineExceeded(
        "deadline exceeded: expired before routing");
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kShedDeadline, 0);
    }
    return pr;  // attempts == 0: counted failed, no replica blamed
  }
  const bool hedge_armed =
      config_.hedge_after_us > 0 && plan.size() >= 2;

  const auto attempt = [&](uint32_t r, const RequestOptions& options) {
    ServeOutcome o = replicas_[r]->engine->Serve(query, options);
    ++out.attempts;
    pr.attempts.push_back(
        AttemptRecord{r, !o.status.ok(), o.latency_us});
    return o;
  };

  // Primary attempt. With hedging armed its time budget is capped at the
  // hedge threshold: a slow primary hands back its truncated best-so-far
  // right when the hedge fires — the "loser" is cancelled by its budget,
  // not by a signal.
  RequestOptions primary_request = request;
  if (hedge_armed) {
    uint64_t& budget = primary_request.params.time_budget_us;
    budget = budget == 0 ? config_.hedge_after_us
                         : std::min(budget, config_.hedge_after_us);
  }
  ServeOutcome primary = attempt(plan[0], primary_request);
  const bool hedge_fires =
      hedge_armed && (!primary.status.ok() || primary.stats.truncated);
  if (hedge_fires) {
    // A hedged-away primary is a slowness signal for its health tracker
    // even when it completed (truncated).
    pr.attempts.back().failure_sample = true;
  }
  if (primary.status.ok() && !hedge_fires) {
    out.outcome = std::move(primary);
    return pr;  // completed on the primary
  }

  size_t next = 1;
  ServeOutcome last_failed;
  if (!primary.status.ok()) last_failed = primary;

  if (hedge_fires && next < plan.size()) {
    const uint32_t hedge_replica = plan[next++];
    out.hedged = true;
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kHedge, hedge_replica);
    }
    ServeOutcome hedge = attempt(hedge_replica, request);
    if (hedge.status.ok()) {
      out.outcome = std::move(hedge);
      out.replica = hedge_replica;
      out.hedge_won = true;
      return pr;
    }
    last_failed = std::move(hedge);
    if (primary.status.ok()) {
      // The hedge lost; the primary's truncated-but-valid answer stands.
      out.outcome = std::move(primary);
      return pr;  // completed (degraded/truncated primary)
    }
  }

  // Bounded failover down the candidate order. Each retry pays an
  // exponential backoff first; a retry whose backoff cannot fit in the
  // remaining deadline budget is abandoned, not attempted late.
  while (next < plan.size() && out.failovers < config_.max_failover) {
    const uint32_t attempt_number = out.failovers + 1;
    const uint64_t shift = attempt_number - 1;
    const uint64_t backoff =
        shift >= 63 ? config_.backoff_max_us
                    : std::min(config_.backoff_base_us << shift,
                               config_.backoff_max_us);
    if (request.deadline_us > 0 &&
        clock_->NowMicros() + backoff >= request.deadline_us) {
      break;
    }
    Backoff(backoff);
    const uint32_t r = plan[next++];
    ++out.failovers;
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kFailover, r, attempt_number);
    }
    ServeOutcome retry = attempt(r, request);
    if (retry.status.ok()) {
      out.outcome = std::move(retry);
      out.replica = r;
      return pr;  // failed over
    }
    last_failed = std::move(retry);
  }

  out.outcome = std::move(last_failed);
  if (!pr.attempts.empty()) out.replica = pr.attempts.back().replica;
  return pr;
}

void ReplicaSet::ApplyOutcomeLocked(const PlanResult& result,
                                    TraceSink* trace,
                                    ReplicaReport* batch_report) {
  const uint64_t now = clock_->NowMicros();
  // Health first, in attempt order: the trackers see the same sequence the
  // wire saw.
  for (const AttemptRecord& record : result.attempts) {
    Replica& rep = *replicas_[record.replica];
    rep.attempt_count->Add(1);
    bool changed;
    if (record.failure_sample) {
      rep.attempt_failures->Add(1);
      changed = rep.tracker.OnFailure(now);
    } else {
      changed = rep.tracker.OnSuccess(now, record.latency_us);
    }
    if (changed) {
      const HealthState after = rep.tracker.state();
      rep.state_gauge->Set(static_cast<uint64_t>(after));
      if (after == HealthState::kQuarantined) {
        ++lifetime_.quarantines;
        rep.quarantine_counter->Add(1);
        metrics_->GetCounter("replica.quarantines")->Add(1);
      }
      if (trace != nullptr) {
        trace->Record(TraceEventKind::kHealthChange, record.replica,
                      static_cast<uint64_t>(after));
      }
    }
  }
  // Exactly one terminal counter per routed query — the invariant
  //   replica.routed == completed + failed_over + hedge_won + failed
  // that replica_chaos_test asserts over every snapshot.
  const RoutedOutcome& out = result.routed;
  enum class Terminal { kCompleted, kFailedOver, kHedgeWon, kFailed };
  const Terminal terminal =
      !out.outcome.status.ok() ? Terminal::kFailed
      : out.hedge_won          ? Terminal::kHedgeWon
      : out.failovers > 0      ? Terminal::kFailedOver
                               : Terminal::kCompleted;
  const auto apply = [&out, terminal](ReplicaReport& report) {
    ++report.routed;
    report.failover_attempts += out.failovers;
    if (out.hedged) ++report.hedges_sent;
    switch (terminal) {
      case Terminal::kCompleted:
        ++report.completed;
        break;
      case Terminal::kFailedOver:
        ++report.failed_over;
        break;
      case Terminal::kHedgeWon:
        ++report.hedge_won;
        break;
      case Terminal::kFailed:
        ++report.failed;
        break;
    }
  };
  apply(lifetime_);
  if (batch_report != nullptr) apply(*batch_report);
  metrics_->GetCounter("replica.routed")->Add(1);
  if (!result.attempts.empty()) {
    replicas_[result.attempts.front().replica]->routed->Add(1);
  }
  if (out.failovers > 0) {
    metrics_->GetCounter("replica.failover_attempts")->Add(out.failovers);
  }
  if (out.hedged) metrics_->GetCounter("replica.hedges")->Add(1);
  switch (terminal) {
    case Terminal::kCompleted:
      metrics_->GetCounter("replica.completed")->Add(1);
      break;
    case Terminal::kFailedOver:
      metrics_->GetCounter("replica.failed_over")->Add(1);
      break;
    case Terminal::kHedgeWon:
      metrics_->GetCounter("replica.hedge_won")->Add(1);
      break;
    case Terminal::kFailed:
      metrics_->GetCounter("replica.failed")->Add(1);
      break;
  }
}

void ReplicaSet::ProbeQuarantinedLocked(const float* query,
                                        const SearchParams& params,
                                        TraceSink* trace) {
  const uint64_t now = clock_->NowMicros();
  for (uint32_t r = 0; r < replicas_.size(); ++r) {
    Replica& rep = *replicas_[r];
    if (!rep.tracker.ProbeDue(now)) continue;
    ++lifetime_.probes;
    metrics_->GetCounter("replica.probes")->Add(1);
    rep.probe_count->Add(1);
    RequestOptions probe;
    probe.params = params;
    const ServeOutcome outcome = rep.engine->Serve(query, probe);
    const bool ok = outcome.status.ok();
    if (trace != nullptr) {
      trace->Record(TraceEventKind::kProbe, r, ok ? 1 : 0);
    }
    bool changed = false;
    if (ok) {
      changed = rep.tracker.OnProbeSuccess();
    } else {
      metrics_->GetCounter("replica.probe_failures")->Add(1);
      rep.tracker.OnProbeFailure(now);
    }
    if (changed) {
      rep.state_gauge->Set(static_cast<uint64_t>(rep.tracker.state()));
      if (trace != nullptr) {
        trace->Record(TraceEventKind::kHealthChange, r,
                      static_cast<uint64_t>(rep.tracker.state()));
      }
    }
  }
}

void ReplicaSet::ProbeQuarantined(const float* query,
                                  const SearchParams& params) {
  std::lock_guard<std::mutex> lock(mu_);
  ProbeQuarantinedLocked(query, params, nullptr);
}

RoutedOutcome ReplicaSet::Serve(const float* query,
                                const RequestOptions& request) {
  std::vector<uint32_t> plan;
  {
    std::lock_guard<std::mutex> lock(mu_);
    WEAVESS_CHECK(!replicas_.empty());
    ProbeQuarantinedLocked(query, request.params, request.trace);
    plan = RouteOrderLocked(query);
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kRoute, plan.front());
    }
  }
  PlanResult result = ExecutePlan(query, request, plan);
  std::lock_guard<std::mutex> lock(mu_);
  ApplyOutcomeLocked(result, request.trace, nullptr);
  return result.routed;
}

ReplicaBatchResult ReplicaSet::ServeBatch(const Dataset& queries,
                                          const RequestOptions& request) {
  std::vector<const float*> rows(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) rows[q] = queries.Row(q);
  return ServeBatch(rows, request);
}

ReplicaBatchResult ReplicaSet::ServeBatch(
    const std::vector<const float*>& queries, const RequestOptions& request) {
  const auto n = static_cast<uint32_t>(queries.size());
  ReplicaBatchResult result;
  result.outcomes.resize(n);
  std::vector<std::vector<uint32_t>> plans(n);
  {
    // Probes and routing plans for the whole burst, in query order,
    // against one health snapshot — the sequential decision prefix that
    // makes the trace thread-count-invariant.
    std::lock_guard<std::mutex> lock(mu_);
    WEAVESS_CHECK(!replicas_.empty());
    if (n > 0) {
      ProbeQuarantinedLocked(queries[0], request.params, request.trace);
    }
    for (uint32_t q = 0; q < n; ++q) {
      plans[q] = RouteOrderLocked(queries[q]);
      if (request.trace != nullptr) {
        request.trace->Record(TraceEventKind::kRoute, plans[q].front());
      }
    }
  }
  // A TraceSink is single-query state: with more than one execution stream
  // the per-attempt hedge/failover events are dropped (they would record
  // from worker threads in arrival order), keeping only the sequential
  // routing prefix above and the post-barrier health events below.
  RequestOptions exec_request = request;
  if (config_.num_threads > 1) exec_request.trace = nullptr;
  std::vector<PlanResult> plan_results(n);
  pool_.RunTasks(n, [&](uint32_t q) {
    plan_results[q] = ExecutePlan(queries[q], exec_request, plans[q]);
  });
  // Post-barrier accounting in submission order: health transitions and
  // terminal counters are deterministic even though execution interleaved,
  // so kHealthChange events go to the caller's sink at any thread count.
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t q = 0; q < n; ++q) {
    result.outcomes[q] = plan_results[q].routed;
    ApplyOutcomeLocked(plan_results[q], request.trace, &result.report);
  }
  return result;
}

Status ReplicaSet::RepairReplica(uint32_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  if (replica >= replicas_.size()) {
    return Status::InvalidArgument("replica " + std::to_string(replica) +
                                   " out of range for " +
                                   std::to_string(replicas_.size()) +
                                   " replicas");
  }
  Replica& rep = *replicas_[replica];
  if (rep.engine->fallback_mode()) {
    if (rep.source_path.empty() || manifest_data_ == nullptr) {
      return Status::InvalidArgument(
          "replica " + std::to_string(replica) +
          " has no recorded source file to reload from");
    }
    ServingConfig serving = manifest_serving_;
    if (serving.clock == nullptr) serving.clock = config_.clock;
    serving.metrics = metrics_;
    ServingEngine::Opened reopened =
        rep.source_is_shard_manifest
            ? ServingEngine::FromShardManifest(rep.source_path,
                                               *manifest_data_,
                                               std::move(serving))
            : ServingEngine::FromSavedGraph(rep.source_path, *manifest_data_,
                                            std::move(serving));
    if (reopened.engine->fallback_mode()) {
      // Still unloadable: the source on disk was not actually repaired.
      return reopened.load_status.ok()
                 ? Status::Corruption("replica source still unloadable")
                 : reopened.load_status;
    }
    // Engine swap requires quiescence on this replica (see header), the
    // same contract as RepairShard.
    rep.engine = std::move(reopened.engine);
  }
  // A reloaded shard manifest can still carry degraded shards.
  if (const ShardedIndex* sharded = rep.engine->sharded_index()) {
    for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
      if (!sharded->shard_status(s).ok()) {
        WEAVESS_RETURN_IF_ERROR(rep.engine->RepairShard(s));
      }
    }
  }
  metrics_->GetCounter("replica.repairs")->Add(1);
  rep.tracker.OnRepair(clock_->NowMicros());
  return Status::OK();
}

uint32_t ReplicaSet::num_replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<uint32_t>(replicas_.size());
}

HealthState ReplicaSet::replica_state(uint32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  WEAVESS_CHECK(replica < replicas_.size());
  return replicas_[replica]->tracker.state();
}

const std::string& ReplicaSet::replica_label(uint32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  WEAVESS_CHECK(replica < replicas_.size());
  return replicas_[replica]->label;
}

ServingEngine& ReplicaSet::replica(uint32_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  WEAVESS_CHECK(replica < replicas_.size());
  return *replicas_[replica]->engine;
}

const ServingEngine& ReplicaSet::replica(uint32_t replica) const {
  std::lock_guard<std::mutex> lock(mu_);
  WEAVESS_CHECK(replica < replicas_.size());
  return *replicas_[replica]->engine;
}

ReplicaReport ReplicaSet::lifetime_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_;
}

std::string ReplicaSet::SnapshotMetrics(bool include_timing) const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t quarantined = 0;
  for (const std::unique_ptr<Replica>& rep : replicas_) {
    rep->state_gauge->Set(static_cast<uint64_t>(rep->tracker.state()));
    if (rep->tracker.state() == HealthState::kQuarantined) ++quarantined;
    // Refresh that engine's serving gauges in the shared registry; the
    // JSON it renders is discarded — one ToJson below covers the tier.
    rep->engine->SnapshotMetrics(false);
  }
  metrics_->GetGauge("replica.count")->Set(replicas_.size());
  metrics_->GetGauge("replica.quarantined")->Set(quarantined);
  return metrics_->ToJson(include_timing);
}

}  // namespace weavess
