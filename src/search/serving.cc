#include "search/serving.h"

#include <algorithm>
#include <utility>

#include "core/check.h"
#include "core/graph_io.h"
#include "core/topk_merge.h"
#include "quant/quant_io.h"
#include "quant/quantized_index.h"
#include "search/loaded_index.h"

namespace weavess {

std::vector<uint32_t> BruteForceTopK(const Dataset& data, const float* query,
                                     uint32_t k, uint32_t shard,
                                     QueryStats* stats) {
  return IdsOf(ExactScanTopK(data, query, k, shard, 0, stats));
}

ServingEngine::ServingEngine(ServingConfig config, const AnnIndex* index)
    : config_(std::move(config)),
      clock_(config_.clock != nullptr ? config_.clock : &SteadyClock()),
      own_metrics_(config_.metrics != nullptr ? nullptr
                                              : new MetricsRegistry()),
      metrics_(config_.metrics != nullptr ? config_.metrics
                                          : own_metrics_.get()),
      engine_(index != nullptr
                  ? std::make_unique<SearchEngine>(*index, 1, metrics_)
                  : nullptr),
      quant_engine_(config_.quantized_index != nullptr
                        ? std::make_unique<SearchEngine>(
                              *config_.quantized_index, 1, metrics_)
                        : nullptr),
      pool_(config_.num_threads > 0 ? config_.num_threads - 1 : 0),
      admission_(config_.admission),
      ladder_(config_.degradation) {
  WEAVESS_CHECK(config_.num_threads >= 1);
}

ServingEngine::ServingEngine(const AnnIndex& index, ServingConfig config)
    : ServingEngine(std::move(config), &index) {}

ServingEngine::ServingEngine(const Dataset& data, ServingConfig config)
    : ServingEngine(std::move(config), nullptr) {
  fallback_data_ = &data;
}

ServingEngine::ServingEngine(MutableShardedIndex& index, ServingConfig config)
    : ServingEngine(std::move(config), nullptr) {
  mutable_ = &index;
  // The index's mutation.* counters aggregate into this engine's registry
  // so one snapshot covers queries and writes together.
  index.set_metrics(metrics_);
}

ServingEngine::ServingEngine(std::unique_ptr<AnnIndex> owned_index,
                             ServingConfig config)
    : ServingEngine(std::move(config), owned_index.get()) {
  owned_index_ = std::move(owned_index);
}

ServingEngine::~ServingEngine() = default;

ServingEngine::Opened ServingEngine::FromSavedGraph(const std::string& path,
                                                    const Dataset& data,
                                                    ServingConfig config) {
  Opened opened;
  std::string metadata;
  StatusOr<CsrGraph> graph_or =
      LoadGraphForRows(path, data.size(), &metadata);
  if (graph_or.ok()) {
    opened.engine.reset(new ServingEngine(
        std::make_unique<LoadedGraphIndex>(*std::move(graph_or), data,
                                           std::move(metadata)),
        std::move(config)));
  } else {
    opened.load_status = graph_or.status();
    opened.engine = std::make_unique<ServingEngine>(data, std::move(config));
  }
  return opened;
}

ServingEngine::Opened ServingEngine::FromSavedGraphWithCodes(
    const std::string& graph_path, const std::string& codes_path,
    const Dataset& data, ServingConfig config) {
  Opened opened;
  std::string metadata;
  StatusOr<CsrGraph> graph_or =
      LoadGraphForRows(graph_path, data.size(), &metadata);
  if (!graph_or.ok()) {
    // No usable graph: same whole-index brute-force fallback as
    // FromSavedGraph — a broken codes file cannot make things worse.
    opened.load_status = graph_or.status();
    opened.engine = std::make_unique<ServingEngine>(data, std::move(config));
    return opened;
  }
  StatusOr<QuantizedDataset> codes_or = LoadQuantized(codes_path);
  if (codes_or.ok() &&
      (codes_or->size() != data.size() || codes_or->dim() != data.dim())) {
    codes_or = Status::Corruption(
        "codes/dataset mismatch: codes are " +
        std::to_string(codes_or->size()) + "x" +
        std::to_string(codes_or->dim()) + ", dataset is " +
        std::to_string(data.size()) + "x" + std::to_string(data.dim()));
  }
  if (!codes_or.ok()) {
    // The graph is fine, only the codes are not: serve float-row traversal.
    // That is the *full-quality* backend, so nothing is tagged degraded —
    // load_status carries the codes failure as an informational status.
    opened.load_status = codes_or.status();
    opened.engine.reset(new ServingEngine(
        std::make_unique<LoadedGraphIndex>(*std::move(graph_or), data,
                                           std::move(metadata)),
        std::move(config)));
    return opened;
  }
  opened.engine.reset(new ServingEngine(
      std::make_unique<QuantizedIndex>(*std::move(graph_or),
                                       *std::move(codes_or), data,
                                       std::move(metadata)),
      std::move(config)));
  return opened;
}

ServingEngine::Opened ServingEngine::FromShardManifest(
    const std::string& manifest_path, const Dataset& data,
    ServingConfig config) {
  Opened opened;
  StatusOr<std::unique_ptr<ShardedIndex>> index_or =
      ShardedIndex::Load(manifest_path, data);
  if (!index_or.ok()) {
    // The manifest itself is unusable: same whole-index fallback as a
    // corrupt single graph file.
    opened.load_status = index_or.status();
    opened.engine = std::make_unique<ServingEngine>(data, std::move(config));
    return opened;
  }
  std::unique_ptr<ShardedIndex> index = *std::move(index_or);
  ShardedIndex* sharded = index.get();
  // Surface the first shard failure as the load status — informational:
  // the engine still serves, with only that shard degraded to exact scan.
  for (uint32_t s = 0; s < sharded->num_shards(); ++s) {
    if (!sharded->shard_status(s).ok()) {
      opened.load_status = sharded->shard_status(s);
      break;
    }
  }
  opened.engine.reset(
      new ServingEngine(std::move(index), std::move(config)));
  opened.engine->sharded_ = sharded;
  // Per-shard scatter-gather counters land in the same registry as the
  // serving.* instruments, so one snapshot covers the whole engine.
  sharded->set_metrics(opened.engine->metrics_);
  return opened;
}

Status ServingEngine::RepairShard(uint32_t shard) {
  if (sharded_ == nullptr) {
    return Status::InvalidArgument(
        "RepairShard requires a FromShardManifest engine");
  }
  return sharded_->RepairShard(shard);
}

void ServingEngine::RecordOutcomeLocked(const ServeOutcome& outcome,
                                        ServingReport* batch_report) {
  // Classify once; the report(s) and the terminal counters must agree.
  enum class Terminal { kCompleted, kDeadline, kOverload, kFailed };
  Terminal terminal;
  if (outcome.status.ok()) {
    terminal = Terminal::kCompleted;
  } else if (outcome.status.IsDeadlineExceeded()) {
    terminal = Terminal::kDeadline;
  } else if (outcome.status.IsUnavailable() &&
             outcome.status.message().rfind("overloaded", 0) == 0) {
    terminal = Terminal::kOverload;
  } else {
    terminal = Terminal::kFailed;
  }
  const auto apply = [&outcome, terminal](ServingReport& report) {
    switch (terminal) {
      case Terminal::kCompleted:
        ++report.completed;
        if (outcome.stats.degraded) ++report.degraded;
        if (outcome.tier > report.max_tier) report.max_tier = outcome.tier;
        break;
      case Terminal::kDeadline:
        ++report.shed_deadline;
        break;
      case Terminal::kOverload:
        ++report.shed_overload;
        break;
      case Terminal::kFailed:
        ++report.failed;
        break;
    }
  };
  apply(lifetime_);
  if (batch_report != nullptr) apply(*batch_report);
  // Exactly one terminal counter per outcome — the invariant
  //   serving.submitted == completed + deadline_exceeded
  //                        + rejected_overload + failed
  // that chaos_test asserts over every snapshot.
  switch (terminal) {
    case Terminal::kCompleted:
      metrics_->GetCounter("serving.completed")->Add(1);
      metrics_->GetHistogram("serving.latency_us", DefaultLatencyBucketsUs())
          ->Record(outcome.latency_us);
      if (outcome.stats.degraded) {
        metrics_->GetCounter("serving.degraded")->Add(1);
        metrics_
            ->GetCounter("serving.degraded.tier" +
                         std::to_string(outcome.tier))
            ->Add(1);
      }
      break;
    case Terminal::kDeadline:
      metrics_->GetCounter("serving.deadline_exceeded")->Add(1);
      if (outcome.status.message().rfind("deadline exceeded: shed at dequeue",
                                         0) == 0) {
        metrics_->GetCounter("serving.shed_at_dequeue")->Add(1);
      }
      break;
    case Terminal::kOverload:
      metrics_->GetCounter("serving.rejected_overload")->Add(1);
      break;
    case Terminal::kFailed:
      metrics_->GetCounter("serving.failed")->Add(1);
      break;
  }
}

bool ServingEngine::AdmitLocked(const RequestOptions& request,
                                uint64_t now_us, ServeOutcome* outcome,
                                uint32_t* tier, ServingReport* batch_report) {
  if (request.deadline_us > 0 && now_us >= request.deadline_us) {
    outcome->status = Status::DeadlineExceeded(
        "deadline exceeded: expired before admission");
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kShedDeadline, 0);
    }
    RecordOutcomeLocked(*outcome, batch_report);
    return false;
  }
  uint64_t retry_hint = 0;
  Status admitted = admission_.TryAcquire(&retry_hint);
  if (!admitted.ok()) {
    outcome->status = std::move(admitted);
    outcome->retry_after_us = retry_hint;
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kShedOverload, 0,
                            outcome->retry_after_us);
    }
    RecordOutcomeLocked(*outcome, batch_report);
    return false;
  }
  metrics_->GetCounter("serving.admitted")->Add(1);
  *tier = ladder_.OnSample(admission_.in_flight());
  outcome->tier = *tier;
  // Backend transitions are counted here, under mu_ in submission order, so
  // the quant.tier_transitions count is deterministic at any thread count —
  // the same property the rest of the admission trace has.
  const ServeMode mode = ladder_.ModeFor(*tier);
  if (mode != last_mode_) {
    metrics_->GetCounter("quant.tier_transitions")->Add(1);
    last_mode_ = mode;
  }
  return true;
}

ServeOutcome ServingEngine::Execute(const float* query,
                                    const RequestOptions& request,
                                    uint32_t tier, uint64_t admit_us) const {
  ServeOutcome out;
  out.tier = tier;
  const uint64_t now = clock_->NowMicros();
  // Dequeue-time deadline check: a request that can no longer meet its
  // deadline is shed here, before any distance evaluation.
  if (request.deadline_us > 0 && now >= request.deadline_us) {
    out.status = Status::DeadlineExceeded(
        "deadline exceeded: shed at dequeue before execution");
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kShedDeadline, 1);
    }
    return out;
  }
  SearchParams params = ladder_.Apply(tier, request.params);
  params.clock = clock_;
  if (request.deadline_us > 0) {
    // Convert the remaining time into the routing-level budget, tightest
    // wins, so the walk itself stops at the deadline.
    const uint64_t remaining = request.deadline_us - now;
    params.time_budget_us = params.time_budget_us == 0
                                ? remaining
                                : std::min(params.time_budget_us, remaining);
  }
  // Route by the tier's backend. Every degraded mode falls back to the best
  // backend actually available — a tier asking for a backend this engine
  // does not have serves on the primary instead of failing (the ladder
  // degrades quality, never availability).
  const ServeMode mode = ladder_.ModeFor(tier);
  const Dataset* brute_data =
      config_.degrade_data != nullptr ? config_.degrade_data : fallback_data_;
  try {
    if (mode == ServeMode::kQuantized && quant_engine_ != nullptr) {
      out.ids =
          quant_engine_->SearchOne(query, params, &out.stats, request.trace);
    } else if (mode == ServeMode::kBruteForce && brute_data != nullptr) {
      out.ids = FallbackSearch(*brute_data, query, params, &out.stats);
    } else if (engine_ != nullptr) {
      out.ids = engine_->SearchOne(query, params, &out.stats, request.trace);
    } else if (mutable_ != nullptr) {
      out.ids = mutable_->Search(query, params, &out.stats);
    } else {
      out.ids = FallbackSearch(*fallback_data_, query, params, &out.stats);
    }
  } catch (const std::exception& error) {
    out.ids.clear();
    out.status =
        Status::Unavailable(std::string("backend failure: ") + error.what());
  } catch (...) {
    out.ids.clear();
    out.status = Status::Unavailable("backend failure: unknown exception");
  }
  if (!out.status.ok() && request.trace != nullptr) {
    request.trace->Record(TraceEventKind::kBackendFailure);
  }
  if (out.status.ok() &&
      (tier > 0 || (engine_ == nullptr && mutable_ == nullptr) ||
       (sharded_ != nullptr && sharded_->num_degraded_shards() > 0) ||
       (mutable_ != nullptr && mutable_->num_degraded_shards() > 0))) {
    out.stats.degraded = true;
    if (request.trace != nullptr) {
      request.trace->Record(TraceEventKind::kDegraded, 0, tier);
    }
  }
  out.latency_us = clock_->NowMicros() - admit_us;
  return out;
}

std::vector<uint32_t> ServingEngine::FallbackSearch(const Dataset& data,
                                                    const float* query,
                                                    const SearchParams& params,
                                                    QueryStats* stats) const {
  return IdsOf(ExactScanTopK(data, query, params.k, config_.fallback_shard,
                             params.max_distance_evals, stats));
}

ServeOutcome ServingEngine::Serve(const float* query,
                                  const RequestOptions& request) {
  const uint64_t t0 = clock_->NowMicros();
  ServeOutcome out;
  uint32_t tier = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++lifetime_.submitted;
    metrics_->GetCounter("serving.submitted")->Add(1);
    if (!AdmitLocked(request, t0, &out, &tier, nullptr)) return out;
  }
  out = Execute(query, request, tier, t0);
  admission_.Release();
  std::lock_guard<std::mutex> lock(mu_);
  if (out.status.ok()) ladder_.OnLatency(out.latency_us);
  RecordOutcomeLocked(out, nullptr);
  return out;
}

ServeBatchResult ServingEngine::ServeBatch(const Dataset& queries,
                                           const RequestOptions& request) {
  std::vector<const float*> rows(queries.size());
  for (uint32_t q = 0; q < queries.size(); ++q) rows[q] = queries.Row(q);
  return ServeBatch(rows, request);
}

ServeBatchResult ServingEngine::ServeBatch(
    const std::vector<const float*>& queries, const RequestOptions& request) {
  const auto n = static_cast<uint32_t>(queries.size());
  ServeBatchResult result;
  result.outcomes.resize(n);
  result.report.submitted = n;
  std::vector<uint32_t> accepted;
  accepted.reserve(n);
  std::vector<uint32_t> tiers(n, 0);
  std::vector<uint64_t> admit_us(n, 0);
  {
    // Admission and tier decisions for the whole burst, in query order, on
    // this thread: given the same submission sequence the decision trace is
    // identical at any num_threads (the determinism contract of the chaos
    // suite).
    std::lock_guard<std::mutex> lock(mu_);
    lifetime_.submitted += n;
    metrics_->GetCounter("serving.submitted")->Add(n);
    for (uint32_t q = 0; q < n; ++q) {
      const uint64_t now = clock_->NowMicros();
      if (AdmitLocked(request, now, &result.outcomes[q], &tiers[q],
                      &result.report)) {
        admit_us[q] = now;
        accepted.push_back(q);
      }
    }
  }
  // A TraceSink is single-query state; with more than one execution stream
  // the burst's shared sink only records the sequential admission decisions
  // above, never the parallel executions (see RequestOptions::trace).
  RequestOptions exec_request = request;
  if (config_.num_threads > 1) exec_request.trace = nullptr;
  pool_.RunTasks(static_cast<uint32_t>(accepted.size()), [&](uint32_t t) {
    const uint32_t q = accepted[t];
    result.outcomes[q] =
        Execute(queries[q], exec_request, tiers[q], admit_us[q]);
    admission_.Release();
  });
  // Post-barrier accounting in submission order keeps the ladder's latency
  // signal and the report deterministic even though execution interleaved.
  std::lock_guard<std::mutex> lock(mu_);
  for (uint32_t q : accepted) {
    const ServeOutcome& out = result.outcomes[q];
    if (out.status.ok()) ladder_.OnLatency(out.latency_us);
    RecordOutcomeLocked(out, &result.report);
  }
  return result;
}

MutationOutcome ServingEngine::ServeMutation(const MutationRequest& request) {
  const uint64_t t0 = clock_->NowMicros();
  MutationOutcome out;
  out.id = request.id;
  {
    // Admission decisions in submission order under the same lock as
    // queries: one total order over reads and writes, so the shed trace is
    // reproducible at any thread count.
    std::lock_guard<std::mutex> lock(mu_);
    ++mutation_lifetime_.submitted;
    metrics_->GetCounter("mutation.submitted")->Add(1);
    if (mutable_ == nullptr) {
      out.status = Status::InvalidArgument(
          "ServeMutation requires a mutable-index engine");
      ++mutation_lifetime_.failed;
      metrics_->GetCounter("mutation.failed")->Add(1);
      return out;
    }
    if (request.deadline_us > 0 && t0 >= request.deadline_us) {
      out.status = Status::DeadlineExceeded(
          "deadline exceeded: expired before admission");
      ++mutation_lifetime_.deadline_exceeded;
      metrics_->GetCounter("mutation.deadline_exceeded")->Add(1);
      return out;
    }
    uint64_t retry_hint = 0;
    Status admitted = admission_.TryAcquire(&retry_hint);
    if (!admitted.ok()) {
      out.status = std::move(admitted);
      out.retry_after_us = retry_hint;
      ++mutation_lifetime_.rejected_overload;
      metrics_->GetCounter("mutation.rejected_overload")->Add(1);
      return out;
    }
    metrics_->GetCounter("mutation.admitted")->Add(1);
  }
  // Apply outside mu_: the index serializes writers itself, and holding the
  // admission lock across a write would stall query admission.
  if (request.op == MutationOp::kAdd) {
    StatusOr<uint32_t> id = mutable_->Add(request.vector);
    if (id.ok()) {
      out.id = *id;
    } else {
      out.status = id.status();
    }
  } else {
    out.status = mutable_->Remove(request.id);
  }
  admission_.Release();
  out.latency_us = clock_->NowMicros() - t0;
  // Exactly one terminal counter per request — the mutation mirror of the
  // serving accounting invariant:
  //   mutation.submitted == applied + rejected_overload
  //                         + deadline_exceeded + failed.
  std::lock_guard<std::mutex> lock(mu_);
  if (out.status.ok()) {
    ++mutation_lifetime_.applied;
    metrics_->GetCounter("mutation.applied")->Add(1);
    metrics_->GetHistogram("mutation.latency_us", DefaultLatencyBucketsUs())
        ->Record(out.latency_us);
  } else if (out.status.IsDeadlineExceeded()) {
    ++mutation_lifetime_.deadline_exceeded;
    metrics_->GetCounter("mutation.deadline_exceeded")->Add(1);
  } else {
    ++mutation_lifetime_.failed;
    metrics_->GetCounter("mutation.failed")->Add(1);
  }
  return out;
}

MutationReport ServingEngine::mutation_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return mutation_lifetime_;
}

uint32_t ServingEngine::current_tier() const {
  std::lock_guard<std::mutex> lock(mu_);
  return ladder_.tier();
}

ServingReport ServingEngine::lifetime_report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lifetime_;
}

std::string ServingEngine::SnapshotMetrics(bool include_timing) const {
  // Gauges are point-in-time; refresh them at snapshot edge instead of on
  // every state change.
  metrics_->GetGauge("serving.in_flight")->Set(admission_.in_flight());
  metrics_->GetGauge("serving.current_tier")->Set(current_tier());
  if (sharded_ != nullptr) {
    metrics_->GetGauge("shard.degraded_shards")
        ->Set(sharded_->num_degraded_shards());
  }
  if (mutable_ != nullptr) {
    metrics_->GetGauge("mutation.generation")->Set(mutable_->generation());
    metrics_->GetGauge("mutation.live_size")->Set(mutable_->live_size());
    metrics_->GetGauge("mutation.degraded_shards")
        ->Set(mutable_->num_degraded_shards());
  }
  return metrics_->ToJson(include_timing);
}

}  // namespace weavess
