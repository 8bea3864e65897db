// Replication chaos suite (docs/SERVING.md): drives a 3-replica ReplicaSet
// through killed, corrupted, and slowed replicas under a VirtualClock. The
// acceptance scenarios:
//
//   (a) one replica killed mid-traffic -> every admitted query still
//       completes (zero loss), the dead replica quarantines, and after the
//       fault clears probes walk it back to healthy;
//   (b) a bit-rotted replica comes up degraded (brute-force fallback or
//       degraded shards), keeps serving, and RepairReplica restores it;
//   (c) a slow replica is hedged around: the second send wins, the slow
//       primary's truncated answer is the fallback, and the slowness feeds
//       the same hysteresis as failures;
//   (d) the whole failover/hedge/health decision trace is bit-for-bit
//       identical at 1, 2, and 8 threads, and the terminal-counter
//       invariant routed == completed + failed_over + hedge_won + failed
//       holds at every snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/registry.h"
#include "core/clock.h"
#include "core/crc32c.h"
#include "core/file_io.h"
#include "core/graph_io.h"
#include "core/status.h"
#include "fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "search/health.h"
#include "search/replica_set.h"
#include "search/serving.h"
#include "shard/replica_manifest.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::ChaosConfig;
using ::weavess::testing::ChaosIndex;
using ::weavess::testing::FlipBit;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::TestWorkload;

const TestWorkload& SharedWorkload() {
  static const TestWorkload* const kWorkload =
      new TestWorkload(MakeTestWorkload(400, 8, 24, 3));
  return *kWorkload;
}

const AnnIndex& SharedIndex() {
  static const AnnIndex* const kIndex = [] {
    auto index = CreateAlgorithm("HNSW");
    index->Build(SharedWorkload().workload.base);
    return index.release();
  }();
  return *kIndex;
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// Clock that advances itself by a fixed tick on every read. Attached to
/// one replica's engine it makes that replica deterministically slow — its
/// time budgets trip after budget/tick reads — without moving any shared
/// clock, so the rest of the set is unaffected.
class TickingClock final : public Clock {
 public:
  TickingClock(uint64_t start_us, uint64_t tick_us)
      : now_(start_us), tick_(tick_us) {}

  uint64_t NowMicros() const override {
    return now_.fetch_add(tick_, std::memory_order_relaxed) + tick_;
  }

 private:
  mutable std::atomic<uint64_t> now_;
  uint64_t tick_;
};

/// Fast hysteresis so a handful of bursts covers the whole state machine.
HealthConfig FastHealth() {
  HealthConfig health;
  health.suspect_after = 1;
  health.quarantine_after = 2;
  health.recover_after = 2;
  health.probe_successes = 1;
  health.probe_interval_us = 1000;
  health.probe_backoff_max_us = 8000;
  return health;
}

ServingConfig ReplicaEngineConfig() {
  ServingConfig config;
  config.num_threads = 1;  // parallelism lives at the set level
  config.admission.capacity = 64;
  return config;
}

std::vector<const float*> BurstOf(uint32_t count) {
  const TestWorkload& tw = SharedWorkload();
  std::vector<const float*> queries;
  queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    queries.push_back(tw.workload.queries.Row(i % tw.workload.queries.size()));
  }
  return queries;
}

/// The accounting invariant, asserted against the live counters.
void ExpectTerminalInvariant(const ReplicaSet& set) {
  const MetricsRegistry& metrics = set.metrics();
  EXPECT_EQ(metrics.CounterValue("replica.routed"),
            metrics.CounterValue("replica.completed") +
                metrics.CounterValue("replica.failed_over") +
                metrics.CounterValue("replica.hedge_won") +
                metrics.CounterValue("replica.failed"));
  const ReplicaReport report = set.lifetime_report();
  EXPECT_EQ(report.routed, report.completed + report.failed_over +
                               report.hedge_won + report.failed);
}

// ------------------------------------------------------------- routing

TEST(ReplicaRoutingTest, RendezvousOrderIsDeterministicAndComplete) {
  const TestWorkload& tw = SharedWorkload();
  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  ReplicaSet set(config);
  for (int r = 0; r < 3; ++r) {
    set.AddReplica(SharedIndex(), ReplicaEngineConfig());
  }

  std::vector<uint32_t> primaries(3, 0);
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    SCOPED_TRACE(q);
    const float* query = tw.workload.queries.Row(q);
    const std::vector<uint32_t> order = set.RouteOrder(query);
    // A full candidate order: every replica exactly once.
    std::vector<uint32_t> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, (std::vector<uint32_t>{0, 1, 2}));
    // Deterministic: the same query routes the same way every time.
    EXPECT_EQ(set.RouteOrder(query), order);
    ++primaries[order[0]];
  }
  // Rendezvous hashing spreads primaries across the set (24 queries over 3
  // replicas: each must own some share).
  for (int r = 0; r < 3; ++r) {
    EXPECT_GT(primaries[r], 0u) << "replica " << r << " owns no queries";
  }
}

TEST(ReplicaRoutingTest, SaltChangesAssignmentSameSaltKeepsIt) {
  const TestWorkload& tw = SharedWorkload();
  const auto primaries_for = [&](uint64_t seed) {
    ReplicaSetConfig config;
    config.dim = tw.workload.base.dim();
    config.seed = seed;
    ReplicaSet set(config);
    for (int r = 0; r < 3; ++r) {
      set.AddReplica(SharedIndex(), ReplicaEngineConfig());
    }
    std::vector<uint32_t> primaries;
    for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
      primaries.push_back(set.RouteOrder(tw.workload.queries.Row(q))[0]);
    }
    return primaries;
  };
  const std::vector<uint32_t> base = primaries_for(1);
  EXPECT_EQ(primaries_for(1), base);
  EXPECT_NE(primaries_for(2), base)
      << "a different salt should reshuffle at least one of 24 queries";
}

// --------------------------------------------- scenario (a): killed replica

TEST(ReplicaChaosTest, KilledReplicaZeroLossQuarantineAndRecovery) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(0);
  std::atomic<bool> broken{false};
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.broken = &broken;
  ChaosIndex killable(SharedIndex(), chaos);

  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.max_failover = 2;
  config.clock = &clock;
  ReplicaSet set(config);
  set.AddReplica(SharedIndex(), ReplicaEngineConfig(), "r0");
  const uint32_t victim =
      set.AddReplica(killable, ReplicaEngineConfig(), "r1");
  set.AddReplica(SharedIndex(), ReplicaEngineConfig(), "r2");

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;

  const auto serve_burst = [&](uint32_t count) {
    const ReplicaBatchResult result = set.ServeBatch(BurstOf(count), request);
    // Zero admitted-query loss: no deadline was set, so every query must
    // complete somewhere, dead replica or not.
    for (uint32_t q = 0; q < result.outcomes.size(); ++q) {
      SCOPED_TRACE(q);
      EXPECT_TRUE(result.outcomes[q].outcome.status.ok())
          << result.outcomes[q].outcome.status.ToString();
      EXPECT_EQ(result.outcomes[q].outcome.ids.size(), 10u);
    }
    ExpectTerminalInvariant(set);
    return result;
  };

  // Healthy warm-up: everything completes on its primary.
  const ReplicaBatchResult healthy = serve_burst(12);
  EXPECT_EQ(healthy.report.completed, 12u);
  EXPECT_EQ(healthy.report.failed_over, 0u);

  // Kill the victim mid-traffic. Queries whose rendezvous primary is the
  // victim fail over; two failures put it in quarantine (suspect_after 1,
  // quarantine_after 2).
  broken.store(true);
  const ReplicaBatchResult wounded = serve_burst(12);
  EXPECT_GT(wounded.report.failed_over, 0u);
  EXPECT_EQ(wounded.report.failed, 0u);
  EXPECT_EQ(set.replica_state(victim), HealthState::kQuarantined);

  // Quarantined and still broken: the victim is routed around entirely
  // (its probe is not due yet), so this burst completes on primaries.
  const ReplicaBatchResult routed_around = serve_burst(12);
  EXPECT_EQ(routed_around.report.failed_over, 0u);
  EXPECT_EQ(routed_around.report.completed, 12u);

  // A due probe against the still-broken victim fails and backs off
  // (1000us -> 2000us), keeping it quarantined.
  clock.AdvanceMicros(1500);
  const ReplicaBatchResult probe_fail = serve_burst(4);
  EXPECT_EQ(probe_fail.report.failed_over, 0u);
  EXPECT_EQ(set.replica_state(victim), HealthState::kQuarantined);
  EXPECT_GT(set.metrics().CounterValue("replica.probe_failures"), 0u);

  // Fault clears; the next due probe releases the victim to suspect, and
  // live successes re-earn healthy.
  broken.store(false);
  clock.AdvanceMicros(4000);
  const ReplicaBatchResult probed = serve_burst(12);
  EXPECT_GE(set.metrics().CounterValue("replica.probes"), 2u);
  EXPECT_NE(set.replica_state(victim), HealthState::kQuarantined);
  serve_burst(12);
  EXPECT_EQ(set.replica_state(victim), HealthState::kHealthy);

  const ReplicaReport lifetime = set.lifetime_report();
  EXPECT_EQ(lifetime.failed, 0u) << "no admitted query was ever lost";
  EXPECT_EQ(lifetime.quarantines, 1u);
  EXPECT_EQ(set.metrics().CounterValue("replica." + std::to_string(victim) +
                                       ".quarantines"),
            1u);
}

TEST(ReplicaChaosTest, FailoverTraceNamesReplicaAndAttempt) {
  // Single-threaded single query, full trace: route -> failover events.
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(0);
  std::atomic<bool> broken{true};
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.broken = &broken;
  ChaosIndex killable(SharedIndex(), chaos);

  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.clock = &clock;
  ReplicaSet set(config);
  const uint32_t dead = set.AddReplica(killable, ReplicaEngineConfig());
  set.AddReplica(SharedIndex(), ReplicaEngineConfig());

  // Pick a query whose rendezvous primary is the dead replica.
  const float* query = nullptr;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    if (set.RouteOrder(tw.workload.queries.Row(q))[0] == dead) {
      query = tw.workload.queries.Row(q);
      break;
    }
  }
  ASSERT_NE(query, nullptr);

  TraceSink sink;
  RequestOptions request;
  request.params.k = 10;
  request.trace = &sink;
  const RoutedOutcome out = set.Serve(query, request);
  ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_EQ(out.failovers, 1u);
  EXPECT_NE(out.replica, dead);

  EXPECT_EQ(sink.CountOf(TraceEventKind::kRoute), 1u);
  EXPECT_EQ(sink.CountOf(TraceEventKind::kFailover), 1u);
  bool saw_failover = false;
  for (const TraceEvent& event : sink.events()) {
    if (event.kind == TraceEventKind::kRoute) {
      EXPECT_EQ(event.id, dead);
    }
    if (event.kind == TraceEventKind::kFailover) {
      EXPECT_EQ(event.id, out.replica);
      EXPECT_EQ(event.value, 1u);  // first failover attempt
      saw_failover = true;
    }
  }
  EXPECT_TRUE(saw_failover);
  ExpectTerminalInvariant(set);
}

// ------------------------------------------------- deadline-budget bounds

TEST(ReplicaChaosTest, FailoverAbandonedWhenBackoffExceedsDeadline) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(1000);
  std::atomic<bool> broken{true};
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.broken = &broken;
  ChaosIndex killable(SharedIndex(), chaos);

  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.backoff_base_us = 200;
  config.clock = &clock;
  ReplicaSet set(config);
  const uint32_t dead = set.AddReplica(killable, ReplicaEngineConfig());
  set.AddReplica(SharedIndex(), ReplicaEngineConfig());

  const float* query = nullptr;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    if (set.RouteOrder(tw.workload.queries.Row(q))[0] == dead) {
      query = tw.workload.queries.Row(q);
      break;
    }
  }
  ASSERT_NE(query, nullptr);

  // 100us of budget cannot pay the 200us backoff: the retry is abandoned
  // and the query fails with the primary's error, after one attempt.
  RequestOptions tight;
  tight.params.k = 10;
  tight.deadline_us = clock.NowMicros() + 100;
  const RoutedOutcome abandoned = set.Serve(query, tight);
  EXPECT_TRUE(abandoned.outcome.status.IsUnavailable())
      << abandoned.outcome.status.ToString();
  EXPECT_EQ(abandoned.attempts, 1u);
  EXPECT_EQ(abandoned.failovers, 0u);

  // A roomy deadline pays the backoff and the failover completes.
  RequestOptions roomy;
  roomy.params.k = 10;
  roomy.deadline_us = clock.NowMicros() + 100'000;
  const RoutedOutcome saved = set.Serve(query, roomy);
  EXPECT_TRUE(saved.outcome.status.ok()) << saved.outcome.status.ToString();
  EXPECT_EQ(saved.failovers, 1u);

  // An already-expired deadline fails before routing: zero attempts, still
  // exactly one terminal counter.
  RequestOptions expired;
  expired.params.k = 10;
  expired.deadline_us = clock.NowMicros();
  const RoutedOutcome late = set.Serve(query, expired);
  EXPECT_TRUE(late.outcome.status.IsDeadlineExceeded())
      << late.outcome.status.ToString();
  EXPECT_EQ(late.attempts, 0u);
  const ReplicaReport report = set.lifetime_report();
  EXPECT_EQ(report.failed, 2u);
  EXPECT_EQ(report.failed_over, 1u);
  ExpectTerminalInvariant(set);
}

// ------------------------------------------- scenario (c): hedged requests

TEST(ReplicaChaosTest, SlowReplicaHedgeSecondSendWins) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(0);
  TickingClock slow_clock(0, 40);  // every read costs 40us of virtual time

  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.hedge_after_us = 100;  // a 40us-per-read replica trips this fast
  config.clock = &clock;
  ReplicaSet set(config);
  ServingConfig slow_engine = ReplicaEngineConfig();
  slow_engine.clock = &slow_clock;
  const uint32_t slow = set.AddReplica(SharedIndex(), slow_engine, "slow");
  set.AddReplica(SharedIndex(), ReplicaEngineConfig(), "fast");

  const float* query = nullptr;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    if (set.RouteOrder(tw.workload.queries.Row(q))[0] == slow) {
      query = tw.workload.queries.Row(q);
      break;
    }
  }
  ASSERT_NE(query, nullptr);

  TraceSink sink;
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  request.trace = &sink;
  const RoutedOutcome out = set.Serve(query, request);
  ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
  // The budget-capped primary came back truncated; the hedge to the fast
  // replica won with a full-quality answer.
  EXPECT_TRUE(out.hedged);
  EXPECT_TRUE(out.hedge_won);
  EXPECT_NE(out.replica, slow);
  EXPECT_EQ(out.attempts, 2u);
  EXPECT_FALSE(out.outcome.stats.truncated);
  EXPECT_EQ(sink.CountOf(TraceEventKind::kHedge), 1u);

  const ReplicaReport report = set.lifetime_report();
  EXPECT_EQ(report.hedge_won, 1u);
  EXPECT_EQ(report.hedges_sent, 1u);
  // Slowness feeds the same hysteresis as failure: the hedged-away primary
  // took a failure sample (suspect_after 1 -> suspect already).
  EXPECT_EQ(set.replica_state(slow), HealthState::kSuspect);
  ExpectTerminalInvariant(set);
}

TEST(ReplicaChaosTest, TruncatedPrimaryKeptWhenHedgeTargetIsDead) {
  const TestWorkload& tw = SharedWorkload();
  VirtualClock clock(0);
  TickingClock slow_clock(0, 40);
  std::atomic<bool> broken{true};
  ChaosConfig chaos;
  chaos.clock = &clock;
  chaos.broken = &broken;
  ChaosIndex killable(SharedIndex(), chaos);

  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.hedge_after_us = 100;
  config.clock = &clock;
  ReplicaSet set(config);
  ServingConfig slow_engine = ReplicaEngineConfig();
  slow_engine.clock = &slow_clock;
  const uint32_t slow = set.AddReplica(SharedIndex(), slow_engine, "slow");
  set.AddReplica(killable, ReplicaEngineConfig(), "dead");

  const float* query = nullptr;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    if (set.RouteOrder(tw.workload.queries.Row(q))[0] == slow) {
      query = tw.workload.queries.Row(q);
      break;
    }
  }
  ASSERT_NE(query, nullptr);

  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  const RoutedOutcome out = set.Serve(query, request);
  // Both hedge and primary raced; the hedge died, so the truncated primary
  // answer is kept — degraded beats lost.
  ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
  EXPECT_TRUE(out.hedged);
  EXPECT_FALSE(out.hedge_won);
  EXPECT_EQ(out.replica, slow);
  EXPECT_TRUE(out.outcome.stats.truncated);
  EXPECT_FALSE(out.outcome.ids.empty());
  const ReplicaReport report = set.lifetime_report();
  EXPECT_EQ(report.completed, 1u);
  EXPECT_EQ(report.hedges_sent, 1u);
  ExpectTerminalInvariant(set);
}

// ------------------------------------- scenario (b): corruption and repair

TEST(ReplicaChaosTest, CorruptReplicaDegradesServesAndRepairs) {
  const TestWorkload& tw = SharedWorkload();
  // Three on-disk replica sources over the same graph.
  std::string good_bytes;
  ReplicaManifest manifest;
  std::vector<std::string> paths;
  for (int r = 0; r < 3; ++r) {
    const std::string path =
        TempPath(("repl_src" + std::to_string(r) + ".wvs").c_str());
    ASSERT_TRUE(SaveGraph(SharedIndex().graph(), path, "HNSW").ok());
    StatusOr<uint32_t> crc = FileCrc32c(path);
    ASSERT_TRUE(crc.ok());
    manifest.replicas.push_back(
        {path, ReplicaManifest::Kind::kGraph, *crc});
    paths.push_back(path);
  }
  ASSERT_TRUE(ReadFileToString(paths[1], &good_bytes).ok());
  const std::string manifest_path = TempPath("replicas.wvsrepl");
  ASSERT_TRUE(SaveReplicaManifest(manifest, manifest_path).ok());

  // Rot replica 1 on disk, after its CRC was recorded.
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(good_bytes, good_bytes.size() * 4), paths[1])
          .ok());

  VirtualClock clock(0);
  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.health = FastHealth();
  config.clock = &clock;
  ServingConfig per_replica = ReplicaEngineConfig();
  per_replica.fallback_shard = 0;  // brute-force fallback scans everything
  StatusOr<ReplicaSet::Opened> opened_or = ReplicaSet::FromReplicaManifest(
      manifest_path, tw.workload.base, config, per_replica);
  ASSERT_TRUE(opened_or.ok()) << opened_or.status().ToString();
  ReplicaSet& set = *opened_or->set;
  ASSERT_EQ(opened_or->replica_status.size(), 3u);
  EXPECT_TRUE(opened_or->replica_status[0].ok());
  EXPECT_TRUE(opened_or->replica_status[1].IsCorruption())
      << opened_or->replica_status[1].ToString();
  EXPECT_TRUE(opened_or->replica_status[2].ok());
  EXPECT_TRUE(set.replica(1).fallback_mode());
  EXPECT_FALSE(set.replica(0).fallback_mode());

  // The rotted replica serves (exact brute force, degraded) — corruption
  // costs quality on one replica, never availability or health.
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 100;
  ReplicaBatchResult before = set.ServeBatch(BurstOf(12), request);
  bool saw_degraded = false;
  for (const RoutedOutcome& out : before.outcomes) {
    ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
    if (out.outcome.stats.degraded) {
      saw_degraded = true;
      EXPECT_EQ(out.replica, 1u);
    }
  }
  EXPECT_TRUE(saw_degraded) << "no query exercised the degraded replica";
  EXPECT_EQ(before.report.failed, 0u);
  EXPECT_EQ(set.replica_state(1), HealthState::kHealthy)
      << "degraded completions are successes, not failures";
  ExpectTerminalInvariant(set);

  // Repair with the disk still rotten fails loudly and changes nothing.
  EXPECT_FALSE(set.RepairReplica(1).ok());
  EXPECT_TRUE(set.replica(1).fallback_mode());

  // Restore the good bytes; repair reloads the graph and the replica
  // serves full quality again.
  ASSERT_TRUE(WriteStringToFile(good_bytes, paths[1]).ok());
  ASSERT_TRUE(set.RepairReplica(1).ok());
  EXPECT_FALSE(set.replica(1).fallback_mode());
  const ReplicaBatchResult after = set.ServeBatch(BurstOf(12), request);
  for (const RoutedOutcome& out : after.outcomes) {
    ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
    EXPECT_FALSE(out.outcome.stats.degraded);
  }
  EXPECT_EQ(set.metrics().CounterValue("replica.repairs"), 1u);
  ExpectTerminalInvariant(set);
}

TEST(ReplicaChaosTest, ShardedReplicaRepairsDegradedShards) {
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 12;
  options.build_pool = 40;
  options.nn_descent_iters = 3;
  options.num_shards = 3;
  auto built = CreateAlgorithm("Sharded:HNSW", options);
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("repl_sharded");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  // Rot one shard file. The shard manifest itself stays intact, so the
  // replica-set CRC passes and the corruption surfaces as a degraded shard
  // inside the replica.
  const std::string shard_path = prefix + ".shard1.wvs";
  std::string shard_bytes;
  ASSERT_TRUE(ReadFileToString(shard_path, &shard_bytes).ok());
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(shard_bytes, shard_bytes.size() * 4),
                        shard_path)
          .ok());

  ReplicaManifest manifest;
  StatusOr<uint32_t> crc = FileCrc32c(prefix + ".manifest");
  ASSERT_TRUE(crc.ok());
  manifest.replicas.push_back({prefix + ".manifest",
                               ReplicaManifest::Kind::kShardManifest, *crc});
  const std::string manifest_path = TempPath("repl_sharded.wvsrepl");
  ASSERT_TRUE(SaveReplicaManifest(manifest, manifest_path).ok());

  VirtualClock clock(0);
  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.clock = &clock;
  StatusOr<ReplicaSet::Opened> opened_or = ReplicaSet::FromReplicaManifest(
      manifest_path, tw.workload.base, config, ReplicaEngineConfig());
  ASSERT_TRUE(opened_or.ok()) << opened_or.status().ToString();
  ReplicaSet& set = *opened_or->set;
  EXPECT_FALSE(opened_or->replica_status[0].ok())
      << "the degraded shard must be reported at open";
  ASSERT_NE(set.replica(0).sharded_index(), nullptr);
  EXPECT_EQ(set.replica(0).sharded_index()->num_degraded_shards(), 1u);

  // RepairReplica rebuilds the rotted shard from the dataset.
  ASSERT_TRUE(set.RepairReplica(0).ok());
  EXPECT_EQ(set.replica(0).sharded_index()->num_degraded_shards(), 0u);
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 40;
  const RoutedOutcome out = set.Serve(tw.workload.queries.Row(0), request);
  ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
  EXPECT_FALSE(out.outcome.stats.degraded);
}

TEST(ReplicaChaosTest, FallbackShardedReplicaReloadsThenRepairsShards) {
  // Two faults on one sharded replica: the rotted shard manifest puts it
  // in brute-force fallback, and a rotted shard file is still on disk when
  // the manifest is restored. One RepairReplica reloads the manifest and
  // then rebuilds the shard the reload found degraded.
  const TestWorkload& tw = SharedWorkload();
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 12;
  options.build_pool = 40;
  options.nn_descent_iters = 3;
  options.num_shards = 3;
  auto built = CreateAlgorithm("Sharded:HNSW", options);
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("repl_fallback_sharded");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  const std::string shard_manifest = prefix + ".manifest";
  ReplicaManifest manifest;
  StatusOr<uint32_t> crc = FileCrc32c(shard_manifest);
  ASSERT_TRUE(crc.ok());
  manifest.replicas.push_back(
      {shard_manifest, ReplicaManifest::Kind::kShardManifest, *crc});
  const std::string manifest_path = TempPath("repl_fallback_sharded.wvsrepl");
  ASSERT_TRUE(SaveReplicaManifest(manifest, manifest_path).ok());

  std::string manifest_bytes, shard_bytes;
  const std::string shard_path = prefix + ".shard1.wvs";
  ASSERT_TRUE(ReadFileToString(shard_manifest, &manifest_bytes).ok());
  ASSERT_TRUE(ReadFileToString(shard_path, &shard_bytes).ok());
  ASSERT_TRUE(WriteStringToFile(
                  FlipBit(manifest_bytes, manifest_bytes.size() * 4),
                  shard_manifest)
                  .ok());
  ASSERT_TRUE(
      WriteStringToFile(FlipBit(shard_bytes, shard_bytes.size() * 4),
                        shard_path)
          .ok());

  VirtualClock clock(0);
  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  config.clock = &clock;
  StatusOr<ReplicaSet::Opened> opened_or = ReplicaSet::FromReplicaManifest(
      manifest_path, tw.workload.base, config, ReplicaEngineConfig());
  ASSERT_TRUE(opened_or.ok()) << opened_or.status().ToString();
  ReplicaSet& set = *opened_or->set;
  EXPECT_FALSE(opened_or->replica_status[0].ok());
  ASSERT_TRUE(set.replica(0).fallback_mode());

  // Only the manifest comes back; the shard file stays rotten.
  ASSERT_TRUE(WriteStringToFile(manifest_bytes, shard_manifest).ok());
  ASSERT_TRUE(set.RepairReplica(0).ok());
  EXPECT_FALSE(set.replica(0).fallback_mode());
  ASSERT_NE(set.replica(0).sharded_index(), nullptr);
  EXPECT_EQ(set.replica(0).sharded_index()->num_degraded_shards(), 0u);
  RequestOptions request;
  request.params.k = 10;
  request.params.pool_size = 40;
  const ReplicaBatchResult after = set.ServeBatch(BurstOf(12), request);
  for (const RoutedOutcome& out : after.outcomes) {
    ASSERT_TRUE(out.outcome.status.ok()) << out.outcome.status.ToString();
    EXPECT_FALSE(out.outcome.stats.degraded);
  }
}

TEST(ReplicaChaosTest, CorruptReplicaManifestIsFatal) {
  // The replica-set manifest is the root of trust: unlike a rotted replica
  // source, a rotted manifest fails the open outright.
  ReplicaManifest manifest;
  manifest.replicas.push_back({"a.wvs", ReplicaManifest::Kind::kGraph, 7});
  const std::string path = TempPath("rotten.wvsrepl");
  ASSERT_TRUE(SaveReplicaManifest(manifest, path).ok());
  std::string bytes;
  ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
  ASSERT_TRUE(WriteStringToFile(FlipBit(bytes, bytes.size() * 4), path).ok());

  const TestWorkload& tw = SharedWorkload();
  ReplicaSetConfig config;
  config.dim = tw.workload.base.dim();
  const StatusOr<ReplicaSet::Opened> opened = ReplicaSet::FromReplicaManifest(
      path, tw.workload.base, config, ReplicaEngineConfig());
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
}

// -------------------------------------------------- manifest round trip

TEST(ReplicaManifestTest, RoundTripPreservesEntries) {
  ReplicaManifest manifest;
  manifest.replicas.push_back({"graphs/r0.wvs", ReplicaManifest::Kind::kGraph,
                               0xdeadbeefu});
  manifest.replicas.push_back(
      {"shards/r1.manifest", ReplicaManifest::Kind::kShardManifest, 42u});
  const std::string bytes = SerializeReplicaManifest(manifest);
  ASSERT_TRUE(IsReplicaManifestBytes(bytes));
  const StatusOr<ReplicaManifest> loaded = DeserializeReplicaManifest(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->replicas.size(), 2u);
  EXPECT_EQ(loaded->replicas[0].path, "graphs/r0.wvs");
  EXPECT_EQ(loaded->replicas[0].kind, ReplicaManifest::Kind::kGraph);
  EXPECT_EQ(loaded->replicas[0].file_crc32c, 0xdeadbeefu);
  EXPECT_EQ(loaded->replicas[1].path, "shards/r1.manifest");
  EXPECT_EQ(loaded->replicas[1].kind, ReplicaManifest::Kind::kShardManifest);
  EXPECT_EQ(loaded->replicas[1].file_crc32c, 42u);
}

TEST(ReplicaManifestTest, EveryFlippedBitIsCaught) {
  ReplicaManifest manifest;
  manifest.replicas.push_back({"r0.wvs", ReplicaManifest::Kind::kGraph, 1});
  manifest.replicas.push_back({"r1.wvs", ReplicaManifest::Kind::kGraph, 2});
  const std::string bytes = SerializeReplicaManifest(manifest);
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    const StatusOr<ReplicaManifest> corrupted =
        DeserializeReplicaManifest(FlipBit(bytes, bit));
    EXPECT_FALSE(corrupted.ok()) << "flipped bit " << bit << " not caught";
  }
  // Truncations are caught too.
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        DeserializeReplicaManifest(bytes.substr(0, len)).ok())
        << "truncation to " << len << " bytes not caught";
  }
}

TEST(ReplicaManifestTest, HostileReplicaCountIsCorruptionNotAllocation) {
  // A 29-byte manifest (empty body) whose sealed header claims 2^28
  // replicas: the count must be bounded by the body bytes before the
  // replica table is sized, and the failure must name the body offset.
  std::string bytes = SerializeReplicaManifest(ReplicaManifest());
  ASSERT_EQ(bytes.size(), 29u);
  const uint32_t count = 0x10000000u;
  std::memcpy(&bytes[13], &count, sizeof(count));
  const uint32_t crc = Crc32c(bytes.data(), kReplicaManifestHeaderBytes - 4);
  std::memcpy(&bytes[kReplicaManifestHeaderBytes - 4], &crc, sizeof(crc));
  const StatusOr<ReplicaManifest> loaded = DeserializeReplicaManifest(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("at byte offset 25"),
            std::string::npos)
      << loaded.status().ToString();
}

// --------------------------- scenario (d): thread-count-invariant traces

// Everything observable about one routed outcome.
using RoutedKey = std::tuple<int, std::string, uint32_t, uint32_t, uint32_t,
                             bool, bool, std::vector<uint32_t>>;

RoutedKey KeyOf(const RoutedOutcome& out) {
  return {static_cast<int>(out.outcome.status.code()),
          out.outcome.status.message(),
          out.replica,
          out.attempts,
          out.failovers,
          out.hedged,
          out.hedge_won,
          out.outcome.ids};
}

TEST(ReplicaChaosTest, FailoverScheduleIsReproducibleAtAnyThreadCount) {
  const TestWorkload& tw = SharedWorkload();

  struct ScheduleResult {
    std::vector<RoutedKey> keys;
    std::string snapshot;
    std::vector<int> states;
  };
  const auto run_schedule = [&](uint32_t num_threads) {
    VirtualClock clock(0);
    std::atomic<bool> broken{false};
    ChaosConfig chaos;
    chaos.clock = &clock;
    chaos.broken = &broken;
    ChaosIndex killable(SharedIndex(), chaos);

    ReplicaSetConfig config;
    config.num_threads = num_threads;
    config.dim = tw.workload.base.dim();
    config.health = FastHealth();
    config.clock = &clock;
    ReplicaSet set(config);
    set.AddReplica(SharedIndex(), ReplicaEngineConfig());
    const uint32_t victim =
        set.AddReplica(killable, ReplicaEngineConfig());
    set.AddReplica(SharedIndex(), ReplicaEngineConfig());

    RequestOptions request;
    request.params.k = 10;
    request.params.pool_size = 100;

    ScheduleResult result;
    // The fault schedule: healthy burst, kill mid-traffic, two wounded
    // bursts (failover, quarantine), heal, probe, recover. Every clock
    // movement and fault flip happens between bursts — the deterministic
    // submission schedule the trace contract quantifies over.
    const auto burst = [&](uint32_t count) {
      const ReplicaBatchResult batch = set.ServeBatch(BurstOf(count), request);
      for (const RoutedOutcome& out : batch.outcomes) {
        result.keys.push_back(KeyOf(out));
      }
      ExpectTerminalInvariant(set);
      result.states.push_back(static_cast<int>(set.replica_state(victim)));
    };
    burst(12);
    broken.store(true);
    burst(12);
    burst(12);
    clock.AdvanceMicros(1500);  // probe due, fails, backs off
    burst(6);
    broken.store(false);
    clock.AdvanceMicros(4000);  // probe due again, succeeds
    burst(12);
    burst(12);
    result.snapshot = set.SnapshotMetrics(/*include_timing=*/false);
    EXPECT_EQ(set.replica_state(victim), HealthState::kHealthy);
    EXPECT_EQ(set.lifetime_report().failed, 0u);
    return result;
  };

  const ScheduleResult single = run_schedule(1);
  // The schedule exercised the interesting paths, not just completions.
  uint32_t failed_over = 0;
  for (const RoutedKey& key : single.keys) {
    if (std::get<4>(key) > 0) ++failed_over;
  }
  EXPECT_GT(failed_over, 0u);
  EXPECT_NE(single.snapshot.find("\"replica.routed\":66"), std::string::npos)
      << single.snapshot;
  EXPECT_NE(single.snapshot.find("\"replica.quarantines\":1"),
            std::string::npos)
      << single.snapshot;

  // Bit-for-bit: outcome keys (status, replica, attempt/failover counts,
  // ids), per-burst health states, and the full deterministic metrics
  // snapshot are identical at 1, 2, and 8 threads.
  const ScheduleResult two = run_schedule(2);
  const ScheduleResult eight = run_schedule(8);
  EXPECT_EQ(two.keys, single.keys);
  EXPECT_EQ(eight.keys, single.keys);
  EXPECT_EQ(two.states, single.states);
  EXPECT_EQ(eight.states, single.states);
  EXPECT_EQ(two.snapshot, single.snapshot);
  EXPECT_EQ(eight.snapshot, single.snapshot);
}

// ----------------------------------------------- health tracker unit tests

TEST(HealthTrackerTest, HysteresisWalksTheWholeStateMachine) {
  HealthConfig config;
  config.suspect_after = 2;
  config.quarantine_after = 2;
  config.recover_after = 2;
  config.probe_successes = 2;
  config.probe_interval_us = 100;
  config.probe_backoff_max_us = 400;
  HealthTracker tracker(config);

  EXPECT_EQ(tracker.state(), HealthState::kHealthy);
  // One failure is absorbed; a success resets the streak.
  EXPECT_FALSE(tracker.OnFailure(0));
  EXPECT_FALSE(tracker.OnSuccess(0, 0));
  EXPECT_FALSE(tracker.OnFailure(0));
  EXPECT_EQ(tracker.state(), HealthState::kHealthy);
  // Two consecutive failures -> suspect.
  EXPECT_TRUE(tracker.OnFailure(0));
  EXPECT_EQ(tracker.state(), HealthState::kSuspect);
  // Two more -> quarantined, probe scheduled one interval out.
  EXPECT_FALSE(tracker.OnFailure(0));
  EXPECT_TRUE(tracker.OnFailure(10));
  EXPECT_EQ(tracker.state(), HealthState::kQuarantined);
  EXPECT_FALSE(tracker.ProbeDue(10));
  EXPECT_TRUE(tracker.ProbeDue(110));
  // Failed probes double the backoff, capped.
  tracker.OnProbeFailure(110);  // next at 310 (backoff 200)
  EXPECT_FALSE(tracker.ProbeDue(300));
  EXPECT_TRUE(tracker.ProbeDue(310));
  tracker.OnProbeFailure(310);  // backoff 400 (capped)
  tracker.OnProbeFailure(710);  // still 400
  EXPECT_TRUE(tracker.ProbeDue(1110));
  // probe_successes=2 probes release to suspect, not healthy.
  EXPECT_FALSE(tracker.OnProbeSuccess());
  EXPECT_TRUE(tracker.OnProbeSuccess());
  EXPECT_EQ(tracker.state(), HealthState::kSuspect);
  // recover_after live successes re-earn healthy.
  EXPECT_FALSE(tracker.OnSuccess(1200, 0));
  EXPECT_TRUE(tracker.OnSuccess(1200, 0));
  EXPECT_EQ(tracker.state(), HealthState::kHealthy);
  EXPECT_EQ(tracker.quarantine_count(), 1u);
}

TEST(HealthTrackerTest, SlowCompletionsCountAsFailures) {
  HealthConfig config;
  config.suspect_after = 2;
  config.latency_suspect_us = 500;
  HealthTracker tracker(config);
  EXPECT_FALSE(tracker.OnSuccess(0, 499));  // under the bar: a success
  EXPECT_FALSE(tracker.OnSuccess(0, 500));  // at the bar: a failure sample
  EXPECT_TRUE(tracker.OnSuccess(0, 9000));
  EXPECT_EQ(tracker.state(), HealthState::kSuspect);
}

TEST(HealthTrackerTest, RepairMakesProbeDueImmediately) {
  HealthConfig config;
  config.suspect_after = 1;
  config.quarantine_after = 1;
  config.probe_interval_us = 1000;
  HealthTracker tracker(config);
  tracker.OnFailure(0);
  tracker.OnFailure(0);
  ASSERT_EQ(tracker.state(), HealthState::kQuarantined);
  tracker.OnProbeFailure(1000);  // backoff grows to 2000
  EXPECT_FALSE(tracker.ProbeDue(2000));
  tracker.OnRepair(2000);
  EXPECT_TRUE(tracker.ProbeDue(2000))
      << "a repaired replica should be probed immediately";
}

}  // namespace
}  // namespace weavess
