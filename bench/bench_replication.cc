// Replicated-serving resilience: availability and tail latency as one
// replica of an N-way ReplicaSet (search/replica_set.h) fails at an
// increasing injected fault rate. The faulty replica throws from its search
// on a deterministic pseudo-random schedule; the set absorbs the faults via
// hedged second-sends and bounded failover, so availability stays at 1.0
// while the failover/hedge rates and the tail grow with the fault rate —
// the replicated mirror of bench_overload's shed/degrade ladder
// (docs/SERVING.md).
//
// Knobs beyond bench_common.h:
//   WEAVESS_REPLICAS     replica count (default 3)
//   WEAVESS_FAULT_RATES  comma-separated injected fault rates for the one
//                        faulty replica (default 0,0.02,0.1,0.3)
//   WEAVESS_HEDGE_US     hedge_after_us budget cap (default 2000; 0
//                        disables hedging so failover alone absorbs faults)
//   WEAVESS_QUERIES      queries per fault-rate point (default 3000)
//   WEAVESS_ZIPF         Zipf exponent of the arrival stream (default 1.0;
//                        0 = uniform) — eval/synthetic.h MakeSkewedQueries
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "search/replica_set.h"

namespace weavess::bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  return std::atof(value);
}

uint32_t EnvU32(const char* name, uint32_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<uint32_t>(parsed) : fallback;
}

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Delegating index whose SearchScored throws on a deterministic
/// pseudo-random schedule: query n fails iff Mix64(n) lands in the bottom
/// `rate` fraction of the hash range. Same shape as the chaos suite's
/// injected backend, but rate-driven for the bench ladder.
class FaultyIndex final : public AnnIndex {
 public:
  FaultyIndex(const AnnIndex& inner, double rate)
      : inner_(inner),
        fail_below_(static_cast<uint64_t>(
            rate * 10000.0)) {}

  void Build(const Dataset&) override {
    throw std::logic_error("FaultyIndex wraps an already-built index");
  }

  std::vector<ScoredId> SearchScored(SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats) const override {
    const uint64_t n = seq_.fetch_add(1, std::memory_order_relaxed);
    if (Mix64(n) % 10000 < fail_below_) {
      throw std::runtime_error("injected replica fault");
    }
    return inner_.SearchScored(scratch, query, params, stats);
  }

  const CsrGraph& graph() const override { return inner_.graph(); }
  size_t IndexMemoryBytes() const override {
    return inner_.IndexMemoryBytes();
  }
  BuildStats build_stats() const override { return inner_.build_stats(); }
  std::string name() const override { return inner_.name() + "+faults"; }

 private:
  const AnnIndex& inner_;
  const uint64_t fail_below_;  // per-myriad failure threshold
  mutable std::atomic<uint64_t> seq_{0};
};

double Percentile(std::vector<uint64_t>& sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  const size_t idx = static_cast<size_t>(q * (sorted_us.size() - 1));
  return static_cast<double>(sorted_us[idx]);
}

void RunLadder(const AnnIndex& index, const Workload& workload) {
  const uint32_t num_replicas = std::max(2u, EnvU32("WEAVESS_REPLICAS", 3));
  const uint64_t hedge_us =
      static_cast<uint64_t>(EnvDouble("WEAVESS_HEDGE_US", 2000.0));
  const uint32_t num_queries = EnvU32("WEAVESS_QUERIES", 3000);
  const double zipf_s = EnvDouble("WEAVESS_ZIPF", 1.0);

  std::vector<double> fault_rates;
  {
    const char* value = std::getenv("WEAVESS_FAULT_RATES");
    for (const std::string& token :
         SplitCsv(value != nullptr ? value : "0,0.02,0.1,0.3")) {
      fault_rates.push_back(std::atof(token.c_str()));
    }
  }

  // Skewed arrival stream shared across the ladder, so every fault-rate
  // point routes the identical query sequence.
  const std::vector<const float*> arrivals =
      MakeSkewedQueries(workload.queries, num_queries, zipf_s, /*seed=*/17);

  std::printf("replicas=%u hedge_us=%llu queries=%u zipf=%.2f\n\n",
              num_replicas, static_cast<unsigned long long>(hedge_us),
              num_queries, zipf_s);

  for (const double rate : fault_rates) {
    FaultyIndex faulty(index, rate);

    ReplicaSetConfig config;
    config.dim = workload.base.dim();
    config.max_failover = 2;
    config.backoff_base_us = 100;
    config.backoff_max_us = 1000;
    config.hedge_after_us = hedge_us;
    ReplicaSet set(config);

    ServingConfig per_replica;
    per_replica.num_threads = 1;
    per_replica.admission.capacity = 64;
    for (uint32_t r = 0; r < num_replicas; ++r) {
      // Replica 0 is the fault-injected one; the rest serve clean.
      const AnnIndex& backend = (r == 0) ? faulty : index;
      set.AddReplica(backend, per_replica, "replica" + std::to_string(r));
    }

    SearchParams params;
    params.k = 10;
    params.pool_size = 100;
    RequestOptions request;
    request.params = params;

    std::vector<uint64_t> latencies_us;
    latencies_us.reserve(arrivals.size());
    const Clock& clock = set.clock();
    for (const float* query : arrivals) {
      const uint64_t t0 = clock.NowMicros();
      set.Serve(query, request);
      latencies_us.push_back(clock.NowMicros() - t0);
    }

    const ReplicaReport report = set.lifetime_report();
    std::sort(latencies_us.begin(), latencies_us.end());
    const double routed =
        report.routed > 0 ? static_cast<double>(report.routed) : 1.0;
    const double availability =
        static_cast<double>(report.completed + report.failed_over +
                            report.hedge_won) /
        routed;
    std::printf(
        "{\"bench\":\"replication\",\"algo\":\"%s\",\"replicas\":%u,"
        "\"fault_rate\":%.2f,\"queries\":%llu,\"zipf\":%.2f,"
        "\"availability\":%.4f,\"failover_rate\":%.4f,"
        "\"hedge_rate\":%.4f,\"hedge_won_rate\":%.4f,\"failed\":%llu,"
        "\"p50_us\":%.1f,\"p99_us\":%.1f,\"quarantines\":%llu,"
        "\"probes\":%llu}\n",
        index.name().c_str(), num_replicas, rate,
        static_cast<unsigned long long>(report.routed), zipf_s, availability,
        static_cast<double>(report.failover_attempts) / routed,
        static_cast<double>(report.hedges_sent) / routed,
        static_cast<double>(report.hedge_won) / routed,
        static_cast<unsigned long long>(report.failed),
        Percentile(latencies_us, 0.50), Percentile(latencies_us, 0.99),
        static_cast<unsigned long long>(report.quarantines),
        static_cast<unsigned long long>(report.probes));
    std::printf(
        "{\"bench\":\"replication_metrics\",\"fault_rate\":%.2f,"
        "\"snapshot\":%s}\n",
        rate, set.SnapshotMetrics(/*include_timing=*/false).c_str());
    std::fflush(stdout);
  }
}

void Run() {
  Banner("Replication: availability and tail latency vs injected fault rate",
         "One replica of an N-way ReplicaSet fails at increasing rates; "
         "hedged sends and bounded failover absorb the faults "
         "(docs/SERVING.md).");

  const std::vector<std::string> datasets = SelectedDatasets();
  Workload workload = MakeStandIn(datasets.front(), EnvScale());
  std::printf("\n%s (n=%u)\n", workload.name.c_str(), workload.base.size());

  for (const std::string& algo : SelectedAlgorithms({"HNSW"})) {
    auto index = CreateAlgorithm(algo, DefaultOptions());
    index->Build(workload.base);
    RunLadder(*index, workload);
  }
}

}  // namespace
}  // namespace weavess::bench

int main() {
  weavess::bench::Run();
  return 0;
}
