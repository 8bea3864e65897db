// Command-line front end for the library. Subcommands:
//
//   weavess_cli generate --out PREFIX [--standin NAME | --dim D --n N
//                         --clusters C --sd S] [--queries Q] [--gt K]
//       Writes PREFIX.base.fvecs, PREFIX.query.fvecs and (with --gt)
//       PREFIX.gt.ivecs.
//
//   weavess_cli build --base FILE.fvecs --algo NAME [--save GRAPH.wvs]
//                     [--save-codes CODES.sqnt] [--build-threads T]
//                     [--shards S] [--partitioner random|kmeans]
//                     [--replicas R]
//       Builds the named index and prints construction stats (Fig. 5/6 and
//       Table 4 metrics for a single run). --build-threads T parallelizes
//       construction on the shared pool; the built index is bit-for-bit
//       identical at any T (docs/CONCURRENCY.md), so the flag trades build
//       time only. --save persists the graph in the
//       checksummed format of docs/PERSISTENCE.md. For --algo Sharded:NAME
//       the dataset is partitioned (--shards shards, --partitioner policy)
//       and --save PREFIX writes PREFIX.manifest plus one PREFIX.shardN.wvs
//       graph file per shard (docs/SHARDING.md). --replicas R with --save
//       PREFIX additionally writes R replica copies (PREFIX.replicaN.wvs,
//       or PREFIX.replicaN.manifest + shards when sharded) plus a
//       WVSSREPL1 replica-set manifest PREFIX.replicas recording each
//       copy's CRC32C (docs/SERVING.md). --save-codes FILE additionally
//       trains the SQ8 codec on the base vectors and writes the codes in
//       the checksummed WVSSQNT1 format (docs/QUANTIZATION.md).
//
//   weavess_cli eval --base FILE.fvecs --query FILE.fvecs --gt FILE.ivecs
//                    --algo NAME [--k K] [--pools 10,40,160] [--threads T]
//                    [--build-threads T]
//                    [--max-evals N] [--budget-us U] [--metrics-out FILE]
//                    [--quantize sq8] [--rescore-factor N]
//                    [--capacity C] [--deadline-us D] [--retry-after-us R]
//                    [--degrade-pools 40,20]
//       Builds and sweeps the recall/QPS/Speedup tradeoff (Fig. 7/8 rows).
//       --threads T (default 1) runs each sweep point through a T-stream
//       SearchEngine batch; recall/NDC/PL are identical at any T (see
//       docs/CONCURRENCY.md), only QPS changes. --build-threads (defaults
//       to --threads) parallelizes the build the sweep runs on, also with
//       bit-identical results. The optional search
//       budgets demonstrate graceful degradation and apply per query; the
//       Trunc column counts budget-truncated queries per sweep point.
//       Any of --capacity/--deadline-us/--retry-after-us/--degrade-pools
//       switches the sweep to the overload-resilient serving path
//       (docs/SERVING.md): each point is one ServeBatch burst through
//       admission control, per-request deadlines, and the degradation
//       ladder, and the table reports completed/shed/degraded counts plus
//       latency percentiles. If the engine sheds every query the process
//       exits 4 (overload). --algo Sharded:NAME with --shards/--partitioner
//       sweeps the scatter-gather index instead; --shard-sweep 1,2,4,8
//       switches to a shard-count sweep (EvaluateSharding) at fixed pool
//       size, one row per shard count. --replicas R routes each point
//       through an R-way ReplicaSet (docs/SERVING.md replication):
//       rendezvous routing, health tracking, bounded failover
//       (--max-failover, default 2) and optional hedged second-sends
//       (--hedge-us, default 0 = off); the table adds the terminal
//       accounting (routed / completed / failed-over / hedge-won / failed)
//       and quarantine counts. --quantize sq8 wraps the algorithm in the
//       two-stage quantized index (equivalent to --algo SQ8:NAME): the
//       sweep traverses SQ8 codes and rescores --rescore-factor N * k
//       candidates (default 4) with exact float kernels
//       (docs/QUANTIZATION.md).
//
//   weavess_cli verify --graph FILE
//       Checks magic, format version, and every section CRC of a saved
//       graph and prints a per-section report. A file starting with the
//       shard-manifest magic is verified as a manifest instead: header and
//       body CRCs, the disjoint-cover invariant, and then every referenced
//       shard graph file in turn — a corrupt shard is reported per shard
//       and the worst failure decides the exit code. A file starting with
//       the replica-set magic WVSSREPL1 is verified as a replica-set
//       manifest: header and body CRCs, then every replica's recorded
//       file CRC32C against the bytes on disk, then each replica file by
//       its own kind (graph or shard manifest), recursively. A file
//       starting with the quantized-codes magic WVSSQNT1 is verified as an
//       SQ8 code section: header CRC plus the mins / scales / codes
//       section CRCs (docs/QUANTIZATION.md).
//
//   weavess_cli algorithms
//       Lists the 17 registry names.
//
//   weavess_cli metrics
//       Prints the observability counter taxonomy and an empty versioned
//       snapshot — the schema contract of docs/OBSERVABILITY.md, greppable
//       without building an index. `eval --metrics-out FILE` (search or
//       serving sweep) writes a populated snapshot of the same shape.
//
// Process exit codes: 0 success, 1 usage error, 2 I/O error, 3 corruption
// (or unsupported format version), 4 overload (every query was shed by
// admission control or its deadline).
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/binary_format.h"
#include "core/file_io.h"
#include "core/graph_io.h"
#include "core/metrics.h"
#include "core/status.h"
#include "eval/evaluator.h"
#include "eval/ground_truth.h"
#include "eval/io.h"
#include "eval/synthetic.h"
#include "eval/table.h"
#include "graph/exact_knng.h"
#include "obs/metrics.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "search/engine.h"
#include "search/replica_set.h"
#include "shard/manifest.h"
#include "shard/partitioner.h"
#include "shard/replica_manifest.h"
#include "shard/sharded_index.h"

namespace {

using namespace weavess;

constexpr int kExitOk = 0;
constexpr int kExitUsage = 1;
constexpr int kExitIOError = 2;
constexpr int kExitCorruption = 3;
constexpr int kExitOverload = 4;

/// Maps a Status onto the documented process exit codes.
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return kExitOk;
    case StatusCode::kInvalidArgument:
      return kExitUsage;
    case StatusCode::kIOError:
      return kExitIOError;
    case StatusCode::kCorruption:
    case StatusCode::kNotSupported:
      return kExitCorruption;
    case StatusCode::kUnavailable:
    case StatusCode::kDeadlineExceeded:
      return kExitOverload;
  }
  return kExitUsage;
}

/// Prints a non-OK status and converts it to an exit code.
int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return ExitCodeFor(status);
}

// Tiny flag parser: --name value pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) == 0) {
        values_.emplace_back(argv[i] + 2, argv[i + 1]);
      }
    }
  }

  const char* Get(const char* name, const char* fallback = nullptr) const {
    for (const auto& [key, value] : values_) {
      if (key == name) return value.c_str();
    }
    return fallback;
  }

  uint32_t GetU32(const char* name, uint32_t fallback) const {
    return static_cast<uint32_t>(GetU64(name, fallback));
  }

  uint64_t GetU64(const char* name, uint64_t fallback) const {
    const char* value = Get(name);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    errno = 0;
    // strtoull silently wraps negative input, so reject it up front.
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (value[0] == '-' || end == value || *end != '\0' || errno == ERANGE) {
      RecordBadValue(name, value);
      return fallback;
    }
    return parsed;
  }

  double GetDouble(const char* name, double fallback) const {
    const char* value = Get(name);
    if (value == nullptr) return fallback;
    char* end = nullptr;
    const double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0') {
      RecordBadValue(name, value);
      return fallback;
    }
    return parsed;
  }

  /// OK unless some numeric flag held an unparsable value. Commands check
  /// this once, after reading all their flags.
  const Status& status() const { return status_; }

 private:
  void RecordBadValue(const char* name, const char* value) const {
    if (status_.ok()) {
      status_ = Status::InvalidArgument(std::string("--") + name +
                                        " expects a number, got '" + value +
                                        "'");
    }
  }

  std::vector<std::pair<std::string, std::string>> values_;
  mutable Status status_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: weavess_cli "
               "<generate|build|eval|verify|algorithms|metrics> "
               "[--flag value ...]\n"
               "see the header comment of tools/weavess_cli.cc\n");
  return kExitUsage;
}

int CmdAlgorithms() {
  for (const std::string& name : AlgorithmNames()) {
    std::printf("%s\n", name.c_str());
  }
  return kExitOk;
}

int CmdMetrics() {
  std::printf(
      "instrument taxonomy (docs/OBSERVABILITY.md):\n"
      "  search.queries / search.batches / search.distance_evals /\n"
      "  search.hops / search.truncated_queries / search.degraded_queries\n"
      "  search.ndc                      histogram of per-query NDC\n"
      "  serving.submitted / serving.admitted\n"
      "  serving.completed / serving.rejected_overload /\n"
      "  serving.deadline_exceeded / serving.failed   terminal counters:\n"
      "      submitted == completed + rejected_overload\n"
      "                   + deadline_exceeded + failed\n"
      "  serving.shed_at_dequeue         subset of deadline_exceeded\n"
      "  serving.degraded / serving.degraded.tier<k>\n"
      "  serving.latency_us              histogram, completed queries\n"
      "  serving.in_flight / serving.current_tier     gauges (snapshot-time)\n"
      "  shard.<s>.searches / shard.<s>.distance_evals /\n"
      "  shard.<s>.exact_scans / shard.<s>.truncated  per-shard counters\n"
      "  shard.degraded_shards           gauge (snapshot-time)\n"
      "  mutation.submitted / mutation.admitted\n"
      "  mutation.applied / mutation.rejected_overload /\n"
      "  mutation.deadline_exceeded / mutation.failed  terminal counters:\n"
      "      submitted == applied + rejected_overload\n"
      "                   + deadline_exceeded + failed\n"
      "  mutation.adds / mutation.removes / mutation.commits /\n"
      "  mutation.compactions / mutation.compaction_failures /\n"
      "  mutation.wal_records /\n"
      "  mutation.copied_bytes           write-path counters\n"
      "  mutation.latency_us             histogram, applied mutations\n"
      "  mutation.generation / mutation.live_size /\n"
      "  mutation.degraded_shards        gauges (snapshot-time)\n"
      "  replica.routed / replica.completed / replica.failed_over /\n"
      "  replica.hedge_won / replica.failed           terminal counters:\n"
      "      routed == completed + failed_over + hedge_won + failed\n"
      "  replica.failover_attempts / replica.hedges /\n"
      "  replica.probes / replica.probe_failures /\n"
      "  replica.quarantines / replica.repairs        tier-wide counters\n"
      "  replica.<r>.routed / replica.<r>.attempts /\n"
      "  replica.<r>.attempt_failures / replica.<r>.probes /\n"
      "  replica.<r>.quarantines         per-replica counters\n"
      "  replica.<r>.state               gauge: 0 healthy, 1 suspect,\n"
      "      2 quarantined (search/health.h)\n"
      "  replica.count / replica.quarantined          gauges (snapshot-time)\n"
      "  kernel.dispatch                 gauge: distance-kernel ISA tier\n"
      "      (0 scalar, 1 avx2, 2 avx512, 3 neon; docs/KERNELS.md)\n"
      "  quant.quantized_evals / quant.rescore_evals  two-stage NDC split:\n"
      "      search.distance_evals == quantized + rescore for SQ8 indexes\n"
      "  quant.rescore_pool              histogram of per-query rescore\n"
      "      candidates (quantized queries only)\n"
      "  quant.code_bytes                gauge: resident SQ8 code bytes\n"
      "  quant.tier_transitions          serving-backend mode edges on the\n"
      "      degradation ladder (docs/QUANTIZATION.md)\n"
      "\nempty snapshot (version %u):\n",
      kMetricsSnapshotVersion);
  const MetricsRegistry registry;
  std::printf("%s\n", registry.ToJson().c_str());
  return kExitOk;
}

int CmdGenerate(const Args& args) {
  const char* out = args.Get("out");
  if (out == nullptr) {
    std::fprintf(stderr, "generate: --out PREFIX is required\n");
    return kExitUsage;
  }
  const uint32_t gt_k = args.GetU32("gt", 0);
  Workload workload;
  if (const char* standin = args.Get("standin"); standin != nullptr) {
    const double scale = args.GetDouble("scale", 1.0);
    if (!args.status().ok()) return Fail(args.status());
    workload = MakeStandIn(standin, scale);
  } else {
    SyntheticSpec spec;
    spec.dim = args.GetU32("dim", 32);
    spec.num_base = args.GetU32("n", 10000);
    spec.num_queries = args.GetU32("queries", 200);
    spec.num_clusters = args.GetU32("clusters", 10);
    spec.stddev = static_cast<float>(args.GetDouble("sd", 5.0));
    spec.seed = args.GetU32("seed", 42);
    if (!args.status().ok()) return Fail(args.status());
    workload = GenerateSynthetic(spec, "cli");
  }
  const std::string prefix = out;
  if (Status s = WriteFvecs(prefix + ".base.fvecs", workload.base); !s.ok()) {
    return Fail(s);
  }
  if (Status s = WriteFvecs(prefix + ".query.fvecs", workload.queries);
      !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s.base.fvecs (%u x %u) and %s.query.fvecs (%u x %u)\n",
              out, workload.base.size(), workload.base.dim(), out,
              workload.queries.size(), workload.queries.dim());
  if (gt_k > 0) {
    const GroundTruth truth =
        ComputeGroundTruth(workload.base, workload.queries, gt_k);
    if (Status s = WriteIvecs(prefix + ".gt.ivecs", truth); !s.ok()) {
      return Fail(s);
    }
    std::printf("wrote %s.gt.ivecs (top-%u)\n", out, gt_k);
  }
  return kExitOk;
}

/// Parses a comma-separated list of positive pool sizes (--pools,
/// --degrade-pools).
Status ParsePoolList(const char* name, const char* list,
                     std::vector<uint32_t>* out) {
  for (const char* p = list; *p != '\0';) {
    char* end = nullptr;
    const unsigned long value = std::strtoul(p, &end, 10);
    if (end == p || (*end != '\0' && *end != ',') || value == 0) {
      return Status::InvalidArgument(std::string("--") + name +
                                     " expects positive numbers, got '" +
                                     list + "'");
    }
    out->push_back(static_cast<uint32_t>(value));
    p = (*end == ',') ? end + 1 : end;
  }
  return Status::OK();
}

AlgorithmOptions OptionsFrom(const Args& args) {
  AlgorithmOptions options;
  options.knng_degree = args.GetU32("knng", options.knng_degree);
  options.max_degree = args.GetU32("degree", options.max_degree);
  options.build_pool = args.GetU32("build-pool", options.build_pool);
  // Construction parallelism. --build-threads sets it directly; it
  // defaults to --threads so `eval --threads T` accelerates the build it
  // sweeps too. Builds are bit-for-bit identical at any value
  // (docs/CONCURRENCY.md), so this never changes results — only speed.
  options.build_threads =
      args.GetU32("build-threads", args.GetU32("threads", 1));
  options.seed = args.GetU32("seed", 2024);
  options.num_shards = args.GetU32("shards", options.num_shards);
  options.partitioner =
      args.Get("partitioner", options.partitioner.c_str());
  return options;
}

/// Sharded builds must not CHECK-crash on a flag typo: surface bad
/// --shards/--partitioner values as a usage error instead.
Status ValidateShardFlags(const AlgorithmOptions& options) {
  if (options.num_shards == 0) {
    return Status::InvalidArgument("--shards must be >= 1");
  }
  return ParsePartitioner(options.partitioner).status();
}

/// Final path component, used to record replica files relative to the
/// replica-set manifest that sits in the same directory.
std::string Basename(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

/// Writes `replicas` copies of the built index next to `prefix` plus the
/// WVSSREPL1 replica-set manifest recording each copy's CRC32C
/// (shard/replica_manifest.h).
Status SaveReplicaSet(AnnIndex& index, const char* algo,
                      const std::string& prefix, uint32_t replicas) {
  ReplicaManifest manifest;
  auto* sharded = dynamic_cast<ShardedIndex*>(&index);
  for (uint32_t r = 0; r < replicas; ++r) {
    const std::string replica_prefix =
        prefix + ".replica" + std::to_string(r);
    ReplicaManifest::Entry entry;
    std::string file;  // the CRC-recorded root file of this replica
    if (sharded != nullptr) {
      if (Status s = sharded->Save(replica_prefix); !s.ok()) return s;
      file = replica_prefix + ".manifest";
      entry.kind = ReplicaManifest::Kind::kShardManifest;
    } else {
      file = replica_prefix + ".wvs";
      if (Status s = SaveGraph(index.graph(), file, algo); !s.ok()) return s;
      entry.kind = ReplicaManifest::Kind::kGraph;
    }
    StatusOr<uint32_t> crc = FileCrc32c(file);
    if (!crc.ok()) return crc.status();
    entry.path = Basename(file);
    entry.file_crc32c = *crc;
    manifest.replicas.push_back(std::move(entry));
  }
  return SaveReplicaManifest(manifest, prefix + ".replicas");
}

int CmdBuild(const Args& args) {
  const char* base_path = args.Get("base");
  const char* algo = args.Get("algo");
  if (base_path == nullptr || algo == nullptr || !IsKnownAlgorithm(algo)) {
    std::fprintf(stderr,
                 "build: --base FILE.fvecs and --algo NAME (one of "
                 "`weavess_cli algorithms`) are required\n");
    return kExitUsage;
  }
  const AlgorithmOptions options = OptionsFrom(args);
  const uint32_t gq_k = args.GetU32("gq", 0);
  const uint32_t replicas = args.GetU32("replicas", 0);
  if (!args.status().ok()) return Fail(args.status());
  if (Status s = ValidateShardFlags(options); !s.ok()) return Fail(s);
  if (replicas > 0 && args.Get("save") == nullptr) {
    return Fail(
        Status::InvalidArgument("--replicas requires --save PREFIX"));
  }
  StatusOr<Dataset> base_or = ReadFvecs(base_path);
  if (!base_or.ok()) return Fail(base_or.status());
  const Dataset& base = *base_or;
  std::printf("loaded %u x %u vectors\n", base.size(), base.dim());
  auto index = CreateAlgorithm(algo, options);
  index->Build(base);
  const BuildStats stats = index->build_stats();
  const DegreeStats degrees = ComputeDegreeStats(index->graph());
  std::printf("built %s: %.2fs, %llu distance evals\n", algo, stats.seconds,
              static_cast<unsigned long long>(stats.distance_evals));
  std::printf("index: %s, AD %.1f (max %u / min %u), CC %u\n",
              TablePrinter::Megabytes(index->IndexMemoryBytes()).c_str(),
              degrees.average, degrees.max, degrees.min,
              CountConnectedComponents(index->graph()));
  if (gq_k > 0) {
    const CsrGraph exact(BuildExactKnng(base, gq_k));
    std::printf("GQ@%u: %.3f\n", gq_k,
                ComputeGraphQuality(index->graph(), exact));
  }
  if (const char* save = args.Get("save"); save != nullptr) {
    if (auto* sharded = dynamic_cast<ShardedIndex*>(index.get());
        sharded != nullptr) {
      if (Status s = sharded->Save(save); !s.ok()) return Fail(s);
      std::printf("sharded index saved to %s.manifest (+%u shard files)\n",
                  save, sharded->num_shards());
    } else {
      if (Status s = SaveGraph(index->graph(), save, algo); !s.ok()) {
        return Fail(s);
      }
      std::printf("graph saved to %s (algorithm metadata: %s)\n", save, algo);
    }
    if (replicas > 0) {
      if (Status s = SaveReplicaSet(*index, algo, save, replicas); !s.ok()) {
        return Fail(s);
      }
      std::printf("replica set saved to %s.replicas (%u replica(s))\n", save,
                  replicas);
    }
  }
  if (const char* save_codes = args.Get("save-codes");
      save_codes != nullptr) {
    const QuantizedDataset codes = SQ8Codec::Train(base).Encode(base);
    if (Status s = SaveQuantized(codes, save_codes); !s.ok()) return Fail(s);
    std::printf("SQ8 codes saved to %s (%s, %.1fx vs float rows)\n",
                save_codes,
                TablePrinter::Megabytes(codes.MemoryBytes()).c_str(),
                static_cast<double>(base.MemoryBytes()) /
                    static_cast<double>(codes.MemoryBytes()));
  }
  return kExitOk;
}

int CmdEval(const Args& args) {
  const char* base_path = args.Get("base");
  const char* query_path = args.Get("query");
  const char* gt_path = args.Get("gt");
  const char* algo_flag = args.Get("algo");
  if (base_path == nullptr || query_path == nullptr || algo_flag == nullptr ||
      !IsKnownAlgorithm(algo_flag)) {
    std::fprintf(stderr,
                 "eval: --base, --query, --algo are required (and --gt, "
                 "else exact ground truth is computed on the fly)\n");
    return kExitUsage;
  }
  std::string algo_name = algo_flag;
  if (const char* quantize = args.Get("quantize"); quantize != nullptr) {
    if (std::string(quantize) != "sq8") {
      return Fail(Status::InvalidArgument(
          std::string("--quantize supports only 'sq8', got '") + quantize +
          "'"));
    }
    if (algo_name.rfind("SQ8:", 0) != 0) algo_name = "SQ8:" + algo_name;
    if (!IsKnownAlgorithm(algo_name)) {
      return Fail(Status::InvalidArgument(
          "--quantize sq8 wraps a base algorithm; '" +
          std::string(algo_flag) + "' cannot be wrapped"));
    }
  }
  const char* algo = algo_name.c_str();
  const uint32_t k = args.GetU32("k", 10);
  const AlgorithmOptions options = OptionsFrom(args);
  const uint32_t search_threads = args.GetU32("threads", 1);
  if (args.Get("threads") != nullptr && args.status().ok() &&
      search_threads == 0) {
    return Fail(Status::InvalidArgument("--threads must be >= 1"));
  }
  if (args.Get("build-threads") != nullptr && args.status().ok() &&
      options.build_threads == 0) {
    return Fail(Status::InvalidArgument("--build-threads must be >= 1"));
  }
  if (Status s = ValidateShardFlags(options); !s.ok()) return Fail(s);
  SearchParams base_params;
  base_params.max_distance_evals = args.GetU64("max-evals", 0);
  base_params.time_budget_us = args.GetU64("budget-us", 0);
  base_params.rescore_factor = args.GetU32("rescore-factor", 4);
  if (args.Get("rescore-factor") != nullptr && args.status().ok() &&
      base_params.rescore_factor == 0) {
    return Fail(Status::InvalidArgument("--rescore-factor must be >= 1"));
  }
  std::vector<uint32_t> pools;
  if (const char* list = args.Get("pools"); list != nullptr) {
    if (Status s = ParsePoolList("pools", list, &pools); !s.ok()) {
      return Fail(s);
    }
  } else {
    pools = {10, 20, 40, 80, 160, 320};
  }
  // Any serving flag switches the sweep to the overload-resilient path.
  const bool serving_mode = args.Get("capacity") != nullptr ||
                            args.Get("deadline-us") != nullptr ||
                            args.Get("retry-after-us") != nullptr ||
                            args.Get("degrade-pools") != nullptr;
  ServingConfig serving_config;
  serving_config.num_threads = search_threads;
  serving_config.admission.capacity = args.GetU32("capacity", 64);
  serving_config.admission.retry_after_us =
      args.GetU64("retry-after-us", 1000);
  const uint64_t deadline_us = args.GetU64("deadline-us", 0);
  if (const char* list = args.Get("degrade-pools"); list != nullptr) {
    std::vector<uint32_t> degrade_pools;
    if (Status s = ParsePoolList("degrade-pools", list, &degrade_pools);
        !s.ok()) {
      return Fail(s);
    }
    for (uint32_t pool : degrade_pools) {
      SearchParams tier;
      tier.pool_size = pool;
      serving_config.degradation.tiers.push_back(tier);
    }
    // Pressure thresholds scale with the admission budget: step down when
    // the queue is 3/4 full, recover below 1/4.
    const uint32_t capacity = serving_config.admission.capacity;
    serving_config.degradation.enter_depth = std::max(1u, capacity * 3 / 4);
    serving_config.degradation.exit_depth = capacity / 4;
  }
  const uint32_t replicas = args.GetU32("replicas", 0);
  const uint32_t max_failover = args.GetU32("max-failover", 2);
  const uint64_t hedge_us = args.GetU64("hedge-us", 0);
  if (pools.empty() || !args.status().ok()) {
    return Fail(args.status().ok()
                    ? Status::InvalidArgument("--pools list is empty")
                    : args.status());
  }
  StatusOr<Dataset> base_or = ReadFvecs(base_path);
  if (!base_or.ok()) return Fail(base_or.status());
  StatusOr<Dataset> queries_or = ReadFvecs(query_path);
  if (!queries_or.ok()) return Fail(queries_or.status());
  const Dataset& base = *base_or;
  const Dataset& queries = *queries_or;
  GroundTruth truth;
  if (gt_path != nullptr) {
    StatusOr<GroundTruth> truth_or = ReadIvecs(gt_path);
    if (!truth_or.ok()) return Fail(truth_or.status());
    truth = *std::move(truth_or);
  } else {
    truth = ComputeGroundTruth(base, queries, k);
  }
  if (const char* list = args.Get("shard-sweep"); list != nullptr) {
    std::vector<uint32_t> shard_counts;
    if (Status s = ParsePoolList("shard-sweep", list, &shard_counts);
        !s.ok()) {
      return Fail(s);
    }
    // The sweep wraps a base algorithm itself; accept either spelling.
    std::string base_algo = algo;
    if (base_algo.rfind("Sharded:", 0) == 0) base_algo = base_algo.substr(8);
    SearchParams params = base_params;
    params.k = k;
    params.pool_size = pools.front();
    std::printf("shard sweep: Sharded:%s (%s partitioner), L=%u\n",
                base_algo.c_str(), options.partitioner.c_str(),
                params.pool_size);
    TablePrinter table({"Shards", "Recall@k", "QPS", "NDC", "PL", "Trunc",
                        "BuildS", "IndexMB"});
    for (const ShardingPoint& point : EvaluateSharding(
             base_algo, options, base, queries, truth, shard_counts,
             params)) {
      table.AddRow({TablePrinter::Int(point.num_shards),
                    TablePrinter::Fixed(point.search.recall, 3),
                    TablePrinter::Fixed(point.search.qps, 0),
                    TablePrinter::Fixed(point.search.mean_ndc, 0),
                    TablePrinter::Fixed(point.search.mean_hops, 0),
                    TablePrinter::Int(point.search.truncated_queries),
                    TablePrinter::Fixed(point.build_seconds, 2),
                    TablePrinter::Megabytes(point.index_bytes)});
    }
    table.Print();
    return kExitOk;
  }
  const char* metrics_out = args.Get("metrics-out");
  auto index = CreateAlgorithm(algo, options);
  index->Build(base);
  std::printf("built %s in %.2fs\n", algo, index->build_stats().seconds);
  if (replicas > 0) {
    // Replicated serving sweep: every point routes the query set through a
    // fresh R-way ReplicaSet (search/replica_set.h) so each row starts from
    // calm health trackers, like the fresh-engine-per-point serving sweep.
    MetricsRegistry registry;
    ReplicaSetConfig set_config;
    set_config.num_threads = search_threads;
    set_config.dim = base.dim();
    set_config.max_failover = max_failover;
    set_config.hedge_after_us = hedge_us;
    set_config.metrics = &registry;
    ServingConfig per_replica;  // engine threads stay 1; the set fans out
    per_replica.admission.capacity = serving_config.admission.capacity;
    per_replica.admission.retry_after_us =
        serving_config.admission.retry_after_us;
    std::printf(
        "replicated serving: %u replica(s), %u thread(s), max failover %u, "
        "hedge %llu us, deadline %llu us\n",
        replicas, set_config.num_threads, max_failover,
        static_cast<unsigned long long>(hedge_us),
        static_cast<unsigned long long>(deadline_us));
    TablePrinter table({"L", "Recall@k", "Routed", "OK", "FailedOv",
                        "HedgeWon", "Failed", "Quar"});
    std::string snapshot;
    uint64_t total_ok = 0;
    uint64_t total_failed = 0;
    for (uint32_t pool : pools) {
      ReplicaSet set(set_config);
      for (uint32_t r = 0; r < replicas; ++r) {
        set.AddReplica(*index, per_replica);
      }
      RequestOptions request;
      request.params = base_params;
      request.params.k = k;
      request.params.pool_size = pool;
      if (deadline_us > 0) {
        request.deadline_us = set.clock().NowMicros() + deadline_us;
      }
      const ReplicaBatchResult result = set.ServeBatch(queries, request);
      double recall_sum = 0.0;
      uint64_t ok = 0;
      for (uint32_t q = 0; q < queries.size(); ++q) {
        const RoutedOutcome& out = result.outcomes[q];
        if (!out.outcome.status.ok()) continue;
        recall_sum += Recall(out.outcome.ids, truth[q], k);
        ++ok;
      }
      total_ok += ok;
      total_failed += result.report.failed;
      table.AddRow({TablePrinter::Int(pool),
                    TablePrinter::Fixed(ok > 0 ? recall_sum / ok : 0.0, 3),
                    TablePrinter::Int(result.report.routed),
                    TablePrinter::Int(result.report.completed),
                    TablePrinter::Int(result.report.failed_over),
                    TablePrinter::Int(result.report.hedge_won),
                    TablePrinter::Int(result.report.failed),
                    TablePrinter::Int(result.report.quarantines)});
      snapshot = set.SnapshotMetrics();
    }
    table.Print();
    if (metrics_out != nullptr) {
      if (Status s = WriteStringToFile(snapshot + "\n", metrics_out);
          !s.ok()) {
        return Fail(s);
      }
      std::printf("metrics snapshot written to %s\n", metrics_out);
    }
    if (total_ok == 0 && total_failed > 0) {
      return Fail(Status::Unavailable(
          "replicated serving: every query failed; relax --deadline-us or "
          "check the replicas"));
    }
    return kExitOk;
  }
  if (serving_mode) {
    MetricsRegistry registry;
    serving_config.metrics = &registry;  // aggregated across sweep points
    std::string snapshot;
    std::printf("serving with %u thread(s), capacity %u, %zu degrade tier(s)"
                ", deadline %llu us\n",
                serving_config.num_threads,
                serving_config.admission.capacity,
                serving_config.degradation.tiers.size(),
                static_cast<unsigned long long>(deadline_us));
    TablePrinter table({"L", "Recall@k", "OK", "ShedOver", "ShedDl", "Degr",
                        "Tier", "p50us", "p99us"});
    uint64_t total_completed = 0;
    uint64_t total_shed = 0;
    for (uint32_t pool : pools) {
      // A fresh engine per point: each sweep row starts from a calm ladder.
      ServingEngine serving(*index, serving_config);
      RequestOptions request;
      request.params = base_params;
      request.params.k = k;
      request.params.pool_size = pool;
      if (deadline_us > 0) {
        request.deadline_us = serving.clock().NowMicros() + deadline_us;
      }
      const ServingPoint point =
          EvaluateServing(serving, queries, truth, request);
      // Machine-readable line per point; undefined stats are JSON null,
      // never a fake 0.0 (see ServingPointJson).
      std::printf("%s\n", ServingPointJson(point).c_str());
      snapshot = serving.SnapshotMetrics();
      total_completed += point.report.completed;
      total_shed += point.report.shed_overload + point.report.shed_deadline;
      table.AddRow({TablePrinter::Int(pool),
                    TablePrinter::Fixed(point.recall_completed, 3),
                    TablePrinter::Int(point.report.completed),
                    TablePrinter::Int(point.report.shed_overload),
                    TablePrinter::Int(point.report.shed_deadline),
                    TablePrinter::Int(point.report.degraded),
                    TablePrinter::Int(point.report.max_tier),
                    TablePrinter::Fixed(point.p50_latency_us, 0),
                    TablePrinter::Fixed(point.p99_latency_us, 0)});
    }
    table.Print();
    if (metrics_out != nullptr) {
      // Gauges were refreshed by the last sweep point's SnapshotMetrics.
      if (Status s = WriteStringToFile(snapshot + "\n", metrics_out);
          !s.ok()) {
        return Fail(s);
      }
      std::printf("metrics snapshot written to %s\n", metrics_out);
    }
    if (total_completed == 0 && total_shed > 0) {
      return Fail(Status::Unavailable(
          "overloaded: every query was shed; raise --capacity or relax "
          "--deadline-us"));
    }
    return kExitOk;
  }
  MetricsRegistry registry;
  const SearchEngine engine(*index, search_threads, &registry);
  std::printf("searching with %u thread(s)\n", engine.num_threads());

  TablePrinter table({"L", "Recall@k", "QPS", "Speedup", "NDC", "PL",
                      "Trunc"});
  for (const SearchPoint& point : SweepPoolSizes(engine, queries, truth, k,
                                                 pools, base_params,
                                                 base.size())) {
    table.AddRow({TablePrinter::Int(point.params.pool_size),
                  TablePrinter::Fixed(point.recall, 3),
                  TablePrinter::Fixed(point.qps, 0),
                  TablePrinter::Fixed(point.speedup, 1),
                  TablePrinter::Fixed(point.mean_ndc, 0),
                  TablePrinter::Fixed(point.mean_hops, 0),
                  TablePrinter::Int(point.truncated_queries)});
  }
  table.Print();
  if (metrics_out != nullptr) {
    if (Status s = WriteStringToFile(registry.ToJson() + "\n", metrics_out);
        !s.ok()) {
      return Fail(s);
    }
    std::printf("metrics snapshot written to %s\n", metrics_out);
  }
  return kExitOk;
}

/// Verifies a shard manifest and every shard graph file it references. All
/// shards are checked even after a failure — an operator wants the full
/// damage report — and the first failure decides the exit code.
int VerifyManifest(const char* manifest_path) {
  std::printf("verify %s (shard manifest)\n", manifest_path);
  StatusOr<ShardManifest> manifest_or = LoadManifest(manifest_path);
  if (!manifest_or.ok()) return Fail(manifest_or.status());
  const ShardManifest& manifest = *manifest_or;
  std::printf(
      "  format v%u, algorithm %s, partitioner %s, %u vertices over %zu "
      "shard(s)\n  manifest OK\n",
      manifest.format_version, manifest.algorithm.c_str(),
      manifest.partitioner.c_str(), manifest.total_vertices,
      manifest.shards.size());
  Status worst;
  for (uint32_t s = 0; s < manifest.shards.size(); ++s) {
    const ShardManifest::Entry& entry = manifest.shards[s];
    const std::string shard_path =
        ResolveShardPath(manifest_path, entry.path);
    const GraphFileReport report = VerifyGraphFile(shard_path);
    Status status = report.status;
    if (status.ok() && report.num_vertices != entry.ids.size()) {
      status = Status::Corruption(
          "vertex count mismatch: file has " +
          std::to_string(report.num_vertices) + ", manifest assigns " +
          std::to_string(entry.ids.size()));
    }
    if (status.ok()) {
      std::printf("  shard %u %s: OK (%u vertices, %llu edges)\n", s,
                  shard_path.c_str(), report.num_vertices,
                  static_cast<unsigned long long>(report.num_edges));
    } else {
      std::printf("  shard %u %s: %s\n", s, shard_path.c_str(),
                  status.ToString().c_str());
      if (worst.ok()) worst = status;
    }
  }
  if (worst.ok()) {
    std::printf("  all %zu shard file(s) OK\n", manifest.shards.size());
    return kExitOk;
  }
  return Fail(worst);
}

/// Verifies a WVSSREPL1 replica-set manifest: its own header/body CRCs,
/// then every replica's recorded file CRC32C against the bytes on disk,
/// then each replica file by its own kind — a graph file's section CRCs or
/// a shard manifest's full recursive check. Every replica is checked even
/// after a failure, and the first failure decides the exit code.
int VerifyReplicaManifest(const char* manifest_path) {
  std::printf("verify %s (replica-set manifest)\n", manifest_path);
  StatusOr<ReplicaManifest> manifest_or = LoadReplicaManifest(manifest_path);
  if (!manifest_or.ok()) return Fail(manifest_or.status());
  const ReplicaManifest& manifest = *manifest_or;
  std::printf("  format v%u, %zu replica(s)\n  manifest OK\n",
              kReplicaManifestFormatVersion, manifest.replicas.size());
  int worst = kExitOk;
  for (uint32_t r = 0; r < manifest.replicas.size(); ++r) {
    const ReplicaManifest::Entry& entry = manifest.replicas[r];
    const std::string path = ResolveShardPath(manifest_path, entry.path);
    const char* kind = entry.kind == ReplicaManifest::Kind::kShardManifest
                           ? "shard manifest"
                           : "graph";
    StatusOr<uint32_t> crc = FileCrc32c(path);
    Status status = crc.status();
    if (status.ok() && *crc != entry.file_crc32c) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "file CRC32C 0x%08x does not match recorded 0x%08x",
                    *crc, entry.file_crc32c);
      status = Status::Corruption(detail);
    }
    if (!status.ok()) {
      std::printf("  replica %u %s (%s): %s\n", r, path.c_str(), kind,
                  status.ToString().c_str());
      if (worst == kExitOk) worst = ExitCodeFor(status);
      // Still descend: the per-kind check reports *where* the rot is.
    } else {
      std::printf("  replica %u %s (%s): CRC32C 0x%08x OK\n", r,
                  path.c_str(), kind, entry.file_crc32c);
    }
    const int kind_exit = entry.kind == ReplicaManifest::Kind::kShardManifest
                              ? VerifyManifest(path.c_str())
                              : [&] {
                                  const GraphFileReport report =
                                      VerifyGraphFile(path);
                                  std::printf(
                                      "  replica %u graph file: %s\n", r,
                                      report.status.ok()
                                          ? "all sections OK"
                                          : report.status.ToString().c_str());
                                  return report.status.ok()
                                             ? kExitOk
                                             : ExitCodeFor(report.status);
                                }();
    if (worst == kExitOk) worst = kind_exit;
  }
  if (worst == kExitOk) {
    std::printf("  all %zu replica(s) OK\n", manifest.replicas.size());
  }
  return worst;
}

/// Prints the per-section CRC table of a graph or quantized-codes file.
void PrintSectionTable(const std::vector<SectionReport>& sections) {
  if (sections.empty()) return;
  std::printf("  %-10s %10s %12s %12s %12s  %s\n", "section", "offset",
              "bytes", "stored", "computed", "status");
  for (const SectionReport& section : sections) {
    std::printf("  %-10s %10llu %12llu   0x%08x   0x%08x  %s\n",
                section.name.c_str(),
                static_cast<unsigned long long>(section.offset),
                static_cast<unsigned long long>(section.length),
                section.stored_crc, section.computed_crc,
                section.ok ? "OK" : "CRC MISMATCH");
  }
}

/// Verifies a WVSSQNT1 quantized-codes file: header CRC plus the mins /
/// scales / codes section CRCs, with the same per-section table as a graph
/// file. All sections are reported even after a failure.
int VerifyQuantized(const char* path) {
  std::printf("verify %s (SQ8 quantized codes)\n", path);
  const QuantFileReport report = VerifyQuantizedFile(path);
  PrintSectionTable(report.sections);
  if (report.status.ok()) {
    std::printf("  format v%u, %u x %u codes (stride %u)\n"
                "  all sections OK\n",
                report.version, report.num, report.dim, report.code_stride);
    return kExitOk;
  }
  return Fail(report.status);
}

int CmdVerify(const Args& args) {
  const char* graph_path = args.Get("graph");
  if (graph_path == nullptr) {
    std::fprintf(stderr, "verify: --graph FILE is required\n");
    return kExitUsage;
  }
  // A manifest and a graph file share the format family but not the magic;
  // sniff the first bytes so `verify` works on either without a mode flag.
  std::string head;
  if (Status s = ReadFileToString(graph_path, &head); !s.ok()) {
    return Fail(s);
  }
  if (IsReplicaManifestBytes(head)) return VerifyReplicaManifest(graph_path);
  if (IsManifestBytes(head)) return VerifyManifest(graph_path);
  if (IsQuantizedBytes(head)) return VerifyQuantized(graph_path);
  const GraphFileReport report = VerifyGraphFile(graph_path);
  std::printf("verify %s\n", graph_path);
  PrintSectionTable(report.sections);
  if (report.status.ok()) {
    std::printf("  format v%u, %u vertices, %llu edges", report.version,
                report.num_vertices,
                static_cast<unsigned long long>(report.num_edges));
    if (!report.metadata.empty()) {
      std::printf(", metadata \"%s\"", report.metadata.c_str());
    }
    std::printf("\n  all sections OK\n");
    return kExitOk;
  }
  return Fail(report.status);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (command == "algorithms") return CmdAlgorithms();
  if (command == "metrics") return CmdMetrics();
  if (command == "generate") return CmdGenerate(args);
  if (command == "build") return CmdBuild(args);
  if (command == "eval") return CmdEval(args);
  if (command == "verify") return CmdVerify(args);
  return Usage();
}
