#include "shard/sharded_index.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "core/check.h"
#include "core/graph_io.h"
#include "core/thread_pool.h"
#include "core/topk_merge.h"
#include "search/loaded_index.h"

namespace weavess {

namespace {

/// Rewraps a shard-file load failure so the Status names the shard and the
/// file, preserving the original code (kIOError vs kCorruption matters to
/// callers deciding between retry and repair).
Status WrapShardStatus(uint32_t shard, const std::string& path,
                       const Status& inner) {
  const std::string message = "shard " + std::to_string(shard) + " (" + path +
                              "): " + inner.message();
  switch (inner.code()) {
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kNotSupported:
      return Status::NotSupported(message);
    default:
      return Status::Corruption(message);
  }
}

std::string ShardFileName(const std::string& stem, uint32_t shard) {
  return stem + ".shard" + std::to_string(shard) + ".wvs";
}

}  // namespace

ShardedIndex::ShardedIndex(std::string algorithm, AlgorithmOptions options)
    : algorithm_(std::move(algorithm)), options_(std::move(options)) {
  WEAVESS_CHECK(IsKnownAlgorithm(algorithm_) &&
                algorithm_.rfind("Sharded:", 0) != 0 &&
                "inner algorithm must be a base registry name");
  if (options_.num_shards == 0) options_.num_shards = 1;
  const StatusOr<PartitionerKind> kind =
      ParsePartitioner(options_.partitioner);
  WEAVESS_CHECK(kind.ok() && "unknown partitioner name");
  partitioner_ = *kind;
}

AlgorithmOptions ShardedIndex::ShardBuildOptions(uint32_t shard) const {
  AlgorithmOptions per_shard = options_;
  // Each shard builds with the index's build_threads on the shared pool
  // (its build is thread-count invariant), so cores freed by small shards
  // help the largest one finish. Each shard gets its own derived RNG
  // stream, so the composed index is independent of thread count and
  // build order.
  per_shard.seed = DeriveShardSeed(options_.seed, shard);
  return per_shard;
}

void ShardedIndex::Build(const Dataset& data) {
  WEAVESS_CHECK(shards_.empty() && "Build may be called once per instance");
  const auto start = std::chrono::steady_clock::now();

  StatusOr<std::vector<std::vector<uint32_t>>> partition =
      PartitionDataset(data, options_.num_shards, partitioner_,
                       options_.seed);
  WEAVESS_CHECK(partition.ok());
  const uint32_t num_shards = static_cast<uint32_t>(partition->size());
  // Sized exactly once: inner indexes keep pointers to shard datasets, so
  // Shard addresses must never move again.
  shards_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    shards_[s].ids = std::move((*partition)[s]);
    shards_[s].data = data.Subset(shards_[s].ids);
  }

  ThreadPool pool(options_.build_threads > 0 ? options_.build_threads - 1 : 0);
  pool.RunTasks(num_shards, [this](uint32_t s) {
    // Shards below the graph-construction floor serve exact scans by
    // design (kMinGraphShardRows); they never get an inner index.
    if (shards_[s].tiny()) return;
    std::unique_ptr<AnnIndex> index =
        CreateAlgorithm(algorithm_, ShardBuildOptions(s));
    index->Build(shards_[s].data);
    shards_[s].index = std::move(index);
  });

  Compose();
  RecountDegraded();

  build_stats_.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  build_stats_.distance_evals = 0;
  for (const Shard& shard : shards_) {
    if (shard.index != nullptr) {
      build_stats_.distance_evals += shard.index->build_stats().distance_evals;
    }
  }
}

void ShardedIndex::Compose() {
  // Each list's length lands at its global row, a prefix sum turns the
  // lengths into offsets, then each list is translated into place. A shard
  // without an index (degraded or tiny) leaves its rows isolated.
  size_t num_vertices = 0;
  for (const Shard& sh : shards_) num_vertices += sh.ids.size();
  std::vector<uint64_t> offsets(num_vertices + 1, 0);
  for (const Shard& sh : shards_) {
    if (sh.index == nullptr) continue;
    for (uint32_t local = 0; local < sh.ids.size(); ++local) {
      offsets[sh.ids[local] + 1] = sh.index->graph().Neighbors(local).size();
    }
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<uint32_t> ids(offsets.back());
  for (const Shard& sh : shards_) {
    if (sh.index == nullptr) continue;
    for (uint32_t local = 0; local < sh.ids.size(); ++local) {
      uint64_t at = offsets[sh.ids[local]];
      for (uint32_t neighbor : sh.index->graph().Neighbors(local)) {
        ids[at++] = sh.ids[neighbor];
      }
    }
  }
  combined_ = CsrGraph(std::move(offsets), std::move(ids));
}

void ShardedIndex::RecountDegraded() {
  // Damage, not policy: tiny shards also run exact scans but carry an OK
  // status and are not degraded.
  uint32_t degraded = 0;
  for (const Shard& shard : shards_) {
    if (!shard.status.ok()) ++degraded;
  }
  degraded_count_.store(degraded, std::memory_order_release);
}

std::vector<ScoredId> ShardedIndex::SearchScored(SearchScratch& scratch,
                                                 const float* query,
                                                 const SearchParams& params,
                                                 QueryStats* stats) const {
  const auto leg = [&](uint32_t s, SearchScratch& leg_scratch,
                       const SearchParams& per_shard,
                       QueryStats* shard_stats) {
    const Shard& shard = shards_[s];
    if (shard.ids.empty()) return std::vector<ScoredId>();
    // A degraded or tiny shard is scanned exactly; its eval budget is a row
    // cap, as in the serving fallback. Either way the distances are to the
    // shard's own rows, byte-identical to the global ones.
    const bool exact_scan = shard.index == nullptr;
    std::vector<ScoredId> list =
        exact_scan ? ExactScanTopK(shard.data, query, per_shard.k,
                                   /*max_rows=*/0,
                                   per_shard.max_distance_evals, shard_stats)
                   : shard.index->SearchScored(leg_scratch, query, per_shard,
                                               shard_stats);
    for (ScoredId& entry : list) entry.id = shard.ids[entry.id];
    // The leg's own order is by distance alone: a graph search returns
    // distance ties in reverse insertion order (CandidatePool::Insert puts
    // a newcomer ahead of its equals), and an id map need not ascend. This
    // sort is what gives MergeTopK its (distance, global id) order.
    std::sort(list.begin(), list.end());
    if (TraceSink* trace = leg_scratch.ctx.trace; trace != nullptr) {
      if (exact_scan) trace->Record(TraceEventKind::kShardFallback, s);
      trace->Record(TraceEventKind::kShardSearch, s,
                    shard_stats->distance_evals);
    }
    if (!shard_counters_.empty()) {
      const ShardCounters& counters = shard_counters_[s];
      counters.searches->Add(1);
      counters.distance_evals->Add(shard_stats->distance_evals);
      if (exact_scan) counters.exact_scans->Add(1);
      if (shard_stats->truncated) counters.truncated->Add(1);
    }
    return list;
  };
  return ScatterGather(num_shards(), scratch, params, stats, leg);
}

size_t ShardedIndex::IndexMemoryBytes() const {
  // Honest accounting: the subset row copies and id maps are real sharding
  // overhead on top of the shared base vectors, so they count here.
  size_t bytes = combined_.MemoryBytes();
  for (const Shard& shard : shards_) {
    bytes += shard.ids.size() * sizeof(uint32_t) + shard.data.MemoryBytes();
    if (shard.index != nullptr) bytes += shard.index->IndexMemoryBytes();
  }
  return bytes;
}

Status ShardedIndex::Save(const std::string& prefix) {
  WEAVESS_CHECK(!shards_.empty() && "Save requires a built or loaded index");
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (shards_[s].index == nullptr && !shards_[s].tiny()) {
      return Status::InvalidArgument(
          "cannot save: shard " + std::to_string(s) +
          " is degraded (" + shards_[s].status.message() +
          "); RepairShard it first");
    }
  }
  const size_t slash = prefix.find_last_of('/');
  const std::string stem =
      slash == std::string::npos ? prefix : prefix.substr(slash + 1);

  ShardManifest manifest;
  manifest.algorithm = algorithm_;
  manifest.partitioner = PartitionerName(partitioner_);
  manifest.options = options_;
  manifest.total_vertices = combined_.size();
  manifest.generation = generation_;
  manifest.shards.resize(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    manifest.shards[s].path = ShardFileName(stem, s);
    manifest.shards[s].ids = shards_[s].ids;
    const std::string path = ShardFileName(prefix, s);
    // Tiny shards persist a placeholder of isolated vertices so the file's
    // vertex count still agrees with the manifest's id map (verify checks
    // that); Load skips these files and serves the shard by exact scan.
    const CsrGraph placeholder(
        std::vector<uint64_t>(shards_[s].ids.size() + 1, 0), {});
    const CsrGraph& graph =
        shards_[s].index != nullptr ? shards_[s].index->graph() : placeholder;
    WEAVESS_RETURN_IF_ERROR(SaveGraph(graph, path, algorithm_));
    shards_[s].path = path;
  }
  return SaveManifest(manifest, prefix + ".manifest");
}

StatusOr<std::unique_ptr<ShardedIndex>> ShardedIndex::Load(
    const std::string& manifest_path, const Dataset& data) {
  WEAVESS_ASSIGN_OR_RETURN(ShardManifest manifest,
                           LoadManifest(manifest_path));
  if (manifest.total_vertices != data.size()) {
    return Status::Corruption(
        "manifest/dataset mismatch: manifest covers " +
        std::to_string(manifest.total_vertices) + " rows, dataset has " +
        std::to_string(data.size()));
  }
  if (!IsKnownAlgorithm(manifest.algorithm) ||
      manifest.algorithm.rfind("Sharded:", 0) == 0) {
    return Status::Corruption("manifest names unknown inner algorithm \"" +
                              manifest.algorithm + "\"");
  }
  const StatusOr<PartitionerKind> kind =
      ParsePartitioner(manifest.partitioner);
  if (!kind.ok()) {
    return Status::Corruption("manifest names " + kind.status().message());
  }

  std::unique_ptr<ShardedIndex> index(new ShardedIndex());
  index->algorithm_ = manifest.algorithm;
  index->options_ = manifest.options;
  index->partitioner_ = *kind;
  index->generation_ = manifest.generation;
  const uint32_t num_shards =
      static_cast<uint32_t>(manifest.shards.size());
  index->shards_.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    Shard& shard = index->shards_[s];
    shard.ids = std::move(manifest.shards[s].ids);
    shard.path = ResolveShardPath(manifest_path, manifest.shards[s].path);
    shard.data = data.Subset(shard.ids);
    // Tiny shards serve exact scans by design; their placeholder graph
    // file is not loaded (and its corruption is harmless).
    if (shard.tiny()) continue;
    std::string metadata;
    StatusOr<CsrGraph> graph =
        LoadGraphForRows(shard.path, shard.data.size(), &metadata);
    if (graph.ok()) {
      shard.index = std::make_unique<LoadedGraphIndex>(
          *std::move(graph), shard.data, std::move(metadata));
    } else {
      // The failure names the shard and its file; the shard serves exact
      // scans until RepairShard, everything else is unaffected.
      shard.status = WrapShardStatus(s, shard.path, graph.status());
    }
  }
  index->Compose();
  index->RecountDegraded();
  return index;
}

void ShardedIndex::set_metrics(MetricsRegistry* metrics) {
  shard_counters_.clear();
  if (metrics == nullptr) return;
  shard_counters_.reserve(shards_.size());
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    shard_counters_.push_back(ShardCounters{
        metrics->GetCounter(prefix + "searches"),
        metrics->GetCounter(prefix + "distance_evals"),
        metrics->GetCounter(prefix + "exact_scans"),
        metrics->GetCounter(prefix + "truncated")});
  }
}

Status ShardedIndex::RepairShard(uint32_t shard) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range (index has " +
        std::to_string(shards_.size()) + " shards)");
  }
  Shard& sh = shards_[shard];
  // Tiny shards have no graph to rebuild: exact scan is their healthy state.
  if (sh.tiny()) return Status::OK();
  // The recorded options + derived seed reproduce the original build
  // bit-for-bit (the determinism contract), so a repaired shard file is
  // byte-identical to the one that was lost.
  std::unique_ptr<AnnIndex> rebuilt =
      CreateAlgorithm(algorithm_, ShardBuildOptions(shard));
  rebuilt->Build(sh.data);
  sh.index = std::move(rebuilt);
  sh.status = Status::OK();
  Compose();
  RecountDegraded();
  if (!sh.path.empty()) {
    WEAVESS_RETURN_IF_ERROR(SaveGraph(sh.index->graph(), sh.path, algorithm_));
  }
  return Status::OK();
}

}  // namespace weavess
