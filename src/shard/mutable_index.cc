#include "shard/mutable_index.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "core/check.h"
#include "shard/scatter_gather.h"

namespace weavess {

MutableShardedIndex::MutableShardedIndex(std::string directory,
                                         MutableIndexOptions options)
    : directory_(std::move(directory)),
      options_(std::move(options)),
      pool_(options_.num_threads > 0 ? options_.num_threads - 1 : 0) {
  shards_.reserve(options_.num_shards);
  for (uint32_t s = 0; s < options_.num_shards; ++s) {
    HnswIndex::Params params;
    params.m = std::max(2u, options_.m);
    params.ef_construction = options_.ef_construction;
    params.seed = DeriveShardSeed(options_.seed, s);
    shards_.push_back(std::make_unique<MutableShard>(options_.dim, params));
  }
}

MutableShardedIndex::~MutableShardedIndex() {
  WaitForMaintenance();
  (void)wal_.Close();
}

StatusOr<std::unique_ptr<MutableShardedIndex>> MutableShardedIndex::Open(
    const std::string& directory, const MutableIndexOptions& options) {
  if (options.dim == 0) {
    return Status::InvalidArgument("MutableIndexOptions::dim must be > 0");
  }
  MutableIndexOptions opts = options;
  if (opts.num_shards == 0) opts.num_shards = 1;

  // The generation manifest is advisory (the WAL is the source of truth),
  // but it lets Open reject a mismatched configuration — opening someone
  // else's index with the wrong geometry — before replaying anything.
  const std::string manifest_path = ManifestPath(directory);
  std::string manifest_bytes;
  if (ReadFileToString(manifest_path, &manifest_bytes).ok()) {
    WEAVESS_ASSIGN_OR_RETURN(const GenerationManifest existing,
                             DeserializeGenerationManifest(manifest_bytes));
    if (existing.dim != opts.dim || existing.num_shards != opts.num_shards ||
        existing.seed != opts.seed) {
      return Status::InvalidArgument(
          "generation manifest geometry mismatch: on disk dim=" +
          std::to_string(existing.dim) +
          " shards=" + std::to_string(existing.num_shards) +
          " seed=" + std::to_string(existing.seed) + ", requested dim=" +
          std::to_string(opts.dim) + " shards=" +
          std::to_string(opts.num_shards) + " seed=" +
          std::to_string(opts.seed));
    }
  }

  std::unique_ptr<MutableShardedIndex> index(
      new MutableShardedIndex(directory, opts));

  // Replay the committed prefix. A missing log is a fresh index; a log with
  // a wrong dimension is a configuration error and fails outright.
  const std::string wal_path = WalPath(directory);
  std::string wal_bytes;
  const bool had_log = ReadFileToString(wal_path, &wal_bytes).ok();
  WEAVESS_ASSIGN_OR_RETURN(const WalReplay replay,
                           ReplayMutationLog(wal_bytes, opts.dim));
  for (const MutationRecord& record : replay.records) {
    WEAVESS_RETURN_IF_ERROR(index->ApplyReplayedRecord(record));
  }
  index->generation_.store(replay.generation, std::memory_order_release);
  index->next_id_.store(replay.next_id, std::memory_order_release);
  index->recovery_.generation = replay.generation;
  index->recovery_.next_id = replay.next_id;
  index->recovery_.replayed_records = replay.records.size();
  index->recovery_.rolled_back_records = replay.rolled_back_records;
  index->recovery_.truncated_tail = replay.truncated_tail;

  // Rewrite the log to exactly its committed prefix via temp + rename, so
  // recovery itself can be killed anywhere: the old log and the rewritten
  // one replay to the same generation.
  const std::string committed =
      replay.committed_bytes >= kWalHeaderBytes
          ? wal_bytes.substr(0, replay.committed_bytes)
          : SerializeWalHeader(opts.dim);
  if (!had_log || committed.size() != wal_bytes.size()) {
    const std::string tmp = wal_path + ".tmp";
    WEAVESS_RETURN_IF_ERROR(WriteStringToFile(committed, tmp));
    if (std::rename(tmp.c_str(), wal_path.c_str()) != 0) {
      return Status::IOError("cannot rename '" + tmp + "' over '" + wal_path +
                             "'");
    }
  }
  WEAVESS_RETURN_IF_ERROR(index->wal_.Open(wal_path, /*append=*/true));

  // Re-sync the manifest to the WAL's committed truth (it may lag after a
  // crash between flush and manifest rewrite).
  GenerationManifest manifest;
  manifest.dim = opts.dim;
  manifest.num_shards = opts.num_shards;
  manifest.generation = replay.generation;
  manifest.next_id = replay.next_id;
  manifest.seed = opts.seed;
  WEAVESS_RETURN_IF_ERROR(SaveGenerationManifest(manifest, manifest_path));
  return index;
}

Status MutableShardedIndex::ApplyReplayedRecord(const MutationRecord& record) {
  switch (record.kind) {
    case MutationKind::kAdd: {
      const uint32_t shard = ShardOf(record.id);
      if (shards_[shard]->Contains(record.id)) {
        return Status::Corruption("log replays duplicate add of id " +
                                  std::to_string(record.id));
      }
      shards_[shard]->Add(record.id, record.vector.data());
      live_count_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
    case MutationKind::kRemove:
      if (!shards_[ShardOf(record.id)]->Remove(record.id)) {
        return Status::Corruption("log replays remove of unknown id " +
                                  std::to_string(record.id));
      }
      live_count_.fetch_sub(1, std::memory_order_acq_rel);
      return Status::OK();
    case MutationKind::kCompact:
      if (record.id >= num_shards()) {
        return Status::Corruption("log replays compaction of shard " +
                                  std::to_string(record.id) + " (index has " +
                                  std::to_string(num_shards()) + ")");
      }
      // Deterministic redo: the rebuild runs from a fresh per-shard seed in
      // ascending id order, so redoing it here reproduces the compacted
      // structure bit-for-bit (no fault can be armed during replay).
      return CompactShardLocked(record.id, /*log=*/false);
    case MutationKind::kCommit:
      return Status::OK();  // generation tracked by the replay summary
  }
  return Status::Corruption("log replays unknown record kind");
}

Status MutableShardedIndex::AppendRecordLocked(const MutationRecord& record) {
  const std::string frame = SerializeWalRecord(record);
  WEAVESS_RETURN_IF_ERROR(wal_.Append(frame.data(), frame.size()));
  if (counters_.wal_records != nullptr) counters_.wal_records->Add(1);
  return Status::OK();
}

StatusOr<uint32_t> MutableShardedIndex::Add(const float* vector) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const uint32_t global_id = next_id_.load(std::memory_order_relaxed);
  MutationRecord record;
  record.kind = MutationKind::kAdd;
  record.id = global_id;
  record.vector.assign(vector, vector + options_.dim);
  // Log before apply: a record that fails to append is never applied, so
  // the in-memory state can't run ahead of what recovery could restore.
  WEAVESS_RETURN_IF_ERROR(AppendRecordLocked(record));
  MutableShard& shard = *shards_[ShardOf(global_id)];
  const uint64_t copied_before = shard.copied_bytes();
  shard.Add(global_id, vector);
  next_id_.store(global_id + 1, std::memory_order_release);
  live_count_.fetch_add(1, std::memory_order_acq_rel);
  if (counters_.adds != nullptr) counters_.adds->Add(1);
  if (counters_.copied_bytes != nullptr) {
    counters_.copied_bytes->Add(shard.copied_bytes() - copied_before);
  }
  return global_id;
}

Status MutableShardedIndex::Remove(uint32_t global_id) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (global_id >= next_id_.load(std::memory_order_relaxed)) {
    return Status::InvalidArgument("id " + std::to_string(global_id) +
                                   " was never assigned");
  }
  MutableShard& shard = *shards_[ShardOf(global_id)];
  if (!shard.Contains(global_id)) {
    return Status::InvalidArgument("id " + std::to_string(global_id) +
                                   " is already removed");
  }
  MutationRecord record;
  record.kind = MutationKind::kRemove;
  record.id = global_id;
  WEAVESS_RETURN_IF_ERROR(AppendRecordLocked(record));
  const uint64_t copied_before = shard.copied_bytes();
  WEAVESS_CHECK(shard.Remove(global_id));
  live_count_.fetch_sub(1, std::memory_order_acq_rel);
  if (counters_.removes != nullptr) counters_.removes->Add(1);
  if (counters_.copied_bytes != nullptr) {
    counters_.copied_bytes->Add(shard.copied_bytes() - copied_before);
  }
  return Status::OK();
}

Status MutableShardedIndex::Commit() {
  std::lock_guard<std::mutex> lock(writer_mu_);
  const uint64_t next_generation =
      generation_.load(std::memory_order_relaxed) + 1;
  MutationRecord record;
  record.kind = MutationKind::kCommit;
  record.generation = next_generation;
  record.next_id = next_id_.load(std::memory_order_relaxed);
  // Commit protocol: seal the log (frame + flush), then swing the advisory
  // manifest atomically. A crash between the two leaves the WAL ahead of
  // the manifest; Open trusts the WAL and re-syncs.
  WEAVESS_RETURN_IF_ERROR(AppendRecordLocked(record));
  WEAVESS_RETURN_IF_ERROR(wal_.Flush());
  GenerationManifest manifest;
  manifest.dim = options_.dim;
  manifest.num_shards = num_shards();
  manifest.generation = next_generation;
  manifest.next_id = record.next_id;
  manifest.seed = options_.seed;
  WEAVESS_RETURN_IF_ERROR(
      SaveGenerationManifest(manifest, ManifestPath(directory_)));
  generation_.store(next_generation, std::memory_order_release);
  if (counters_.commits != nullptr) counters_.commits->Add(1);
  return Status::OK();
}

std::vector<uint32_t> MutableShardedIndex::Search(const float* query,
                                                  const SearchParams& params,
                                                  QueryStats* stats) const {
  const uint32_t num_shards = this->num_shards();
  // Pin every shard's snapshot up front: one atomic load each, and the
  // whole query resolves against these exact generations no matter what
  // writers or compaction do meanwhile.
  std::vector<std::shared_ptr<const MutableShard::Snapshot>> pinned;
  pinned.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    pinned.push_back(shards_[s]->Pin());
  }
  ScratchPool::Lease scratch(scratch_pool_);
  return IdsOf(ScatterGather(
      num_shards, scratch.get(), params, stats,
      [&](uint32_t s, SearchScratch& leg_scratch,
          const SearchParams& per_shard, QueryStats* shard_stats) {
        return SearchSnapshot(*pinned[s], leg_scratch, query, per_shard,
                              shard_stats);
      }));
}

Status MutableShardedIndex::CompactShardLocked(uint32_t shard, bool log) {
  const Status status = shards_[shard]->Compact();
  if (!status.ok()) {
    // The shard published its degraded snapshot; queries keep being served
    // (exact scan) and nothing enters the log — a failed rebuild is not a
    // state change recovery should reproduce.
    if (log && counters_.compaction_failures != nullptr) {
      counters_.compaction_failures->Add(1);
    }
    return status;
  }
  if (log) {
    MutationRecord record;
    record.kind = MutationKind::kCompact;
    record.id = shard;
    WEAVESS_RETURN_IF_ERROR(AppendRecordLocked(record));
    if (counters_.compactions != nullptr) counters_.compactions->Add(1);
  }
  return Status::OK();
}

Status MutableShardedIndex::CompactShard(uint32_t shard) {
  if (shard >= num_shards()) {
    return Status::InvalidArgument(
        "shard " + std::to_string(shard) + " out of range (index has " +
        std::to_string(num_shards()) + " shards)");
  }
  std::lock_guard<std::mutex> lock(writer_mu_);
  return CompactShardLocked(shard, /*log=*/true);
}

void MutableShardedIndex::CompactAllAsync() {
  std::lock_guard<std::mutex> lock(maintenance_mu_);
  if (maintenance_running_) return;
  // A finished-but-unjoined previous run no longer touches any state
  // (running_ was its last write), so joining under the lock is safe.
  if (maintenance_.joinable()) maintenance_.join();
  maintenance_running_ = true;
  maintenance_ = std::thread([this] {
    pool_.RunTasks(num_shards(), [this](uint32_t s) {
      (void)CompactShard(s);  // a degraded shard keeps serving; not fatal
    });
    std::lock_guard<std::mutex> inner(maintenance_mu_);
    maintenance_running_ = false;
  });
}

void MutableShardedIndex::WaitForMaintenance() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(maintenance_mu_);
    if (maintenance_.joinable()) to_join = std::move(maintenance_);
  }
  if (to_join.joinable()) to_join.join();
}

void MutableShardedIndex::InjectCompactionFault(uint32_t shard) {
  WEAVESS_CHECK(shard < num_shards());
  std::lock_guard<std::mutex> lock(writer_mu_);
  shards_[shard]->InjectCompactionFault();
}

uint32_t MutableShardedIndex::num_degraded_shards() const {
  uint32_t degraded = 0;
  for (const auto& shard : shards_) {
    if (shard->degraded()) ++degraded;
  }
  return degraded;
}

void MutableShardedIndex::set_metrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(writer_mu_);
  if (metrics == nullptr) {
    counters_ = MutationCounters{};
    return;
  }
  counters_.adds = metrics->GetCounter("mutation.adds");
  counters_.removes = metrics->GetCounter("mutation.removes");
  counters_.commits = metrics->GetCounter("mutation.commits");
  counters_.compactions = metrics->GetCounter("mutation.compactions");
  counters_.compaction_failures =
      metrics->GetCounter("mutation.compaction_failures");
  counters_.wal_records = metrics->GetCounter("mutation.wal_records");
  counters_.copied_bytes = metrics->GetCounter("mutation.copied_bytes");
}

}  // namespace weavess
