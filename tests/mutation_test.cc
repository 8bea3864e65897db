// Unit coverage for the mutable serving path (docs/MUTATION.md): the
// write-ahead mutation log and generation manifest (shard/mutation_log.h),
// the epoch-snapshot MutableShard — including the Compact() id-remapping
// contract under a pinned reader — and MutableShardedIndex's
// log-before-apply mutation, recovery, and compaction protocols.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/crc32c.h"
#include "core/distance.h"
#include "core/file_io.h"
#include "core/index.h"
#include "core/search_context.h"
#include "core/status.h"
#include "fault_injection.h"
#include "obs/metrics.h"
#include "shard/mutable_index.h"
#include "shard/mutable_shard.h"
#include "shard/mutation_log.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::FlipBit;
using ::weavess::testing::Fnv;

// A per-test directory under the gtest temp root, scrubbed of any index
// files a previous run may have left behind.
std::string FreshDir(const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  ::mkdir(path.c_str(), 0755);
  std::remove(MutableShardedIndex::WalPath(path).c_str());
  std::remove(MutableShardedIndex::ManifestPath(path).c_str());
  return path;
}

// Deterministic test vectors: row `id` of an implicit dataset.
std::vector<float> TestVector(uint32_t dim, uint32_t id) {
  std::mt19937 rng(1000 + id);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> out(dim);
  for (float& v : out) v = dist(rng);
  return out;
}

// Exact top-k global ids over a set of (id, vector) rows.
std::vector<uint32_t> ExactTopK(
    const std::vector<std::pair<uint32_t, std::vector<float>>>& rows,
    const float* query, uint32_t dim, uint32_t k) {
  std::vector<std::pair<float, uint32_t>> scored;
  scored.reserve(rows.size());
  for (const auto& [id, vec] : rows) {
    scored.emplace_back(L2Sqr(query, vec.data(), dim), id);
  }
  std::sort(scored.begin(), scored.end());
  std::vector<uint32_t> ids;
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    ids.push_back(scored[i].second);
  }
  return ids;
}

// --------------------------------------------------------------- WAL

// A committed batch followed by an uncommitted tail, as one log image.
std::string MakeLogImage(uint32_t dim, std::vector<MutationRecord>* records) {
  std::string log = SerializeWalHeader(dim);
  const auto append = [&](MutationRecord r) {
    log += SerializeWalRecord(r);
    records->push_back(std::move(r));
  };
  MutationRecord add0{MutationKind::kAdd, 0, 0, 0, TestVector(dim, 0)};
  MutationRecord add1{MutationKind::kAdd, 1, 0, 0, TestVector(dim, 1)};
  MutationRecord rem{MutationKind::kRemove, 0, 0, 0, {}};
  MutationRecord commit{MutationKind::kCommit, 0, 1, 2, {}};
  MutationRecord tail{MutationKind::kAdd, 2, 0, 0, TestVector(dim, 2)};
  append(add0);
  append(add1);
  append(rem);
  append(commit);
  append(tail);  // valid but never committed
  return log;
}

TEST(MutationLogTest, ReplayKeepsCommittedPrefixAndRollsBackTail) {
  const uint32_t dim = 6;
  std::vector<MutationRecord> written;
  const std::string log = MakeLogImage(dim, &written);

  StatusOr<WalReplay> replayed = ReplayMutationLog(log, dim);
  ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
  const WalReplay& replay = *replayed;
  // The committed prefix: everything through the kCommit, nothing after.
  ASSERT_EQ(replay.records.size(), 4u);
  EXPECT_EQ(replay.rolled_back_records, 1u);
  EXPECT_FALSE(replay.truncated_tail) << "the tail is valid, just uncommitted";
  EXPECT_EQ(replay.generation, 1u);
  EXPECT_EQ(replay.next_id, 2u);
  EXPECT_EQ(replay.valid_bytes, log.size());
  EXPECT_LT(replay.committed_bytes, log.size());
  // Replayed records are byte-faithful to what was written.
  for (size_t i = 0; i < replay.records.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(static_cast<int>(replay.records[i].kind),
              static_cast<int>(written[i].kind));
    EXPECT_EQ(replay.records[i].id, written[i].id);
    EXPECT_EQ(replay.records[i].vector, written[i].vector);
  }
  // Replaying exactly the committed prefix drops the rollback and the
  // truncation flag: the rewritten log is already clean.
  StatusOr<WalReplay> again =
      ReplayMutationLog(log.substr(0, replay.committed_bytes), dim);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->records.size(), 4u);
  EXPECT_EQ(again->rolled_back_records, 0u);
  EXPECT_FALSE(again->truncated_tail);
}

TEST(MutationLogTest, EveryBytePrefixReplaysToAConsistentState) {
  // Kill-anywhere at the byte level: a log cut at ANY length must replay
  // without error to a state that is a committed prefix of the original.
  const uint32_t dim = 6;
  std::vector<MutationRecord> written;
  const std::string log = MakeLogImage(dim, &written);

  for (size_t cut = 0; cut <= log.size(); ++cut) {
    SCOPED_TRACE(cut);
    StatusOr<WalReplay> replayed = ReplayMutationLog(log.substr(0, cut), dim);
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    const WalReplay& replay = *replayed;
    // Only two committed states exist in this log: empty, or the 4-record
    // generation 1.
    if (replay.generation == 0) {
      EXPECT_TRUE(replay.records.empty());
      EXPECT_EQ(replay.next_id, 0u);
    } else {
      EXPECT_EQ(replay.generation, 1u);
      EXPECT_EQ(replay.records.size(), 4u);
      EXPECT_EQ(replay.next_id, 2u);
    }
    // A mid-frame (or mid-header) cut is reported as a truncated tail.
    EXPECT_EQ(replay.truncated_tail, replay.valid_bytes != cut);
    EXPECT_LE(replay.committed_bytes, cut);
  }
}

TEST(MutationLogTest, SingleBitFlipsNeverForgeRecords) {
  // CRC matrix: flip one bit at a spread of positions. Replay must never
  // crash, and every record it does return must be byte-identical to one
  // actually written — corruption can only shorten the log, never alter it.
  const uint32_t dim = 6;
  std::vector<MutationRecord> written;
  const std::string log = MakeLogImage(dim, &written);

  for (size_t bit = 0; bit < log.size() * 8; bit += 7) {
    SCOPED_TRACE(bit);
    StatusOr<WalReplay> replayed =
        ReplayMutationLog(FlipBit(log, bit), dim);
    if (!replayed.ok()) continue;  // e.g. a dim-field flip caught by the CRC
    const WalReplay& replay = *replayed;
    ASSERT_LE(replay.records.size(), written.size());
    for (size_t i = 0; i < replay.records.size(); ++i) {
      EXPECT_EQ(static_cast<int>(replay.records[i].kind),
                static_cast<int>(written[i].kind));
      EXPECT_EQ(replay.records[i].id, written[i].id);
      EXPECT_EQ(replay.records[i].vector, written[i].vector);
    }
    EXPECT_LE(replay.generation, 1u);
  }
}

TEST(MutationLogTest, TornOrForeignHeaderIsEmptyReplay) {
  // Nothing before the header was ever committed, so a missing, short, or
  // garbage header recovers to the empty state instead of erroring.
  StatusOr<WalReplay> empty = ReplayMutationLog("", 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_FALSE(empty->truncated_tail);
  EXPECT_EQ(empty->committed_bytes, 0u);

  StatusOr<WalReplay> garbage = ReplayMutationLog("not a log at all", 4);
  ASSERT_TRUE(garbage.ok());
  EXPECT_TRUE(garbage->records.empty());
  EXPECT_TRUE(garbage->truncated_tail);
}

TEST(MutationLogTest, WrongDimensionAndVersionAreConfigurationErrors) {
  const std::string log = SerializeWalHeader(8);
  // Valid header, wrong dimension: a configuration error, not corruption.
  EXPECT_TRUE(ReplayMutationLog(log, 16).status().IsInvalidArgument());
  // A future format version (with its CRC fixed up) must be refused, not
  // misparsed.
  std::string future = log;
  future[8] = 2;  // version u32 at offset 8, little-endian
  const uint32_t crc = Crc32c(future.data(), 16);
  future[16] = static_cast<char>(crc & 0xFF);
  future[17] = static_cast<char>((crc >> 8) & 0xFF);
  future[18] = static_cast<char>((crc >> 16) & 0xFF);
  future[19] = static_cast<char>((crc >> 24) & 0xFF);
  EXPECT_TRUE(ReplayMutationLog(future, 8).status().IsNotSupported());
}

// ------------------------------------------------- generation manifest

TEST(MutationLogTest, GenerationManifestRoundTripsAndValidates) {
  GenerationManifest manifest;
  manifest.dim = 12;
  manifest.num_shards = 3;
  manifest.generation = 41;
  manifest.next_id = 907;
  manifest.seed = 0xDEADBEEFCAFEull;
  const std::string bytes = SerializeGenerationManifest(manifest);
  ASSERT_EQ(bytes.size(), kGenManifestBytes);

  StatusOr<GenerationManifest> loaded = DeserializeGenerationManifest(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dim, 12u);
  EXPECT_EQ(loaded->num_shards, 3u);
  EXPECT_EQ(loaded->generation, 41u);
  EXPECT_EQ(loaded->next_id, 907u);
  EXPECT_EQ(loaded->seed, 0xDEADBEEFCAFEull);

  // Truncation, bad magic, and every single-bit flip are kCorruption (a
  // version flip lands in the CRC check first, same terminal outcome).
  EXPECT_TRUE(
      DeserializeGenerationManifest(bytes.substr(0, 20)).status().IsCorruption());
  std::string magic = bytes;
  magic[0] = 'X';
  EXPECT_TRUE(DeserializeGenerationManifest(magic).status().IsCorruption());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    EXPECT_FALSE(DeserializeGenerationManifest(FlipBit(bytes, bit)).ok())
        << "flip at bit " << bit << " went undetected";
  }

  // The atomic save/load pair round-trips through a real file.
  const std::string path = FreshDir("gen_manifest") + "/generation.manifest";
  ASSERT_TRUE(SaveGenerationManifest(manifest, path).ok());
  StatusOr<GenerationManifest> reloaded = LoadGenerationManifest(path);
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->generation, 41u);
}

// ------------------------------------------------------- MutableShard

HnswIndex::Params SmallShardParams() {
  HnswIndex::Params params;
  params.m = 4;
  params.ef_construction = 32;
  params.seed = 7;
  return params;
}

TEST(MutableShardTest, PinnedSnapshotIsImmuneToLaterMutation) {
  const uint32_t dim = 6;
  MutableShard shard(dim, SmallShardParams());
  std::vector<std::vector<float>> vectors;
  for (uint32_t id = 0; id < 4; ++id) {
    vectors.push_back(TestVector(dim, id));
    shard.Add(id * 10, vectors.back().data());  // sparse global ids
  }
  const auto pinned = shard.Pin();
  EXPECT_EQ(pinned->version, 4u);
  ASSERT_EQ(pinned->index->size(), 4u);

  // Mutate underneath the pin: the pinned snapshot must not move.
  std::vector<float> extra = TestVector(dim, 99);
  shard.Add(99, extra.data());
  ASSERT_TRUE(shard.Remove(10));
  EXPECT_EQ(pinned->index->size(), 4u);
  EXPECT_EQ(pinned->index->live_size(), 4u);
  for (uint32_t local = 0; local < 4; ++local) {
    EXPECT_EQ(pinned->index->Label(local), local * 10);
    const float* row = pinned->index->Vector(local);
    EXPECT_EQ(std::vector<float>(row, row + dim), vectors[local]);
  }
  // The current snapshot moved on: 5 points, one tombstone.
  const auto current = shard.Pin();
  EXPECT_GT(current->version, pinned->version);
  EXPECT_EQ(current->index->size(), 5u);
  EXPECT_EQ(current->index->live_size(), 4u);
}

TEST(MutableShardTest, SearchSnapshotNeverSurfacesTombstones) {
  const uint32_t dim = 6;
  MutableShard shard(dim, SmallShardParams());
  std::vector<std::pair<uint32_t, std::vector<float>>> live;
  for (uint32_t id = 0; id < 16; ++id) {
    std::vector<float> vec = TestVector(dim, id);
    shard.Add(id, vec.data());
    if (id % 3 == 0) {
      ASSERT_TRUE(shard.Remove(id));
    } else {
      live.emplace_back(id, std::move(vec));
    }
  }
  const auto snapshot = shard.Pin();
  SearchScratch scratch(snapshot->index->size());
  SearchParams params;
  params.k = 16;  // more than survive: every live id must come back
  params.pool_size = 64;
  const std::vector<float> query = TestVector(dim, 500);
  const std::vector<ScoredId> results =
      SearchSnapshot(*snapshot, scratch, query.data(), params);
  ASSERT_EQ(results.size(), live.size());
  // Sorted ascending by distance, only live ids, exact distances.
  for (size_t i = 0; i + 1 < results.size(); ++i) {
    EXPECT_LE(results[i].distance, results[i + 1].distance);
  }
  std::vector<uint32_t> got;
  for (const ScoredId& r : results) {
    EXPECT_NE(r.id % 3, 0u) << "tombstoned id " << r.id << " surfaced";
    got.push_back(r.id);
  }
  std::sort(got.begin(), got.end());
  std::vector<uint32_t> expected;
  for (const auto& [id, vec] : live) expected.push_back(id);
  EXPECT_EQ(got, expected);
}

// Satellite: the Compact() id-remapping contract under a concurrent
// (pinned) reader. The pre-compaction snapshot keeps resolving its own
// local ids, and the new snapshot's new_id -> old_id translation
// round-trips every surviving vector bit-for-bit.
TEST(MutableShardTest, CompactRemapsIdsWhilePinnedReaderKeepsOldView) {
  const uint32_t dim = 6;
  MutableShard shard(dim, SmallShardParams());
  std::vector<std::vector<float>> vectors;
  for (uint32_t id = 0; id < 12; ++id) {
    vectors.push_back(TestVector(dim, id));
    shard.Add(id, vectors.back().data());
  }
  for (uint32_t id = 1; id < 12; id += 2) {
    ASSERT_TRUE(shard.Remove(id));  // tombstone the odd ids
  }

  // A reader pins the pre-compaction generation...
  const auto before = shard.Pin();
  ASSERT_EQ(before->index->size(), 12u);
  ASSERT_EQ(before->index->live_size(), 6u);

  // ...and compaction swaps the shard underneath it.
  ASSERT_TRUE(shard.Compact().ok());
  const auto after = shard.Pin();
  ASSERT_NE(before.get(), after.get());
  EXPECT_GT(after->version, before->version);

  // The pinned snapshot is untouched: same 12 slots, identity id map,
  // original bytes, and searches against it still resolve pre-compaction
  // local ids.
  EXPECT_EQ(before->index->size(), 12u);
  for (uint32_t local = 0; local < 12; ++local) {
    EXPECT_EQ(before->index->Label(local), local);
    const float* row = before->index->Vector(local);
    EXPECT_EQ(std::vector<float>(row, row + dim), vectors[local]);
  }
  SearchScratch scratch(12);
  SearchParams params;
  params.k = 12;
  params.pool_size = 64;
  const std::vector<float> query = TestVector(dim, 600);
  for (const ScoredId& r :
       SearchSnapshot(*before, scratch, query.data(), params)) {
    EXPECT_EQ(r.id % 2, 0u);
  }

  // The compacted snapshot holds exactly the 6 survivors, densely
  // renumbered; each label round-trips its vector bit-for-bit.
  ASSERT_EQ(after->index->size(), 6u);
  EXPECT_EQ(after->index->live_size(), 6u);
  std::vector<uint32_t> survivors;
  for (uint32_t local = 0; local < 6; ++local) {
    const uint32_t global = after->index->Label(local);
    survivors.push_back(global);
    const float* row = after->index->Vector(local);
    EXPECT_EQ(std::vector<float>(row, row + dim), vectors[global])
        << "vector bytes did not survive the remap for global id " << global;
  }
  std::sort(survivors.begin(), survivors.end());
  EXPECT_EQ(survivors, (std::vector<uint32_t>{0, 2, 4, 6, 8, 10}));
  // And both generations agree on search results (same live set).
  const std::vector<ScoredId> old_view =
      SearchSnapshot(*before, scratch, query.data(), params);
  const std::vector<ScoredId> new_view =
      SearchSnapshot(*after, scratch, query.data(), params);
  ASSERT_EQ(old_view.size(), new_view.size());
  for (size_t i = 0; i < old_view.size(); ++i) {
    EXPECT_EQ(old_view[i].id, new_view[i].id);
    EXPECT_EQ(old_view[i].distance, new_view[i].distance);
  }
}

TEST(MutableShardTest, FailedCompactionDegradesToExactScanThenRecovers) {
  const uint32_t dim = 6;
  MutableShard shard(dim, SmallShardParams());
  std::vector<std::pair<uint32_t, std::vector<float>>> live;
  for (uint32_t id = 0; id < 10; ++id) {
    std::vector<float> vec = TestVector(dim, id);
    shard.Add(id, vec.data());
    live.emplace_back(id, std::move(vec));
  }
  shard.InjectCompactionFault();
  const Status failed = shard.Compact();
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();
  EXPECT_TRUE(shard.degraded());

  // Degraded serving is an exact scan: the top-k is the ground truth.
  const auto snapshot = shard.Pin();
  SearchScratch scratch(snapshot->index->size());
  SearchParams params;
  params.k = 4;
  const std::vector<float> query = TestVector(dim, 700);
  const std::vector<ScoredId> results =
      SearchSnapshot(*snapshot, scratch, query.data(), params);
  std::vector<uint32_t> ids;
  for (const ScoredId& r : results) ids.push_back(r.id);
  EXPECT_EQ(ids, ExactTopK(live, query.data(), dim, 4));

  // The next successful compaction clears the degradation.
  ASSERT_TRUE(shard.Compact().ok());
  EXPECT_FALSE(shard.degraded());
}

// A degraded shard's exact scan treats the eval budget as a cap on live
// rows: tombstoned rows are skipped before the cap is checked, so they cost
// nothing, and the answer is the exact top-k of the first `budget` live rows
// in local order.
TEST(MutableShardTest, DegradedScanCapsLiveRowsAtTheEvalBudget) {
  const uint32_t dim = 6;
  const uint32_t budget = 6;
  MutableShard shard(dim, SmallShardParams());
  std::vector<std::vector<float>> vectors;
  for (uint32_t id = 0; id < 20; ++id) {
    vectors.push_back(TestVector(dim, id));
    shard.Add(id, vectors.back().data());
  }
  const std::vector<uint32_t> removed = {1, 4, 5, 9, 12};
  for (uint32_t id : removed) ASSERT_TRUE(shard.Remove(id));
  shard.InjectCompactionFault();
  ASSERT_FALSE(shard.Compact().ok());
  ASSERT_TRUE(shard.degraded());
  const auto snapshot = shard.Pin();
  ASSERT_GT(snapshot->index->live_size(), budget);

  // No compaction succeeded, so local order is insertion order.
  std::vector<std::pair<uint32_t, std::vector<float>>> first_live;
  for (uint32_t id = 0; first_live.size() < budget; ++id) {
    if (std::find(removed.begin(), removed.end(), id) != removed.end()) {
      continue;
    }
    first_live.emplace_back(id, vectors[id]);
  }

  SearchScratch scratch(snapshot->index->size());
  SearchParams params;
  params.k = 4;
  params.max_distance_evals = budget;
  const std::vector<float> query = TestVector(dim, 710);
  QueryStats stats;
  const std::vector<ScoredId> results =
      SearchSnapshot(*snapshot, scratch, query.data(), params, &stats);
  EXPECT_EQ(stats.distance_evals, budget);
  EXPECT_TRUE(stats.truncated);
  std::vector<uint32_t> ids;
  for (const ScoredId& r : results) ids.push_back(r.id);
  EXPECT_EQ(ids, ExactTopK(first_live, query.data(), dim, 4));
}

// Layout-independent digest of one snapshot: per vertex its label, level,
// neighbour lists per level in order, tombstone bit and row bytes; plus
// the entry point, max level and version.
uint64_t HashSnapshot(const MutableShard::Snapshot& snapshot) {
  const HnswIndex& index = *snapshot.index;
  uint64_t hash = 0xcbf29ce484222325ULL;
  const auto mix = [&hash](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ULL;
    }
  };
  const auto mix_u64 = [&mix](uint64_t value) { mix(&value, sizeof(value)); };
  mix_u64(snapshot.version);
  mix_u64(index.size());
  mix_u64(index.entry_point());
  mix_u64(index.max_level());
  for (uint32_t local = 0; local < index.size(); ++local) {
    mix_u64(index.Label(local));
    mix_u64(index.Level(local));
    for (uint32_t level = 0; level <= index.Level(local); ++level) {
      const auto neighbors = index.Neighbors(local, level);
      mix_u64(neighbors.size());
      mix(neighbors.data(), neighbors.size_bytes());
    }
    mix_u64(index.IsDeleted(local) ? 1 : 0);
    mix(index.Vector(local), index.dim() * sizeof(float));
  }
  return hash;
}

// Fills a shard with 600 rows (about ten storage pages), pins it, then
// drives 1,000 adds and removes whose inserts rewire the pinned
// vertices' adjacency, and finally compacts. Returns how many pinned
// vertices had a different level-0 list just before the compaction.
uint32_t ChurnAndCompact(MutableShard& shard, uint32_t dim,
                         const MutableShard::Snapshot& pinned) {
  std::mt19937 rng(5);
  std::vector<uint32_t> live(pinned.index->size());
  for (uint32_t id = 0; id < live.size(); ++id) live[id] = id;
  uint32_t next_id = pinned.index->size();
  for (uint32_t step = 0; step < 1000; ++step) {
    if (step % 3 == 2) {
      const size_t victim = rng() % live.size();
      EXPECT_TRUE(shard.Remove(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    } else {
      shard.Add(next_id, TestVector(dim, next_id).data());
      live.push_back(next_id++);
    }
  }
  const auto before_compaction = shard.Pin();
  uint32_t rewired = 0;
  for (uint32_t local = 0; local < pinned.index->size(); ++local) {
    const auto was = pinned.index->Neighbors(local, 0);
    const auto now = before_compaction->index->Neighbors(local, 0);
    if (!std::equal(was.begin(), was.end(), now.begin(), now.end())) {
      ++rewired;
    }
  }
  EXPECT_TRUE(shard.Compact().ok());
  return rewired;
}

// Snapshots share unchanged storage pages with the writer's working index;
// a write copies a page before its first change to it. A pinned snapshot
// must read exactly as it did when pinned, even after the pages it shares
// have all been rewritten (copied) and the shard compacted.
TEST(MutableShardTest, PinnedSnapshotSurvivesRewiringWritesAndCompaction) {
  const uint32_t dim = 8;
  MutableShard shard(dim, SmallShardParams());
  for (uint32_t id = 0; id < 600; ++id) {
    shard.Add(id, TestVector(dim, id).data());
  }
  const auto pinned = shard.Pin();
  const uint64_t digest = HashSnapshot(*pinned);
  const uint32_t rewired = ChurnAndCompact(shard, dim, *pinned);
  EXPECT_GT(rewired, 300u) << "the writes did not rewire the pinned pages";
  EXPECT_EQ(HashSnapshot(*pinned), digest);
  EXPECT_EQ(shard.Pin()->index->live_size(), 600u + 667u - 333u);
}

// The same churn with two reader threads pinning, walking and searching
// the current snapshot throughout, so ThreadSanitizer sees every page the
// writer creates handed over through publication.
TEST(MutableShardTest, ConcurrentReadersSeeUnchangingSnapshotsDuringChurn) {
  const uint32_t dim = 8;
  MutableShard shard(dim, SmallShardParams());
  for (uint32_t id = 0; id < 600; ++id) {
    shard.Add(id, TestVector(dim, id).data());
  }
  const auto pinned = shard.Pin();
  const uint64_t digest = HashSnapshot(*pinned);
  std::atomic<bool> done{false};
  std::atomic<uint32_t> mismatches{0};
  std::atomic<uint32_t> walks{0};
  std::vector<std::thread> readers;
  for (uint32_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      const std::vector<float> query = TestVector(dim, 9000 + r);
      SearchParams params;
      params.k = 10;
      params.pool_size = 40;
      do {
        const auto snapshot = shard.Pin();
        const uint64_t first = HashSnapshot(*snapshot);
        SearchScratch scratch(std::max<uint32_t>(snapshot->index->size(), 1));
        for (const ScoredId& hit :
             SearchSnapshot(*snapshot, scratch, query.data(), params)) {
          if (hit.id >= 600 + 1000) mismatches.fetch_add(1);
        }
        if (HashSnapshot(*snapshot) != first) mismatches.fetch_add(1);
        if (HashSnapshot(*pinned) != digest) mismatches.fetch_add(1);
        walks.fetch_add(1);
      } while (!done.load());
    });
  }
  EXPECT_GT(ChurnAndCompact(shard, dim, *pinned), 300u);
  done.store(true);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(walks.load(), 2u);
  EXPECT_EQ(HashSnapshot(*pinned), digest);
}

// ------------------------------------------------ MutableShardedIndex

MutableIndexOptions SmallIndexOptions(uint32_t dim = 8,
                                      uint32_t num_shards = 3) {
  MutableIndexOptions options;
  options.dim = dim;
  options.num_shards = num_shards;
  options.m = 4;
  options.ef_construction = 32;
  options.seed = 4242;
  return options;
}

// Search results for a handful of probe queries, for bit-for-bit
// comparison across recovery.
std::vector<std::vector<uint32_t>> ProbeSearches(
    const MutableShardedIndex& index, uint32_t k = 5) {
  SearchParams params;
  params.k = k;
  params.pool_size = 32;
  std::vector<std::vector<uint32_t>> out;
  for (uint32_t q = 0; q < 6; ++q) {
    const std::vector<float> query = TestVector(index.dim(), 800 + q);
    out.push_back(index.Search(query.data(), params));
  }
  return out;
}

TEST(MutationIndexTest, AddRemoveSearchAndRecoverAcrossReopen) {
  const MutableIndexOptions options = SmallIndexOptions();
  const std::string dir = FreshDir("mut_reopen");
  std::vector<std::vector<uint32_t>> committed_view;
  std::vector<std::pair<uint32_t, std::vector<float>>> live;

  {
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        MutableShardedIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    MutableShardedIndex& index = **opened;
    EXPECT_EQ(index.recovery_info().replayed_records, 0u);

    for (uint32_t i = 0; i < 30; ++i) {
      const std::vector<float> vec = TestVector(options.dim, i);
      StatusOr<uint32_t> id = index.Add(vec.data());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      EXPECT_EQ(*id, i) << "global ids must be dense and monotonic";
      live.emplace_back(i, vec);
    }
    for (uint32_t id = 0; id < 30; id += 5) {
      ASSERT_TRUE(index.Remove(id).ok());
      live.erase(std::remove_if(live.begin(), live.end(),
                                [id](const auto& row) {
                                  return row.first == id;
                                }),
                 live.end());
    }
    EXPECT_EQ(index.live_size(), 24u);
    EXPECT_EQ(index.next_id(), 30u);
    EXPECT_EQ(index.generation(), 0u);

    // Tombstones never surface, even at k > live on a graph search.
    SearchParams wide;
    wide.k = 30;
    wide.pool_size = 64;
    const std::vector<float> probe = TestVector(options.dim, 900);
    for (const uint32_t id : index.Search(probe.data(), wide)) {
      EXPECT_NE(id % 5, 0u) << "removed id " << id << " surfaced";
    }

    ASSERT_TRUE(index.Commit().ok());
    EXPECT_EQ(index.generation(), 1u);
    committed_view = ProbeSearches(index);
  }

  // Reopen: recovery replays all 37 committed records (30 adds, 6
  // removes, 1 commit) and reproduces the committed index bit-for-bit.
  StatusOr<std::unique_ptr<MutableShardedIndex>> reopened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  MutableShardedIndex& index = **reopened;
  const MutableShardedIndex::RecoveryInfo& info = index.recovery_info();
  EXPECT_EQ(info.generation, 1u);
  EXPECT_EQ(info.next_id, 30u);
  EXPECT_EQ(info.replayed_records, 37u);
  EXPECT_EQ(info.rolled_back_records, 0u);
  EXPECT_FALSE(info.truncated_tail);
  EXPECT_EQ(index.live_size(), 24u);
  EXPECT_EQ(index.generation(), 1u);
  EXPECT_EQ(ProbeSearches(index), committed_view)
      << "recovery did not reproduce the committed index";

  // Fresh ids continue from the recovered watermark.
  const std::vector<float> next = TestVector(options.dim, 30);
  StatusOr<uint32_t> id = index.Add(next.data());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 30u);
}

TEST(MutationIndexTest, UncommittedTailRollsBackOnReopen) {
  const MutableIndexOptions options = SmallIndexOptions();
  const std::string dir = FreshDir("mut_rollback");
  std::vector<std::vector<uint32_t>> committed_view;
  {
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        MutableShardedIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    MutableShardedIndex& index = **opened;
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
    }
    ASSERT_TRUE(index.Commit().ok());
    committed_view = ProbeSearches(index);
    // Five more adds and two removes that never commit.
    for (uint32_t i = 10; i < 15; ++i) {
      ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
    }
    ASSERT_TRUE(index.Remove(3).ok());
    ASSERT_TRUE(index.Remove(4).ok());
    EXPECT_EQ(index.live_size(), 13u);
  }

  StatusOr<std::unique_ptr<MutableShardedIndex>> reopened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  MutableShardedIndex& index = **reopened;
  // Rolled back to the commit: the 7 uncommitted records are gone.
  EXPECT_EQ(index.generation(), 1u);
  EXPECT_EQ(index.live_size(), 10u);
  EXPECT_EQ(index.next_id(), 10u);
  EXPECT_EQ(index.recovery_info().rolled_back_records, 7u);
  EXPECT_EQ(ProbeSearches(index), committed_view);
  // The rolled-back ids are reassigned, not burned.
  StatusOr<uint32_t> id = index.Add(TestVector(options.dim, 10).data());
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 10u);
}

TEST(MutationIndexTest, RemoveErrorsAreInvalidArgument) {
  const std::string dir = FreshDir("mut_remove_err");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, SmallIndexOptions());
  ASSERT_TRUE(opened.ok());
  MutableShardedIndex& index = **opened;
  ASSERT_TRUE(index.Add(TestVector(8, 0).data()).ok());

  const Status unknown = index.Remove(7);
  EXPECT_TRUE(unknown.IsInvalidArgument()) << unknown.ToString();
  EXPECT_NE(unknown.message().find("never assigned"), std::string::npos);

  ASSERT_TRUE(index.Remove(0).ok());
  const Status twice = index.Remove(0);
  EXPECT_TRUE(twice.IsInvalidArgument()) << twice.ToString();
  EXPECT_NE(twice.message().find("already removed"), std::string::npos);
}

// The evaluation budget is split across shards (SplitBudget), so a tiny
// budget truncates every shard's walk and the scatter-gather spends a
// small fraction of an unbudgeted search.
TEST(MutationIndexTest, DistanceBudgetIsSplitAcrossShards) {
  const MutableIndexOptions options = SmallIndexOptions(8, 4);
  const std::string dir = FreshDir("mut_budget");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MutableShardedIndex& index = **opened;
  for (uint32_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
  }

  const std::vector<float> query = TestVector(options.dim, 900);
  SearchParams params;
  params.k = 10;
  params.pool_size = 64;
  QueryStats unbudgeted;
  index.Search(query.data(), params, &unbudgeted);
  EXPECT_FALSE(unbudgeted.truncated);

  params.max_distance_evals = 4;
  QueryStats budgeted;
  index.Search(query.data(), params, &budgeted);
  EXPECT_TRUE(budgeted.truncated);
  EXPECT_LT(budgeted.distance_evals, unbudgeted.distance_evals);
}

// Fan-out pin for the mutable tier: every probe query at k = 10, pool 40,
// once unbounded and once under a budget that truncates, folded into one
// FNV-1a hash over result ids, distance_evals, hops and truncated. The index
// has tombstones, one compacted shard (local order no longer global order)
// and one shard degraded to exact scan. The pins were recorded from the
// fan-out loop that ScatterGather replaced.
uint64_t HashMutableFanOut(const MutableShardedIndex& index,
                           uint64_t max_distance_evals, uint32_t* truncated) {
  SearchParams params;
  params.k = 10;
  params.pool_size = 40;
  params.max_distance_evals = max_distance_evals;
  Fnv hash;
  *truncated = 0;
  for (uint32_t q = 0; q < 24; ++q) {
    const std::vector<float> query = TestVector(index.dim(), 2000 + q);
    QueryStats stats;
    hash.Query(index.Search(query.data(), params, &stats), stats);
    if (stats.truncated) ++*truncated;
  }
  return hash.value();
}

TEST(MutationIndexTest, FanOutIsPinned) {
  const MutableIndexOptions options = SmallIndexOptions(8, 3);
  const std::string dir = FreshDir("mut_fan_out");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  MutableShardedIndex& index = **opened;
  for (uint32_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
  }
  for (uint32_t id = 0; id < 300; id += 7) ASSERT_TRUE(index.Remove(id).ok());
  ASSERT_TRUE(index.CompactShard(2).ok());
  index.InjectCompactionFault(1);
  ASSERT_FALSE(index.CompactShard(1).ok());
  ASSERT_EQ(index.num_degraded_shards(), 1u);
  MetricsRegistry metrics;
  index.set_metrics(&metrics);

  uint32_t truncated = 0;
  EXPECT_EQ(HashMutableFanOut(index, 0, &truncated), 0xca1a749873997f44ULL);
  EXPECT_EQ(truncated, 0u);
  EXPECT_EQ(HashMutableFanOut(index, 90, &truncated), 0x890dfdf2da3d9f4dULL);
  EXPECT_GT(truncated, 0u) << "budget 90 never truncated";
  // Per-shard counters belong to the static tier only.
  EXPECT_EQ(metrics.ToJson(false).find("\"shard."), std::string::npos);
}

TEST(MutationIndexTest, GeometryMismatchIsRejectedBeforeReplay) {
  const MutableIndexOptions options = SmallIndexOptions();
  const std::string dir = FreshDir("mut_geometry");
  {
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        MutableShardedIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Add(TestVector(options.dim, 0).data()).ok());
    ASSERT_TRUE((*opened)->Commit().ok());
  }
  for (const auto& mutate : std::vector<void (*)(MutableIndexOptions*)>{
           [](MutableIndexOptions* o) { o->dim = 16; },
           [](MutableIndexOptions* o) { o->num_shards = 5; },
           [](MutableIndexOptions* o) { o->seed = 1; }}) {
    MutableIndexOptions wrong = options;
    mutate(&wrong);
    const Status status = MutableShardedIndex::Open(dir, wrong).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("geometry mismatch"), std::string::npos);
  }
}

TEST(MutationIndexTest, CompactionPersistsAndReplaysDeterministically) {
  const MutableIndexOptions options = SmallIndexOptions();
  const std::string dir = FreshDir("mut_compact");
  std::vector<std::vector<uint32_t>> view;
  {
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        MutableShardedIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    MutableShardedIndex& index = **opened;
    for (uint32_t i = 0; i < 24; ++i) {
      ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
    }
    for (uint32_t id = 0; id < 24; id += 2) {
      ASSERT_TRUE(index.Remove(id).ok());
    }
    for (uint32_t s = 0; s < index.num_shards(); ++s) {
      ASSERT_TRUE(index.CompactShard(s).ok());
    }
    ASSERT_TRUE(index.Commit().ok());
    EXPECT_EQ(index.live_size(), 12u);
    view = ProbeSearches(index);
  }
  // Replay redoes the compactions deterministically: same results.
  StatusOr<std::unique_ptr<MutableShardedIndex>> reopened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->live_size(), 12u);
  EXPECT_EQ(ProbeSearches(**reopened), view)
      << "replayed compaction diverged from the live one";
}

TEST(MutationIndexTest, CompactionFaultDegradesShardNotIndex) {
  const MutableIndexOptions options = SmallIndexOptions();
  const std::string dir = FreshDir("mut_degrade");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  MutableShardedIndex& index = **opened;
  std::vector<std::pair<uint32_t, std::vector<float>>> live;
  for (uint32_t i = 0; i < 30; ++i) {
    const std::vector<float> vec = TestVector(options.dim, i);
    ASSERT_TRUE(index.Add(vec.data()).ok());
    live.emplace_back(i, vec);
  }

  index.InjectCompactionFault(1);
  const Status failed = index.CompactShard(1);
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();
  EXPECT_EQ(index.num_degraded_shards(), 1u);

  // Availability holds: the merged top-k over all shards is still exact
  // for k >= live (one shard exact-scans, the rest graph-search).
  SearchParams params;
  params.k = 8;
  params.pool_size = 64;
  const std::vector<float> query = TestVector(options.dim, 950);
  EXPECT_EQ(index.Search(query.data(), params),
            ExactTopK(live, query.data(), options.dim, 8));

  // The next successful compaction restores graph search on the shard.
  ASSERT_TRUE(index.CompactShard(1).ok());
  EXPECT_EQ(index.num_degraded_shards(), 0u);
}

TEST(MutationIndexTest, CompactAllAsyncKeepsServingWhileCompacting) {
  const MutableIndexOptions options = SmallIndexOptions(8, 4);
  const std::string dir = FreshDir("mut_async");
  MutableIndexOptions with_threads = options;
  with_threads.num_threads = 2;
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, with_threads);
  ASSERT_TRUE(opened.ok());
  MutableShardedIndex& index = **opened;
  for (uint32_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(index.Add(TestVector(options.dim, i).data()).ok());
  }
  for (uint32_t id = 1; id < 40; id += 2) {
    ASSERT_TRUE(index.Remove(id).ok());
  }

  index.CompactAllAsync();
  // Queries run against pinned snapshots for the whole rebuild; every
  // result set stays tombstone-free regardless of swap timing.
  SearchParams params;
  params.k = 10;
  params.pool_size = 64;
  for (uint32_t q = 0; q < 50; ++q) {
    const std::vector<float> query = TestVector(options.dim, 1000 + q);
    for (const uint32_t id : index.Search(query.data(), params)) {
      EXPECT_EQ(id % 2, 0u);
    }
  }
  index.WaitForMaintenance();
  EXPECT_EQ(index.live_size(), 20u);
  EXPECT_EQ(index.num_degraded_shards(), 0u);
  // All four shards compacted: no slot holds a tombstone anymore.
  SearchParams wide;
  wide.k = 40;
  wide.pool_size = 128;
  const std::vector<float> probe = TestVector(options.dim, 2000);
  EXPECT_EQ(index.Search(probe.data(), wide).size(), 20u);
}

TEST(MutationIndexTest, KillAnywhereBytePrefixRecoversConsistently) {
  // The crash-safety acceptance: truncate the WAL at EVERY byte length and
  // reopen. Each prefix must recover without error to one of the committed
  // generations, with the exact live set that generation sealed.
  MutableIndexOptions options = SmallIndexOptions(4, 2);
  const std::string dir = FreshDir("mut_kill");
  {
    StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
        MutableShardedIndex::Open(dir, options);
    ASSERT_TRUE(opened.ok());
    MutableShardedIndex& index = **opened;
    // Three generations: 4 adds each, one remove in generation 2, a
    // compaction in generation 3.
    for (uint32_t gen = 0; gen < 3; ++gen) {
      for (uint32_t i = 0; i < 4; ++i) {
        ASSERT_TRUE(
            index.Add(TestVector(options.dim, gen * 4 + i).data()).ok());
      }
      if (gen == 1) {
        ASSERT_TRUE(index.Remove(2).ok());
      }
      if (gen == 2) {
        ASSERT_TRUE(index.CompactShard(0).ok());
      }
      ASSERT_TRUE(index.Commit().ok());
    }
    ASSERT_EQ(index.generation(), 3u);
    ASSERT_EQ(index.live_size(), 11u);
  }
  std::string wal;
  ASSERT_TRUE(
      ReadFileToString(MutableShardedIndex::WalPath(dir), &wal).ok());

  // Live size sealed by each generation (gen 2 removed one id).
  const uint32_t live_at[4] = {0, 4, 7, 11};
  for (size_t cut = 0; cut <= wal.size(); ++cut) {
    SCOPED_TRACE(cut);
    const std::string crash_dir =
        FreshDir("mut_kill_crash");  // scrubbed every iteration
    ASSERT_TRUE(
        WriteStringToFile(wal.substr(0, cut),
                          MutableShardedIndex::WalPath(crash_dir)).ok());
    StatusOr<std::unique_ptr<MutableShardedIndex>> recovered =
        MutableShardedIndex::Open(crash_dir, options);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    MutableShardedIndex& index = **recovered;
    const uint64_t recovered_generation = index.generation();
    ASSERT_LE(recovered_generation, 3u);
    EXPECT_EQ(index.live_size(), live_at[recovered_generation]);
    // Recovery rewrote the log to its committed prefix and re-synced the
    // manifest: a second open is clean (no rollback, no truncation) and
    // lands on the same generation.
    const auto first_view = ProbeSearches(index, 3);
    recovered->reset();
    StatusOr<std::unique_ptr<MutableShardedIndex>> again =
        MutableShardedIndex::Open(crash_dir, options);
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    EXPECT_EQ((*again)->generation(), recovered_generation);
    EXPECT_EQ((*again)->recovery_info().rolled_back_records, 0u);
    EXPECT_FALSE((*again)->recovery_info().truncated_tail);
    EXPECT_EQ(ProbeSearches(**again, 3), first_view)
        << "double recovery diverged";
  }
}

TEST(MutationIndexTest, MetricsCountMutationsExactly) {
  const std::string dir = FreshDir("mut_metrics");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, SmallIndexOptions());
  ASSERT_TRUE(opened.ok());
  MutableShardedIndex& index = **opened;
  MetricsRegistry metrics;
  index.set_metrics(&metrics);

  for (uint32_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index.Add(TestVector(8, i).data()).ok());
  }
  ASSERT_TRUE(index.Remove(1).ok());
  ASSERT_TRUE(index.Remove(2).ok());
  ASSERT_TRUE(index.Commit().ok());
  index.InjectCompactionFault(0);
  EXPECT_FALSE(index.CompactShard(0).ok());
  ASSERT_TRUE(index.CompactShard(0).ok());
  ASSERT_TRUE(index.CompactShard(1).ok());

  EXPECT_EQ(metrics.CounterValue("mutation.adds"), 8u);
  EXPECT_EQ(metrics.CounterValue("mutation.removes"), 2u);
  EXPECT_EQ(metrics.CounterValue("mutation.commits"), 1u);
  EXPECT_EQ(metrics.CounterValue("mutation.compactions"), 2u);
  EXPECT_EQ(metrics.CounterValue("mutation.compaction_failures"), 1u);
  // One WAL record per add/remove/commit/successful compaction.
  EXPECT_EQ(metrics.CounterValue("mutation.wal_records"), 8u + 2u + 1u + 2u);
}

// mutation.copied_bytes counts the bytes each write copies to publish its
// snapshot: the pages it touches plus the page tables. That volume must
// not grow with the shard the way a whole-shard copy does.
TEST(MutationIndexTest, CopiedBytesPerAddStayFlatAsTheShardGrows) {
  const uint32_t dim = 16;
  MutableIndexOptions options = SmallIndexOptions(dim, /*num_shards=*/1);
  options.m = 8;
  options.ef_construction = 40;
  const std::string dir = FreshDir("mut_copied_bytes");
  StatusOr<std::unique_ptr<MutableShardedIndex>> opened =
      MutableShardedIndex::Open(dir, options);
  ASSERT_TRUE(opened.ok());
  MutableShardedIndex& index = **opened;
  MetricsRegistry metrics;
  index.set_metrics(&metrics);

  uint32_t next = 0;
  const auto add_until = [&](uint32_t rows) {
    for (; next < rows; ++next) {
      ASSERT_TRUE(index.Add(TestVector(dim, next).data()).ok());
    }
  };
  const auto per_add_from = [&](uint32_t rows) {
    add_until(rows);
    const uint64_t mark = metrics.CounterValue("mutation.copied_bytes");
    add_until(rows + 200);
    return (metrics.CounterValue("mutation.copied_bytes") - mark) / 200.0;
  };
  const double at_1000 = per_add_from(1000);
  const double at_4000 = per_add_from(4000);
  EXPECT_GT(at_1000, 0.0);
  EXPECT_LE(at_4000, 1.5 * at_1000)
      << "per-add copy volume " << at_1000 << " B at 1,000 rows, " << at_4000
      << " B at 4,000 rows";
  // A whole-shard copy would move at least every row: 4,000 * 16 floats.
  EXPECT_LT(at_4000, 4000.0 * dim * sizeof(float) / 3);

  // A remove copies one page (plus the tables) and is counted too.
  const uint64_t mark = metrics.CounterValue("mutation.copied_bytes");
  ASSERT_TRUE(index.Remove(7).ok());
  EXPECT_GT(metrics.CounterValue("mutation.copied_bytes"), mark);
}

}  // namespace
}  // namespace weavess
