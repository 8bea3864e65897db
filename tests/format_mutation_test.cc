// Structure-aware random-mutation property test for every on-disk reader
// (WVSGRPH1, WVSSQNT1, WVSSHRD1, WVSSWAL1, WVSSGEN1, WVSSREPL1). Each case
// mutates a valid image — bit flips, byte overwrites, and count/length
// fields forced to 0, 1, 2^31 and 2^32-1 — then re-seals the header and
// section CRCs at their original positions so the mutation reaches the
// parser instead of dying at a checksum. The reader must answer with OK or
// a clean Status (Corruption, NotSupported, InvalidArgument): no crash, no
// sanitizer report, and no allocation beyond a small multiple of the input
// size. A reader that sizes a container straight from an unchecked header
// count fails here (the allocation hook refuses the request) rather than
// taking the process down.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/aligned.h"
#include "core/crc32c.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "core/rng.h"
#include "core/status.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "shard/manifest.h"
#include "shard/mutation_log.h"
#include "shard/replica_manifest.h"

// ---------------------------------------------------- allocation hook
//
// While a parse runs, every operator new request is recorded; requests
// above kRefuseAbove throw std::bad_alloc instead of touching memory, so a
// hostile count cannot exhaust the machine even when the reader is wrong.

namespace {

std::atomic<bool> g_tracking{false};
std::atomic<size_t> g_largest{0};
constexpr size_t kRefuseAbove = size_t{64} << 20;

void Track(size_t n) {
  if (!g_tracking.load(std::memory_order_relaxed)) return;
  size_t prev = g_largest.load(std::memory_order_relaxed);
  while (n > prev && !g_largest.compare_exchange_weak(prev, n)) {
  }
  if (n > kRefuseAbove) throw std::bad_alloc();
}

void* Allocate(size_t n) {
  Track(n);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(size_t n, std::align_val_t alignment) {
  Track(n);
  const size_t align =
      std::max(static_cast<size_t>(alignment), sizeof(void*));
  void* p = nullptr;
  if (posix_memalign(&p, align, n == 0 ? 1 : n) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void* operator new(size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace weavess {
namespace {

/// A CRC-protected span of an image: CRC32C of [begin, begin + length)
/// stored as a u32 at crc_at.
struct CrcSpan {
  size_t begin;
  size_t length;
  size_t crc_at;
};

/// A count or length field the reader sizes something by.
struct CountField {
  size_t offset;
  size_t width;  // 4 or 8
};

/// One format under test: a valid image, where its CRCs live, which of its
/// fields are counts, and a parse that returns the reader's Status after
/// checking the format's own invariants on success.
struct Subject {
  const char* name;
  std::string bytes;
  std::vector<CrcSpan> crcs;
  std::vector<CountField> counts;
  std::function<Status(const std::string&)> parse;
};

void PutLE(std::string* bytes, size_t offset, uint64_t value, size_t width) {
  for (size_t i = 0; i < width; ++i) {
    (*bytes)[offset + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
  }
}

void Reseal(const Subject& subject, std::string* bytes) {
  for (const CrcSpan& span : subject.crcs) {
    PutLE(bytes, span.crc_at, Crc32c(bytes->data() + span.begin, span.length),
          4);
  }
}

uint32_t Pick(Rng& rng, uint32_t bound) {
  return static_cast<uint32_t>(rng.NextBounded(bound));
}

CrcSpan Trailing(size_t begin, size_t length) {
  return {begin, length, begin + length};
}

// ------------------------------------------------------------ subjects

Subject GraphSubject() {
  Rng rng(11);
  const uint32_t n = 24;
  Graph built(n);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t degree = Pick(rng, 5);
    for (uint32_t i = 0; i < degree; ++i) built.AddEdge(v, Pick(rng, n));
  }
  const CsrGraph graph(built);
  const std::string metadata = "NSG seed=11";
  Subject s{"graph", SerializeGraph(graph, metadata), {}, {}, {}};
  const size_t offsets = kGraphHeaderBytes;
  const size_t offsets_len = (n + 1) * 8;
  const size_t payload = offsets + offsets_len + 4;
  const size_t payload_len = graph.NumEdges() * 4;
  const size_t meta = payload + payload_len + 4;
  s.crcs = {Trailing(0, kGraphHeaderBytes - 4), Trailing(offsets, offsets_len),
            Trailing(payload, payload_len), Trailing(meta, metadata.size())};
  s.counts = {{12, 4}, {16, 8}, {24, 4}, {offsets + n * 8, 8}};
  s.parse = [](const std::string& bytes) {
    std::string metadata;
    StatusOr<CsrGraph> graph = DeserializeGraph(bytes, &metadata);
    const GraphFileReport report = VerifyGraphBytes(bytes);
    EXPECT_EQ(report.status.code(), graph.status().code())
        << "verify and load disagree: " << report.status.ToString();
    if (!graph.ok()) return graph.status();
    EXPECT_EQ(SerializeGraph(*graph, metadata), bytes)
        << "an accepted graph file must be canonical";
    return Status::OK();
  };
  return s;
}

Subject QuantSubject() {
  Rng rng(12);
  const uint32_t num = 9;
  const uint32_t dim = 6;
  const uint32_t stride = QuantizedDataset::PaddedStride(dim);
  AlignedByteVector codes(static_cast<size_t>(num) * stride, 0);
  for (uint32_t i = 0; i < num; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      codes[static_cast<size_t>(i) * stride + d] =
          static_cast<uint8_t>(Pick(rng, 256));
    }
  }
  AlignedFloatVector mins(dim), scales(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    mins[d] = -1.0f - static_cast<float>(d);
    scales[d] = 0.01f * static_cast<float>(d + 1);
  }
  Subject s{"sq8",
            SerializeQuantized(QuantizedDataset(num, dim, std::move(codes),
                                                std::move(mins),
                                                std::move(scales))),
            {},
            {},
            {}};
  const size_t mins_at = kQuantizedHeaderBytes;
  const size_t scales_at = mins_at + dim * 4 + 4;
  const size_t codes_at = scales_at + dim * 4 + 4;
  s.crcs = {Trailing(0, kQuantizedHeaderBytes - 4), Trailing(mins_at, dim * 4),
            Trailing(scales_at, dim * 4),
            Trailing(codes_at, static_cast<size_t>(num) * stride)};
  s.counts = {{12, 4}, {16, 4}, {20, 4}};
  s.parse = [](const std::string& bytes) {
    StatusOr<QuantizedDataset> codes = DeserializeQuantized(bytes);
    const QuantFileReport report = VerifyQuantizedBytes(bytes);
    EXPECT_EQ(report.status.code(), codes.status().code())
        << "verify and load disagree: " << report.status.ToString();
    if (!codes.ok()) return codes.status();
    EXPECT_EQ(SerializeQuantized(*codes), bytes)
        << "an accepted code file must be canonical";
    return Status::OK();
  };
  return s;
}

Subject ShardManifestSubject() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "random";
  manifest.total_vertices = 10;
  manifest.generation = 3;
  manifest.options.seed = 5;
  manifest.shards = {{"a.shard0", {0, 2, 4, 6, 8}},
                     {"a.shard1", {1, 3, 5, 7, 9}}};
  Subject s{"shard-manifest", SerializeManifest(manifest), {}, {}, {}};
  const size_t body = kManifestHeaderBytes;
  const size_t body_len = s.bytes.size() - body - 4;
  s.crcs = {Trailing(0, kManifestHeaderBytes - 4), Trailing(body, body_len)};
  // Body fields: algorithm string, partitioner string, generation, seed,
  // six u32 knobs, two f32 knobs, then the shard entries.
  const size_t partitioner_len = body + 4 + manifest.algorithm.size();
  const size_t first_entry =
      partitioner_len + 4 + manifest.partitioner.size() + 8 + 8 + 6 * 4 + 2 * 4;
  const size_t first_num_ids = first_entry + 4 + manifest.shards[0].path.size();
  s.counts = {{12, 4},
              {16, 4},
              {20, 4},
              {body, 4},
              {partitioner_len, 4},
              {first_entry, 4},
              {first_num_ids, 4}};
  s.parse = [](const std::string& bytes) {
    StatusOr<ShardManifest> parsed = DeserializeManifest(bytes);
    if (!parsed.ok()) return parsed.status();
    size_t ids = 0;
    for (const ShardManifest::Entry& entry : parsed->shards) {
      ids += entry.ids.size();
    }
    EXPECT_EQ(ids, parsed->total_vertices);
    EXPECT_EQ(parsed->shards.size(), parsed->options.num_shards);
    if (bytes[8] == 2) {
      EXPECT_EQ(SerializeManifest(*parsed), bytes)
          << "an accepted v2 manifest must be canonical";
    }
    return Status::OK();
  };
  return s;
}

constexpr uint32_t kWalDim = 3;

Subject WalSubject() {
  std::vector<MutationRecord> records(7);
  records[0].kind = MutationKind::kAdd;
  records[0].id = 0;
  records[0].vector = {1.0f, 2.0f, 3.0f};
  records[1].kind = MutationKind::kAdd;
  records[1].id = 1;
  records[1].vector = {-1.0f, 0.5f, 4.0f};
  records[2].kind = MutationKind::kCommit;
  records[2].generation = 1;
  records[2].next_id = 2;
  records[3].kind = MutationKind::kRemove;
  records[3].id = 0;
  records[4].kind = MutationKind::kCompact;
  records[4].id = 1;
  records[5].kind = MutationKind::kCommit;
  records[5].generation = 2;
  records[5].next_id = 2;
  records[6].kind = MutationKind::kAdd;
  records[6].id = 2;
  records[6].vector = {7.0f, 8.0f, 9.0f};

  Subject s{"wal", SerializeWalHeader(kWalDim), {}, {}, {}};
  s.crcs = {Trailing(0, kWalHeaderBytes - 4)};
  s.counts = {{12, 4}};
  for (const MutationRecord& record : records) {
    const size_t frame = s.bytes.size();
    const std::string framed = SerializeWalRecord(record);
    s.bytes += framed;
    s.crcs.push_back({frame + kWalFrameBytes, framed.size() - kWalFrameBytes,
                      frame + 4});
    s.counts.push_back({frame, 4});
  }
  const size_t frames = records.size();
  s.parse = [frames](const std::string& bytes) -> Status {
    StatusOr<WalReplay> replay = ReplayMutationLog(bytes, kWalDim);
    if (!replay.ok()) return replay.status();
    EXPECT_LE(replay->records.size() + replay->rolled_back_records, frames)
        << "replay returned more records than the log has valid frames";
    EXPECT_LE(replay->committed_bytes, replay->valid_bytes);
    EXPECT_LE(replay->valid_bytes, bytes.size());
    for (const MutationRecord& record : replay->records) {
      if (record.kind == MutationKind::kAdd) {
        EXPECT_EQ(record.vector.size(), kWalDim);
      }
    }
    return Status::OK();
  };
  return s;
}

Subject GenerationManifestSubject() {
  GenerationManifest manifest;
  manifest.dim = 16;
  manifest.num_shards = 4;
  manifest.generation = 9;
  manifest.next_id = 700;
  manifest.seed = 77;
  Subject s{"generation-manifest", SerializeGenerationManifest(manifest),
            {Trailing(0, kGenManifestBytes - 4)},
            {{12, 4}, {16, 4}, {20, 8}, {28, 4}},
            {}};
  s.parse = [](const std::string& bytes) {
    StatusOr<GenerationManifest> parsed = DeserializeGenerationManifest(bytes);
    if (!parsed.ok()) return parsed.status();
    EXPECT_EQ(SerializeGenerationManifest(*parsed), bytes);
    return Status::OK();
  };
  return s;
}

Subject ReplicaManifestSubject() {
  ReplicaManifest manifest;
  manifest.replicas = {
      {"r0.wvs", ReplicaManifest::Kind::kGraph, 0x1234u},
      {"r1.manifest", ReplicaManifest::Kind::kShardManifest, 0x5678u},
      {"r2.wvs", ReplicaManifest::Kind::kGraph, 0x9abcu}};
  Subject s{"replica-manifest", SerializeReplicaManifest(manifest), {}, {},
            {}};
  const size_t body = kReplicaManifestHeaderBytes;
  const size_t body_len = s.bytes.size() - body - 4;
  s.crcs = {Trailing(0, kReplicaManifestHeaderBytes - 4),
            Trailing(body, body_len)};
  // Count fields: num_replicas, body length, first entry's path length.
  s.counts = {{13, 4}, {17, 4}, {body + 1, 4}};
  s.parse = [](const std::string& bytes) {
    StatusOr<ReplicaManifest> parsed = DeserializeReplicaManifest(bytes);
    if (!parsed.ok()) return parsed.status();
    EXPECT_EQ(SerializeReplicaManifest(*parsed), bytes);
    return Status::OK();
  };
  return s;
}

std::vector<Subject> AllSubjects() {
  std::vector<Subject> subjects;
  subjects.push_back(GraphSubject());
  subjects.push_back(QuantSubject());
  subjects.push_back(ShardManifestSubject());
  subjects.push_back(WalSubject());
  subjects.push_back(GenerationManifestSubject());
  subjects.push_back(ReplicaManifestSubject());
  return subjects;
}

// ------------------------------------------------------------ harness

/// Runs one mutated image through the subject's reader under the
/// allocation hook; `label` names the mutation in failure messages.
/// Returns whether the parse was clean.
bool ExpectCleanParse(const Subject& subject, const std::string& bytes,
                      const std::string& label) {
  // The largest single allocation a reader may make: a small multiple of
  // the image (decoded structures are wider than their bytes) plus slack
  // for diagnostics.
  const size_t budget = 16 * bytes.size() + 4096;
  Status status;
  bool threw = false;
  g_largest.store(0);
  g_tracking.store(true);
  try {
    status = subject.parse(bytes);
  } catch (const std::bad_alloc&) {
    threw = true;
  }
  g_tracking.store(false);
  const size_t largest = g_largest.load();
  EXPECT_FALSE(threw) << subject.name << " " << label
                      << ": reader requested " << largest << " bytes for a "
                      << bytes.size() << "-byte image";
  EXPECT_LE(largest, budget) << subject.name << " " << label
                             << ": reader allocation beyond " << budget
                             << " bytes";
  const bool clean_status = status.ok() || status.IsCorruption() ||
                            status.IsNotSupported() ||
                            status.IsInvalidArgument();
  EXPECT_TRUE(clean_status)
      << subject.name << " " << label << ": " << status.ToString();
  return !threw && largest <= budget && clean_status;
}

TEST(FormatMutationTest, UnmutatedImagesParse) {
  for (const Subject& subject : AllSubjects()) {
    std::string bytes = subject.bytes;
    Reseal(subject, &bytes);
    ASSERT_EQ(bytes, subject.bytes) << subject.name << ": CRC map is wrong";
    g_tracking.store(false);
    EXPECT_TRUE(subject.parse(bytes).ok()) << subject.name;
  }
}

TEST(FormatMutationTest, CountFieldsAtTheExtremesFailCleanly) {
  const uint64_t kExtremes[] = {0, 1, uint64_t{1} << 31, 0xFFFFFFFFull};
  for (const Subject& subject : AllSubjects()) {
    for (const CountField& field : subject.counts) {
      for (uint64_t value : kExtremes) {
        std::string bytes = subject.bytes;
        PutLE(&bytes, field.offset, value, field.width);
        Reseal(subject, &bytes);
        ExpectCleanParse(subject, bytes,
                         "field@" + std::to_string(field.offset) + "=" +
                             std::to_string(value));
      }
    }
  }
}

TEST(FormatMutationTest, RandomMutationsFailCleanly) {
  const uint64_t kExtremes[] = {0, 1, uint64_t{1} << 31, 0xFFFFFFFFull};
  constexpr int kCasesPerFormat = 4000;
  for (const Subject& subject : AllSubjects()) {
    Rng rng(2024);
    for (int c = 0; c < kCasesPerFormat; ++c) {
      std::string bytes = subject.bytes;
      // One to three stacked mutations per case.
      const uint32_t mutations = 1 + Pick(rng, 3);
      for (uint32_t m = 0; m < mutations; ++m) {
        const uint32_t pos =
            Pick(rng, static_cast<uint32_t>(bytes.size()));
        switch (Pick(rng, 3)) {
          case 0:
            bytes[pos] = static_cast<char>(bytes[pos] ^ (1u << Pick(rng, 8)));
            break;
          case 1:
            bytes[pos] = static_cast<char>(Pick(rng, 256));
            break;
          default: {
            const CountField& field = subject.counts[Pick(rng, 
                static_cast<uint32_t>(subject.counts.size()))];
            PutLE(&bytes, field.offset, kExtremes[Pick(rng, 4)],
                  field.width);
            break;
          }
        }
      }
      Reseal(subject, &bytes);
      // One report per format is enough to diagnose it.
      if (!ExpectCleanParse(subject, bytes, "case " + std::to_string(c))) {
        break;
      }
    }
  }
}

TEST(FormatMutationTest, WalWithBrokenPrologueReplaysEmpty) {
  const Subject wal = WalSubject();
  for (size_t byte = 0; byte < kWalHeaderBytes; ++byte) {
    if (byte >= 8 && byte < 16) continue;  // version/dim: sealed by the CRC
    std::string bytes = wal.bytes;
    bytes[byte] = static_cast<char>(bytes[byte] ^ 0x5A);
    StatusOr<WalReplay> replay = ReplayMutationLog(bytes, kWalDim);
    ASSERT_TRUE(replay.ok()) << "byte " << byte << ": "
                             << replay.status().ToString();
    EXPECT_TRUE(replay->records.empty());
    EXPECT_TRUE(replay->truncated_tail);
  }
}

}  // namespace
}  // namespace weavess
