// Byte pins for the six on-disk formats: every writer serializes a fixed,
// seeded input and the test asserts the exact size and CRC32C of the
// output, plus the full hex for the small formats. The pins were recorded
// from the original per-format writers; they must never be edited to fit a
// writer change — an unchanged pin is the proof that the files a build
// writes are byte-identical to the ones every earlier build wrote.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "core/aligned.h"
#include "core/crc32c.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "shard/manifest.h"
#include "shard/mutation_log.h"
#include "shard/replica_manifest.h"

namespace weavess {
namespace {

// SplitMix64: a self-contained generator so the pinned inputs cannot move
// when the library's own RNG changes.
uint64_t Next(uint64_t& state) {
  uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Hex(std::string_view bytes) {
  std::string out;
  char buf[3];
  for (unsigned char c : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", c);
    out += buf;
  }
  return out;
}

void ExpectPinned(const std::string& bytes, size_t size, uint32_t crc) {
  EXPECT_EQ(bytes.size(), size);
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), crc)
      << "CRC32C 0x" << std::hex << Crc32c(bytes.data(), bytes.size());
}

Graph PinnedGraph() {
  uint64_t state = 42;
  Graph graph(200);
  for (uint32_t v = 0; v < 200; ++v) {
    const uint32_t degree = static_cast<uint32_t>(Next(state) % 9);
    for (uint32_t i = 0; i < degree; ++i) {
      graph.MutableNeighbors(v).push_back(
          static_cast<uint32_t>(Next(state) % 200));
    }
  }
  return graph;
}

QuantizedDataset PinnedCodes() {
  uint64_t state = 7;
  const uint32_t num = 37;
  const uint32_t dim = 10;
  const uint32_t stride = QuantizedDataset::PaddedStride(dim);
  AlignedByteVector codes(static_cast<size_t>(num) * stride, 0);
  for (uint32_t i = 0; i < num; ++i) {
    for (uint32_t d = 0; d < dim; ++d) {
      codes[static_cast<size_t>(i) * stride + d] =
          static_cast<uint8_t>(Next(state));
    }
  }
  AlignedFloatVector mins(dim), scales(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    mins[d] = static_cast<float>(Next(state) % 1000) / 100.0f - 5.0f;
    scales[d] = static_cast<float>(Next(state) % 1000) / 4096.0f;
  }
  return QuantizedDataset(num, dim, std::move(codes), std::move(mins),
                          std::move(scales));
}

ShardManifest PinnedShardManifest() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "kmeans";
  manifest.total_vertices = 12;
  manifest.generation = 7;
  manifest.options.seed = 0x0123456789ABCDEFull;
  manifest.options.knng_degree = 20;
  manifest.options.max_degree = 24;
  manifest.options.build_pool = 80;
  manifest.options.nn_descent_iters = 6;
  manifest.options.num_trees = 3;
  manifest.options.num_seeds = 5;
  manifest.options.alpha = 1.2f;
  manifest.options.angle_degrees = 60.0f;
  manifest.shards = {{"idx.shard0", {0, 3, 5, 9}},
                     {"idx.shard1", {1, 2, 10}},
                     {"/abs/idx.shard2", {4, 6, 7, 8, 11}}};
  return manifest;
}

ReplicaManifest PinnedReplicaManifest() {
  ReplicaManifest manifest;
  manifest.replicas = {
      {"idx.r0", ReplicaManifest::Kind::kGraph, 0xDEADBEEFu},
      {"idx.r1.manifest", ReplicaManifest::Kind::kShardManifest,
       0x01020304u},
  };
  return manifest;
}

TEST(BinaryFormatPinTest, GraphFileIsByteIdentical) {
  const std::string bytes =
      SerializeGraph(CsrGraph(PinnedGraph()), "NSG max_degree=8 seed=42");
  ExpectPinned(bytes, 4748, 0xb8573ac2u);
  EXPECT_EQ(Hex(std::string_view(bytes).substr(0, kGraphHeaderBytes)),
            "575653475250483101000000c8000000000300000000000018000000"
            "9bcc1c68");
}

TEST(BinaryFormatPinTest, QuantizedCodesFileIsByteIdentical) {
  const std::string bytes = SerializeQuantized(PinnedCodes());
  ExpectPinned(bytes, 2488, 0x58659177u);
  EXPECT_EQ(Hex(std::string_view(bytes).substr(0, kQuantizedHeaderBytes)),
            "57565353514e543101000000250000000a00000040000000972cd2bc");
}

TEST(BinaryFormatPinTest, ShardManifestIsByteIdentical) {
  const std::string bytes = SerializeManifest(PinnedShardManifest());
  ExpectPinned(bytes, 205, 0xc265d175u);
  EXPECT_EQ(Hex(bytes),
            "575653534852443102000000030000000c000000ad000000700e4275"
            "04000000484e5357060000006b6d65616e730700000000000000efcd"
            "ab896745230114000000180000005000000006000000030000000500"
            "00009a99993f000070420a0000006964782e73686172643004000000"
            "000000000300000005000000090000000a0000006964782e73686172"
            "64310300000001000000020000000a0000000f0000002f6162732f69"
            "64782e73686172643205000000040000000600000007000000080000"
            "000b00000048979f1c");
}

TEST(BinaryFormatPinTest, WalHeaderAndEveryRecordKindAreByteIdentical) {
  MutationRecord add;
  add.kind = MutationKind::kAdd;
  add.id = 5;
  add.vector = {1.5f, -2.25f, 3.0f};
  MutationRecord remove;
  remove.kind = MutationKind::kRemove;
  remove.id = 9;
  MutationRecord compact;
  compact.kind = MutationKind::kCompact;
  compact.id = 2;
  MutationRecord commit;
  commit.kind = MutationKind::kCommit;
  commit.generation = 0x100000004ull;
  commit.next_id = 11;

  EXPECT_EQ(Hex(SerializeWalHeader(3)),
            "5756535357414c310100000003000000f4445ad4");
  EXPECT_EQ(Hex(SerializeWalRecord(add)),
            "110000008ddc8d3101050000000000c03f000010c000004040");
  EXPECT_EQ(Hex(SerializeWalRecord(remove)), "050000003360511e0209000000");
  EXPECT_EQ(Hex(SerializeWalRecord(compact)), "0500000040e526b20302000000");
  EXPECT_EQ(Hex(SerializeWalRecord(commit)),
            "0d00000048838e670404000000010000000b000000");
  const std::string log = SerializeWalHeader(3) + SerializeWalRecord(add) +
                          SerializeWalRecord(remove) +
                          SerializeWalRecord(compact) +
                          SerializeWalRecord(commit);
  ExpectPinned(log, 92, 0x8f47f225u);
}

TEST(BinaryFormatPinTest, GenerationManifestIsByteIdentical) {
  GenerationManifest manifest;
  manifest.dim = 96;
  manifest.num_shards = 4;
  manifest.generation = 0x0000000500000003ull;
  manifest.next_id = 12345;
  manifest.seed = 0xFEDCBA9876543210ull;
  const std::string bytes = SerializeGenerationManifest(manifest);
  ExpectPinned(bytes, 44, 0x48674bc7u);
  EXPECT_EQ(Hex(bytes),
            "5756535347454e310100000060000000040000000300000005000000"
            "393000001032547698badcfe60a3909b");
}

TEST(BinaryFormatPinTest, ReplicaManifestIsByteIdentical) {
  const std::string bytes = SerializeReplicaManifest(PinnedReplicaManifest());
  ExpectPinned(bytes, 68, 0x91916476u);
  EXPECT_EQ(Hex(bytes),
            "575653535245504c31010000000200000027000000c990bd43000600"
            "00006964782e7230efbeadde010f0000006964782e72312e6d616e69"
            "6665737404030201cfea3191");
}

}  // namespace
}  // namespace weavess
