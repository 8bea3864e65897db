// Corruption-matrix and round-trip tests for the versioned on-disk formats
// (WVSGRPH1 graphs, shard manifests, WVSSQNT1 quantized codes). Every
// injected fault — truncation at each section boundary, single-bit flips
// across the whole file, short reads, failed writes — must surface as the
// right Status code: no abort, no UB, no silently wrong data.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/binary_format.h"
#include "core/crc32c.h"
#include "core/file_io.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "core/status.h"
#include "core/rng.h"
#include "fault_injection.h"
#include "quant/quant_io.h"
#include "quant/sq8.h"
#include "search/router.h"
#include "shard/manifest.h"
#include "shard/sharded_index.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::FailingReader;
using ::weavess::testing::FaultyWriter;
using ::weavess::testing::FlipBit;
using ::weavess::testing::MakeTestWorkload;
using ::weavess::testing::ShortReadReader;
using ::weavess::testing::TruncateAt;

CsrGraph MakeSmallGraph() {
  Graph graph(6);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(1, 3);
  graph.AddEdge(2, 4);
  graph.AddEdge(3, 5);
  graph.AddEdge(4, 0);
  graph.AddEdge(5, 1);
  return CsrGraph(graph);
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(PersistenceTest, SerializeDeserializeRoundTripWithMetadata) {
  const CsrGraph graph = MakeSmallGraph();
  const std::string bytes = SerializeGraph(graph, "HNSW max_degree=30");
  std::string metadata;
  StatusOr<CsrGraph> loaded = DeserializeGraph(bytes, &metadata);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(metadata, "HNSW max_degree=30");
  EXPECT_EQ(*loaded, graph);
  // Re-serialization must be bit-identical: the format is canonical.
  EXPECT_EQ(SerializeGraph(*loaded, metadata), bytes);
}

TEST(PersistenceTest, EmptyGraphRoundTrips) {
  const CsrGraph graph;
  StatusOr<CsrGraph> loaded = DeserializeGraph(SerializeGraph(graph));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), 0u);
}

TEST(PersistenceTest, LegacyFormatFileIsCorruption) {
  // The seed-era format began with a raw u32 vertex count — no magic. Any
  // such file must be rejected as corruption, with a hint, never parsed.
  const CsrGraph graph = MakeSmallGraph();
  std::string legacy;
  const uint32_t n = graph.size();
  legacy.append(reinterpret_cast<const char*>(&n), 4);
  for (uint32_t v = 0; v < n; ++v) {
    const uint32_t deg = static_cast<uint32_t>(graph.Neighbors(v).size());
    legacy.append(reinterpret_cast<const char*>(&deg), 4);
    legacy.append(reinterpret_cast<const char*>(graph.Neighbors(v).data()),
                  deg * 4);
  }
  StatusOr<CsrGraph> loaded = DeserializeGraph(legacy);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("legacy"), std::string::npos)
      << loaded.status().ToString();

  const GraphFileReport report = VerifyGraphBytes(legacy);
  EXPECT_TRUE(report.status.IsCorruption());
}

TEST(PersistenceTest, TruncationAtEveryLengthIsDetected) {
  // Exhaustive truncation sweep: every proper prefix of the file must fail
  // with kCorruption — this covers every section boundary by construction.
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "meta");
  for (size_t length = 0; length < bytes.size(); ++length) {
    StatusOr<CsrGraph> loaded = DeserializeGraph(TruncateAt(bytes, length));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << length << " bytes parsed";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "length " << length << ": " << loaded.status().ToString();
  }
}

TEST(PersistenceTest, AppendedGarbageIsDetected) {
  std::string bytes = SerializeGraph(MakeSmallGraph(), "meta");
  bytes.push_back('\0');
  StatusOr<CsrGraph> loaded = DeserializeGraph(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(PersistenceTest, EveryBitFlipIsDetected) {
  // The full corruption matrix: flip each bit of the serialized graph in
  // turn. Every flip must yield kCorruption — never OK (CRC coverage is
  // total) and never an abort or a wrong graph.
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "m");
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    StatusOr<CsrGraph> loaded = DeserializeGraph(FlipBit(bytes, bit));
    ASSERT_FALSE(loaded.ok()) << "bit " << bit << " flip went undetected";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "bit " << bit << ": " << loaded.status().ToString();
  }
}

TEST(PersistenceTest, CorruptionDiagnosticsCarryByteOffsets) {
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "m");
  // Flip a byte in the adjacency payload (after header + offsets + CRC).
  const size_t payload_start = kGraphHeaderBytes + (6 + 1) * 8 + 4;
  StatusOr<CsrGraph> loaded =
      DeserializeGraph(FlipBit(bytes, payload_start * 8));
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("byte offset"), std::string::npos)
      << loaded.status().ToString();
}

TEST(PersistenceTest, ShortReadsStillLoadCorrectly) {
  // A reader that trickles out 3 bytes at a time must not confuse Load.
  const CsrGraph graph = MakeSmallGraph();
  const std::string bytes = SerializeGraph(graph, "trickle");
  ShortReadReader reader(bytes, 3);
  std::string metadata;
  StatusOr<CsrGraph> loaded = LoadGraphFromReader(reader, &metadata);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(metadata, "trickle");
  EXPECT_EQ(*loaded, graph);
}

TEST(PersistenceTest, FailedWriteIsIOErrorAtEveryCapacity) {
  // Simulated ENOSPC at every possible byte capacity: Save must report
  // kIOError, and a writer that succeeded must hold a loadable file.
  const CsrGraph graph = MakeSmallGraph();
  const size_t full_size = SerializeGraph(graph, "x").size();
  for (size_t capacity = 0; capacity < full_size; ++capacity) {
    FaultyWriter writer(capacity);
    const Status status = SaveGraphToWriter(graph, "x", writer);
    ASSERT_FALSE(status.ok()) << "capacity " << capacity;
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
  }
  FaultyWriter writer(full_size);
  ASSERT_TRUE(SaveGraphToWriter(graph, "x", writer).ok());
  EXPECT_TRUE(DeserializeGraph(writer.bytes()).ok());
}

TEST(PersistenceTest, MidStreamReadFailureIsIOError) {
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "x");
  FailingReader reader(bytes, bytes.size() / 2);
  StatusOr<CsrGraph> loaded = LoadGraphFromReader(reader);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST(PersistenceTest, VerifyReportsEverySectionOnCleanFile) {
  const CsrGraph graph = MakeSmallGraph();
  const GraphFileReport report =
      VerifyGraphBytes(SerializeGraph(graph, "algo=NSG"));
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.version, kGraphFormatVersion);
  EXPECT_EQ(report.num_vertices, 6u);
  EXPECT_EQ(report.num_edges, 7u);
  EXPECT_EQ(report.metadata, "algo=NSG");
  ASSERT_EQ(report.sections.size(), 4u);
  for (const SectionReport& section : report.sections) {
    EXPECT_TRUE(section.ok) << section.name;
    EXPECT_EQ(section.stored_crc, section.computed_crc) << section.name;
  }
}

TEST(PersistenceTest, VerifyPinpointsTheBadSection) {
  const std::string bytes = SerializeGraph(MakeSmallGraph(), "meta");
  // Corrupt one metadata byte: the metadata section is the last 4 + 4
  // bytes (payload "meta" + CRC) of the file.
  const size_t metadata_offset = bytes.size() - 8;
  const GraphFileReport report =
      VerifyGraphBytes(FlipBit(bytes, metadata_offset * 8));
  ASSERT_FALSE(report.status.ok());
  EXPECT_TRUE(report.status.IsCorruption());
  ASSERT_EQ(report.sections.size(), 4u);
  EXPECT_TRUE(report.sections[0].ok);   // header
  EXPECT_TRUE(report.sections[1].ok);   // offsets
  EXPECT_TRUE(report.sections[2].ok);   // payload
  EXPECT_FALSE(report.sections[3].ok);  // metadata
}

TEST(PersistenceTest, UnsupportedVersionIsNotSupported) {
  // Craft a structurally valid file with version 2: bump the version field
  // and recompute the header CRC so only the version check can object.
  std::string bytes = SerializeGraph(MakeSmallGraph());
  bytes[8] = 2;
  const uint32_t crc = Crc32c(bytes.data(), 28);
  std::memcpy(&bytes[28], &crc, 4);
  StatusOr<CsrGraph> loaded = DeserializeGraph(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported()) << loaded.status().ToString();
}

TEST(PersistenceTest, EveryRegistryAlgorithmRoundTrips) {
  // Save → Load over the graph of every algorithm in the survey: adjacency
  // must be bit-identical and search on the reloaded graph must return
  // exactly the results of the in-memory one.
  const auto tw = MakeTestWorkload(300, 8, 5, 3);
  AlgorithmOptions options;
  options.knng_degree = 10;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 3;
  for (const std::string& name : AlgorithmNames()) {
    SCOPED_TRACE(name);
    auto index = CreateAlgorithm(name, options);
    index->Build(tw.workload.base);
    const CsrGraph& original = index->graph();

    const std::string path = TempPath("roundtrip.wvs");
    ASSERT_TRUE(SaveGraph(original, path, name).ok());
    std::string metadata;
    StatusOr<CsrGraph> loaded = LoadGraph(path, &metadata);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(metadata, name);
    std::remove(path.c_str());

    // Bit-identical adjacency.
    ASSERT_EQ(*loaded, original);
    EXPECT_EQ(SerializeGraph(*loaded, name), SerializeGraph(original, name));

    // Search over the reloaded graph (same seeds, same routing) must be
    // identical to search over the in-memory graph.
    SearchContext ctx(original.size());
    const std::vector<uint32_t> seeds = {0, 7, 42};
    for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
      const float* query = tw.workload.queries.Row(q);
      std::vector<std::vector<uint32_t>> results;
      const CsrGraph* const graphs[] = {&original, &*loaded};
      for (const CsrGraph* graph : graphs) {
        DistanceCounter counter;
        DistanceOracle oracle(tw.workload.base, &counter);
        ctx.BeginQuery(original.size());
        CandidatePool pool(30);
        SeedPool(seeds, query, oracle, ctx, pool);
        BestFirstSearch(*graph, query, oracle, ctx, pool);
        results.push_back(IdsOf(pool.TopScored(10)));
      }
      EXPECT_EQ(results[0], results[1]) << "query " << q;
    }
  }
}

TEST(PersistenceTest, SaveToUnwritablePathIsIOError) {
  const CsrGraph graph = MakeSmallGraph();
  const Status status = SaveGraph(graph, "/nonexistent-dir/graph.wvs");
  ASSERT_FALSE(status.ok());
  EXPECT_TRUE(status.IsIOError()) << status.ToString();
}

TEST(PersistenceTest, LoadMissingFileIsIOError) {
  StatusOr<CsrGraph> loaded = LoadGraph(TempPath("no-such-graph.wvs"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

// ------------------------------------------------- shard manifests

ShardManifest MakeSmallManifest() {
  ShardManifest manifest;
  manifest.algorithm = "HNSW";
  manifest.partitioner = "random";
  manifest.options.seed = 77;
  // Deserialization fills these two from the header/body, so the round
  // trip is canonical only when the input agrees with itself.
  manifest.options.num_shards = 2;
  manifest.options.partitioner = "random";
  manifest.total_vertices = 6;
  manifest.shards.resize(2);
  manifest.shards[0].path = "a.shard0.wvs";
  manifest.shards[0].ids = {0, 2, 4};
  manifest.shards[1].path = "a.shard1.wvs";
  manifest.shards[1].ids = {1, 3, 5};
  return manifest;
}

TEST(PersistenceTest, ShardManifestRoundTripIsCanonical) {
  const ShardManifest manifest = MakeSmallManifest();
  const std::string bytes = SerializeManifest(manifest);
  EXPECT_TRUE(IsManifestBytes(bytes));
  StatusOr<ShardManifest> loaded = DeserializeManifest(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->algorithm, "HNSW");
  EXPECT_EQ(loaded->partitioner, "random");
  EXPECT_EQ(loaded->options.seed, 77u);
  EXPECT_EQ(loaded->total_vertices, 6u);
  ASSERT_EQ(loaded->shards.size(), 2u);
  EXPECT_EQ(loaded->shards[0].path, "a.shard0.wvs");
  EXPECT_EQ(loaded->shards[1].ids, (std::vector<uint32_t>{1, 3, 5}));
  // Re-serialization must be bit-identical: the format is canonical.
  EXPECT_EQ(SerializeManifest(*loaded), bytes);
}

TEST(PersistenceTest, ShardManifestEveryBitFlipIsDetected) {
  // The manifest corruption matrix, mirroring EveryBitFlipIsDetected: a
  // wrong shard map silently routing queries would be worse than a refused
  // load, so CRC coverage of the manifest must be total.
  const std::string bytes = SerializeManifest(MakeSmallManifest());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    StatusOr<ShardManifest> loaded = DeserializeManifest(FlipBit(bytes, bit));
    ASSERT_FALSE(loaded.ok()) << "bit " << bit << " flip went undetected";
    EXPECT_TRUE(loaded.status().IsCorruption() ||
                loaded.status().IsNotSupported())
        << "bit " << bit << ": " << loaded.status().ToString();
  }
}

TEST(PersistenceTest, ShardManifestTruncationAtEveryLengthIsDetected) {
  const std::string bytes = SerializeManifest(MakeSmallManifest());
  for (size_t length = 0; length < bytes.size(); ++length) {
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(TruncateAt(bytes, length));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << length << " bytes parsed";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "length " << length << ": " << loaded.status().ToString();
  }
}

TEST(PersistenceTest, ShardManifestRejectsBrokenShardMaps) {
  // Structurally valid CRCs around semantically broken id maps: every case
  // must be named corruption, not accepted.
  {
    ShardManifest overlap = MakeSmallManifest();
    overlap.shards[1].ids = {1, 3, 4};  // 4 is owned by shard 0
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(overlap));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    ShardManifest gap = MakeSmallManifest();
    gap.shards[1].ids = {1, 3};  // row 5 unassigned
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(gap));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
  {
    ShardManifest range = MakeSmallManifest();
    range.shards[1].ids = {1, 3, 9};  // 9 is out of [0, 6)
    StatusOr<ShardManifest> loaded =
        DeserializeManifest(SerializeManifest(range));
    ASSERT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  }
}

// The v1 layout of `manifest`: the current layout without the generation
// field, which version 2 added after the partitioner string.
std::string SerializeManifestV1(const ShardManifest& manifest) {
  const std::string v2 = SerializeManifest(manifest);
  const size_t generation_at = kManifestHeaderBytes + 4 +
                               manifest.algorithm.size() + 4 +
                               manifest.partitioner.size();
  ByteWriter out;
  out.Bytes({kManifestMagic, sizeof(kManifestMagic)});
  out.U32(1);
  out.U32(static_cast<uint32_t>(manifest.shards.size()));
  out.U32(manifest.total_vertices);
  out.U32(static_cast<uint32_t>(v2.size() - kManifestHeaderBytes - 4 - 8));
  out.Crc32cSince(0);
  out.Bytes(std::string_view(v2).substr(
      kManifestHeaderBytes, generation_at - kManifestHeaderBytes));
  out.Bytes(std::string_view(v2).substr(generation_at + 8,
                                        v2.size() - 4 - generation_at - 8));
  out.Crc32cSince(kManifestHeaderBytes);
  return out.Release();
}

TEST(PersistenceTest, ShardManifestReportsTheVersionItWasReadFrom) {
  ShardManifest manifest = MakeSmallManifest();
  manifest.generation = 9;
  StatusOr<ShardManifest> v2 = DeserializeManifest(SerializeManifest(manifest));
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->format_version, 2u);
  EXPECT_EQ(v2->generation, 9u);

  StatusOr<ShardManifest> v1 =
      DeserializeManifest(SerializeManifestV1(manifest));
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1->format_version, 1u);
  EXPECT_EQ(v1->generation, 0u);
  EXPECT_EQ(v1->shards[1].ids, (std::vector<uint32_t>{1, 3, 5}));
  // The field is read-only provenance: re-serializing writes the current
  // version.
  v1->generation = 9;
  EXPECT_EQ(SerializeManifest(*v1), SerializeManifest(manifest));
}

TEST(PersistenceTest, CliVerifyPrintsTheManifestsOwnVersion) {
  // `weavess_cli verify` on a v1 manifest must say "format v1", not the
  // version this build writes.
  const auto tw = MakeTestWorkload(200, 8, 4);
  AlgorithmOptions options;
  options.num_shards = 2;
  auto built = CreateAlgorithm("Sharded:HNSW", options);
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("cli_v1");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());
  const std::string manifest_path = prefix + ".manifest";
  StatusOr<ShardManifest> saved = LoadManifest(manifest_path);
  ASSERT_TRUE(saved.ok()) << saved.status().ToString();

  auto verify = [&manifest_path](int* exit_code) {
    const std::string command = std::string(WEAVESS_CLI_PATH) +
                                " verify --graph " + manifest_path;
    FILE* pipe = popen(command.c_str(), "r");
    std::string output;
    char buffer[256];
    while (fgets(buffer, sizeof(buffer), pipe) != nullptr) output += buffer;
    *exit_code = pclose(pipe);
    return output;
  };
  int exit_code = -1;
  EXPECT_NE(verify(&exit_code).find("format v2,"), std::string::npos);
  EXPECT_EQ(exit_code, 0);

  ASSERT_TRUE(
      WriteStringToFile(SerializeManifestV1(*saved), manifest_path).ok());
  const std::string output = verify(&exit_code);
  EXPECT_NE(output.find("format v1,"), std::string::npos) << output;
  EXPECT_NE(output.find("all 2 shard file(s) OK"), std::string::npos)
      << output;
  EXPECT_EQ(exit_code, 0);
}

TEST(PersistenceTest, ShardManifestHostileCountsAreCorruptionNotAllocation) {
  // A manifest with no shard entries whose sealed header claims 2^28 shards
  // (or rows): each header count sizes an allocation, so each must be
  // bounded by the body bytes that remain, and the failure must name the
  // offset where the entries would start.
  ShardManifest empty = MakeSmallManifest();
  empty.total_vertices = 0;
  empty.shards.clear();
  const std::string bytes = SerializeManifest(empty);
  const std::string entries_offset =
      "at byte offset " + std::to_string(bytes.size() - 4);
  for (const size_t field : {size_t{12}, size_t{16}}) {  // shards, rows
    std::string hostile = bytes;
    const uint32_t count = 0x10000000u;
    std::memcpy(&hostile[field], &count, sizeof(count));
    const uint32_t crc = Crc32c(hostile.data(), kManifestHeaderBytes - 4);
    std::memcpy(&hostile[kManifestHeaderBytes - 4], &crc, sizeof(crc));
    StatusOr<ShardManifest> loaded = DeserializeManifest(hostile);
    ASSERT_FALSE(loaded.ok()) << "field " << field;
    EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(entries_offset),
              std::string::npos)
        << loaded.status().ToString();
  }
}

TEST(PersistenceTest, CorruptingEachShardFileDegradesOnlyThatShard) {
  // The per-shard corruption matrix over a real saved index: for every
  // shard in turn, flipping a bit in that shard's file must degrade exactly
  // that shard — named by id and path in its status — while the others keep
  // serving graph search (docs/SHARDING.md failure isolation).
  const auto tw = MakeTestWorkload(400, 8, 8);
  AlgorithmOptions options;
  options.knng_degree = 8;
  options.max_degree = 10;
  options.build_pool = 30;
  options.nn_descent_iters = 2;
  options.num_shards = 3;
  auto built = CreateAlgorithm("Sharded:HNSW", options);
  built->Build(tw.workload.base);
  const std::string prefix = TempPath("shard_matrix");
  ASSERT_TRUE(dynamic_cast<ShardedIndex*>(built.get())->Save(prefix).ok());

  for (uint32_t victim = 0; victim < 3; ++victim) {
    SCOPED_TRACE("victim shard " + std::to_string(victim));
    const std::string path =
        prefix + ".shard" + std::to_string(victim) + ".wvs";
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(path, &bytes).ok());
    ASSERT_TRUE(WriteStringToFile(FlipBit(bytes, 123), path).ok());

    auto loaded_or =
        ShardedIndex::Load(prefix + ".manifest", tw.workload.base);
    ASSERT_TRUE(loaded_or.ok()) << loaded_or.status().ToString();
    const ShardedIndex& loaded = **loaded_or;
    EXPECT_EQ(loaded.num_degraded_shards(), 1u);
    for (uint32_t s = 0; s < 3; ++s) {
      if (s == victim) {
        const Status& status = loaded.shard_status(s);
        ASSERT_FALSE(status.ok());
        EXPECT_TRUE(status.IsCorruption()) << status.ToString();
        EXPECT_NE(status.message().find("shard " + std::to_string(victim)),
                  std::string::npos)
            << status.ToString();
        EXPECT_NE(status.message().find(path), std::string::npos)
            << status.ToString();
      } else {
        EXPECT_TRUE(loaded.shard_status(s).ok()) << "shard " << s;
      }
    }
    // Restore the file for the next victim.
    ASSERT_TRUE(WriteStringToFile(bytes, path).ok());
  }
}

// -------------------------- WVSSQNT1 quantized-codes corruption matrix --

QuantizedDataset MakeSmallCodes() {
  // Tiny on purpose: the every-bit-flip matrix is O(bytes * parse), and a
  // 5x6 code block still crosses every section boundary.
  std::vector<float> flat;
  Rng rng(77);
  for (uint32_t i = 0; i < 5 * 6; ++i) {
    flat.push_back(static_cast<float>(rng.NextGaussian()) * 3.0f);
  }
  Dataset data(5, 6, flat);
  return SQ8Codec::Train(data).Encode(data);
}

TEST(QuantPersistenceTest, SerializeDeserializeRoundTrips) {
  const QuantizedDataset codes = MakeSmallCodes();
  const std::string bytes = SerializeQuantized(codes);
  ASSERT_TRUE(IsQuantizedBytes(bytes));
  StatusOr<QuantizedDataset> loaded = DeserializeQuantized(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), codes.size());
  EXPECT_EQ(loaded->dim(), codes.dim());
  EXPECT_EQ(loaded->code_stride(), codes.code_stride());
  for (uint32_t i = 0; i < codes.size(); ++i) {
    for (uint32_t d = 0; d < codes.dim(); ++d) {
      ASSERT_EQ(loaded->Code(i)[d], codes.Code(i)[d]);
      ASSERT_EQ(loaded->Dequantize(i, d), codes.Dequantize(i, d));
    }
  }
  // Canonical bytes: re-serializing the loaded codes is bit-identical.
  EXPECT_EQ(SerializeQuantized(*loaded), bytes);
}

TEST(QuantPersistenceTest, EveryBitFlipIsDetected) {
  // The full corruption matrix, mirroring the graph format's: flip each
  // bit of the serialized codes in turn. Every flip must yield kCorruption
  // (CRC coverage is total — header, mins, scales, codes, and padding) —
  // never OK, never an abort, never silently wrong codes.
  const std::string bytes = SerializeQuantized(MakeSmallCodes());
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    StatusOr<QuantizedDataset> loaded =
        DeserializeQuantized(FlipBit(bytes, bit));
    ASSERT_FALSE(loaded.ok()) << "bit " << bit << " flip went undetected";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "bit " << bit << ": " << loaded.status().ToString();
  }
}

TEST(QuantPersistenceTest, TruncationAtEveryLengthIsDetected) {
  const std::string bytes = SerializeQuantized(MakeSmallCodes());
  for (size_t length = 0; length < bytes.size(); ++length) {
    StatusOr<QuantizedDataset> loaded =
        DeserializeQuantized(TruncateAt(bytes, length));
    ASSERT_FALSE(loaded.ok()) << "prefix of " << length << " bytes parsed";
    EXPECT_TRUE(loaded.status().IsCorruption())
        << "length " << length << ": " << loaded.status().ToString();
  }
}

TEST(QuantPersistenceTest, AppendedGarbageIsDetected) {
  std::string bytes = SerializeQuantized(MakeSmallCodes());
  bytes.push_back('\0');
  StatusOr<QuantizedDataset> loaded = DeserializeQuantized(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
}

TEST(QuantPersistenceTest, UnsupportedVersionIsNotSupported) {
  std::string bytes = SerializeQuantized(MakeSmallCodes());
  // Bump the version field and re-stamp the header CRC so the version
  // check itself is reached.
  bytes[8] = 2;
  const uint32_t crc = Crc32c(bytes.data(), 24);
  std::memcpy(&bytes[24], &crc, sizeof(crc));
  StatusOr<QuantizedDataset> loaded = DeserializeQuantized(bytes);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotSupported()) << loaded.status().ToString();
}

TEST(QuantPersistenceTest, ShortReadsStillLoadCorrectly) {
  const QuantizedDataset codes = MakeSmallCodes();
  const std::string bytes = SerializeQuantized(codes);
  for (size_t chunk : {1ul, 3ul, 7ul, 64ul}) {
    ShortReadReader reader(bytes, chunk);
    StatusOr<QuantizedDataset> loaded = LoadQuantizedFromReader(reader);
    ASSERT_TRUE(loaded.ok()) << "chunk " << chunk << ": "
                             << loaded.status().ToString();
    EXPECT_EQ(loaded->size(), codes.size());
  }
}

TEST(QuantPersistenceTest, FailedWriteIsIOErrorAtEveryCapacity) {
  const QuantizedDataset codes = MakeSmallCodes();
  const size_t total = SerializeQuantized(codes).size();
  for (size_t capacity = 0; capacity < total; capacity += 7) {
    FaultyWriter writer(capacity);
    const Status status = SaveQuantizedToWriter(codes, writer);
    ASSERT_FALSE(status.ok()) << "capacity " << capacity;
    EXPECT_TRUE(status.IsIOError()) << status.ToString();
  }
}

TEST(QuantPersistenceTest, MidStreamReadFailureIsIOError) {
  const std::string bytes = SerializeQuantized(MakeSmallCodes());
  FailingReader reader(bytes, bytes.size() / 2);
  StatusOr<QuantizedDataset> loaded = LoadQuantizedFromReader(reader);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsIOError()) << loaded.status().ToString();
}

TEST(QuantPersistenceTest, VerifyReportsEverySectionAndPinpointsTheBad) {
  const std::string bytes = SerializeQuantized(MakeSmallCodes());
  const QuantFileReport clean = VerifyQuantizedBytes(bytes);
  ASSERT_TRUE(clean.status.ok()) << clean.status.ToString();
  ASSERT_EQ(clean.sections.size(), 4u);
  const char* expected[] = {"header", "mins", "scales", "codes"};
  for (size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(clean.sections[s].name, expected[s]);
    EXPECT_TRUE(clean.sections[s].ok);
    EXPECT_EQ(clean.sections[s].stored_crc, clean.sections[s].computed_crc);
  }
  // Corrupt one byte inside the scales payload: verify must keep checking
  // and report exactly that section as bad.
  const size_t scales_byte =
      kQuantizedHeaderBytes + 6 * sizeof(float) + sizeof(uint32_t) + 3;
  const QuantFileReport bad = VerifyQuantizedBytes(FlipBit(bytes,
                                                           scales_byte * 8));
  ASSERT_FALSE(bad.status.ok());
  ASSERT_EQ(bad.sections.size(), 4u);
  EXPECT_TRUE(bad.sections[0].ok);
  EXPECT_TRUE(bad.sections[1].ok);
  EXPECT_FALSE(bad.sections[2].ok);
  EXPECT_TRUE(bad.sections[3].ok);
}

}  // namespace
}  // namespace weavess
