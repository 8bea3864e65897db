// Versioned, CRC32C-checksummed shard manifest: the root file of a saved
// sharded index. The manifest records how the dataset was partitioned, how
// each shard was built (enough to rebuild any shard bit-for-bit — the
// RepairShard contract), and which per-shard graph file (core/graph_io.h
// format) holds each shard's adjacency. Full layout in docs/SHARDING.md;
// in brief (shared framing of core/binary_format.h):
//
//   [ 0..8)   magic "WVSSHRD1"
//   [ 8..12)  u32 format version (currently 2)
//   [12..16)  u32 num_shards
//   [16..20)  u32 total_vertices
//   [20..24)  u32 body length in bytes
//   [24..28)  u32 CRC32C of bytes [0..28-4)          — header section
//   then      body bytes,                  u32 CRC   — body section
//
// Body: algorithm string, partitioner string, u64 generation (v2+; v1
// manifests deserialize with generation 0), build options (seed and the
// construction knobs), then per shard: relative path string + id list.
// Deserialization validates structure end to end: the shard id lists must
// be disjoint and together cover [0, total_vertices) exactly. A corrupt
// manifest is unusable (kCorruption); a corrupt *shard file* is not the
// manifest's concern — LoadShardedIndex degrades just that shard.
#ifndef WEAVESS_SHARD_MANIFEST_H_
#define WEAVESS_SHARD_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "algorithms/registry.h"
#include "core/status.h"

namespace weavess {

inline constexpr char kManifestMagic[8] = {'W', 'V', 'S', 'S', 'H', 'R', 'D',
                                           '1'};
/// Version written by SerializeManifest. Version 2 added the generation
/// number; version-1 files still load (generation 0).
inline constexpr uint32_t kManifestFormatVersion = 2;
inline constexpr uint32_t kMinManifestFormatVersion = 1;
/// Fixed prologue: magic + version + counts + body length + header CRC.
inline constexpr size_t kManifestHeaderBytes = 28;
/// Upper bound on the body section; anything larger is corruption.
inline constexpr uint32_t kMaxManifestBodyBytes = 1u << 26;

struct ShardManifest {
  struct Entry {
    /// Shard graph file, relative to the manifest's own directory (absolute
    /// paths are stored verbatim). Resolve with ResolveShardPath.
    std::string path;
    /// Global row ids assigned to this shard, ascending. The shard's graph
    /// file stores shard-local vertex ids; ids[local] maps them back.
    std::vector<uint32_t> ids;
  };

  /// Registry name every shard was built with (e.g. "HNSW").
  std::string algorithm;
  /// Partitioner spelling ("random" / "kmeans", shard/partitioner.h).
  std::string partitioner;
  /// Build options shared by all shards. options.seed is the BASE seed;
  /// shard s was built with DeriveShardSeed(options.seed, s), so a repair
  /// reproduces the original build bit-for-bit (sharded_index.h).
  AlgorithmOptions options;
  /// Rows in the dataset the index was built over; the shard id lists
  /// partition [0, total_vertices) exactly.
  uint32_t total_vertices = 0;
  /// Generation number of the save (docs/MUTATION.md): 0 for a plain
  /// static save, the committed mutable-index generation when a snapshot
  /// of a live index is persisted. Informational for static loads; the
  /// mutable path cross-checks it against its generation manifest.
  uint64_t generation = 0;
  std::vector<Entry> shards;
  /// Format version the manifest was read from (set by
  /// DeserializeManifest). SerializeManifest ignores it and always writes
  /// kManifestFormatVersion.
  uint32_t format_version = kManifestFormatVersion;
};

std::string SerializeManifest(const ShardManifest& manifest);

/// Parses and validates a serialized manifest: magic, version, both CRCs,
/// per-entry structure, and the disjoint-cover invariant over the id lists.
StatusOr<ShardManifest> DeserializeManifest(std::string_view bytes);

Status SaveManifest(const ShardManifest& manifest, const std::string& path);
StatusOr<ShardManifest> LoadManifest(const std::string& path);

/// True when `bytes` starts with the manifest magic — how the CLI's verify
/// subcommand distinguishes a manifest from a single graph file.
bool IsManifestBytes(std::string_view bytes);

/// Joins a manifest entry's (relative) shard path onto the directory of
/// `manifest_path`; absolute entry paths are returned unchanged.
std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& entry_path);

}  // namespace weavess

#endif  // WEAVESS_SHARD_MANIFEST_H_
