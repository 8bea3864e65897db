// Versioned, CRC32C-checksummed replica-set manifest: the root file of a
// replicated deployment (docs/SERVING.md). It lists the N replica sources —
// each either a saved graph (core/graph_io.h) or a shard manifest
// (shard/manifest.h) — together with a CRC32C of each referenced file's
// bytes, so `weavess_cli verify` and ReplicaSet::FromReplicaManifest can
// tell a bit-rotted replica from a healthy one before it ever serves.
// Shared framing of core/binary_format.h:
//
//   [ 0.. 9)  magic "WVSSREPL1"
//   [ 9..13)  u32 format version (currently 1)
//   [13..17)  u32 num_replicas
//   [17..21)  u32 body length in bytes
//   [21..25)  u32 CRC32C of bytes [0..25-4)          — header section
//   then      body bytes,                  u32 CRC   — body section
//
// Body, per replica: u8 kind (0 = graph file, 1 = shard manifest), path
// string (relative to the manifest's directory, like shard entries), u32
// CRC32C of the referenced file's full contents. A corrupt replica-set
// manifest is unusable (kCorruption) — it is the root of trust. A replica
// whose recorded file CRC no longer matches the file on disk is NOT fatal:
// FromReplicaManifest still opens it (the engine degrades to brute-force
// fallback if the file is truly unloadable) and reports the mismatch, so
// one rotten replica costs quality on one replica, never availability.
#ifndef WEAVESS_SHARD_REPLICA_MANIFEST_H_
#define WEAVESS_SHARD_REPLICA_MANIFEST_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace weavess {

inline constexpr char kReplicaManifestMagic[9] = {'W', 'V', 'S', 'S', 'R',
                                                  'E', 'P', 'L', '1'};
inline constexpr uint32_t kReplicaManifestFormatVersion = 1;
/// Fixed prologue: magic + version + count + body length + header CRC.
inline constexpr size_t kReplicaManifestHeaderBytes = 25;
/// Upper bound on the body section; anything larger is corruption.
inline constexpr uint32_t kMaxReplicaManifestBodyBytes = 1u << 20;

struct ReplicaManifest {
  enum class Kind : uint8_t {
    kGraph = 0,          // saved graph file, ServingEngine::FromSavedGraph
    kShardManifest = 1,  // shard manifest, ServingEngine::FromShardManifest
  };

  struct Entry {
    /// Replica source file, relative to the manifest's own directory
    /// (absolute paths stored verbatim). Resolve with ResolveShardPath.
    std::string path;
    Kind kind = Kind::kGraph;
    /// CRC32C of the referenced file's full byte contents at save time.
    uint32_t file_crc32c = 0;
  };

  std::vector<Entry> replicas;
};

std::string SerializeReplicaManifest(const ReplicaManifest& manifest);

/// Parses and validates a serialized replica manifest: magic, version, both
/// CRCs, and per-entry structure. Does not touch the referenced files.
StatusOr<ReplicaManifest> DeserializeReplicaManifest(std::string_view bytes);

Status SaveReplicaManifest(const ReplicaManifest& manifest,
                           const std::string& path);
StatusOr<ReplicaManifest> LoadReplicaManifest(const std::string& path);

/// True when `bytes` starts with the replica-manifest magic — how the CLI's
/// verify subcommand distinguishes the three on-disk root formats.
bool IsReplicaManifestBytes(std::string_view bytes);

/// CRC32C of the file's full contents (the value recorded per entry).
StatusOr<uint32_t> FileCrc32c(const std::string& path);

}  // namespace weavess

#endif  // WEAVESS_SHARD_REPLICA_MANIFEST_H_
