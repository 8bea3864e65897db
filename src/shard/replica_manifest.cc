#include "shard/replica_manifest.h"

#include "core/binary_format.h"
#include "core/check.h"
#include "core/crc32c.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kReplicaManifestPrologue{
    {kReplicaManifestMagic, sizeof(kReplicaManifestMagic)},
    "replica-set manifest", kReplicaManifestHeaderBytes,
    kReplicaManifestFormatVersion, kReplicaManifestFormatVersion};

}  // namespace

bool IsReplicaManifestBytes(std::string_view bytes) {
  return bytes.starts_with(kReplicaManifestPrologue.magic);
}

StatusOr<uint32_t> FileCrc32c(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return Crc32c(bytes.data(), bytes.size());
}

std::string SerializeReplicaManifest(const ReplicaManifest& manifest) {
  WEAVESS_CHECK(manifest.replicas.size() <= 0xFFFFFFFFu);

  ByteWriter body;
  for (const ReplicaManifest::Entry& entry : manifest.replicas) {
    body.U8(static_cast<uint8_t>(entry.kind));
    body.String(entry.path);
    body.U32(entry.file_crc32c);
  }
  WEAVESS_CHECK(body.size() <= kMaxReplicaManifestBodyBytes);

  ByteWriter out(kReplicaManifestHeaderBytes + body.size() + 4);
  out.Bytes(kReplicaManifestPrologue.magic);
  out.U32(kReplicaManifestFormatVersion);
  out.U32(static_cast<uint32_t>(manifest.replicas.size()));
  out.U32(static_cast<uint32_t>(body.size()));
  out.Crc32cSince(0);
  out.Bytes(body.bytes());
  out.Crc32cSince(kReplicaManifestHeaderBytes);
  return out.Release();
}

StatusOr<ReplicaManifest> DeserializeReplicaManifest(std::string_view bytes) {
  WEAVESS_ASSIGN_OR_RETURN(ByteCursor header,
                           CheckPrologue(bytes, kReplicaManifestPrologue));
  uint32_t num_replicas = 0;
  WEAVESS_RETURN_IF_ERROR(header.U32("num_replicas", &num_replicas));
  WEAVESS_ASSIGN_OR_RETURN(
      ByteCursor body, CheckBody(bytes, kReplicaManifestHeaderBytes, header,
                                 kMaxReplicaManifestBodyBytes));
  // An entry holds at least a kind byte, a path length, and a file CRC.
  WEAVESS_RETURN_IF_ERROR(body.CheckCount(num_replicas, 9, "replica"));

  ReplicaManifest manifest;
  manifest.replicas.resize(num_replicas);
  for (uint32_t r = 0; r < num_replicas; ++r) {
    ReplicaManifest::Entry& entry = manifest.replicas[r];
    const std::string replica = "replica " + std::to_string(r);
    const std::string what = replica + " entry";
    uint8_t kind = 0;
    WEAVESS_RETURN_IF_ERROR(body.U8(what, &kind));
    if (kind > static_cast<uint8_t>(ReplicaManifest::Kind::kShardManifest)) {
      return CorruptionAt(body.FileOffset() - 1,
                          replica + " has unknown source kind " +
                              std::to_string(kind));
    }
    entry.kind = static_cast<ReplicaManifest::Kind>(kind);
    WEAVESS_RETURN_IF_ERROR(body.String(what, &entry.path));
    if (entry.path.empty()) {
      return CorruptionAt(body.FileOffset(), replica + " has an empty path");
    }
    WEAVESS_RETURN_IF_ERROR(body.U32(what, &entry.file_crc32c));
  }
  if (body.remaining() != 0) {
    return CorruptionAt(body.FileOffset(),
                        std::to_string(body.remaining()) +
                            " trailing bytes after the last replica entry");
  }
  return manifest;
}

Status SaveReplicaManifest(const ReplicaManifest& manifest,
                           const std::string& path) {
  return WriteStringToFile(SerializeReplicaManifest(manifest), path);
}

StatusOr<ReplicaManifest> LoadReplicaManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeReplicaManifest(bytes);
}

}  // namespace weavess
