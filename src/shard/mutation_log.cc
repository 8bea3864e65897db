#include "shard/mutation_log.h"

#include <cstdio>

#include "core/binary_format.h"
#include "core/check.h"
#include "core/crc32c.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kWalPrologue{{kWalMagic, sizeof(kWalMagic)},
                                "mutation log", kWalHeaderBytes,
                                kWalFormatVersion, kWalFormatVersion};

// The whole generation manifest is its prologue: the CRC seals every field.
constexpr Prologue kGenManifestPrologue{
    {kGenManifestMagic, sizeof(kGenManifestMagic)}, "generation manifest",
    kGenManifestBytes, kGenManifestVersion, kGenManifestVersion};

/// Reads the next frame into `record`. False = torn, corrupt, or
/// structurally invalid (unknown kind, payload size off for its kind) —
/// all alike end the valid prefix of the log before this frame.
bool ReadFrame(ByteCursor& log, uint32_t dim, MutationRecord* record) {
  uint32_t payload_len = 0;
  uint32_t crc = 0;
  std::string_view payload;
  if (!log.U32("frame length", &payload_len).ok() ||
      payload_len > kMaxWalPayloadBytes ||
      !log.U32("frame CRC", &crc).ok() ||
      !log.Bytes(payload_len, "frame payload", &payload).ok() ||
      crc != Crc32c(payload.data(), payload.size())) {
    return false;
  }
  ByteCursor in(payload);
  uint8_t kind = 0;
  std::string_view vector;
  bool ok = in.U8("kind", &kind).ok();
  record->kind = static_cast<MutationKind>(kind);
  switch (record->kind) {
    case MutationKind::kAdd:
      ok = ok && in.U32("id", &record->id).ok() &&
           in.Bytes(uint64_t{dim} * 4, "vector", &vector).ok();
      break;
    case MutationKind::kRemove:
    case MutationKind::kCompact:
      ok = ok && in.U32("id", &record->id).ok();
      break;
    case MutationKind::kCommit:
      ok = ok && in.U64("generation", &record->generation).ok() &&
           in.U32("next id", &record->next_id).ok();
      break;
    default:
      return false;
  }
  if (!ok || in.remaining() != 0) return false;
  record->vector.resize(vector.size() / 4);
  for (size_t d = 0; d < record->vector.size(); ++d) {
    record->vector[d] = LoadF32(vector.data() + d * 4);
  }
  return true;
}

}  // namespace

std::string SerializeWalHeader(uint32_t dim) {
  ByteWriter out(kWalHeaderBytes);
  out.Bytes(kWalPrologue.magic);
  out.U32(kWalFormatVersion);
  out.U32(dim);
  out.Crc32cSince(0);
  return out.Release();
}

std::string SerializeWalRecord(const MutationRecord& record) {
  ByteWriter payload;
  payload.U8(static_cast<uint8_t>(record.kind));
  switch (record.kind) {
    case MutationKind::kAdd:
      payload.U32(record.id);
      for (float v : record.vector) payload.F32(v);
      break;
    case MutationKind::kRemove:
    case MutationKind::kCompact:
      payload.U32(record.id);
      break;
    case MutationKind::kCommit:
      payload.U64(record.generation);
      payload.U32(record.next_id);
      break;
  }
  WEAVESS_CHECK(payload.size() <= kMaxWalPayloadBytes);
  ByteWriter out(kWalFrameBytes + payload.size());
  out.U32(static_cast<uint32_t>(payload.size()));
  out.U32(Crc32c(payload.bytes().data(), payload.size()));
  out.Bytes(payload.bytes());
  return out.Release();
}

StatusOr<WalReplay> ReplayMutationLog(std::string_view bytes, uint32_t dim) {
  WalReplay replay;
  StatusOr<ByteCursor> header = CheckPrologue(bytes, kWalPrologue);
  if (!header.ok()) {
    // A short or torn header means nothing was ever committed: recover to
    // the empty state (the caller rewrites a fresh header).
    if (!header.status().IsCorruption()) return header.status();
    replay.truncated_tail = !bytes.empty();
    return replay;
  }
  uint32_t stored_dim = 0;
  WEAVESS_RETURN_IF_ERROR(header->U32("dim", &stored_dim));
  if (stored_dim != dim) {
    return Status::InvalidArgument(
        "mutation log is over " + std::to_string(stored_dim) +
        "-dimensional vectors, index expects " + std::to_string(dim));
  }

  std::vector<MutationRecord> records;
  size_t committed_records = 0;
  replay.committed_bytes = kWalHeaderBytes;  // empty log commits nothing
  replay.valid_bytes = kWalHeaderBytes;
  ByteCursor log(bytes.substr(kWalHeaderBytes), kWalHeaderBytes);
  for (MutationRecord record; ReadFrame(log, dim, &record);
       record = MutationRecord()) {
    replay.valid_bytes = log.FileOffset();
    const bool is_commit = record.kind == MutationKind::kCommit;
    if (is_commit) {
      replay.generation = record.generation;
      replay.next_id = record.next_id;
    }
    records.push_back(std::move(record));
    if (is_commit) {
      committed_records = records.size();
      replay.committed_bytes = replay.valid_bytes;
    }
  }
  replay.truncated_tail = replay.valid_bytes != bytes.size();
  replay.rolled_back_records = records.size() - committed_records;
  records.resize(committed_records);
  replay.records = std::move(records);
  return replay;
}

// ------------------------------------------------- generation manifest

std::string SerializeGenerationManifest(const GenerationManifest& manifest) {
  ByteWriter out(kGenManifestBytes);
  out.Bytes(kGenManifestPrologue.magic);
  out.U32(kGenManifestVersion);
  out.U32(manifest.dim);
  out.U32(manifest.num_shards);
  out.U64(manifest.generation);
  out.U32(manifest.next_id);
  out.U64(manifest.seed);
  out.Crc32cSince(0);
  WEAVESS_CHECK(out.size() == kGenManifestBytes);
  return out.Release();
}

StatusOr<GenerationManifest> DeserializeGenerationManifest(
    std::string_view bytes) {
  // Fixed-size format: anything but the exact size is corruption, checked
  // before the prologue so a grown file is never read as a valid one.
  if (bytes.size() != kGenManifestBytes) {
    return Status::Corruption(
        "generation manifest is " + std::to_string(bytes.size()) +
        " bytes, expected " + std::to_string(kGenManifestBytes));
  }
  WEAVESS_ASSIGN_OR_RETURN(ByteCursor fields,
                           CheckPrologue(bytes, kGenManifestPrologue));
  GenerationManifest manifest;
  WEAVESS_RETURN_IF_ERROR(fields.U32("dim", &manifest.dim));
  WEAVESS_RETURN_IF_ERROR(fields.U32("num_shards", &manifest.num_shards));
  WEAVESS_RETURN_IF_ERROR(fields.U64("generation", &manifest.generation));
  WEAVESS_RETURN_IF_ERROR(fields.U32("next_id", &manifest.next_id));
  WEAVESS_RETURN_IF_ERROR(fields.U64("seed", &manifest.seed));
  return manifest;
}

Status SaveGenerationManifest(const GenerationManifest& manifest,
                              const std::string& path) {
  const std::string tmp = path + ".tmp";
  WEAVESS_RETURN_IF_ERROR(
      WriteStringToFile(SerializeGenerationManifest(manifest), tmp));
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IOError("cannot rename '" + tmp + "' over '" + path + "'");
  }
  return Status::OK();
}

StatusOr<GenerationManifest> LoadGenerationManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeGenerationManifest(bytes);
}

}  // namespace weavess
