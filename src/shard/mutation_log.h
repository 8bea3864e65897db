// Write-ahead mutation log and generational manifest for the mutable
// sharded index (docs/MUTATION.md). The WAL is the single durable source
// of truth: every Add/Remove/Compact appends one CRC32C-framed record, and
// a kCommit record seals a generation. Recovery replays the log, truncates
// a torn or corrupt tail cleanly at the last valid frame, and rolls state
// back to the last commit — so a process killed anywhere restores a
// consistent generation, never a half-applied batch.
//
// File layout (shared framing of core/binary_format.h):
//
//   [ 0.. 8)  magic "WVSSWAL1"
//   [ 8..12)  u32 format version (currently 1)
//   [12..16)  u32 vector dimension
//   [16..20)  u32 CRC32C of bytes [0..16)             — header
//   then, per record (a "frame"):
//   [ +0..+4) u32 payload length
//   [ +4..+8) u32 CRC32C of the payload bytes
//   [ +8.. )  payload: u8 kind, then per kind:
//             kAdd     u32 global id, dim * f32 vector
//             kRemove  u32 global id
//             kCompact u32 shard
//             kCommit  u64 generation, u32 next global id
//
// The companion generation manifest ("WVSSGEN1", written atomically via
// temp + rename at every commit) records the committed generation and the
// index geometry so an Open can validate its configuration before replay.
#ifndef WEAVESS_SHARD_MUTATION_LOG_H_
#define WEAVESS_SHARD_MUTATION_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace weavess {

inline constexpr char kWalMagic[8] = {'W', 'V', 'S', 'S', 'W', 'A', 'L', '1'};
inline constexpr uint32_t kWalFormatVersion = 1;
/// Fixed prologue: magic + version + dim + header CRC.
inline constexpr size_t kWalHeaderBytes = 20;
/// Frame prologue: payload length + payload CRC.
inline constexpr size_t kWalFrameBytes = 8;
/// Upper bound on one record's payload; anything larger is corruption.
inline constexpr uint32_t kMaxWalPayloadBytes = 1u << 24;

enum class MutationKind : uint8_t {
  kAdd = 1,
  kRemove = 2,
  kCompact = 3,
  kCommit = 4,
};

struct MutationRecord {
  MutationKind kind = MutationKind::kAdd;
  /// kAdd/kRemove: global id. kCompact: shard number.
  uint32_t id = 0;
  /// kCommit only.
  uint64_t generation = 0;
  uint32_t next_id = 0;
  /// kAdd only: exactly dim floats.
  std::vector<float> vector;
};

/// The WAL header for a log over `dim`-dimensional vectors.
std::string SerializeWalHeader(uint32_t dim);

/// One framed record (length + CRC + payload), ready to append.
std::string SerializeWalRecord(const MutationRecord& record);

/// Result of replaying a log image. `records` holds the committed prefix
/// only: every record up to and including the last valid kCommit frame.
/// Anything after it — valid-but-uncommitted records, a torn frame, or a
/// corrupt tail — is reported, not applied.
struct WalReplay {
  std::vector<MutationRecord> records;
  /// Generation and id watermark of the last commit (0 / 0 when the log
  /// holds no committed batch).
  uint64_t generation = 0;
  uint32_t next_id = 0;
  /// Byte length of the committed prefix (header + frames through the last
  /// kCommit). Recovery rewrites the log to exactly this prefix.
  size_t committed_bytes = 0;
  /// Byte length of the valid prefix (>= committed_bytes).
  size_t valid_bytes = 0;
  /// True when bytes beyond valid_bytes were dropped (torn/corrupt tail).
  bool truncated_tail = false;
  /// Valid records after the last commit, rolled back by recovery.
  size_t rolled_back_records = 0;
};

/// Replays a WAL image. A missing/empty/torn *header* yields an empty
/// replay (nothing was ever committed); a wrong dimension in a valid
/// header is kInvalidArgument — that is a configuration error, not a
/// crash artifact.
StatusOr<WalReplay> ReplayMutationLog(std::string_view bytes, uint32_t dim);

// ------------------------------------------------- generation manifest

inline constexpr char kGenManifestMagic[8] = {'W', 'V', 'S', 'S',
                                              'G', 'E', 'N', '1'};
inline constexpr uint32_t kGenManifestVersion = 1;
/// magic + version + dim + num_shards + generation + next_id + seed + CRC.
inline constexpr size_t kGenManifestBytes = 8 + 4 + 4 + 4 + 8 + 4 + 8 + 4;

/// Root descriptor of a mutable index checkpoint: geometry + the last
/// committed generation. Advisory — recovery trusts the WAL — but lets
/// Open reject a mismatched configuration before replaying anything.
struct GenerationManifest {
  uint32_t dim = 0;
  uint32_t num_shards = 0;
  uint64_t generation = 0;
  uint32_t next_id = 0;
  uint64_t seed = 0;
};

std::string SerializeGenerationManifest(const GenerationManifest& manifest);
StatusOr<GenerationManifest> DeserializeGenerationManifest(
    std::string_view bytes);

/// Writes the manifest atomically: serialize to `path`.tmp, then rename
/// over `path`, so a crash leaves either the old or the new manifest,
/// never a torn one.
Status SaveGenerationManifest(const GenerationManifest& manifest,
                              const std::string& path);
StatusOr<GenerationManifest> LoadGenerationManifest(const std::string& path);

}  // namespace weavess

#endif  // WEAVESS_SHARD_MUTATION_LOG_H_
