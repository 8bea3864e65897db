#include "shard/manifest.h"

#include <utility>

#include "core/binary_format.h"
#include "core/check.h"
#include "core/file_io.h"

namespace weavess {

namespace {

constexpr Prologue kManifestPrologue{
    {kManifestMagic, sizeof(kManifestMagic)}, "shard manifest",
    kManifestHeaderBytes, kMinManifestFormatVersion, kManifestFormatVersion};

}  // namespace

bool IsManifestBytes(std::string_view bytes) {
  return bytes.starts_with(kManifestPrologue.magic);
}

std::string ResolveShardPath(const std::string& manifest_path,
                             const std::string& entry_path) {
  if (!entry_path.empty() && entry_path.front() == '/') return entry_path;
  const size_t slash = manifest_path.find_last_of('/');
  if (slash == std::string::npos) return entry_path;
  return manifest_path.substr(0, slash + 1) + entry_path;
}

std::string SerializeManifest(const ShardManifest& manifest) {
  WEAVESS_CHECK(manifest.shards.size() <= 0xFFFFFFFFu);

  ByteWriter body;
  body.String(manifest.algorithm);
  body.String(manifest.partitioner);
  body.U64(manifest.generation);  // v2 field
  body.U64(manifest.options.seed);
  body.U32(manifest.options.knng_degree);
  body.U32(manifest.options.max_degree);
  body.U32(manifest.options.build_pool);
  body.U32(manifest.options.nn_descent_iters);
  body.U32(manifest.options.num_trees);
  body.U32(manifest.options.num_seeds);
  body.F32(manifest.options.alpha);
  body.F32(manifest.options.angle_degrees);
  for (const ShardManifest::Entry& entry : manifest.shards) {
    body.String(entry.path);
    body.U32(static_cast<uint32_t>(entry.ids.size()));
    for (uint32_t id : entry.ids) body.U32(id);
  }
  WEAVESS_CHECK(body.size() <= kMaxManifestBodyBytes);

  ByteWriter out(kManifestHeaderBytes + body.size() + 4);
  out.Bytes(kManifestPrologue.magic);
  out.U32(kManifestFormatVersion);
  out.U32(static_cast<uint32_t>(manifest.shards.size()));
  out.U32(manifest.total_vertices);
  out.U32(static_cast<uint32_t>(body.size()));
  out.Crc32cSince(0);
  out.Bytes(body.bytes());
  out.Crc32cSince(kManifestHeaderBytes);
  return out.Release();
}

StatusOr<ShardManifest> DeserializeManifest(std::string_view bytes) {
  uint32_t version = 0;
  WEAVESS_ASSIGN_OR_RETURN(ByteCursor header,
                           CheckPrologue(bytes, kManifestPrologue, &version));
  uint32_t num_shards = 0;
  uint32_t total_vertices = 0;
  WEAVESS_RETURN_IF_ERROR(header.U32("num_shards", &num_shards));
  WEAVESS_RETURN_IF_ERROR(header.U32("total_vertices", &total_vertices));
  WEAVESS_ASSIGN_OR_RETURN(
      ByteCursor cursor,
      CheckBody(bytes, kManifestHeaderBytes, header, kMaxManifestBodyBytes));

  ShardManifest manifest;
  manifest.format_version = version;
  manifest.total_vertices = total_vertices;
  WEAVESS_RETURN_IF_ERROR(cursor.String("algorithm", &manifest.algorithm));
  WEAVESS_RETURN_IF_ERROR(
      cursor.String("partitioner", &manifest.partitioner));
  if (version >= 2) {
    WEAVESS_RETURN_IF_ERROR(cursor.U64("generation", &manifest.generation));
  }
  AlgorithmOptions& options = manifest.options;
  WEAVESS_RETURN_IF_ERROR(cursor.U64("seed", &options.seed));
  for (const auto& [what, field] :
       {std::pair{"knng_degree", &options.knng_degree},
        std::pair{"max_degree", &options.max_degree},
        std::pair{"build_pool", &options.build_pool},
        std::pair{"nn_descent_iters", &options.nn_descent_iters},
        std::pair{"num_trees", &options.num_trees},
        std::pair{"num_seeds", &options.num_seeds}}) {
    WEAVESS_RETURN_IF_ERROR(cursor.U32(what, field));
  }
  WEAVESS_RETURN_IF_ERROR(cursor.F32("alpha", &options.alpha));
  WEAVESS_RETURN_IF_ERROR(cursor.F32("angle_degrees", &options.angle_degrees));
  options.num_shards = num_shards;
  options.partitioner = manifest.partitioner;

  // Both header counts size allocations below, so both must fit in the
  // entries that remain: a shard entry holds at least a path length and
  // an id count, and every row appears in exactly one id list.
  WEAVESS_RETURN_IF_ERROR(cursor.CheckCount(num_shards, 8, "shard"));
  WEAVESS_RETURN_IF_ERROR(cursor.CheckCount(total_vertices, 4, "row id"));

  // Disjoint-cover check across all shard id lists: every row of
  // [0, total_vertices) appears exactly once.
  std::vector<bool> seen(total_vertices, false);
  uint64_t covered = 0;
  manifest.shards.resize(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    ShardManifest::Entry& entry = manifest.shards[s];
    const std::string shard = "shard " + std::to_string(s);
    const std::string what = shard + " entry";
    WEAVESS_RETURN_IF_ERROR(cursor.String(what, &entry.path));
    if (entry.path.empty()) {
      return CorruptionAt(cursor.FileOffset(), shard + " has an empty path");
    }
    uint32_t num_ids = 0;
    WEAVESS_RETURN_IF_ERROR(cursor.U32(what, &num_ids));
    WEAVESS_RETURN_IF_ERROR(cursor.CheckCount(num_ids, 4, shard + " id"));
    entry.ids.resize(num_ids);
    for (uint32_t i = 0; i < num_ids; ++i) {
      uint32_t id = 0;
      WEAVESS_RETURN_IF_ERROR(cursor.U32(what, &id));
      if (id >= total_vertices) {
        return CorruptionAt(cursor.FileOffset() - 4,
                            shard + " id " + std::to_string(id) +
                                " out of range for " +
                                std::to_string(total_vertices) + " rows");
      }
      if (seen[id]) {
        return CorruptionAt(cursor.FileOffset() - 4,
                            "row " + std::to_string(id) +
                                " assigned to more than one shard");
      }
      seen[id] = true;
      ++covered;
      entry.ids[i] = id;
    }
  }
  if (cursor.remaining() != 0) {
    return CorruptionAt(cursor.FileOffset(),
                        std::to_string(cursor.remaining()) +
                            " trailing bytes after the last shard entry");
  }
  if (covered != total_vertices) {
    return Status::Corruption(
        "shard id lists cover " + std::to_string(covered) + " of " +
        std::to_string(total_vertices) + " rows");
  }
  return manifest;
}

Status SaveManifest(const ShardManifest& manifest, const std::string& path) {
  return WriteStringToFile(SerializeManifest(manifest), path);
}

StatusOr<ShardManifest> LoadManifest(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeManifest(bytes);
}

}  // namespace weavess
