#include "shard/scatter_gather.h"

#include "core/rng.h"

namespace weavess {

uint64_t DeriveShardSeed(uint64_t base_seed, uint32_t shard) {
  // Explicit little-endian bytes: the derived stream is identical across
  // architectures, like the on-disk formats.
  const unsigned char bytes[4] = {
      static_cast<unsigned char>(shard & 0xFF),
      static_cast<unsigned char>((shard >> 8) & 0xFF),
      static_cast<unsigned char>((shard >> 16) & 0xFF),
      static_cast<unsigned char>((shard >> 24) & 0xFF)};
  return HashBytes(bytes, sizeof(bytes), base_seed);
}

uint64_t SplitBudget(uint64_t total, uint32_t shard, uint32_t num_shards) {
  if (total == 0) return 0;
  const uint64_t base = total / num_shards;
  const uint64_t share = base + (shard < total % num_shards ? 1 : 0);
  return share == 0 ? 1 : share;
}

}  // namespace weavess
