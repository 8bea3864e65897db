// Versioned, checksummed on-disk format for SQ8 quantized codes, the
// sibling of the WVSGRPH1 graph format (core/graph_io.h). Full layout in
// docs/QUANTIZATION.md; in brief (shared framing of core/binary_format.h):
//
//   [ 0..8)   magic "WVSSQNT1"
//   [ 8..12)  u32 format version (currently 1)
//   [12..16)  u32 num code rows
//   [16..20)  u32 dim
//   [20..24)  u32 code row stride in bytes (dim padded to 64)
//   [24..28)  u32 CRC32C of bytes [0..24)            — header section
//   then      dim f32 per-dimension mins,            u32 CRC
//   then      dim f32 per-dimension scales,          u32 CRC
//   then      num * stride u8 code rows,             u32 CRC
//
// Every section is independently CRC32C-protected; Load never aborts and
// never returns silently wrong codes — any mismatch yields
// Status::Corruption with a byte-offset diagnostic. Serving treats corrupt
// codes as a degradation, not a failure: the shard falls back to float
// traversal (search/serving.h).
#ifndef WEAVESS_QUANT_QUANT_IO_H_
#define WEAVESS_QUANT_QUANT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_format.h"
#include "core/file_io.h"
#include "core/status.h"
#include "quant/sq8.h"

namespace weavess {

inline constexpr char kQuantizedMagic[8] = {'W', 'V', 'S', 'S', 'Q', 'N',
                                            'T', '1'};
inline constexpr uint32_t kQuantizedFormatVersion = 1;
/// Fixed prologue: magic + version + counts + stride + header CRC.
inline constexpr size_t kQuantizedHeaderBytes = 28;
/// Upper bound on dim; anything larger is corruption, and it keeps every
/// size computation far from u64 overflow.
inline constexpr uint32_t kMaxQuantizedDim = 1u << 16;

/// True when `bytes` begins with the WVSSQNT1 magic — how the CLI verify
/// subcommand sniffs file kinds.
bool IsQuantizedBytes(std::string_view bytes);

/// Serializes the code matrix + dequantization arrays into the format
/// above.
std::string SerializeQuantized(const QuantizedDataset& codes);

/// Parses serialized codes, validating magic, version, stride consistency,
/// and every CRC.
StatusOr<QuantizedDataset> DeserializeQuantized(std::string_view bytes);

/// Streams the serialized form through `writer` (fault-injectable).
Status SaveQuantizedToWriter(const QuantizedDataset& codes, Writer& writer);

/// Reads full serialized codes from `reader` (short reads are handled).
StatusOr<QuantizedDataset> LoadQuantizedFromReader(Reader& reader);

Status SaveQuantized(const QuantizedDataset& codes, const std::string& path);
StatusOr<QuantizedDataset> LoadQuantized(const std::string& path);

/// Whole-file verification result for `weavess_cli verify`.
struct QuantFileReport {
  Status status;  // overall verdict (OK only if every check passed)
  uint32_t version = 0;
  uint32_t num = 0;
  uint32_t dim = 0;
  uint32_t code_stride = 0;
  std::vector<SectionReport> sections;
};

/// Checks magic/version/CRCs without materializing the codes; reports every
/// section it could locate even when earlier ones fail.
QuantFileReport VerifyQuantizedBytes(std::string_view bytes);
QuantFileReport VerifyQuantizedFile(const std::string& path);

}  // namespace weavess

#endif  // WEAVESS_QUANT_QUANT_IO_H_
