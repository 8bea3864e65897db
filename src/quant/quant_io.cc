#include "quant/quant_io.h"

#include "core/binary_format.h"

namespace weavess {

namespace {

constexpr Prologue kQuantizedPrologue{
    {kQuantizedMagic, sizeof(kQuantizedMagic)}, "quantized-codes file",
    kQuantizedHeaderBytes, kQuantizedFormatVersion, kQuantizedFormatVersion};

// Section positions derived from the (validated) header fields.
struct Layout {
  Layout(uint64_t num, uint64_t dim, uint64_t stride)
      : floats_len(dim * 4),
        scales_begin(kQuantizedHeaderBytes + floats_len + 4),
        codes_begin(scales_begin + floats_len + 4),
        codes_len(num * stride),
        total(codes_begin + codes_len + 4) {}

  uint64_t floats_len;  // dim * 4, shared by mins and scales
  uint64_t scales_begin, codes_begin, codes_len, total;
};

// Shared by DeserializeQuantized and VerifyQuantizedBytes (which passes
// `sections`): validates the whole buffer into `file`, materializing
// `codes_out` if set.
Status ParseQuantized(std::string_view bytes, QuantFileReport* file,
                      std::vector<SectionReport>* sections,
                      QuantizedDataset* codes_out) {
  WEAVESS_ASSIGN_OR_RETURN(
      ByteCursor header,
      CheckPrologue(bytes, kQuantizedPrologue, &file->version, sections));
  WEAVESS_RETURN_IF_ERROR(header.U32("num", &file->num));
  WEAVESS_RETURN_IF_ERROR(header.U32("dim", &file->dim));
  WEAVESS_RETURN_IF_ERROR(header.U32("code stride", &file->code_stride));
  const uint32_t num = file->num;
  const uint32_t dim = file->dim;
  const uint32_t stride = file->code_stride;
  if (dim == 0 || dim > kMaxQuantizedDim) {
    return CorruptionAt(16, "dimension " + std::to_string(dim) +
                                " outside [1, " +
                                std::to_string(kMaxQuantizedDim) + "]");
  }
  if (stride != QuantizedDataset::PaddedStride(dim)) {
    return CorruptionAt(
        20, "code stride " + std::to_string(stride) + " does not match " +
                std::to_string(QuantizedDataset::PaddedStride(dim)) +
                " (dim " + std::to_string(dim) + " padded to alignment)");
  }
  // Overflow guard: the code matrix must fit in the file before any
  // num * stride arithmetic is trusted (stride ≥ 64 once the header
  // validated, so the division is safe).
  if (num > bytes.size() / stride) {
    return CorruptionAt(12, "code count " + std::to_string(num) +
                                " cannot fit in a " +
                                std::to_string(bytes.size()) + "-byte file");
  }
  const Layout layout(num, dim, stride);
  if (layout.total != bytes.size()) {
    return Status::Corruption(
        "file size mismatch: header promises " + std::to_string(layout.total) +
        " bytes (" + std::to_string(num) + " rows of " +
        std::to_string(stride) + " code bytes, dim " + std::to_string(dim) +
        "), file has " + std::to_string(bytes.size()));
  }
  WEAVESS_RETURN_IF_ERROR(
      CheckSections(bytes,
                    {{"mins", kQuantizedHeaderBytes, layout.floats_len},
                     {"scales", layout.scales_begin, layout.floats_len},
                     {"codes", layout.codes_begin, layout.codes_len}},
                    sections));

  // Scales must be non-negative finite reals — a negative or NaN scale
  // would silently invert or poison every distance.
  AlignedFloatVector mins(dim), scales(dim);
  for (uint32_t d = 0; d < dim; ++d) {
    const uint64_t min_pos = kQuantizedHeaderBytes + uint64_t{d} * 4;
    const uint64_t scale_pos = layout.scales_begin + uint64_t{d} * 4;
    mins[d] = LoadF32(bytes.data() + min_pos);
    scales[d] = LoadF32(bytes.data() + scale_pos);
    if (!(scales[d] >= 0.0f) || scales[d] > 3.0e38f) {
      return CorruptionAt(scale_pos, "scale for dimension " +
                                         std::to_string(d) +
                                         " is not a non-negative finite float");
    }
    if (mins[d] != mins[d]) {
      return CorruptionAt(min_pos,
                          "min for dimension " + std::to_string(d) + " is NaN");
    }
  }

  if (codes_out != nullptr) {
    const char* code_bytes = bytes.data() + layout.codes_begin;
    *codes_out = QuantizedDataset(
        num, dim, AlignedByteVector(code_bytes, code_bytes + layout.codes_len),
        std::move(mins), std::move(scales));
  }
  return Status::OK();
}

}  // namespace

bool IsQuantizedBytes(std::string_view bytes) {
  return bytes.starts_with(kQuantizedPrologue.magic);
}

std::string SerializeQuantized(const QuantizedDataset& codes) {
  WEAVESS_CHECK(codes.dim() >= 1 && codes.dim() <= kMaxQuantizedDim &&
                "only non-degenerate code matrices serialize");
  const Layout layout(codes.size(), codes.dim(), codes.code_stride());

  ByteWriter out(layout.total);
  out.Bytes(kQuantizedPrologue.magic);
  out.U32(kQuantizedFormatVersion);
  out.U32(codes.size());
  out.U32(codes.dim());
  out.U32(codes.code_stride());
  out.Crc32cSince(0);

  for (uint32_t d = 0; d < codes.dim(); ++d) out.F32(codes.mins()[d]);
  out.Crc32cSince(kQuantizedHeaderBytes);

  for (uint32_t d = 0; d < codes.dim(); ++d) out.F32(codes.scales()[d]);
  out.Crc32cSince(layout.scales_begin);

  // Codes (padding included — the stride is part of the format).
  out.Bytes({reinterpret_cast<const char*>(codes.CodeBase()),
             codes.raw().size()});
  out.Crc32cSince(layout.codes_begin);

  WEAVESS_CHECK(out.size() == layout.total);
  return out.Release();
}

StatusOr<QuantizedDataset> DeserializeQuantized(std::string_view bytes) {
  QuantFileReport file;
  QuantizedDataset codes;
  WEAVESS_RETURN_IF_ERROR(ParseQuantized(bytes, &file, nullptr, &codes));
  return codes;
}

Status SaveQuantizedToWriter(const QuantizedDataset& codes, Writer& writer) {
  const std::string bytes = SerializeQuantized(codes);
  WEAVESS_RETURN_IF_ERROR(writer.Append(bytes.data(), bytes.size()));
  return writer.Close();
}

StatusOr<QuantizedDataset> LoadQuantizedFromReader(Reader& reader) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadAll(reader, &bytes));
  return DeserializeQuantized(bytes);
}

Status SaveQuantized(const QuantizedDataset& codes, const std::string& path) {
  return WriteStringToFile(SerializeQuantized(codes), path);
}

StatusOr<QuantizedDataset> LoadQuantized(const std::string& path) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeQuantized(bytes);
}

QuantFileReport VerifyQuantizedBytes(std::string_view bytes) {
  QuantFileReport report;
  report.status = ParseQuantized(bytes, &report, &report.sections, nullptr);
  return report;
}

QuantFileReport VerifyQuantizedFile(const std::string& path) {
  std::string bytes;
  QuantFileReport unread;
  unread.status = ReadFileToString(path, &bytes);
  return unread.status.ok() ? VerifyQuantizedBytes(bytes) : unread;
}

}  // namespace weavess
