#include "core/binary_format.h"

#include <cstdio>

#include "core/crc32c.h"

namespace weavess {

namespace {

std::string CrcMismatch(uint32_t stored, uint32_t computed) {
  char buf[64];
  std::snprintf(buf, sizeof(buf),
                "CRC mismatch: stored 0x%08x, computed 0x%08x", stored,
                computed);
  return buf;
}

}  // namespace

Status CorruptionAt(uint64_t byte_offset, const std::string& what) {
  return Status::Corruption(what + " at byte offset " +
                            std::to_string(byte_offset));
}

void ByteWriter::Crc32cSince(size_t begin) {
  U32(Crc32c(bytes_.data() + begin, bytes_.size() - begin));
}

Status ByteCursor::Bytes(uint64_t n, std::string_view what,
                         std::string_view* out) {
  if (remaining() < n) {
    return CorruptionAt(FileOffset(), "truncated reading " + std::string(what));
  }
  *out = bytes_.substr(pos_, n);
  pos_ += n;
  return Status::OK();
}

template <typename T>
Status ByteCursor::Scalar(std::string_view what, T (*load)(const char*),
                          T* out) {
  std::string_view b;
  WEAVESS_RETURN_IF_ERROR(Bytes(sizeof(T), what, &b));
  *out = load(b.data());
  return Status::OK();
}

Status ByteCursor::U8(std::string_view what, uint8_t* out) {
  return Scalar<uint8_t>(
      what, [](const char* p) { return static_cast<uint8_t>(*p); }, out);
}
Status ByteCursor::U32(std::string_view what, uint32_t* out) {
  return Scalar(what, LoadU32, out);
}
Status ByteCursor::U64(std::string_view what, uint64_t* out) {
  return Scalar(what, LoadU64, out);
}
Status ByteCursor::F32(std::string_view what, float* out) {
  return Scalar(what, LoadF32, out);
}

Status ByteCursor::String(std::string_view what, std::string* out) {
  uint32_t len = 0;
  std::string_view b;
  WEAVESS_RETURN_IF_ERROR(U32(what, &len));
  WEAVESS_RETURN_IF_ERROR(Bytes(len, what, &b));
  out->assign(b);
  return Status::OK();
}

Status ByteCursor::CheckCount(uint64_t count, uint64_t min_entry_bytes,
                              std::string_view what) const {
  if (count <= remaining() / min_entry_bytes) return Status::OK();
  return CorruptionAt(FileOffset(), std::string(what) + " count " +
                                        std::to_string(count) +
                                        " cannot fit in the " +
                                        std::to_string(remaining()) +
                                        " bytes left");
}

StatusOr<ByteCursor> CheckPrologue(std::string_view bytes,
                                   const Prologue& prologue, uint32_t* version,
                                   std::vector<SectionReport>* report) {
  const size_t header = prologue.header_bytes;
  if (bytes.size() < header) {
    return Status::Corruption("file too small: " +
                              std::to_string(bytes.size()) + " bytes, a " +
                              prologue.name + " needs at least " +
                              std::to_string(header));
  }
  if (!bytes.starts_with(prologue.magic)) {
    return CorruptionAt(0, std::string("bad magic (not a weavess ") +
                               prologue.name + prologue.magic_hint + ")");
  }
  const uint32_t stored_crc = LoadU32(bytes.data() + header - 4);
  const uint32_t computed_crc = Crc32c(bytes.data(), header - 4);
  if (report != nullptr) {
    report->push_back({"header", 0, header - 4, stored_crc, computed_crc,
                       stored_crc == computed_crc});
  }
  if (stored_crc != computed_crc) {
    return CorruptionAt(header - 4,
                        "header " + CrcMismatch(stored_crc, computed_crc));
  }
  const size_t fields = prologue.magic.size() + 4;
  const uint32_t stored_version = LoadU32(bytes.data() + fields - 4);
  if (stored_version < prologue.min_version ||
      stored_version > prologue.max_version) {
    const std::string range =
        prologue.min_version == prologue.max_version
            ? "version "
            : "versions " + std::to_string(prologue.min_version) + "..";
    return Status::NotSupported(
        std::string(prologue.name) + " format version " +
        std::to_string(stored_version) + "; this build reads " + range +
        std::to_string(prologue.max_version));
  }
  if (version != nullptr) *version = stored_version;
  return ByteCursor(bytes.substr(fields, header - 4 - fields), fields);
}

Status CheckSections(std::string_view bytes,
                     std::initializer_list<Section> sections,
                     std::vector<SectionReport>* report) {
  Status first;
  for (const Section& section : sections) {
    const uint64_t end = section.begin + section.length;
    if (end < section.begin || end > bytes.size() || bytes.size() - end < 4) {
      return CorruptionAt(section.begin, std::string(section.name) +
                                             " section runs past the end");
    }
    const uint32_t stored_crc = LoadU32(bytes.data() + end);
    const uint32_t computed_crc =
        Crc32c(bytes.data() + section.begin, section.length);
    if (report != nullptr) {
      report->push_back({section.name, section.begin, section.length,
                         stored_crc, computed_crc, stored_crc == computed_crc});
    }
    if (stored_crc != computed_crc && first.ok()) {
      first = CorruptionAt(end, std::string(section.name) + " section " +
                                    CrcMismatch(stored_crc, computed_crc));
      if (report == nullptr) return first;
    }
  }
  return first;
}

StatusOr<ByteCursor> CheckBody(std::string_view bytes, size_t header_bytes,
                               ByteCursor& header, uint32_t max_body_bytes) {
  const uint64_t length_offset = header.FileOffset();
  uint32_t body_len = 0;
  WEAVESS_RETURN_IF_ERROR(header.U32("body length", &body_len));
  if (body_len > max_body_bytes) {
    return CorruptionAt(length_offset,
                        "body length " + std::to_string(body_len) +
                            " exceeds the " + std::to_string(max_body_bytes) +
                            "-byte cap");
  }
  const uint64_t expected = header_bytes + uint64_t{body_len} + 4;
  if (bytes.size() != expected) {
    return Status::Corruption(
        "file size mismatch: header promises " + std::to_string(expected) +
        " bytes, file has " + std::to_string(bytes.size()));
  }
  WEAVESS_RETURN_IF_ERROR(
      CheckSections(bytes, {{"body", header_bytes, body_len}}));
  return ByteCursor(bytes.substr(header_bytes, body_len), header_bytes);
}

}  // namespace weavess
