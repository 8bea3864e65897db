// The one binary-format layer behind every on-disk file: little-endian
// scalars, a magic + version + CRC32C prologue, CRC-trailed sections, and
// bounds-checked reads of untrusted bytes. Format modules state only their
// layout and policy. Specified in docs/PERSISTENCE.md, "Shared framing".
#ifndef WEAVESS_CORE_BINARY_FORMAT_H_
#define WEAVESS_CORE_BINARY_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace weavess {

/// kCorruption whose message ends with the absolute file offset of the
/// failed check — the diagnostic shape every reader uses.
Status CorruptionAt(uint64_t byte_offset, const std::string& what);

/// Unchecked little-endian loads, for spans already bounded by a
/// ByteCursor or an exact size check (bulk arrays such as adjacency lists).
inline uint32_t LoadU32(const char* p) {
  const auto* b = reinterpret_cast<const uint8_t*>(p);
  return static_cast<uint32_t>(b[0]) | static_cast<uint32_t>(b[1]) << 8 |
         static_cast<uint32_t>(b[2]) << 16 | static_cast<uint32_t>(b[3]) << 24;
}
inline uint64_t LoadU64(const char* p) {
  return static_cast<uint64_t>(LoadU32(p)) |
         static_cast<uint64_t>(LoadU32(p + 4)) << 32;
}
inline float LoadF32(const char* p) {
  const uint32_t bits = LoadU32(p);
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Little-endian serializer into one growing buffer.
class ByteWriter {
 public:
  explicit ByteWriter(size_t reserve = 0) { bytes_.reserve(reserve); }

  void U8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    const char b[4] = {static_cast<char>(v), static_cast<char>(v >> 8),
                       static_cast<char>(v >> 16), static_cast<char>(v >> 24)};
    bytes_.append(b, 4);
  }
  void U64(uint64_t v) {
    U32(static_cast<uint32_t>(v));
    U32(static_cast<uint32_t>(v >> 32));
  }
  void F32(float v) {
    uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    U32(bits);
  }
  /// u32 length, then the bytes.
  void String(std::string_view s) {
    U32(static_cast<uint32_t>(s.size()));
    Bytes(s);
  }
  void Bytes(std::string_view s) { bytes_.append(s.data(), s.size()); }
  /// Appends the CRC32C of every byte written since offset `begin`.
  void Crc32cSince(size_t begin);

  size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string Release() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

/// Bounds-checked little-endian reader over `bytes`, which start at
/// absolute offset `file_offset` of the file. A read that runs out fails
/// with kCorruption naming the field (`what`) and the file offset.
class ByteCursor {
 public:
  explicit ByteCursor(std::string_view bytes, uint64_t file_offset = 0)
      : bytes_(bytes), file_offset_(file_offset) {}

  Status U8(std::string_view what, uint8_t* out);
  Status U32(std::string_view what, uint32_t* out);
  Status U64(std::string_view what, uint64_t* out);
  Status F32(std::string_view what, float* out);
  /// u32 length, then that many bytes.
  Status String(std::string_view what, std::string* out);
  /// The next `n` bytes, as a view into the underlying buffer.
  Status Bytes(uint64_t n, std::string_view what, std::string_view* out);

  /// The count-vs-remaining rule, applied to a count read from the file
  /// before anything is sized by it: `count` entries of at least
  /// `min_entry_bytes` each must fit in the bytes that remain.
  Status CheckCount(uint64_t count, uint64_t min_entry_bytes,
                    std::string_view what) const;

  size_t remaining() const { return bytes_.size() - pos_; }
  /// Absolute file offset of the next unread byte.
  uint64_t FileOffset() const { return file_offset_ + pos_; }

 private:
  template <typename T>
  Status Scalar(std::string_view what, T (*load)(const char*), T* out);

  std::string_view bytes_;
  uint64_t file_offset_;
  size_t pos_ = 0;
};

/// One CRC-protected span, as `weavess_cli verify` prints it.
struct SectionReport {
  std::string name;     // "header", "offsets", "body", ...
  uint64_t offset = 0;  // byte offset of the section's payload
  uint64_t length = 0;  // payload bytes (excluding the trailing CRC)
  uint32_t stored_crc = 0;
  uint32_t computed_crc = 0;
  bool ok = false;
};

/// A format's fixed prologue: magic, u32 version, header fields, and the
/// u32 CRC32C of everything before it — `header_bytes` in all.
struct Prologue {
  std::string_view magic;
  const char* name;  // for diagnostics: "graph file", "shard manifest"
  size_t header_bytes;
  uint32_t min_version;  // versions this build reads
  uint32_t max_version;
  const char* magic_hint = "";  // appended to the bad-magic diagnostic
};

/// Checks size, magic, header CRC, then the version range (kNotSupported;
/// all else is kCorruption), reporting the "header" section if asked. On
/// success stores the version (if asked) and returns a cursor over the
/// header fields after it.
StatusOr<ByteCursor> CheckPrologue(
    std::string_view bytes, const Prologue& prologue,
    uint32_t* version = nullptr, std::vector<SectionReport>* report = nullptr);

/// A span followed by the u32 CRC32C of its bytes.
struct Section {
  const char* name;
  uint64_t begin;
  uint64_t length;
};

/// Verifies each section's trailing CRC32C and returns the first failure.
/// With a report it checks and reports every section instead of stopping.
Status CheckSections(std::string_view bytes,
                     std::initializer_list<Section> sections,
                     std::vector<SectionReport>* report = nullptr);

/// For a prologue ending in a u32 body length, followed by one CRC-trailed
/// body: reads the length from `header`, checks it against the cap, the
/// exact file size, and the body CRC, and returns a cursor over the body.
StatusOr<ByteCursor> CheckBody(std::string_view bytes, size_t header_bytes,
                               ByteCursor& header, uint32_t max_body_bytes);

}  // namespace weavess

#endif  // WEAVESS_CORE_BINARY_FORMAT_H_
