// Versioned, checksummed on-disk format for graph indexes. Full layout
// specification in docs/PERSISTENCE.md; in brief (everything little-endian):
//
//   [ 0..8)   magic "WVSGRPH1"
//   [ 8..12)  u32 format version (currently 1)
//   [12..16)  u32 num_vertices
//   [16..24)  u64 num_edges (total stored arcs)
//   [24..28)  u32 metadata length in bytes
//   [28..32)  u32 CRC32C of bytes [0..28)            — header section
//   then      (num_vertices + 1) u64 adjacency prefix offsets, u32 CRC
//   then      num_edges u32 neighbor ids,            u32 CRC
//   then      metadata bytes (opaque to the format), u32 CRC
//
// The two arrays are CsrGraph's own (core/flat_graph.h). Every section is
// independently CRC32C-protected; loading never aborts and never returns a
// silently wrong graph — any mismatch yields Status::Corruption with a
// byte-offset diagnostic.
#ifndef WEAVESS_CORE_GRAPH_IO_H_
#define WEAVESS_CORE_GRAPH_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/binary_format.h"
#include "core/file_io.h"
#include "core/flat_graph.h"
#include "core/status.h"

namespace weavess {

inline constexpr char kGraphMagic[8] = {'W', 'V', 'S', 'G', 'R', 'P', 'H',
                                        '1'};
inline constexpr uint32_t kGraphFormatVersion = 1;
/// Fixed prologue: magic + version + counts + metadata length + header CRC.
inline constexpr size_t kGraphHeaderBytes = 32;
/// Upper bound on the metadata section; anything larger is corruption.
inline constexpr uint32_t kMaxGraphMetadataBytes = 1u << 20;

/// Serializes `graph` (plus opaque `metadata`, e.g. the algorithm name and
/// build parameters) into the format above.
std::string SerializeGraph(const CsrGraph& graph,
                           std::string_view metadata = {});

/// Parses a serialized graph, validating magic, version, every CRC, the
/// offset table's monotonicity, and every neighbor id. On success, stores
/// the metadata section into `*metadata` when non-null.
StatusOr<CsrGraph> DeserializeGraph(std::string_view bytes,
                                    std::string* metadata = nullptr);

/// Streams the serialized form through `writer` (fault-injectable).
Status SaveGraphToWriter(const CsrGraph& graph, std::string_view metadata,
                         Writer& writer);

/// Reads a full serialized graph from `reader` (short reads are handled).
StatusOr<CsrGraph> LoadGraphFromReader(Reader& reader,
                                       std::string* metadata = nullptr);

Status SaveGraph(const CsrGraph& graph, const std::string& path,
                 std::string_view metadata = {});
StatusOr<CsrGraph> LoadGraph(const std::string& path,
                             std::string* metadata = nullptr);

/// LoadGraph for a graph over `num_rows` dataset rows: a file whose vertex
/// count disagrees is Corruption, like any other damage.
StatusOr<CsrGraph> LoadGraphForRows(const std::string& path,
                                    uint32_t num_rows,
                                    std::string* metadata = nullptr);

/// Whole-file verification result for `weavess_cli verify`.
struct GraphFileReport {
  Status status;  // overall verdict (OK only if every check passed)
  uint32_t version = 0;
  uint32_t num_vertices = 0;
  uint64_t num_edges = 0;
  std::string metadata;
  std::vector<SectionReport> sections;
};

/// Checks magic/version/CRCs of a graph file without constructing the
/// graph; reports every section it could locate even when earlier ones
/// fail, so the CLI can print a complete diagnosis.
GraphFileReport VerifyGraphFile(const std::string& path);
GraphFileReport VerifyGraphBytes(std::string_view bytes);

}  // namespace weavess

#endif  // WEAVESS_CORE_GRAPH_IO_H_
