#include "core/graph_io.h"

#include <utility>

#include "core/binary_format.h"

namespace weavess {

namespace {

constexpr Prologue kGraphPrologue{
    {kGraphMagic, sizeof(kGraphMagic)}, "graph file", kGraphHeaderBytes,
    kGraphFormatVersion, kGraphFormatVersion,
    ", or a pre-versioning legacy file"};

// Section positions derived from the (validated) header fields.
struct Layout {
  Layout(uint64_t n, uint64_t e, uint64_t m)
      : offsets_len((n + 1) * 8),
        payload_begin(kGraphHeaderBytes + offsets_len + 4),
        payload_len(e * 4),
        metadata_begin(payload_begin + payload_len + 4),
        metadata_len(m),
        total(metadata_begin + metadata_len + 4) {}

  uint64_t offsets_len, payload_begin, payload_len, metadata_begin,
      metadata_len, total;
};

// Shared by DeserializeGraph and VerifyGraphBytes (which passes `sections`):
// validates the whole buffer into `file`, materializing `graph_out` if set.
Status ParseGraph(std::string_view bytes, GraphFileReport* file,
                  std::vector<SectionReport>* sections, CsrGraph* graph_out) {
  WEAVESS_ASSIGN_OR_RETURN(
      ByteCursor header,
      CheckPrologue(bytes, kGraphPrologue, &file->version, sections));
  uint32_t metadata_len = 0;
  WEAVESS_RETURN_IF_ERROR(header.U32("num_vertices", &file->num_vertices));
  WEAVESS_RETURN_IF_ERROR(header.U64("num_edges", &file->num_edges));
  WEAVESS_RETURN_IF_ERROR(header.U32("metadata length", &metadata_len));
  const uint32_t n = file->num_vertices;
  const uint64_t e = file->num_edges;
  if (metadata_len > kMaxGraphMetadataBytes) {
    return CorruptionAt(24, "metadata length " +
                                std::to_string(metadata_len) +
                                " exceeds the " +
                                std::to_string(kMaxGraphMetadataBytes) +
                                "-byte cap");
  }

  // Overflow guard: the payload alone must fit in the file before any
  // e * 4 arithmetic happens (a hostile u64 edge count must not wrap the
  // expected-size computation into a plausible value).
  if (e > bytes.size() / 4) {
    return CorruptionAt(16, "edge count " + std::to_string(e) +
                                " cannot fit in a " +
                                std::to_string(bytes.size()) + "-byte file");
  }
  const Layout layout(n, e, metadata_len);
  if (layout.total != bytes.size()) {
    return Status::Corruption(
        "file size mismatch: header promises " +
        std::to_string(layout.total) + " bytes (" + std::to_string(n) +
        " vertices, " + std::to_string(e) + " edges, " +
        std::to_string(metadata_len) + " metadata bytes), file has " +
        std::to_string(bytes.size()));
  }
  WEAVESS_RETURN_IF_ERROR(CheckSections(
      bytes,
      {{"offsets", kGraphHeaderBytes, layout.offsets_len},
       {"payload", layout.payload_begin, layout.payload_len},
       {"metadata", layout.metadata_begin, layout.metadata_len}},
      sections));

  // Offset table: offsets[0] == 0, non-decreasing, offsets[n] == num_edges.
  // The checked arrays become the graph as they are.
  std::vector<uint64_t> offsets(uint64_t{n} + 1);
  for (uint64_t v = 0; v <= n; ++v) {
    offsets[v] = LoadU64(bytes.data() + kGraphHeaderBytes + v * 8);
  }
  if (offsets[0] != 0) {
    return CorruptionAt(kGraphHeaderBytes,
                        "adjacency offsets must start at 0, found " +
                            std::to_string(offsets[0]));
  }
  for (uint64_t v = 1; v <= n; ++v) {
    if (offsets[v] < offsets[v - 1]) {
      return CorruptionAt(kGraphHeaderBytes + v * 8,
                          "adjacency offsets decrease (" +
                              std::to_string(offsets[v]) + " after " +
                              std::to_string(offsets[v - 1]) + ")");
    }
  }
  if (offsets[n] != e) {
    return CorruptionAt(kGraphHeaderBytes + static_cast<uint64_t>(n) * 8,
                        "adjacency offsets end at " +
                            std::to_string(offsets[n]) +
                            " but the header promises " + std::to_string(e) +
                            " edges");
  }

  // Payload: every neighbor id must be a valid vertex.
  std::vector<uint32_t> ids(e);
  for (uint64_t i = 0; i < e; ++i) {
    ids[i] = LoadU32(bytes.data() + layout.payload_begin + i * 4);
    if (ids[i] >= n) {
      return CorruptionAt(layout.payload_begin + i * 4,
                          "neighbor id " + std::to_string(ids[i]) +
                              " out of range for " + std::to_string(n) +
                              " vertices");
    }
  }

  file->metadata.assign(bytes.data() + layout.metadata_begin,
                        layout.metadata_len);

  if (graph_out != nullptr) {
    *graph_out = CsrGraph(std::move(offsets), std::move(ids));
  }
  return Status::OK();
}

}  // namespace

std::string SerializeGraph(const CsrGraph& graph, std::string_view metadata) {
  WEAVESS_CHECK(metadata.size() <= kMaxGraphMetadataBytes);
  const uint32_t n = graph.size();
  const uint64_t e = graph.NumEdges();
  const Layout layout(n, e, metadata.size());

  ByteWriter out(layout.total);
  out.Bytes(kGraphPrologue.magic);
  out.U32(kGraphFormatVersion);
  out.U32(n);
  out.U64(e);
  out.U32(static_cast<uint32_t>(metadata.size()));
  out.Crc32cSince(0);

  uint64_t running = 0;
  out.U64(running);
  for (uint32_t v = 0; v < n; ++v) {
    running += graph.Neighbors(v).size();
    out.U64(running);
  }
  out.Crc32cSince(kGraphHeaderBytes);

  for (uint32_t v = 0; v < n; ++v) {
    for (uint32_t id : graph.Neighbors(v)) out.U32(id);
  }
  out.Crc32cSince(layout.payload_begin);

  out.Bytes(metadata);
  out.Crc32cSince(layout.metadata_begin);

  WEAVESS_CHECK(out.size() == layout.total);
  return out.Release();
}

StatusOr<CsrGraph> DeserializeGraph(std::string_view bytes,
                                    std::string* metadata) {
  GraphFileReport file;
  CsrGraph graph;
  WEAVESS_RETURN_IF_ERROR(ParseGraph(bytes, &file, nullptr, &graph));
  if (metadata != nullptr) *metadata = std::move(file.metadata);
  return graph;
}

Status SaveGraphToWriter(const CsrGraph& graph, std::string_view metadata,
                         Writer& writer) {
  const std::string bytes = SerializeGraph(graph, metadata);
  WEAVESS_RETURN_IF_ERROR(writer.Append(bytes.data(), bytes.size()));
  return writer.Close();
}

StatusOr<CsrGraph> LoadGraphFromReader(Reader& reader,
                                       std::string* metadata) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadAll(reader, &bytes));
  return DeserializeGraph(bytes, metadata);
}

Status SaveGraph(const CsrGraph& graph, const std::string& path,
                 std::string_view metadata) {
  return WriteStringToFile(SerializeGraph(graph, metadata), path);
}

StatusOr<CsrGraph> LoadGraph(const std::string& path, std::string* metadata) {
  std::string bytes;
  WEAVESS_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  return DeserializeGraph(bytes, metadata);
}

StatusOr<CsrGraph> LoadGraphForRows(const std::string& path,
                                    uint32_t num_rows, std::string* metadata) {
  WEAVESS_ASSIGN_OR_RETURN(CsrGraph graph, LoadGraph(path, metadata));
  if (graph.size() != num_rows) {
    return Status::Corruption("vertex-count mismatch: graph has " +
                              std::to_string(graph.size()) +
                              " vertices for " + std::to_string(num_rows) +
                              " rows");
  }
  return graph;
}

GraphFileReport VerifyGraphBytes(std::string_view bytes) {
  GraphFileReport report;
  report.status = ParseGraph(bytes, &report, &report.sections, nullptr);
  return report;
}

GraphFileReport VerifyGraphFile(const std::string& path) {
  std::string bytes;
  GraphFileReport unread;
  unread.status = ReadFileToString(path, &bytes);
  return unread.status.ok() ? VerifyGraphBytes(bytes) : unread;
}

}  // namespace weavess
