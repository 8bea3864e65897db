// Tests for the flattened adjacency layouts (Appendix I substrate).
#include <gtest/gtest.h>

#include "core/flat_graph.h"
#include "core/graph.h"

namespace weavess {
namespace {

Graph MakeGraph() {
  Graph graph(4);
  graph.AddEdge(0, 1);
  graph.AddEdge(0, 2);
  graph.AddEdge(0, 3);
  graph.AddEdge(2, 0);
  // vertex 1 and 3 have empty lists
  return graph;
}

TEST(CsrGraphTest, PreservesAdjacency) {
  const Graph graph = MakeGraph();
  const CsrGraph csr(graph);
  ASSERT_EQ(csr.size(), graph.size());
  for (uint32_t v = 0; v < graph.size(); ++v) {
    const auto span = csr.Neighbors(v);
    const auto& expected = graph.Neighbors(v);
    ASSERT_EQ(span.size(), expected.size()) << v;
    for (size_t i = 0; i < span.size(); ++i) EXPECT_EQ(span[i], expected[i]);
  }
}

TEST(CsrGraphTest, MemoryIsCompact) {
  const Graph graph = MakeGraph();
  const CsrGraph csr(graph);
  // 5 offsets * 8 bytes + 4 ids * 4 bytes.
  EXPECT_EQ(csr.MemoryBytes(), 5 * sizeof(uint64_t) + 4 * sizeof(uint32_t));
}

TEST(CsrGraphTest, AdoptsOffsetsAndIds) {
  const CsrGraph adopted({0, 3, 3, 4, 4}, {1, 2, 3, 0});
  EXPECT_EQ(adopted, CsrGraph(MakeGraph()));
  EXPECT_EQ(adopted.size(), 4u);
  EXPECT_EQ(adopted.NumEdges(), 4u);
  EXPECT_FALSE(adopted == CsrGraph({0, 3, 3, 3, 4}, {1, 2, 3, 0}));
}

TEST(CsrGraphTest, ZeroVerticesHoldNothing) {
  // However a zero-vertex graph is made, it compares equal and owns no
  // bytes, so resetting an index's graph to CsrGraph() is free.
  const CsrGraph empty;
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.MemoryBytes(), 0u);
  EXPECT_EQ(CsrGraph(Graph(0)), empty);
  EXPECT_EQ(CsrGraph({0}, {}), empty);
}

TEST(CsrGraphDeathTest, RejectsBrokenOffsets) {
  const char* failed = "WEAVESS_CHECK failed";
  EXPECT_DEATH(CsrGraph({}, {}), failed);             // no offset table
  EXPECT_DEATH(CsrGraph({1, 1}, {0}), failed);        // starts past 0
  EXPECT_DEATH(CsrGraph({0, 2, 1}, {0, 1}), failed);  // decreases
  EXPECT_DEATH(CsrGraph({0, 1}, {0, 1}), failed);     // ends short
}

TEST(AlignedGraphTest, StrideIsMaxDegreeAndPadded) {
  const AlignedGraph aligned{CsrGraph(MakeGraph())};
  EXPECT_EQ(aligned.stride(), 3u);
  const uint32_t* row0 = aligned.Slots(0);
  EXPECT_EQ(row0[0], 1u);
  EXPECT_EQ(row0[1], 2u);
  EXPECT_EQ(row0[2], 3u);
  const uint32_t* row1 = aligned.Slots(1);
  EXPECT_EQ(row1[0], AlignedGraph::kInvalid);
  const uint32_t* row2 = aligned.Slots(2);
  EXPECT_EQ(row2[0], 0u);
  EXPECT_EQ(row2[1], AlignedGraph::kInvalid);
}

TEST(AlignedGraphTest, MemoryPaysForPadding) {
  const CsrGraph csr(MakeGraph());
  const AlignedGraph aligned(csr);
  EXPECT_EQ(aligned.MemoryBytes(), 4u * 3u * sizeof(uint32_t));
  // Hubby graphs pad more than CSR stores.
  EXPECT_GT(aligned.MemoryBytes(), csr.MemoryBytes() - 5 * sizeof(uint64_t));
}

}  // namespace
}  // namespace weavess
