// Tests for the fvecs / ivecs file format support, including the hardened
// error paths: every malformed input must surface as a Status, never as an
// abort or an unchecked allocation.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/aligned.h"
#include "core/graph.h"
#include "core/graph_io.h"
#include "eval/io.h"
#include "eval/synthetic.h"

namespace weavess {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void WriteRawBytes(const std::string& path, const void* data, size_t n) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, n, file), n);
  std::fclose(file);
}

TEST(IoTest, FvecsRoundTrip) {
  SyntheticSpec spec;
  spec.num_base = 123;
  spec.dim = 17;
  const Dataset original = GenerateSynthetic(spec).base;
  const std::string path = TempPath("roundtrip.fvecs");
  ASSERT_TRUE(WriteFvecs(path, original).ok());
  StatusOr<Dataset> loaded = ReadFvecs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_EQ(loaded->dim(), original.dim());
  EXPECT_EQ(loaded->raw(), original.raw());
  std::remove(path.c_str());
}

TEST(IoTest, FvecsMaxVectorsLimitsRead) {
  SyntheticSpec spec;
  spec.num_base = 50;
  spec.dim = 4;
  const Dataset original = GenerateSynthetic(spec).base;
  const std::string path = TempPath("limited.fvecs");
  ASSERT_TRUE(WriteFvecs(path, original).ok());
  StatusOr<Dataset> loaded = ReadFvecs(path, 7);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 7u);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_FLOAT_EQ(loaded->Row(3)[d], original.Row(3)[d]);
  }
  std::remove(path.c_str());
}

TEST(IoTest, IvecsRoundTrip) {
  GroundTruth truth = {{1, 2, 3}, {9, 8, 7}, {0, 5, 6}};
  const std::string path = TempPath("roundtrip.ivecs");
  ASSERT_TRUE(WriteIvecs(path, truth).ok());
  StatusOr<GroundTruth> loaded = ReadIvecs(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, truth);
  std::remove(path.c_str());
}

TEST(IoTest, IvecsMaxRowsLimitsRead) {
  GroundTruth truth = {{1}, {2}, {3}, {4}};
  const std::string path = TempPath("limited.ivecs");
  ASSERT_TRUE(WriteIvecs(path, truth).ok());
  StatusOr<GroundTruth> loaded = ReadIvecs(path, 2);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ((*loaded)[1], truth[1]);
  std::remove(path.c_str());
}

TEST(IoTest, GraphSaveLoadRoundTrip) {
  Graph built(5);
  built.AddEdge(0, 1);
  built.AddEdge(0, 4);
  built.AddEdge(3, 2);
  // Vertex 1, 2, 4 have empty lists — exercised deliberately.
  const CsrGraph graph(built);
  const std::string path = TempPath("graph.wvs");
  ASSERT_TRUE(SaveGraph(graph, path).ok());
  StatusOr<CsrGraph> loaded = LoadGraph(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, graph);
  std::remove(path.c_str());
}

TEST(IoTest, FvecsFileIsTexmexLayout) {
  // Byte-level check: [int32 dim][dim float32] per record.
  Dataset data(2, 3, {1.5f, 2.5f, 3.5f, -1.0f, 0.0f, 4.0f});
  const std::string path = TempPath("layout.fvecs");
  ASSERT_TRUE(WriteFvecs(path, data).ok());
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  int32_t dim = 0;
  ASSERT_EQ(std::fread(&dim, 4, 1, file), 1u);
  EXPECT_EQ(dim, 3);
  float first = 0.0f;
  ASSERT_EQ(std::fread(&first, 4, 1, file), 1u);
  EXPECT_FLOAT_EQ(first, 1.5f);
  std::fseek(file, 0, SEEK_END);
  EXPECT_EQ(std::ftell(file), 2 * (4 + 3 * 4));
  std::fclose(file);
  std::remove(path.c_str());
}

TEST(IoTest, LoadedRowsAre64ByteAligned) {
  // fvecs payloads are dim-contiguous with no alignment guarantee; the
  // Dataset copy-in must still land every row on a 64-byte boundary for
  // the SIMD kernels. dim=17 exercises a padded (non-quantum) stride.
  SyntheticSpec spec;
  spec.num_base = 9;
  spec.dim = 17;
  const Dataset original = GenerateSynthetic(spec).base;
  const std::string path = TempPath("aligned.fvecs");
  ASSERT_TRUE(WriteFvecs(path, original).ok());
  StatusOr<Dataset> loaded = ReadFvecs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (uint32_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(loaded->Row(i)) % kRowAlignment,
              0u)
        << "row " << i;
  }
  std::remove(path.c_str());
}

TEST(IoTest, UnalignedSourceBufferCopiesCorrectly) {
  // The pointer constructor accepts arbitrarily misaligned sources (a
  // network buffer, an fvecs payload at an odd byte offset) and must
  // produce the same aligned dataset as an aligned source.
  constexpr uint32_t kNum = 4;
  constexpr uint32_t kDim = 7;
  std::vector<float> flat(kNum * kDim);
  for (size_t i = 0; i < flat.size(); ++i) {
    flat[i] = 0.25f * static_cast<float>(i) - 3.0f;
  }
  const Dataset from_aligned(kNum, kDim, flat.data());
  // Rebuild the same payload at a 1-byte offset in a raw byte buffer — the
  // worst possible float misalignment.
  std::vector<unsigned char> bytes(flat.size() * sizeof(float) + 1);
  std::memcpy(bytes.data() + 1, flat.data(), flat.size() * sizeof(float));
  const Dataset from_unaligned(
      kNum, kDim, reinterpret_cast<const float*>(bytes.data() + 1));
  EXPECT_EQ(from_unaligned.raw(), from_aligned.raw());
  for (uint32_t i = 0; i < kNum; ++i) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(from_unaligned.Row(i)) %
                  kRowAlignment,
              0u)
        << "row " << i;
    for (uint32_t d = 0; d < kDim; ++d) {
      EXPECT_EQ(from_unaligned.Row(i)[d], flat[i * kDim + d]);
    }
  }
}

// ---- Hardened error paths -------------------------------------------------

TEST(IoTest, FvecsMissingFileIsIOError) {
  StatusOr<Dataset> result = ReadFvecs(TempPath("does-not-exist.fvecs"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError()) << result.status().ToString();
}

TEST(IoTest, FvecsHostileDimensionHeaderRejected) {
  // A hostile int32 dimension header must not feed an allocation: INT32_MAX
  // would previously request an ~8 GiB resize before the read failed.
  const std::string path = TempPath("hostile.fvecs");
  const int32_t dim = 0x7FFFFFFF;
  const float filler[2] = {0.0f, 0.0f};
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(&dim, 4, 1, file), 1u);
    ASSERT_EQ(std::fwrite(filler, 4, 2, file), 2u);
    std::fclose(file);
  }
  StatusOr<Dataset> result = ReadFvecs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("byte offset 0"),
            std::string::npos)
      << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, FvecsNegativeAndZeroDimRejected) {
  for (const int32_t dim : {-1, 0, -2147483647}) {
    const std::string path = TempPath("baddim.fvecs");
    WriteRawBytes(path, &dim, 4);
    StatusOr<Dataset> result = ReadFvecs(path);
    ASSERT_FALSE(result.ok()) << "dim=" << dim;
    EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(IoTest, FvecsTruncatedRecordRejected) {
  // Header promises 8 floats, file holds 3.
  const std::string path = TempPath("truncated.fvecs");
  const int32_t dim = 8;
  const float partial[3] = {1.0f, 2.0f, 3.0f};
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(&dim, 4, 1, file), 1u);
    ASSERT_EQ(std::fwrite(partial, 4, 3, file), 3u);
    std::fclose(file);
  }
  StatusOr<Dataset> result = ReadFvecs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, FvecsInconsistentDimensionRejected) {
  const std::string path = TempPath("inconsistent.fvecs");
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    const int32_t dim_a = 2;
    const float row_a[2] = {1.0f, 2.0f};
    const int32_t dim_b = 3;
    const float row_b[3] = {1.0f, 2.0f, 3.0f};
    ASSERT_EQ(std::fwrite(&dim_a, 4, 1, file), 1u);
    ASSERT_EQ(std::fwrite(row_a, 4, 2, file), 2u);
    ASSERT_EQ(std::fwrite(&dim_b, 4, 1, file), 1u);
    ASSERT_EQ(std::fwrite(row_b, 4, 3, file), 3u);
    std::fclose(file);
  }
  StatusOr<Dataset> result = ReadFvecs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, FvecsEmptyFileRejected) {
  const std::string path = TempPath("empty.fvecs");
  WriteRawBytes(path, "", 0);
  StatusOr<Dataset> result = ReadFvecs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  std::remove(path.c_str());
}

TEST(IoTest, IvecsHostileRowLengthRejected) {
  const std::string path = TempPath("hostile.ivecs");
  const int32_t row_len = 0x7FFFFFFF;
  const int32_t filler[2] = {1, 2};
  {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(&row_len, 4, 1, file), 1u);
    ASSERT_EQ(std::fwrite(filler, 4, 2, file), 2u);
    std::fclose(file);
  }
  StatusOr<GroundTruth> result = ReadIvecs(path);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption()) << result.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace weavess
