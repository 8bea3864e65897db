// Quantization suite (docs/QUANTIZATION.md): SQ8 codec round-trip
// properties, the quantized-kernel differential matrix (every dispatch
// level bit-for-bit equal to the scalar quantized oracle), the two-stage
// search NDC split, and golden pins for SQ8-wrapped flagships — recall@10
// plus a CRC32C fingerprint of the full result-id lists, bit-for-bit
// invariant across 1/2/8 threads and every supported dispatch level.
//
// To re-baseline after an *intentional* quality change, run the binary and
// copy the "actual" values from the failure messages.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "core/aligned.h"
#include "core/crc32c.h"
#include "core/dataset.h"
#include "core/distance.h"
#include "core/rng.h"
#include "eval/ground_truth.h"
#include "quant/quantized_index.h"
#include "quant/sq8.h"
#include "search/engine.h"
#include "test_util.h"

namespace weavess {
namespace {

using ::weavess::testing::MakeTestWorkload;

std::vector<KernelLevel> SupportedLevels() {
  std::vector<KernelLevel> levels;
  for (KernelLevel level : {KernelLevel::kScalar, KernelLevel::kAvx2,
                            KernelLevel::kAvx512, KernelLevel::kNeon}) {
    if (KernelLevelSupported(level)) levels.push_back(level);
  }
  return levels;
}

// Restores the pre-test dispatch level no matter how the test exits.
class ScopedKernelLevel {
 public:
  explicit ScopedKernelLevel(KernelLevel level)
      : saved_(ActiveKernelLevel()) {
    EXPECT_TRUE(SetKernelLevel(level));
  }
  ~ScopedKernelLevel() { SetKernelLevel(saved_); }

 private:
  KernelLevel saved_;
};

void FillRandom(float* out, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<float>(rng.NextGaussian()) *
             (1.0f + static_cast<float>(i % 7));
  }
}

Dataset RandomDataset(uint32_t n, uint32_t dim, uint64_t seed) {
  std::vector<float> flat(static_cast<size_t>(n) * dim);
  FillRandom(flat.data(), flat.size(), seed);
  return Dataset(n, dim, flat);
}

// ---------------------------------------------------------------- codec --

TEST(SQ8CodecTest, TrainLearnsPerDimensionRange) {
  Dataset data = RandomDataset(100, 9, /*seed=*/3);
  const SQ8Codec codec = SQ8Codec::Train(data);
  ASSERT_EQ(codec.dim(), 9u);
  for (uint32_t d = 0; d < 9; ++d) {
    float lo = data.Row(0)[d], hi = data.Row(0)[d];
    for (uint32_t i = 1; i < data.size(); ++i) {
      lo = std::min(lo, data.Row(i)[d]);
      hi = std::max(hi, data.Row(i)[d]);
    }
    EXPECT_EQ(codec.mins()[d], lo) << "d=" << d;
    EXPECT_EQ(codec.scales()[d], (hi - lo) / 255.0f) << "d=" << d;
  }
}

TEST(SQ8CodecTest, DequantizationErrorBoundedByHalfStep) {
  // The affine codec's contract: every reconstructed value sits within
  // half a quantization step of the original (plus float rounding slack).
  Dataset data = RandomDataset(200, 24, /*seed=*/5);
  const SQ8Codec codec = SQ8Codec::Train(data);
  const QuantizedDataset codes = codec.Encode(data);
  for (uint32_t i = 0; i < data.size(); ++i) {
    for (uint32_t d = 0; d < data.dim(); ++d) {
      const float step = codec.scales()[d];
      const float err = std::fabs(codes.Dequantize(i, d) - data.Row(i)[d]);
      ASSERT_LE(err, step * 0.5f + 1e-5f) << "row " << i << " dim " << d;
    }
  }
}

TEST(SQ8CodecTest, EncodeIsThreadCountInvariant) {
  Dataset data = RandomDataset(1000, 24, /*seed=*/6);
  const SQ8Codec codec = SQ8Codec::Train(data);
  const QuantizedDataset serial = codec.Encode(data);
  const QuantizedDataset parallel = codec.Encode(data, 4);
  const size_t bytes = static_cast<size_t>(data.size()) * serial.code_stride();
  EXPECT_TRUE(std::equal(serial.CodeBase(), serial.CodeBase() + bytes,
                         parallel.CodeBase()));
}

TEST(SQ8CodecTest, ConstantDimensionEncodesExactly) {
  // A zero-range dimension has scale 0 and must reconstruct bit-exactly
  // from its min, not divide by zero.
  std::vector<float> flat;
  for (uint32_t i = 0; i < 10; ++i) {
    flat.push_back(42.5f);                        // constant dim
    flat.push_back(static_cast<float>(i));        // varying dim
  }
  Dataset data(10, 2, flat);
  const SQ8Codec codec = SQ8Codec::Train(data);
  EXPECT_EQ(codec.scales()[0], 0.0f);
  const QuantizedDataset codes = codec.Encode(data);
  for (uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(codes.Dequantize(i, 0), 42.5f);
    EXPECT_EQ(codes.Code(i)[0], 0);
  }
}

TEST(SQ8CodecTest, CodeRowsArePaddedAlignedAndZeroFilled) {
  Dataset data = RandomDataset(7, 17, /*seed=*/8);
  const QuantizedDataset codes = SQ8Codec::Train(data).Encode(data);
  EXPECT_EQ(codes.code_stride(), 64u);  // 17 -> one 64-byte quantum
  EXPECT_EQ(reinterpret_cast<uintptr_t>(codes.CodeBase()) % 64, 0u);
  for (uint32_t i = 0; i < codes.size(); ++i) {
    for (uint32_t d = codes.dim(); d < codes.code_stride(); ++d) {
      ASSERT_EQ(codes.Code(i)[d], 0) << "row " << i << " pad byte " << d;
    }
  }
  // ~4x memory at dims where float rows pad past one cacheline.
  Dataset wide = RandomDataset(64, 128, /*seed=*/9);
  const QuantizedDataset wide_codes = SQ8Codec::Train(wide).Encode(wide);
  EXPECT_EQ(wide.MemoryBytes() / wide_codes.MemoryBytes(), 3u);  // 512/128,
  // less the mins/scales overhead on a small n; at serving scale it is 4x.
}

TEST(SQ8CodecTest, EncodeValueClampsOutOfRangeQueries) {
  Dataset data = RandomDataset(50, 4, /*seed=*/11);
  const SQ8Codec codec = SQ8Codec::Train(data);
  for (uint32_t d = 0; d < 4; ++d) {
    EXPECT_EQ(codec.EncodeValue(-1e30f, d), 0);
    EXPECT_EQ(codec.EncodeValue(1e30f, d), 255);
  }
}

// -------------------------------------------------------------- kernels --

// Fills a byte buffer with the full 0..255 range, adversarial for the
// widening/madd paths (max diffs hit 255, the saturation-prone corner).
void FillRandomBytes(uint8_t* out, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(rng.NextBounded(256));
  }
}

// Scalar-oracle differential: every supported level must produce the SQ8
// symmetric code-space distance BIT FOR BIT equal to L2SqrSQ8Scalar over
// every dim 1..257 (all 16-lane tail remainders) and query-code alignment
// offset (the stored codes stay 64-byte aligned; the query code may not be).
TEST(SQ8KernelTest, AllLevelsBitwiseEqualScalarAcrossDimAndAlignment) {
  constexpr uint32_t kMaxDim = 257;
  constexpr size_t kOffsets[] = {0, 1, 2, 3, 5, 8, 13};
  constexpr size_t kMaxOffset = 13;
  std::vector<uint8_t> query_buf(kMaxDim + kMaxOffset);
  FillRandomBytes(query_buf.data(), query_buf.size(), /*seed=*/21);
  Dataset data = RandomDataset(4, kMaxDim, /*seed=*/22);
  const QuantizedDataset codes = SQ8Codec::Train(data).Encode(data);
  for (KernelLevel level : SupportedLevels()) {
    if (level == KernelLevel::kScalar) continue;
    ScopedKernelLevel scoped(level);
    for (size_t off : kOffsets) {
      const uint8_t* query = query_buf.data() + off;
      for (uint32_t dim = 1; dim <= kMaxDim; ++dim) {
        for (uint32_t row = 0; row < codes.size(); ++row) {
          const uint32_t got = L2SqrSQ8(query, codes.Code(row), dim);
          const uint32_t ref = L2SqrSQ8Scalar(query, codes.Code(row), dim);
          ASSERT_EQ(got, ref) << KernelLevelName(level) << " dim=" << dim
                              << " off=" << off << " row=" << row;
        }
      }
    }
  }
}

// The scalar SQ8 kernel is an exact integer sum — it must equal a
// sequential int64 reference exactly, including at the all-extremes corner
// (every diff = 255) where a saturating vector path would diverge.
TEST(SQ8KernelTest, ScalarMatchesWideIntegerReference) {
  constexpr uint32_t kMaxDim = 257;
  std::vector<uint8_t> query(kMaxDim);
  FillRandomBytes(query.data(), query.size(), /*seed=*/31);
  Dataset data = RandomDataset(1, kMaxDim, /*seed=*/32);
  const QuantizedDataset codes = SQ8Codec::Train(data).Encode(data);
  for (uint32_t dim = 1; dim <= kMaxDim; ++dim) {
    int64_t ref = 0;
    for (uint32_t d = 0; d < dim; ++d) {
      const int64_t diff = static_cast<int64_t>(query[d]) -
                           static_cast<int64_t>(codes.Code(0)[d]);
      ref += diff * diff;
    }
    ASSERT_EQ(static_cast<int64_t>(
                  L2SqrSQ8Scalar(query.data(), codes.Code(0), dim)),
              ref)
        << "dim=" << dim;
  }
  // All-extremes: query 255s vs code 0s — dim * 255² with no saturation.
  const std::vector<uint8_t> hi(kMaxDim, 255);
  const std::vector<uint8_t> lo(kMaxDim, 0);
  for (KernelLevel level : SupportedLevels()) {
    ScopedKernelLevel scoped(level);
    for (uint32_t dim : {1u, 16u, 128u, 257u}) {
      EXPECT_EQ(L2SqrSQ8(hi.data(), lo.data(), dim), dim * 65025u)
          << KernelLevelName(level) << " dim=" << dim;
    }
  }
}

// Batched = per-code (converted to float), bit for bit, at every level —
// including duplicate ids, non-monotone order, and the empty batch.
TEST(SQ8KernelTest, BatchedEqualsPerCodeAtEveryLevel) {
  for (uint32_t dim : {1u, 7u, 16u, 17u, 100u, 128u, 255u, 257u}) {
    Dataset data = RandomDataset(48, dim, /*seed=*/dim);
    const QuantizedDataset codes = SQ8Codec::Train(data).Encode(data);
    std::vector<uint8_t> query(dim);
    FillRandomBytes(query.data(), dim, /*seed=*/500 + dim);
    std::vector<uint32_t> ids;
    Rng rng(13);
    for (uint32_t i = 0; i < 80; ++i) {
      ids.push_back(static_cast<uint32_t>(rng.NextBounded(48)));
    }
    ids.push_back(0);
    ids.push_back(47);
    ids.push_back(0);
    for (KernelLevel level : SupportedLevels()) {
      ScopedKernelLevel scoped(level);
      std::vector<float> batched(ids.size());
      L2SqrSQ8Batch(query.data(), codes.CodeBase(), codes.code_stride(), dim,
                    ids.data(), ids.size(), batched.data());
      for (size_t i = 0; i < ids.size(); ++i) {
        ASSERT_EQ(batched[i],
                  static_cast<float>(
                      L2SqrSQ8(query.data(), codes.Code(ids[i]), dim)))
            << KernelLevelName(level) << " dim=" << dim << " i=" << i;
      }
      L2SqrSQ8Batch(query.data(), codes.CodeBase(), codes.code_stride(), dim,
                    ids.data(), 0, nullptr);  // empty batch: must not touch out
    }
  }
}

// ------------------------------------------------------ two-stage search --

TEST(QuantizedIndexTest, StatsSplitNdcIntoTraversalAndRescore) {
  const auto tw = MakeTestWorkload();
  auto index = CreateAlgorithm("SQ8:HNSW", AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = 60;
  params.rescore_factor = 4;
  QueryStats stats;
  const auto ids = index->Search(tw.workload.queries.Row(0), params, &stats);
  ASSERT_EQ(ids.size(), 10u);
  EXPECT_GT(stats.quantized_evals, 0u);
  EXPECT_GT(stats.rescore_evals, 0u);
  EXPECT_EQ(stats.distance_evals, stats.quantized_evals + stats.rescore_evals);
  // rescore_factor * k candidates, capped by what the pool actually holds.
  EXPECT_LE(stats.rescore_evals, 4u * 10u);
  // Factor 1 rescores exactly k (pool holds >= k at this size).
  params.rescore_factor = 1;
  index->Search(tw.workload.queries.Row(0), params, &stats);
  EXPECT_EQ(stats.rescore_evals, 10u);
}

TEST(QuantizedIndexTest, RegistryKnowsWrappersAndRejectsNesting) {
  EXPECT_TRUE(IsKnownAlgorithm("SQ8:HNSW"));
  EXPECT_TRUE(IsKnownAlgorithm("SQ8:NSG"));
  EXPECT_FALSE(IsKnownAlgorithm("SQ8:"));
  EXPECT_FALSE(IsKnownAlgorithm("SQ8:NoSuchAlgo"));
  EXPECT_FALSE(IsKnownAlgorithm("SQ8:Sharded:HNSW"));
  EXPECT_FALSE(IsKnownAlgorithm("Sharded:SQ8:HNSW"));
}

TEST(QuantizedIndexTest, CodeMemoryIsAFractionOfFloatRows) {
  // At dim 128 a float row is 512 bytes and a code row is 128 bytes, so the
  // codes should come in close to 4x smaller (mins/scales add 1 KiB total).
  const auto tw = MakeTestWorkload(400, 128, 8, 4);
  auto index = CreateAlgorithm("SQ8:HNSW", AlgorithmOptions());
  index->Build(tw.workload.base);
  const auto* quantized = dynamic_cast<const QuantizedIndex*>(index.get());
  ASSERT_NE(quantized, nullptr);
  EXPECT_GT(quantized->CodeMemoryBytes(), 0u);
  EXPECT_LT(quantized->CodeMemoryBytes(), tw.workload.base.MemoryBytes());
  EXPECT_EQ(tw.workload.base.MemoryBytes() / quantized->CodeMemoryBytes(), 3u);
}

// -------------------------------------------------------------- goldens --

struct QuantGoldenCase {
  const char* algo;
  uint32_t pool_size;
  double recall;     // mean recall@10, pinned +/- kRecallTol
  uint32_t ids_crc;  // CRC32C over the concatenated result-id lists
};

constexpr double kRecallTol = 0.02;

// CRC32C fingerprint of every query's full result-id list, concatenated in
// query order — a compact pin of the complete output, not just its quality.
uint32_t IdsCrc(const BatchResult& result) {
  uint32_t crc = 0;
  for (const std::vector<uint32_t>& ids : result.ids) {
    crc = Crc32cExtend(crc, ids.data(), ids.size() * sizeof(uint32_t));
  }
  return crc;
}

class QuantGoldenTest : public ::testing::TestWithParam<QuantGoldenCase> {};

// The SQ8 determinism contract in one test: pinned recall@10 and pinned
// full result-id lists, bit-for-bit identical at 1/2/8 threads and at
// every supported dispatch level (the SQ8 kernels are bit-exact across
// ISAs, so the pin is a property of the workload, not the machine).
TEST_P(QuantGoldenTest, PinnedRecallAndIdsThreadAndDispatchInvariant) {
  const QuantGoldenCase golden = GetParam();
  const auto tw = MakeTestWorkload();
  auto index = CreateAlgorithm(golden.algo, AlgorithmOptions());
  index->Build(tw.workload.base);
  SearchParams params;
  params.k = 10;
  params.pool_size = golden.pool_size;

  const SearchEngine baseline_engine(*index, 1);
  const BatchResult baseline =
      baseline_engine.SearchBatch(tw.workload.queries, params);
  double recall_sum = 0.0;
  for (uint32_t q = 0; q < tw.workload.queries.size(); ++q) {
    recall_sum += Recall(baseline.ids[q], tw.truth[q], 10);
  }
  const double recall = recall_sum / tw.workload.queries.size();
  EXPECT_NEAR(recall, golden.recall, kRecallTol)
      << golden.algo << ": actual recall@10 = " << recall;
  EXPECT_EQ(IdsCrc(baseline), golden.ids_crc)
      << golden.algo << ": actual ids CRC32C = " << IdsCrc(baseline);

  for (uint32_t threads : {2u, 8u}) {
    const SearchEngine engine(*index, threads);
    const BatchResult result = engine.SearchBatch(tw.workload.queries, params);
    ASSERT_EQ(result.ids, baseline.ids) << golden.algo << " at " << threads
                                        << " threads diverged";
    EXPECT_EQ(result.totals.quantized_evals, baseline.totals.quantized_evals);
    EXPECT_EQ(result.totals.rescore_evals, baseline.totals.rescore_evals);
  }
  for (KernelLevel level : SupportedLevels()) {
    ScopedKernelLevel scoped(level);
    const BatchResult result =
        baseline_engine.SearchBatch(tw.workload.queries, params);
    ASSERT_EQ(result.ids, baseline.ids)
        << golden.algo << " diverged at " << KernelLevelName(level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    QuantizedFlagships, QuantGoldenTest,
    ::testing::Values(QuantGoldenCase{"SQ8:HNSW", 60, 1.000, 0xb729cae3},
                      QuantGoldenCase{"SQ8:NSG", 60, 0.950, 0x8d6a3788}),
    [](const ::testing::TestParamInfo<QuantGoldenCase>& info) {
      std::string name = info.param.algo;
      std::replace(name.begin(), name.end(), ':', '_');
      return name;
    });

}  // namespace
}  // namespace weavess
