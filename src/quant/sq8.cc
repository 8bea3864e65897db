#include "quant/sq8.h"

#include <cmath>

#include "core/parallel.h"

namespace weavess {

QuantizedDataset::QuantizedDataset(uint32_t num, uint32_t dim,
                                   AlignedByteVector codes,
                                   AlignedFloatVector mins,
                                   AlignedFloatVector scales)
    : num_(num),
      dim_(dim),
      stride_(PaddedStride(dim)),
      codes_(std::move(codes)),
      mins_(std::move(mins)),
      scales_(std::move(scales)) {
  WEAVESS_CHECK(codes_.size() == static_cast<size_t>(num_) * stride_ &&
                "code storage must be num * PaddedStride(dim) bytes");
  WEAVESS_CHECK(mins_.size() == dim_ && scales_.size() == dim_ &&
                "mins/scales must hold one float per dimension");
}

SQ8Codec SQ8Codec::Train(const Dataset& data) {
  SQ8Codec codec;
  codec.dim_ = data.dim();
  codec.mins_.assign(data.dim(), 0.0f);
  codec.scales_.assign(data.dim(), 0.0f);
  if (data.empty() || data.dim() == 0) return codec;

  AlignedFloatVector maxs(data.dim(), 0.0f);
  for (uint32_t d = 0; d < data.dim(); ++d) {
    codec.mins_[d] = data.Row(0)[d];
    maxs[d] = data.Row(0)[d];
  }
  for (uint32_t i = 1; i < data.size(); ++i) {
    const float* row = data.Row(i);
    for (uint32_t d = 0; d < data.dim(); ++d) {
      if (row[d] < codec.mins_[d]) codec.mins_[d] = row[d];
      if (row[d] > maxs[d]) maxs[d] = row[d];
    }
  }
  for (uint32_t d = 0; d < data.dim(); ++d) {
    // scale 0 marks a constant dimension: code 0 dequantizes exactly to
    // min (the constant), and EncodeValue maps everything to 0.
    codec.scales_[d] = (maxs[d] - codec.mins_[d]) / 255.0f;
  }
  return codec;
}

namespace {

// Shared by SQ8Codec::EncodeValue and QuantizedDataset::EncodeQuery so a
// query encodes through the exact rounding/clamping the stored codes used.
inline uint8_t EncodeWith(float v, float min, float scale) {
  if (scale <= 0.0f) return 0;
  const float level = std::round((v - min) / scale);
  if (level <= 0.0f) return 0;
  if (level >= 255.0f) return 255;
  return static_cast<uint8_t>(level);
}

}  // namespace

void QuantizedDataset::EncodeQuery(const float* query, uint8_t* out) const {
  for (uint32_t d = 0; d < dim_; ++d) {
    out[d] = EncodeWith(query[d], mins_[d], scales_[d]);
  }
}

uint8_t SQ8Codec::EncodeValue(float v, uint32_t d) const {
  WEAVESS_DCHECK(d < dim_);
  return EncodeWith(v, mins_[d], scales_[d]);
}

QuantizedDataset SQ8Codec::Encode(const Dataset& data,
                                  uint32_t num_threads) const {
  WEAVESS_CHECK(data.dim() == dim_ &&
                "codec was trained for a different dimensionality");
  const uint32_t stride = QuantizedDataset::PaddedStride(dim_);
  AlignedByteVector codes(static_cast<size_t>(data.size()) * stride, 0);
  ParallelFor(0, data.size(), num_threads, [&](uint32_t i) {
    const float* row = data.Row(i);
    uint8_t* out = codes.data() + static_cast<size_t>(i) * stride;
    for (uint32_t d = 0; d < dim_; ++d) out[d] = EncodeValue(row[d], d);
  });
  return QuantizedDataset(data.size(), dim_, std::move(codes), mins_,
                          scales_);
}

}  // namespace weavess
