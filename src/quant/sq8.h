// SQ8 scalar quantization (docs/QUANTIZATION.md): each dimension d learns
// an affine range [min_d, max_d] over the dataset and every stored float is
// encoded as one byte, code = round((v - min_d) / scale_d) clamped to
// [0, 255] with scale_d = (max_d - min_d) / 255. At search time the query
// is encoded once with the same codec and the quantized distance kernels
// (core/distance_kernels.cc) compare code rows directly — symmetric
// Σ (qcode - code)² in integer arithmetic; codes are never expanded back
// into float rows. Dequantization min_d + scale_d * code exists for
// diagnostics (Dequantize), not the hot path.
//
// A QuantizedDataset mirrors the padded-stride Dataset API: code rows are
// padded to kRowAlignment bytes so every Code(i) pointer starts on a cache
// line. At one byte per dimension, code rows are 4x denser than float rows,
// which is the whole point: 4x more vectors per cache/DRAM byte during
// graph traversal.
#ifndef WEAVESS_QUANT_SQ8_H_
#define WEAVESS_QUANT_SQ8_H_

#include <cstdint>
#include <vector>

#include "core/aligned.h"
#include "core/check.h"
#include "core/dataset.h"

namespace weavess {

/// Byte storage whose data() pointer is kRowAlignment-aligned (code rows).
using AlignedByteVector = std::vector<uint8_t, AlignedAllocator<uint8_t>>;

/// SQ8 code matrix: size() rows of dim() bytes at a fixed code_stride()
/// ≥ dim(), plus the per-dimension dequantization arrays (mins/scales).
/// Copyable value type, moves are cheap — the same contract as Dataset.
class QuantizedDataset {
 public:
  /// Bytes per row-alignment unit; code strides are rounded up to this.
  static constexpr uint32_t kCodeStrideQuantum =
      static_cast<uint32_t>(kRowAlignment);

  QuantizedDataset() = default;

  /// Takes ownership of pre-built storage. `codes` must hold
  /// num * PaddedStride(dim) bytes (padding zero-filled); `mins` and
  /// `scales` must each hold dim floats.
  QuantizedDataset(uint32_t num, uint32_t dim, AlignedByteVector codes,
                   AlignedFloatVector mins, AlignedFloatVector scales);

  /// Code row stride for a given dimensionality (dim rounded up to the
  /// alignment quantum).
  static uint32_t PaddedStride(uint32_t dim) {
    return (dim + kCodeStrideQuantum - 1) / kCodeStrideQuantum *
           kCodeStrideQuantum;
  }

  uint32_t size() const { return num_; }
  uint32_t dim() const { return dim_; }
  bool empty() const { return num_ == 0; }

  /// Bytes between consecutive code rows. The batched quantized kernels
  /// address rows as CodeBase() + id * code_stride().
  uint32_t code_stride() const { return stride_; }

  /// Base pointer of the code storage (64-byte aligned); null when empty.
  const uint8_t* CodeBase() const { return codes_.data(); }

  /// Pointer to the i-th code row (valid for dim() bytes, 64-byte aligned).
  const uint8_t* Code(uint32_t i) const {
    WEAVESS_DCHECK(i < num_);
    return codes_.data() + static_cast<size_t>(i) * stride_;
  }

  /// Per-dimension dequantization arrays (dim() floats each).
  const float* mins() const { return mins_.data(); }
  const float* scales() const { return scales_.data(); }

  /// Encodes a float query with the stored per-dimension codec — the same
  /// rounding/clamping as SQ8Codec::EncodeValue, so query codes live in
  /// the exact code space the symmetric quantized kernels compare in.
  /// `out` must hold dim() bytes.
  void EncodeQuery(const float* query, uint8_t* out) const;

  /// Dequantized value of dimension d of row i (exactly what the kernels
  /// compute on the fly).
  float Dequantize(uint32_t i, uint32_t d) const {
    WEAVESS_DCHECK(d < dim_);
    return mins_[d] + scales_[d] * static_cast<float>(Code(i)[d]);
  }

  /// The padded backing store (size() * code_stride() bytes). Padding is
  /// zero-filled, so raw equality implies logical equality.
  const AlignedByteVector& raw() const { return codes_; }

  /// Bytes consumed by codes + dequantization arrays, padding included —
  /// the quantized counterpart of Dataset::MemoryBytes for the ~4x
  /// vector-memory comparison.
  size_t MemoryBytes() const {
    return codes_.size() + (mins_.size() + scales_.size()) * sizeof(float);
  }

 private:
  uint32_t num_ = 0;
  uint32_t dim_ = 0;
  uint32_t stride_ = 0;
  AlignedByteVector codes_;
  AlignedFloatVector mins_;
  AlignedFloatVector scales_;
};

/// Learns per-dimension affine [min, max] ranges from a dataset and encodes
/// float rows into SQ8 codes. Training is a deterministic single pass, so
/// the same dataset always yields the same codec and codes.
class SQ8Codec {
 public:
  /// Per-dimension min/max over all rows. A constant dimension gets
  /// scale 0: every code is 0 and dequantizes exactly to the constant.
  static SQ8Codec Train(const Dataset& data);

  /// Encodes every row of `data` (which must match the trained dim). Rows
  /// encode independently, `num_threads` at a time; the codes are the same
  /// at any thread count.
  QuantizedDataset Encode(const Dataset& data, uint32_t num_threads = 1) const;

  /// Encodes one value of dimension d.
  uint8_t EncodeValue(float v, uint32_t d) const;

  uint32_t dim() const { return dim_; }
  const AlignedFloatVector& mins() const { return mins_; }
  const AlignedFloatVector& scales() const { return scales_; }

 private:
  uint32_t dim_ = 0;
  AlignedFloatVector mins_;
  AlignedFloatVector scales_;
};

}  // namespace weavess

#endif  // WEAVESS_QUANT_SQ8_H_
