// Two-stage quantized index (`SQ8:<Algo>` in the registry): graph traversal
// runs over SQ8 codes through the templated routers, then the closest
// rescore_factor * k quantized candidates are re-ranked with exact float
// distances before the final top-k (docs/QUANTIZATION.md).
//
// Two construction paths share one search routine:
//   - registry: `SQ8:<Algo>` builds the inner algorithm on floats, keeps
//     its graph() and build stats, releases it, then trains an SQ8Codec
//     over the same dataset and drops the float rows from the hot path;
//   - load: a deserialized graph + WVSSQNT1 codes (serving snapshots,
//     ServingEngine::FromSavedGraphWithCodes).
// Either way the index holds the one CsrGraph its traversal walks.
//
// Search stays a pure function of (index, query bytes, params): seeds are
// query-hash-derived and both stages evaluate through the bit-for-bit
// dispatch-invariant kernels, so results are identical at any thread count
// and any SIMD level.
#ifndef WEAVESS_QUANT_QUANTIZED_INDEX_H_
#define WEAVESS_QUANT_QUANTIZED_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/flat_graph.h"
#include "core/index.h"
#include "quant/sq8.h"

namespace weavess {

struct AlgorithmOptions;  // algorithms/registry.h

class QuantizedIndex final : public AnnIndex {
 public:
  /// Registry path: Build() constructs `inner_name` (a base algorithm) over
  /// the dataset, then trains and encodes the SQ8 codes.
  QuantizedIndex(const std::string& inner_name,
                 const AlgorithmOptions& options);

  /// Load path: a loaded graph and pre-encoded codes. `data` backs the
  /// exact rescoring stage and must have graph.size() rows of codes.dim()
  /// floats, outliving the index.
  QuantizedIndex(CsrGraph graph, QuantizedDataset codes, const Dataset& data,
                 std::string metadata);

  ~QuantizedIndex() override;

  void Build(const Dataset& data) override;

  std::vector<ScoredId> SearchScored(SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats) const override;

  const CsrGraph& graph() const override;

  /// Code storage + the routed graph. The float rows are excluded (shared
  /// by every index equally), which is what makes the ~4x code-vs-float
  /// comparison visible through CodeMemoryBytes().
  size_t IndexMemoryBytes() const override;

  BuildStats build_stats() const override { return build_stats_; }

  std::string name() const override;

  /// Bytes of the SQ8 codes + dequantization arrays (the quant.code_bytes
  /// gauge).
  size_t CodeMemoryBytes() const { return codes_.MemoryBytes(); }

  const QuantizedDataset& codes() const { return codes_; }

 private:
  // Registry path state (unused on the load path).
  std::string inner_name_;
  std::unique_ptr<AlgorithmOptions> options_;
  BuildStats build_stats_;

  // Load path state.
  std::string metadata_;

  // Shared search state, set by Build() or the load constructor.
  CsrGraph graph_;
  QuantizedDataset codes_;
  const Dataset* data_ = nullptr;
  uint32_t num_seeds_ = 10;
  uint64_t seed_ = 2024;
};

}  // namespace weavess

#endif  // WEAVESS_QUANT_QUANTIZED_INDEX_H_
