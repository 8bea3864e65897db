#include "core/flat_graph.h"

#include <algorithm>
#include <utility>

namespace weavess {

CsrGraph::CsrGraph(const Graph& graph) {
  const uint32_t n = graph.size();
  if (n == 0) return;
  offsets_.resize(n + 1);
  offsets_[0] = 0;
  for (uint32_t v = 0; v < n; ++v) {
    offsets_[v + 1] = offsets_[v] + graph.Neighbors(v).size();
  }
  ids_.reserve(offsets_[n]);
  for (uint32_t v = 0; v < n; ++v) {
    const auto& list = graph.Neighbors(v);
    ids_.insert(ids_.end(), list.begin(), list.end());
  }
}

CsrGraph::CsrGraph(std::vector<uint64_t> offsets, std::vector<uint32_t> ids) {
  WEAVESS_CHECK(!offsets.empty() && offsets.front() == 0 &&
                offsets.back() == ids.size());
  WEAVESS_CHECK(std::is_sorted(offsets.begin(), offsets.end()));
  if (offsets.size() == 1) return;  // zero vertices hold nothing
  offsets_ = std::move(offsets);
  ids_ = std::move(ids);
}

AlignedGraph::AlignedGraph(const CsrGraph& graph)
    : num_vertices_(graph.size()) {
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    stride_ = std::max(
        stride_, static_cast<uint32_t>(graph.Neighbors(v).size()));
  }
  stride_ = std::max(stride_, 1u);
  slots_.assign(static_cast<size_t>(num_vertices_) * stride_, kInvalid);
  for (uint32_t v = 0; v < num_vertices_; ++v) {
    uint32_t* row = slots_.data() + static_cast<size_t>(v) * stride_;
    const auto list = graph.Neighbors(v);
    std::copy(list.begin(), list.end(), row);
  }
}

}  // namespace weavess
