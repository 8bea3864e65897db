// An index over a graph restored from the checksummed on-disk format
// (core/graph_io.h): the healthy-path backend of ServingEngine::FromSavedGraph
// and the per-shard index behind ShardedIndex::Load
// (src/shard/sharded_index.h).
// The loaded adjacency plus the dataset it was built over are everything
// best-first routing needs; seeds are query-hash-derived, so results are
// deterministic at any thread count like every other index.
#ifndef WEAVESS_SEARCH_LOADED_INDEX_H_
#define WEAVESS_SEARCH_LOADED_INDEX_H_

#include <string>

#include "core/dataset.h"
#include "search/graph_index.h"

namespace weavess {

class LoadedGraphIndex final : public GraphIndex {
 public:
  /// `data` must have exactly graph.size() rows and outlive the index.
  /// `metadata` is the free-form string stored alongside the graph
  /// (conventionally the builder algorithm's name).
  LoadedGraphIndex(CsrGraph graph, const Dataset& data, std::string metadata);

  void Build(const Dataset&) override;

  std::string name() const override {
    return metadata_.empty() ? "LoadedGraph" : "LoadedGraph:" + metadata_;
  }

 private:
  std::string metadata_;
};

}  // namespace weavess

#endif  // WEAVESS_SEARCH_LOADED_INDEX_H_
