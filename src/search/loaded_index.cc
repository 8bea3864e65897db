#include "search/loaded_index.h"

#include <memory>
#include <utility>

#include "core/check.h"

namespace weavess {

LoadedGraphIndex::LoadedGraphIndex(CsrGraph graph, const Dataset& data,
                                   std::string metadata)
    : GraphIndex(data), metadata_(std::move(metadata)) {
  const uint32_t num_vertices = graph.size();
  FinishBuild(std::move(graph),
              std::make_unique<RandomSeedProvider>(
                  num_vertices, /*num_seeds=*/10, /*seed=*/2024),
              RoutingKind::kBestFirst, BuildStats{});
}

void LoadedGraphIndex::Build(const Dataset&) {
  WEAVESS_CHECK(false && "a loaded graph index is already built");
}

}  // namespace weavess
