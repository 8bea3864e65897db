#include "algorithms/registry.h"

#include "algorithms/dpg.h"
#include "algorithms/efanna.h"
#include "algorithms/fanng.h"
#include "algorithms/hcnng.h"
#include "algorithms/hnsw.h"
#include "algorithms/ieh.h"
#include "algorithms/kdr.h"
#include "algorithms/kgraph.h"
#include "algorithms/ngt.h"
#include "algorithms/nsg.h"
#include "algorithms/nssg.h"
#include "algorithms/nsw.h"
#include "algorithms/oa.h"
#include "algorithms/sptag.h"
#include "algorithms/vamana.h"
#include "core/check.h"
#include "quant/quantized_index.h"
#include "shard/sharded_index.h"

namespace weavess {

namespace {

constexpr char kShardedPrefix[] = "Sharded:";
constexpr size_t kShardedPrefixLen = sizeof(kShardedPrefix) - 1;
constexpr char kQuantizedPrefix[] = "SQ8:";
constexpr size_t kQuantizedPrefixLen = sizeof(kQuantizedPrefix) - 1;

bool IsBaseAlgorithm(const std::string& name) {
  for (const std::string& known : AlgorithmNames()) {
    if (known == name) return true;
  }
  return false;
}

}  // namespace

const std::vector<std::string>& AlgorithmNames() {
  static const std::vector<std::string>* const kNames =
      new std::vector<std::string>{
          "KGraph",       "NGT-panng", "NGT-onng", "SPTAG-KDT", "SPTAG-BKT",
          "NSW",          "IEH",       "FANNG",    "HNSW",      "EFANNA",
          "DPG",          "NSG",       "HCNNG",    "Vamana",    "NSSG",
          "k-DR",         "OA",        "Dynamic:HNSW"};
  return *kNames;
}

std::unique_ptr<AnnIndex> CreateAlgorithm(const std::string& name,
                                          const AlgorithmOptions& options) {
  if (name.rfind(kShardedPrefix, 0) == 0) {
    const std::string inner = name.substr(kShardedPrefixLen);
    WEAVESS_CHECK(IsBaseAlgorithm(inner) &&
                  "Sharded: wraps a base algorithm name (no nesting)");
    return std::make_unique<ShardedIndex>(inner, options);
  }
  if (name.rfind(kQuantizedPrefix, 0) == 0) {
    const std::string inner = name.substr(kQuantizedPrefixLen);
    WEAVESS_CHECK(IsBaseAlgorithm(inner) &&
                  "SQ8: wraps a base algorithm name (no nesting)");
    return std::make_unique<QuantizedIndex>(inner, options);
  }
  if (name == "KGraph") return CreateKGraph(options);
  if (name == "NGT-panng") return CreateNgtPanng(options);
  if (name == "NGT-onng") return CreateNgtOnng(options);
  if (name == "SPTAG-KDT") return CreateSptagKdt(options);
  if (name == "SPTAG-BKT") return CreateSptagBkt(options);
  if (name == "NSW") return CreateNsw(options);
  if (name == "IEH") return CreateIeh(options);
  if (name == "FANNG") return CreateFanng(options);
  if (name == "HNSW") return CreateHnsw(options);
  if (name == "EFANNA") return CreateEfanna(options);
  if (name == "DPG") return CreateDpg(options);
  if (name == "NSG") return CreateNsg(options);
  if (name == "HCNNG") return CreateHcnng(options);
  if (name == "Vamana") return CreateVamana(options);
  if (name == "NSSG") return CreateNssg(options);
  if (name == "k-DR") return CreateKdr(options);
  if (name == "OA") return CreateOptimized(options);
  if (name == "Dynamic:HNSW") return CreateDynamicHnsw(options);
  WEAVESS_CHECK(false && "unknown algorithm name");
  return nullptr;
}

bool IsKnownAlgorithm(const std::string& name) {
  if (name.rfind(kShardedPrefix, 0) == 0) {
    return IsBaseAlgorithm(name.substr(kShardedPrefixLen));
  }
  if (name.rfind(kQuantizedPrefix, 0) == 0) {
    return IsBaseAlgorithm(name.substr(kQuantizedPrefixLen));
  }
  return IsBaseAlgorithm(name);
}

}  // namespace weavess
