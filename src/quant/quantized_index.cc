#include "quant/quantized_index.h"

#include <algorithm>
#include <utility>

#include "algorithms/registry.h"
#include "core/check.h"
#include "core/distance.h"
#include "core/neighbor.h"
#include "quant/quantized_oracle.h"
#include "search/router.h"
#include "search/seed.h"

namespace weavess {

QuantizedIndex::QuantizedIndex(const std::string& inner_name,
                               const AlgorithmOptions& options)
    : inner_name_(inner_name),
      options_(std::make_unique<AlgorithmOptions>(options)),
      num_seeds_(options.num_seeds > 0 ? options.num_seeds : 10),
      seed_(options.seed) {}

QuantizedIndex::QuantizedIndex(CsrGraph graph, QuantizedDataset codes,
                               const Dataset& data, std::string metadata)
    : metadata_(std::move(metadata)),
      graph_(std::move(graph)),
      codes_(std::move(codes)),
      data_(&data) {
  WEAVESS_CHECK(codes_.size() == graph_.size() &&
                codes_.size() == data.size() && codes_.dim() == data.dim() &&
                "codes must cover the graph's vertices and the dataset");
}

QuantizedIndex::~QuantizedIndex() = default;

void QuantizedIndex::Build(const Dataset& data) {
  WEAVESS_CHECK(data_ == nullptr && "index is already built");
  WEAVESS_CHECK(options_ != nullptr && "load-path indexes are already built");
  {
    // Only the graph outlives the inner index: it is released before the
    // codes are encoded.
    const std::unique_ptr<AnnIndex> inner =
        CreateAlgorithm(inner_name_, *options_);
    inner->Build(data);
    graph_ = inner->graph();
    build_stats_ = inner->build_stats();
  }
  codes_ = SQ8Codec::Train(data).Encode(data, options_->build_threads);
  data_ = &data;
}

const CsrGraph& QuantizedIndex::graph() const {
  WEAVESS_CHECK(data_ != nullptr && "index is not built");
  return graph_;
}

size_t QuantizedIndex::IndexMemoryBytes() const {
  return codes_.MemoryBytes() + graph_.MemoryBytes();
}

std::string QuantizedIndex::name() const {
  if (!inner_name_.empty()) return "SQ8:" + inner_name_;
  return metadata_.empty() ? "SQ8:LoadedGraph" : "SQ8:" + metadata_;
}

std::vector<uint32_t> QuantizedIndex::SearchWith(SearchScratch& scratch,
                                                 const float* query,
                                                 const SearchParams& params,
                                                 QueryStats* stats) const {
  WEAVESS_CHECK(data_ != nullptr && "index is not built");
  SearchContext& ctx = scratch.ctx;
  ctx.BeginQuery(codes_.size());
  ctx.ArmBudget(params.max_distance_evals, params.time_budget_us,
                params.clock);

  // Stage 1: best-first traversal over SQ8 codes. The query is encoded
  // once with the stored codec, so every traversal evaluation is a pure
  // uint8 comparison; the context counts (and budgets) quantized
  // evaluations — they are the traversal's work.
  ctx.query_code.resize(codes_.dim());
  codes_.EncodeQuery(query, ctx.query_code.data());
  QuantizedOracle quantized(codes_, ctx.query_code.data(), &ctx.counter);
  const uint32_t k = params.k;
  const uint32_t rescore_factor = std::max<uint32_t>(1, params.rescore_factor);
  const uint64_t rescore_want64 = static_cast<uint64_t>(rescore_factor) * k;
  const uint32_t rescore_want = static_cast<uint32_t>(
      std::min<uint64_t>(rescore_want64, codes_.size()));
  // The pool must hold the rescore breadth, else the widened candidates
  // would be evicted before stage 2 sees them.
  CandidatePool& pool = scratch.pool;
  pool.Reset(std::max({params.pool_size, rescore_want, k}));

  // Query-hash-derived random seeds (RandomSeedProvider's derivation),
  // evaluated at quantized distance.
  SeedPool(QuerySeedIds(query, codes_.dim(), codes_.size(), num_seeds_, seed_),
           query, quantized, ctx, pool);
  BestFirstSearch(graph_, query, quantized, ctx, pool);

  // Stage 2: exact float rescoring of the closest rescore_want quantized
  // candidates. Rescore work is accounted separately (rescore_evals) and
  // runs even when the traversal budget tripped — the best-so-far pool
  // still deserves exact ranking.
  DistanceCounter rescore_counter;
  DistanceOracle exact(*data_, &rescore_counter);
  const auto& entries = pool.entries();
  const size_t want = std::min<size_t>(entries.size(), rescore_want);
  ctx.batch_ids.clear();
  for (size_t i = 0; i < want; ++i) ctx.batch_ids.push_back(entries[i].id);
  ctx.batch_dists.resize(want);
  exact.ToQueryBatch(query, ctx.batch_ids.data(), want,
                     ctx.batch_dists.data());
  std::vector<Neighbor> rescored;
  rescored.reserve(want);
  for (size_t i = 0; i < want; ++i) {
    rescored.emplace_back(ctx.batch_ids[i], ctx.batch_dists[i]);
  }
  // Neighbor orders by (distance, id): equal exact distances tie-break on
  // id, keeping the final ranking deterministic.
  std::sort(rescored.begin(), rescored.end());

  ctx.WriteStats(stats);
  if (stats != nullptr) {
    stats->quantized_evals = ctx.counter.count;
    stats->rescore_evals = rescore_counter.count;
    stats->distance_evals += rescore_counter.count;
  }
  std::vector<uint32_t> result;
  result.reserve(std::min<size_t>(k, rescored.size()));
  for (size_t i = 0; i < rescored.size() && i < k; ++i) {
    result.push_back(rescored[i].id);
  }
  return result;
}

}  // namespace weavess
