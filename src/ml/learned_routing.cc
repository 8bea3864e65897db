#include "ml/learned_routing.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/distance.h"
#include "core/timer.h"

namespace weavess {

LearnedRoutingIndex::LearnedRoutingIndex(std::unique_ptr<AnnIndex> base,
                                         const Params& params)
    : base_(std::move(base)), params_(params) {
  WEAVESS_CHECK(base_ != nullptr);
  WEAVESS_CHECK(params.num_landmarks >= 4);
  WEAVESS_CHECK(params.evaluate_fraction > 0.0f &&
                params.evaluate_fraction <= 1.0f);
}

LearnedRoutingIndex::~LearnedRoutingIndex() = default;

float LearnedRoutingIndex::SurrogateDistance(const float* query_embedding,
                                             uint32_t vertex) const {
  const float* row =
      embeddings_.data() +
      static_cast<size_t>(vertex) * params_.num_landmarks;
  return L2Sqr(query_embedding, row, params_.num_landmarks);
}

void LearnedRoutingIndex::Build(const Dataset& data) {
  data_ = &data;
  base_->Build(data);
  Timer timer;

  // --- "Training": landmark selection + full embedding table. This is the
  // deliberately heavy preprocessing that Table 24 charges to ML1. ---
  Rng rng(params_.seed);
  const uint32_t m = std::min(params_.num_landmarks, data.size());
  params_.num_landmarks = m;
  landmarks_ = rng.SampleDistinct(data.size(), m);
  embeddings_.resize(static_cast<size_t>(data.size()) * m);
  for (uint32_t i = 0; i < data.size(); ++i) {
    float* row = embeddings_.data() + static_cast<size_t>(i) * m;
    for (uint32_t l = 0; l < m; ++l) {
      row[l] = std::sqrt(
          L2Sqr(data.Row(i), data.Row(landmarks_[l]), data.dim()));
    }
  }

  // Medoid entry point (ML1 routes from a fixed entry, like NSG).
  const std::vector<float> mean = data.Mean();
  float best = std::numeric_limits<float>::infinity();
  for (uint32_t i = 0; i < data.size(); ++i) {
    const float dist = L2Sqr(mean.data(), data.Row(i), data.dim());
    if (dist < best) {
      best = dist;
      entry_point_ = i;
    }
  }

  preprocessing_seconds_ = timer.Seconds();
  build_stats_ = base_->build_stats();
  build_stats_.seconds += preprocessing_seconds_;
}

std::vector<ScoredId> LearnedRoutingIndex::SearchScored(
    SearchScratch& scratch, const float* query, const SearchParams& params,
    QueryStats* stats) const {
  WEAVESS_CHECK(data_ != nullptr);
  const CsrGraph& graph = base_->graph();
  SearchContext& ctx = scratch.ctx;
  ctx.BeginQuery(data_->size());
  ctx.ArmBudget(params.max_distance_evals, params.time_budget_us,
                params.clock);
  DistanceOracle oracle(*data_, &ctx.counter);

  // Query embedding: m true distance evaluations, paid once per query.
  const uint32_t m = params_.num_landmarks;
  std::vector<float> query_embedding(m);
  for (uint32_t l = 0; l < m; ++l) {
    query_embedding[l] =
        std::sqrt(oracle.ToQuery(query, landmarks_[l]));
  }

  CandidatePool& pool = scratch.pool;
  pool.Reset(std::max(params.pool_size, params.k));
  SeedPool({entry_point_}, query, oracle, ctx, pool);

  // Best-first search with surrogate-guided neighbor filtering: only the
  // top `evaluate_fraction` of each adjacency list (ranked by embedding
  // distance) receives a true distance evaluation.
  std::vector<std::pair<float, uint32_t>> ranked;
  size_t next;
  while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      break;
    }
    const uint32_t current = pool[next].id;
    pool.MarkChecked(next);
    ++ctx.hops;
    const auto neighbors = graph.Neighbors(current);
    ranked.clear();
    ranked.reserve(neighbors.size());
    for (uint32_t neighbor : neighbors) {
      if (ctx.visited.Visited(neighbor)) continue;
      ranked.emplace_back(SurrogateDistance(query_embedding.data(), neighbor),
                          neighbor);
    }
    const size_t evaluate = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(
               ranked.size() * params_.evaluate_fraction)));
    if (evaluate < ranked.size()) {
      std::partial_sort(ranked.begin(), ranked.begin() + evaluate,
                        ranked.end());
    }
    for (size_t i = 0; i < std::min(evaluate, ranked.size()); ++i) {
      const uint32_t neighbor = ranked[i].second;
      if (ctx.visited.CheckAndMark(neighbor)) continue;
      pool.Insert(Neighbor(neighbor, oracle.ToQuery(query, neighbor)));
    }
  }
  ctx.WriteStats(stats);
  return pool.TopScored(params.k);
}

size_t LearnedRoutingIndex::IndexMemoryBytes() const {
  return base_->IndexMemoryBytes() + embeddings_.size() * sizeof(float) +
         landmarks_.size() * sizeof(uint32_t);
}

}  // namespace weavess
