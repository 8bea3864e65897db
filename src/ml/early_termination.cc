#include "ml/early_termination.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"
#include "core/rng.h"
#include "core/timer.h"

namespace weavess {

namespace {

// Budget ladder used both to label training queries and to clamp
// predictions.
std::vector<uint32_t> Ladder(uint32_t probe, uint32_t max_pool) {
  std::vector<uint32_t> ladder;
  for (uint32_t v = probe; v < max_pool; v = v * 3 / 2 + 1) {
    ladder.push_back(v);
  }
  ladder.push_back(max_pool);
  return ladder;
}

}  // namespace

EarlyTerminationIndex::EarlyTerminationIndex(std::unique_ptr<AnnIndex> base,
                                             const Params& params)
    : base_(std::move(base)), params_(params) {
  WEAVESS_CHECK(base_ != nullptr);
  WEAVESS_CHECK(params.probe_pool >= 10);
}

EarlyTerminationIndex::~EarlyTerminationIndex() = default;

EarlyTerminationIndex::Features EarlyTerminationIndex::ProbeFeatures(
    SearchScratch& scratch, const float* query, const SearchParams& params,
    QueryStats* stats, std::vector<ScoredId>* result) const {
  SearchParams probe;
  probe.k = std::min(params.k, params_.probe_pool);
  probe.pool_size = params_.probe_pool;
  probe.max_distance_evals = params.max_distance_evals;
  probe.time_budget_us = params.time_budget_us;
  probe.clock = params.clock;
  *result = base_->SearchScored(scratch, query, probe, stats);
  Features f{1.0, 1.0};
  if (!result->empty()) {
    const float best = result->front().distance;
    const float worst = result->back().distance;
    f.probe_best = std::max(1e-12, static_cast<double>(best));
    f.probe_spread =
        best > 0.0f ? static_cast<double>(worst) / best : 1.0;
  }
  return f;
}

double EarlyTerminationIndex::PredictPool(const Features& f) const {
  return weights_[0] + weights_[1] * std::log(f.probe_best) +
         weights_[2] * f.probe_spread;
}

void EarlyTerminationIndex::Build(const Dataset& data) {
  base_->Build(data);
  Timer timer;

  // --- Training: per-query oracle labels (smallest budget whose top-1
  // matches the max-budget answer), regressed on probe features. ---
  Rng rng(params_.seed);
  const uint32_t train =
      std::min(params_.train_queries, data.size());
  const std::vector<uint32_t> picks = rng.SampleDistinct(data.size(), train);
  const std::vector<uint32_t> ladder =
      Ladder(params_.probe_pool, params_.max_pool);

  // Normal equations for 3 weights.
  SearchScratch scratch;
  std::vector<ScoredId> probed;
  SearchParams full;  // unbudgeted; the probe takes only its k
  full.k = 1;
  full.pool_size = params_.max_pool;
  double xtx[3][3] = {{0}};
  double xty[3] = {0};
  for (uint32_t pick : picks) {
    const float* query = data.Row(pick);
    const Features f = ProbeFeatures(scratch, query, full, nullptr, &probed);
    const std::vector<uint32_t> oracle = base_->Search(query, full);
    if (oracle.empty()) continue;
    double label = params_.max_pool;
    for (uint32_t budget : ladder) {
      SearchParams trial;
      trial.k = 1;
      trial.pool_size = budget;
      const std::vector<uint32_t> result = base_->Search(query, trial);
      if (!result.empty() && result.front() == oracle.front()) {
        label = budget;
        break;
      }
    }
    const double x[3] = {1.0, std::log(f.probe_best), f.probe_spread};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) xtx[a][b] += x[a] * x[b];
      xty[a] += x[a] * label;
    }
  }
  // Solve the 3x3 system by Gaussian elimination with a ridge term.
  for (int a = 0; a < 3; ++a) xtx[a][a] += 1e-6;
  double m[3][4];
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) m[a][b] = xtx[a][b];
    m[a][3] = xty[a];
  }
  for (int col = 0; col < 3; ++col) {
    int pivot = col;
    for (int r = col + 1; r < 3; ++r) {
      if (std::fabs(m[r][col]) > std::fabs(m[pivot][col])) pivot = r;
    }
    std::swap(m[col], m[pivot]);
    if (std::fabs(m[col][col]) < 1e-12) continue;
    for (int r = 0; r < 3; ++r) {
      if (r == col) continue;
      const double factor = m[r][col] / m[col][col];
      for (int c = col; c < 4; ++c) m[r][c] -= factor * m[col][c];
    }
  }
  for (int a = 0; a < 3; ++a) {
    weights_[a] = std::fabs(m[a][a]) < 1e-12 ? 0.0 : m[a][3] / m[a][a];
  }
  training_seconds_ = timer.Seconds();
  build_stats_ = base_->build_stats();
  build_stats_.seconds += training_seconds_;
}

std::vector<ScoredId> EarlyTerminationIndex::SearchScored(
    SearchScratch& scratch, const float* query, const SearchParams& params,
    QueryStats* stats) const {
  const ProbeBudget budget(params);
  QueryStats probe_stats;
  std::vector<ScoredId> result;
  const Features f =
      ProbeFeatures(scratch, query, params, &probe_stats, &result);
  // A probe that spent a whole budget answers the query itself, truncated;
  // otherwise the main search gets only what the probe left of each budget.
  SearchParams adaptive;
  if (!budget.Left(probe_stats, &adaptive)) {
    if (stats != nullptr) {
      stats->distance_evals = probe_stats.distance_evals;
      stats->hops = probe_stats.hops;
      stats->truncated = true;
    }
    return result;
  }
  // The caller's pool_size acts as a *multiplier knob* on the predicted
  // budget, preserving the sweepable tradeoff: scale = pool / 100.
  const double scale = static_cast<double>(params.pool_size) / 100.0;
  const double predicted = PredictPool(f) * scale;
  adaptive.pool_size = static_cast<uint32_t>(
      std::clamp(predicted, static_cast<double>(params_.probe_pool),
                 static_cast<double>(params_.max_pool)));
  adaptive.pool_size = std::max(adaptive.pool_size, params.k);
  QueryStats main_stats;
  result = base_->SearchScored(scratch, query, adaptive, &main_stats);
  if (stats != nullptr) {
    stats->distance_evals =
        probe_stats.distance_evals + main_stats.distance_evals;
    stats->hops = probe_stats.hops + main_stats.hops;
    stats->truncated = main_stats.truncated;
  }
  return result;
}

size_t EarlyTerminationIndex::IndexMemoryBytes() const {
  return base_->IndexMemoryBytes() + sizeof(weights_);
}

}  // namespace weavess
