#include "graph/neighbor_selection.h"

#include <algorithm>
#include <cmath>

#include "core/check.h"

namespace weavess {

namespace {

// Cosine of the angle ∠(a, p, b) from the squared side lengths, via the law
// of cosines: cos = (|pa|² + |pb|² - |ab|²) / (2 |pa| |pb|).
float CosineAtPoint(float pa_sqr, float pb_sqr, float ab_sqr) {
  const float denom = 2.0f * std::sqrt(pa_sqr) * std::sqrt(pb_sqr);
  if (denom <= 0.0f) return 1.0f;  // coincident points: treat as angle 0
  const float cosine = (pa_sqr + pb_sqr - ab_sqr) / denom;
  return std::clamp(cosine, -1.0f, 1.0f);
}

}  // namespace

std::vector<Neighbor> SelectByDistance(const std::vector<Neighbor>& candidates,
                                       uint32_t max_degree) {
  std::vector<Neighbor> selected(
      candidates.begin(),
      candidates.begin() +
          std::min<size_t>(max_degree, candidates.size()));
  return selected;
}

std::vector<Neighbor> SelectByAngle(DistanceOracle& oracle, uint32_t point,
                                    const std::vector<Neighbor>& candidates,
                                    uint32_t max_degree,
                                    float min_angle_degrees) {
  const float max_cosine =
      std::cos(min_angle_degrees * static_cast<float>(M_PI) / 180.0f);
  std::vector<Neighbor> selected;
  selected.reserve(max_degree);
  for (const Neighbor& candidate : candidates) {
    if (selected.size() >= max_degree) break;
    if (candidate.id == point) continue;
    bool conflict = false;
    for (const Neighbor& kept : selected) {
      if (kept.id == candidate.id) {
        conflict = true;
        break;
      }
      const float between = oracle.Between(candidate.id, kept.id);
      // Angle below threshold ⇔ cosine above threshold's cosine.
      if (CosineAtPoint(candidate.distance, kept.distance, between) >
          max_cosine) {
        conflict = true;
        break;
      }
    }
    if (!conflict) selected.push_back(candidate);
  }
  return selected;
}

std::vector<Neighbor> SelectDpg(DistanceOracle& oracle, uint32_t point,
                                const std::vector<Neighbor>& candidates,
                                uint32_t target_degree) {
  std::vector<Neighbor> selected;
  if (candidates.empty()) return selected;
  std::vector<Neighbor> remaining;
  remaining.reserve(candidates.size());
  for (const Neighbor& c : candidates) {
    if (c.id != point) remaining.push_back(c);
  }
  if (remaining.empty()) return selected;

  // Greedy: start from the closest, then repeatedly add the candidate whose
  // angle sum to the already-selected set is largest (Appendix D gives this
  // O(c²·κ) procedure).
  selected.push_back(remaining.front());
  remaining.erase(remaining.begin());
  std::vector<float> angle_sum(remaining.size(), 0.0f);
  while (selected.size() < target_degree && !remaining.empty()) {
    const Neighbor& latest = selected.back();
    float best_sum = -1.0f;
    size_t best_index = 0;
    for (size_t i = 0; i < remaining.size(); ++i) {
      const float between = oracle.Between(remaining[i].id, latest.id);
      const float cosine =
          CosineAtPoint(remaining[i].distance, latest.distance, between);
      angle_sum[i] += std::acos(cosine);
      if (angle_sum[i] > best_sum) {
        best_sum = angle_sum[i];
        best_index = i;
      }
    }
    selected.push_back(remaining[best_index]);
    remaining.erase(remaining.begin() + best_index);
    angle_sum.erase(angle_sum.begin() + best_index);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::vector<Neighbor> SelectPathAdjustment(
    DistanceOracle& oracle, uint32_t point,
    const std::vector<Neighbor>& candidates, uint32_t max_degree) {
  std::vector<Neighbor> selected;
  selected.reserve(max_degree);
  for (const Neighbor& candidate : candidates) {
    if (selected.size() >= max_degree) break;
    if (candidate.id == point) continue;
    bool bypassed = false;
    for (const Neighbor& kept : selected) {
      if (kept.id == candidate.id) {
        bypassed = true;
        break;
      }
      const float hop = oracle.Between(kept.id, candidate.id);
      // Alternative path p → kept → candidate is strictly shorter on both
      // hops: drop the direct edge.
      if (std::max(kept.distance, hop) < candidate.distance) {
        bypassed = true;
        break;
      }
    }
    if (!bypassed) selected.push_back(candidate);
  }
  return selected;
}

}  // namespace weavess
