// Neighbor selection (component C3, Definition 4.5): the strategies by which
// each algorithm chooses N(p) from candidate set C. The paper proves
// (Appendices A-C) that HNSW's heuristic, NSG's MRNG rule, NGT's path
// adjustment and DPG's angle maximization are all approximations of RNG;
// each variant is implemented separately so the component study (Fig. 10c)
// can compare them faithfully.
#ifndef WEAVESS_GRAPH_NEIGHBOR_SELECTION_H_
#define WEAVESS_GRAPH_NEIGHBOR_SELECTION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/check.h"
#include "core/distance.h"
#include "core/neighbor.h"

namespace weavess {

/// Distance-only selection (KGraph / EFANNA / IEH / NSW): the closest
/// `max_degree` candidates. `candidates` must be sorted ascending.
std::vector<Neighbor> SelectByDistance(const std::vector<Neighbor>& candidates,
                                       uint32_t max_degree);

/// RNG-style heuristic of HNSW / NSG / FANNG with Vamana's α generalization:
/// scanning candidates in ascending distance, keep x iff for every already
/// kept y:  α · δ(x, y) > δ(p, x)  (α = 1 is the plain occlusion rule;
/// α > 1 keeps more, longer edges — Vamana). Distances are squared l2, so
/// the comparison applies α² internally. `candidates` sorted ascending.
/// Writes the kept candidates to `selected` (cleared first), so a caller
/// can reuse one buffer; generic over any oracle with DistanceOracle's
/// Between (HNSW runs it on its paged rows).
template <typename OracleT>
void SelectRng(OracleT& oracle, uint32_t point,
               std::span<const Neighbor> candidates, uint32_t max_degree,
               float alpha, std::vector<Neighbor>& selected) {
  WEAVESS_CHECK(alpha >= 1.0f);
  // Squared distances: α·δ(x,y) > δ(p,x)  ⇔  α²·δ²(x,y) > δ²(p,x).
  const float alpha_sqr = alpha * alpha;
  selected.clear();
  for (const Neighbor& candidate : candidates) {
    if (selected.size() >= max_degree) break;
    if (candidate.id == point) continue;
    bool occluded = false;
    for (const Neighbor& kept : selected) {
      if (kept.id == candidate.id) {
        occluded = true;
        break;
      }
      const float between = oracle.Between(candidate.id, kept.id);
      if (alpha_sqr * between <= candidate.distance) {
        occluded = true;  // kept neighbor y is closer to x than p is
        break;
      }
    }
    if (!occluded) selected.push_back(candidate);
  }
}

inline std::vector<Neighbor> SelectRng(DistanceOracle& oracle, uint32_t point,
                                       const std::vector<Neighbor>& candidates,
                                       uint32_t max_degree,
                                       float alpha = 1.0f) {
  std::vector<Neighbor> selected;
  selected.reserve(max_degree);
  SelectRng(oracle, point, candidates, max_degree, alpha, selected);
  return selected;
}

/// NSSG's angular rule: keep x iff the angle ∠(x, p, y) is at least
/// `min_angle_degrees` for every kept y (paper: θ, optimal near 60°).
std::vector<Neighbor> SelectByAngle(DistanceOracle& oracle, uint32_t point,
                                    const std::vector<Neighbor>& candidates,
                                    uint32_t max_degree,
                                    float min_angle_degrees);

/// DPG's diversification: greedily pick `target_degree` candidates that
/// maximize the sum of pairwise angles at p (Appendix C/D of the paper).
std::vector<Neighbor> SelectDpg(DistanceOracle& oracle, uint32_t point,
                                const std::vector<Neighbor>& candidates,
                                uint32_t target_degree);

/// NGT's path adjustment (Appendix B): walking p's neighbor list in
/// ascending distance, drop n when an alternative 2-hop path p→x→n through
/// a kept neighbor x satisfies max(δ(p,x), δ(x,n)) < δ(p,n).
std::vector<Neighbor> SelectPathAdjustment(
    DistanceOracle& oracle, uint32_t point,
    const std::vector<Neighbor>& candidates, uint32_t max_degree);

}  // namespace weavess

#endif  // WEAVESS_GRAPH_NEIGHBOR_SELECTION_H_
