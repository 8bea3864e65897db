// Routing strategies (component C7, Definition 4.6): best-first search and
// the variants the paper catalogues — NGT's ε-range search, FANNG's
// backtracking, HCNNG's guided search, and the two-stage routing of the
// optimized algorithm (§6).
//
// The routers are templates over the adjacency representation so the same
// code runs on the build-time Graph (vector-of-vectors) and on the
// search-time CsrGraph / AlignedGraph flat layouts (core/flat_graph.h,
// Appendix I). The hot loop is cache-conscious: each expansion gathers the
// unvisited neighbors, evaluates them with one ToQueryBatch call, and
// prefetches the adjacency block of the best new candidate — the likeliest
// next expansion. The float and SQ8 oracles' ToQueryBatch is one batched
// kernel call that software-prefetches upcoming rows; HNSW's RowOracle
// evaluates its paged rows one at a time, without prefetch. Batched
// evaluation is bit-for-bit identical to the per-neighbor form
// (docs/KERNELS.md), so routing order, recall, and NDC never depend on it.
#ifndef WEAVESS_SEARCH_ROUTER_H_
#define WEAVESS_SEARCH_ROUTER_H_

#include <cmath>
#include <cstdint>
#include <queue>
#include <vector>

#include "core/budget.h"
#include "core/distance.h"
#include "core/graph.h"
#include "core/neighbor.h"
#include "core/prefetch.h"
#include "core/search_context.h"
#include "core/visited_list.h"

namespace weavess {

/// Marks `id` visited and traces it as a seed; false when it already was
/// visited. SeedPool's per-entry step, also taken by seed stages whose
/// entry arrives scored (HNSW's descent).
inline bool AdmitSeed(uint32_t id, SearchContext& ctx) {
  if (ctx.visited.CheckAndMark(id)) return false;
  if (ctx.trace != nullptr) ctx.trace->Record(TraceEventKind::kSeed, id);
  return true;
}

/// Evaluates `ids` against the query and inserts them into the pool,
/// marking them visited. The common entry step for all routers. Templated
/// on the oracle (DistanceOracle over float rows or QuantizedOracle over
/// SQ8 codes) like the routers themselves.
template <typename OracleT>
void SeedPool(const std::vector<uint32_t>& ids, const float* query,
              OracleT& oracle, SearchContext& ctx, CandidatePool& pool) {
  for (uint32_t id : ids) {
    if (AdmitSeed(id, ctx)) {
      pool.Insert(Neighbor(id, oracle.ToQuery(query, id)));
    }
  }
}

namespace router_detail {

// Trace helpers: one branch when tracing is off (the common case).
inline void TraceExpand(SearchContext& ctx, uint32_t vertex) {
  if (ctx.trace != nullptr) {
    ctx.trace->Record(TraceEventKind::kExpand, vertex);
  }
}

inline void TraceTruncated(SearchContext& ctx) {
  if (ctx.trace != nullptr) {
    ctx.trace->Record(TraceEventKind::kTruncated, 0, ctx.counter.count);
  }
}

// Evaluates the first `n` ids in ctx.batch_ids with one batched kernel
// call, leaving distances in ctx.batch_dists (bit-for-bit equal to per-id
// ToQuery calls, same NDC accounting).
template <typename OracleT>
inline void EvalGathered(const float* query, OracleT& oracle,
                         SearchContext& ctx, size_t n) {
  ctx.batch_dists.resize(n);
  oracle.ToQueryBatch(query, ctx.batch_ids.data(), n, ctx.batch_dists.data());
}

// Gathers the not-yet-visited neighbors (marking them visited) into the
// first entries of ctx.batch_ids and batch-evaluates them. Returns the
// gathered count; entries past it are stale. Branch-free: every id is
// written at the output cursor, which advances only past fresh ones, so
// the next id overwrites a visited one.
template <typename Range, typename OracleT>
inline size_t GatherAndEval(const Range& neighbors, const float* query,
                            OracleT& oracle, SearchContext& ctx) {
  if (ctx.batch_ids.size() < neighbors.size()) {
    ctx.batch_ids.resize(neighbors.size());
  }
  uint32_t* out = ctx.batch_ids.data();
  size_t n = 0;
  for (uint32_t neighbor : neighbors) {
    out[n] = neighbor;
    n += !ctx.visited.CheckAndMark(neighbor);
  }
  EvalGathered(query, oracle, ctx, n);
  return n;
}

// Warms the cache for the likeliest next expansion: the adjacency block of
// `vertex` and its first neighbor ids. A hint only — never changes results.
template <typename GraphT>
inline void PrefetchAdjacency(const GraphT& graph, uint32_t vertex) {
  auto&& block = graph.Neighbors(vertex);
  if (block.size() != 0) {
    PrefetchRegion(block.data(), block.size() * sizeof(uint32_t));
  }
}

// Dominant dimension of the query direction at `row`: the coordinate with
// the largest |query - row| gap. Guided search only follows neighbors that
// agree with the query's sign on that coordinate.
inline uint32_t DominantDim(const float* row, const float* query,
                            uint32_t dim) {
  uint32_t best = 0;
  float best_gap = -1.0f;
  for (uint32_t d = 0; d < dim; ++d) {
    const float gap = std::fabs(query[d] - row[d]);
    if (gap > best_gap) {
      best_gap = gap;
      best = d;
    }
  }
  return best;
}

}  // namespace router_detail

/// Best-first search (Algorithm 1): iteratively expands the closest
/// unchecked pool entry until the pool stops improving. The pool must
/// already contain the seeds. Each expansion counts one hop. Generic over
/// the oracle: the same traversal runs on float rows (DistanceOracle) or
/// SQ8 codes (QuantizedOracle) — only the per-candidate metric changes.
template <typename GraphT, typename OracleT>
void BestFirstSearch(const GraphT& graph, const float* query, OracleT& oracle,
                     SearchContext& ctx, CandidatePool& pool) {
  size_t next;
  while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      router_detail::TraceTruncated(ctx);
      return;
    }
    const uint32_t current = pool[next].id;
    pool.MarkChecked(next);
    ++ctx.hops;
    router_detail::TraceExpand(ctx, current);
    const size_t n = router_detail::GatherAndEval(graph.Neighbors(current),
                                                  query, oracle, ctx);
    if (n == 0) continue;
    uint32_t best_id = ctx.batch_ids[0];
    float best_dist = ctx.batch_dists[0];
    for (size_t i = 0; i < n; ++i) {
      pool.Insert(Neighbor(ctx.batch_ids[i], ctx.batch_dists[i]));
      if (ctx.batch_dists[i] < best_dist) {
        best_dist = ctx.batch_dists[i];
        best_id = ctx.batch_ids[i];
      }
    }
    router_detail::PrefetchAdjacency(graph, best_id);
  }
}

/// FANNG-style best-first with backtracking: after convergence, up to
/// `backtrack_budget` additional already-seen vertices (kept in an overflow
/// queue) are expanded, trading time for accuracy.
template <typename GraphT, typename OracleT>
void BacktrackSearch(const GraphT& graph, const float* query, OracleT& oracle,
                     SearchContext& ctx, CandidatePool& pool,
                     uint32_t backtrack_budget) {
  // Overflow queue of evaluated-but-unexpanded vertices that did not make
  // (or fell out of) the pool; backtracking resumes from these.
  std::priority_queue<Neighbor, std::vector<Neighbor>,
                      std::greater<Neighbor>>
      overflow;
  auto expand = [&](uint32_t current) {
    ++ctx.hops;
    router_detail::TraceExpand(ctx, current);
    const size_t n = router_detail::GatherAndEval(graph.Neighbors(current),
                                                  query, oracle, ctx);
    for (size_t i = 0; i < n; ++i) {
      const Neighbor candidate(ctx.batch_ids[i], ctx.batch_dists[i]);
      if (pool.Insert(candidate) == CandidatePool::kNpos) {
        overflow.push(candidate);
      }
    }
  };
  size_t next;
  while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      router_detail::TraceTruncated(ctx);
      return;
    }
    const uint32_t current = pool[next].id;
    pool.MarkChecked(next);
    expand(current);
  }
  // Converged: backtrack to the closest unexplored vertices seen so far.
  uint32_t spent = 0;
  while (spent < backtrack_budget && !overflow.empty()) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      router_detail::TraceTruncated(ctx);
      return;
    }
    const Neighbor candidate = overflow.top();
    overflow.pop();
    ++spent;
    expand(candidate.id);
    // Expansion may have refilled the pool with unchecked improvements.
    while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
      if (ctx.BudgetExhausted()) {
        ctx.truncated = true;
        router_detail::TraceTruncated(ctx);
        return;
      }
      const uint32_t current = pool[next].id;
      pool.MarkChecked(next);
      expand(current);
    }
  }
}

/// NGT's range search: the frontier is unbounded and a neighbor enters it
/// while δ(n, q) < (1+ε)·r, where r is the current worst result distance.
/// Larger ε escapes local optima at the cost of search time (§4.2 C7).
template <typename GraphT, typename OracleT>
void RangeSearch(const GraphT& graph, const float* query, OracleT& oracle,
                 SearchContext& ctx, CandidatePool& pool, float epsilon) {
  const float expansion = (1.0f + epsilon) * (1.0f + epsilon);  // squared l2
  std::priority_queue<Neighbor, std::vector<Neighbor>,
                      std::greater<Neighbor>>
      frontier;
  for (const Neighbor& seed : pool.entries()) frontier.push(seed);
  while (!frontier.empty()) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      router_detail::TraceTruncated(ctx);
      return;
    }
    const Neighbor current = frontier.top();
    frontier.pop();
    const float radius = pool.WorstDistance();
    if (pool.full() && current.distance > expansion * radius) break;
    ++ctx.hops;
    router_detail::TraceExpand(ctx, current.id);
    const size_t n = router_detail::GatherAndEval(graph.Neighbors(current.id),
                                                  query, oracle, ctx);
    for (size_t i = 0; i < n; ++i) {
      const Neighbor candidate(ctx.batch_ids[i], ctx.batch_dists[i]);
      // The admission radius tightens as earlier batch entries land in the
      // pool — same thresholds the per-neighbor loop would have seen.
      if (candidate.distance < expansion * pool.WorstDistance()) {
        frontier.push(candidate);
        pool.Insert(candidate);
      }
    }
  }
}

/// HCNNG's guided search: when expanding a vertex, neighbors lying on the
/// wrong side of the dominant query direction are skipped (a coordinate
/// comparison, not a distance evaluation), reducing NDC per hop.
template <typename GraphT>
void GuidedSearch(const GraphT& graph, const Dataset& data, const float* query,
                  DistanceOracle& oracle, SearchContext& ctx,
                  CandidatePool& pool) {
  const uint32_t dim = data.dim();
  size_t next;
  while ((next = pool.NextUnchecked()) != CandidatePool::kNpos) {
    if (ctx.BudgetExhausted()) {
      ctx.truncated = true;
      router_detail::TraceTruncated(ctx);
      return;
    }
    const uint32_t current = pool[next].id;
    pool.MarkChecked(next);
    ++ctx.hops;
    router_detail::TraceExpand(ctx, current);
    const float* row = data.Row(current);
    const uint32_t guide_dim = router_detail::DominantDim(row, query, dim);
    const bool query_side = query[guide_dim] >= row[guide_dim];
    ctx.batch_ids.clear();
    for (uint32_t neighbor : graph.Neighbors(current)) {
      // Direction filter: skip neighbors on the wrong side of the guide
      // coordinate once the pool is warm. Coordinate comparisons only — no
      // distance evaluation is spent on skipped neighbors, and skipped
      // neighbors stay unvisited (a later expansion may admit them).
      if (pool.full()) {
        const bool neighbor_side =
            data.Row(neighbor)[guide_dim] >= row[guide_dim];
        if (neighbor_side != query_side) continue;
      }
      if (ctx.visited.CheckAndMark(neighbor)) continue;
      ctx.batch_ids.push_back(neighbor);
    }
    router_detail::EvalGathered(query, oracle, ctx, ctx.batch_ids.size());
    for (size_t i = 0; i < ctx.batch_ids.size(); ++i) {
      pool.Insert(Neighbor(ctx.batch_ids[i], ctx.batch_dists[i]));
    }
  }
}

/// Two-stage routing of the optimized algorithm (§6): a guided stage to
/// close in on the query region, then plain best-first to polish results.
template <typename GraphT>
void TwoStageSearch(const GraphT& graph, const Dataset& data,
                    const float* query, DistanceOracle& oracle,
                    SearchContext& ctx, CandidatePool& pool) {
  // Stage 1: guided search homes in cheaply on the query region.
  GuidedSearch(graph, data, query, oracle, ctx, pool);
  if (ctx.truncated) return;  // budget tripped: keep stage-1 best-so-far
  // Stage 2: re-open the pool entries for full best-first expansion. The
  // visited set persists, so stage 2 only pays for vertices the direction
  // filter skipped.
  CandidatePool refined(pool.capacity());
  for (const Neighbor& entry : pool.entries()) {
    refined.Insert(Neighbor(entry.id, entry.distance));
  }
  BestFirstSearch(graph, query, oracle, ctx, refined);
  pool = std::move(refined);
}

}  // namespace weavess

#endif  // WEAVESS_SEARCH_ROUTER_H_
