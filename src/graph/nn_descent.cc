#include "graph/nn_descent.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "core/parallel.h"
#include "core/rng.h"

namespace weavess {

NnDescent::NnDescent(const Dataset& data, const NnDescentParams& params,
                     DistanceCounter* counter)
    : data_(&data), params_(params), counter_(counter) {
  WEAVESS_CHECK(data.size() >= 2);
  WEAVESS_CHECK(params.k >= 1);
  pool_capacity_ =
      params.pool_size > 0 ? params.pool_size : params.k + 30;
  pool_capacity_ = std::min(pool_capacity_, data.size() - 1);
  pool_capacity_ = std::max(pool_capacity_, params.k);
  pools_.resize(data.size());
  for (auto& pool : pools_) pool.reserve(pool_capacity_ + 1);
}

bool NnDescent::InsertIntoPool(uint32_t node, uint32_t id, float distance) {
  if (id == node) return false;
  auto& pool = pools_[node];
  if (pool.size() == pool_capacity_ && distance >= pool.back().distance) {
    return false;
  }
  const Neighbor candidate(id, distance, /*checked=*/false);
  auto it = std::lower_bound(pool.begin(), pool.end(), candidate,
                             [](const Neighbor& a, const Neighbor& b) {
                               return a.distance < b.distance;
                             });
  // Reject duplicates within the run of equal distances.
  for (auto probe = it; probe != pool.end() && probe->distance == distance;
       ++probe) {
    if (probe->id == id) return false;
  }
  if (it != pool.begin()) {
    for (auto probe = std::prev(it); probe->distance == distance; --probe) {
      if (probe->id == id) return false;
      if (probe == pool.begin()) break;
    }
  }
  pool.insert(it, candidate);
  if (pool.size() > pool_capacity_) pool.pop_back();
  return true;
}

void NnDescent::InitRandom() {
  Rng rng(params_.seed);
  DistanceOracle oracle(*data_, counter_);
  const uint32_t n = data_->size();
  const uint32_t want = std::min(pool_capacity_, n - 1);
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t added = 0;
    // Sample a few extra to absorb self/duplicate rejections.
    for (uint32_t attempt = 0; attempt < want * 3 && added < want;
         ++attempt) {
      const auto j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j == i) continue;
      if (InsertIntoPool(i, j, oracle.Between(i, j))) ++added;
    }
    // The 3x oversampling above can still under-fill on small or
    // duplicate-heavy datasets (birthday collisions eat the attempts), so
    // top up with the same guarded loop InitFromGraph uses. Extra rng
    // draws happen only when the pool is actually short, so full pools —
    // the common case — consume an unchanged stream.
    uint32_t guard = 0;
    while (pools_[i].size() < want && guard++ < 4 * want) {
      const auto j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j != i) InsertIntoPool(i, j, oracle.Between(i, j));
    }
    // Last resort at n ≈ k, where random draws need coupon-collector luck:
    // a deterministic sweep (no rng consumed) guarantees every pool holds
    // min(pool_capacity, n-1) entries, so every vertex joins every round.
    for (uint32_t j = 0; pools_[i].size() < want && j < n; ++j) {
      if (j != i) InsertIntoPool(i, j, oracle.Between(i, j));
    }
  }
}

void NnDescent::InitFromGraph(const Graph& initial) {
  WEAVESS_CHECK(initial.size() == data_->size());
  DistanceOracle oracle(*data_, counter_);
  Rng rng(params_.seed);
  const uint32_t n = data_->size();
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j : initial.Neighbors(i)) {
      InsertIntoPool(i, j, oracle.Between(i, j));
    }
    // Top up sparse pools so every vertex participates in joins.
    uint32_t guard = 0;
    while (pools_[i].size() < std::min<size_t>(params_.k, n - 1) &&
           guard++ < 4 * params_.k) {
      const auto j = static_cast<uint32_t>(rng.NextBounded(n));
      if (j != i) InsertIntoPool(i, j, oracle.Between(i, j));
    }
  }
}

// Staging shared by one Run's joins: allocated once, so workers stop
// re-growing buffers every round.
struct NnDescent::JoinStaging {
  JoinStaging(uint32_t n, uint32_t worker_count)
      : workers(worker_count),
        stripes(std::min(worker_count, n)),
        stripe_width((n + stripes - 1) / stripes),
        triples(new StagedCandidate[kStagingBudget]),
        worst(n),
        scratch(worker_count) {
    for (Worker& w : scratch) w.by_stripe.resize(stripes);
  }

  const uint32_t workers;
  const uint32_t stripes;
  const uint32_t stripe_width;
  // Kept triples of the current block. Block pivot j owns the slice that
  // starts at the sum of its predecessors' worst cases; with c = j *
  // (stripes + 1), its stripe-s triples span [cuts[c + s], cuts[c + s + 1]).
  uint64_t capacity = kStagingBudget;
  std::unique_ptr<StagedCandidate[]> triples;
  std::vector<uint32_t> pivots;  // the current block, ascending
  std::vector<uint64_t> cuts;
  std::vector<float> worst;  // frozen admission bounds, see Join
  // Workers append to their own buckets concurrently, so each worker and
  // each bucket's header sits on its own cache line.
  struct alignas(64) Bucket {
    std::vector<StagedCandidate> kept;
  };
  struct alignas(64) Worker {
    std::vector<uint32_t> jn, jo;
    std::vector<Bucket> by_stripe;
  };
  std::vector<Worker> scratch;
};

uint32_t NnDescent::Run() {
  const uint32_t n = data_->size();
  Rng rng(params_.seed ^ 0xdecafULL);
  JoinStaging staging(n, std::max(1u, params_.num_threads));
  std::vector<std::vector<uint32_t>> new_lists(n), old_lists(n);
  std::vector<std::vector<uint32_t>> reverse_new(n), reverse_old(n);

  uint32_t iterations_run = 0;
  for (uint32_t iter = 0; iter < params_.iterations; ++iter) {
    ++iterations_run;
    // --- Sampling phase: split each pool into sampled-new and old. ---
    // Sequential on purpose: it is rng-driven and distance-free, so it
    // costs little and keeps one canonical stream at every thread count.
    for (uint32_t i = 0; i < n; ++i) {
      auto& pool = pools_[i];
      new_lists[i].clear();
      old_lists[i].clear();
      reverse_new[i].clear();
      reverse_old[i].clear();
      uint32_t sampled = 0;
      for (auto& entry : pool) {
        if (!entry.checked && sampled < params_.sample_size) {
          new_lists[i].push_back(entry.id);
          entry.checked = true;  // joined once; becomes old
          ++sampled;
        } else {
          old_lists[i].push_back(entry.id);
        }
      }
    }
    // --- Reverse phase: invert the sampled lists, then subsample R. ---
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t j : new_lists[i]) reverse_new[j].push_back(i);
      for (uint32_t j : old_lists[i]) reverse_old[j].push_back(i);
    }
    auto subsample = [&rng](std::vector<uint32_t>& list, uint32_t cap) {
      if (list.size() <= cap) return;
      for (uint32_t t = 0; t < cap; ++t) {
        const auto pick =
            t + static_cast<uint32_t>(rng.NextBounded(list.size() - t));
        std::swap(list[t], list[pick]);
      }
      list.resize(cap);
    };
    for (uint32_t i = 0; i < n; ++i) {
      subsample(reverse_new[i], params_.reverse_sample);
      subsample(reverse_old[i], params_.reverse_sample);
    }
    // --- Local join: new x new and new x old around every vertex. ---
    const uint64_t updates =
        Join(new_lists, old_lists, reverse_new, reverse_old, staging);
    if (updates < params_.delta * static_cast<double>(n) * params_.k) break;
  }
  return iterations_run;
}

uint64_t NnDescent::Join(const std::vector<std::vector<uint32_t>>& new_lists,
                         const std::vector<std::vector<uint32_t>>& old_lists,
                         const std::vector<std::vector<uint32_t>>& rev_new,
                         const std::vector<std::vector<uint32_t>>& rev_old,
                         JoinStaging& st) {
  // Equivalence argument (pinned in graph_construction_test.cc): the
  // sequential join visits pivots in id order and, per pivot, emits
  // InsertIntoPool calls in a fixed pair order. Each call reads and writes
  // only the target's pool, so the final pool state is fully determined by
  // the per-pool call sequence. Here workers stage each pivot's (target,
  // id, distance) triples — pure functions of the frozen join lists —
  // grouped by target stripe, and each stripe replays its pivots in
  // order, so every pool sees the sequential call sequence. Triples that
  // the replay would reject are dropped at stage time (see `worst`).
  const uint32_t n = data_->size();
  const uint32_t stripes = st.stripes;
  WorkerDistanceCounters counters(st.workers);
  std::vector<uint64_t> stripe_updates(stripes, 0);

  // Admission bound per target, frozen while a block stages: the worst
  // distance of a full pool, NaN for a pool that is not full. A full pool
  // stays full and its worst distance never grows, so `dist >= worst[t]`
  // means InsertIntoPool would reject the triple on replay; against NaN
  // the test is false for every distance (+inf and NaN included), just as
  // InsertIntoPool's own test is false for a pool with room. Finite rows
  // never produce NaN distances, so a full pool's bound is never NaN.
  auto bound = [this](uint32_t t) {
    const auto& pool = pools_[t];
    return pool.size() == pool_capacity_
               ? pool.back().distance
               : std::numeric_limits<float>::quiet_NaN();
  };
  std::vector<float>& worst = st.worst;
  for (uint32_t t = 0; t < n; ++t) worst[t] = bound(t);

  // Triples pivot i can stage at most: one per direction of every pair.
  auto worst_case = [&](uint32_t i) -> uint64_t {
    const uint64_t jn = new_lists[i].size() + rev_new[i].size();
    const uint64_t jo = old_lists[i].size() + rev_old[i].size();
    return jn == 0 ? 0 : jn * (jn - 1) + 2 * jn * jo;
  };

  for (uint32_t next = 0; next < n;) {
    // Take pivots while their worst cases fit the budget (at least one).
    st.pivots.clear();
    st.cuts.clear();
    uint64_t block_worst = 0;
    for (; next < n; ++next) {
      const uint64_t cost = worst_case(next);
      if (cost == 0) continue;  // no new entry: joins no pair
      if (!st.pivots.empty() && block_worst + cost > kStagingBudget) break;
      st.pivots.push_back(next);
      st.cuts.push_back(block_worst);
      st.cuts.resize(st.cuts.size() + stripes);
      block_worst += cost;
    }
    if (st.pivots.empty()) break;
    if (block_worst > st.capacity) {  // one pivot alone exceeds the budget
      st.triples.reset(new StagedCandidate[block_worst]);
      st.capacity = block_worst;
    }
    // Stage: every join pair around the block's pivots, in the sequential
    // visit order. Distance-heavy; parallel over pivots.
    ParallelForWithWorker(
        0, static_cast<uint32_t>(st.pivots.size()), st.workers,
        [&](uint32_t j, uint32_t worker) {
          const uint32_t i = st.pivots[j];
          DistanceOracle oracle(*data_, &counters.of(worker));
          JoinStaging::Worker& w = st.scratch[worker];
          for (JoinStaging::Bucket& out : w.by_stripe) out.kept.clear();
          auto stage = [&](uint32_t target, uint32_t id, float dist) {
            if (dist >= worst[target]) return;
            w.by_stripe[target / st.stripe_width].kept.push_back(
                {target, id, dist});
          };
          auto& jn = w.jn;
          jn.assign(new_lists[i].begin(), new_lists[i].end());
          jn.insert(jn.end(), rev_new[i].begin(), rev_new[i].end());
          auto& jo = w.jo;
          jo.assign(old_lists[i].begin(), old_lists[i].end());
          jo.insert(jo.end(), rev_old[i].begin(), rev_old[i].end());
          for (size_t a = 0; a < jn.size(); ++a) {
            const uint32_t u = jn[a];
            for (size_t b = a + 1; b < jn.size(); ++b) {
              const uint32_t v = jn[b];
              if (u == v) continue;
              const float dist = oracle.Between(u, v);
              stage(u, v, dist);
              stage(v, u, dist);
            }
            for (uint32_t v : jo) {
              if (u == v) continue;
              const float dist = oracle.Between(u, v);
              stage(u, v, dist);
              stage(v, u, dist);
            }
          }
          uint64_t* cut = &st.cuts[static_cast<size_t>(j) * (stripes + 1)];
          for (uint32_t s = 0; s < stripes; ++s) {
            const auto& kept = w.by_stripe[s].kept;
            std::copy(kept.begin(), kept.end(), st.triples.get() + cut[s]);
            cut[s + 1] = cut[s] + kept.size();
          }
        });
    uint64_t kept = 0;
    for (size_t j = 0; j < st.pivots.size(); ++j) {
      kept += st.cuts[(j + 1) * (stripes + 1) - 1] -
              st.cuts[j * (stripes + 1)];
    }
    peak_staged_ = std::max(peak_staged_, kept);
    // Replay: stripes own disjoint pools and bounds, so they commit in
    // parallel; each replays its pivots in block order.
    ParallelFor(0, stripes, st.workers, [&](uint32_t s) {
      uint64_t local = 0;
      for (size_t j = 0; j < st.pivots.size(); ++j) {
        const uint64_t* cut = &st.cuts[j * (stripes + 1)];
        for (uint64_t at = cut[s]; at < cut[s + 1]; ++at) {
          const StagedCandidate& c = st.triples[at];
          if (!InsertIntoPool(c.target, c.id, c.distance)) continue;
          ++local;
          worst[c.target] = bound(c.target);
        }
      }
      stripe_updates[s] += local;
    });
  }
  // Updates and distance evaluations fold in a fixed order; both are sums
  // of per-pool / per-pivot quantities that do not depend on the thread
  // count, so the totals match the sequential join exactly.
  uint64_t updates = 0;
  for (const uint64_t u : stripe_updates) updates += u;
  counters.FoldInto(counter_);
  return updates;
}

Graph NnDescent::ExtractGraph(uint32_t k) const {
  const uint32_t n = data_->size();
  Graph graph(n);
  for (uint32_t i = 0; i < n; ++i) {
    const auto& pool = pools_[i];
    auto& list = graph.MutableNeighbors(i);
    const size_t take = std::min<size_t>(k, pool.size());
    list.reserve(take);
    for (size_t t = 0; t < take; ++t) list.push_back(pool[t].id);
  }
  return graph;
}

}  // namespace weavess
