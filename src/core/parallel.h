// Chunk-claiming parallel-for over the shared persistent thread pool. The
// paper parallelizes the vector-heavy parts of index construction (§5.1, 32
// threads); this header provides the same capability behind a `num_threads`
// knob that defaults to 1, keeping single-threaded runs bit-for-bit
// deterministic. Work runs on the process-wide condition-variable pool
// (core/thread_pool.h), and an exception thrown by any iteration is
// captured and rethrown on the caller instead of terminating the process.
#ifndef WEAVESS_CORE_PARALLEL_H_
#define WEAVESS_CORE_PARALLEL_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>

#include "core/thread_pool.h"

namespace weavess {

/// Runs fn(i, worker) for every i in [begin, end). With num_threads <= 1
/// the loop runs inline. Otherwise min(num_threads, count) worker tasks
/// claim fixed-size chunks of max(1, count / (workers * 16)) indices from
/// one atomic cursor until the range is used up, so a worker that drew
/// cheap indices takes more chunks instead of idling while a slow one
/// finishes. `fn` must be safe to call concurrently for distinct i, and
/// its effect must not depend on which worker ran it: which indices a slot
/// sees varies from run to run. The worker index (0-based, < num_threads)
/// lets callers keep per-thread scratch (e.g., distance counters): slot t
/// is processed by exactly one thread at a time, so scratch[t] never sees
/// concurrent use. Safe to call from inside a pool task; the caller drains
/// its own chunks when every pool worker is busy. The first exception
/// thrown from any iteration is rethrown after all workers finish (the
/// remaining chunks still run).
inline void ParallelForWithWorker(
    uint32_t begin, uint32_t end, uint32_t num_threads,
    const std::function<void(uint32_t index, uint32_t worker)>& fn) {
  if (end <= begin) return;
  const uint32_t count = end - begin;
  if (num_threads <= 1 || count == 1) {
    for (uint32_t i = begin; i < end; ++i) fn(i, 0);
    return;
  }
  const uint32_t workers = std::min(num_threads, count);
  const uint64_t chunk = std::max<uint64_t>(1, count / (workers * 16ull));
  std::atomic<uint64_t> cursor{0};
  SharedThreadPool().RunTasks(workers, [&](uint32_t t) {
    for (;;) {
      const uint64_t lo = cursor.fetch_add(chunk, std::memory_order_relaxed);
      if (lo >= count) return;
      const uint64_t hi = std::min<uint64_t>(count, lo + chunk);
      for (uint64_t i = begin + lo; i < begin + hi; ++i) {
        fn(static_cast<uint32_t>(i), t);
      }
    }
  });
}

inline void ParallelFor(uint32_t begin, uint32_t end, uint32_t num_threads,
                        const std::function<void(uint32_t index)>& fn) {
  ParallelForWithWorker(begin, end, num_threads,
                        [&fn](uint32_t i, uint32_t) { fn(i); });
}

}  // namespace weavess

#endif  // WEAVESS_CORE_PARALLEL_H_
