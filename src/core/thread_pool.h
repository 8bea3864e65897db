// Persistent worker pool behind a condition-variable task queue. Replaces
// the spawn-per-call threading of the original ParallelFor: workers are
// created once and parked on the queue, so a query engine serving thousands
// of small batches pays no thread-creation cost per call.
//
// Execution model: RunTasks(n, body) runs body(0) .. body(n-1) exactly once
// each, claiming indices dynamically. The *calling* thread participates in
// the work, which (a) makes a zero-worker pool a valid sequential executor
// and (b) makes nested RunTasks calls deadlock-free — a caller always
// drains its own batch even when every pool worker is busy elsewhere.
// Tasks must be independent; any two may run concurrently.
//
// Exception safety: the first exception thrown by any task is captured and
// rethrown on the calling thread after every claimed task has finished.
// Remaining tasks still run (in-flight workers cannot be cancelled).
//
// Streams: a batch of more than one task on a pool with workers runs as
// several parallel execution streams, and every thread running one of its
// tasks (caller or worker) is marked as such for the task's duration
// (InParallelTask). Work that could fan out again, like a sharded search's
// legs, reads the mark to stay on its own stream instead.
#ifndef WEAVESS_CORE_THREAD_POOL_H_
#define WEAVESS_CORE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace weavess {

class ThreadPool {
 public:
  /// Spawns `num_workers` parked threads (0 is valid: RunTasks then runs
  /// everything on the caller).
  explicit ThreadPool(uint32_t num_workers);

  /// Joins all workers. Outstanding RunTasks calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_workers() const {
    return static_cast<uint32_t>(threads_.size());
  }

  /// Runs body(i) for every i in [0, num_tasks) across the pool workers
  /// and the calling thread; blocks until all tasks finished. Safe to call
  /// from multiple threads concurrently (batches share the worker set).
  /// Rethrows the first task exception after the batch completes.
  void RunTasks(uint32_t num_tasks, const std::function<void(uint32_t)>& body);

  /// True while the calling thread runs a task of a batch that enlisted
  /// pool workers (more than one task on a pool with workers), directly or
  /// through nested batches of any pool: the thread is then one of several
  /// parallel execution streams.
  static bool InParallelTask();

 private:
  struct Batch {
    const std::function<void(uint32_t)>* body = nullptr;
    uint32_t num_tasks = 0;
    bool parallel = false;  // enlisted the pool's workers
    std::atomic<uint32_t> next_task{0};
    uint32_t unfinished = 0;          // guarded by the pool mutex
    std::exception_ptr first_error;   // guarded by the pool mutex
    std::condition_variable done_cv;  // signalled when unfinished hits 0

    bool Exhausted() const {
      return next_task.load(std::memory_order_relaxed) >= num_tasks;
    }
  };

  void WorkerLoop();
  // Claims and runs tasks from `batch` until none remain unclaimed.
  void DrainBatch(Batch& batch);

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Batch>> pending_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

/// Process-wide pool used by the ParallelFor helpers (core/parallel.h).
/// Sized so that construction-time parallelism is exercised even on small
/// machines: max(4, hardware_concurrency) - 1 workers (the ParallelFor
/// caller is the remaining execution stream). Created on first use.
ThreadPool& SharedThreadPool();

}  // namespace weavess

#endif  // WEAVESS_CORE_THREAD_POOL_H_
