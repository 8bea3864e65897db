#include "core/thread_pool.h"

#include <algorithm>

namespace weavess {

namespace {

// Whether this thread is inside a task of a parallel batch (InParallelTask).
thread_local bool t_in_parallel_task = false;

}  // namespace

ThreadPool::ThreadPool(uint32_t num_workers) {
  threads_.reserve(num_workers);
  for (uint32_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

bool ThreadPool::InParallelTask() { return t_in_parallel_task; }

void ThreadPool::DrainBatch(Batch& batch) {
  const bool outer = t_in_parallel_task;
  t_in_parallel_task = outer || batch.parallel;
  for (;;) {
    const uint32_t task =
        batch.next_task.fetch_add(1, std::memory_order_relaxed);
    if (task >= batch.num_tasks) break;
    std::exception_ptr error;
    try {
      (*batch.body)(task);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (error != nullptr && batch.first_error == nullptr) {
      batch.first_error = error;
    }
    if (--batch.unfinished == 0) batch.done_cv.notify_all();
  }
  t_in_parallel_task = outer;
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !pending_.empty(); });
    if (stop_) return;
    // Drop exhausted batches (their owner erases them too; whichever side
    // gets there first wins) and pick the oldest batch with open tasks.
    if (pending_.front()->Exhausted()) {
      pending_.pop_front();
      continue;
    }
    const std::shared_ptr<Batch> batch = pending_.front();
    lock.unlock();
    DrainBatch(*batch);
    lock.lock();
  }
}

void ThreadPool::RunTasks(uint32_t num_tasks,
                          const std::function<void(uint32_t)>& body) {
  if (num_tasks == 0) return;
  auto batch = std::make_shared<Batch>();
  batch->body = &body;
  batch->num_tasks = num_tasks;
  batch->unfinished = num_tasks;
  batch->parallel = !threads_.empty() && num_tasks > 1;

  if (batch->parallel) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(batch);
    }
    work_cv_.notify_all();
  }

  DrainBatch(*batch);

  std::unique_lock<std::mutex> lock(mu_);
  batch->done_cv.wait(lock, [&] { return batch->unfinished == 0; });
  if (batch->parallel) {
    // Remove the (now exhausted) batch so the queue cannot grow while the
    // workers are parked.
    auto it = std::find(pending_.begin(), pending_.end(), batch);
    if (it != pending_.end()) pending_.erase(it);
  }
  const std::exception_ptr error = batch->first_error;
  lock.unlock();
  if (error != nullptr) std::rethrow_exception(error);
}

ThreadPool& SharedThreadPool() {
  static ThreadPool* const pool = new ThreadPool(
      std::max(4u, std::thread::hardware_concurrency()) - 1);
  return *pool;
}

}  // namespace weavess
