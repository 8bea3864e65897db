// Fault-injection doubles. Two families:
//
//  * Persistence faults — Writer/Reader doubles plugging into the seams of
//    core/file_io.h so the corruption-matrix tests can simulate disks that
//    lie: truncated files, flipped bits, short reads, and writes that fail
//    mid-stream (ENOSPC).
//
//  * Engine-level chaos — an AnnIndex decorator (ChaosIndex) plus a worker
//    gate that simulate slow or failing backends and stalled workers,
//    driven by a VirtualClock (core/clock.h) so overload behavior —
//    shedding, deadline truncation, degradation — is deterministic and
//    reproducible at any thread count (chaos_test.cc, docs/SERVING.md).
#ifndef WEAVESS_TESTS_FAULT_INJECTION_H_
#define WEAVESS_TESTS_FAULT_INJECTION_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>

#include "core/clock.h"
#include "core/file_io.h"
#include "core/index.h"
#include "core/status.h"

namespace weavess::testing {

/// Writer that captures bytes in memory but fails with kIOError once the
/// cumulative size would exceed `capacity` — a deterministic ENOSPC.
class FaultyWriter : public Writer {
 public:
  explicit FaultyWriter(size_t capacity = SIZE_MAX) : capacity_(capacity) {}

  Status Append(const void* data, size_t n) override {
    if (failed_ || bytes_.size() + n > capacity_) {
      failed_ = true;
      return Status::IOError("injected write failure (no space left)");
    }
    bytes_.append(static_cast<const char*>(data), n);
    return Status::OK();
  }

  Status Close() override {
    if (failed_) return Status::IOError("injected write failure at close");
    return Status::OK();
  }

  const std::string& bytes() const { return bytes_; }

 private:
  size_t capacity_;
  bool failed_ = false;
  std::string bytes_;
};

/// Reader over an in-memory buffer that never produces more than
/// `max_chunk` bytes per call, forcing callers to handle short reads.
class ShortReadReader : public Reader {
 public:
  ShortReadReader(std::string bytes, size_t max_chunk)
      : bytes_(std::move(bytes)), max_chunk_(max_chunk) {}

  StatusOr<size_t> Read(void* buffer, size_t n) override {
    const size_t available = bytes_.size() - pos_;
    const size_t take = std::min({n, available, max_chunk_});
    std::memcpy(buffer, bytes_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string bytes_;
  size_t max_chunk_;
  size_t pos_ = 0;
};

/// Reader that serves bytes normally until `fail_after` bytes have been
/// produced, then returns kIOError — a disk that dies mid-read.
class FailingReader : public Reader {
 public:
  FailingReader(std::string bytes, size_t fail_after)
      : bytes_(std::move(bytes)), fail_after_(fail_after) {}

  StatusOr<size_t> Read(void* buffer, size_t n) override {
    if (pos_ >= fail_after_) {
      return Status::IOError("injected read failure");
    }
    const size_t limit = std::min(bytes_.size(), fail_after_);
    const size_t take = std::min(n, limit - pos_);
    std::memcpy(buffer, bytes_.data() + pos_, take);
    pos_ += take;
    return take;
  }

 private:
  std::string bytes_;
  size_t fail_after_;
  size_t pos_ = 0;
};

/// First `length` bytes of `bytes` — a file whose tail was lost.
inline std::string TruncateAt(const std::string& bytes, size_t length) {
  return bytes.substr(0, std::min(length, bytes.size()));
}

/// Copy of `bytes` with one bit inverted.
inline std::string FlipBit(const std::string& bytes, size_t bit_index) {
  std::string out = bytes;
  out[bit_index / 8] ^= static_cast<char>(1u << (bit_index % 8));
  return out;
}

/// One-shot gate for deterministic worker stalls: threads block in Wait()
/// until the test calls Open(). AwaitWaiters(n) lets the test synchronize
/// on "n workers are now wedged" without sleeping.
class Gate {
 public:
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    ++waiting_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return open_; });
  }

  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }

  /// Blocks until `n` threads have reached Wait() (counts past waiters too,
  /// so it cannot miss a thread that was released already).
  void AwaitWaiters(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, n] { return waiting_ >= n; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  int waiting_ = 0;
};

/// Chaos knobs for ChaosIndex. All time is charged to the VirtualClock, so
/// "slow" is a deterministic statement about simulated time, not a sleep.
struct ChaosConfig {
  /// Clock that simulated work is charged to (required when any *_cost_us
  /// is set).
  VirtualClock* clock = nullptr;
  /// Slow backend: microseconds charged per query before the inner search.
  uint64_t query_cost_us = 0;
  /// Slow distance function: microseconds charged per distance evaluation
  /// the inner search performed (applied after it returns, i.e. the walk
  /// itself sees the pre-charge clock).
  uint64_t per_eval_cost_us = 0;
  /// Failing backend: queries served successfully before every subsequent
  /// search throws (simulates a wedged or corrupted shard at query time).
  uint32_t fail_after = UINT32_MAX;
  /// Kill switch: while *broken is true every search throws immediately.
  /// Unlike fail_after (a count over an interleaving-dependent arrival
  /// order), a switch the test flips between bursts is deterministic at
  /// any thread count (replica_chaos_test.cc).
  std::atomic<bool>* broken = nullptr;
  /// Stalled worker: every search blocks here until the gate opens.
  Gate* stall = nullptr;
};

/// AnnIndex decorator injecting the faults above at the engine seam —
/// the serving layer cannot tell chaos from a genuinely slow or broken
/// index. Thread-compatible like any index: the query counter is atomic.
class ChaosIndex : public AnnIndex {
 public:
  ChaosIndex(const AnnIndex& inner, const ChaosConfig& config)
      : inner_(inner), config_(config) {}

  void Build(const Dataset&) override {
    throw std::logic_error("ChaosIndex wraps an already-built index");
  }

  std::vector<ScoredId> SearchScored(SearchScratch& scratch,
                                     const float* query,
                                     const SearchParams& params,
                                     QueryStats* stats) const override {
    if (config_.stall != nullptr) config_.stall->Wait();
    if (config_.broken != nullptr &&
        config_.broken->load(std::memory_order_relaxed)) {
      throw std::runtime_error("injected backend failure (killed)");
    }
    const uint32_t served =
        served_.fetch_add(1, std::memory_order_relaxed);
    if (served >= config_.fail_after) {
      throw std::runtime_error("injected backend failure");
    }
    if (config_.clock != nullptr && config_.query_cost_us > 0) {
      config_.clock->AdvanceMicros(config_.query_cost_us);
    }
    QueryStats local;
    std::vector<ScoredId> results =
        inner_.SearchScored(scratch, query, params, &local);
    if (config_.clock != nullptr && config_.per_eval_cost_us > 0) {
      config_.clock->AdvanceMicros(local.distance_evals *
                                   config_.per_eval_cost_us);
    }
    if (stats != nullptr) *stats = local;
    return results;
  }

  const CsrGraph& graph() const override { return inner_.graph(); }
  size_t IndexMemoryBytes() const override {
    return inner_.IndexMemoryBytes();
  }
  BuildStats build_stats() const override { return inner_.build_stats(); }
  std::string name() const override { return "Chaos(" + inner_.name() + ")"; }

  uint32_t queries_seen() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  const AnnIndex& inner_;
  ChaosConfig config_;
  mutable std::atomic<uint32_t> served_{0};
};

}  // namespace weavess::testing

#endif  // WEAVESS_TESTS_FAULT_INJECTION_H_
