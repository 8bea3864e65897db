// Per-query trace hook (docs/OBSERVABILITY.md). A TraceSink is a bounded,
// caller-owned event buffer a single query writes its routing decisions
// into: seed ids, expanded vertices, truncation, per-shard scatter-gather
// steps, and the serving layer's shed/degrade reason codes. Tracing is
// strictly opt-in — a null sink costs one branch per event site — and the
// sink is bounded, so an adversarial query cannot grow it without limit
// (overflow is counted in dropped(), never silently lost).
//
// This header is dependency-free on purpose: core/search_context.h embeds a
// TraceSink pointer, and core must not pull in anything heavier.
#ifndef WEAVESS_OBS_TRACE_H_
#define WEAVESS_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace weavess {

/// What happened at one step of a query's life. The `id`/`value` payload is
/// per-kind (see TraceEvent).
enum class TraceEventKind : uint8_t {
  kSeed = 0,            // id = seeded vertex
  kExpand = 1,          // id = expanded vertex (one per hop)
  kTruncated = 2,       // value = distance evals spent when the budget tripped
  kDegraded = 3,        // value = quality tier served at (>= 1) or 0 fallback
  kShedOverload = 4,    // value = retry-after hint (us)
  kShedDeadline = 5,    // id = 0 at admission, 1 at dequeue
  kBackendFailure = 6,  // backend threw; query failed
  kShardSearch = 7,     // id = shard, value = shard distance evals
  kShardFallback = 8,   // id = shard served by exact scan (degraded or tiny)
  kRoute = 9,           // id = primary replica chosen by rendezvous routing
  kFailover = 10,       // id = replica retried, value = attempt number (>= 1)
  kHedge = 11,          // id = replica the hedged second-send went to
  kHealthChange = 12,   // id = replica, value = new HealthState (0/1/2)
  kProbe = 13,          // id = replica probed, value = 1 success / 0 failure
};

inline const char* TraceEventKindName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kSeed:
      return "seed";
    case TraceEventKind::kExpand:
      return "expand";
    case TraceEventKind::kTruncated:
      return "truncated";
    case TraceEventKind::kDegraded:
      return "degraded";
    case TraceEventKind::kShedOverload:
      return "shed_overload";
    case TraceEventKind::kShedDeadline:
      return "shed_deadline";
    case TraceEventKind::kBackendFailure:
      return "backend_failure";
    case TraceEventKind::kShardSearch:
      return "shard_search";
    case TraceEventKind::kShardFallback:
      return "shard_fallback";
    case TraceEventKind::kRoute:
      return "route";
    case TraceEventKind::kFailover:
      return "failover";
    case TraceEventKind::kHedge:
      return "hedge";
    case TraceEventKind::kHealthChange:
      return "health_change";
    case TraceEventKind::kProbe:
      return "probe";
  }
  return "unknown";
}

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSeed;
  uint32_t id = 0;
  uint64_t value = 0;
};

/// Bounded per-query event buffer. Not thread-safe: one sink belongs to one
/// query at a time, exactly like SearchScratch (a ServeBatch burst sharing
/// one RequestOptions therefore shares one sink across its queries — give
/// each request its own sink when per-query attribution matters).
class TraceSink {
 public:
  explicit TraceSink(size_t capacity = 4096) : capacity_(capacity) {
    events_.reserve(capacity_ < 64 ? capacity_ : 64);
  }

  void Record(TraceEventKind kind, uint32_t id = 0, uint64_t value = 0) {
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    events_.push_back(TraceEvent{kind, id, value});
  }

  /// Records `other`'s events in order, then adds its dropped count. When
  /// `other` could hold at least this sink's free room, the result is what
  /// recording `other`'s events here directly would have left: how a
  /// sharded query replays its legs' sinks in shard order.
  void Append(const TraceSink& other) {
    for (const TraceEvent& event : other.events_) {
      Record(event.kind, event.id, event.value);
    }
    dropped_ += other.dropped_;
  }

  /// Empties the sink for reuse by the next query.
  void Clear() {
    events_.clear();
    dropped_ = 0;
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  size_t capacity() const { return capacity_; }
  /// Events rejected because the sink was full.
  uint64_t dropped() const { return dropped_; }

  uint64_t CountOf(TraceEventKind kind) const {
    uint64_t count = 0;
    for (const TraceEvent& event : events_) {
      if (event.kind == kind) ++count;
    }
    return count;
  }

 private:
  size_t capacity_;
  std::vector<TraceEvent> events_;
  uint64_t dropped_ = 0;
};

}  // namespace weavess

#endif  // WEAVESS_OBS_TRACE_H_
