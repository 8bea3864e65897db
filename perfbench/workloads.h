// The four benchmark workloads (perfbench/BENCHMARK.md). Each one builds
// its inputs from RunOptions::seed, sets up its index, runs its measured
// phase, checks every output, and fills the Report.
#ifndef WEAVESS_PERFBENCH_WORKLOADS_H_
#define WEAVESS_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace weavess::perfbench {

/// NSG over the GloVe stand-in, closed-loop SearchBatch at 4 threads.
void RunBatchFloat(const RunOptions& options, Report& report, Tracer& tracer);
/// SQ8:HNSW over the wide Msong stand-in, closed-loop SearchBatch.
void RunBatchSq8(const RunOptions& options, Report& report, Tracer& tracer);
/// Saved-and-reloaded Sharded:HNSW behind ServingEngine, open loop, Zipf.
void RunServeSharded(const RunOptions& options, Report& report,
                     Tracer& tracer);
/// MutableShardedIndex serving reads and writes with WAL, commits and a
/// background compaction.
void RunServeMutable(const RunOptions& options, Report& report,
                     Tracer& tracer);

}  // namespace weavess::perfbench

#endif  // WEAVESS_PERFBENCH_WORKLOADS_H_
