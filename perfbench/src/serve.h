// Serving-side phases of the benchmark (see serve.cc).

#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <string>
#include <vector>

#include "perfbench.h"
#include "query/query_engine.h"

namespace perfbench {

/// One answered call. `item` indexes the pattern pool (lookups) or the
/// batch pool (dictionary); the answer is kept as a digest and checked
/// against the oracle after timing.
struct CallRecord {
  uint32_t item = 0;
  bool locate = false;
  bool ok = false;  // every status OK
  uint64_t digest = 0;
  double ms = 0;
  double done_s = 0;  // completion, seconds since the phase started
};

struct PhaseResult {
  std::vector<CallRecord> calls;  // in completion order
  /// Completed calls per second of the clients' busy time (the sum of the
  /// call latencies over `clients`). Closed-loop clients are never idle
  /// inside a slice, so this is calls over wall time, less the tail at each
  /// slice's end where the clients finish their last calls one by one.
  double Rate(unsigned clients) const;
};

/// The i-th lookup is a Locate every fourth call, else a Count (3:1); the
/// j-th batch alternates count and locate mode, flipping every pool cycle
/// so each pool batch runs in both modes.
inline bool LookupIsLocate(uint64_t i) { return i % 4 == 3; }
inline bool BatchIsLocate(uint64_t j, std::size_t pool) {
  return (j + j / pool) % 2 == 1;
}

struct Serving {
  PhaseResult lookups, dict;
};

/// `config.workers` closed-loop clients serve for twice `seconds`: slices
/// of about a second of lookups (Count/Locate) and of dictionary batches
/// alternate, `seconds` of each, and dictionary slices are added until
/// `config.min_batches` batches were sent. Interleaving spreads both phases
/// over the whole serving window, so a slowdown of a shared host for part
/// of it weighs on both alike and on each less.
Serving RunServing(era::QueryEngine* engine, const Config& config,
                   const Inputs& inputs, double seconds);

/// Opens every sub-tree once through the index, from `threads` threads, so
/// the cache holds the whole index. With a `trace`, the opens run on one
/// thread, each inside a "suffixtree.open" span.
Status WarmCache(era::QueryEngine* engine, era::Env* env, unsigned threads,
                 era::Trace* trace);

/// A named per-layer number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Single-client replays of the first `config.trace_lookups` lookups and
/// `config.trace_dict_batches` batches, each lookup as Route, OpenSubTree
/// and Count/Locate, in rounds of traced, plain, plain, traced (repeated
/// for two seconds), where a plain replay makes the same calls with a null
/// trace. The first replay's trace goes to `recorder`.
/// Appends the per-layer metrics (query.*, suffixtree.*, io.query.*) of the
/// first replay, with the cache misses of `warmup` (a WarmCache trace, or
/// null) among the open misses, and returns the traced / plain time ratio.
/// The first replay's answers go to `lookups` and `dict` for checking.
StatusOr<double> TraceServing(era::QueryEngine* engine, CountingEnv* env,
                              const Config& config, const Inputs& inputs,
                              era::TraceRecorder* recorder,
                              const era::Trace* warmup,
                              std::vector<Metric>* metrics,
                              PhaseResult* lookups, PhaseResult* dict);

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
