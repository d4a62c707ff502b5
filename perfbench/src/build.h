// Build-side phases of the benchmark (see build.cc).

#ifndef PERFBENCH_BUILD_H_
#define PERFBENCH_BUILD_H_

#include <map>
#include <string>
#include <vector>

#include "era/era_builder.h"
#include "perfbench.h"

namespace perfbench {

/// The timed multi-worker build and what it reports.
struct TimedBuild {
  double seconds = 0;
  era::BuildStats stats;
  std::vector<double> worker_seconds;
  std::vector<double> worker_busy_seconds;
  uint64_t index_bytes = 0;  // every file the build left in its directory
};

/// Where the multi-worker build's time went: the longest worker's prepare
/// column, the background writer's column, and the share of the workers'
/// lifetime spent running tasks.
struct ParallelColumns {
  double prepare_critical_s = 0;
  double writer_s = 0;
  double busy_fraction = 0;
};
ParallelColumns ColumnsOf(const TimedBuild& build);

/// ParallelBuilder with `config.workers` workers and the shipped default
/// BuildOptions except the total budget (workers x per-worker budget).
StatusOr<TimedBuild> RunTimedBuild(const Config& config,
                                   const era::TextInfo& text,
                                   const std::string& dir, era::Env* env);

/// Counters of the traced single-worker build.
struct TracedBuild {
  uint64_t fm = 0;
  uint64_t groups = 0;
  uint64_t subtrees = 0;
  uint64_t vertical_rounds = 0;
  uint64_t prepare_rounds = 0;
};

/// One worker at the per-worker budget, driven through the entry points
/// era_builder.h exports, with a span in `trace` around each call:
/// PlanMemoryForBuild, OpenBuildTileCache, VerticalPartition,
/// GroupPreparer::Run (whose emit callback spans BuildSubTree and
/// EmitBuiltSubTree), AssembleIndex.
StatusOr<TracedBuild> RunTracedBuild(const Config& config,
                                     const era::TextInfo& text,
                                     const std::string& dir, era::Env* env,
                                     era::Trace* trace);

/// Total bytes of the regular files in `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// CRC-32C of every sub-tree file (st_*) in `dir`, by file name.
StatusOr<std::map<std::string, uint32_t>> SubTreeFileCrcs(
    const std::string& dir);

/// Checks the index in `dir` against the oracle: the concatenated
/// per-sub-tree TreeToSaLcp orders plus the trie's terminal leaves must
/// equal the suffix array, and every in-sub-tree LCP the LCP array.
Status CheckIndex(era::Env* env, const std::string& dir, const Oracle& oracle,
                  unsigned threads);

}  // namespace perfbench

#endif  // PERFBENCH_BUILD_H_
