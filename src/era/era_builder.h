// Serial ERA driver (Section 4): vertical partitioning, then per virtual
// tree SubTreePrepare + BuildSubTree (or BranchEdge), serialization, and
// assembly of the final index behind the top-level trie.

#ifndef ERA_ERA_ERA_BUILDER_H_
#define ERA_ERA_ERA_BUILDER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/options.h"
#include "common/status.h"
#include "era/memory_layout.h"
#include "era/vertical_partitioner.h"
#include "io/string_reader.h"
#include "suffixtree/tree_index.h"
#include "text/corpus.h"

namespace era {

/// Timing and resource counters of one build.
struct BuildStats {
  double total_seconds = 0;
  double vertical_seconds = 0;
  double horizontal_seconds = 0;
  IoStats io;
  uint64_t fm = 0;
  uint64_t num_groups = 0;
  uint64_t num_subtrees = 0;
  uint64_t prepare_rounds = 0;    // sum over groups
  uint64_t peak_tree_bytes = 0;   // max per-group in-memory tree footprint
  /// Groups skipped by a resume after their sub-trees checksum-verified.
  uint64_t groups_resumed = 0;
  /// Sub-tree files whose CRC-32C the resume pass re-verified.
  uint64_t subtrees_verified = 0;
  /// Length of the indexed text (terminal included); denominator of
  /// io_amplification().
  uint64_t text_bytes = 0;
  /// Per-(phase, worker) wall-time attribution of the build: phases are
  /// "vertical_partition", "prepare", "build_subtree", "branch_edge",
  /// "wavefront", "subtree_write", and "assemble_index". Background-writer
  /// time is attributed to a synthetic worker id one past the build workers.
  /// Render with FormatPhaseTable().
  std::vector<PhaseProfiler::Entry> phases;

  /// Device bytes read per text byte — the cost of re-streaming S across
  /// groups and rounds. io.bytes_read counts only true device transfers
  /// (tile-cache hits bill cache_served_bytes instead), so this is the
  /// metric the shared tile cache exists to push down.
  double io_amplification() const {
    return text_bytes == 0
               ? 0.0
               : static_cast<double>(io.bytes_read) /
                     static_cast<double>(text_bytes);
  }

  /// Tile-cache hit rate over all lookups (0 when the cache was off).
  double tile_hit_rate() const {
    const uint64_t lookups = io.tile_hits + io.tile_misses;
    return lookups == 0
               ? 0.0
               : static_cast<double>(io.tile_hits) /
                     static_cast<double>(lookups);
  }

  /// Wall time plus the disk model's price for the recorded I/O (see
  /// io/io_stats.h for why benchmarks report this alongside raw wall time).
  double ModeledSeconds(const DiskModel& disk) const {
    return total_seconds + disk.ModeledSeconds(io);
  }

  std::string ToString() const;
};

/// A finished build: the on-disk index plus its statistics.
struct BuildResult {
  TreeIndex index;
  BuildStats stats;
};

class BackgroundSubTreeWriter;
class CheckpointManager;
struct PreparedSubTree;

/// Output of processing one virtual tree (used by serial and parallel
/// drivers alike).
struct GroupOutput {
  struct SubTreeOut {
    std::string prefix;
    uint64_t frequency = 0;
    std::string filename;
  };
  /// Slot-indexed by the prefix's position in the group, so the (group, k)
  /// assembly order is deterministic no matter which worker (or background
  /// writer) finishes a sub-tree first.
  std::vector<SubTreeOut> subtrees;
  uint32_t rounds = 0;
  uint64_t tree_bytes = 0;  // sum of the group's sub-tree bytes
  IoStats write_io;         // synchronous serialization traffic
};

/// Names one built sub-tree `st_<group_id>_<k>.bin`, records it in
/// out->subtrees[k] (which must already be sized), and either writes it
/// synchronously (billing out->write_io) or hands it to `writer`. Each
/// durably published file is reported to `checkpoint` (when given) with its
/// CRC-32C, on the writer thread for enqueued writes. Returns the tree's
/// in-memory size. Safe to call concurrently for distinct slots of the same
/// GroupOutput. Synchronous writes bill their wall time to `profiler` (when
/// given) as phase "subtree_write" under `worker`.
StatusOr<uint64_t> EmitBuiltSubTree(const BuildOptions& options,
                                    uint64_t group_id, std::size_t k,
                                    std::string prefix, uint64_t frequency,
                                    TreeBuffer&& tree, GroupOutput* out,
                                    BackgroundSubTreeWriter* writer,
                                    CheckpointManager* checkpoint = nullptr,
                                    PhaseProfiler* profiler = nullptr,
                                    unsigned worker = 0);

/// The full per-prefix tail of the pipeline: BuildSubTree on a prepared
/// prefix, then EmitBuiltSubTree. One body shared by the serial streaming
/// callback and the parallel kBuildPrefix task so the two paths cannot
/// diverge. Returns the tree's in-memory size.
StatusOr<uint64_t> BuildAndEmitPrefix(const BuildOptions& options,
                                      uint64_t text_length, uint64_t group_id,
                                      std::size_t k, PreparedSubTree&& prepared,
                                      GroupOutput* out,
                                      BackgroundSubTreeWriter* writer,
                                      CheckpointManager* checkpoint = nullptr,
                                      PhaseProfiler* profiler = nullptr,
                                      unsigned worker = 0);

/// Builds all sub-trees of `group`, writes them under `options.work_dir`
/// with filenames `st_<group_id>_<k>`, and reports what was written.
/// `reader` supplies the (instrumented) scans of S. The prepare stage
/// streams: each prefix is built and written (or enqueued on `writer`, when
/// given) as soon as it resolves, before the group's remaining prefixes
/// finish preparing.
Status ProcessGroup(const TextInfo& text, const BuildOptions& options,
                    const MemoryLayout& layout, const VirtualTree& group,
                    uint64_t group_id, StringReader* reader,
                    GroupOutput* out,
                    BackgroundSubTreeWriter* writer = nullptr,
                    CheckpointManager* checkpoint = nullptr,
                    PhaseProfiler* profiler = nullptr, unsigned worker = 0);

/// Fills `out` for a group that a resume pass verified on disk: sub-tree
/// entries are reconstructed from the plan (prefix, frequency) and the
/// deterministic slot naming, with no device traffic.
void ReconstructGroupOutput(const VirtualTree& group, uint64_t group_id,
                            GroupOutput* out);

/// Longest text, terminal included, that a build accepts. A leaf edge can
/// span the whole text and tree nodes store edge lengths in 32 bits (the
/// bound CheckedEdgeLen guards in build_subtree.cc), so a longer text could
/// only fail mid-build.
inline constexpr uint64_t kMaxTextLength = std::numeric_limits<uint32_t>::max();

/// The build drivers' entry check on the input text: a text longer than
/// kMaxTextLength is InvalidArgument, before any I/O.
Status ValidateBuildText(const TextInfo& text);

/// PlanMemory plus the build-level tile-cache refinement: when the auto
/// carve exceeds this build's useful per-core share (tile-rounded file size
/// / num_workers — residency beyond the whole text buys nothing), the plan
/// is redone with the carve capped and the excess returned to the elastic
/// range, which directly reduces prepare rounds. FM is unaffected either
/// way.
StatusOr<MemoryLayout> PlanMemoryForBuild(const BuildOptions& options,
                                          const TextInfo& text,
                                          unsigned num_workers);

/// Opens the process-wide input-text tile cache for a build whose layout
/// carved `tile_cache_bytes` per core, or returns nullptr when the carve is
/// zero (cache disabled or budget too small). The budget is the sum of the
/// per-core carves, capped at the tile-rounded file size.
StatusOr<std::shared_ptr<TileCache>> OpenBuildTileCache(
    Env* env, const TextInfo& text, const MemoryLayout& layout,
    unsigned num_workers);

/// Folds a build tile cache's counters into `stats` (hits/misses/evictions
/// plus its device reads into io.bytes_read). No-op on nullptr.
void FoldTileCacheStats(const std::shared_ptr<TileCache>& cache,
                        BuildStats* stats);

/// Assembles a TreeIndex from per-group outputs plus the partition plan's
/// direct trie leaves, and saves its manifest into `options.work_dir`.
StatusOr<TreeIndex> AssembleIndex(const TextInfo& text,
                                  const BuildOptions& options,
                                  const PartitionPlan& plan,
                                  const std::vector<GroupOutput>& outputs);

/// The serial ERA builder (Section 4).
class EraBuilder {
 public:
  explicit EraBuilder(const BuildOptions& options) : options_(options) {}

  /// Builds the suffix-tree index of `text`.
  StatusOr<BuildResult> Build(const TextInfo& text);

 private:
  BuildOptions options_;
};

}  // namespace era

#endif  // ERA_ERA_ERA_BUILDER_H_
