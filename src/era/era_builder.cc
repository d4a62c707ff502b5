#include "era/era_builder.h"

#include <algorithm>
#include <sstream>

#include "common/timer.h"
#include "era/branch_edge.h"
#include "era/build_subtree.h"
#include "era/checkpoint.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "era/subtree_writer.h"
#include "suffixtree/serializer.h"

namespace era {

std::string BuildStats::ToString() const {
  std::ostringstream os;
  os << "total=" << total_seconds << "s (vertical=" << vertical_seconds
     << "s horizontal=" << horizontal_seconds << "s) fm=" << fm
     << " groups=" << num_groups << " subtrees=" << num_subtrees
     << " rounds=" << prepare_rounds << " peak_tree=" << peak_tree_bytes
     << "B groups_resumed=" << groups_resumed
     << " subtrees_verified=" << subtrees_verified
     << " io_amplification=" << io_amplification()
     << " tile_hit_rate=" << tile_hit_rate()
     << " io{" << io.ToString() << "}";
  return os.str();
}

StatusOr<MemoryLayout> PlanMemoryForBuild(const BuildOptions& options,
                                          const TextInfo& text,
                                          unsigned num_workers) {
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemory(options, text.alphabet.size()));
  if (options.tile_cache_budget_bytes != 0 || layout.tile_cache_bytes == 0 ||
      num_workers == 0) {
    return layout;
  }
  TileCacheOptions defaults;
  const uint64_t tiles =
      (text.length + defaults.tile_bytes - 1) / defaults.tile_bytes;
  // Per-core share of a cache that holds the whole text, rounded up a tile
  // so the shares still sum past the file size.
  const uint64_t cap_per_core =
      std::max<uint64_t>(tiles, 1) * defaults.tile_bytes / num_workers +
      defaults.tile_bytes;
  if (layout.tile_cache_bytes <= cap_per_core) return layout;
  // More workers than the text needs cache: give the excess back to the
  // elastic range (fewer prepare rounds) instead of hoarding dead budget.
  BuildOptions capped = options;
  capped.tile_cache_budget_bytes = cap_per_core;
  return PlanMemory(capped, text.alphabet.size());
}

StatusOr<std::shared_ptr<TileCache>> OpenBuildTileCache(
    Env* env, const TextInfo& text, const MemoryLayout& layout,
    unsigned num_workers) {
  if (layout.tile_cache_bytes == 0) {
    return std::shared_ptr<TileCache>();
  }
  TileCacheOptions cache_options;
  // The cache is shared process-wide: its budget is the sum of the per-core
  // carves, capped at the (tile-rounded) file size — residency beyond the
  // whole text buys nothing.
  const uint64_t tiles =
      (text.length + cache_options.tile_bytes - 1) / cache_options.tile_bytes;
  cache_options.budget_bytes =
      std::min(layout.tile_cache_bytes * num_workers,
               std::max<uint64_t>(tiles, 1) * cache_options.tile_bytes);
  // Shards trade lock contention against budget granularity: each shard
  // strands up to one tile of its share. When the cache cannot hold the
  // whole file anyway (the partial-residency regime, where every stranded
  // tile is a per-pass device read), bytes win: use one shard. With the
  // whole file resident, contention wins: shard by size.
  const uint64_t rounded_file =
      std::max<uint64_t>(tiles, 1) * cache_options.tile_bytes;
  cache_options.shards =
      cache_options.budget_bytes < rounded_file
          ? 1
          : static_cast<uint32_t>(std::clamp<uint64_t>(
                cache_options.budget_bytes / (4 * cache_options.tile_bytes),
                1, 8));
  return TileCache::Open(env, text.path, cache_options);
}

void FoldTileCacheStats(const std::shared_ptr<TileCache>& cache,
                        BuildStats* stats) {
  if (cache == nullptr) return;
  const TileCache::Snapshot snapshot = cache->stats();
  stats->io.tile_hits += snapshot.hits;
  stats->io.tile_misses += snapshot.misses;
  stats->io.tile_device_bytes += snapshot.device_bytes_read;
  stats->io.tile_evicted_bytes += snapshot.evicted_bytes;
  stats->io.read_retries += snapshot.read_retries;
  // The cache's loads are the build's only device reads on cache-backed
  // paths; fold them into the canonical device-read total.
  stats->io.bytes_read += snapshot.device_bytes_read;
}

StatusOr<uint64_t> BuildAndEmitPrefix(const BuildOptions& options,
                                      uint64_t text_length, uint64_t group_id,
                                      std::size_t k, PreparedSubTree&& prepared,
                                      GroupOutput* out,
                                      BackgroundSubTreeWriter* writer,
                                      CheckpointManager* checkpoint,
                                      PhaseProfiler* profiler,
                                      unsigned worker) {
  WallTimer build_timer;
  ERA_ASSIGN_OR_RETURN(TreeBuffer tree, BuildSubTree(prepared, text_length));
  if (profiler != nullptr) {
    profiler->Record("build_subtree", worker, build_timer.Seconds());
  }
  return EmitBuiltSubTree(options, group_id, k, std::move(prepared.prefix),
                          static_cast<uint64_t>(prepared.leaves.size()),
                          std::move(tree), out, writer, checkpoint, profiler,
                          worker);
}

StatusOr<uint64_t> EmitBuiltSubTree(const BuildOptions& options,
                                    uint64_t group_id, std::size_t k,
                                    std::string prefix, uint64_t frequency,
                                    TreeBuffer&& tree, GroupOutput* out,
                                    BackgroundSubTreeWriter* writer,
                                    CheckpointManager* checkpoint,
                                    PhaseProfiler* profiler, unsigned worker) {
  const uint64_t bytes = tree.MemoryBytes();
  std::string filename = SubTreeFileName(group_id, k);
  std::string path = options.work_dir + "/" + filename;
  out->subtrees[k] = {prefix, frequency, std::move(filename)};
  if (writer != nullptr) {
    writer->Enqueue(std::move(path), std::move(prefix), std::move(tree),
                    checkpoint == nullptr
                        ? BackgroundSubTreeWriter::WriteDone()
                        : [checkpoint, group_id, k](const Status& s,
                                                    uint32_t file_crc) {
                            if (s.ok()) {
                              checkpoint->NoteSubTreeWritten(group_id, k,
                                                             file_crc);
                            }
                          });
  } else {
    WallTimer write_timer;
    uint32_t file_crc = 0;
    ERA_RETURN_NOT_OK(WriteSubTree(options.GetEnv(), path, prefix, tree,
                                   &out->write_io, &file_crc,
                                   options.format));
    if (profiler != nullptr) {
      profiler->Record("subtree_write", worker, write_timer.Seconds());
    }
    if (checkpoint != nullptr) {
      checkpoint->NoteSubTreeWritten(group_id, k, file_crc);
    }
  }
  return bytes;
}

void ReconstructGroupOutput(const VirtualTree& group, uint64_t group_id,
                            GroupOutput* out) {
  out->subtrees.resize(group.prefixes.size());
  for (std::size_t k = 0; k < group.prefixes.size(); ++k) {
    out->subtrees[k] = {group.prefixes[k].prefix,
                        group.prefixes[k].frequency,
                        SubTreeFileName(group_id, k)};
  }
}

Status ProcessGroup(const TextInfo& text, const BuildOptions& options,
                    const MemoryLayout& layout, const VirtualTree& group,
                    uint64_t group_id, StringReader* reader, GroupOutput* out,
                    BackgroundSubTreeWriter* writer,
                    CheckpointManager* checkpoint, PhaseProfiler* profiler,
                    unsigned worker) {
  RangePolicy policy = RangePolicy::FromOptions(options, layout.r_buffer_bytes);
  out->subtrees.resize(group.prefixes.size());

  if (options.horizontal == HorizontalMethod::kBranchEdge) {
    WallTimer fused_timer;
    GroupStrBuilder builder(group, policy, reader, text.length);
    ERA_RETURN_NOT_OK(builder.Run());
    if (profiler != nullptr) {
      profiler->Record("branch_edge", worker, fused_timer.Seconds());
    }
    out->rounds = builder.stats().rounds;
    for (std::size_t k = 0; k < builder.results().size(); ++k) {
      auto& [prefix, tree] = builder.results()[k];
      ERA_ASSIGN_OR_RETURN(
          uint64_t bytes,
          EmitBuiltSubTree(options, group_id, k, prefix,
                           group.prefixes[k].frequency, std::move(tree), out,
                           writer, checkpoint, profiler, worker));
      out->tree_bytes += bytes;
    }
  } else {
    GroupPreparer preparer(group, policy, reader, text.length);
    // Stream: a resolved prefix is built and handed to the writer while the
    // remaining prefixes are still scanning S (pipeline stages 2 and 3
    // overlap stage 1 even inside a single group). Build/write time spent
    // inside the emit callback is subtracted from the prepare phase so the
    // breakdown reflects the stages, not the call nesting.
    WallTimer prepare_timer;
    double nested_seconds = 0;
    preparer.SetEmitCallback(
        [&](std::size_t k, PreparedSubTree&& prepared) -> Status {
          WallTimer nested_timer;
          ERA_ASSIGN_OR_RETURN(
              uint64_t bytes,
              BuildAndEmitPrefix(options, text.length, group_id, k,
                                 std::move(prepared), out, writer,
                                 checkpoint, profiler, worker));
          out->tree_bytes += bytes;
          nested_seconds += nested_timer.Seconds();
          return Status::OK();
        });
    ERA_RETURN_NOT_OK(preparer.Run());
    if (profiler != nullptr) {
      profiler->Record(
          "prepare", worker,
          std::max(0.0, prepare_timer.Seconds() - nested_seconds));
    }
    out->rounds = preparer.stats().rounds;
  }
  return Status::OK();
}

StatusOr<TreeIndex> AssembleIndex(const TextInfo& text,
                                  const BuildOptions& options,
                                  const PartitionPlan& plan,
                                  const std::vector<GroupOutput>& outputs) {
  TreeIndex index;
  index.SetText(text);
  for (const GroupOutput& output : outputs) {
    for (const auto& sub : output.subtrees) {
      uint32_t id = index.AddSubTree(sub.prefix, sub.frequency, sub.filename);
      ERA_RETURN_NOT_OK(
          index.mutable_trie().InsertSubTree(sub.prefix, id, sub.frequency));
    }
  }
  for (const auto& [prefix, position] : plan.terminal_leaves) {
    ERA_RETURN_NOT_OK(
        index.mutable_trie().InsertTerminalLeaf(prefix, position));
  }
  ERA_RETURN_NOT_OK(index.Save(options.GetEnv(), options.work_dir));
  ERA_ASSIGN_OR_RETURN(TreeIndex loaded,
                       TreeIndex::Load(options.GetEnv(), options.work_dir));
  return loaded;
}

Status ValidateBuildText(const TextInfo& text) {
  if (text.length > kMaxTextLength) {
    return Status::InvalidArgument(
        "text of " + std::to_string(text.length) +
        " bytes exceeds the maximum of " + std::to_string(kMaxTextLength) +
        " (tree edge lengths are 32-bit)");
  }
  return Status::OK();
}

StatusOr<BuildResult> EraBuilder::Build(const TextInfo& text) {
  WallTimer total_timer;
  ERA_RETURN_NOT_OK(ValidateBuildText(text));
  ERA_RETURN_NOT_OK(ValidateBuildOptions(options_));
  ERA_RETURN_NOT_OK(options_.GetEnv()->CreateDir(options_.work_dir));

  BuildStats stats;
  stats.text_bytes = text.length;
  ERA_ASSIGN_OR_RETURN(MemoryLayout layout,
                       PlanMemoryForBuild(options_, text, /*num_workers=*/1));
  stats.fm = layout.fm;

  ERA_ASSIGN_OR_RETURN(
      std::shared_ptr<TileCache> tile_cache,
      OpenBuildTileCache(options_.GetEnv(), text, layout, /*num_workers=*/1));

  PhaseProfiler profiler;
  ERA_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      VerticalPartition(text, options_, layout.fm, tile_cache));
  stats.vertical_seconds = plan.seconds;
  profiler.Record("vertical_partition", 0, plan.seconds);
  stats.io.Add(plan.io);
  stats.num_groups = plan.groups.size();
  stats.num_subtrees = plan.NumSubTrees();

  WallTimer horizontal_timer;
  StringReaderOptions reader_options;
  reader_options.buffer_bytes = options_.input_buffer_bytes;
  reader_options.seek_optimization = options_.seek_optimization;
  reader_options.prefetch = layout.read_ahead_bytes > 0;
  reader_options.prefetch_depth = static_cast<uint32_t>(
      layout.read_ahead_bytes / layout.input_buffer_bytes);
  reader_options.tile_cache = tile_cache;
  IoStats scan_stats;
  ERA_ASSIGN_OR_RETURN(auto reader,
                       OpenStringReader(options_.GetEnv(), text.path,
                                        reader_options, &scan_stats));

  const CheckpointFingerprint fingerprint{text.length, layout.fm,
                                          plan.groups.size(),
                                          plan.NumSubTrees()};
  ResumePlan resume;
  resume.group_done.assign(plan.groups.size(), 0);
  if (options_.resume) {
    resume = PlanResume(options_.GetEnv(), options_.work_dir, fingerprint,
                        plan);
    stats.groups_resumed = resume.groups_skipped;
    stats.subtrees_verified = resume.subtrees_verified;
  }

  std::unique_ptr<CheckpointManager> checkpoint;
  if (options_.checkpoint) {
    std::vector<uint64_t> group_sizes(plan.groups.size());
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      group_sizes[g] = plan.groups[g].prefixes.size();
    }
    checkpoint = std::make_unique<CheckpointManager>(
        options_.GetEnv(), options_.work_dir, fingerprint,
        std::move(group_sizes));
    for (std::size_t g = 0; g < plan.groups.size(); ++g) {
      if (resume.group_done[g]) {
        checkpoint->MarkGroupVerified(g, resume.group_crcs[g]);
      }
    }
  }

  std::vector<GroupOutput> outputs(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    if (resume.group_done[g]) {
      ReconstructGroupOutput(plan.groups[g], g, &outputs[g]);
      continue;
    }
    ERA_RETURN_NOT_OK(ProcessGroup(text, options_, layout, plan.groups[g], g,
                                   reader.get(), &outputs[g],
                                   /*writer=*/nullptr, checkpoint.get(),
                                   &profiler, /*worker=*/0));
    stats.prepare_rounds += outputs[g].rounds;
    stats.peak_tree_bytes =
        std::max(stats.peak_tree_bytes, outputs[g].tree_bytes);
    stats.io.Add(outputs[g].write_io);
  }
  // A prefetching reader bills its residual speculative windows at
  // destruction; tear it down before aggregating so nothing is lost.
  reader.reset();
  stats.io.Add(scan_stats);
  FoldTileCacheStats(tile_cache, &stats);
  stats.horizontal_seconds = horizontal_timer.Seconds();

  BuildResult result;
  WallTimer assemble_timer;
  ERA_ASSIGN_OR_RETURN(result.index,
                       AssembleIndex(text, options_, plan, outputs));
  profiler.Record("assemble_index", 0, assemble_timer.Seconds());
  stats.total_seconds = total_timer.Seconds();
  stats.phases = profiler.Entries();
  result.stats = stats;
  return result;
}

}  // namespace era
