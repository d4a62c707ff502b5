// The build side: the timed 4-worker ParallelBuilder run, the traced
// single-worker driver over era_builder.h's entry points, and the check of
// an index against the SA/LCP oracle.

#include "build.h"

#include <algorithm>
#include <filesystem>

#include "common/crc32.h"
#include "era/build_subtree.h"
#include "era/parallel_builder.h"
#include "era/range_policy.h"
#include "era/subtree_prepare.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"

namespace perfbench {

namespace {

/// The shipped default BuildOptions with only the budget and the target set.
era::BuildOptions DefaultOptions(uint64_t budget, const std::string& dir,
                                 era::Env* env) {
  era::BuildOptions options;
  options.memory_budget = budget;
  options.work_dir = dir;
  options.env = env;
  return options;
}

}  // namespace

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

StatusOr<TimedBuild> RunTimedBuild(const Config& config,
                                   const era::TextInfo& text,
                                   const std::string& dir, era::Env* env) {
  era::ParallelBuilder builder(
      DefaultOptions(config.budget_per_worker * config.workers, dir, env),
      config.workers);
  TimedBuild out;
  const Clock::time_point t0 = Clock::now();
  ERA_ASSIGN_OR_RETURN(era::ParallelBuildResult result, builder.Build(text));
  out.seconds = SecondsSince(t0);
  out.stats = result.stats;
  out.worker_seconds = result.worker_seconds;
  out.worker_busy_seconds = result.worker_busy_seconds;
  out.index_bytes = DirectoryBytes(dir);
  return out;
}

ParallelColumns ColumnsOf(const TimedBuild& build) {
  ParallelColumns c;
  for (const auto& e : build.stats.phases) {
    if (e.phase == "prepare") {
      c.prepare_critical_s = std::max(c.prepare_critical_s, e.seconds);
    }
    if (e.phase == "subtree_write") c.writer_s += e.seconds;
  }
  double busy = 0, alive = 0;
  for (double b : build.worker_busy_seconds) busy += b;
  for (double w : build.worker_seconds) alive += w;
  c.busy_fraction = alive == 0 ? 0 : busy / alive;
  return c;
}

StatusOr<TracedBuild> RunTracedBuild(const Config& config,
                                     const era::TextInfo& text,
                                     const std::string& dir, era::Env* env,
                                     era::Trace* trace) {
  // One worker at the per-core budget: the same FM, so the same partition
  // plan and byte-identical sub-tree files as the timed multi-worker build.
  const era::BuildOptions options =
      DefaultOptions(config.budget_per_worker, dir, env);
  ERA_RETURN_NOT_OK(era::ValidateBuildOptions(options));
  ERA_RETURN_NOT_OK(env->CreateDir(dir));
  TracedBuild out;

  era::MemoryLayout layout;
  {
    era::TraceSpan span(trace, "era.plan_memory");
    ERA_ASSIGN_OR_RETURN(layout, era::PlanMemoryForBuild(options, text, 1));
  }
  std::shared_ptr<era::TileCache> tile_cache;
  {
    era::TraceSpan span(trace, "io.open_tile_cache");
    ERA_ASSIGN_OR_RETURN(tile_cache,
                         era::OpenBuildTileCache(env, text, layout, 1));
  }
  era::PartitionPlan plan;
  {
    era::TraceSpan span(trace, "era.vertical");
    ERA_ASSIGN_OR_RETURN(
        plan, era::VerticalPartition(text, options, layout.fm, tile_cache));
  }
  out.vertical_rounds = plan.rounds;
  out.groups = plan.groups.size();
  out.subtrees = plan.NumSubTrees();
  out.fm = layout.fm;

  // The reader ParallelBuilder gives each worker.
  era::StringReaderOptions reader_options;
  reader_options.buffer_bytes = layout.input_buffer_bytes;
  reader_options.seek_optimization = options.seek_optimization;
  reader_options.prefetch = layout.read_ahead_bytes > 0;
  reader_options.prefetch_depth = static_cast<uint32_t>(
      layout.read_ahead_bytes / layout.input_buffer_bytes);
  reader_options.tile_cache = tile_cache;
  era::IoStats scan_io;
  ERA_ASSIGN_OR_RETURN(auto reader, era::OpenStringReader(
                                        env, text.path, reader_options,
                                        &scan_io));
  const era::RangePolicy policy =
      era::RangePolicy::FromOptions(options, layout.r_buffer_bytes);

  std::vector<era::GroupOutput> outputs(plan.groups.size());
  for (std::size_t g = 0; g < plan.groups.size(); ++g) {
    const era::VirtualTree& group = plan.groups[g];
    outputs[g].subtrees.resize(group.prefixes.size());
    era::GroupPreparer preparer(group, policy, reader.get(), text.length);
    preparer.SetEmitCallback(
        [&](std::size_t k, era::PreparedSubTree&& prepared) -> Status {
          era::TreeBuffer tree;
          {
            era::TraceSpan span(trace, "era.build_subtree");
            ERA_ASSIGN_OR_RETURN(tree,
                                 era::BuildSubTree(prepared, text.length));
          }
          era::TraceSpan span(trace, "era.write");
          return era::EmitBuiltSubTree(
                     options, g, k, std::move(prepared.prefix),
                     static_cast<uint64_t>(prepared.leaves.size()),
                     std::move(tree), &outputs[g], /*writer=*/nullptr)
              .status();
        });
    {
      era::TraceSpan span(trace, "era.prepare");
      ERA_RETURN_NOT_OK(preparer.Run());
    }
    out.prepare_rounds += preparer.stats().rounds;
  }
  reader.reset();
  {
    era::TraceSpan span(trace, "era.assemble");
    ERA_RETURN_NOT_OK(
        era::AssembleIndex(text, options, plan, outputs).status());
  }
  return out;
}

StatusOr<std::map<std::string, uint32_t>> SubTreeFileCrcs(
    const std::string& dir) {
  std::map<std::string, uint32_t> crcs;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("st_", 0) != 0) continue;
    std::string bytes;
    ERA_RETURN_NOT_OK(
        era::GetDefaultEnv()->ReadFileToString(entry.path().string(), &bytes));
    crcs[name] = era::Crc32c(bytes.data(), bytes.size());
  }
  return crcs;
}

Status CheckIndex(era::Env* env, const std::string& dir, const Oracle& oracle,
                  unsigned threads) {
  ERA_ASSIGN_OR_RETURN(era::TreeIndex index, era::TreeIndex::Load(env, dir));
  std::vector<era::PrefixTrie::Entry> entries;
  index.trie().CollectEntries(0, &entries);
  // The trie's lexicographic stream of sub-trees and terminal leaves must
  // concatenate to the suffix array, and each sub-tree's internal LCPs must
  // equal the oracle's at the same global ranks. Manifest frequencies give
  // each entry's first rank, so the sub-trees are checked in parallel.
  std::vector<uint64_t> first_rank(entries.size() + 1, 0);
  for (std::size_t e = 0; e < entries.size(); ++e) {
    const int32_t id = entries[e].subtree_id;
    first_rank[e + 1] =
        first_rank[e] +
        (id < 0 ? 1 : index.subtrees()[static_cast<std::size_t>(id)].frequency);
  }
  if (first_rank.back() != oracle.sa.size()) {
    return Status::Internal("index holds " + std::to_string(first_rank.back()) +
                            " suffixes, the text has " +
                            std::to_string(oracle.sa.size()));
  }
  auto check_entry = [&](std::size_t e) -> Status {
    const uint64_t rank = first_rank[e];
    auto mismatch = [&](const std::string& what) {
      return Status::Internal("index differs from the SA/LCP oracle at rank " +
                              std::to_string(rank) + ": " + what);
    };
    if (entries[e].subtree_id < 0) {
      return oracle.sa[rank] == entries[e].leaf_position
                 ? Status::OK()
                 : mismatch("terminal leaf");
    }
    const era::SubTreeEntry& sub =
        index.subtrees()[static_cast<std::size_t>(entries[e].subtree_id)];
    era::ServedSubTree tree;
    ERA_RETURN_NOT_OK(era::ReadServedSubTree(env, dir + "/" + sub.filename,
                                             &tree, nullptr, nullptr));
    const era::SaLcp canon = era::TreeToSaLcp(tree);
    if (canon.sa.size() != first_rank[e + 1] - rank ||
        !std::equal(canon.sa.begin(), canon.sa.end(),
                    oracle.sa.begin() + static_cast<std::ptrdiff_t>(rank))) {
      return mismatch("sub-tree " + sub.filename + " suffix order");
    }
    for (std::size_t i = 0; i < canon.lcp.size(); ++i) {
      if (canon.lcp[i] != oracle.lcp[rank + i + 1]) {
        return mismatch("sub-tree " + sub.filename + " lcp");
      }
    }
    return Status::OK();
  };
  return ParallelFor(entries.size(), threads, check_entry);
}

}  // namespace perfbench
