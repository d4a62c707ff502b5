// Concurrent query-serving benchmark: format v2 vs v3 under one cache budget.
//
// Builds the same generated DNA index twice — once with counted v2 files,
// once with bit-packed v3 files — then replays a mixed Count/Locate pattern
// workload against each at 1/4/8 threads and emits BENCH_query.json (QPS,
// speedup, cache hit rate, compression ratio, query counters) in the current
// directory.
//
// Methodology notes:
//  * Like bench/e2e_build.cc, the index and text live in real files
//    (PosixEnv) wrapped in LatencyEnv: the page cache hides device time at
//    CI scale, so without a modeled device every row degenerates to pure
//    CPU. With per-request latency charged as real sleeps (NVMe-like:
//    concurrent requests do not serialize), the thread-scaling rows measure
//    exactly what a serving layer buys — per-thread reader sessions overlap
//    their device waits while the sharded cache keeps sub-tree loads off the
//    device.
//  * Both formats run under the SAME cache byte budget. Sub-trees are cached
//    as 4 KiB blocks of their files, and a packed v3 file needs fewer blocks
//    for the same nodes, so more of the index stays resident — the bench
//    asserts v3's block hit rate strictly exceeds v2's at every thread
//    count, and that v3 compresses >= 2x vs the counted records.
//  * Every row replays the identical workload (thread t takes patterns
//    t, t+T, ...), so the occurrence checksum must match across every row —
//    thread counts AND formats (the byte-identical-answers criterion); the
//    bench fails if it does not.
//  * Each row runs on a freshly opened engine (cold cache) so the reported
//    hit rate is comparable across rows.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/options.h"
#include "era/era_builder.h"
#include "io/latency_env.h"
#include "io/posix_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "suffixtree/serializer.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

using bench::ArgOr;
using bench::ScopedRemoveAll;

struct FormatInfo {
  std::string name;        // "v2" / "v3"
  std::string dir;         // index directory
  uint64_t nodes = 0;      // total nodes across sub-trees
  uint64_t disk_bytes = 0;
  uint64_t serving_bytes = 0;   // what the cache would charge, all sub-trees
  uint64_t inflated_bytes = 0;  // counted-record equivalent
  double bytes_per_node = 0;
  double compression_ratio = 0;  // inflated / serving
};

struct Row {
  const FormatInfo* format = nullptr;
  unsigned threads = 0;
  ReplayResult replay;
  double speedup = 0;
  TreeIndex::CacheSnapshot cache;
  double cache_hit_rate = 0;
  QueryStats stats;
};

int Main(int argc, char** argv) {
  const double text_mb = ArgOr(argc, argv, "mb", 4.0);
  const double bandwidth_mb = ArgOr(argc, argv, "bandwidth-mb", 96.0);
  const double budget_mb = ArgOr(argc, argv, "budget-mb", 8.0);
  const double cache_mb = ArgOr(argc, argv, "cache-mb", 64.0);
  const std::size_t num_patterns =
      static_cast<std::size_t>(ArgOr(argc, argv, "patterns", 4000.0));
  const uint64_t body_len = static_cast<uint64_t>(text_mb * 1024 * 1024);

  LatencyModel model;
  model.read_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.write_bytes_per_second = bandwidth_mb * 1024 * 1024;

  Env* posix = GetDefaultEnv();
  LatencyEnv env(posix, model);

  const std::string root = "/tmp/era_qps_" + std::to_string(::getpid());
  std::fprintf(stderr,
               "corpus: %.1f MB DNA, device %.0f MB/s, %zu patterns, "
               "work dir %s\n",
               text_mb, bandwidth_mb, num_patterns, root.c_str());
  Status dir_status = posix->CreateDir(root);
  if (!dir_status.ok()) {
    std::fprintf(stderr, "%s\n", dir_status.ToString().c_str());
    return 1;
  }
  ScopedRemoveAll cleanup{root};

  // Corpus + index builds are setup, not the measured serving path: both go
  // through the raw env.
  std::string text = GenerateDna(body_len, /*seed=*/42);
  auto info = MaterializeText(posix, root + "/text", Alphabet::Dna(), text);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }

  std::vector<FormatInfo> formats = {{"v2", root + "/idx_v2"},
                                     {"v3", root + "/idx_v3"}};
  for (FormatInfo& fmt : formats) {
    BuildOptions options;
    options.env = posix;
    options.work_dir = fmt.dir;
    options.memory_budget = static_cast<uint64_t>(budget_mb * 1024 * 1024);
    options.format = fmt.name == "v2" ? SubTreeFormat::kCounted
                                      : SubTreeFormat::kPacked;
    EraBuilder builder(options);
    auto result = builder.Build(*info);
    if (!result.ok()) {
      std::fprintf(stderr, "build (%s) failed: %s\n", fmt.name.c_str(),
                   result.status().ToString().c_str());
      return 1;
    }
    for (const SubTreeEntry& entry : result->index.subtrees()) {
      auto st = InspectSubTreeFile(posix, fmt.dir + "/" + entry.filename);
      if (!st.ok()) {
        std::fprintf(stderr, "inspect failed: %s\n",
                     st.status().ToString().c_str());
        return 1;
      }
      fmt.nodes += st->node_count;
      fmt.disk_bytes += st->file_bytes;
      fmt.serving_bytes += st->serving_bytes;
      fmt.inflated_bytes += st->inflated_bytes;
    }
    fmt.bytes_per_node =
        fmt.nodes == 0 ? 0
                       : static_cast<double>(fmt.serving_bytes) / fmt.nodes;
    fmt.compression_ratio =
        fmt.serving_bytes == 0
            ? 0
            : static_cast<double>(fmt.inflated_bytes) / fmt.serving_bytes;
    std::fprintf(stderr,
                 "index %s: %zu sub-trees, %llu nodes, %.2f bytes/node "
                 "resident, %.2fx vs counted records\n",
                 fmt.name.c_str(), result->index.subtrees().size(),
                 static_cast<unsigned long long>(fmt.nodes),
                 fmt.bytes_per_node, fmt.compression_ratio);
  }

  QueryWorkloadOptions workload_options;
  workload_options.num_patterns = num_patterns;
  std::vector<std::string> patterns =
      SamplePatternWorkload(text, workload_options);
  text.clear();
  text.shrink_to_fit();

  QueryEngineOptions engine_options;
  engine_options.cache.budget_bytes =
      static_cast<uint64_t>(cache_mb * 1024 * 1024);

  std::vector<Row> rows;
  double baseline_qps = 0;
  for (const FormatInfo& fmt : formats) {
    for (unsigned threads : {1u, 4u, 8u}) {
      // Fresh engine per row: cold cache, comparable hit rates.
      auto engine = QueryEngine::Open(&env, fmt.dir, engine_options);
      if (!engine.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }
      auto replay =
          ReplayWorkload(engine->get(), patterns, threads, workload_options);
      if (!replay.ok()) {
        std::fprintf(stderr, "replay failed: %s\n",
                     replay.status().ToString().c_str());
        return 1;
      }
      Row row;
      row.format = &fmt;
      row.threads = threads;
      row.replay = *replay;
      if (baseline_qps == 0) baseline_qps = replay->qps;
      row.speedup = baseline_qps > 0 ? replay->qps / baseline_qps : 0;
      row.cache = (*engine)->cache();
      const uint64_t lookups = row.cache.block_hits + row.cache.block_misses;
      row.cache_hit_rate =
          lookups == 0 ? 0
                       : static_cast<double>(row.cache.block_hits) / lookups;
      row.stats = (*engine)->stats();
      rows.push_back(row);

      std::fprintf(
          stderr,
          "format=%s threads=%u qps=%.0f wall=%.2fs speedup=%.2fx "
          "block_hit_rate=%.3f (block hits=%llu misses=%llu evicted=%lluB "
          "attached=%llu trees) checksum=%llu\n",
          fmt.name.c_str(), threads, replay->qps, replay->wall_seconds,
          row.speedup, row.cache_hit_rate,
          static_cast<unsigned long long>(row.cache.block_hits),
          static_cast<unsigned long long>(row.cache.block_misses),
          static_cast<unsigned long long>(row.cache.evicted_bytes),
          static_cast<unsigned long long>(row.cache.resident_trees),
          static_cast<unsigned long long>(replay->occurrence_checksum));
    }
  }

  // ---- Self-guards: the bench fails rather than publish a regression. ----
  for (const Row& row : rows) {
    if (row.replay.occurrence_checksum != rows[0].replay.occurrence_checksum) {
      std::fprintf(stderr,
                   "FATAL: occurrence checksum diverges (format %s, %u "
                   "threads) — formats must answer byte-identically\n",
                   row.format->name.c_str(), row.threads);
      return 1;
    }
  }
  const FormatInfo& v3 = formats[1];

  // ---- Registry overhead guard: serving with the metrics registry on the
  // Count hot path must stay within 2% of the registry-free path (v3 at 8
  // threads, best of 3 per arm so scheduler noise cannot fail the build on
  // a single bad run). One discarded warm-up replay runs first and the arms
  // alternate which goes first on each repetition, so neither arm is billed
  // for a cold page cache or allocator. Runs before the format-comparison
  // guards so the overhead figure is reported even when those trip on a
  // loaded machine. ----
  auto replay_qps = [&](bool metrics_on, double* qps) -> bool {
    QueryEngineOptions arm_options = engine_options;
    arm_options.metrics_enabled = metrics_on;
    auto engine = QueryEngine::Open(&env, v3.dir, arm_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return false;
    }
    auto replay = ReplayWorkload(engine->get(), patterns, 8, workload_options);
    if (!replay.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   replay.status().ToString().c_str());
      return false;
    }
    *qps = replay->qps;
    return true;
  };
  double qps_metrics_off = 0;
  double qps_metrics_on = 0;
  double warmup_qps = 0;
  if (!replay_qps(false, &warmup_qps)) return 1;
  for (int rep = 0; rep < 3; ++rep) {
    const bool on_first = rep % 2 == 1;
    for (bool metrics_on : {on_first, !on_first}) {
      double qps = 0;
      if (!replay_qps(metrics_on, &qps)) return 1;
      double& best = metrics_on ? qps_metrics_on : qps_metrics_off;
      best = std::max(best, qps);
    }
  }
  const double overhead_ratio =
      qps_metrics_off > 0 ? qps_metrics_on / qps_metrics_off : 0;
  std::fprintf(stderr,
               "registry overhead (v3, 8 threads, best of 3): "
               "metrics_on=%.0f qps vs metrics_off=%.0f qps (ratio %.3f)\n",
               qps_metrics_on, qps_metrics_off, overhead_ratio);
  if (overhead_ratio < 0.98) {
    std::fprintf(stderr,
                 "FATAL: metrics registry costs more than 2%% QPS "
                 "(ratio %.3f < 0.98)\n",
                 overhead_ratio);
    return 1;
  }

  if (v3.compression_ratio < 2.0) {
    std::fprintf(stderr, "FATAL: v3 compression ratio %.2fx < 2x\n",
                 v3.compression_ratio);
    return 1;
  }
  for (std::size_t i = 0; i < 3; ++i) {
    const Row& row_v2 = rows[i];
    const Row& row_v3 = rows[i + 3];
    if (row_v3.cache_hit_rate <= row_v2.cache_hit_rate) {
      std::fprintf(stderr,
                   "FATAL: v3 block hit rate %.3f is not strictly above v2's "
                   "%.3f "
                   "at %u threads (same %.0f MB budget)\n",
                   row_v3.cache_hit_rate, row_v2.cache_hit_rate,
                   row_v2.threads, cache_mb);
      return 1;
    }
    if (row_v3.replay.qps <= row_v2.replay.qps) {
      std::fprintf(stderr,
                   "FATAL: v3 qps %.0f does not beat v2 qps %.0f at %u "
                   "threads\n",
                   row_v3.replay.qps, row_v2.replay.qps, row_v2.threads);
      return 1;
    }
  }

  FILE* out = std::fopen("BENCH_query.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_query.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"query_qps\",\n");
  std::fprintf(out, "  \"corpus\": \"generated DNA (seed 42)\",\n");
  std::fprintf(out, "  \"text_mb\": %.2f,\n", text_mb);
  std::fprintf(out, "  \"patterns\": %zu,\n", patterns.size());
  std::fprintf(out,
               "  \"workload\": {\"min_len\": %zu, \"max_len\": %zu, "
               "\"absent_fraction\": %.2f, \"locate_every\": %zu, "
               "\"locate_limit\": %zu},\n",
               workload_options.min_len, workload_options.max_len,
               workload_options.absent_fraction, workload_options.locate_every,
               workload_options.locate_limit);
  std::fprintf(out,
               "  \"device\": {\"kind\": \"LatencyEnv\", "
               "\"bandwidth_mb_per_s\": %.1f, \"request_latency_us\": %.0f, "
               "\"concurrent_requests\": \"independent\"},\n",
               bandwidth_mb, model.read_latency_seconds * 1e6);
  std::fprintf(out, "  \"cache_budget_mb\": %.1f,\n", cache_mb);
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"formats\": [\n");
  for (std::size_t i = 0; i < formats.size(); ++i) {
    const FormatInfo& f = formats[i];
    std::fprintf(out,
                 "    {\"format\": \"%s\", \"nodes\": %llu, "
                 "\"disk_bytes\": %llu, \"serving_bytes\": %llu, "
                 "\"inflated_bytes\": %llu, \"bytes_per_node\": %.2f, "
                 "\"compression_ratio_vs_counted\": %.3f}%s\n",
                 f.name.c_str(), static_cast<unsigned long long>(f.nodes),
                 static_cast<unsigned long long>(f.disk_bytes),
                 static_cast<unsigned long long>(f.serving_bytes),
                 static_cast<unsigned long long>(f.inflated_bytes),
                 f.bytes_per_node, f.compression_ratio,
                 i + 1 < formats.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"registry_overhead\": {\"config\": \"v3 8 threads, best "
               "of 3\", \"qps_metrics_off\": %.1f, \"qps_metrics_on\": %.1f, "
               "\"ratio\": %.4f},\n",
               qps_metrics_off, qps_metrics_on, overhead_ratio);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        out,
        "    {\"format\": \"%s\", \"threads\": %u, \"qps\": %.1f, "
        "\"wall_seconds\": %.3f, "
        "\"speedup_vs_single_thread\": %.3f, \"queries\": %llu, "
        "\"count_queries\": %llu, \"locate_queries\": %llu, "
        "\"cache_hit_rate\": %.3f, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"block_hits\": %llu, "
        "\"block_misses\": %llu, \"cache_evictions\": %llu, "
        "\"cache_evicted_bytes\": %llu, \"cache_resident_bytes\": %llu, "
        "\"resident_subtrees\": %llu, \"bytes_per_node\": %.2f, "
        "\"nodes_visited\": %llu, \"leaves_enumerated\": %llu, "
        "\"trie_resolved_counts\": %llu, \"p50_ms\": %.3f, "
        "\"p90_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"occurrence_checksum\": %llu}%s\n",
        r.format->name.c_str(), r.threads, r.replay.qps,
        r.replay.wall_seconds, r.speedup,
        static_cast<unsigned long long>(r.replay.queries),
        static_cast<unsigned long long>(r.replay.count_queries),
        static_cast<unsigned long long>(r.replay.locate_queries),
        r.cache_hit_rate, static_cast<unsigned long long>(r.cache.hits),
        static_cast<unsigned long long>(r.cache.misses),
        static_cast<unsigned long long>(r.cache.block_hits),
        static_cast<unsigned long long>(r.cache.block_misses),
        static_cast<unsigned long long>(r.cache.evictions),
        static_cast<unsigned long long>(r.cache.evicted_bytes),
        static_cast<unsigned long long>(r.cache.resident_bytes),
        static_cast<unsigned long long>(r.cache.resident_trees),
        r.format->bytes_per_node,
        static_cast<unsigned long long>(r.stats.nodes_visited),
        static_cast<unsigned long long>(r.stats.leaves_enumerated),
        static_cast<unsigned long long>(r.stats.trie_resolved_counts),
        r.replay.p50_ms, r.replay.p90_ms, r.replay.p99_ms,
        static_cast<unsigned long long>(r.replay.occurrence_checksum),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_query.json\n");
  return 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) { return era::Main(argc, argv); }
