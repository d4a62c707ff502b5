// Concurrent document-query serving benchmark.
//
// Builds a generated multi-document DNA collection once (CollectionBuilder
// over the work-stealing pipeline), then replays a mixed CountDocs /
// TopKDocuments / LocateInDoc workload against one DocEngine at 1/2/4/8
// threads and emits BENCH_collection.json (QPS, speedup, cache hit rate,
// doc-query counters) in the current directory.
//
// Methodology notes:
//  * Same device treatment as bench/query_qps.cc: the index and text live in
//    real files (PosixEnv) wrapped in LatencyEnv, so per-request device
//    latency is charged as real sleeps (NVMe-like: concurrent requests do
//    not serialize) and thread scaling measures what the serving layer buys.
//  * Every row replays the identical workload (thread t takes items
//    t, t+T, ...); the answer checksum must match across rows — the bench
//    fails if any thread count changes any answer.
//  * Each row runs on a freshly opened engine (cold cache) so the reported
//    hit rate is comparable across rows.
//  * A slice of the workload is made of boundary spans (suffix of one
//    document + prefix of the next, no separator): the collection layout
//    guarantees those make it to the mismatch paths instead of matching.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "common/timer.h"
#include "io/latency_env.h"
#include "io/posix_env.h"

namespace era {
namespace {

using bench::ArgOr;
using bench::ScopedRemoveAll;

/// One workload item; `kind` cycles deterministically with the item index.
struct WorkItem {
  enum Kind { kCountDocs, kTopK, kLocateInDoc } kind = kCountDocs;
  std::string pattern;
  uint32_t doc_id = 0;  // kLocateInDoc only
};

std::vector<WorkItem> SampleDocWorkload(const std::vector<std::string>& docs,
                                        std::size_t num_items, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> doc_dist(0, docs.size() - 1);
  std::uniform_int_distribution<std::size_t> len_dist(4, 20);
  std::vector<WorkItem> items;
  items.reserve(num_items);
  while (items.size() < num_items) {
    WorkItem item;
    const std::size_t i = items.size();
    item.kind = i % 4 == 0   ? WorkItem::kTopK
                : i % 4 == 1 ? WorkItem::kLocateInDoc
                             : WorkItem::kCountDocs;
    std::size_t d = doc_dist(rng);
    const std::string& doc = docs[d];
    if (doc.size() < 8) continue;
    std::size_t len = std::min(len_dist(rng), doc.size());
    std::uniform_int_distribution<std::size_t> pos_dist(0, doc.size() - len);
    item.pattern = doc.substr(pos_dist(rng), len);
    if (i % 10 == 9 && d + 1 < docs.size() && !docs[d + 1].empty()) {
      // Boundary span: guaranteed not to cross in the indexed layout.
      std::size_t a = 1 + rng() % 6;
      a = std::min(a, doc.size());
      std::size_t b = 1 + rng() % 6;
      b = std::min(b, docs[d + 1].size());
      item.pattern = doc.substr(doc.size() - a) + docs[d + 1].substr(0, b);
    } else if (i % 10 == 4) {
      item.pattern.back() = "ACGT"[rng() % 4];  // mostly-absent mutant
    }
    item.doc_id = static_cast<uint32_t>(doc_dist(rng));
    items.push_back(std::move(item));
  }
  return items;
}

struct ReplayRow {
  unsigned threads = 0;
  uint64_t queries = 0;
  double wall_seconds = 0;
  double qps = 0;
  double speedup = 0;
  uint64_t checksum = 0;
  TreeIndex::CacheSnapshot cache;
  double cache_hit_rate = 0;
  DocQueryStats doc_stats;
};

/// Replays `items` from `num_threads` threads (thread t takes items t,
/// t+T, ...); the checksum folds every answer, so it is thread-count
/// invariant iff the answers are.
StatusOr<ReplayRow> ReplayDocWorkload(DocEngine* engine,
                                      const std::vector<WorkItem>& items,
                                      unsigned num_threads) {
  struct Outcome {
    Status status = Status::OK();
    uint64_t checksum = 0;
    uint64_t queries = 0;
  };
  std::vector<Outcome> outcomes(num_threads);

  auto worker = [&](unsigned t) {
    Outcome& out = outcomes[t];
    for (std::size_t i = t; i < items.size(); i += num_threads) {
      const WorkItem& item = items[i];
      switch (item.kind) {
        case WorkItem::kCountDocs: {
          auto count = engine->CountDocs(item.pattern);
          if (!count.ok()) {
            out.status = count.status();
            return;
          }
          out.checksum += *count;
          break;
        }
        case WorkItem::kTopK: {
          auto topk = engine->TopKDocuments(item.pattern, 5);
          if (!topk.ok()) {
            out.status = topk.status();
            return;
          }
          for (const DocHit& hit : *topk) {
            out.checksum += (hit.doc_id + 1) * hit.occurrences;
          }
          break;
        }
        case WorkItem::kLocateInDoc: {
          auto local = engine->LocateInDoc(item.pattern, item.doc_id);
          if (!local.ok()) {
            out.status = local.status();
            return;
          }
          for (uint64_t offset : *local) out.checksum += offset + 1;
          break;
        }
      }
      ++out.queries;
    }
  };

  WallTimer timer;
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) threads.emplace_back(worker, t);
  for (std::thread& thread : threads) thread.join();

  ReplayRow row;
  row.threads = num_threads;
  row.wall_seconds = timer.Seconds();
  for (const Outcome& out : outcomes) {
    ERA_RETURN_NOT_OK(out.status);
    row.checksum += out.checksum;
    row.queries += out.queries;
  }
  row.qps = row.wall_seconds > 0
                ? static_cast<double>(row.queries) / row.wall_seconds
                : 0;
  return row;
}

int Main(int argc, char** argv) {
  const std::size_t num_docs =
      static_cast<std::size_t>(ArgOr(argc, argv, "docs", 64.0));
  const double doc_kb = ArgOr(argc, argv, "doc-kb", 64.0);
  const double bandwidth_mb = ArgOr(argc, argv, "bandwidth-mb", 96.0);
  const double budget_mb = ArgOr(argc, argv, "budget-mb", 8.0);
  const double cache_mb = ArgOr(argc, argv, "cache-mb", 64.0);
  const std::size_t num_items =
      static_cast<std::size_t>(ArgOr(argc, argv, "patterns", 3000.0));

  LatencyModel model;
  model.read_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.write_bytes_per_second = bandwidth_mb * 1024 * 1024;

  Env* posix = GetDefaultEnv();
  LatencyEnv env(posix, model);

  const std::string root = "/tmp/era_colqps_" + std::to_string(::getpid());
  std::fprintf(stderr,
               "collection: %zu DNA docs x ~%.0f KB, device %.0f MB/s, "
               "%zu queries, work dir %s\n",
               num_docs, doc_kb, bandwidth_mb, num_items, root.c_str());
  if (Status s = posix->CreateDir(root); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  ScopedRemoveAll cleanup{root};

  // Corpus + build are setup, not the measured serving path: raw env.
  CollectionBuildOptions build_options;
  build_options.build.env = posix;
  build_options.build.work_dir = root + "/idx";
  build_options.build.memory_budget =
      static_cast<uint64_t>(budget_mb * 1024 * 1024);

  std::vector<std::string> docs;
  {
    const Alphabet alphabet = Alphabet::Dna();
    std::mt19937_64 rng(42);
    std::uniform_int_distribution<int> symbol_dist(0, alphabet.size() - 1);
    const std::size_t base_len = static_cast<std::size_t>(doc_kb * 1024);
    std::uniform_int_distribution<std::size_t> len_dist(
        base_len / 2, base_len + base_len / 2);
    for (std::size_t d = 0; d < num_docs; ++d) {
      std::size_t len = len_dist(rng);
      std::string body;
      body.reserve(len);
      for (std::size_t j = 0; j < len; ++j) {
        body.push_back(alphabet.Symbol(symbol_dist(rng)));
      }
      docs.push_back(std::move(body));
    }
    CollectionBuilder builder(alphabet, build_options);
    for (std::size_t d = 0; d < docs.size(); ++d) {
      if (Status s = builder.AddDocument("doc" + std::to_string(d), docs[d]);
          !s.ok()) {
        std::fprintf(stderr, "%s\n", s.ToString().c_str());
        return 1;
      }
    }
    auto result = builder.Build();
    if (!result.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "index: %zu sub-trees over %llu document bytes\n",
                 result->index.subtrees().size(),
                 static_cast<unsigned long long>(
                     result->documents.TotalDocumentBytes()));
  }

  std::vector<WorkItem> items = SampleDocWorkload(docs, num_items, 42);

  QueryEngineOptions engine_options;
  engine_options.cache.budget_bytes =
      static_cast<uint64_t>(cache_mb * 1024 * 1024);

  std::vector<ReplayRow> rows;
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    // Fresh engine per row: cold cache, comparable hit rates.
    auto engine = DocEngine::Open(&env, root + "/idx", engine_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    auto row = ReplayDocWorkload(engine->get(), items, threads);
    if (!row.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   row.status().ToString().c_str());
      return 1;
    }
    row->speedup = rows.empty() ? 1.0
                                : (rows[0].qps > 0 ? row->qps / rows[0].qps
                                                   : 0);
    row->cache = (*engine)->engine().cache();
    const uint64_t lookups = row->cache.block_hits + row->cache.block_misses;
    row->cache_hit_rate =
        lookups == 0 ? 0
                     : static_cast<double>(row->cache.block_hits) / lookups;
    row->doc_stats = (*engine)->doc_stats();
    rows.push_back(*row);

    std::fprintf(
        stderr,
        "threads=%u qps=%.0f wall=%.2fs speedup=%.2fx hit_rate=%.3f "
        "offsets_resolved=%llu checksum=%llu\n",
        threads, row->qps, row->wall_seconds, row->speedup,
        row->cache_hit_rate,
        static_cast<unsigned long long>(row->doc_stats.offsets_resolved),
        static_cast<unsigned long long>(row->checksum));
  }

  for (const ReplayRow& row : rows) {
    if (row.checksum != rows[0].checksum) {
      std::fprintf(stderr,
                   "FATAL: answer checksum diverges across thread counts "
                   "(%u threads)\n",
                   row.threads);
      return 1;
    }
    if (row.doc_stats.offsets_outside_documents != 0) {
      std::fprintf(stderr,
                   "FATAL: %llu occurrences resolved outside documents\n",
                   static_cast<unsigned long long>(
                       row.doc_stats.offsets_outside_documents));
      return 1;
    }
  }

  FILE* out = std::fopen("BENCH_collection.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_collection.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"collection_qps\",\n");
  std::fprintf(out, "  \"corpus\": \"generated DNA collection (seed 42)\",\n");
  std::fprintf(out, "  \"documents\": %zu,\n", docs.size());
  std::fprintf(out, "  \"doc_kb\": %.1f,\n", doc_kb);
  std::fprintf(out, "  \"queries\": %zu,\n", items.size());
  std::fprintf(out,
               "  \"workload\": {\"mix\": \"25%% TopKDocuments(k=5), 25%% "
               "LocateInDoc, 50%% CountDocs\", \"boundary_span_fraction\": "
               "0.1, \"mutant_fraction\": 0.1},\n");
  std::fprintf(out,
               "  \"device\": {\"kind\": \"LatencyEnv\", "
               "\"bandwidth_mb_per_s\": %.1f, \"request_latency_us\": %.0f, "
               "\"concurrent_requests\": \"independent\"},\n",
               bandwidth_mb, model.read_latency_seconds * 1e6);
  std::fprintf(out, "  \"cache_budget_mb\": %.1f,\n", cache_mb);
  std::fprintf(out, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ReplayRow& r = rows[i];
    std::fprintf(
        out,
        "    {\"threads\": %u, \"qps\": %.1f, \"wall_seconds\": %.3f, "
        "\"speedup_vs_single_thread\": %.3f, \"queries\": %llu, "
        "\"cache_hit_rate\": %.3f, \"cache_hits\": %llu, "
        "\"cache_misses\": %llu, \"cache_evictions\": %llu, "
        "\"doc_queries\": %llu, \"offsets_resolved\": %llu, "
        "\"docs_matched\": %llu, \"offsets_outside_documents\": %llu, "
        "\"answer_checksum\": %llu}%s\n",
        r.threads, r.qps, r.wall_seconds, r.speedup,
        static_cast<unsigned long long>(r.queries), r.cache_hit_rate,
        static_cast<unsigned long long>(r.cache.hits),
        static_cast<unsigned long long>(r.cache.misses),
        static_cast<unsigned long long>(r.cache.evictions),
        static_cast<unsigned long long>(r.doc_stats.queries),
        static_cast<unsigned long long>(r.doc_stats.offsets_resolved),
        static_cast<unsigned long long>(r.doc_stats.docs_matched),
        static_cast<unsigned long long>(
            r.doc_stats.offsets_outside_documents),
        static_cast<unsigned long long>(r.checksum),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_collection.json\n");
  return 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) { return era::Main(argc, argv); }
