// Shedding-vs-collapse benchmark: what admission control buys under
// overload, and what deadline enforcement costs when it is not needed.
//
// Emits BENCH_serve.json in the current directory and exits non-zero when
// the overload-control guarantees do not hold (CI runs this as a guard).
//
// Methodology:
//  * Index + patterns are built once (PosixEnv). Serving goes through a
//    LatencyEnv with a BOUNDED device queue depth: the device can run
//    `--slots` requests concurrently and queues the rest FIFO. The bound is
//    what makes "capacity" a real number — with unbounded concurrency every
//    offered load is below capacity and overload cannot be observed.
//  * Capacity is measured closed-loop with `--slots` threads (one per
//    device slot, so the device is saturated but never queues). All serving
//    runs warm the engine with one full workload pass first, so the rows
//    compare steady-state service, not cold-cache misses.
//  * The sweep is OPEN-LOOP: query j has a fixed scheduled arrival
//    start + j/rate and a deadline of scheduled + --deadline-ms,
//    independent of how backlogged the server is (arrivals do not slow down
//    because the server is slow — that is what makes overload dangerous).
//    Each offered load (0.5x/1x/2x/4x capacity) runs twice: admission ON
//    (slots + a small bounded queue, shed beyond) and OFF (every arrival
//    enters the engine and piles onto the device).
//  * Goodput counts only on-time, byte-correct answers: status OK, finished
//    before the deadline, and result checksum identical to the unloaded
//    reference. Everything else — shed, expired, late — is not goodput.
//  * The deadline storm is the correctness half: 8 threads fire the whole
//    workload with tiny randomized deadlines through a live admission
//    controller; every single response must be byte-correct OK,
//    DeadlineExceeded, or ResourceExhausted. Anything else (wrong bytes, a
//    hang, a crash, an unexpected code) fails the bench.
//
// Guards (exit 1 when violated):
//  * controlled goodput at 2x offered >= --min-goodput-frac * capacity
//  * controlled goodput at 4x offered >= --min-collapse-ratio * uncontrolled
//    goodput at 4x
//  * storm saw only the three legal outcomes and nonzero successes

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/metrics.h"
#include "common/options.h"
#include "common/query_context.h"
#include "era/era_builder.h"
#include "io/latency_env.h"
#include "io/posix_env.h"
#include "query/admission.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "text/corpus.h"
#include "text/text_generator.h"

namespace era {
namespace {

using bench::ArgOr;
using bench::ScopedRemoveAll;
using Clock = QueryContext::Clock;

/// Every 4th query is a Locate (mirrors the mixed serving workload); the
/// rest are Counts.
constexpr std::size_t kLocateEvery = 4;
constexpr std::size_t kLocateLimit = 100;

bool IsLocate(std::size_t j) { return j % kLocateEvery == kLocateEvery - 1; }

/// Order-independent checksum of one query's answer, comparable between the
/// unloaded reference run and the loaded runs.
uint64_t CountChecksum(uint64_t count) { return count * 0x9e3779b97f4a7c15ull; }
uint64_t LocateChecksum(const std::vector<uint64_t>& offsets) {
  uint64_t sum = offsets.size();
  for (uint64_t offset : offsets) sum += offset * 0x9e3779b97f4a7c15ull + 1;
  return sum;
}

/// Issues query j with `ctx`; returns its status and fills `checksum` on OK.
Status IssueQuery(QueryEngine* engine, const QueryContext& ctx,
                  const std::vector<std::string>& patterns, std::size_t j,
                  uint64_t* checksum) {
  const std::string& pattern = patterns[j % patterns.size()];
  if (IsLocate(j)) {
    auto hits =
        engine->Locate(pattern, kLocateLimit, LocateOrder::kSmallest, ctx);
    if (!hits.ok()) return hits.status();
    *checksum = LocateChecksum(*hits);
    return Status::OK();
  }
  auto count = engine->Count(pattern, ctx);
  if (!count.ok()) return count.status();
  *checksum = CountChecksum(*count);
  return Status::OK();
}

/// One full pass over the workload from `threads` closed-loop threads
/// (thread t takes j = t, t+T, ...). Returns wall seconds, or < 0 on error.
double ClosedLoopPass(QueryEngine* engine,
                      const std::vector<std::string>& patterns,
                      unsigned threads) {
  std::atomic<bool> failed{false};
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t j = t; j < patterns.size(); j += threads) {
        uint64_t checksum = 0;
        Status s = IssueQuery(engine, QueryContext::Background(), patterns, j,
                              &checksum);
        if (!s.ok()) {
          failed.store(true);
          return;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  if (failed.load()) return -1.0;
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Aggregate of one open-loop run.
struct LoadResult {
  double offered_qps = 0;
  bool admission = false;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t correct_on_time = 0;  // goodput numerator
  uint64_t late_or_wrong = 0;    // OK but after deadline / wrong bytes
  uint64_t shed = 0;
  uint64_t deadline_exceeded = 0;
  uint64_t other_errors = 0;
  double elapsed_seconds = 0;
  double goodput_qps = 0;
  double p50_ms = 0;
  double p90_ms = 0;
  double p99_ms = 0;
};

/// Open-loop run: `runners` threads drain a shared arrival schedule at
/// `rate` arrivals/second for ~`seconds`. Query j's deadline starts at its
/// SCHEDULED arrival — a backlogged server burns the client's budget.
LoadResult OpenLoopRun(QueryEngine* engine,
                       const std::vector<std::string>& patterns,
                       const std::vector<uint64_t>& reference, double rate,
                       bool admission, unsigned runners, double seconds,
                       double deadline_seconds) {
  LoadResult result;
  result.offered_qps = rate;
  result.admission = admission;

  std::atomic<uint64_t> next{0};
  std::mutex mu;  // guards the per-run aggregates below
  // Sojourn latencies go through the shared histogram type (lock-free
  // Observe from every runner) instead of a private sorted array; the
  // percentiles below come from its interpolated quantiles.
  Histogram sojourn_seconds;
  const auto start = Clock::now();
  const auto deadline_budget = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(deadline_seconds));

  std::vector<std::thread> workers;
  workers.reserve(runners);
  for (unsigned t = 0; t < runners; ++t) {
    workers.emplace_back([&, t] {
      uint64_t ok = 0, correct_on_time = 0, late_or_wrong = 0, shed = 0;
      uint64_t expired = 0, other = 0;
      for (;;) {
        const uint64_t j = next.fetch_add(1);
        const auto scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(j) / rate));
        if (std::chrono::duration<double>(scheduled - start).count() >
            seconds) {
          break;  // past the measurement window; stop offering
        }
        std::this_thread::sleep_until(scheduled);
        QueryContext ctx =
            QueryContext::WithDeadline(scheduled + deadline_budget);
        ctx.client_id = t;
        uint64_t checksum = 0;
        Status s = IssueQuery(engine, ctx, patterns, j, &checksum);
        const auto done = Clock::now();
        if (s.ok()) {
          ++ok;
          const bool on_time = done <= scheduled + deadline_budget;
          const bool correct = checksum == reference[j % reference.size()];
          if (on_time && correct) {
            ++correct_on_time;
            sojourn_seconds.Observe(
                std::chrono::duration<double>(done - scheduled).count());
          } else {
            ++late_or_wrong;
          }
        } else if (s.IsResourceExhausted()) {
          ++shed;
        } else if (s.IsDeadlineExceeded()) {
          ++expired;
        } else {
          ++other;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.ok += ok;
      result.correct_on_time += correct_on_time;
      result.late_or_wrong += late_or_wrong;
      result.shed += shed;
      result.deadline_exceeded += expired;
      result.other_errors += other;
    });
  }
  for (std::thread& w : workers) w.join();

  result.elapsed_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  result.offered = result.ok + result.late_or_wrong + result.shed +
                   result.deadline_exceeded + result.other_errors;
  result.goodput_qps = result.elapsed_seconds > 0
                           ? static_cast<double>(result.correct_on_time) /
                                 result.elapsed_seconds
                           : 0;
  const HistogramSnapshot sojourn = sojourn_seconds.snapshot();
  if (sojourn.count > 0) {
    result.p50_ms = sojourn.Quantile(0.50) * 1000.0;
    result.p90_ms = sojourn.Quantile(0.90) * 1000.0;
    result.p99_ms = sojourn.Quantile(0.99) * 1000.0;
  }
  return result;
}

/// Deadline storm: every thread fires the whole workload with tiny random
/// deadlines; tallies outcomes and flags anything outside the contract.
struct StormResult {
  uint64_t queries = 0;
  uint64_t ok_correct = 0;
  uint64_t ok_wrong = 0;  // must stay 0: admitted answers must be identical
  uint64_t deadline_exceeded = 0;
  uint64_t shed = 0;
  uint64_t illegal_status = 0;  // must stay 0
};

StormResult DeadlineStorm(QueryEngine* engine,
                          const std::vector<std::string>& patterns,
                          const std::vector<uint64_t>& reference,
                          unsigned threads) {
  StormResult result;
  std::mutex mu;
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      std::mt19937_64 rng(0x5eedull * (t + 1));
      std::uniform_real_distribution<double> deadline_ms(0.05, 5.0);
      StormResult local;
      for (std::size_t j = t; j < patterns.size(); j += threads) {
        QueryContext ctx =
            QueryContext::WithTimeout(deadline_ms(rng) / 1000.0);
        ctx.client_id = t;
        uint64_t checksum = 0;
        Status s = IssueQuery(engine, ctx, patterns, j, &checksum);
        ++local.queries;
        if (s.ok()) {
          if (checksum == reference[j % reference.size()]) {
            ++local.ok_correct;
          } else {
            ++local.ok_wrong;
          }
        } else if (s.IsDeadlineExceeded()) {
          ++local.deadline_exceeded;
        } else if (s.IsResourceExhausted()) {
          ++local.shed;
        } else {
          ++local.illegal_status;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      result.queries += local.queries;
      result.ok_correct += local.ok_correct;
      result.ok_wrong += local.ok_wrong;
      result.deadline_exceeded += local.deadline_exceeded;
      result.shed += local.shed;
      result.illegal_status += local.illegal_status;
    });
  }
  for (std::thread& w : workers) w.join();
  return result;
}

int Main(int argc, char** argv) {
  const double text_mb = ArgOr(argc, argv, "mb", 2.0);
  const double bandwidth_mb = ArgOr(argc, argv, "bandwidth-mb", 96.0);
  const double budget_mb = ArgOr(argc, argv, "budget-mb", 8.0);
  const double cache_mb = ArgOr(argc, argv, "cache-mb", 64.0);
  const std::size_t num_patterns =
      static_cast<std::size_t>(ArgOr(argc, argv, "patterns", 2000.0));
  const uint32_t slots =
      static_cast<uint32_t>(ArgOr(argc, argv, "slots", 4.0));
  const unsigned runners =
      static_cast<unsigned>(ArgOr(argc, argv, "runners", 16.0));
  const uint32_t queue =
      static_cast<uint32_t>(ArgOr(argc, argv, "queue", 8.0));
  const double seconds = ArgOr(argc, argv, "seconds", 3.0);
  double deadline_ms = ArgOr(argc, argv, "deadline-ms", 0.0);
  const double min_goodput_frac =
      ArgOr(argc, argv, "min-goodput-frac", 0.7);
  const double min_collapse_ratio =
      ArgOr(argc, argv, "min-collapse-ratio", 2.0);
  const uint64_t body_len = static_cast<uint64_t>(text_mb * 1024 * 1024);

  // The serving device: bounded queue depth = the admission slot count, so
  // the controller's cap matches what the device can genuinely run.
  LatencyModel model;
  model.read_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.write_bytes_per_second = bandwidth_mb * 1024 * 1024;
  model.queue_depth = slots;

  Env* posix = GetDefaultEnv();
  LatencyEnv env(posix, model);

  const std::string root = "/tmp/era_serve_" + std::to_string(::getpid());
  Status dir_status = posix->CreateDir(root);
  if (!dir_status.ok()) {
    std::fprintf(stderr, "%s\n", dir_status.ToString().c_str());
    return 1;
  }
  ScopedRemoveAll cleanup{root};

  // Setup (raw env): corpus, index, workload.
  std::string text = GenerateDna(body_len, /*seed=*/42);
  auto info = MaterializeText(posix, root + "/text", Alphabet::Dna(), text);
  if (!info.ok()) {
    std::fprintf(stderr, "%s\n", info.status().ToString().c_str());
    return 1;
  }
  {
    BuildOptions options;
    options.env = posix;
    options.work_dir = root + "/idx";
    options.memory_budget = static_cast<uint64_t>(budget_mb * 1024 * 1024);
    EraBuilder builder(options);
    auto result = builder.Build(*info);
    if (!result.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
  }
  QueryWorkloadOptions workload_options;
  workload_options.num_patterns = num_patterns;
  std::vector<std::string> patterns =
      SamplePatternWorkload(text, workload_options);
  text.clear();
  text.shrink_to_fit();

  QueryEngineOptions base_options;
  base_options.cache.budget_bytes =
      static_cast<uint64_t>(cache_mb * 1024 * 1024);

  // Reference checksums from an UNLOADED engine on the raw env: ground
  // truth every loaded answer must match byte-for-byte.
  std::vector<uint64_t> reference(patterns.size(), 0);
  {
    auto engine = QueryEngine::Open(posix, root + "/idx", base_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    for (std::size_t j = 0; j < patterns.size(); ++j) {
      Status s = IssueQuery(engine->get(), QueryContext::Background(),
                            patterns, j, &reference[j]);
      if (!s.ok()) {
        std::fprintf(stderr, "reference query failed: %s\n",
                     s.ToString().c_str());
        return 1;
      }
    }
  }

  // Capacity: closed loop at one thread per device slot, warmed first.
  double capacity_qps = 0;
  {
    auto engine = QueryEngine::Open(&env, root + "/idx", base_options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    if (ClosedLoopPass(engine->get(), patterns, slots) < 0) {
      std::fprintf(stderr, "warm pass failed\n");
      return 1;
    }
    const double wall = ClosedLoopPass(engine->get(), patterns, slots);
    if (wall < 0) {
      std::fprintf(stderr, "capacity pass failed\n");
      return 1;
    }
    capacity_qps = static_cast<double>(patterns.size()) / wall;
  }
  // Mean service time ~= slots / capacity (slots queries in flight). The
  // default deadline is a generous multiple: unloaded queries never miss
  // it, backlogged ones do.
  const double mean_service_ms = 1000.0 * slots / capacity_qps;
  if (deadline_ms <= 0) {
    deadline_ms = std::min(250.0, std::max(20.0, 6.0 * mean_service_ms));
  }
  std::fprintf(stderr,
               "capacity=%.0f qps (slots=%u, mean service %.2f ms), "
               "deadline=%.0f ms\n",
               capacity_qps, slots, mean_service_ms, deadline_ms);

  // The sweep: offered load 0.5x/1x/2x/4x capacity, admission on vs off.
  std::vector<LoadResult> rows;
  for (double mult : {0.5, 1.0, 2.0, 4.0}) {
    for (bool admission : {true, false}) {
      QueryEngineOptions options = base_options;
      options.admission.enabled = admission;
      options.admission.max_in_flight = slots;
      options.admission.max_queue = queue;
      auto engine = QueryEngine::Open(&env, root + "/idx", options);
      if (!engine.ok()) {
        std::fprintf(stderr, "open failed: %s\n",
                     engine.status().ToString().c_str());
        return 1;
      }
      if (ClosedLoopPass(engine->get(), patterns, slots) < 0) {
        std::fprintf(stderr, "warm pass failed\n");
        return 1;
      }
      LoadResult row = OpenLoopRun(engine->get(), patterns, reference,
                                   mult * capacity_qps, admission, runners,
                                   seconds, deadline_ms / 1000.0);
      if (row.other_errors != 0) {
        std::fprintf(stderr,
                     "FATAL: %llu responses with unexpected status at "
                     "%.1fx load (admission=%d)\n",
                     static_cast<unsigned long long>(row.other_errors), mult,
                     admission ? 1 : 0);
        return 1;
      }
      ServingStats serving = (*engine)->serving();
      std::fprintf(
          stderr,
          "offered=%.1fx (%.0f qps) admission=%-3s goodput=%.0f qps "
          "ok=%llu shed=%llu expired=%llu late=%llu p50=%.1fms p99=%.1fms "
          "(served: admitted=%llu queued=%llu shed=%llu)\n",
          mult, row.offered_qps, admission ? "on" : "off", row.goodput_qps,
          static_cast<unsigned long long>(row.ok),
          static_cast<unsigned long long>(row.shed),
          static_cast<unsigned long long>(row.deadline_exceeded),
          static_cast<unsigned long long>(row.late_or_wrong), row.p50_ms,
          row.p99_ms, static_cast<unsigned long long>(serving.admitted),
          static_cast<unsigned long long>(serving.queued),
          static_cast<unsigned long long>(serving.shed));
      rows.push_back(row);
    }
  }

  // Deadline storm through a live controller.
  StormResult storm;
  {
    QueryEngineOptions options = base_options;
    options.admission.enabled = true;
    options.admission.max_in_flight = slots;
    options.admission.max_queue = queue;
    auto engine = QueryEngine::Open(&env, root + "/idx", options);
    if (!engine.ok()) {
      std::fprintf(stderr, "open failed: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    storm = DeadlineStorm(engine->get(), patterns, reference, /*threads=*/8);
    std::fprintf(stderr,
                 "storm: %llu queries -> ok=%llu expired=%llu shed=%llu "
                 "wrong=%llu illegal=%llu\n",
                 static_cast<unsigned long long>(storm.queries),
                 static_cast<unsigned long long>(storm.ok_correct),
                 static_cast<unsigned long long>(storm.deadline_exceeded),
                 static_cast<unsigned long long>(storm.shed),
                 static_cast<unsigned long long>(storm.ok_wrong),
                 static_cast<unsigned long long>(storm.illegal_status));
  }

  // Guards.
  const LoadResult* on_2x = nullptr;
  const LoadResult* on_4x = nullptr;
  const LoadResult* off_4x = nullptr;
  for (const LoadResult& row : rows) {
    const double mult = row.offered_qps / capacity_qps;
    if (row.admission && mult > 1.5 && mult < 2.5) on_2x = &row;
    if (row.admission && mult > 3.0) on_4x = &row;
    if (!row.admission && mult > 3.0) off_4x = &row;
  }
  bool failed = false;
  if (on_2x == nullptr || on_4x == nullptr || off_4x == nullptr) {
    std::fprintf(stderr, "FATAL: sweep rows missing\n");
    failed = true;
  } else {
    if (on_2x->goodput_qps < min_goodput_frac * capacity_qps) {
      std::fprintf(stderr,
                   "GUARD FAILED: goodput at 2x with admission = %.0f qps "
                   "< %.0f%% of capacity %.0f qps\n",
                   on_2x->goodput_qps, 100 * min_goodput_frac, capacity_qps);
      failed = true;
    }
    // Uncontrolled goodput can round to ~0; guard against div-by-zero by
    // comparing cross-multiplied.
    if (on_4x->goodput_qps < min_collapse_ratio * off_4x->goodput_qps) {
      std::fprintf(stderr,
                   "GUARD FAILED: goodput at 4x, admission on (%.0f qps) < "
                   "%.1fx admission off (%.0f qps)\n",
                   on_4x->goodput_qps, min_collapse_ratio,
                   off_4x->goodput_qps);
      failed = true;
    }
  }
  if (storm.ok_wrong != 0 || storm.illegal_status != 0 ||
      storm.ok_correct == 0) {
    std::fprintf(stderr,
                 "GUARD FAILED: storm contract (wrong=%llu illegal=%llu "
                 "ok=%llu)\n",
                 static_cast<unsigned long long>(storm.ok_wrong),
                 static_cast<unsigned long long>(storm.illegal_status),
                 static_cast<unsigned long long>(storm.ok_correct));
    failed = true;
  }

  FILE* out = std::fopen("BENCH_serve.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_serve.json\n");
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"serve_overload\",\n");
  std::fprintf(out, "  \"corpus\": \"generated DNA (seed 42)\",\n");
  std::fprintf(out, "  \"text_mb\": %.2f,\n", text_mb);
  std::fprintf(out, "  \"patterns\": %zu,\n", patterns.size());
  std::fprintf(out,
               "  \"device\": {\"kind\": \"LatencyEnv\", "
               "\"bandwidth_mb_per_s\": %.1f, \"request_latency_us\": %.0f, "
               "\"queue_depth\": %u},\n",
               bandwidth_mb, model.read_latency_seconds * 1e6, slots);
  std::fprintf(out,
               "  \"admission\": {\"max_in_flight\": %u, \"max_queue\": %u},"
               "\n",
               slots, queue);
  std::fprintf(out, "  \"runners\": %u,\n", runners);
  std::fprintf(out, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(out, "  \"mean_service_ms\": %.3f,\n", mean_service_ms);
  std::fprintf(out, "  \"deadline_ms\": %.1f,\n", deadline_ms);
  std::fprintf(out, "  \"runs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LoadResult& r = rows[i];
    std::fprintf(
        out,
        "    {\"offered_x_capacity\": %.2f, \"offered_qps\": %.1f, "
        "\"admission\": %s, \"offered\": %llu, \"ok\": %llu, "
        "\"goodput_qps\": %.1f, \"goodput\": %llu, \"shed\": %llu, "
        "\"deadline_exceeded\": %llu, \"late_or_wrong\": %llu, "
        "\"p50_ms\": %.2f, \"p99_ms\": %.2f, \"p90_ms\": %.2f, "
        "\"elapsed_seconds\": %.2f}%s\n",
        r.offered_qps / capacity_qps, r.offered_qps,
        r.admission ? "true" : "false",
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.ok), r.goodput_qps,
        static_cast<unsigned long long>(r.correct_on_time),
        static_cast<unsigned long long>(r.shed),
        static_cast<unsigned long long>(r.deadline_exceeded),
        static_cast<unsigned long long>(r.late_or_wrong), r.p50_ms, r.p99_ms,
        r.p90_ms, r.elapsed_seconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"deadline_storm\": {\"threads\": 8, \"queries\": %llu, "
               "\"ok_correct\": %llu, \"deadline_exceeded\": %llu, "
               "\"shed\": %llu, \"ok_wrong\": %llu, \"illegal_status\": "
               "%llu},\n",
               static_cast<unsigned long long>(storm.queries),
               static_cast<unsigned long long>(storm.ok_correct),
               static_cast<unsigned long long>(storm.deadline_exceeded),
               static_cast<unsigned long long>(storm.shed),
               static_cast<unsigned long long>(storm.ok_wrong),
               static_cast<unsigned long long>(storm.illegal_status));
  std::fprintf(out,
               "  \"guards\": {\"min_goodput_frac_at_2x\": %.2f, "
               "\"min_collapse_ratio_at_4x\": %.2f, \"passed\": %s}\n",
               min_goodput_frac, min_collapse_ratio,
               failed ? "false" : "true");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::fprintf(stderr, "wrote BENCH_serve.json%s\n",
               failed ? " (GUARDS FAILED)" : "");
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace era

int main(int argc, char** argv) { return era::Main(argc, argv); }
