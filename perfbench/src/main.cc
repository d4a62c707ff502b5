// perfbench: the repository's benchmark. One process generates a seeded
// DNA text and pattern pools, builds the v3 index out of core with the
// shipped default BuildOptions on a real PosixEnv, serves per-pattern
// lookups and dictionary batches from closed-loop clients, and checks every
// answer against an SA/LCP and Aho-Corasick oracle after timing.
//
//   perfbench --workload cold_cache|warm_cache --seed N --seconds S
//             --trace 0|1 --data-dir DIR [--pinned FILE] [--trace-out FILE]
//             [--commit C] [--source-digest D]
//   perfbench --selftest --data-dir DIR     reduced sizes, every check, and
//                                           a negative case per checker
//   perfbench --print-digests               digests of the default-seed
//                                           inputs (for --pinned)
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same inputs
// through traced drivers and prints the per-layer metrics. The last stdout
// line is the result object; the line before it is the run record
// (provenance, sizes, digests, sample counts).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "build.h"
#include "check.h"
#include "perfbench.h"
#include "serve.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

constexpr uint64_t kDefaultSeed = 42;

struct Args {
  Config config;
  std::string pinned;
  std::string trace_out;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  bool selftest = false;
  bool print_digests = false;
};

Config SelfTestConfig(Config c) {
  c.text_bytes = 1ull << 20;
  c.budget_per_worker = 2ull << 20;
  c.cold_cache_bytes = 8ull << 20;
  c.warm_cache_bytes = 32ull << 20;
  c.seconds = 0.5;
  c.lookup_pool = 2000;
  c.dict_batch = 400;
  c.dict_pool = 4;
  c.setup_repeats = 1;
  c.trace_lookups = 400;
  c.trace_dict_batches = 4;
  return c;
}

/// A run's verdict and numbers.
struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::ostringstream record;  // extra fields of the run record
  std::string error;

  void Fail(const std::string& what) {
    correct = false;
    if (error.empty()) error = what;
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ---------------------------------------------------------------------------
// Pinned inputs

/// Reads `"key": "value"` from the small pinned-digest JSON file.
std::string JsonString(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  at = json.find('"', json.find(':', at + needle.size()) + 1);
  const std::size_t end = json.find('"', at + 1);
  return json.substr(at + 1, end - at - 1);
}

std::string DigestJson(const Inputs& in, const Config& c, uint64_t seed) {
  std::ostringstream os;
  os << "{\"seed\": " << seed << ", \"text_bytes\": " << c.text_bytes
     << ", \"lookup_pool\": " << c.lookup_pool
     << ", \"dict_pool\": " << c.dict_pool
     << ", \"dict_batch\": " << c.dict_batch << ", \"text\": \""
     << in.text_digest << "\", \"lookups\": \"" << in.lookup_digest
     << "\", \"dict\": \"" << in.dict_digest << "\"}";
  return os.str();
}

/// Fails when the default-seed inputs no longer hash to the pinned digests:
/// a change to the generators would otherwise move every workload silently.
Status CheckPinned(const Args& args, const Inputs* same_seed) {
  if (args.pinned.empty()) return Status::OK();
  std::string json;
  ERA_RETURN_NOT_OK(era::GetDefaultEnv()->ReadFileToString(args.pinned, &json));
  Inputs generated;
  if (same_seed == nullptr) {
    generated = GenerateInputs(args.config, kDefaultSeed);
    same_seed = &generated;
  }
  for (auto [key, value] :
       {std::pair{"text", same_seed->text_digest},
        std::pair{"lookups", same_seed->lookup_digest},
        std::pair{"dict", same_seed->dict_digest}}) {
    if (JsonString(json, key) != value) {
      return Status::Internal(std::string("default-seed ") + key +
                              " digest drifted: pinned " +
                              JsonString(json, key) + ", generated " + value);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

/// Median over consecutive equal-count chunks of `calls` (completion order)
/// of `stat(chunk)`. There are n / min_per_chunk chunks, clamped to [1, 10],
/// so each holds the samples its statistic needs. A diagnostic for the
/// record: set beside the whole-phase figure, it shows whether a stall hit
/// only part of a phase.
template <typename Stat>
double ChunkMedian(const std::vector<CallRecord>& calls,
                   std::size_t min_per_chunk, Stat stat) {
  const std::size_t n = calls.size();
  if (n == 0) return 0;
  const std::size_t chunks = std::clamp<std::size_t>(n / min_per_chunk, 1, 10);
  std::vector<double> values;
  for (std::size_t c = 0; c < chunks; ++c) {
    PhaseResult chunk;
    chunk.calls.assign(calls.begin() + n * c / chunks,
                       calls.begin() + n * (c + 1) / chunks);
    values.push_back(stat(chunk));
  }
  return Percentiles::Median(values);
}

/// Chunk statistic: the chunk's rate.
auto ChunkRate(unsigned clients) {
  return [clients](const PhaseResult& chunk) { return chunk.Rate(clients); };
}

/// Chunk statistic: the q-quantile of the chunk's latencies.
auto ChunkQuantile(double q) {
  return [q](const PhaseResult& chunk) {
    std::vector<double> ms;
    for (const CallRecord& c : chunk.calls) ms.push_back(c.ms);
    const Percentiles p = Percentiles::Of(std::move(ms));
    return q == 0.5 ? p.p50 : q == 0.9 ? p.p90 : p.p99;
  };
}

era::QueryEngineOptions EngineOptions(const Config& config) {
  era::QueryEngineOptions options;
  options.cache.budget_bytes = config.cache_bytes();
  return options;
}

void CheckServing(const PhaseResult& lookups, const PhaseResult& dict,
                  AnswerKey* key, unsigned threads, Outcome* out) {
  const CheckResult l = CheckLookups(lookups.calls, key, threads);
  auto d = CheckBatches(dict.calls, key, threads);
  if (!d.ok()) {
    out->Fail("dictionary oracle: " + d.status().ToString());
    return;
  }
  out->attempted += lookups.calls.size() + dict.calls.size();
  out->failed += l.failed + d->failed;
  if (l.wrong + d->wrong > 0) {
    out->Fail(std::to_string(l.wrong) + " wrong lookup answers, " +
              std::to_string(d->wrong) + " wrong dictionary batches");
  }
  if (l.failed + d->failed > 0) {
    out->Fail(std::to_string(l.failed + d->failed) + " calls failed");
  }
}

/// The timed run: end-to-end metrics with tracing off.
void RunTimed(const Args& args, Outcome* out) {
  const Config& config = args.config;
  era::Env* env = era::GetDefaultEnv();
  const std::string text_path = config.data_dir + "/text";
  const std::string index_dir = config.data_dir + "/index";

  // Set-up, part 1 (before the build): inputs. Repeated; the median counts.
  std::vector<double> setup_s;
  Inputs inputs;
  for (int r = 0; r < config.setup_repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    inputs = GenerateInputs(config, config.seed);
    Status s = MaterializeInputs(text_path, &inputs);
    setup_s.push_back(SecondsSince(t0));
    if (!s.ok()) return out->Fail("materialize text: " + s.ToString());
  }
  Status pinned = CheckPinned(args, config.seed == kDefaultSeed ? &inputs
                                                                : nullptr);
  if (!pinned.ok()) return out->Fail(pinned.ToString());
  out->record << ", \"inputs\": " << DigestJson(inputs, config, config.seed);
  const bool rss_reset = ResetPeakRss();

  // The build.
  out->attempted += 1;
  const CpuTicks ticks_build = CpuTicks::Read();
  auto build = RunTimedBuild(config, inputs.info, index_dir, env);
  const CpuTicks ticks_built = CpuTicks::Read();
  if (!build.ok()) {
    out->failed += 1;
    return out->Fail("build: " + build.status().ToString());
  }

  // Set-up, part 2 (after the build): open the engine, warm its cache.
  std::unique_ptr<era::QueryEngine> engine;
  for (int r = 0; r < config.setup_repeats; ++r) {
    engine.reset();
    const Clock::time_point t0 = Clock::now();
    auto opened = era::QueryEngine::Open(env, index_dir, EngineOptions(config));
    if (!opened.ok()) return out->Fail("open: " + opened.status().ToString());
    engine = std::move(*opened);
    if (config.warm()) {
      Status s = WarmCache(engine.get(), env, config.workers, nullptr);
      if (!s.ok()) return out->Fail("warm-up: " + s.ToString());
    }
    setup_s[static_cast<std::size_t>(r)] += SecondsSince(t0);
  }

  const CpuTicks ticks_serving = CpuTicks::Read();
  const Serving serving = RunServing(engine.get(), config, inputs,
                                     config.seconds);
  const PhaseResult& lookups = serving.lookups;
  const PhaseResult& dict = serving.dict;
  const CpuTicks ticks_end = CpuTicks::Read();
  const double peak_rss = PeakRssMiB();
  const era::TreeIndex::CacheSnapshot cache = engine->cache();
  engine.reset();

  // Checks, outside the timed region.
  Clock::time_point t0 = Clock::now();
  const Oracle oracle = Oracle::Build(inputs.text);
  Status index_ok = CheckIndex(env, index_dir, oracle, config.workers);
  if (!index_ok.ok()) {
    out->failed += 1;
    out->Fail("build check: " + index_ok.ToString());
  }
  const double check_index_s = SecondsSince(t0);
  t0 = Clock::now();
  AnswerKey key(config, inputs, oracle);
  CheckServing(lookups, dict, &key, config.workers, out);
  const double check_serving_s = SecondsSince(t0);

  std::vector<double> lookup_ms, batch_ms;
  for (const CallRecord& c : lookups.calls) lookup_ms.push_back(c.ms);
  for (const CallRecord& c : dict.calls) batch_ms.push_back(c.ms);
  const Percentiles lp = Percentiles::Of(lookup_ms);
  const Percentiles bp = Percentiles::Of(batch_ms);
  const double text_mib = static_cast<double>(config.text_bytes) / (1 << 20);
  const era::BuildStats& stats = build->stats;

  out->Add("setup_s", Percentiles::Median(setup_s), "s");
  out->Add("peak_rss_mb", peak_rss, "MiB");
  out->Add("build_mb_per_s", text_mib / build->seconds, "MiB/s");
  out->Add("index_bytes_per_text_byte",
           static_cast<double>(build->index_bytes) /
               static_cast<double>(inputs.info.length),
           "ratio");
  // Serving metrics cover each whole phase: its rate over every call, and
  // exact percentiles over every call.
  const double batch = static_cast<double>(config.dict_batch);
  const unsigned clients = config.workers;
  out->Add("lookup_qps", lookups.Rate(clients), "1/s");
  out->Add("lookup_p50_ms", lp.p50, "ms");
  out->Add("lookup_p99_ms", lp.p99, "ms");
  out->Add("dict_patterns_per_s", dict.Rate(clients) * batch, "1/s");
  out->Add("dict_batch_p50_ms", bp.p50, "ms");
  out->Add("dict_batch_p90_ms", bp.p90, "ms");

  const ParallelColumns columns = ColumnsOf(*build);
  out->record << ", \"build\": {\"seconds\": " << Fmt(build->seconds)
              << ", \"prepare_critical_s\": "
              << Fmt(columns.prepare_critical_s)
              << ", \"writer_s\": " << Fmt(columns.writer_s)
              << ", \"fm\": " << stats.fm << ", \"groups\": "
              << stats.num_groups << ", \"subtrees\": " << stats.num_subtrees
              << ", \"prepare_rounds\": " << stats.prepare_rounds
              << ", \"index_bytes\": " << build->index_bytes << "}"
              << ", \"lookup_ms\": " << lp.ToJson()
              << ", \"dict_batch_ms\": " << bp.ToJson()
              << ", \"chunk_medians\": {\"lookup_qps\": "
              << Fmt(ChunkMedian(lookups.calls, 20, ChunkRate(clients)))
              << ", \"lookup_p50_ms\": "
              << Fmt(ChunkMedian(lookups.calls, 20, ChunkQuantile(0.5)))
              << ", \"lookup_p99_ms\": "
              << Fmt(ChunkMedian(lookups.calls, 1000, ChunkQuantile(0.99)))
              << ", \"dict_patterns_per_s\": "
              << Fmt(ChunkMedian(dict.calls, 20, ChunkRate(clients)) * batch)
              << ", \"dict_batch_p50_ms\": "
              << Fmt(ChunkMedian(dict.calls, 20, ChunkQuantile(0.5)))
              << ", \"dict_batch_p90_ms\": "
              << Fmt(ChunkMedian(dict.calls, 100, ChunkQuantile(0.9))) << "}"
              << ", \"cache\": {\"hits\": " << cache.hits
              << ", \"misses\": " << cache.misses
              << ", \"evicted_bytes\": " << cache.evicted_bytes << "}"
              << ", \"setup_s\": [";
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    out->record << (i ? ", " : "") << Fmt(setup_s[i]);
  }
  // Host interference: the share of the machine's CPU ticks the hypervisor
  // stole during the build and during serving.
  out->record << "], \"steal_share\": {\"build\": "
              << Fmt(ticks_built.StealShareSince(ticks_build))
              << ", \"serving\": "
              << Fmt(ticks_end.StealShareSince(ticks_serving))
              << "}, \"peak_rss_reset\": " << (rss_reset ? "true" : "false")
              << ", \"check_s\": {\"oracle\": " << Fmt(oracle.build_seconds)
              << ", \"index\": " << Fmt(check_index_s)
              << ", \"serving\": " << Fmt(check_serving_s) << "}";
}

/// The traced run: the same inputs through traced drivers, per-layer metrics.
void RunTraced(const Args& args, Outcome* out) {
  const Config& config = args.config;
  era::Env* posix = era::GetDefaultEnv();
  CountingEnv env(posix);
  const std::string text_path = config.data_dir + "/text";
  const std::string index_dir = config.data_dir + "/index";
  const std::string traced_dir = config.data_dir + "/index_traced";

  Inputs inputs = GenerateInputs(config, config.seed);
  Status s = MaterializeInputs(text_path, &inputs);
  if (!s.ok()) return out->Fail("materialize text: " + s.ToString());
  Status pinned = CheckPinned(args, config.seed == kDefaultSeed ? &inputs
                                                                : nullptr);
  if (!pinned.ok()) return out->Fail(pinned.ToString());
  out->record << ", \"inputs\": " << DigestJson(inputs, config, config.seed);
  const double text_bytes = static_cast<double>(inputs.info.length);

  // The timed multi-worker build, counted through the wrapper Env.
  out->attempted += 2;
  CountingEnv::Counts io0 = env.Snapshot();
  auto build = RunTimedBuild(config, inputs.info, index_dir, &env);
  if (!build.ok()) {
    out->failed += 2;
    return out->Fail("build: " + build.status().ToString());
  }
  const CountingEnv::Counts build_io = env.Snapshot() - io0;

  // The traced single-worker build.
  era::TraceRecorder recorder(TracedDriverOptions());
  const std::shared_ptr<era::Trace> build_trace =
      recorder.StartTrace("build", 0);
  io0 = env.Snapshot();
  auto traced = RunTracedBuild(config, inputs.info, traced_dir, &env,
                               build_trace.get());
  recorder.FinishTrace(build_trace, traced.status());
  if (!traced.ok() || build_trace->dropped_spans > 0) {
    out->failed += 1;
    return out->Fail("traced build: " + traced.status().ToString() +
                     ", dropped spans " +
                     std::to_string(build_trace->dropped_spans));
  }
  const CountingEnv::Counts traced_io = env.Snapshot() - io0;
  auto crcs = SubTreeFileCrcs(index_dir);
  auto traced_crcs = SubTreeFileCrcs(traced_dir);
  if (!crcs.ok() || !traced_crcs.ok() || *crcs != *traced_crcs) {
    out->failed += 1;
    out->Fail("traced build's sub-tree files differ from the timed build's");
  }
  std::filesystem::remove_all(traced_dir);

  // Serving: engine over the wrapper Env, warm-up opens traced as misses.
  auto opened = era::QueryEngine::Open(&env, index_dir, EngineOptions(config));
  if (!opened.ok()) return out->Fail("open: " + opened.status().ToString());
  std::unique_ptr<era::QueryEngine> engine = std::move(*opened);
  std::shared_ptr<era::Trace> warmup;
  if (config.warm()) {
    warmup = recorder.StartTrace("warmup", 0);
    s = WarmCache(engine.get(), &env, 1, warmup.get());
    recorder.FinishTrace(warmup, s);
    if (!s.ok()) return out->Fail("warm-up: " + s.ToString());
  }
  std::vector<Metric> serving;
  PhaseResult lookups, dict;
  auto overhead = TraceServing(engine.get(), &env, config, inputs, &recorder,
                               warmup.get(), &serving, &lookups, &dict);
  engine.reset();
  if (!overhead.ok()) return out->Fail("traced serving: " +
                                       overhead.status().ToString());

  // Checks and speed-of-light references.
  const Oracle oracle = Oracle::Build(inputs.text);
  Status index_ok = CheckIndex(posix, index_dir, oracle, config.workers);
  if (!index_ok.ok()) {
    out->failed += 1;
    out->Fail("build check: " + index_ok.ToString());
  }
  AnswerKey key(config, inputs, oracle);
  CheckServing(lookups, dict, &key, config.workers, out);
  const Clock::time_point t0 = Clock::now();
  for (const std::string& p : inputs.lookups) oracle.Range(p);
  const double sa_search_us =
      SecondsSince(t0) * 1e6 / static_cast<double>(inputs.lookups.size());

  // era layer (traced single-worker build).
  const era::Trace& spans = *build_trace;
  const SpanSum build_subtree = SumSpans(spans, "era.build_subtree");
  out->Add("era.vertical.s", SumSpans(spans, "era.vertical").seconds, "s");
  out->Add("era.vertical.scan_rounds",
           static_cast<double>(traced->vertical_rounds), "count");
  out->Add("era.prepare.self_s", SumSpans(spans, "era.prepare").self_seconds,
           "s");
  out->Add("era.prepare.rounds", static_cast<double>(traced->prepare_rounds),
           "count");
  out->Add("era.build_subtree.s", build_subtree.seconds, "s");
  out->Add("era.build_subtree.calls", static_cast<double>(build_subtree.calls),
           "count");
  out->Add("era.write.s", SumSpans(spans, "era.write").seconds, "s");
  out->Add("era.assemble.s", SumSpans(spans, "era.assemble").seconds, "s");
  // era layer (the multi-worker build's own phase table).
  const ParallelColumns columns = ColumnsOf(*build);
  out->Add("era.parallel.prepare_critical_s", columns.prepare_critical_s, "s");
  out->Add("era.parallel.writer_s", columns.writer_s, "s");
  out->Add("era.parallel.worker_busy_fraction", columns.busy_fraction,
           "ratio");
  // io layer.
  out->Add("io.build.read_bytes_per_text_byte",
           static_cast<double>(build_io.read_bytes) / text_bytes, "ratio");
  out->Add("io.build.read_calls", static_cast<double>(build_io.read_calls),
           "count");
  out->Add("io.tile_cache.hit_rate", build->stats.tile_hit_rate(), "ratio");
  out->Add("suffixtree.write_bytes_per_text_byte",
           static_cast<double>(traced_io.write_bytes) / text_bytes, "ratio");
  for (Metric& m : serving) out->metrics.push_back(std::move(m));
  // Speed-of-light references (never gated).
  out->Add("sol.sais_lcp_s", oracle.build_seconds, "s");
  out->Add("sol.sa_search.us", sa_search_us, "us");
  out->Add("sol.aho_corasick.s",
           Percentiles::Median(key.aho_corasick_seconds()), "s");
  out->Add("trace.overhead_ratio", *overhead, "ratio");

  out->record << ", \"build\": {\"fm\": " << traced->fm << ", \"groups\": "
              << traced->groups << ", \"subtrees\": " << traced->subtrees
              << ", \"subtree_files\": " << (crcs.ok() ? crcs->size() : 0)
              << "}, \"traces\": " << recorder.traces_completed();
  if (!args.trace_out.empty()) {
    Status w = posix->WriteFile(args.trace_out, recorder.ExportChromeTracing());
    if (!w.ok()) std::fprintf(stderr, "trace-out: %s\n", w.ToString().c_str());
  }
}

void PrintResult(const Args& args, const Outcome& out) {
  const Config& c = args.config;
  std::ostringstream rec;
  rec << "{\"record\": {\"workload\": \"" << c.workload
      << "\", \"seed\": " << c.seed << ", \"trace\": " << (c.trace ? 1 : 0)
      << ", \"seconds\": " << Fmt(c.seconds)
      << ", \"provenance\": {\"commit\": \"" << args.commit
      << "\", \"source_digest\": \"" << args.source_digest
      << "\", \"compiler\": \"" << PERFBENCH_COMPILER
      << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"env\": \"PosixEnv (page-cached)\", \"latency_source\": "
         "\"this sandbox's clock, not a device\"}"
      << ", \"sizes\": {\"text_bytes\": " << c.text_bytes
      << ", \"workers\": " << c.workers
      << ", \"budget_per_worker\": " << c.budget_per_worker
      << ", \"cache_bytes\": " << c.cache_bytes()
      << ", \"dict_batch\": " << c.dict_batch << "}"
      << ", \"op_fail_ratio\": "
      << Fmt(out.attempted == 0 ? 0
                                : static_cast<double>(out.failed) /
                                      static_cast<double>(out.attempted))
      << out.record.str();
  if (!out.error.empty()) {
    std::string e = out.error;
    for (char& ch : e) {
      if (ch == '"' || ch == '\\' || ch == '\n') ch = ' ';
    }
    rec << ", \"error\": \"" << e << "\"";
  }
  rec << "}}";
  std::printf("%s\n", rec.str().c_str());

  std::ostringstream res;
  res << "{\"correct\": " << (out.correct ? "true" : "false")
      << ", \"attempted\": " << std::max<uint64_t>(out.attempted, 1)
      << ", \"failed\": " << out.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    res << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
        << Fmt(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  res << "}}";
  std::printf("%s\n", res.str().c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Self-test

/// Runs one reduced workload and reports whether it passed every check.
bool SelfTestRun(Args args, const std::string& workload, bool trace) {
  args.config.workload = workload;
  args.config.trace = trace;
  args.config.data_dir += "/" + workload + (trace ? "_trace" : "_timed");
  std::filesystem::create_directories(args.config.data_dir);
  Outcome out;
  trace ? RunTraced(args, &out) : RunTimed(args, &out);
  std::filesystem::remove_all(args.config.data_dir);
  const bool metrics_ok = out.metrics.size() >= 10;
  std::printf("selftest %-10s trace=%d: correct=%d attempted=%llu failed=%llu "
              "metrics=%zu %s\n",
              workload.c_str(), trace ? 1 : 0, out.correct ? 1 : 0,
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed), out.metrics.size(),
              out.error.c_str());
  return out.correct && out.failed == 0 && metrics_ok;
}

/// Negative cases: each checker must flag a perturbed answer.
bool SelfTestNegative(const Args& args) {
  Config config = args.config;
  config.workload = "cold_cache";
  const std::string dir = config.data_dir + "/negative";
  std::filesystem::create_directories(dir);
  era::Env* env = era::GetDefaultEnv();
  Inputs inputs = GenerateInputs(config, config.seed);
  bool ok = MaterializeInputs(dir + "/text", &inputs).ok();
  auto build = RunTimedBuild(config, inputs.info, dir + "/index", env);
  auto engine = era::QueryEngine::Open(env, dir + "/index",
                                       EngineOptions(config));
  ok = ok && build.ok() && engine.ok();
  if (!ok) {
    std::printf("selftest negative: setup failed\n");
    return false;
  }
  Serving serving = RunServing(engine->get(), config, inputs, 0.2);
  PhaseResult& lookups = serving.lookups;
  PhaseResult& dict = serving.dict;
  engine->reset();
  Oracle oracle = Oracle::Build(inputs.text);
  AnswerKey key(config, inputs, oracle);
  const unsigned threads = config.workers;
  auto wrong_lookups = [&] {
    return CheckLookups(lookups.calls, &key, threads).wrong;
  };
  auto wrong_batches = [&]() -> uint64_t {
    auto r = CheckBatches(dict.calls, &key, threads);
    return r.ok() ? r->wrong : UINT64_MAX;
  };
  auto index_ok = [&] {
    return CheckIndex(env, dir + "/index", oracle, threads).ok();
  };

  const bool clean =
      wrong_lookups() == 0 && wrong_batches() == 0 && index_ok();
  lookups.calls.at(lookups.calls.size() / 2).digest ^= 1;
  dict.calls.at(0).digest ^= 1;
  const bool lookup_flagged = wrong_lookups() == 1;
  const bool dict_flagged = wrong_batches() == 1;
  std::swap(oracle.sa[oracle.sa.size() / 2], oracle.sa[oracle.sa.size() / 3]);
  const bool index_flagged = !index_ok();
  std::filesystem::remove_all(dir);
  std::printf("selftest negative: clean=%d lookup_flagged=%d dict_flagged=%d "
              "index_flagged=%d\n",
              clean, lookup_flagged, dict_flagged, index_flagged);
  return clean && lookup_flagged && dict_flagged && index_flagged;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (flag == "--print-digests") {
      args->print_digests = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->config.workload = value;
    } else if (flag == "--seed") {
      args->config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args->config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args->config.trace = value == "1";
    } else if (flag == "--data-dir") {
      args->config.data_dir = value;
    } else if (flag == "--pinned") {
      args->pinned = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else if (flag == "--source-digest") {
      args->source_digest = value;
    } else {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "usage: see the header of perfbench/src/main.cc\n");
    return 2;
  }
  args.config.workers =
      std::max(1u, std::min(args.config.workers,
                            std::thread::hardware_concurrency()));
  if (args.print_digests) {
    std::printf("%s\n", DigestJson(GenerateInputs(args.config, kDefaultSeed),
                                   args.config, kDefaultSeed)
                            .c_str());
    return 0;
  }
  if (args.config.data_dir.empty()) {
    std::fprintf(stderr, "--data-dir is required\n");
    return 2;
  }
  if (args.selftest) {
    args.config = SelfTestConfig(args.config);
    args.pinned.clear();  // the pinned digests are for the full sizes
    bool ok = true;
    for (const char* w : {"cold_cache", "warm_cache"}) {
      for (bool trace : {false, true}) ok = SelfTestRun(args, w, trace) && ok;
    }
    ok = SelfTestNegative(args) && ok;
    std::printf("selftest %s\n", ok ? "PASSED" : "FAILED");
    return ok ? 0 : 1;
  }
  if (args.config.workload != "cold_cache" &&
      args.config.workload != "warm_cache") {
    std::fprintf(stderr, "unknown workload '%s'\n",
                 args.config.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.config.data_dir);
  Outcome out;
  args.config.trace ? RunTraced(args, &out) : RunTimed(args, &out);
  PrintResult(args, out);
  return out.correct && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
