#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "perfbench.h"
#include "io/string_reader.h"
#include "query/query_workload.h"
#include "sa/lcp.h"
#include "sa/sais.h"
#include "text/aho_corasick.h"
#include "text/text_generator.h"

namespace perfbench {

namespace {

uint64_t Mix(uint64_t x) {  // splitmix64 finalizer: derives sub-seeds
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

uint64_t DigestPatterns(const std::vector<std::string>& patterns,
                        uint64_t h) {
  for (const std::string& p : patterns) {
    const uint64_t len = p.size();
    h = Fnv1a(&len, sizeof(len), h);
    h = Fnv1a(p.data(), p.size(), h);
  }
  return h;
}

}  // namespace

uint64_t Fnv1a(const void* data, std::size_t n, uint64_t h) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string HexDigest(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

uint64_t AnswerDigest(uint64_t count, const std::vector<uint64_t>& offsets) {
  uint64_t h = Fnv1a(&count, sizeof(count));
  return offsets.empty() ? h
                         : Fnv1a(offsets.data(),
                                 offsets.size() * sizeof(uint64_t), h);
}

Inputs GenerateInputs(const Config& config, uint64_t seed) {
  Inputs in;
  in.text = era::GenerateDna(config.text_bytes, seed);

  // Lookups: lengths 4-24, 10% mutated to (mostly) miss, uniform positions.
  era::QueryWorkloadOptions lookup;
  lookup.num_patterns = config.lookup_pool;
  lookup.seed = Mix(seed ^ 0x6c6f6f6b7570ull);
  in.lookups = era::SamplePatternWorkload(in.text, lookup);

  // Dictionary batches: the shared-prefix mix, a fresh seed per batch.
  in.dict_batches.resize(config.dict_pool);
  for (std::size_t b = 0; b < config.dict_pool; ++b) {
    era::DictWorkloadOptions dict;
    dict.num_patterns = config.dict_batch;
    dict.seed = Mix(seed ^ (0x64696374ull + b));
    in.dict_batches[b] = era::SampleDictionaryWorkload(in.text, dict);
  }

  in.text_digest = HexDigest(Fnv1a(in.text.data(), in.text.size()));
  in.lookup_digest = HexDigest(DigestPatterns(in.lookups, Fnv1a("", 0)));
  uint64_t h = Fnv1a("", 0);
  for (const auto& batch : in.dict_batches) h = DigestPatterns(batch, h);
  in.dict_digest = HexDigest(h);
  return in;
}

Status MaterializeInputs(const std::string& path, Inputs* inputs) {
  ERA_ASSIGN_OR_RETURN(inputs->info,
                       era::MaterializeText(era::GetDefaultEnv(), path,
                                            era::Alphabet::Dna(),
                                            inputs->text));
  return Status::OK();
}

// ---------------------------------------------------------------------------

Percentiles Percentiles::Of(std::vector<double> samples) {
  Percentiles p;
  p.n = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    return samples[std::clamp<std::size_t>(rank, 1, samples.size()) - 1];
  };
  p.p50 = at(0.50);
  p.p90 = at(0.90);
  p.p99 = at(0.99);
  p.max_supported =
      samples.size() <= 10
          ? 0
          : 1.0 - 10.0 / static_cast<double>(samples.size());
  return p;
}

double Percentiles::Median(std::vector<double> samples) {
  return Of(std::move(samples)).p50;
}

std::string Percentiles::ToJson() const {
  auto beyond = [&](double q) {
    return n - static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(n)));
  };
  std::ostringstream os;
  os << "{\"n\": " << n << ", \"p50\": " << p50 << ", \"p90\": " << p90
     << ", \"p99\": " << p99 << ", \"beyond_p90\": " << beyond(0.90)
     << ", \"beyond_p99\": " << beyond(0.99)
     << ", \"max_supported_percentile\": " << max_supported * 100 << "}";
  return os.str();
}

namespace {

double ProcStatusMiB(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(key) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0;
}

}  // namespace

Status ParallelFor(std::size_t n, unsigned threads,
                   const std::function<Status(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;
  Status first;  // guarded by mu
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        Status s = fn(i);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(mu);
          if (first.ok()) first = s;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  return first;
}

double PeakRssMiB() { return ProcStatusMiB("VmHWM"); }

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

CpuTicks CpuTicks::Read() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTicks t;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) return {};
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double CpuTicks::StealShareSince(const CpuTicks& earlier) const {
  const uint64_t ticks = total - earlier.total;
  return ticks == 0 ? 0
                    : static_cast<double>(steal - earlier.steal) /
                          static_cast<double>(ticks);
}

// ---------------------------------------------------------------------------

namespace {

class CountingFile : public era::RandomAccessFile {
 public:
  CountingFile(std::unique_ptr<era::RandomAccessFile> base,
               CountingEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}
  Status Read(uint64_t offset, std::size_t n, char* scratch,
              std::size_t* out_n) const override {
    Status s = base_->Read(offset, n, scratch, out_n);
    Tally(s, *out_n);
    return s;
  }
  Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n) const override {
    Status s = base_->ReadAt(offset, n, scratch, out_n);
    Tally(s, *out_n);
    return s;
  }
  uint64_t Size() const override { return base_->Size(); }

 private:
  void Tally(const Status& s, std::size_t n) const {
    counters_->read_calls.fetch_add(1, std::memory_order_relaxed);
    if (s.ok()) counters_->read_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  std::unique_ptr<era::RandomAccessFile> base_;
  CountingEnv::Counters* counters_;
};

class CountingWritable : public era::WritableFile {
 public:
  CountingWritable(std::unique_ptr<era::WritableFile> base,
                   CountingEnv::Counters* counters)
      : base_(std::move(base)), counters_(counters) {}
  Status Append(const char* data, std::size_t n) override {
    counters_->write_calls.fetch_add(1, std::memory_order_relaxed);
    counters_->write_bytes.fetch_add(n, std::memory_order_relaxed);
    return base_->Append(data, n);
  }
  Status Sync() override { return base_->Sync(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<era::WritableFile> base_;
  CountingEnv::Counters* counters_;
};

}  // namespace

CountingEnv::Counts CountingEnv::Snapshot() const {
  return {counters_.read_bytes.load(), counters_.read_calls.load(),
          counters_.write_bytes.load(), counters_.write_calls.load()};
}

StatusOr<std::unique_ptr<era::RandomAccessFile>> CountingEnv::OpenRandomAccess(
    const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, base_->OpenRandomAccess(path));
  return std::unique_ptr<era::RandomAccessFile>(
      new CountingFile(std::move(file), &counters_));
}

StatusOr<std::unique_ptr<era::WritableFile>> CountingEnv::NewWritable(
    const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, base_->NewWritable(path));
  return std::unique_ptr<era::WritableFile>(
      new CountingWritable(std::move(file), &counters_));
}

// ---------------------------------------------------------------------------

era::TraceRecorderOptions TracedDriverOptions() {
  era::TraceRecorderOptions options;
  options.max_spans_per_trace = std::size_t{1} << 24;
  options.slow_query_seconds = 0;
  return options;
}

SpanSum SumSpans(const era::Trace& trace, const std::string& name,
                 const char* note) {
  SpanSum sum;
  // Spans are recorded as they close, so when a span at depth d is recorded
  // the records at depth d + 1 since the previous record at depth <= d are
  // exactly the spans nested in it.
  std::vector<double> child_us;
  for (const era::TraceSpanRecord& span : trace.spans) {
    const std::size_t d = static_cast<std::size_t>(span.depth);
    if (child_us.size() < d + 2) child_us.resize(d + 2, 0);
    const double self_us = span.dur_us - child_us[d + 1];
    child_us[d + 1] = 0;
    child_us[d] += span.dur_us;
    if (name != span.name) continue;
    if (note != nullptr &&
        (span.note == nullptr || std::strcmp(note, span.note) != 0)) {
      continue;
    }
    ++sum.calls;
    sum.seconds += span.dur_us / 1e6;
    sum.self_seconds += self_us / 1e6;
    sum.durations_us.push_back(span.dur_us);
  }
  return sum;
}

// ---------------------------------------------------------------------------

Oracle Oracle::Build(const std::string& text) {
  Oracle o;
  o.text = &text;
  const Clock::time_point t0 = Clock::now();
  o.sa = era::BuildSuffixArray(text);
  o.lcp = era::BuildLcpArray(text, o.sa);
  o.build_seconds = SecondsSince(t0);
  return o;
}

std::pair<uint64_t, uint64_t> Oracle::Range(const std::string& pattern) const {
  const std::string& t = *text;
  // Suffixes are compared on their first |pattern| bytes only.
  auto cmp = [&](uint64_t pos) {
    return t.compare(pos, pattern.size(), pattern);
  };
  auto lo = std::partition_point(sa.begin(), sa.end(),
                                 [&](uint64_t pos) { return cmp(pos) < 0; });
  auto hi = std::partition_point(lo, sa.end(),
                                 [&](uint64_t pos) { return cmp(pos) == 0; });
  return {static_cast<uint64_t>(lo - sa.begin()),
          static_cast<uint64_t>(hi - sa.begin())};
}

uint64_t Oracle::Answer(const std::string& pattern, std::size_t limit,
                        std::vector<uint64_t>* offsets) const {
  auto [lo, hi] = Range(pattern);
  if (offsets != nullptr) {
    offsets->assign(sa.begin() + static_cast<std::ptrdiff_t>(lo),
                    sa.begin() + static_cast<std::ptrdiff_t>(hi));
    if (offsets->size() > limit) {
      std::nth_element(offsets->begin(),
                       offsets->begin() + static_cast<std::ptrdiff_t>(limit),
                       offsets->end());
      offsets->resize(limit);
    }
    std::sort(offsets->begin(), offsets->end());
  }
  return hi - lo;
}

StatusOr<std::vector<uint64_t>> AhoCorasickCounts(
    era::Env* env, const std::string& text_path,
    const std::vector<std::string>& patterns, double* scan_seconds) {
  ERA_ASSIGN_OR_RETURN(era::AhoCorasick matcher,
                       era::AhoCorasick::Build(patterns));
  era::IoStats io;
  ERA_ASSIGN_OR_RETURN(auto reader,
                       era::OpenStringReader(env, text_path, {}, &io));
  std::vector<uint64_t> counts(patterns.size(), 0);
  const Clock::time_point t0 = Clock::now();
  ERA_RETURN_NOT_OK(matcher.ScanAll(reader.get(), [&](int32_t id, uint64_t) {
    ++counts[static_cast<std::size_t>(id)];
  }));
  if (scan_seconds != nullptr) *scan_seconds = SecondsSince(t0);
  return counts;
}

}  // namespace perfbench
