// Shared pieces of the perfbench program: run configuration, seeded inputs,
// exact latency samples, a byte-counting Env, span sums over the library's
// own traces, and the SA-based oracle every answer is checked against.
//
// Everything here lives outside src/: the benchmark observes the library
// only through its public headers, so it can time any layer without adding
// instrumentation to the program under test.

#ifndef PERFBENCH_PERFBENCH_H_
#define PERFBENCH_PERFBENCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "io/env.h"
#include "text/corpus.h"

namespace perfbench {

using era::Status;
using era::StatusOr;

/// Sizes and knobs of one run. The defaults are the benchmark; the self-test
/// shrinks every size so all checks run in seconds.
struct Config {
  std::string workload;  // "cold_cache" or "warm_cache"
  uint64_t seed = 42;
  double seconds = 10;   // measured duration of each serving phase
  bool trace = false;
  std::string data_dir;  // scratch directory for the text and the indexes

  uint64_t text_bytes = 8ull << 20;     // DNA body symbols (terminal added)
  unsigned workers = 4;                 // build workers and serving clients
  uint64_t budget_per_worker = 8ull << 20;
  uint64_t cold_cache_bytes = 64ull << 20;   // ~1/3 of the v3 index
  uint64_t warm_cache_bytes = 256ull << 20;  // holds the whole index
  std::size_t lookup_pool = 100000;    // distinct lookup patterns
  std::size_t dict_batch = 2000;       // patterns per dictionary batch
  std::size_t dict_pool = 48;          // distinct dictionary batches
  // A dictionary phase runs on until this many batches were sent, so its
  // p90 always has at least ten batches beyond it.
  uint64_t min_batches = 110;
  std::size_t locate_limit = 100;
  int setup_repeats = 5;
  // Traced run: single-client replay lengths.
  std::size_t trace_lookups = 2000;
  std::size_t trace_dict_batches = 8;

  bool warm() const { return workload == "warm_cache"; }
  uint64_t cache_bytes() const {
    return warm() ? warm_cache_bytes : cold_cache_bytes;
  }
};

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Everything generated from the seed. The program under test only ever
/// receives these values (as a text file and as query arguments).
struct Inputs {
  std::string text;  // body + terminal
  era::TextInfo info;
  std::vector<std::string> lookups;                  // the lookup pool
  std::vector<std::vector<std::string>> dict_batches;  // the batch pool
  std::string text_digest;
  std::string lookup_digest;
  std::string dict_digest;
};

/// Generates the text and pattern pools from `seed` (no file I/O).
Inputs GenerateInputs(const Config& config, uint64_t seed);
/// Writes the text to `path` and fills `inputs->info`.
Status MaterializeInputs(const std::string& path, Inputs* inputs);

/// 64-bit FNV-1a, rendered as 16 hex digits by HexDigest.
uint64_t Fnv1a(const void* data, std::size_t n,
               uint64_t h = 0xcbf29ce484222325ull);
std::string HexDigest(uint64_t h);

/// Digest of one answer: its count plus every returned offset, in order.
uint64_t AnswerDigest(uint64_t count, const std::vector<uint64_t>& offsets);

// ---------------------------------------------------------------------------
// Measurement helpers
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact percentiles over sorted per-call samples (nearest rank), with the
/// sample count and the highest percentile that still has >= 10 samples
/// beyond it.
struct Percentiles {
  std::size_t n = 0;
  double p50 = 0, p90 = 0, p99 = 0;
  double max_supported = 0;  // highest q in [0,1] with >= 10 samples above
  static Percentiles Of(std::vector<double> samples);
  static double Median(std::vector<double> samples);
  std::string ToJson() const;
};

/// Runs fn(i) for every i in [0, n) on `threads` threads (dynamic
/// assignment) and returns the first error any call returned.
Status ParallelFor(std::size_t n, unsigned threads,
                   const std::function<Status(std::size_t)>& fn);

/// Peak resident set size of this process in MiB (VmHWM).
double PeakRssMiB();
/// Resets VmHWM to the current RSS; false when the kernel refuses.
bool ResetPeakRss();

/// The machine-wide `cpu` line of /proc/stat: every tick, and the ticks the
/// hypervisor ran something else on a vCPU that wanted to run (steal).
struct CpuTicks {
  uint64_t total = 0, steal = 0;
  static CpuTicks Read();
  /// Share of the ticks since `earlier` that were stolen.
  double StealShareSince(const CpuTicks& earlier) const;
};

/// Env wrapper that counts the bytes and calls passing through it. Every
/// file it hands out reports into the same atomic counters, so concurrent
/// builders and serving sessions can share one instance.
class CountingEnv : public era::Env {
 public:
  explicit CountingEnv(era::Env* base) : base_(base) {}

  struct Counts {
    uint64_t read_bytes = 0, read_calls = 0;
    uint64_t write_bytes = 0, write_calls = 0;
    Counts operator-(const Counts& o) const {
      return {read_bytes - o.read_bytes, read_calls - o.read_calls,
              write_bytes - o.write_bytes, write_calls - o.write_calls};
    }
  };
  Counts Snapshot() const;

  StatusOr<std::unique_ptr<era::RandomAccessFile>> OpenRandomAccess(
      const std::string& path) override;
  StatusOr<std::unique_ptr<era::WritableFile>> NewWritable(
      const std::string& path) override;
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }

  struct Counters {
    std::atomic<uint64_t> read_bytes{0}, read_calls{0};
    std::atomic<uint64_t> write_bytes{0}, write_calls{0};
  };

 private:
  era::Env* base_;
  Counters counters_;
};

/// Recorder options for the traced drivers: a span cap no run reaches (the
/// drivers fail on a dropped span) and no slow-query log.
era::TraceRecorderOptions TracedDriverOptions();

/// What the spans named `name` add up to in a finished era::Trace that one
/// thread filled. With `note`, only spans carrying that note count.
struct SpanSum {
  uint64_t calls = 0;
  double seconds = 0;
  double self_seconds = 0;  // minus the time of the spans nested inside
  std::vector<double> durations_us;
};
SpanSum SumSpans(const era::Trace& trace, const std::string& name,
                 const char* note = nullptr);

// ---------------------------------------------------------------------------
// Oracle
// ---------------------------------------------------------------------------

/// SA-IS suffix array + Kasai LCP of the text (the speed-of-light build
/// reference and the ground truth of every check).
struct Oracle {
  const std::string* text = nullptr;
  std::vector<uint64_t> sa;
  std::vector<uint64_t> lcp;  // lcp[i] = LCP(sa[i-1], sa[i]); lcp[0] = 0
  double build_seconds = 0;

  static Oracle Build(const std::string& text);
  /// [lo, hi) range of suffixes starting with `pattern`.
  std::pair<uint64_t, uint64_t> Range(const std::string& pattern) const;
  /// Occurrence count and the smallest `limit` offsets, ascending.
  uint64_t Answer(const std::string& pattern, std::size_t limit,
                  std::vector<uint64_t>* offsets) const;
};

/// Per-pattern occurrence counts of one dictionary batch from one
/// Aho-Corasick scan of the text file (the dictionary oracle).
StatusOr<std::vector<uint64_t>> AhoCorasickCounts(
    era::Env* env, const std::string& text_path,
    const std::vector<std::string>& patterns, double* scan_seconds);

}  // namespace perfbench

#endif  // PERFBENCH_PERFBENCH_H_
