// Buffered, instrumented access to the input string.
//
// StringReader is the only path through which builders touch the text of S.
// It provides:
//   * Fetch()       — monotonically increasing positions within a scan; this
//                     is the sequential access pattern of ERA/WaveFront/B2ST.
//                     With the disk-seek optimization enabled, long gaps
//                     between requested positions are skipped with a seek
//                     instead of being read through (Section 4.4 of the
//                     paper).
//   * RandomFetch() — arbitrary positions (used by the semi-disk-based
//                     TRELLIS merge phase and by query-time edge-label
//                     resolution); buffer misses count as seeks.
//
// All traffic is tallied into the IoStats supplied at construction.

#ifndef ERA_IO_STRING_READER_H_
#define ERA_IO_STRING_READER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "io/tile_cache.h"

namespace era {

/// Options controlling one StringReader.
struct StringReaderOptions {
  /// Size of the in-memory window (the paper's input buffer B_S).
  uint64_t buffer_bytes = 1 << 20;
  /// If true, skip unneeded stretches of the file with a seek when the gap
  /// exceeds `skip_threshold_bytes`.
  bool seek_optimization = false;
  /// Minimum gap that justifies a seek instead of reading through.
  uint64_t skip_threshold_bytes = 64 << 10;
  /// Window loaded on a random (non-sequential) repositioning. Small by
  /// default: a random miss fetches a block, not a full scan buffer.
  uint64_t random_window_bytes = 4096;
  /// Bill random repositionings as sequential transfer instead of seeks.
  /// Used by the WaveFront emulation: the real algorithm organizes exactly
  /// this traffic into block-nested-loop tile scans, so its device-level
  /// pattern is sequential volume, not head movement (see
  /// wavefront/wavefront.h).
  bool bill_random_as_sequential = false;
  /// Ring-buffer sequential refills: a background thread keeps up to
  /// `prefetch_depth` upcoming windows read ahead via
  /// RandomAccessFile::ReadAt while the builder consumes the resident one,
  /// hiding device latency behind compute (Section 4.4's CPU/I-O overlap
  /// argument). OpenStringReader returns a PrefetchingStringReader when set.
  bool prefetch = false;
  /// Number of speculative windows the prefetch ring keeps in flight ahead
  /// of the scan. 1 is classic double buffering; deeper rings keep the
  /// background thread streaming continuously instead of ping-ponging with
  /// the consumer. Hits that only a depth > 1 can produce are counted
  /// separately (IoStats::prefetch_depth_hits).
  uint32_t prefetch_depth = 4;
  /// Shared read-through tile cache (io/tile_cache.h). When set, the reader
  /// is served from the cache instead of the device: refills bill
  /// IoStats::cache_served_bytes, and the cache accounts the real device
  /// traffic its misses cause. The reader's path must be registered with
  /// the cache (TileCache::Open or AddFile).
  std::shared_ptr<TileCache> tile_cache;
  /// Transient device-read faults (IOError only — never Corruption) are
  /// retried with exponential backoff before the scan fails; absorbed
  /// retries are tallied into IoStats::read_retries.
  RetryPolicy retry;
};

/// One read of a batched fetch. `out` must have room for `len` bytes; `got`
/// receives the number of bytes actually available (short at end-of-file).
struct FetchRequest {
  uint64_t pos = 0;
  uint32_t len = 0;
  char* out = nullptr;
  uint32_t got = 0;
};

/// Instrumented buffered reader over one file. Not thread-safe; each worker
/// owns its own StringReader.
class StringReader {
 public:
  /// `stats` may be nullptr (no accounting). Does not take ownership of it.
  StringReader(std::unique_ptr<RandomAccessFile> file,
               const StringReaderOptions& options, IoStats* stats);

  /// Starts a new sequential scan at position `start_pos`; Fetch positions
  /// must be non-decreasing until the next BeginScan.
  void BeginScan(uint64_t start_pos = 0);

  /// Reads up to `len` bytes at `pos` (which must be >= the previous Fetch
  /// position within this scan); `*out_len` receives the bytes available
  /// (short at end-of-file).
  Status Fetch(uint64_t pos, uint32_t len, char* out, uint32_t* out_len);

  /// Serves a pre-merged stream of sequential reads in one call: request
  /// positions must be non-decreasing (like Fetch within a scan). Runs of
  /// requests that land in the resident window are each served with a single
  /// memcpy, and the window advances once per gap instead of once per
  /// request — the batch drives exactly one pass over the buffer.
  Status FetchBatch(std::span<FetchRequest> requests);

  /// Reads up to `len` bytes at any `pos`; buffer misses reposition the
  /// window (counted as a seek).
  Status RandomFetch(uint64_t pos, uint32_t len, char* out, uint32_t* out_len);

  /// Batched RandomFetch: positions may be arbitrary; requests that hit the
  /// resident window are served with one memcpy and no repositioning.
  Status RandomFetchBatch(std::span<FetchRequest> requests);

  /// File size in bytes.
  uint64_t size() const { return file_->Size(); }

  /// Binds the caller's deadline/cancellation context to subsequent reads:
  /// every window refill checks it before touching the device and its retry
  /// backoffs never sleep past the deadline. `ctx` is borrowed, not owned —
  /// it must outlive the binding; pass nullptr to unbind. Consumer-thread
  /// state: the prefetch ring's background reads deliberately ignore it
  /// (speculative windows are reusable by the next query, and racing the
  /// binding against an in-flight background read would be unsound).
  void SetContext(const QueryContext* ctx) { context_ = ctx; }

  virtual ~StringReader() = default;

 protected:
  /// Loads the window so that it starts at `pos`. `sequential` controls
  /// whether the move is billed as a continued scan or as a seek;
  /// `full_window` loads the whole scan buffer even on a seek (used by the
  /// disk-seek optimization, which continues a scan after the skip).
  /// Virtual so PrefetchingStringReader can satisfy sequential refills from
  /// its background double buffer.
  virtual Status Refill(uint64_t pos, bool sequential,
                        bool full_window = true);

  std::unique_ptr<RandomAccessFile> file_;
  StringReaderOptions options_;
  IoStats* stats_;
  /// Borrowed per-query context (see SetContext); nullptr = unbounded.
  const QueryContext* context_ = nullptr;

  std::vector<char> buffer_;
  uint64_t buffer_start_ = 0;  // file offset of buffer_[0]
  uint64_t buffer_len_ = 0;    // valid bytes in buffer_
  bool has_window_ = false;

 private:
  /// Core of Fetch: reads [pos, pos+len) into `out`, moving the window as
  /// needed. Does not validate scan monotonicity (callers do).
  Status FetchInto(uint64_t pos, uint32_t len, char* out, uint32_t* out_len);

  /// Shared body of FetchBatch/RandomFetchBatch; `sequential` selects the
  /// monotonicity check and the buffer-miss path.
  Status ServeBatch(std::span<FetchRequest> requests, bool sequential);

  uint64_t scan_pos_ = 0;      // last requested position in this scan
};

/// StringReader whose sequential refills come from a prefetch ring: while
/// the builder consumes the resident window, a background thread keeps up
/// to `prefetch_depth` upcoming windows read ahead through
/// RandomAccessFile::ReadAt. A refill that lands inside a completed ring
/// slot swaps buffers instead of touching the device (an IoStats prefetch
/// hit — a depth hit when the slot was issued alongside other live slots);
/// anything else — scan restarts, long seek-optimization skips, random
/// repositionings — falls back to the base synchronous path. Like
/// StringReader it is single-consumer: only the internal prefetch thread
/// runs concurrently with the owner.
class PrefetchingStringReader : public StringReader {
 public:
  PrefetchingStringReader(std::unique_ptr<RandomAccessFile> file,
                          const StringReaderOptions& options, IoStats* stats);
  ~PrefetchingStringReader() override;

 protected:
  Status Refill(uint64_t pos, bool sequential, bool full_window) override;

 private:
  /// One speculative window. `data` is written by the prefetch thread only
  /// while `pending`; the consumer touches it only after `pending` cleared
  /// under mu_ (the mutex publishes the bytes).
  struct Slot {
    std::vector<char> data;
    uint64_t start = 0;
    uint64_t len = 0;
    bool valid = false;    // completed, unconsumed
    bool pending = false;  // background read in flight
    /// Live (valid or pending) slots when this read was issued; > 0 marks a
    /// window only a depth > 1 ring would have speculated this early.
    uint32_t issued_with_live = 0;
  };

  void PrefetchLoop();
  /// Index of a free ring slot, or -1. Caller holds mu_.
  int FreeSlotLocked() const;
  /// Number of valid or pending slots. Caller holds mu_.
  uint32_t LiveCountLocked() const;
  /// Folds background_io_ into stats_. Caller holds mu_.
  void FoldBackgroundIoLocked();
  /// Marks free slots pending for the next speculative windows and queues
  /// them for the prefetch thread. Issuing on the CONSUMER side is what
  /// makes the ring effective on a busy host: the very next refill already
  /// has a pending slot to wait on (the wait is the measured overlap),
  /// instead of hoping the background thread won a timeslice in between.
  /// Caller holds mu_.
  void IssueSpeculationLocked();

  // Adaptive speculation throttle (consumer-thread-only state): on
  // seek-optimized sparse scans every skip discards the in-flight
  // speculative windows, so after `kMaxWastedSpeculations` consecutive
  // wasted rounds speculation pauses until the access pattern proves
  // sequential again (`kRecoveryRefills` uninterrupted sequential refills).
  static constexpr uint32_t kMaxWastedSpeculations = 2;
  static constexpr uint32_t kRecoveryRefills = 2;
  uint32_t wasted_speculations_ = 0;
  uint32_t recovery_refills_ = 0;

  // All fields below mu_ are shared with the prefetch thread.
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> ring_;
  /// Slots issued but not yet executed, in issue (= position) order.
  std::vector<int> issue_queue_;
  /// Next window to speculate on, when armed.
  uint64_t next_spec_pos_ = 0;
  bool spec_armed_ = false;
  bool shutdown_ = false;
  Status background_status_;
  /// Traffic performed by the background thread; folded into stats_ by the
  /// consumer at the next refill (IoStats itself is not thread-safe).
  IoStats background_io_;
  std::thread thread_;
};

/// Opens `path` from `env` and wraps it in a StringReader.
StatusOr<std::unique_ptr<StringReader>> OpenStringReader(
    Env* env, const std::string& path, const StringReaderOptions& options,
    IoStats* stats);

}  // namespace era

#endif  // ERA_IO_STRING_READER_H_
