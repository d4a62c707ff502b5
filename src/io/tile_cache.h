// Shared read-through cache of fixed-size tiles, keyed by (file, tile).
//
// One implementation serves every repeated-read path in the repository:
//   * the build's input text — ERA's horizontal phase re-streams S once per
//     group per prepare round, so most device traffic is the same tiles over
//     and over (BENCH_era.json prices the uncached path at ~1000x I/O
//     amplification);
//   * the serving path — 4 KiB blocks of sub-tree files (suffixtree/
//     tree_index.h) and of the text the query engine resolves edge labels
//     from, all under one byte budget.
//
// Design points (see README "I/O anatomy" and "Serving anatomy"):
//   * Files are registered (AddFile) and get a process-unique id; a tile's
//     key is (file id, tile index). Removing a file drops its tiles, so a
//     re-registered path never serves stale bytes.
//   * Sharded LRU with shared_ptr pinning: lookups lock only their shard,
//     device loads run outside any lock, and a tile handed to a reader stays
//     valid even if the budget evicts it mid-use.
//   * Single-flight loads: concurrent misses on one key wait for the one
//     device read already in flight instead of issuing their own.
//   * Overlap tails: a file may store each tile with `overlap_bytes` of the
//     next tile appended, so a record of at most that many bytes that starts
//     in a tile decodes from that tile alone.
//   * Verified files: a file registered with a per-tile CRC-32C table checks
//     every device load against it and fails the load with Corruption on a
//     mismatch (nothing unverified is ever returned or admitted).
//   * Scan-resistant admission: a cyclic scan of a file larger than the
//     budget is LRU's worst case (every hit-to-be is evicted moments before
//     its reuse). Eviction is therefore gated on proven reuse — a resident
//     tile that has been touched more than once since the last aging sweep
//     is never evicted for a first-time tile; the newcomer is served straight
//     from the device instead (a "bypass"). The resident set freezes onto a
//     stable prefix of the scan cycle, converting that fraction of every
//     subsequent pass into hits. Periodic count-halving lets the set rotate
//     if the workload genuinely shifts.
//   * The cache owns the device accounting: misses bill device bytes into
//     the cache's counters, and cache-backed readers bill
//     IoStats::cache_served_bytes instead of bytes_read, so
//     BuildStats::io_amplification stays an honest device-traffic ratio.

#ifndef ERA_IO_TILE_CACHE_H_
#define ERA_IO_TILE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/retry_policy.h"

namespace era {

/// Tuning knobs for one TileCache.
struct TileCacheOptions {
  /// Total bytes of resident tile data across all shards. A shard evicts
  /// (or bypasses) once it exceeds its share, but always keeps at least one
  /// resident tile so a budget smaller than one tile still caches.
  uint64_t budget_bytes = 8ull << 20;
  /// Tile size in bytes. Must be a power of two >= 4 KiB. 128 KiB default:
  /// coarse enough that per-tile overhead vanishes, fine enough that a
  /// budget a few MB short of the file still keeps ~90% of it resident.
  uint32_t tile_bytes = 128u << 10;
  /// Independently locked shards (tiles of one file spread round-robin, so
  /// neighboring tiles of one sequential scan land in different shards).
  uint32_t shards = 8;
  /// Transient device-read faults (IOError only) under cache loads and
  /// bypass reads are retried with exponential backoff; absorbed retries
  /// show up in Snapshot::read_retries.
  RetryPolicy retry;
};

/// One cached tile: the tile's bytes plus the file's overlap tail.
/// `data.size()` is short only for tiles near end-of-file.
struct CachedTile {
  std::vector<char> data;
};

/// A file registered with a TileCache. Immutable after registration (bar
/// the `damaged` flag); shared by every reader of the file.
struct TileFile {
  uint64_t id = 0;
  std::string path;
  uint64_t size = 0;
  /// Bytes of the following tile stored after each tile (see header).
  uint32_t overlap_bytes = 0;
  /// CRC-32C of each tile's stored bytes (tile plus overlap, clipped at
  /// end-of-file); empty when the file's loads are not verified.
  std::vector<uint32_t> tile_crcs;
  /// Unverified files keep one open handle. A verified file is reopened
  /// from `env` on every load, so its checksums judge what is at `path`
  /// now — a repair published by rename included.
  std::unique_ptr<RandomAccessFile> file;
  Env* env = nullptr;
  /// Set once a load failed its checksum: the registration no longer
  /// matches the file and its owner should register it afresh.
  mutable std::atomic<bool> damaged{false};
};

/// Process-wide cache of fixed-size tiles of any number of files.
/// Thread-safe: any number of workers, prefetch threads and query sessions
/// may call into it concurrently.
class TileCache {
 public:
  /// An empty cache; register files with AddFile.
  static StatusOr<std::shared_ptr<TileCache>> Create(
      const TileCacheOptions& options);

  /// A cache over the single file `path` (the build's text): Create plus
  /// AddFile. The single-file calls below (GetTile/ReadAt without a file,
  /// file_size, path) address this file.
  static StatusOr<std::shared_ptr<TileCache>> Open(
      Env* env, const std::string& path, const TileCacheOptions& options);

  /// Registers `path` from `env` under a fresh id (`overlap_bytes` and
  /// `tile_crcs` as in TileFile). FindFile resolves the path to the newest
  /// registration until RemoveFile.
  StatusOr<std::shared_ptr<const TileFile>> AddFile(
      Env* env, const std::string& path, uint32_t overlap_bytes = 0,
      std::vector<uint32_t> tile_crcs = {});
  /// Drops `file`'s resident tiles and its path registration. Readers still
  /// holding the TileFile keep working (their misses load as before).
  void RemoveFile(const TileFile& file);
  /// Newest registration of `path`, or null.
  std::shared_ptr<const TileFile> FindFile(const std::string& path) const;

  /// Returns tile `index` of `file` (file bytes [index*tile,
  /// (index+1)*tile + overlap)), loading it from the device on a miss. The
  /// shared_ptr pins the bytes: eviction drops a tile from the cache but
  /// never invalidates a pinned copy. Indexes at or past end-of-file return
  /// an empty tile. `ctx` (may be null) is the caller's deadline and
  /// cancellation, checked before a miss touches the device (or waits for
  /// another caller's load) and threaded into the retry backoffs.
  StatusOr<std::shared_ptr<const CachedTile>> GetTile(
      const TileFile& file, uint64_t index, const QueryContext* ctx = nullptr);

  /// Read-through positional read (pread semantics, short at end-of-file).
  /// Spans tile boundaries transparently. `ctx` (may be null) is checked at
  /// each tile boundary — a multi-tile read abandons between tiles, never
  /// mid-copy.
  Status ReadAt(const TileFile& file, uint64_t offset, std::size_t n,
                char* scratch, std::size_t* out_n,
                const QueryContext* ctx = nullptr);

  /// Offers tile `index` of `file`, already read (and verified) by the
  /// caller, for residency. A prefetched tile never evicts anything: it is
  /// admitted only into free room, as an unproven (first-to-go) tile.
  void Admit(const TileFile& file, uint64_t index, const char* data,
             std::size_t n);

  /// Bytes held outside the tile map but charged to this budget (a
  /// converted legacy sub-tree); shrinks every shard's share. Negative
  /// `delta` releases.
  void Charge(int64_t delta);

  // Single-file forms over the file Open registered.
  StatusOr<std::shared_ptr<const CachedTile>> GetTile(
      uint64_t index, const QueryContext* ctx = nullptr) {
    return GetTile(*primary_, index, ctx);
  }
  Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n, const QueryContext* ctx = nullptr) {
    return ReadAt(*primary_, offset, n, scratch, out_n, ctx);
  }
  uint64_t file_size() const { return primary_->size; }
  const std::string& path() const { return primary_->path; }

  /// Drops every resident tile (not counted as LRU evictions). Pinned tiles
  /// stay valid for their holders.
  void EvictAll();

  uint32_t tile_bytes() const { return options_.tile_bytes; }

  /// Point-in-time totals across shards.
  struct Snapshot {
    uint64_t hits = 0;
    /// Lookups that found no resident tile. A miss that joined another
    /// caller's in-flight load counts here but reads nothing.
    uint64_t misses = 0;
    uint64_t device_bytes_read = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    /// Misses served from the device without admission (the would-be victim
    /// had proven reuse; see the scan-resistance note above).
    uint64_t bypasses = 0;
    /// Transient device-read faults absorbed by the retry policy.
    uint64_t read_retries = 0;
    uint64_t resident_bytes = 0;
    uint64_t resident_tiles = 0;
  };
  Snapshot stats() const;

 private:
  explicit TileCache(const TileCacheOptions& options);

  using LoadResult = StatusOr<std::shared_ptr<const CachedTile>>;

  /// Shard lock. It is held for a few hash-map and list operations, never
  /// across a device read, so a waiter spins briefly and then yields: a
  /// lock that sleeps in the kernel turns the serving path's short, frequent
  /// collisions (every descent probe is a lookup) into a convoy.
  class ShardMutex {
   public:
    void lock() {
      int spins = 0;
      while (held_.exchange(true, std::memory_order_acquire)) {
        while (held_.load(std::memory_order_relaxed)) {
          if (++spins > 64) std::this_thread::yield();
        }
      }
    }
    void unlock() { held_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> held_{false};
  };
  using ShardLock = std::lock_guard<ShardMutex>;

  /// One lock's worth of the cache, on its own cache lines: the lock and
  /// the counters every lookup writes share the first line.
  struct alignas(64) Shard {
    mutable ShardMutex mutex;
    uint64_t lookup_tick = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t resident_bytes = 0;
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    uint64_t bypasses = 0;
    /// Most-recently-used at the front.
    std::list<uint64_t> lru;
    struct Entry {
      std::shared_ptr<const CachedTile> tile;
      std::list<uint64_t>::iterator pos;
      /// Touches since the last aging sweep; eviction requires <= 1.
      /// Saturates, so a hot tile stops rewriting its entry on every hit.
      uint32_t access_count = 0;
    };
    std::unordered_map<uint64_t, Entry> entries;
    /// Device loads in flight, by key; later misses on the key wait here.
    std::unordered_map<uint64_t, std::shared_future<LoadResult>> loading;
  };

  /// Tile key: the file id above the tile index, so keys of one file are
  /// contiguous and ordered by position (what the scan-resistant policy
  /// compares).
  static uint64_t Key(const TileFile& file, uint64_t index) {
    return (file.id << kIndexBits) | index;
  }
  static constexpr int kIndexBits = 40;
  static constexpr uint32_t kMaxAccessCount = 64;
  static constexpr std::size_t kCopyUnderLockBytes = 4096;

  Shard& ShardFor(const TileFile& file, uint64_t index) {
    return shards_[(index + file.id) % shards_.size()];
  }
  uint64_t ShareLocked() const;
  /// Halves every access count once enough lookups have passed; called with
  /// the shard lock held. Keeps the frozen resident set rotatable.
  void AgeLocked(Shard* shard);
  /// Whether the admission policy could make room for `bytes` of tile
  /// `key` without mutating anything (the pre-load decision). Caller holds
  /// the shard lock.
  bool RoomPossibleLocked(const Shard& shard, uint64_t key,
                          uint64_t bytes) const;
  /// Evicts what the admission policy allows to make room for `bytes` of
  /// tile `key`; returns whether the tile may be admitted. Caller holds the
  /// shard lock.
  bool MakeRoomLocked(Shard* shard, uint64_t key, uint64_t bytes);
  /// Inserts `tile` as resident under `key`; caller holds the lock and has
  /// made room.
  void InsertLocked(Shard* shard, uint64_t key,
                    std::shared_ptr<const CachedTile> tile,
                    uint32_t access_count);
  /// Hit: the resident tile, touched (valid while the lock is held). Miss:
  /// null, and `*admit` says whether a load may be retained. Caller holds
  /// the lock.
  const Shard::Entry* LookupLocked(Shard* shard, uint64_t key, uint64_t bytes,
                                   bool* admit);
  /// Resident tile, or the single-flight load of it (admitted when `admit`
  /// and the policy still agrees after the read).
  LoadResult Fetch(const TileFile& file, uint64_t index, bool admit,
                   const QueryContext* ctx);
  /// Reads (and verifies) tile `index` from the device.
  LoadResult Load(const TileFile& file, uint64_t index,
                  const QueryContext* ctx);
  /// Device read with retry; bills device bytes.
  Status DeviceRead(const TileFile& file, uint64_t offset, std::size_t n,
                    char* scratch, std::size_t* got, const QueryContext* ctx);

  const TileCacheOptions options_;
  const uint64_t per_shard_budget_;
  const uint64_t age_period_;  // lookups per shard between aging sweeps
  std::vector<Shard> shards_;
  std::atomic<int64_t> charged_bytes_{0};
  std::atomic<uint64_t> device_bytes_read_{0};
  std::atomic<uint64_t> read_retries_{0};

  mutable std::mutex files_mu_;
  std::unordered_map<std::string, std::shared_ptr<const TileFile>> files_;
  std::shared_ptr<const TileFile> primary_;
};

/// RandomAccessFile adapter serving all reads of `file` through `cache`
/// (both Read and ReadAt — the adapter is stateless, so either is safe from
/// any thread). Lets StringReader/PrefetchingStringReader become
/// cache-backed without changing their refill logic.
std::unique_ptr<RandomAccessFile> NewCachedFile(
    std::shared_ptr<TileCache> cache, std::shared_ptr<const TileFile> file);

}  // namespace era

#endif  // ERA_IO_TILE_CACHE_H_
