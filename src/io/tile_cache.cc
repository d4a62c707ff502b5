#include "io/tile_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace era {

namespace {

bool IsPowerOfTwo(uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Whether a failed load is the loader's own deadline or cancellation (so a
/// caller waiting on the same load should retry it under its own context).
bool IsAbandon(const Status& s) {
  return s.IsDeadlineExceeded() || s.IsCancelled();
}

}  // namespace

TileCache::TileCache(const TileCacheOptions& options)
    : options_(options),
      per_shard_budget_(options.budget_bytes /
                        (options.shards == 0 ? 1 : options.shards)),
      // Aging period: long enough that the scan-resistant resident set
      // stays frozen across many full passes, short enough that a genuinely
      // shifted working set can displace it.
      age_period_(32 * std::max<uint64_t>(
                           1, per_shard_budget_ / options.tile_bytes)),
      shards_(options.shards == 0 ? 1 : options.shards) {}

StatusOr<std::shared_ptr<TileCache>> TileCache::Create(
    const TileCacheOptions& options) {
  if (!IsPowerOfTwo(options.tile_bytes) || options.tile_bytes < 4096) {
    return Status::InvalidArgument(
        "tile_bytes must be a power of two >= 4 KiB");
  }
  if (options.budget_bytes == 0) {
    return Status::InvalidArgument("tile cache budget must be positive");
  }
  return std::shared_ptr<TileCache>(new TileCache(options));
}

StatusOr<std::shared_ptr<TileCache>> TileCache::Open(
    Env* env, const std::string& path, const TileCacheOptions& options) {
  ERA_ASSIGN_OR_RETURN(std::shared_ptr<TileCache> cache, Create(options));
  ERA_ASSIGN_OR_RETURN(cache->primary_, cache->AddFile(env, path));
  return cache;
}

StatusOr<std::shared_ptr<const TileFile>> TileCache::AddFile(
    Env* env, const std::string& path, uint32_t overlap_bytes,
    std::vector<uint32_t> tile_crcs) {
  static std::atomic<uint64_t> next_id{0};
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  auto entry = std::make_shared<TileFile>();
  // Ids are process-unique, so a re-registered path never meets a stale
  // tile of its previous registration.
  entry->id = next_id.fetch_add(1, std::memory_order_relaxed) &
              ((1ull << (64 - kIndexBits)) - 1);
  entry->path = path;
  entry->size = file->Size();
  entry->overlap_bytes = overlap_bytes;
  entry->tile_crcs = std::move(tile_crcs);
  entry->env = env;
  if (entry->tile_crcs.empty()) entry->file = std::move(file);
  std::lock_guard<std::mutex> lock(files_mu_);
  files_[path] = entry;
  return std::shared_ptr<const TileFile>(std::move(entry));
}

void TileCache::RemoveFile(const TileFile& file) {
  const uint64_t tiles =
      (file.size + options_.tile_bytes - 1) / options_.tile_bytes;
  for (uint64_t index = 0; index < tiles; ++index) {
    Shard& shard = ShardFor(file, index);
    ShardLock lock(shard.mutex);
    auto it = shard.entries.find(Key(file, index));
    if (it == shard.entries.end()) continue;
    shard.resident_bytes -= it->second.tile->data.size();
    shard.lru.erase(it->second.pos);
    shard.entries.erase(it);
  }
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = files_.find(file.path);
  if (it != files_.end() && it->second.get() == &file) files_.erase(it);
}

std::shared_ptr<const TileFile> TileCache::FindFile(
    const std::string& path) const {
  std::lock_guard<std::mutex> lock(files_mu_);
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : it->second;
}

uint64_t TileCache::ShareLocked() const {
  // Charged bytes (held outside the tile map) shrink every shard's share.
  const int64_t charged = charged_bytes_.load(std::memory_order_relaxed);
  const uint64_t per_shard =
      charged <= 0 ? 0 : static_cast<uint64_t>(charged) / shards_.size();
  return per_shard >= per_shard_budget_ ? 0 : per_shard_budget_ - per_shard;
}

void TileCache::Charge(int64_t delta) {
  charged_bytes_.fetch_add(delta, std::memory_order_relaxed);
}

void TileCache::AgeLocked(Shard* shard) {
  // Counts halve once per period, so a tile needs fresh touches to stay
  // eviction-proof.
  if (++shard->lookup_tick < age_period_) return;
  shard->lookup_tick = 0;
  for (auto& [key, entry] : shard->entries) {
    entry.access_count /= 2;
  }
}

bool TileCache::RoomPossibleLocked(const Shard& shard, uint64_t key,
                                   uint64_t bytes) const {
  // Non-mutating twin of MakeRoomLocked, used for the pre-load admission
  // decision: nothing is evicted until the device read has actually
  // succeeded (a failed load must not cost resident tiles).
  if (shard.entries.empty()) return true;
  const uint64_t share = ShareLocked();
  uint64_t reclaimable = 0;
  for (auto it = shard.lru.rbegin(); it != shard.lru.rend(); ++it) {
    if (shard.resident_bytes - reclaimable + bytes <= share) break;
    auto victim = shard.entries.find(*it);
    const bool evictable =
        victim->second.access_count == 0 ||
        (victim->second.access_count <= 1 && *it > key);
    if (evictable) reclaimable += victim->second.tile->data.size();
  }
  return shard.resident_bytes - reclaimable + bytes <= share;
}

bool TileCache::MakeRoomLocked(Shard* shard, uint64_t key, uint64_t bytes) {
  // Scan-resistant admission. A cyclic scan of a file larger than the
  // budget is LRU's worst case: every tile is evicted moments before its
  // next use, for 0% reuse. A resident tile is therefore evictable only if
  //   * its access count aged to 0 (provably cold — lets a genuinely
  //     shifted working set displace the old one), or
  //   * it is touch-count-cold (<= 1) AND lies deeper in the key order than
  //     the newcomer — for cyclic scans this deterministically freezes a
  //     prefix of the cycle, which is as good as any fixed subset can do
  //     (Belady), and converts that fraction of every later pass into hits.
  // Otherwise the newcomer is not admitted; ReadAt then reads only the
  // requested span from the device, so a miss never costs more than the
  // same read would have cost without the cache.
  const uint64_t share = ShareLocked();
  for (auto it = shard->lru.rbegin();
       it != shard->lru.rend() && shard->resident_bytes + bytes > share;) {
    const uint64_t victim_key = *it;
    auto victim = shard->entries.find(victim_key);
    const bool evictable =
        victim->second.access_count == 0 ||
        (victim->second.access_count <= 1 && victim_key > key);
    if (!evictable) {
      ++it;
      continue;
    }
    shard->resident_bytes -= victim->second.tile->data.size();
    ++shard->evictions;
    shard->evicted_bytes += victim->second.tile->data.size();
    shard->entries.erase(victim);
    // Erase via the forward iterator corresponding to this reverse one.
    it = std::make_reverse_iterator(shard->lru.erase(std::next(it).base()));
  }
  // A shard always admits its first tile, however tight the budget.
  return shard->resident_bytes + bytes <= share || shard->entries.empty();
}

void TileCache::InsertLocked(Shard* shard, uint64_t key,
                             std::shared_ptr<const CachedTile> tile,
                             uint32_t access_count) {
  shard->lru.push_front(key);
  shard->resident_bytes += tile->data.size();
  shard->entries[key] =
      Shard::Entry{std::move(tile), shard->lru.begin(), access_count};
}

const TileCache::Shard::Entry* TileCache::LookupLocked(Shard* shard,
                                                       uint64_t key,
                                                       uint64_t bytes,
                                                       bool* admit) {
  AgeLocked(shard);
  auto it = shard->entries.find(key);
  if (it != shard->entries.end()) {
    ++shard->hits;
    if (it->second.access_count < kMaxAccessCount) ++it->second.access_count;
    // A hot tile is usually at the front already; skip the list write.
    if (it->second.pos != shard->lru.begin()) {
      shard->lru.splice(shard->lru.begin(), shard->lru, it->second.pos);
    }
    return &it->second;
  }
  ++shard->misses;
  *admit = RoomPossibleLocked(*shard, key, bytes);
  if (!*admit) ++shard->bypasses;
  return nullptr;
}

Status TileCache::DeviceRead(const TileFile& file, uint64_t offset,
                             std::size_t n, char* scratch, std::size_t* got,
                             const QueryContext* ctx) {
  uint64_t retries = 0;
  Status s = RunWithRetry(
      options_.retry, ctx,
      [&]() -> Status {
        if (file.file != nullptr) {
          return file.file->ReadAt(offset, n, scratch, got);
        }
        ERA_ASSIGN_OR_RETURN(auto reopened, file.env->OpenRandomAccess(
                                                file.path));
        return reopened->ReadAt(offset, n, scratch, got);
      },
      &retries);
  if (retries > 0) read_retries_.fetch_add(retries, std::memory_order_relaxed);
  if (s.ok()) device_bytes_read_.fetch_add(*got, std::memory_order_relaxed);
  return s;
}

TileCache::LoadResult TileCache::Load(const TileFile& file, uint64_t index,
                                      const QueryContext* ctx) {
  // The device-read boundary: a dead query stops before issuing the load.
  if (ctx != nullptr) ERA_RETURN_NOT_OK(ctx->Check());
  const uint64_t offset = index * static_cast<uint64_t>(options_.tile_bytes);
  const std::size_t want = static_cast<std::size_t>(std::min<uint64_t>(
      static_cast<uint64_t>(options_.tile_bytes) + file.overlap_bytes,
      file.size - offset));
  auto tile = std::make_shared<CachedTile>();
  tile->data.resize(want);
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(DeviceRead(file, offset, want, tile->data.data(), &got,
                               ctx));
  tile->data.resize(got);
  if (!file.tile_crcs.empty() &&
      (index >= file.tile_crcs.size() || got != want ||
       Crc32c(tile->data.data(), got) != file.tile_crcs[index])) {
    file.damaged.store(true, std::memory_order_relaxed);
    return Status::Corruption("tile " + std::to_string(index) + " of " +
                              file.path + " fails its checksum");
  }
  return std::shared_ptr<const CachedTile>(std::move(tile));
}

TileCache::LoadResult TileCache::Fetch(const TileFile& file, uint64_t index,
                                       bool admit, const QueryContext* ctx) {
  const uint64_t key = Key(file, index);
  Shard& shard = ShardFor(file, index);
  while (true) {
    std::promise<LoadResult> promise;
    std::shared_future<LoadResult> in_flight;
    {
      ShardLock lock(shard.mutex);
      // Re-check residency: a load may have landed since the caller's
      // lookup released the lock.
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) return it->second.tile;
      auto flight = shard.loading.find(key);
      if (flight != shard.loading.end()) {
        in_flight = flight->second;
      } else {
        shard.loading.emplace(key, promise.get_future().share());
      }
    }
    if (in_flight.valid()) {
      // Single flight: wait for the load already issued, within our own
      // deadline.
      if (ctx != nullptr) {
        ERA_RETURN_NOT_OK(ctx->Check());
        if (ctx->has_deadline() && in_flight.wait_until(ctx->deadline) ==
                                       std::future_status::timeout) {
          return ctx->Check();
        }
      }
      LoadResult result = in_flight.get();
      // The loader's own deadline or cancellation is not ours: retry.
      if (!result.ok() && IsAbandon(result.status())) continue;
      return result;
    }
    LoadResult result = Load(file, index, ctx);
    {
      ShardLock lock(shard.mutex);
      shard.loading.erase(key);
      if (result.ok() && admit && !(*result)->data.empty() &&
          shard.entries.find(key) == shard.entries.end()) {
        // The room seen before the load may have been refilled by a racer;
        // re-check rather than exceed the budget.
        if (MakeRoomLocked(&shard, key, (*result)->data.size())) {
          InsertLocked(&shard, key, *result, /*access_count=*/1);
        } else {
          ++shard.bypasses;
        }
      }
    }
    promise.set_value(result);
    return result;
  }
}

StatusOr<std::shared_ptr<const CachedTile>> TileCache::GetTile(
    const TileFile& file, uint64_t index, const QueryContext* ctx) {
  const uint64_t offset = index * static_cast<uint64_t>(options_.tile_bytes);
  if (offset >= file.size) {
    return std::shared_ptr<const CachedTile>(std::make_shared<CachedTile>());
  }
  const uint64_t bytes = std::min<uint64_t>(
      static_cast<uint64_t>(options_.tile_bytes) + file.overlap_bytes,
      file.size - offset);
  Shard& shard = ShardFor(file, index);
  bool admit = false;
  {
    ShardLock lock(shard.mutex);
    const Shard::Entry* hit =
        LookupLocked(&shard, Key(file, index), bytes, &admit);
    if (hit != nullptr) return hit->tile;
  }
  // GetTile's contract is a full pinned tile, so even a bypass loads the
  // whole tile; the span-granular bypass lives in ReadAt.
  return Fetch(file, index, admit, ctx);
}

Status TileCache::ReadAt(const TileFile& file, uint64_t offset, std::size_t n,
                         char* scratch, std::size_t* out_n,
                         const QueryContext* ctx) {
  *out_n = 0;
  if (offset >= file.size) return Status::OK();
  n = static_cast<std::size_t>(std::min<uint64_t>(n, file.size - offset));
  std::size_t written = 0;
  while (written < n) {
    // Tile boundary: a multi-tile read abandons here, never mid-copy. Hits
    // pay the check too — it is one relaxed load plus a clock read, and the
    // boundary contract should not depend on residency.
    if (ctx != nullptr) ERA_RETURN_NOT_OK(ctx->Check());
    const uint64_t pos = offset + written;
    const uint64_t index = pos / options_.tile_bytes;
    const uint64_t tile_start = index * options_.tile_bytes;
    const uint64_t in_tile = pos - tile_start;
    const uint64_t tile_len =
        std::min<uint64_t>(options_.tile_bytes, file.size - tile_start);
    const std::size_t take = static_cast<std::size_t>(
        std::min<uint64_t>(tile_len - in_tile, n - written));

    Shard& shard = ShardFor(file, index);
    std::shared_ptr<const CachedTile> tile;
    bool admit = false;
    {
      ShardLock lock(shard.mutex);
      const Shard::Entry* hit = LookupLocked(
          &shard, Key(file, index),
          std::min<uint64_t>(tile_len + file.overlap_bytes,
                             file.size - tile_start),
          &admit);
      // A short copy is cheaper under the lock than pinning the tile (a
      // shared reference count every reader of a hot tile would write).
      if (hit != nullptr && take <= kCopyUnderLockBytes &&
          in_tile + take <= hit->tile->data.size()) {
        std::memcpy(scratch + written, hit->tile->data.data() + in_tile,
                    take);
        written += take;
        continue;
      }
      if (hit != nullptr) tile = hit->tile;
    }
    // A verified file only ever serves whole checked tiles.
    if (tile == nullptr && (admit || !file.tile_crcs.empty())) {
      ERA_ASSIGN_OR_RETURN(tile, Fetch(file, index, admit, ctx));
    }
    if (tile != nullptr) {
      if (in_tile + take > tile->data.size()) {
        return Status::Internal("tile cache read past tile content");
      }
      std::memcpy(scratch + written, tile->data.data() + in_tile, take);
      written += take;
      continue;
    }
    // Bypass: the admission policy kept this tile out, so read exactly the
    // requested span — a miss must never amplify the device traffic the
    // uncached path would have produced.
    std::size_t got = 0;
    ERA_RETURN_NOT_OK(
        DeviceRead(file, pos, take, scratch + written, &got, ctx));
    if (got < take) {
      return Status::Internal("tile cache bypass read came back short");
    }
    written += got;
  }
  *out_n = written;
  return Status::OK();
}

void TileCache::Admit(const TileFile& file, uint64_t index, const char* data,
                      std::size_t n) {
  if (n == 0) return;
  Shard& shard = ShardFor(file, index);
  const uint64_t key = Key(file, index);
  ShardLock lock(shard.mutex);
  if (shard.entries.count(key) != 0) return;
  if (shard.resident_bytes + n > ShareLocked()) return;
  auto tile = std::make_shared<CachedTile>();
  tile->data.assign(data, data + n);
  InsertLocked(&shard, key, std::move(tile), /*access_count=*/0);
}

void TileCache::EvictAll() {
  for (Shard& shard : shards_) {
    ShardLock lock(shard.mutex);
    shard.entries.clear();
    shard.lru.clear();
    shard.resident_bytes = 0;
  }
}

TileCache::Snapshot TileCache::stats() const {
  Snapshot snapshot;
  for (const Shard& shard : shards_) {
    ShardLock lock(shard.mutex);
    snapshot.hits += shard.hits;
    snapshot.misses += shard.misses;
    snapshot.evictions += shard.evictions;
    snapshot.evicted_bytes += shard.evicted_bytes;
    snapshot.bypasses += shard.bypasses;
    snapshot.resident_bytes += shard.resident_bytes;
    snapshot.resident_tiles += shard.entries.size();
  }
  const int64_t charged = charged_bytes_.load(std::memory_order_relaxed);
  if (charged > 0) snapshot.resident_bytes += static_cast<uint64_t>(charged);
  snapshot.device_bytes_read =
      device_bytes_read_.load(std::memory_order_relaxed);
  snapshot.read_retries = read_retries_.load(std::memory_order_relaxed);
  return snapshot;
}

namespace {

class CacheBackedFile : public RandomAccessFile {
 public:
  CacheBackedFile(std::shared_ptr<TileCache> cache,
                  std::shared_ptr<const TileFile> file)
      : cache_(std::move(cache)), file_(std::move(file)) {}

  Status Read(uint64_t offset, std::size_t n, char* scratch,
              std::size_t* out_n) const override {
    return cache_->ReadAt(*file_, offset, n, scratch, out_n);
  }

  Status ReadAt(uint64_t offset, std::size_t n, char* scratch,
                std::size_t* out_n) const override {
    return cache_->ReadAt(*file_, offset, n, scratch, out_n);
  }

  uint64_t Size() const override { return file_->size; }

 private:
  std::shared_ptr<TileCache> cache_;
  std::shared_ptr<const TileFile> file_;
};

}  // namespace

std::unique_ptr<RandomAccessFile> NewCachedFile(
    std::shared_ptr<TileCache> cache, std::shared_ptr<const TileFile> file) {
  return std::make_unique<CacheBackedFile>(std::move(cache), std::move(file));
}

}  // namespace era
