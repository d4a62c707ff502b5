// TileCache unit suite: boundary reads, budget accounting, eviction under
// pinning, scan-resistant admission, the CachedFile adapter, single-flight
// loads, multi-file keys, verified overlap tiles, and an 8-thread eviction
// racer (the threaded cases also run under ThreadSanitizer in CI).

#include "io/tile_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/crc32.h"
#include "io/faulty_env.h"
#include "io/latency_env.h"
#include "io/mem_env.h"

namespace era {
namespace {

constexpr uint32_t kTile = 4096;  // minimum legal tile size, test-friendly

class TileCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_.resize(10 * kTile + 123);  // deliberately not tile-aligned
    std::mt19937_64 rng(7);
    for (std::size_t i = 0; i < data_.size(); ++i) {
      data_[i] = static_cast<char>('A' + (rng() % 26));
    }
    ASSERT_TRUE(env_.WriteFile("/s", data_).ok());
  }

  std::shared_ptr<TileCache> Open(uint64_t budget_bytes, uint32_t shards = 1) {
    TileCacheOptions options;
    options.budget_bytes = budget_bytes;
    options.tile_bytes = kTile;
    options.shards = shards;
    auto cache = TileCache::Open(&env_, "/s", options);
    EXPECT_TRUE(cache.ok());
    return *cache;
  }

  MemEnv env_;
  std::string data_;
};

TEST_F(TileCacheTest, RejectsBadOptions) {
  TileCacheOptions options;
  options.tile_bytes = 1000;  // not a power of two
  EXPECT_FALSE(TileCache::Open(&env_, "/s", options).ok());
  options.tile_bytes = 2048;  // below the 4 KiB floor
  EXPECT_FALSE(TileCache::Open(&env_, "/s", options).ok());
  options.tile_bytes = 4096;
  options.budget_bytes = 0;
  EXPECT_FALSE(TileCache::Open(&env_, "/s", options).ok());
}

TEST_F(TileCacheTest, ReadsSpanningTileBoundariesMatchContent) {
  auto cache = Open(/*budget=*/64 * kTile);
  std::string buf(3 * kTile, '\0');
  std::size_t got = 0;
  // Start mid-tile, span two boundaries.
  ASSERT_TRUE(
      cache->ReadAt(kTile / 2, 2 * kTile + 100, buf.data(), &got).ok());
  EXPECT_EQ(got, 2 * kTile + 100u);
  EXPECT_EQ(buf.substr(0, got), data_.substr(kTile / 2, got));
}

TEST_F(TileCacheTest, ShortReadsAtAndPastEof) {
  auto cache = Open(64 * kTile);
  std::string buf(2 * kTile, '\0');
  std::size_t got = 0;
  // Straddles end-of-file: short read.
  ASSERT_TRUE(
      cache->ReadAt(data_.size() - 50, 2 * kTile, buf.data(), &got).ok());
  EXPECT_EQ(got, 50u);
  EXPECT_EQ(buf.substr(0, got), data_.substr(data_.size() - 50));
  // Entirely past end-of-file: zero bytes, not an error.
  ASSERT_TRUE(
      cache->ReadAt(data_.size() + 10, kTile, buf.data(), &got).ok());
  EXPECT_EQ(got, 0u);
}

TEST_F(TileCacheTest, HitMissAndDeviceByteAccounting) {
  auto cache = Open(64 * kTile);
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  ASSERT_TRUE(cache->ReadAt(0, kTile, buf.data(), &got).ok());
  TileCache::Snapshot snapshot = cache->stats();
  EXPECT_EQ(snapshot.misses, 1u);
  EXPECT_EQ(snapshot.hits, 0u);
  EXPECT_EQ(snapshot.device_bytes_read, kTile);
  EXPECT_EQ(snapshot.resident_tiles, 1u);
  EXPECT_EQ(snapshot.resident_bytes, kTile);
  // Same tile again: pure hit, no device traffic.
  ASSERT_TRUE(cache->ReadAt(100, 200, buf.data(), &got).ok());
  snapshot = cache->stats();
  EXPECT_EQ(snapshot.misses, 1u);
  EXPECT_EQ(snapshot.hits, 1u);
  EXPECT_EQ(snapshot.device_bytes_read, kTile);
}

TEST_F(TileCacheTest, BudgetIsRespectedAndEvictionsAreCounted) {
  // Budget of 3 tiles, single shard. A forward scan freezes the shallowest
  // tiles and bypasses the rest (scan resistance); a backward scan then
  // brings shallower newcomers, which ARE allowed to evict deeper
  // touch-cold residents. Residency must respect the budget throughout.
  auto cache = Open(3 * kTile);
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  const uint64_t tiles = (data_.size() + kTile - 1) / kTile;
  for (uint64_t t = 0; t < tiles; ++t) {
    ASSERT_TRUE(cache->ReadAt(t * kTile, kTile, buf.data(), &got).ok());
    EXPECT_LE(cache->stats().resident_bytes, 3 * kTile);
  }
  TileCache::Snapshot snapshot = cache->stats();
  EXPECT_EQ(snapshot.evictions, 0u);  // forward scan: freeze + bypass
  EXPECT_GT(snapshot.bypasses, 0u);
  EXPECT_LE(snapshot.resident_tiles, 3u);

  // Evict the frozen prefix's deepest entry by re-reading from the middle
  // of the file downward: each newcomer is shallower than some resident.
  cache->EvictAll();
  for (uint64_t t = tiles; t-- > 4;) {
    ASSERT_TRUE(cache->ReadAt(t * kTile, kTile, buf.data(), &got).ok());
    EXPECT_LE(cache->stats().resident_bytes, 3 * kTile);
  }
  snapshot = cache->stats();
  EXPECT_GT(snapshot.evictions, 0u);
  EXPECT_GT(snapshot.evicted_bytes, 0u);
  EXPECT_LE(snapshot.resident_tiles, 3u);
}

TEST_F(TileCacheTest, EvictionNeverInvalidatesPinnedTiles) {
  auto cache = Open(2 * kTile);
  // Pin a deep tile and keep the shared_ptr across traffic that evicts it
  // (shallower newcomers may displace deeper touch-cold residents).
  auto pinned = cache->GetTile(9);
  ASSERT_TRUE(pinned.ok());
  const std::string before((*pinned)->data.begin(), (*pinned)->data.end());
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t t = 0; t < 9; ++t) {
      ASSERT_TRUE(cache->ReadAt(t * kTile, kTile, buf.data(), &got).ok());
    }
  }
  EXPECT_GT(cache->stats().evictions, 0u);
  // The pinned bytes are untouched even though tile 9 was evicted long ago.
  EXPECT_EQ(std::string((*pinned)->data.begin(), (*pinned)->data.end()),
            before);
  EXPECT_EQ(before, data_.substr(9 * kTile, kTile));
}

TEST_F(TileCacheTest, SingleOversizedResidencyGrace) {
  // Budget below one tile: the cache must still retain one tile (the PR 3
  // cache's "never below one resident entry" rule) so it degrades to a
  // one-tile cache instead of caching nothing.
  auto cache = Open(kTile / 2);
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  ASSERT_TRUE(cache->ReadAt(0, kTile, buf.data(), &got).ok());
  EXPECT_EQ(cache->stats().resident_tiles, 1u);
  ASSERT_TRUE(cache->ReadAt(0, kTile, buf.data(), &got).ok());
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST_F(TileCacheTest, RepeatedFullScansAreScanResistant) {
  // 11-tile file through a 4-tile budget: plain LRU would evict every tile
  // moments before its next use and hit 0% on every pass. The reuse-gated
  // admission freezes a resident subset instead, so later passes hit.
  auto cache = Open(4 * kTile);
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  for (int pass = 0; pass < 6; ++pass) {
    for (uint64_t pos = 0; pos < data_.size(); pos += kTile) {
      ASSERT_TRUE(cache->ReadAt(pos, kTile, buf.data(), &got).ok());
    }
  }
  TileCache::Snapshot snapshot = cache->stats();
  // 6 passes x 11 tiles = 66 lookups; a frozen 4-tile set gives ~4 hits per
  // pass from pass 2 on. Require a healthy fraction of that, not LRU's 0.
  EXPECT_GE(snapshot.hits, 15u);
  EXPECT_GT(snapshot.bypasses, 0u);
  EXPECT_LE(snapshot.resident_bytes, 4 * kTile);
}

TEST_F(TileCacheTest, EvictAllDropsResidencyButKeepsServing) {
  auto cache = Open(8 * kTile);
  std::string buf(kTile, '\0');
  std::size_t got = 0;
  ASSERT_TRUE(cache->ReadAt(0, kTile, buf.data(), &got).ok());
  EXPECT_EQ(cache->stats().resident_tiles, 1u);
  cache->EvictAll();
  EXPECT_EQ(cache->stats().resident_tiles, 0u);
  EXPECT_EQ(cache->stats().resident_bytes, 0u);
  ASSERT_TRUE(cache->ReadAt(0, kTile, buf.data(), &got).ok());
  EXPECT_EQ(buf.substr(0, got), data_.substr(0, kTile));
}

TEST_F(TileCacheTest, CachedFileAdapterServesIdenticalBytes) {
  auto cache = Open(4 * kTile, /*shards=*/2);
  std::unique_ptr<RandomAccessFile> file =
      NewCachedFile(cache, cache->FindFile("/s"));
  EXPECT_EQ(file->Size(), data_.size());
  std::mt19937_64 rng(99);
  std::string buf(3000, '\0');
  for (int i = 0; i < 500; ++i) {
    const uint64_t pos = rng() % (data_.size() + 200);
    const std::size_t len = 1 + rng() % buf.size();
    std::size_t got = 0;
    // Alternate Read and ReadAt: both must be position-stateless.
    Status s = (i % 2 == 0) ? file->Read(pos, len, buf.data(), &got)
                            : file->ReadAt(pos, len, buf.data(), &got);
    ASSERT_TRUE(s.ok());
    const std::size_t expect =
        pos >= data_.size()
            ? 0
            : std::min<std::size_t>(len, data_.size() - pos);
    ASSERT_EQ(got, expect) << "pos " << pos << " len " << len;
    if (got > 0) {
      ASSERT_EQ(buf.substr(0, got), data_.substr(pos, got));
    }
  }
}

TEST_F(TileCacheTest, EightThreadEvictionRacer) {
  // Tiny budget + 8 reader threads + an EvictAll racer: every byte served
  // must still match the file, and accounting must stay consistent. This
  // test runs in the build-tsan CI job.
  auto cache = Open(2 * kTile, /*shards=*/4);
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937_64 rng(1000 + t);
      std::string buf(2 * kTile, '\0');
      for (int i = 0; i < 600; ++i) {
        const uint64_t pos = rng() % data_.size();
        const std::size_t len = 1 + rng() % buf.size();
        std::size_t got = 0;
        if (!cache->ReadAt(pos, len, buf.data(), &got).ok() ||
            got != std::min<std::size_t>(len, data_.size() - pos) ||
            buf.compare(0, got, data_, pos, got) != 0) {
          ++failures;
          return;
        }
        if (i % 50 == 0) {
          auto pinned = cache->GetTile(pos / kTile);
          if (!pinned.ok() || (*pinned)->data.empty()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  std::thread evictor([&] {
    while (!stop.load()) {
      cache->EvictAll();
      std::this_thread::yield();
    }
  });
  for (auto& t : readers) t.join();
  stop = true;
  evictor.join();
  EXPECT_EQ(failures.load(), 0);
  TileCache::Snapshot snapshot = cache->stats();
  EXPECT_GT(snapshot.misses, 0u);
  EXPECT_EQ(snapshot.resident_bytes,
            cache->stats().resident_bytes);  // coherent snapshot
}

/// Runs `threads` callers of `body` released together, so their misses
/// overlap the slow device read of the first one.
template <typename Body>
void RunTogether(int threads, Body body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < threads) std::this_thread::yield();
      body(t);
    });
  }
  for (auto& thread : pool) thread.join();
}

TEST_F(TileCacheTest, ConcurrentMissesOnOneBlockShareOneDeviceRead) {
  FaultyEnv counting(&env_, FaultSpec{});
  LatencyModel slow;
  slow.read_latency_seconds = 0.05;  // every caller arrives mid-read
  LatencyEnv device(&counting, slow);
  TileCacheOptions options;
  options.budget_bytes = 64 * kTile;
  options.tile_bytes = kTile;
  auto cache = TileCache::Create(options);
  ASSERT_TRUE(cache.ok());
  auto file = (*cache)->AddFile(&device, "/s");
  ASSERT_TRUE(file.ok());
  std::vector<std::shared_ptr<const CachedTile>> got(8);
  RunTogether(8, [&](int t) {
    auto tile = (*cache)->GetTile(**file, 3);
    if (tile.ok()) got[t] = *tile;
  });
  EXPECT_EQ(counting.stats().reads, 1u);
  for (const auto& tile : got) {
    ASSERT_NE(tile, nullptr);
    EXPECT_EQ(std::string(tile->data.begin(), tile->data.end()),
              data_.substr(3 * kTile, kTile));
  }
  EXPECT_EQ((*cache)->stats().device_bytes_read, kTile);
}

TEST_F(TileCacheTest, ConcurrentTextTileMissesShareOneDeviceRead) {
  // The build's single-file cache: eight scanners reading inside one
  // 128 KiB text tile at once cost one device read.
  std::string text(512u << 10, 'x');
  for (std::size_t i = 0; i < text.size(); ++i) text[i] = "ACGT"[i * 7 % 4];
  ASSERT_TRUE(env_.WriteFile("/text", text).ok());
  FaultyEnv counting(&env_, FaultSpec{});
  LatencyModel slow;
  slow.read_latency_seconds = 0.05;
  LatencyEnv device(&counting, slow);
  TileCacheOptions options;
  options.budget_bytes = 1u << 20;
  auto cache = TileCache::Open(&device, "/text", options);
  ASSERT_TRUE(cache.ok());
  std::atomic<int> wrong{0};
  RunTogether(8, [&](int t) {
    std::string buf(1000, '\0');
    std::size_t got = 0;
    const uint64_t pos = (128u << 10) + 4000 * t;  // all inside tile 1
    if (!(*cache)->ReadAt(pos, buf.size(), buf.data(), &got).ok() ||
        buf != text.substr(pos, buf.size())) {
      ++wrong;
    }
  });
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(counting.stats().reads, 1u);
}

TEST_F(TileCacheTest, FilesShareTheBudgetUnderDistinctKeys) {
  ASSERT_TRUE(env_.WriteFile("/t", std::string(3 * kTile, 'z')).ok());
  TileCacheOptions options;
  options.budget_bytes = 64 * kTile;
  options.tile_bytes = kTile;
  auto cache = TileCache::Create(options);
  ASSERT_TRUE(cache.ok());
  auto s = (*cache)->AddFile(&env_, "/s");
  auto t = (*cache)->AddFile(&env_, "/t");
  ASSERT_TRUE(s.ok() && t.ok());
  EXPECT_EQ((*cache)->FindFile("/t"), *t);
  auto a = (*cache)->GetTile(**s, 0);
  auto b = (*cache)->GetTile(**t, 0);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ((*a)->data[0], data_[0]);
  EXPECT_EQ((*b)->data[0], 'z');
  EXPECT_EQ((*cache)->stats().resident_tiles, 2u);
  // Removing a file drops its tiles and its registration, nobody else's.
  (*cache)->RemoveFile(**t);
  EXPECT_EQ((*cache)->FindFile("/t"), nullptr);
  EXPECT_EQ((*cache)->stats().resident_tiles, 1u);
  EXPECT_EQ((*cache)->stats().resident_bytes, kTile);
}

TEST_F(TileCacheTest, VerifiedTilesCarryOverlapAndFailOnChange) {
  constexpr uint32_t kOverlap = 64;
  std::vector<uint32_t> crcs;
  for (uint64_t off = 0; off < data_.size(); off += kTile) {
    const std::size_t n = std::min<std::size_t>(kTile + kOverlap,
                                                data_.size() - off);
    crcs.push_back(Crc32c(data_.data() + off, n));
  }
  TileCacheOptions options;
  options.budget_bytes = 2 * kTile;
  options.tile_bytes = kTile;
  options.shards = 1;
  auto cache = TileCache::Create(options);
  ASSERT_TRUE(cache.ok());
  auto file = (*cache)->AddFile(&env_, "/s", kOverlap, crcs);
  ASSERT_TRUE(file.ok());
  auto tile = (*cache)->GetTile(**file, 2);
  ASSERT_TRUE(tile.ok()) << tile.status().ToString();
  EXPECT_EQ(std::string((*tile)->data.begin(), (*tile)->data.end()),
            data_.substr(2 * kTile, kTile + kOverlap));
  // The last tile is short; its tail stops at end-of-file.
  auto last = (*cache)->GetTile(**file, 10);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ((*last)->data.size(), data_.size() - 10 * kTile);

  // Admit offers a tile without evicting: the 2-tile budget is full.
  (*cache)->Admit(**file, 5, data_.data() + 5 * kTile, kTile + kOverlap);
  EXPECT_EQ((*cache)->stats().resident_tiles, 2u);

  // Rewrite one byte of tile 7 on disk: its next load fails its checksum
  // and flags the registration, while resident tile 2 keeps serving.
  std::string changed = data_;
  changed[7 * kTile + 5] ^= 1;
  ASSERT_TRUE(env_.WriteFile("/s", changed).ok());
  auto bad = (*cache)->GetTile(**file, 7);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(bad.status().IsCorruption()) << bad.status().ToString();
  EXPECT_TRUE((*file)->damaged.load());
  EXPECT_TRUE((*cache)->GetTile(**file, 2).ok());
  // A byte inside tile 6's overlap tail is covered by tile 6's checksum.
  EXPECT_FALSE((*cache)->GetTile(**file, 6).ok());
}

}  // namespace
}  // namespace era
