// The full disk-resident suffix-tree index: trie + sub-tree files + manifest.
//
// Every construction algorithm in this repository (ERA, WaveFront, B2ST,
// TRELLIS) produces a TreeIndex, so validation, canonicalization and the
// query engine are shared.
//
// The reading side serves sub-trees block by block (README "Serving
// anatomy"). The first OpenSubTree of an id attaches it: the file is read
// once, CRC-checked and fully validated, its blocks are offered to the
// serving TileCache, and a small handle (layout plus per-block CRC table)
// is kept until EvictCache. Every open returns a fresh ServedSubTree view
// that reads 4 KiB blocks through that one sharded, budgeted, pin-safe
// cache, so a query pays for the blocks its descent touches, not for the
// whole sub-tree. Pattern-to-sub-tree routing goes through a flat k-mer
// dispatch table built over the trie at Load time (Route()).

#ifndef ERA_SUFFIXTREE_TREE_INDEX_H_
#define ERA_SUFFIXTREE_TREE_INDEX_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/query_context.h"
#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "io/tile_cache.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/trie.h"
#include "text/corpus.h"

namespace era {

/// One serialized sub-tree in the manifest.
struct SubTreeEntry {
  std::string prefix;
  uint64_t frequency = 0;  // leaf count
  std::string filename;    // relative to the index directory
};

/// Tuning knobs for the serving block cache.
struct TreeCacheOptions {
  /// Total bytes of resident blocks (sub-tree files and, once a QueryEngine
  /// registers it, the text) across all shards. A shard evicts or bypasses
  /// once it exceeds its share (budget / shards), but never below one
  /// resident block.
  uint64_t budget_bytes = 64ull << 20;
  /// Number of independently locked shards. Every descent probe and
  /// edge-label read is a lookup, so serving needs many more locks than
  /// clients to keep concurrent queries from colliding.
  uint32_t shards = 64;
  /// Retry schedule for sub-tree attaches and block loads. Only IOError is
  /// retried; a Corruption (bad checksum) fails immediately and is never
  /// cached.
  RetryPolicy retry;
};

/// Disk layout:
///   <dir>/MANIFEST   key:value text lines + serialized trie blob
///   <dir>/st_<id>    sub-tree files (serializer.h format)
class TreeIndex {
 public:
  TreeIndex() = default;

  // ---- building side ----
  void SetText(const TextInfo& text) { text_ = text; }
  /// Registers a sub-tree file; returns its id.
  uint32_t AddSubTree(const std::string& prefix, uint64_t frequency,
                      const std::string& filename);
  PrefixTrie& mutable_trie() { return trie_; }

  /// Writes MANIFEST into `dir` (sub-tree files must already be there).
  Status Save(Env* env, const std::string& dir) const;

  // ---- reading side ----
  static StatusOr<TreeIndex> Load(Env* env, const std::string& dir);

  /// Opens sub-tree `id` for reading: a fresh ServedSubTree view over the
  /// id's attached handle, attaching it first on a handle miss (read the
  /// whole file, check its CRC, validate its structure, offer its blocks to
  /// the cache). Thread-safe; concurrent first opens of one id share a
  /// single attach. Handle hits, misses and attach bytes are billed to
  /// `stats` when given. A handle whose block failed its checksum since
  /// attach is dropped and re-attached here, so a repaired file serves
  /// again without a restart.
  ///
  /// The view's node and leaf reads load blocks through the cache and are
  /// fallible (see compressed_tree.h). `ctx` (may be null) is borrowed by
  /// the view: it bounds the attach and every block load, and must outlive
  /// the view's reads. A dead query never starts an attach; a handle hit
  /// always succeeds.
  StatusOr<std::shared_ptr<const ServedSubTree>> OpenSubTree(
      Env* env, uint32_t id, IoStats* stats,
      const QueryContext* ctx = nullptr) const;

  /// Whether sub-tree `id` has a live handle (OpenSubTree would not read
  /// its file). Thread-safe.
  bool Attached(uint32_t id) const;

  /// Routes `pattern` to its deepest trie node — one k-mer table probe in
  /// the common case, a trie map walk otherwise. Equivalent to
  /// trie().Descend(pattern).
  PrefixTrie::DescendResult Route(const std::string& pattern) const {
    return dispatch_.Route(trie_, pattern);
  }

  const KmerDispatchTable& dispatch() const { return dispatch_; }

  /// Replaces the cache (and drops every handle) with a fresh one using
  /// `options`. Call before serving traffic; NOT safe concurrently with
  /// OpenSubTree.
  void ConfigureCache(const TreeCacheOptions& options) const;

  /// Drops every resident block and every attached handle (memory control
  /// for sweeps): the next open of any id re-attaches it. Thread-safe;
  /// in-flight queries keep their views, which keep reading. Not counted as
  /// evictions.
  void EvictCache() const;

  /// Point-in-time cache totals.
  struct CacheSnapshot {
    /// OpenSubTree outcomes: served from an attached handle, or attached.
    uint64_t hits = 0;
    uint64_t misses = 0;
    /// Budget evictions of cached blocks, and their bytes.
    uint64_t evictions = 0;
    uint64_t evicted_bytes = 0;
    /// Bytes of resident blocks (plus converted legacy sub-trees).
    uint64_t resident_bytes = 0;
    /// Attached sub-tree handles.
    uint64_t resident_trees = 0;
    /// Block lookups served from the cache, and those that went to the
    /// device (or joined a load already in flight), across every file the
    /// cache serves.
    uint64_t block_hits = 0;
    uint64_t block_misses = 0;
  };
  CacheSnapshot CacheStats() const;

  /// The serving block cache. A QueryEngine registers the text with it so
  /// edge-label reads share the budget.
  const std::shared_ptr<TileCache>& block_cache() const {
    return cache_->blocks;
  }

  const TextInfo& text() const { return text_; }
  const PrefixTrie& trie() const { return trie_; }
  const std::vector<SubTreeEntry>& subtrees() const { return subtrees_; }
  const std::string& dir() const { return dir_; }

  /// Total number of suffixes indexed (sub-tree frequencies + direct
  /// leaves); equals text().length when the index is complete.
  uint64_t TotalSuffixes() const;

 private:
  /// An attached sub-tree: what the views of one id share.
  struct Handle;
  struct Shard {
    std::mutex mutex;
    std::unordered_map<uint32_t, std::shared_ptr<const Handle>> handles;
    /// Attaches in flight, by id; later opens of the id wait here.
    std::unordered_map<uint32_t,
                       std::shared_future<StatusOr<std::shared_ptr<const Handle>>>>
        attaching;
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  // Cache state lives behind a pointer so TreeIndex stays movable despite
  // the shard mutexes.
  struct Cache {
    explicit Cache(const TreeCacheOptions& opts);
    TreeCacheOptions options;
    std::shared_ptr<TileCache> blocks;
    std::vector<Shard> shards;
  };

  /// Reads, validates and registers sub-tree `id`.
  StatusOr<std::shared_ptr<const Handle>> Attach(Env* env, uint32_t id,
                                                 IoStats* stats,
                                                 const QueryContext* ctx) const;

  TextInfo text_;
  PrefixTrie trie_;
  KmerDispatchTable dispatch_;
  std::vector<SubTreeEntry> subtrees_;
  std::string dir_;
  mutable std::shared_ptr<Cache> cache_ =
      std::make_shared<Cache>(TreeCacheOptions{});
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_TREE_INDEX_H_
