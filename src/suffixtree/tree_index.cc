#include "suffixtree/tree_index.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "common/crc32.h"
#include "suffixtree/serializer.h"

namespace era {

namespace {

std::string HexEncode(const std::string& in) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(in.size() * 2);
  for (unsigned char c : in) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

StatusOr<std::string> HexDecode(const std::string& in) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  if (in.size() % 2 != 0) return Status::Corruption("odd hex length");
  std::string out;
  out.reserve(in.size() / 2);
  for (std::size_t i = 0; i < in.size(); i += 2) {
    int hi = nibble(in[i]);
    int lo = nibble(in[i + 1]);
    if (hi < 0 || lo < 0) return Status::Corruption("bad hex digit");
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

}  // namespace

uint32_t TreeIndex::AddSubTree(const std::string& prefix, uint64_t frequency,
                               const std::string& filename) {
  subtrees_.push_back({prefix, frequency, filename});
  return static_cast<uint32_t>(subtrees_.size() - 1);
}

Status TreeIndex::Save(Env* env, const std::string& dir) const {
  std::ostringstream os;
  os << "format: era-tree-index-v1\n";
  os << "text_path: " << text_.path << "\n";
  os << "text_length: " << text_.length << "\n";
  os << "alphabet: " << text_.alphabet.symbols() << "\n";
  os << "subtree_count: " << subtrees_.size() << "\n";
  for (const SubTreeEntry& e : subtrees_) {
    os << "subtree: " << e.prefix << " " << e.frequency << " " << e.filename
       << "\n";
  }
  os << "trie: " << HexEncode(trie_.Serialize()) << "\n";
  // Whole-file checksum line (over everything above) + atomic durable
  // publish: a reader either sees a complete, checksum-valid MANIFEST or
  // none at all.
  std::string body = os.str();
  std::ostringstream manifest;
  manifest << body << "crc: " << Crc32c(body.data(), body.size()) << "\n";
  return AtomicallyWriteFile(env, dir + "/MANIFEST", manifest.str());
}

StatusOr<TreeIndex> TreeIndex::Load(Env* env, const std::string& dir) {
  std::string manifest;
  ERA_RETURN_NOT_OK(env->ReadFileToString(dir + "/MANIFEST", &manifest));

  TreeIndex index;
  index.dir_ = dir;
  std::istringstream is(manifest);
  std::string line;
  bool saw_format = false;
  bool saw_crc = false;
  while (std::getline(is, line)) {
    std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    std::string value = line.substr(colon + 2);
    if (key == "crc") {
      // Checksum of every byte before this line (which Save emits last).
      std::size_t line_pos = manifest.rfind("\n" + line);
      std::string body = line_pos == std::string::npos
                             ? std::string()
                             : manifest.substr(0, line_pos + 1);
      char* end = nullptr;
      uint32_t declared =
          static_cast<uint32_t>(std::strtoull(value.c_str(), &end, 10));
      if (end == value.c_str() ||
          Crc32c(body.data(), body.size()) != declared) {
        return Status::Corruption("MANIFEST checksum mismatch in " + dir);
      }
      saw_crc = true;
    } else if (key == "format") {
      if (value != "era-tree-index-v1") {
        return Status::NotSupported("unknown index format: " + value);
      }
      saw_format = true;
    } else if (key == "text_path") {
      index.text_.path = value;
    } else if (key == "text_length") {
      index.text_.length = std::stoull(value);
    } else if (key == "alphabet") {
      ERA_ASSIGN_OR_RETURN(index.text_.alphabet, Alphabet::Create(value));
    } else if (key == "subtree") {
      std::istringstream fields(value);
      SubTreeEntry e;
      if (!(fields >> e.prefix >> e.frequency >> e.filename)) {
        return Status::Corruption("bad subtree manifest line: " + line);
      }
      index.subtrees_.push_back(std::move(e));
    } else if (key == "trie") {
      ERA_ASSIGN_OR_RETURN(std::string blob, HexDecode(value));
      ERA_ASSIGN_OR_RETURN(index.trie_, PrefixTrie::Deserialize(blob));
    }
  }
  if (!saw_format) {
    return Status::Corruption("manifest missing format line in " + dir);
  }
  if (!saw_crc) {
    return Status::Corruption("manifest missing checksum line in " + dir);
  }
  index.dispatch_.Build(index.trie_, index.text_.alphabet.symbols());
  return index;
}

struct TreeIndex::Handle {
  SubTreeLayout layout;
  std::shared_ptr<TileCache> cache;
  /// Block-served files (v2, v3): the registration the views read through.
  std::shared_ptr<const TileFile> file;
  /// Converted legacy (v1) sub-trees: the image, held and charged to the
  /// cache budget for the handle's lifetime.
  std::string image;

  ~Handle() {
    if (file != nullptr) cache->RemoveFile(*file);
    cache->Charge(-static_cast<int64_t>(image.size()));
  }
};

TreeIndex::Cache::Cache(const TreeCacheOptions& opts)
    : options(opts), shards(opts.shards == 0 ? 1 : opts.shards) {
  TileCacheOptions block_options;
  block_options.budget_bytes = std::max<uint64_t>(1, opts.budget_bytes);
  block_options.tile_bytes = kSubTreeBlockBytes;
  block_options.shards = opts.shards == 0 ? 1 : opts.shards;
  block_options.retry = opts.retry;
  // The options are valid by construction (4 KiB power-of-two tiles, a
  // positive budget).
  blocks = std::move(TileCache::Create(block_options)).value();
}

namespace {

/// A wait that ended on another caller's deadline or cancellation (retry it
/// under our own context).
bool IsAbandon(const Status& s) {
  return s.IsDeadlineExceeded() || s.IsCancelled();
}

}  // namespace

StatusOr<std::shared_ptr<const TreeIndex::Handle>> TreeIndex::Attach(
    Env* env, uint32_t id, IoStats* stats, const QueryContext* ctx) const {
  // The device-read boundary: a dead query does not get to start an attach.
  if (ctx != nullptr) ERA_RETURN_NOT_OK(ctx->Check());
  const Cache& cache = *cache_;
  const std::string path = dir_ + "/" + subtrees_[id].filename;
  // Transient device errors are retried; Corruption fails straight through
  // (and is never cached).
  SubTreeImage image;
  uint64_t retries = 0;
  Status load = RunWithRetry(
      cache.options.retry, ctx,
      [&] {
        image = SubTreeImage();
        return ReadSubTreeImage(env, path, &image, stats);
      },
      &retries);
  if (stats != nullptr) stats->read_retries += retries;
  ERA_RETURN_NOT_OK(load);
  if (image.prefix != subtrees_[id].prefix) {
    return Status::Corruption("sub-tree prefix mismatch for id " +
                              std::to_string(id));
  }
  auto handle = std::make_shared<Handle>();
  handle->layout = image.layout;
  handle->cache = cache.blocks;
  if (image.version == 1) {
    // A legacy file's bytes are not the records it is served as.
    handle->image = std::move(image.bytes);
    cache.blocks->Charge(static_cast<int64_t>(handle->image.size()));
    return std::shared_ptr<const Handle>(std::move(handle));
  }
  // The per-block CRC table is taken from the bytes just validated: every
  // later device load of a block must reproduce them.
  const char* bytes = image.bytes.data();
  const uint64_t file_bytes = image.bytes.size() - kSubTreeBlockOverlap;
  const uint64_t blocks =
      (file_bytes + kSubTreeBlockBytes - 1) / kSubTreeBlockBytes;
  auto block_len = [&](uint64_t b) {
    return static_cast<std::size_t>(
        std::min<uint64_t>(kSubTreeBlockBytes + kSubTreeBlockOverlap,
                           file_bytes - b * kSubTreeBlockBytes));
  };
  std::vector<uint32_t> crcs(blocks);
  for (uint64_t b = 0; b < blocks; ++b) {
    crcs[b] = Crc32c(bytes + b * kSubTreeBlockBytes, block_len(b));
  }
  ERA_ASSIGN_OR_RETURN(handle->file,
                       cache.blocks->AddFile(env, path, kSubTreeBlockOverlap,
                                             std::move(crcs)));
  if (handle->file->size != file_bytes) {
    return Status::Corruption("sub-tree file changed while attaching: " +
                              path);
  }
  // Offer what was just read; the cache keeps it only where it has room.
  for (uint64_t b = 0; b < blocks; ++b) {
    cache.blocks->Admit(*handle->file, b, bytes + b * kSubTreeBlockBytes,
                        block_len(b));
  }
  return std::shared_ptr<const Handle>(std::move(handle));
}

StatusOr<std::shared_ptr<const ServedSubTree>> TreeIndex::OpenSubTree(
    Env* env, uint32_t id, IoStats* stats, const QueryContext* ctx) const {
  if (id >= subtrees_.size()) {
    return Status::InvalidArgument("sub-tree id out of range");
  }
  Shard& shard = cache_->shards[id % cache_->shards.size()];
  std::shared_ptr<const Handle> handle;
  while (handle == nullptr) {
    std::promise<StatusOr<std::shared_ptr<const Handle>>> promise;
    std::shared_future<StatusOr<std::shared_ptr<const Handle>>> in_flight;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      auto it = shard.handles.find(id);
      if (it != shard.handles.end()) {
        const TileFile* file = it->second->file.get();
        if (file == nullptr || !file->damaged.load(std::memory_order_relaxed)) {
          ++shard.hits;
          if (stats != nullptr) ++stats->cache_hits;
          handle = it->second;
          break;
        }
        // A block failed its checksum since attach: the file on disk is
        // not the one validated. Re-attach from scratch.
        shard.handles.erase(it);
      }
      auto flight = shard.attaching.find(id);
      if (flight != shard.attaching.end()) {
        in_flight = flight->second;
      } else {
        shard.attaching.emplace(id, promise.get_future().share());
      }
    }
    if (in_flight.valid()) {
      // Single flight: concurrent first opens of an id share one attach.
      if (ctx != nullptr) {
        ERA_RETURN_NOT_OK(ctx->Check());
        if (ctx->has_deadline() && in_flight.wait_until(ctx->deadline) ==
                                       std::future_status::timeout) {
          return ctx->Check();
        }
      }
      const auto& attached = in_flight.get();
      if (!attached.ok() && IsAbandon(attached.status())) continue;
      ERA_RETURN_NOT_OK(attached.status());
      std::lock_guard<std::mutex> lock(shard.mutex);
      ++shard.hits;
      if (stats != nullptr) ++stats->cache_hits;
      handle = *attached;
      break;
    }
    auto attached = Attach(env, id, stats, ctx);
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.attaching.erase(id);
      if (attached.ok()) {
        ++shard.misses;
        if (stats != nullptr) ++stats->cache_misses;
        shard.handles[id] = *attached;
      }
    }
    promise.set_value(attached);
    ERA_RETURN_NOT_OK(attached.status());
    handle = *attached;
  }
  const Handle& h = *handle;
  if (h.file == nullptr) {
    return std::make_shared<const ServedSubTree>(&h.layout, h.image.data(),
                                                 std::move(handle));
  }
  return std::make_shared<const ServedSubTree>(
      &h.layout, h.cache.get(), h.file.get(), std::move(handle), ctx);
}

bool TreeIndex::Attached(uint32_t id) const {
  Shard& shard = cache_->shards[id % cache_->shards.size()];
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.handles.find(id);
  return it != shard.handles.end() &&
         (it->second->file == nullptr ||
          !it->second->file->damaged.load(std::memory_order_relaxed));
}

void TreeIndex::ConfigureCache(const TreeCacheOptions& options) const {
  cache_ = std::make_shared<Cache>(options);
}

void TreeIndex::EvictCache() const {
  for (Shard& shard : cache_->shards) {
    std::unordered_map<uint32_t, std::shared_ptr<const Handle>> dropped;
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      dropped.swap(shard.handles);
    }
    // Handles release their file registrations outside the shard lock.
  }
  cache_->blocks->EvictAll();
}

TreeIndex::CacheSnapshot TreeIndex::CacheStats() const {
  CacheSnapshot snap;
  for (Shard& shard : cache_->shards) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    snap.hits += shard.hits;
    snap.misses += shard.misses;
    snap.resident_trees += shard.handles.size();
  }
  const TileCache::Snapshot blocks = cache_->blocks->stats();
  snap.evictions = blocks.evictions;
  snap.evicted_bytes = blocks.evicted_bytes;
  snap.resident_bytes = blocks.resident_bytes;
  snap.block_hits = blocks.hits;
  snap.block_misses = blocks.misses;
  return snap;
}

uint64_t TreeIndex::TotalSuffixes() const { return trie_.TotalFrequency(0); }

}  // namespace era
