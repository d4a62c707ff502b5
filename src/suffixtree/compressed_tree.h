// Serving form of a sub-tree: one decoder over the file's bytes, wherever
// those bytes live.
//
// Format-v3 payload (after the shared 32-byte file header + prefix bytes):
//
//   [PackedHeader]                 72 bytes, POD, little-endian
//   [bit-packed node records]      node i at bit i * record_bits; fields in
//                                  order edge_start, edge_len, count,
//                                  leaf_ref, children_begin, num_children,
//                                  each in its width-minimal bit width
//                                  (BitWidth of the per-subtree maximum,
//                                  recorded in the header)
//   [leaf restart array]           num_restarts x uint64 byte offsets into
//                                  the leaf stream, one per restart block
//   [leaf stream]                  leaf suffix offsets in SLOT order; blocks
//                                  of leaf_restart_interval values, each
//                                  block an absolute varint followed by
//                                  zigzag-delta varints
//
// Field semantics lean on the canonical counted DFS layout (node.h): the
// strict descendants of node u occupy one contiguous slot range starting at
// children_begin(u), so the leaves under u are exactly the leaf slots with
// slot-order ranks [leaf_ref(u), leaf_ref(u) + count(u)) where
//   leaf_ref(leaf)     = number of leaf slots before it (its slot rank), and
//   leaf_ref(internal) = number of leaf slots before children_begin(u).
// That turns CollectLeaves into a lazy range decode of the leaf stream —
// restart-seek to the first block, stop after `limit` values — and keeps
// Count a pure record read (`count` is the stored subtree leaf count).
// Format-v2 files store fixed 32-byte CountedNode records instead; v1 files
// are converted to the v2 layout when they are read.
//
// Validation and reads:
//   * A file is validated whole exactly once, when it is attached
//     (serializer.h ReadSubTreeImage): its CRC, then every structural check
//     (v3: widths match recorded maxima, the counted-layout sweep, leaf-stream
//     restarts and block structure; v2: ValidateCountedLayout). Attach also
//     records the CRC-32C of every 4 KiB block of the file.
//   * A ServedSubTree then reads the file through one accessor: either the
//     whole validated image held in memory (ReadServedSubTree — tools, the
//     validator, tests), or 4 KiB blocks of the file fetched through the
//     serving TileCache (TreeIndex::OpenSubTree). Each block a cache miss
//     loads from the device is checked against the attach-time CRC table,
//     so a file rewritten after attach fails with Corruption rather than
//     decoding unvalidated bytes.
//   * Hence node(), LeafIdOf(), DecodeLeafRange() and the leaf collectors
//     are fallible: a block load can fail (Corruption, IOError) or be
//     abandoned (DeadlineExceeded, Cancelled). Over an all-resident image
//     they cannot fail.

#ifndef ERA_SUFFIXTREE_COMPRESSED_TREE_H_
#define ERA_SUFFIXTREE_COMPRESSED_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/codec.h"
#include "common/status.h"
#include "io/tile_cache.h"
#include "suffixtree/tree_buffer.h"

namespace era {

struct QueryContext;

/// Blocks a served sub-tree file is cached in, and the overlap tail stored
/// with each block: every record or varint the decoder reads (at most 48
/// bytes) that starts in a block decodes from that block alone.
inline constexpr uint32_t kSubTreeBlockBytes = 4096;
inline constexpr uint32_t kSubTreeBlockOverlap = 64;

/// Fixed per-subtree header at the start of a v3 payload.
struct PackedHeader {
  uint64_t leaf_count = 0;         // leaf slots (== root subtree count)
  uint64_t max_edge_start = 0;     // per-field maxima the widths derive from
  uint64_t max_count = 0;
  uint64_t max_leaf_ref = 0;
  uint64_t leaf_stream_bytes = 0;  // varint leaf stream size in bytes
  uint32_t max_edge_len = 0;
  uint32_t max_children_begin = 0;
  uint32_t max_num_children = 0;
  uint32_t leaf_restart_interval = 0;  // values per restart block
  uint32_t num_restarts = 0;           // == ceil(leaf_count / interval)
  uint8_t w_edge_start = 0;            // bit widths; w_x == BitWidth(max_x)
  uint8_t w_edge_len = 0;
  uint8_t w_count = 0;
  uint8_t w_leaf_ref = 0;
  uint8_t w_children_begin = 0;
  uint8_t w_num_children = 0;
  uint8_t pad[6] = {0, 0, 0, 0, 0, 0};
};

static_assert(sizeof(PackedHeader) == 72, "PackedHeader must stay 72 bytes");

/// Decoded view of one node. Mirrors CountedNode plus the leaf reference;
/// cheap to return by value.
struct NodeView {
  uint64_t edge_start = 0;
  uint64_t count = 0;     // leaves in this node's subtree (1 for a leaf)
  uint64_t leaf_ref = 0;  // v3: see file comment; v2: the leaf's suffix
  uint32_t edge_len = 0;
  uint32_t children_begin = 0;
  uint32_t num_children = 0;

  bool IsLeaf() const { return num_children == 0; }
};

/// Where the records and leaves of one validated sub-tree file sit, by byte
/// offset into the file image.
struct SubTreeLayout {
  bool packed = false;  // v3 records (else v2 32-byte CountedNode records)
  uint32_t node_count = 0;
  uint64_t leaf_count = 0;
  uint64_t image_bytes = 0;  // size of the served image
  uint64_t records_off = 0;
  // v3 only.
  PackedHeader header;
  uint32_t record_bits = 0;  // sum of the six field widths
  uint64_t restarts_off = 0;
  uint64_t leaves_off = 0;
};

class ServedSubTree;

/// Format-v3 codec: encoding, and the attach-time validation of a payload.
class CompressedSubTree {
 public:
  /// Encodes `tree` (canonical counted layout; caller has validated it) into
  /// a v3 payload. Deterministic: same tree, same bytes.
  static std::string EncodePayload(const CountedTree& tree);

  /// Fully validates the v3 payload of `node_count` nodes at
  /// `image[payload_off, payload_off + payload_bytes)`; `image` must be
  /// followed by kSubTreeBlockOverlap readable bytes. Returns Corruption on
  /// any structural or size inconsistency.
  static StatusOr<SubTreeLayout> Validate(const char* image,
                                          uint64_t payload_off,
                                          uint64_t payload_bytes,
                                          uint64_t node_count);

  /// Validates a bare payload and serves it all-resident.
  static StatusOr<ServedSubTree> FromPayload(std::string payload,
                                             uint64_t node_count);
};

/// One request's answer inside a shared leaf buffer: `buffer[offset,
/// offset + count)` are the suffix offsets of the leaves under the
/// requested slot, in slot order.
struct LeafSlice {
  std::size_t offset = 0;
  std::size_t count = 0;
};

/// What the query path walks: a validated v2 or v3 sub-tree behind one
/// NodeView cursor API, read through one byte accessor — an all-resident
/// image or 4 KiB blocks of the file in the serving TileCache (see the
/// file comment). A view is cheap to copy. It caches the block it last
/// read, so one view must not be used by two threads at once; every
/// TreeIndex::OpenSubTree call returns a fresh view.
class ServedSubTree {
 public:
  ServedSubTree() = default;
  /// All-resident: `image` is the whole file image followed by
  /// kSubTreeBlockOverlap readable bytes; `owner` keeps it and `layout`
  /// alive.
  ServedSubTree(const SubTreeLayout* layout, const char* image,
                std::shared_ptr<const void> owner);
  /// Block-backed: blocks of `file` come from `cache`; `owner` keeps the
  /// layout, the cache and the file's registration alive. `ctx` (borrowed,
  /// may be null) bounds every block load and must outlive the view's reads.
  ServedSubTree(const SubTreeLayout* layout, TileCache* cache,
                const TileFile* file, std::shared_ptr<const void> owner,
                const QueryContext* ctx);

  bool compressed() const { return layout_->packed; }
  uint32_t size() const {
    return layout_ == nullptr ? 0 : layout_->node_count;
  }
  uint64_t LeafCount() const { return layout_->leaf_count; }
  /// Bytes of the served image (v3: the packed file; v2: 32 bytes/node) —
  /// what holding the whole sub-tree in memory costs.
  uint64_t MemoryBytes() const { return layout_->image_bytes; }

  /// Decodes node `i` (i < size()).
  StatusOr<NodeView> node(uint32_t i) const;

  /// Suffix offset of leaf `v` (v.IsLeaf() must hold).
  StatusOr<uint64_t> LeafIdOf(const NodeView& v) const {
    return compressed() ? LeafId(v.leaf_ref) : StatusOr<uint64_t>(v.leaf_ref);
  }
  /// v3: suffix offset of the leaf with slot-order rank `rank`.
  StatusOr<uint64_t> LeafId(uint64_t rank) const;

  /// v3: appends the suffix offsets of leaf ranks [rank_begin, rank_begin +
  /// count) to `out`, in slot order, stopping early once `limit` values
  /// have been appended this call. `ctx` (nullable) is checked periodically.
  Status DecodeLeafRange(uint64_t rank_begin, uint64_t count,
                         const QueryContext* ctx, std::size_t limit,
                         std::vector<uint64_t>* out) const;

  /// Appends the suffix offsets of all leaves under slot `slot` to `out`
  /// (slot order), stopping after `limit` appended values. `ctx` nullable.
  Status CollectLeaves(uint32_t slot, const QueryContext* ctx,
                       std::size_t limit, std::vector<uint64_t>* out) const;

  /// Batched leaf enumeration: resolves every slot in `slots` in ONE pass
  /// over the tree's leaf storage instead of one CollectLeaves per slot.
  /// Appends leaves to `buffer` and fills `slices` (index-aligned with
  /// `slots`; offsets are absolute indices into `buffer`). Exploits the
  /// laminar-family property of match loci — two slots' leaf ranges are
  /// nested or disjoint, never partially overlapping — so nested requests
  /// alias one decoded run (v3: merged restart-block decodes; v2: one
  /// forward descendant scan per maximal run, skipping the gaps between
  /// disjoint requests). Duplicate slots are fine and share a slice.
  /// `ctx` (nullable) is checked periodically.
  Status CollectLeafSlices(const std::vector<uint32_t>& slots,
                           const QueryContext* ctx,
                           std::vector<uint64_t>* buffer,
                           std::vector<LeafSlice>* slices) const;

  /// Exact reconstruction of the counted form (byte-identical nodes). Used
  /// by consumers that need CountedNode — the validator, v3→v2 conversion.
  StatusOr<CountedTree> Inflate() const;

 private:
  friend class CompressedSubTree;  // Validate reads through the accessor

  /// The one byte accessor: a pointer to image offset `off` and, in
  /// `*avail`, how many bytes from it are readable without another fetch.
  /// Null, with `*error` set, when a block load fails.
  const char* Span(uint64_t off, uint64_t* avail, Status* error) const {
    if (image_ != nullptr) {
      *avail = layout_->image_bytes + kSubTreeBlockOverlap - off;
      return image_ + off;
    }
    return BlockSpan(off, avail, error);
  }
  const char* BlockSpan(uint64_t off, uint64_t* avail, Status* error) const;
  /// `n` (<= kSubTreeBlockOverlap) readable bytes at `off`, zero-padded past
  /// end-of-file; valid until the next read on this view.
  StatusOr<const char*> Bytes(uint64_t off, uint32_t n) const;
  StatusOr<uint64_t> Restart(uint64_t block) const;
  /// Sequential varint reader over the v3 leaf stream.
  class LeafReader;

  /// A recently read block, kept pinned: a descent revisits a handful of
  /// blocks, and a pinned one costs no cache lookup.
  struct Pin {
    uint64_t index = ~0ull;
    std::shared_ptr<const CachedTile> block;
  };
  static constexpr std::size_t kPins = 8;

  const SubTreeLayout* layout_ = nullptr;
  const char* image_ = nullptr;  // all-resident case
  TileCache* cache_ = nullptr;   // block-backed case
  const TileFile* file_ = nullptr;
  std::shared_ptr<const void> owner_;
  const QueryContext* ctx_ = nullptr;
  mutable Pin pins_[kPins];
  mutable std::size_t next_pin_ = 0;
  /// Reads that run into end-of-file are copied here, zero-padded.
  mutable char tail_[kSubTreeBlockOverlap];
};

}  // namespace era

#endif  // ERA_SUFFIXTREE_COMPRESSED_TREE_H_
