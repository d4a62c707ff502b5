#include "suffixtree/compressed_tree.h"

#include <algorithm>
#include <cstring>

#include "common/query_context.h"

namespace era {

namespace {

/// Leaf-stream restart block size: one absolute varint every this many
/// values. 64 keeps a bounded-Locate seek to at most 63 skipped varints
/// while costing one uint64 restart slot per 64 leaves.
constexpr uint32_t kLeafRestartInterval = 64;

/// Cancellation/deadline poll period inside decode loops.
constexpr uint64_t kCtxCheckStride = 4096;

/// Longest single read the decoders make: a v3 record's fields touch at
/// most 45 bytes from the record's first byte (288 bits of fields plus the
/// BitReader's 9-byte word window); v2 records are 32 bytes, restarts 8 and
/// varints at most 10.
constexpr uint32_t kMaxRead = 48;
static_assert(kMaxRead <= kSubTreeBlockOverlap,
              "a read must fit in one block's overlap tail");

/// Decodes the v3 record whose first bit is bit `shift` of `p` (which has
/// kMaxRead readable bytes).
NodeView DecodePackedRecord(const char* p, uint64_t shift,
                            const PackedHeader& h) {
  const BitReader records(p, kMaxRead);
  uint64_t bit = shift;
  NodeView v;
  v.edge_start = records.Get(bit, h.w_edge_start);
  bit += h.w_edge_start;
  v.edge_len = static_cast<uint32_t>(records.Get(bit, h.w_edge_len));
  bit += h.w_edge_len;
  v.count = records.Get(bit, h.w_count);
  bit += h.w_count;
  v.leaf_ref = records.Get(bit, h.w_leaf_ref);
  bit += h.w_leaf_ref;
  v.children_begin =
      static_cast<uint32_t>(records.Get(bit, h.w_children_begin));
  bit += h.w_children_begin;
  v.num_children = static_cast<uint32_t>(records.Get(bit, h.w_num_children));
  return v;
}

/// The leaf-slot rank bookkeeping of a v3 node, as a NodeView of a v2 node
/// reports it: v2 leaves carry their suffix directly.
NodeView FromCounted(const CountedNode& u) {
  NodeView v;
  v.edge_start = u.edge_start;
  v.edge_len = u.edge_len;
  v.count = u.LeafCount();
  v.leaf_ref = u.IsLeaf() ? u.leaf_id() : 0;
  v.children_begin = u.children_begin;
  v.num_children = u.num_children;
  return v;
}

}  // namespace

std::string CompressedSubTree::EncodePayload(const CountedTree& tree) {
  const uint32_t n = tree.size();
  PackedHeader h;
  h.leaf_restart_interval = kLeafRestartInterval;

  // Pass 1: per-field maxima, leaf ranks, and the leaf-id stream source.
  std::vector<uint64_t> leaf_prefix(n + 1, 0);  // leaf slots before slot i
  std::vector<uint64_t> leaves_by_rank;
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    leaf_prefix[i + 1] = leaf_prefix[i] + (u.IsLeaf() ? 1 : 0);
    if (u.IsLeaf()) leaves_by_rank.push_back(u.leaf_id());
    if (u.edge_start > h.max_edge_start) h.max_edge_start = u.edge_start;
    if (u.edge_len > h.max_edge_len) h.max_edge_len = u.edge_len;
    if (u.LeafCount() > h.max_count) h.max_count = u.LeafCount();
    if (u.children_begin > h.max_children_begin) {
      h.max_children_begin = u.children_begin;
    }
    if (u.num_children > h.max_num_children) {
      h.max_num_children = u.num_children;
    }
  }
  h.leaf_count = leaf_prefix[n];
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    const uint64_t ref =
        u.IsLeaf() ? leaf_prefix[i] : leaf_prefix[u.children_begin];
    if (ref > h.max_leaf_ref) h.max_leaf_ref = ref;
  }
  h.w_edge_start = static_cast<uint8_t>(BitWidth(h.max_edge_start));
  h.w_edge_len = static_cast<uint8_t>(BitWidth(h.max_edge_len));
  h.w_count = static_cast<uint8_t>(BitWidth(h.max_count));
  h.w_leaf_ref = static_cast<uint8_t>(BitWidth(h.max_leaf_ref));
  h.w_children_begin = static_cast<uint8_t>(BitWidth(h.max_children_begin));
  h.w_num_children = static_cast<uint8_t>(BitWidth(h.max_num_children));

  // Pass 2: bit-pack the records.
  BitWriter records;
  for (uint32_t i = 0; i < n; ++i) {
    const CountedNode& u = tree.node(i);
    const uint64_t ref =
        u.IsLeaf() ? leaf_prefix[i] : leaf_prefix[u.children_begin];
    records.Put(u.edge_start, h.w_edge_start);
    records.Put(u.edge_len, h.w_edge_len);
    records.Put(u.LeafCount(), h.w_count);
    records.Put(ref, h.w_leaf_ref);
    records.Put(u.children_begin, h.w_children_begin);
    records.Put(u.num_children, h.w_num_children);
  }
  records.Finish();

  // Pass 3: restart array + delta/varint leaf stream in slot order.
  std::string leaf_stream;
  std::vector<uint64_t> restarts;
  uint64_t prev = 0;
  for (uint64_t r = 0; r < leaves_by_rank.size(); ++r) {
    const uint64_t v = leaves_by_rank[r];
    if (r % kLeafRestartInterval == 0) {
      restarts.push_back(leaf_stream.size());
      PutVarint64(&leaf_stream, v);
    } else {
      PutVarint64(&leaf_stream,
                  ZigZagEncode(static_cast<int64_t>(v - prev)));
    }
    prev = v;
  }
  h.num_restarts = static_cast<uint32_t>(restarts.size());
  h.leaf_stream_bytes = leaf_stream.size();

  std::string payload;
  payload.reserve(sizeof(PackedHeader) + records.bytes().size() +
                  restarts.size() * sizeof(uint64_t) + leaf_stream.size());
  payload.append(reinterpret_cast<const char*>(&h), sizeof(h));
  payload.append(records.bytes());
  for (uint64_t off : restarts) {
    payload.append(reinterpret_cast<const char*>(&off), sizeof(off));
  }
  payload.append(leaf_stream);
  return payload;
}

class ServedSubTree::LeafReader {
 public:
  LeafReader(const ServedSubTree& tree, uint64_t pos)
      : tree_(tree),
        stream_bytes_(tree.layout_->header.leaf_stream_bytes),
        pos_(pos) {}

  uint64_t pos() const { return pos_; }
  /// Why the last Next() returned false.
  const Status& status() const { return status_; }

  /// Decodes the next varint; false (see status()) on a failed block read
  /// or a malformed stream. Inlined fast path: the varint is in hand.
  [[gnu::always_inline]] bool Next(uint64_t* raw) {
    if (pos_ + kMaxVarint <= limit_) {
      std::size_t at = pos_;
      if (GetVarint64(window_, limit_, &at, raw)) {
        pos_ = at;
        return true;
      }
      return Malformed();
    }
    return NextSlow(raw);
  }

 private:
  static constexpr uint64_t kMaxVarint = 10;

  bool NextSlow(uint64_t* raw) {
    if (pos_ >= stream_bytes_) return Malformed();
    // Refetch when the next varint could run past the bytes in hand.
    if (limit_ < stream_bytes_) {
      uint64_t avail = 0;
      const char* p =
          tree_.Span(tree_.layout_->leaves_off + pos_, &avail, &status_);
      if (p == nullptr) return false;
      window_ = p - pos_;  // indexed by stream position
      limit_ = std::min(pos_ + avail, stream_bytes_);
    }
    std::size_t at = pos_;
    if (!GetVarint64(window_, limit_, &at, raw)) return Malformed();
    pos_ = at;
    return true;
  }

  bool Malformed() {
    status_ = Status::Corruption("truncated or malformed leaf stream varint");
    return false;
  }

  const ServedSubTree& tree_;
  const uint64_t stream_bytes_;
  uint64_t pos_;
  const char* window_ = nullptr;
  uint64_t limit_ = 0;  // stream bytes readable through window_
  Status status_;
};

StatusOr<SubTreeLayout> CompressedSubTree::Validate(const char* image,
                                                    uint64_t payload_off,
                                                    uint64_t payload_bytes,
                                                    uint64_t node_count) {
  if (payload_bytes < sizeof(PackedHeader)) {
    return Status::Corruption("packed subtree payload shorter than header");
  }
  PackedHeader h;
  std::memcpy(&h, image + payload_off, sizeof(h));

  if (node_count == 0 || node_count > 0xFFFFFFFFull) {
    return Status::Corruption("packed subtree node count out of range");
  }
  if (h.leaf_count == 0 || h.leaf_count > node_count) {
    return Status::Corruption("packed subtree leaf count out of range");
  }
  if (h.w_edge_start > 64 || h.w_count > 64 || h.w_leaf_ref > 64 ||
      h.w_edge_len > 32 || h.w_children_begin > 32 || h.w_num_children > 32) {
    return Status::Corruption("packed field width exceeds field size");
  }
  // The width rule is part of the format: widths must be exactly minimal for
  // the recorded maxima (and the maxima themselves are re-derived below).
  if (h.w_edge_start != BitWidth(h.max_edge_start) ||
      h.w_edge_len != BitWidth(h.max_edge_len) ||
      h.w_count != BitWidth(h.max_count) ||
      h.w_leaf_ref != BitWidth(h.max_leaf_ref) ||
      h.w_children_begin != BitWidth(h.max_children_begin) ||
      h.w_num_children != BitWidth(h.max_num_children)) {
    return Status::Corruption("packed field width is not width-minimal");
  }
  if (h.leaf_restart_interval == 0 ||
      h.leaf_restart_interval > (1u << 20)) {
    return Status::Corruption("packed leaf restart interval out of range");
  }
  const uint64_t expected_restarts =
      (h.leaf_count + h.leaf_restart_interval - 1) / h.leaf_restart_interval;
  if (h.num_restarts != expected_restarts) {
    return Status::Corruption("packed restart count mismatch");
  }

  const uint32_t record_bits = h.w_edge_start + h.w_edge_len + h.w_count +
                               h.w_leaf_ref + h.w_children_begin +
                               h.w_num_children;
  const uint64_t record_bytes = (node_count * record_bits + 7) / 8;
  const uint64_t expected_size = sizeof(PackedHeader) + record_bytes +
                                 h.num_restarts * sizeof(uint64_t) +
                                 h.leaf_stream_bytes;
  if (payload_bytes != expected_size) {
    return Status::Corruption("packed subtree payload size mismatch");
  }

  SubTreeLayout layout;
  layout.packed = true;
  layout.node_count = static_cast<uint32_t>(node_count);
  layout.leaf_count = h.leaf_count;
  layout.image_bytes = payload_off + payload_bytes;
  layout.records_off = payload_off + sizeof(PackedHeader);
  layout.header = h;
  layout.record_bits = record_bits;
  layout.restarts_off = layout.records_off + record_bytes;
  layout.leaves_off = layout.restarts_off + h.num_restarts * sizeof(uint64_t);
  // Every check below reads through the same decoder the serving path uses.
  const ServedSubTree tree(&layout, image, nullptr);

  // Structural pass 1 (forward): field ranges, leaf ranks, recorded maxima.
  const uint32_t n = layout.node_count;
  std::vector<NodeView> nodes(n);
  std::vector<uint64_t> leaf_prefix(n + 1, 0);
  PackedHeader actual;  // re-derived maxima
  uint64_t leaf_rank = 0;
  for (uint32_t i = 0; i < n; ++i) {
    // The image is resident: decode in place rather than through the
    // fallible accessor (same decoder).
    const uint64_t bit0 = static_cast<uint64_t>(i) * record_bits;
    const NodeView v = DecodePackedRecord(
        image + layout.records_off + bit0 / 8, bit0 % 8, h);
    nodes[i] = v;
    leaf_prefix[i + 1] = leaf_prefix[i] + (v.IsLeaf() ? 1 : 0);
    if (v.IsLeaf()) {
      if (v.count != 1) {
        return Status::Corruption("packed leaf stores a subtree count != 1");
      }
      if (v.leaf_ref != leaf_rank) {
        return Status::Corruption("packed leaf rank out of sequence");
      }
      ++leaf_rank;
    } else {
      if (v.children_begin <= i || v.children_begin > n ||
          n - v.children_begin < v.num_children) {
        return Status::Corruption("counted child block out of bounds");
      }
      if (v.count == 0) {
        return Status::Corruption("packed internal node with zero count");
      }
    }
    actual.max_edge_start = std::max(actual.max_edge_start, v.edge_start);
    actual.max_edge_len = std::max(actual.max_edge_len, v.edge_len);
    actual.max_count = std::max(actual.max_count, v.count);
    actual.max_leaf_ref = std::max(actual.max_leaf_ref, v.leaf_ref);
    actual.max_children_begin =
        std::max(actual.max_children_begin, v.children_begin);
    actual.max_num_children =
        std::max(actual.max_num_children, v.num_children);
  }
  if (leaf_rank != h.leaf_count) {
    return Status::Corruption("packed leaf count does not match leaf slots");
  }
  if (actual.max_edge_start != h.max_edge_start ||
      actual.max_edge_len != h.max_edge_len ||
      actual.max_count != h.max_count ||
      actual.max_leaf_ref != h.max_leaf_ref ||
      actual.max_children_begin != h.max_children_begin ||
      actual.max_num_children != h.max_num_children) {
    return Status::Corruption("packed field maxima do not match records");
  }
  if (nodes[0].edge_len != 0) {
    return Status::Corruption("counted root has an incoming edge");
  }
  for (uint32_t i = 0; i < n; ++i) {
    const NodeView& v = nodes[i];
    if (!v.IsLeaf() && v.leaf_ref != leaf_prefix[v.children_begin]) {
      return Status::Corruption("packed leaf reference is inconsistent");
    }
  }

  // Structural pass 2 (reverse): the canonical counted DFS layout — same
  // sweep as ValidateCountedLayout, over the packed records.
  std::vector<uint64_t> span(n);
  for (uint64_t i = n; i-- > 0;) {
    const NodeView& u = nodes[i];
    if (u.IsLeaf()) {
      span[i] = 1;
      continue;
    }
    uint64_t subtree_nodes = 1;
    uint64_t leaves = 0;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      subtree_nodes += span[u.children_begin + c];
      leaves += nodes[u.children_begin + c].count;
    }
    if (leaves != u.count) {
      return Status::Corruption("inconsistent subtree leaf count");
    }
    span[i] = subtree_nodes;
    uint64_t next = u.children_begin + u.num_children;
    for (uint32_t c = 0; c < u.num_children; ++c) {
      const NodeView& child = nodes[u.children_begin + c];
      if (child.IsLeaf()) continue;
      if (child.children_begin != next) {
        return Status::Corruption("descendant blocks are not contiguous");
      }
      next += span[u.children_begin + c] - 1;
    }
  }
  if (span[0] != n) {
    return Status::Corruption("unreachable nodes in counted tree");
  }

  // Leaf-stream pass: decode exactly leaf_count values, checking every
  // restart offset against the actual block boundary and consuming the
  // stream exactly.
  ServedSubTree::LeafReader reader(tree, 0);
  for (uint64_t r = 0; r < h.leaf_count; ++r) {
    if (r % h.leaf_restart_interval == 0) {
      ERA_ASSIGN_OR_RETURN(const uint64_t restart,
                           tree.Restart(r / h.leaf_restart_interval));
      if (restart != reader.pos()) {
        return Status::Corruption("leaf stream restart offset mismatch");
      }
    }
    uint64_t raw;
    if (!reader.Next(&raw)) return reader.status();
  }
  if (reader.pos() != h.leaf_stream_bytes) {
    return Status::Corruption("trailing bytes in leaf stream");
  }
  return layout;
}

StatusOr<ServedSubTree> CompressedSubTree::FromPayload(std::string payload,
                                                       uint64_t node_count) {
  struct Resident {
    std::string image;
    SubTreeLayout layout;
  };
  auto resident = std::make_shared<Resident>();
  resident->image = std::move(payload);
  const uint64_t payload_bytes = resident->image.size();
  resident->image.append(kSubTreeBlockOverlap, '\0');
  ERA_ASSIGN_OR_RETURN(
      resident->layout,
      Validate(resident->image.data(), 0, payload_bytes, node_count));
  const SubTreeLayout* layout = &resident->layout;
  const char* image = resident->image.data();
  return ServedSubTree(layout, image, std::move(resident));
}

ServedSubTree::ServedSubTree(const SubTreeLayout* layout, const char* image,
                             std::shared_ptr<const void> owner)
    : layout_(layout), image_(image), owner_(std::move(owner)) {}

ServedSubTree::ServedSubTree(const SubTreeLayout* layout, TileCache* cache,
                             const TileFile* file,
                             std::shared_ptr<const void> owner,
                             const QueryContext* ctx)
    : layout_(layout),
      cache_(cache),
      file_(file),
      owner_(std::move(owner)),
      ctx_(ctx) {}

const char* ServedSubTree::BlockSpan(uint64_t off, uint64_t* avail,
                                     Status* error) const {
  const uint64_t index = off / kSubTreeBlockBytes;
  const CachedTile* block = nullptr;
  for (const Pin& pin : pins_) {
    if (pin.index == index) {
      block = pin.block.get();
      break;
    }
  }
  if (block == nullptr) {
    Pin& pin = pins_[next_pin_];
    next_pin_ = (next_pin_ + 1) % kPins;
    pin.index = ~0ull;
    auto loaded = cache_->GetTile(*file_, index, ctx_);
    if (!loaded.ok()) {
      *error = loaded.status();
      return nullptr;
    }
    pin.block = std::move(loaded).value();
    pin.index = index;
    block = pin.block.get();
  }
  const uint64_t in_block = off - index * kSubTreeBlockBytes;
  *avail = block->data.size() > in_block ? block->data.size() - in_block : 0;
  return block->data.data() + in_block;
}

StatusOr<const char*> ServedSubTree::Bytes(uint64_t off, uint32_t n) const {
  uint64_t avail = 0;
  Status error;
  const char* p = Span(off, &avail, &error);
  if (p == nullptr) return error;
  if (avail >= n) return p;
  // The last block ends at end-of-file: serve the read zero-padded, as the
  // all-resident image is.
  std::memset(tail_, 0, sizeof(tail_));
  std::memcpy(tail_, p, avail);
  return static_cast<const char*>(tail_);
}


StatusOr<NodeView> ServedSubTree::node(uint32_t i) const {
  const SubTreeLayout& l = *layout_;
  if (!l.packed) {
    ERA_ASSIGN_OR_RETURN(
        const char* p,
        Bytes(l.records_off + static_cast<uint64_t>(i) * sizeof(CountedNode),
              sizeof(CountedNode)));
    CountedNode u;
    std::memcpy(&u, p, sizeof(u));
    return FromCounted(u);
  }
  const uint64_t bit0 = static_cast<uint64_t>(i) * l.record_bits;
  ERA_ASSIGN_OR_RETURN(const char* p, Bytes(l.records_off + bit0 / 8, kMaxRead));
  return DecodePackedRecord(p, bit0 % 8, l.header);
}

StatusOr<uint64_t> ServedSubTree::Restart(uint64_t block) const {
  ERA_ASSIGN_OR_RETURN(
      const char* p,
      Bytes(layout_->restarts_off + block * sizeof(uint64_t),
            sizeof(uint64_t)));
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

StatusOr<uint64_t> ServedSubTree::LeafId(uint64_t rank) const {
  const uint32_t interval = layout_->header.leaf_restart_interval;
  const uint64_t block = rank / interval;
  ERA_ASSIGN_OR_RETURN(const uint64_t pos, Restart(block));
  LeafReader reader(*this, pos);
  uint64_t v = 0;
  if (!reader.Next(&v)) return reader.status();
  for (uint64_t r = block * interval; r < rank; ++r) {
    uint64_t raw = 0;
    if (!reader.Next(&raw)) return reader.status();
    v = static_cast<uint64_t>(static_cast<int64_t>(v) + ZigZagDecode(raw));
  }
  return v;
}

Status ServedSubTree::DecodeLeafRange(uint64_t rank_begin, uint64_t count,
                                      const QueryContext* ctx,
                                      std::size_t limit,
                                      std::vector<uint64_t>* out) const {
  if (count == 0 || limit == 0) return Status::OK();
  const uint64_t rank_end = rank_begin + count;
  const uint32_t interval = layout_->header.leaf_restart_interval;
  const uint64_t first_block = rank_begin / interval;
  ERA_ASSIGN_OR_RETURN(const uint64_t pos, Restart(first_block));
  LeafReader reader(*this, pos);
  uint64_t v = 0;
  std::size_t appended = 0;
  for (uint64_t r = first_block * interval; r < rank_end; ++r) {
    uint64_t raw = 0;
    if (!reader.Next(&raw)) return reader.status();
    if (r % interval == 0) {
      v = raw;  // block-leading absolute value
    } else {
      v = static_cast<uint64_t>(static_cast<int64_t>(v) + ZigZagDecode(raw));
    }
    if (r >= rank_begin) {
      out->push_back(v);
      if (++appended >= limit) break;
    }
    if (ctx != nullptr && (r % kCtxCheckStride) == kCtxCheckStride - 1) {
      ERA_RETURN_NOT_OK(ctx->Check());
    }
  }
  return Status::OK();
}

StatusOr<CountedTree> ServedSubTree::Inflate() const {
  std::vector<uint64_t> leaves;
  if (compressed()) {
    leaves.reserve(layout_->leaf_count);
    ERA_RETURN_NOT_OK(DecodeLeafRange(0, layout_->leaf_count, nullptr,
                                      static_cast<std::size_t>(-1), &leaves));
  }
  CountedTree out;
  out.mutable_nodes().resize(size());
  for (uint32_t i = 0; i < size(); ++i) {
    ERA_ASSIGN_OR_RETURN(const NodeView v, node(i));
    CountedNode& dst = out.mutable_nodes()[i];
    dst.edge_start = v.edge_start;
    dst.edge_len = v.edge_len;
    dst.children_begin = v.children_begin;
    dst.num_children = v.num_children;
    dst.reserved = 0;
    if (!v.IsLeaf()) {
      dst.leaf_or_count = v.count;
    } else {
      dst.leaf_or_count = compressed() ? leaves[v.leaf_ref] : v.leaf_ref;
    }
  }
  return out;
}

Status ServedSubTree::CollectLeaves(uint32_t slot, const QueryContext* ctx,
                                    std::size_t limit,
                                    std::vector<uint64_t>* out) const {
  if (limit == 0) return Status::OK();
  ERA_ASSIGN_OR_RETURN(const NodeView u, node(slot));
  if (compressed()) {
    return DecodeLeafRange(u.leaf_ref, u.count, ctx, limit, out);
  }
  if (u.IsLeaf()) {
    out->push_back(u.leaf_ref);
    return Status::OK();
  }
  // Canonical layout: the strict descendants of `slot` are one contiguous
  // slot range starting at children_begin, so scan forward until the
  // subtree's leaves are exhausted.
  uint64_t remaining = u.count;
  std::size_t appended = 0;
  for (uint32_t i = u.children_begin; remaining > 0 && i < size(); ++i) {
    if (ctx != nullptr && (i % kCtxCheckStride) == 0) {
      ERA_RETURN_NOT_OK(ctx->Check());
    }
    ERA_ASSIGN_OR_RETURN(const NodeView c, node(i));
    if (c.IsLeaf()) {
      out->push_back(c.leaf_ref);
      --remaining;
      if (++appended >= limit) break;
    }
  }
  return Status::OK();
}

Status ServedSubTree::CollectLeafSlices(const std::vector<uint32_t>& slots,
                                        const QueryContext* ctx,
                                        std::vector<uint64_t>* buffer,
                                        std::vector<LeafSlice>* slices) const {
  slices->assign(slots.size(), LeafSlice{});
  if (slots.empty()) return Status::OK();

  if (compressed()) {
    // v3: each slot's leaves are the contiguous leaf-rank range
    // [leaf_ref, leaf_ref + count). Laminar ranges sorted by start are
    // either nested in the previous maximal run or start at/after its end,
    // so one DecodeLeafRange per maximal run covers everything and nested
    // requests alias into the run's decoded span.
    struct Req {
      uint64_t begin = 0;
      uint64_t count = 0;
      std::size_t idx = 0;
    };
    std::vector<Req> reqs(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      ERA_ASSIGN_OR_RETURN(const NodeView v, node(slots[i]));
      reqs[i] = Req{v.leaf_ref, v.count, i};
    }
    std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
      if (a.begin != b.begin) return a.begin < b.begin;
      return a.count > b.count;  // outermost first on shared starts
    });
    uint64_t run_begin = 0;
    uint64_t run_end = 0;  // empty run sentinel: nothing nests in [0, 0)
    std::size_t run_base = 0;
    for (const Req& req : reqs) {
      const bool nested = run_end > run_begin && req.begin >= run_begin &&
                          req.begin + req.count <= run_end;
      if (!nested) {
        run_begin = req.begin;
        run_end = req.begin + req.count;
        run_base = buffer->size();
        ERA_RETURN_NOT_OK(DecodeLeafRange(req.begin, req.count, ctx,
                                          static_cast<std::size_t>(-1),
                                          buffer));
      }
      (*slices)[req.idx] =
          LeafSlice{run_base + static_cast<std::size_t>(req.begin - run_begin),
                    static_cast<std::size_t>(req.count)};
    }
    return Status::OK();
  }

  // Counted layout: a request's leaves are found by scanning forward from
  // scan_begin (children_begin for internal nodes, the slot itself for a
  // leaf) until its leaf budget is met. Requests sorted by scan_begin are
  // activated as one merged forward scan reaches them — a nested request's
  // leaves are a contiguous subrange of its ancestor's emission — and the
  // scan jumps over the gap between disjoint requests instead of walking it.
  struct Req {
    uint32_t scan_begin = 0;
    uint64_t budget = 0;
    std::size_t idx = 0;
  };
  std::vector<Req> reqs(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    ERA_ASSIGN_OR_RETURN(const NodeView u, node(slots[i]));
    reqs[i] = u.IsLeaf() ? Req{slots[i], 1, i}
                         : Req{u.children_begin, u.count, i};
  }
  std::sort(reqs.begin(), reqs.end(), [](const Req& a, const Req& b) {
    if (a.scan_begin != b.scan_begin) return a.scan_begin < b.scan_begin;
    return a.budget > b.budget;  // outermost first on shared starts
  });
  std::size_t r = 0;
  uint64_t steps = 0;
  while (r < reqs.size()) {
    uint32_t pos = reqs[r].scan_begin;  // new maximal run starts here
    std::size_t need_end = buffer->size();
    while (true) {
      while (r < reqs.size() && reqs[r].scan_begin == pos) {
        (*slices)[reqs[r].idx] =
            LeafSlice{buffer->size(), static_cast<std::size_t>(reqs[r].budget)};
        const std::size_t end = buffer->size() +
                                static_cast<std::size_t>(reqs[r].budget);
        need_end = std::max(need_end, end);
        ++r;
      }
      if (buffer->size() >= need_end) break;  // run satisfied; skip the gap
      if (pos >= size()) {
        return Status::Corruption("leaf slices exceed sub-tree");
      }
      if (ctx != nullptr && (steps++ % kCtxCheckStride) == 0) {
        ERA_RETURN_NOT_OK(ctx->Check());
      }
      ERA_ASSIGN_OR_RETURN(const NodeView c, node(pos));
      if (c.IsLeaf()) buffer->push_back(c.leaf_ref);
      ++pos;
    }
  }
  return Status::OK();
}

}  // namespace era
