#include "suffixtree/serializer.h"

#include <cstring>
#include <vector>

#include "common/codec.h"
#include "common/crc32.h"

namespace era {

namespace {

constexpr char kMagic[8] = {'E', 'R', 'A', 'S', 'U', 'B', 'T', 'R'};
constexpr uint32_t kVersionLinked = 1;
constexpr uint32_t kVersionCounted = 2;
constexpr uint32_t kVersionPacked = 3;

struct Header {
  char magic[8];
  uint32_t version;
  uint32_t prefix_len;
  uint64_t node_count;
  uint32_t crc;
  uint32_t reserved;
};
static_assert(sizeof(Header) == 32, "keep the header fixed-size");

/// v1 checksums with IEEE CRC-32 (what legacy files carry); v2/v3 with the
/// hardware-dispatched CRC-32C.
uint32_t PayloadCrc(uint32_t version, const std::string& prefix,
                    const void* payload, std::size_t payload_bytes) {
  if (version == kVersionLinked) {
    return Crc32(payload, payload_bytes, Crc32(prefix.data(), prefix.size()));
  }
  return Crc32c(payload, payload_bytes, Crc32c(prefix.data(), prefix.size()));
}

Status WritePayload(Env* env, const std::string& path,
                    const std::string& prefix, uint32_t version,
                    const void* payload, uint64_t node_count,
                    std::size_t payload_bytes, IoStats* stats,
                    uint32_t* file_crc) {
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = version;
  header.prefix_len = static_cast<uint32_t>(prefix.size());
  header.node_count = node_count;
  header.reserved = 0;
  header.crc = PayloadCrc(version, prefix, payload, payload_bytes);

  // Atomic + durable: stream into <path>.tmp, Sync, rename. A crash leaves
  // either no file or the complete file, never a torn sub-tree a serving
  // TreeIndex could open.
  ERA_ASSIGN_OR_RETURN(AtomicFileWriter writer,
                       AtomicFileWriter::Open(env, path));
  ERA_RETURN_NOT_OK(writer.Append(reinterpret_cast<const char*>(&header),
                                  sizeof(header)));
  ERA_RETURN_NOT_OK(writer.Append(prefix.data(), prefix.size()));
  ERA_RETURN_NOT_OK(
      writer.Append(static_cast<const char*>(payload), payload_bytes));
  ERA_RETURN_NOT_OK(writer.Commit());
  if (file_crc != nullptr) *file_crc = writer.crc32c();
  if (stats != nullptr) {
    stats->bytes_written += sizeof(header) + prefix.size() + payload_bytes;
  }
  return Status::OK();
}

/// Reads the whole file at `path` into `image` and validates what every
/// version shares: magic, version, prefix bounds, the payload's size and CRC
/// and a non-empty node count. `*payload_off`/`*payload_bytes` locate the
/// payload in the image. `file_out` (optional) keeps the opened file.
Status ReadFileImage(Env* env, const std::string& path, std::string* image,
                     Header* header, uint64_t* payload_off,
                     uint64_t* payload_bytes, std::string* prefix_out,
                     IoStats* stats,
                     std::unique_ptr<RandomAccessFile>* file_out) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  const uint64_t file_size = file->Size();
  image->resize(file_size);
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(0, file_size, image->data(), &got));
  image->resize(got);
  if (got < sizeof(*header) ||
      std::memcmp(image->data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  std::memcpy(header, image->data(), sizeof(*header));
  if (header->version != kVersionLinked &&
      header->version != kVersionCounted &&
      header->version != kVersionPacked) {
    return Status::NotSupported("unsupported sub-tree version in " + path);
  }
  if (sizeof(*header) + header->prefix_len > got) {
    return Status::Corruption("truncated prefix in " + path);
  }
  const std::string prefix(image->data() + sizeof(*header),
                           header->prefix_len);
  *payload_off = sizeof(*header) + prefix.size();
  if (header->version == kVersionPacked) {
    // v3 payload size is whatever follows the prefix; the packed decoder
    // cross-checks it against the node count and recorded section sizes.
    *payload_bytes = got - *payload_off;
  } else {
    static_assert(sizeof(TreeNode) == sizeof(CountedNode),
                  "both node formats are 32 bytes");
    // Guard the size arithmetic against a corrupt count before trusting it.
    if (header->node_count > got / sizeof(TreeNode) ||
        *payload_off + header->node_count * sizeof(TreeNode) > got) {
      return Status::Corruption("truncated node array in " + path);
    }
    *payload_bytes = header->node_count * sizeof(TreeNode);
  }
  const uint32_t crc = PayloadCrc(header->version, prefix,
                                  image->data() + *payload_off,
                                  *payload_bytes);
  if (crc != header->crc) {
    return Status::Corruption("CRC mismatch in " + path);
  }
  if (header->node_count == 0) {
    return Status::Corruption("empty sub-tree in " + path);
  }
  if (prefix_out != nullptr) *prefix_out = prefix;
  if (stats != nullptr) {
    stats->bytes_read += *payload_off + *payload_bytes;
    ++stats->seeks;  // sub-tree loads are random accesses
  }
  if (file_out != nullptr) *file_out = std::move(file);
  return Status::OK();
}

/// Reads header + prefix + payload (validating magic, version, CRC and a
/// non-empty node count). Exactly one of `v1_nodes`/`v2_nodes`/`v3_payload`
/// is filled, selected by the version on disk; `*version_out` reports which.
/// The v3 payload is the raw byte string (decoded and structure-checked by
/// CompressedSubTree::FromPayload).
Status ReadPayload(Env* env, const std::string& path,
                   std::vector<TreeNode>* v1_nodes,
                   std::vector<CountedNode>* v2_nodes, std::string* v3_payload,
                   uint64_t* node_count_out, uint32_t* version_out,
                   std::string* prefix_out, IoStats* stats) {
  std::string image;
  Header header;
  uint64_t payload_off = 0;
  uint64_t payload_bytes = 0;
  ERA_RETURN_NOT_OK(ReadFileImage(env, path, &image, &header, &payload_off,
                                  &payload_bytes, prefix_out, stats, nullptr));
  const char* payload = image.data() + payload_off;
  if (header.version == kVersionPacked) {
    v3_payload->assign(payload, payload_bytes);
  } else if (header.version == kVersionLinked) {
    v1_nodes->resize(header.node_count);
    std::memcpy(v1_nodes->data(), payload, payload_bytes);
  } else {
    v2_nodes->resize(header.node_count);
    std::memcpy(v2_nodes->data(), payload, payload_bytes);
  }
  if (node_count_out != nullptr) *node_count_out = header.node_count;
  *version_out = header.version;
  return Status::OK();
}

}  // namespace

Status WriteCountedSubTree(Env* env, const std::string& path,
                           const std::string& prefix, const CountedTree& tree,
                           IoStats* stats, uint32_t* file_crc,
                           SubTreeFormat format) {
  if (format == SubTreeFormat::kPacked) {
    const std::string payload = CompressedSubTree::EncodePayload(tree);
    return WritePayload(env, path, prefix, kVersionPacked, payload.data(),
                        tree.size(), payload.size(), stats, file_crc);
  }
  return WritePayload(env, path, prefix, kVersionCounted, tree.nodes().data(),
                      tree.size(), tree.size() * sizeof(CountedNode), stats,
                      file_crc);
}

Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc, SubTreeFormat format) {
  ERA_ASSIGN_OR_RETURN(CountedTree counted, BuildCountedTree(tree));
  return WriteCountedSubTree(env, path, prefix, counted, stats, file_crc,
                             format);
}

Status WriteSubTreeV1(Env* env, const std::string& path,
                      const std::string& prefix, const TreeBuffer& tree,
                      IoStats* stats) {
  return WritePayload(env, path, prefix, kVersionLinked, tree.nodes().data(),
                      tree.size(), tree.nodes().size() * sizeof(TreeNode),
                      stats, nullptr);
}

Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats) {
  CountedTree counted;
  std::vector<TreeNode> v1_nodes;
  std::string v3_payload;
  uint64_t node_count = 0;
  uint32_t version = 0;
  ERA_RETURN_NOT_OK(ReadPayload(env, path, &v1_nodes,
                                &counted.mutable_nodes(), &v3_payload,
                                &node_count, &version, prefix_out, stats));
  if (version == kVersionLinked) {
    tree->mutable_nodes() = std::move(v1_nodes);
    return Status::OK();
  }
  if (version == kVersionPacked) {
    auto packed =
        CompressedSubTree::FromPayload(std::move(v3_payload), node_count);
    if (!packed.ok()) {
      return packed.status().WithContext("packed sub-tree " + path);
    }
    ERA_ASSIGN_OR_RETURN(counted, packed->Inflate());
  } else if (Status s = ValidateCountedLayout(counted); !s.ok()) {
    return Status::Corruption(s.message() + " in " + path);
  }
  ERA_ASSIGN_OR_RETURN(*tree, LinkedFromCounted(counted));
  return Status::OK();
}

Status ReadCountedSubTree(Env* env, const std::string& path, CountedTree* tree,
                          std::string* prefix_out, IoStats* stats) {
  std::vector<TreeNode> v1_nodes;
  std::string v3_payload;
  uint64_t node_count = 0;
  uint32_t version = 0;
  ERA_RETURN_NOT_OK(ReadPayload(env, path, &v1_nodes, &tree->mutable_nodes(),
                                &v3_payload, &node_count, &version, prefix_out,
                                stats));
  if (version == kVersionCounted) {
    if (Status s = ValidateCountedLayout(*tree); !s.ok()) {
      return Status::Corruption(s.message() + " in " + path);
    }
    return Status::OK();
  }
  if (version == kVersionPacked) {
    auto packed =
        CompressedSubTree::FromPayload(std::move(v3_payload), node_count);
    if (!packed.ok()) {
      return packed.status().WithContext("packed sub-tree " + path);
    }
    ERA_ASSIGN_OR_RETURN(*tree, packed->Inflate());
    return Status::OK();
  }
  TreeBuffer linked;
  linked.mutable_nodes() = std::move(v1_nodes);
  ERA_ASSIGN_OR_RETURN(*tree, BuildCountedTree(linked));
  return Status::OK();
}

Status ReadSubTreeImage(Env* env, const std::string& path,
                        SubTreeImage* out, IoStats* stats,
                        std::unique_ptr<RandomAccessFile>* file_out) {
  std::string& image = out->bytes;
  Header header;
  uint64_t payload_off = 0;
  uint64_t payload_bytes = 0;
  ERA_RETURN_NOT_OK(ReadFileImage(env, path, &image, &header, &payload_off,
                                  &payload_bytes, &out->prefix, stats,
                                  file_out));
  out->version = header.version;
  if (header.version == kVersionPacked) {
    image.append(kSubTreeBlockOverlap, '\0');
    auto packed = CompressedSubTree::Validate(image.data(), payload_off,
                                              payload_bytes,
                                              header.node_count);
    if (!packed.ok()) {
      return packed.status().WithContext("packed sub-tree " + path);
    }
    out->layout = *packed;
    return Status::OK();
  }
  CountedTree counted;
  if (header.version == kVersionLinked) {
    // Legacy linked records: converted once, served as v2 records held in
    // memory (never block-served — the file's bytes are not v2 records).
    TreeBuffer linked;
    linked.mutable_nodes().resize(header.node_count);
    std::memcpy(linked.mutable_nodes().data(), image.data() + payload_off,
                payload_bytes);
    ERA_ASSIGN_OR_RETURN(counted, BuildCountedTree(linked));
    image.assign(reinterpret_cast<const char*>(counted.nodes().data()),
                 counted.size() * sizeof(CountedNode));
    payload_off = 0;
  } else {
    counted.mutable_nodes().resize(header.node_count);
    std::memcpy(counted.mutable_nodes().data(), image.data() + payload_off,
                payload_bytes);
    if (Status s = ValidateCountedLayout(counted); !s.ok()) {
      return Status::Corruption(s.message() + " in " + path);
    }
  }
  SubTreeLayout& layout = out->layout;
  layout.packed = false;
  layout.node_count = counted.size();
  layout.leaf_count = counted.LeafCount();
  layout.records_off = payload_off;
  layout.image_bytes = payload_off + counted.size() * sizeof(CountedNode);
  image.append(kSubTreeBlockOverlap, '\0');
  return Status::OK();
}

Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats) {
  auto image = std::make_shared<SubTreeImage>();
  ERA_RETURN_NOT_OK(ReadSubTreeImage(env, path, image.get(), stats, nullptr));
  if (prefix_out != nullptr) *prefix_out = image->prefix;
  const SubTreeLayout* layout = &image->layout;
  const char* bytes = image->bytes.data();
  *tree = ServedSubTree(layout, bytes, std::move(image));
  return Status::OK();
}

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env,
                                             const std::string& path) {
  ERA_ASSIGN_OR_RETURN(auto file, env->OpenRandomAccess(path));
  Header header;
  std::size_t got = 0;
  ERA_RETURN_NOT_OK(file->Read(0, sizeof(header),
                               reinterpret_cast<char*>(&header), &got));
  if (got != sizeof(header) ||
      std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad sub-tree magic in " + path);
  }
  if (header.version != kVersionLinked && header.version != kVersionCounted &&
      header.version != kVersionPacked) {
    return Status::NotSupported("unsupported sub-tree version in " + path);
  }
  SubTreeFileInfo info;
  info.version = header.version;
  info.node_count = header.node_count;
  info.file_bytes = file->Size();
  if (sizeof(header) + header.prefix_len > info.file_bytes) {
    return Status::Corruption("truncated prefix in " + path);
  }
  info.prefix.resize(header.prefix_len);
  ERA_RETURN_NOT_OK(
      file->Read(sizeof(header), info.prefix.size(), info.prefix.data(),
                 &got));
  if (got != info.prefix.size()) {
    return Status::Corruption("truncated prefix in " + path);
  }
  info.payload_bytes = info.file_bytes - sizeof(header) - header.prefix_len;
  info.inflated_bytes = header.node_count * sizeof(CountedNode);
  info.serving_bytes = header.version == kVersionPacked
                           ? info.payload_bytes + kBitReaderPadBytes
                           : info.inflated_bytes;
  return info;
}

}  // namespace era
