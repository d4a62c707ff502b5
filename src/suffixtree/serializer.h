// Sub-tree persistence: a fixed header + CRC-protected payload.
//
// Three on-disk versions share the header:
//   * v1 — the legacy linked TreeNode array (IEEE CRC-32). Still readable;
//     only WriteSubTreeV1 produces it (compat tooling and tests).
//   * v2 — the counted serving layout (CountedNode array, CRC-32C): nodes in
//     DFS order, contiguous child blocks sorted by first symbol, per-node
//     subtree leaf counts.
//   * v3 — the compressed serving layout (CRC-32C): bit-packed
//     width-minimal counted records plus a delta/varint leaf stream (see
//     suffixtree/compressed_tree.h). The default for all builders.
//
// Any version can be read into any in-memory form: ReadSubTreeImage is the
// serving path's attach step (validate once, then serve v3/v2 records in
// place; v1 converts to v2 records); ReadCountedSubTree and ReadSubTree
// convert as needed for consumers that operate on CountedNode / the linked
// form (validator, TRELLIS merge, legacy tests).

#ifndef ERA_SUFFIXTREE_SERIALIZER_H_
#define ERA_SUFFIXTREE_SERIALIZER_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "io/env.h"
#include "io/io_stats.h"
#include "suffixtree/compressed_tree.h"
#include "suffixtree/node.h"
#include "suffixtree/tree_buffer.h"

namespace era {

/// Writes `tree` for S-prefix `prefix` to `path` (converting to the counted
/// layout, then encoding per `format`). The file is published atomically and
/// durably (temp + Sync + rename): a crash mid-write never leaves a readable
/// torn file at `path`. Billed to `stats` if given. `file_crc` (optional)
/// receives the CRC-32C of the complete file as written — the checksum the
/// build checkpoint records.
Status WriteSubTree(Env* env, const std::string& path,
                    const std::string& prefix, const TreeBuffer& tree,
                    IoStats* stats, uint32_t* file_crc = nullptr,
                    SubTreeFormat format = SubTreeFormat::kPacked);

/// Writes an already-counted tree to `path` (atomic + durable) in the given
/// format (v2 verbatim, or v3 bit-packed).
Status WriteCountedSubTree(Env* env, const std::string& path,
                           const std::string& prefix, const CountedTree& tree,
                           IoStats* stats, uint32_t* file_crc = nullptr,
                           SubTreeFormat format = SubTreeFormat::kPacked);

/// Writes `tree` in the legacy v1 format (linked TreeNode array). Kept for
/// round-trip tests and for generating compat fixtures; builders use
/// WriteSubTree.
Status WriteSubTreeV1(Env* env, const std::string& path,
                      const std::string& prefix, const TreeBuffer& tree,
                      IoStats* stats);

/// Reads a sub-tree (any version) into the linked form; verifies magic,
/// version and CRC. `prefix_out` may be nullptr.
Status ReadSubTree(Env* env, const std::string& path, TreeBuffer* tree,
                   std::string* prefix_out, IoStats* stats);

/// Reads a sub-tree (any version) into the counted form. v2 files are
/// structure-checked (child blocks in bounds and acyclic, leaf counts
/// consistent); v3 files are fully validated by the packed decoder before
/// inflation.
Status ReadCountedSubTree(Env* env, const std::string& path, CountedTree* tree,
                          std::string* prefix_out, IoStats* stats);

/// A sub-tree file read whole and fully validated — the attach step of
/// serving (see compressed_tree.h).
struct SubTreeImage {
  /// The validated file image followed by kSubTreeBlockOverlap zero bytes.
  /// v1 files are converted: the image is their v2 node records alone.
  std::string bytes;
  SubTreeLayout layout;
  std::string prefix;
  uint32_t version = 0;  // as stored on disk
};

/// Reads `path` whole and validates it: magic, version, CRC, then every
/// structural check of its version (v3: CompressedSubTree::Validate; v2:
/// ValidateCountedLayout; v1: conversion). `file_out` (optional) receives
/// the opened file, for serving its blocks afterwards.
Status ReadSubTreeImage(Env* env, const std::string& path, SubTreeImage* out,
                        IoStats* stats,
                        std::unique_ptr<RandomAccessFile>* file_out = nullptr);

/// Reads a sub-tree (any version) into an all-resident serving form: the
/// validated image held in memory. Tools, the validator and tests use it;
/// TreeIndex serves the same decoder from cached blocks instead.
Status ReadServedSubTree(Env* env, const std::string& path,
                         ServedSubTree* tree, std::string* prefix_out,
                         IoStats* stats);

/// Cheap per-file facts for `era_cli inspect` and the bench: header fields
/// plus the sizes needed to compute compression ratios. Reads the header and
/// prefix only (no payload decode beyond what Size() gives).
struct SubTreeFileInfo {
  uint32_t version = 0;
  uint64_t node_count = 0;
  std::string prefix;
  uint64_t file_bytes = 0;      // total on-disk size
  uint64_t payload_bytes = 0;   // file minus header and prefix
  uint64_t serving_bytes = 0;   // resident size when cached (v3: packed blob;
                                // v1/v2: node_count * 32)
  uint64_t inflated_bytes = 0;  // node_count * sizeof(CountedNode)
};

StatusOr<SubTreeFileInfo> InspectSubTreeFile(Env* env, const std::string& path);

}  // namespace era

#endif  // ERA_SUFFIXTREE_SERIALIZER_H_
