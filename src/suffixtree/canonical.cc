#include "suffixtree/canonical.h"

namespace era {

SaLcp TreeToSaLcp(const TreeBuffer& tree) {
  SaLcp out;
  if (tree.size() == 0) return out;

  // Iterative DFS with explicit (node, depth, next_child) frames.
  // `pending_lcp` is updated every time the traversal moves between child
  // subtrees of a node at depth d; the last assignment before a leaf emission
  // is the depth of that leaf's LCA with the previously emitted leaf.
  struct Frame {
    uint32_t node;
    uint64_t depth;       // string depth at this node
    uint32_t next_child;  // next unvisited child
  };
  std::vector<Frame> stack;
  uint64_t pending_lcp = 0;
  bool first_leaf = true;

  const TreeNode& root = tree.node(0);
  if (root.IsLeaf()) {
    out.sa.push_back(root.leaf_id);
    return out;
  }
  stack.push_back({0, 0, root.first_child});

  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == kNilNode) {
      stack.pop_back();
      if (!stack.empty()) pending_lcp = stack.back().depth;
      continue;
    }
    uint32_t c = top.next_child;
    const TreeNode& child = tree.node(c);
    top.next_child = child.next_sibling;
    if (child.IsLeaf()) {
      if (!first_leaf) out.lcp.push_back(pending_lcp);
      out.sa.push_back(child.leaf_id);
      first_leaf = false;
      pending_lcp = top.depth;
    } else {
      stack.push_back({c, top.depth + child.edge_len, child.first_child});
    }
  }
  return out;
}

SaLcp TreeToSaLcp(const CountedTree& tree) {
  SaLcp out;
  if (tree.size() == 0) return out;

  // Same traversal as the linked overload; `next_child` is an index into the
  // contiguous child block instead of a sibling pointer.
  struct Frame {
    uint32_t node;
    uint64_t depth;       // string depth at this node
    uint32_t next_child;  // next unvisited child (0 .. num_children)
  };
  std::vector<Frame> stack;
  uint64_t pending_lcp = 0;
  bool first_leaf = true;

  const CountedNode& root = tree.node(0);
  if (root.IsLeaf()) {
    out.sa.push_back(root.leaf_id());
    return out;
  }
  stack.push_back({0, 0, 0});

  while (!stack.empty()) {
    Frame& top = stack.back();
    const CountedNode& node = tree.node(top.node);
    if (top.next_child == node.num_children) {
      stack.pop_back();
      if (!stack.empty()) pending_lcp = stack.back().depth;
      continue;
    }
    uint32_t c = node.children_begin + top.next_child;
    ++top.next_child;
    const CountedNode& child = tree.node(c);
    if (child.IsLeaf()) {
      if (!first_leaf) out.lcp.push_back(pending_lcp);
      out.sa.push_back(child.leaf_id());
      first_leaf = false;
      pending_lcp = top.depth;
    } else {
      stack.push_back({c, top.depth + child.edge_len, 0});
    }
  }
  return out;
}

StatusOr<SaLcp> TryTreeToSaLcp(const ServedSubTree& tree) {
  SaLcp out;
  if (tree.size() == 0) return out;

  // Mirrors the CountedTree overload through the NodeView cursor, so the
  // traversal never materializes CountedNode records for compressed trees.
  struct Frame {
    uint32_t node;
    uint64_t depth;       // string depth at this node
    uint32_t next_child;  // next unvisited child (0 .. num_children)
  };
  std::vector<Frame> stack;
  uint64_t pending_lcp = 0;
  bool first_leaf = true;

  // The walk meets leaves in slot order, so v3 leaf offsets come from one
  // sequential decode rather than a restart seek per leaf.
  std::vector<uint64_t> leaves;
  if (tree.compressed()) {
    leaves.reserve(tree.LeafCount());
    ERA_RETURN_NOT_OK(tree.DecodeLeafRange(0, tree.LeafCount(), nullptr,
                                           SIZE_MAX, &leaves));
  }
  auto leaf_of = [&](const NodeView& v) {
    return tree.compressed() ? leaves[v.leaf_ref] : v.leaf_ref;
  };

  ERA_ASSIGN_OR_RETURN(const NodeView root, tree.node(0));
  if (root.IsLeaf()) {
    out.sa.push_back(leaf_of(root));
    return out;
  }
  stack.push_back({0, 0, 0});

  while (!stack.empty()) {
    Frame& top = stack.back();
    ERA_ASSIGN_OR_RETURN(const NodeView node, tree.node(top.node));
    if (top.next_child == node.num_children) {
      stack.pop_back();
      if (!stack.empty()) pending_lcp = stack.back().depth;
      continue;
    }
    uint32_t c = node.children_begin + top.next_child;
    ++top.next_child;
    ERA_ASSIGN_OR_RETURN(const NodeView child, tree.node(c));
    if (child.IsLeaf()) {
      if (!first_leaf) out.lcp.push_back(pending_lcp);
      out.sa.push_back(leaf_of(child));
      first_leaf = false;
      pending_lcp = top.depth;
    } else {
      stack.push_back({c, top.depth + child.edge_len, 0});
    }
  }
  return out;
}

SaLcp TreeToSaLcp(const ServedSubTree& tree) {
  StatusOr<SaLcp> out = TryTreeToSaLcp(tree);
  return out.ok() ? std::move(out).value() : SaLcp{};
}

uint64_t CountLeaves(const TreeBuffer& tree) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < tree.size(); ++i) {
    if (tree.node(i).IsLeaf()) ++n;
  }
  return n;
}

uint64_t CountLeaves(const CountedTree& tree) {
  uint64_t n = 0;
  for (uint32_t i = 0; i < tree.size(); ++i) {
    if (tree.node(i).IsLeaf()) ++n;
  }
  return n;
}

}  // namespace era
