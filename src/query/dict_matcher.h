// Shared-descent dictionary matching: the engine behind
// QueryEngine::MatchDictionary (see query_engine.h for the public contract).
//
// The per-pattern loop pays one root-to-locus descent per pattern, so a
// dictionary of 10k patterns re-walks the same shared prefixes thousands of
// times. This matcher walks the tree once per DISTINCT shared prefix:
//
//   1. Dedup + sort. Patterns are bucketed into a std::map keyed by
//      string_view (memcmp order — exactly the unsigned byte order the
//      builders sort sibling blocks by), so duplicates fold to one unique
//      pattern and the unique set comes out in tree child order.
//   2. Group by sub-tree. Each unique pattern routes once through the k-mer
//      dispatch table; consecutive unique patterns landing in the same
//      sub-tree form a group. The trie's sub-tree paths are prefix-free, so
//      a sub-tree's patterns are one contiguous run of the sorted order —
//      every touched sub-tree is opened exactly once.
//   3. Range descent. A group descends its sub-tree with a pattern-range
//      cursor [lo, hi): at each node the range splits at child boundaries
//      (one FindChild probe per distinct next symbol), each edge label is
//      fetched ONCE and every pattern in the range advances through it
//      together, mismatching patterns peel off the range edges, and a
//      pattern whose bytes run out resolves at the current locus with the
//      node's stored subtree count — byte-identical to MatchInSubTree's
//      verdicts.
//   4. Shared leaf work (locate mode). Matched loci are resolved with one
//      ServedSubTree::CollectLeafSlices pass per sub-tree: laminar match
//      ranges share decoded leaf runs instead of one CollectLeaves each.
//
// Deadline/cancel checkpoints sit at group and node boundaries plus every
// device read; a terminal status stamps everything unresolved (the
// DictOutcome batch contract).

#ifndef ERA_QUERY_DICT_MATCHER_H_
#define ERA_QUERY_DICT_MATCHER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query_engine.h"

namespace era {

/// One MatchDictionary call's worth of state. Constructed inside the
/// engine's admission/lease scope (it is a friend of QueryEngine) and runs
/// entirely on the leased session.
class DictMatcher {
 public:
  DictMatcher(QueryEngine* engine, QueryEngine::Session* session,
              const QueryContext& ctx, const DictMatchOptions& options)
      : engine_(engine), session_(session), ctx_(ctx), options_(options) {}

  /// Answers every pattern into `outcomes` (index-aligned with `patterns`).
  /// Failures are always per-item — terminal ones stamp the remainder — so
  /// this never fails as a whole.
  void Run(const std::vector<std::string>& patterns,
           std::vector<DictOutcome>* outcomes);

 private:
  /// Where routing left a unique pattern.
  enum class RouteKind {
    kTrie,     // pattern exhausted inside the trie (answered from it)
    kMiss,     // fell off the trie: zero occurrences
    kSubTree,  // continues inside a sub-tree (the shared-descent case)
  };

  /// One distinct pattern plus the batch items it answers.
  struct UniquePattern {
    const std::string* pattern = nullptr;
    std::vector<std::size_t> items;  // outcome indices (original order)
    RouteKind kind = RouteKind::kMiss;
    uint32_t trie_node = 0;
    int32_t subtree_id = -1;
    bool resolved = false;
  };

  /// A pattern matched at sub-tree slot `slot`; leaf resolution pends.
  struct MatchedSlot {
    std::size_t unique = 0;
    uint32_t slot = 0;
  };

  /// Fans `count` out to every item of unique pattern `w` (offsets stay
  /// empty: used for misses and count-mode resolutions).
  void ResolveCount(std::size_t w, uint64_t count);
  /// Records a match at `node` for unique pattern `w`. Count mode resolves
  /// immediately from the node's subtree count; locate mode defers to the
  /// per-sub-tree leaf pass.
  Status ResolveMatch(std::size_t w, const ServedSubTree& tree, uint32_t node,
                      std::vector<MatchedSlot>* matched);
  /// Stamps `status` on every item of `w` if it is still unresolved.
  /// `counts_as_query` distinguishes an item that failed on its own (it ran)
  /// from one stamped by someone else's terminal status (it never ran).
  void StampUnresolved(std::size_t w, const Status& status,
                       bool counts_as_query);

  /// Answers a trie-resolved pattern (frequency table; locate mode falls
  /// back to the engine's single-pattern path — rare and already optimal).
  Status ResolveTrie(std::size_t w);
  /// Opens the group's sub-tree once and runs the range descent plus (in
  /// locate mode) the shared leaf pass. [lo, hi) indexes unique_.
  Status RunGroup(std::size_t lo, std::size_t hi);
  /// The range descent itself.
  Status Descend(const ServedSubTree& tree, std::size_t lo, std::size_t hi,
                 std::vector<MatchedSlot>* matched);
  /// One CollectLeafSlices pass resolving every matched locus of a group.
  Status ResolveLocates(const ServedSubTree& tree,
                        const std::vector<MatchedSlot>& matched);

  QueryEngine* engine_;
  QueryEngine::Session* session_;
  const QueryContext& ctx_;
  DictMatchOptions options_;

  std::vector<UniquePattern> unique_;  // sorted in memcmp order
  std::vector<DictOutcome>* outcomes_ = nullptr;
};

}  // namespace era

#endif  // ERA_QUERY_DICT_MATCHER_H_
