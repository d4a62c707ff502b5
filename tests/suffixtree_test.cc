#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "suffixtree/canonical.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_buffer.h"
#include "suffixtree/tree_index.h"
#include "suffixtree/trie.h"
#include "suffixtree/validator.h"
#include "tests/test_util.h"
#include "ukkonen/ukkonen.h"

namespace era {
namespace {

TEST(TreeNodeTest, LayoutIs32Bytes) {
  EXPECT_EQ(sizeof(TreeNode), 32u);
  TreeNode node;
  EXPECT_FALSE(node.IsLeaf());
  node.leaf_id = 5;
  EXPECT_TRUE(node.IsLeaf());
}

TEST(TreeBufferTest, RootAlwaysPresent) {
  TreeBuffer tree;
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.node(0).first_child, kNilNode);
}

TEST(TreeBufferTest, AppendChildLastMaintainsOrder) {
  TreeBuffer tree;
  uint32_t a = tree.AddNode();
  uint32_t b = tree.AddNode();
  uint32_t c = tree.AddNode();
  tree.AppendChildLast(0, a);
  tree.AppendChildLast(0, b);
  tree.AppendChildLast(0, c);
  EXPECT_EQ(tree.node(0).first_child, a);
  EXPECT_EQ(tree.node(a).next_sibling, b);
  EXPECT_EQ(tree.node(b).next_sibling, c);
  EXPECT_EQ(tree.node(c).next_sibling, kNilNode);
  EXPECT_EQ(tree.CountChildren(0), 3u);
}

TEST(CanonicalTest, HandBuiltTree) {
  // Tree for "aba~": suffixes aba~(0), a~(2), ba~(1), ~(3).
  // Sorted: aba~ < a~ (b < ~), ba~, ~.
  std::string text = "aba~";
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  SaLcp canon = TreeToSaLcp(*tree);
  EXPECT_EQ(canon.sa, (std::vector<uint64_t>{0, 2, 1, 3}));
  EXPECT_EQ(canon.lcp, (std::vector<uint64_t>{1, 0, 0}));
}

TEST(SerializerTest, RoundTrip) {
  std::string text = testing::RandomText(Alphabet::Dna(), 300, 5);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());

  MemEnv env;
  IoStats stats;
  ASSERT_TRUE(WriteSubTree(&env, "/t.bin", "AC", *tree, &stats).ok());
  EXPECT_GT(stats.bytes_written, 0u);

  TreeBuffer back;
  std::string prefix;
  ASSERT_TRUE(ReadSubTree(&env, "/t.bin", &back, &prefix, &stats).ok());
  EXPECT_EQ(prefix, "AC");
  EXPECT_EQ(back.size(), tree->size());
  EXPECT_EQ(TreeToSaLcp(back), TreeToSaLcp(*tree));
}

TEST(SerializerTest, DetectsCorruption) {
  std::string text = testing::RandomText(Alphabet::Dna(), 100, 6);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());

  MemEnv env;
  ASSERT_TRUE(WriteSubTree(&env, "/t.bin", "A", *tree, nullptr).ok());
  std::string raw;
  ASSERT_TRUE(env.ReadFileToString("/t.bin", &raw).ok());

  // Flip one byte in the node array (past the 32-byte header + 1-byte
  // prefix).
  std::string corrupted = raw;
  corrupted[40] = static_cast<char>(corrupted[40] ^ 0x40);
  ASSERT_TRUE(env.WriteFile("/bad.bin", corrupted).ok());
  TreeBuffer out;
  Status s = ReadSubTree(&env, "/bad.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Truncation.
  ASSERT_TRUE(env.WriteFile("/short.bin", raw.substr(0, raw.size() / 2)).ok());
  s = ReadSubTree(&env, "/short.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Bad magic.
  std::string bad_magic = raw;
  bad_magic[0] = 'X';
  ASSERT_TRUE(env.WriteFile("/magic.bin", bad_magic).ok());
  s = ReadSubTree(&env, "/magic.bin", &out, nullptr, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST(CountedTreeTest, ConversionPreservesStructureAndCounts) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 600, 9);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());

  auto counted = BuildCountedTree(*tree);
  ASSERT_TRUE(counted.ok()) << counted.status().ToString();
  EXPECT_EQ(counted->size(), tree->size());
  EXPECT_EQ(counted->LeafCount(), CountLeaves(*tree));
  EXPECT_EQ(TreeToSaLcp(*counted), TreeToSaLcp(*tree));
  // Root slot 0, no incoming edge; every internal node's child block sits
  // strictly after it and the stored counts aggregate correctly.
  EXPECT_EQ(counted->node(0).edge_len, 0u);
  for (uint32_t i = 0; i < counted->size(); ++i) {
    const CountedNode& n = counted->node(i);
    if (n.IsLeaf()) continue;
    EXPECT_GT(n.children_begin, i);
    uint64_t total = 0;
    for (uint32_t c = 0; c < n.num_children; ++c) {
      total += counted->node(n.children_begin + c).LeafCount();
    }
    EXPECT_EQ(total, n.leaf_or_count);
  }
  EXPECT_TRUE(ValidateSubTree(*counted, text, "").ok());

  // Round-trip back to the linked form.
  auto back = LinkedFromCounted(*counted);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(TreeToSaLcp(*back), TreeToSaLcp(*tree));
  EXPECT_TRUE(ValidateSubTree(*back, text, "").ok());
}

TEST(CountedTreeTest, ConversionRejectsMalformedTrees) {
  // Cycle through first_child.
  TreeBuffer cyclic;
  uint32_t a = cyclic.AddNode();
  cyclic.node(0).first_child = a;
  cyclic.node(a).leaf_id = kNoLeaf;
  cyclic.node(a).first_child = 0;
  EXPECT_FALSE(BuildCountedTree(cyclic).ok());

  // Childless internal node (includes the degenerate root-only arena).
  TreeBuffer rootonly;
  EXPECT_FALSE(BuildCountedTree(rootonly).ok());

  // Orphan: node never linked under the root.
  TreeBuffer orphan;
  uint32_t leaf = orphan.AddNode();
  orphan.node(leaf).leaf_id = 0;
  orphan.node(leaf).edge_len = 1;
  orphan.node(0).first_child = leaf;
  orphan.AddNode();  // never linked
  EXPECT_FALSE(BuildCountedTree(orphan).ok());
}

TEST(CountedTreeTest, LayoutCheckRejectsInterleavedDescendantBlocks) {
  // A CRC-valid v2 array can pass per-node bounds and count-consistency
  // checks while two subtrees' descendant ranges interleave — which would
  // make the linear Locate scan surface another subtree's leaves. The
  // canonical-layout check must reject it (regression for the load check).
  //
  //   slot0 root   cb=1 #2 Σ=3
  //   slot1 inner  cb=3 #1 Σ=2      (its descendants should be 3..4)
  //   slot2 inner  cb=4 #1 Σ=1
  //   slot3 inner  cb=5 #2 Σ=2      (node1's grandchildren pushed to 5,6)
  //   slot4 leaf                    (node2's leaf inside node1's range)
  //   slot5 leaf, slot6 leaf
  CountedTree bad;
  auto& nodes = bad.mutable_nodes();
  nodes.resize(7);
  auto internal = [&](uint32_t i, uint32_t cb, uint32_t k, uint64_t count) {
    nodes[i].children_begin = cb;
    nodes[i].num_children = k;
    nodes[i].leaf_or_count = count;
    nodes[i].edge_len = i == 0 ? 0 : 1;
  };
  auto leaf = [&](uint32_t i, uint64_t id) {
    nodes[i].leaf_or_count = id;
    nodes[i].edge_len = 1;
  };
  internal(0, 1, 2, 3);
  internal(1, 3, 1, 2);
  internal(2, 4, 1, 1);
  internal(3, 5, 2, 2);
  leaf(4, 40);
  leaf(5, 50);
  leaf(6, 60);
  Status s = ValidateCountedLayout(bad);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  // Swapped (non-canonical but non-interleaved) block order is rejected
  // too: the format pins the exact writer layout.
  CountedTree swapped;
  auto& sn = swapped.mutable_nodes();
  sn.resize(7);
  sn[0].children_begin = 1;
  sn[0].num_children = 2;
  sn[0].leaf_or_count = 4;
  for (uint32_t i : {1u, 2u}) {
    sn[i].edge_len = 1;
    sn[i].num_children = 2;
    sn[i].leaf_or_count = 2;
  }
  sn[1].children_begin = 5;  // canonical: 3
  sn[2].children_begin = 3;  // canonical: 5
  for (uint32_t i = 3; i < 7; ++i) {
    sn[i].edge_len = 1;
    sn[i].leaf_or_count = i;
  }
  EXPECT_TRUE(ValidateCountedLayout(swapped).IsCorruption());
}

TEST(TreeIndexCacheTest, LruEvictsWithinBudgetAndPinsInFlight) {
  MemEnv env;
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 8000, 31);

  // A hand-assembled index (dir is the MemEnv root): the same Ukkonen tree
  // serialized under eight distinct ids.
  TreeIndex index;
  TextInfo info{"/text", static_cast<uint64_t>(text.size()), Alphabet::Dna()};
  ASSERT_TRUE(env.WriteFile("/text", text).ok());
  index.SetText(info);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  for (int i = 0; i < 8; ++i) {
    std::string name = "st_" + std::to_string(i);
    ASSERT_TRUE(WriteSubTree(&env, "/" + name, "A", *tree, nullptr).ok());
    index.AddSubTree("A", CountLeaves(*tree), name);
  }
  // The budget math must use the actual serving charge (the packed blob for
  // the default v3 format), not the inflated counted size.
  ServedSubTree served;
  ASSERT_TRUE(ReadServedSubTree(&env, "/st_0", &served, nullptr, nullptr).ok());
  const uint64_t tree_bytes = served.MemoryBytes();

  // Single shard with room for ~2 trees' blocks: walking 8 distinct ids
  // must evict blocks. Handles (~1 KB each) stay attached throughout.
  TreeCacheOptions options;
  options.shards = 1;
  options.budget_bytes = 2 * tree_bytes + tree_bytes / 2;
  index.ConfigureCache(options);
  const SaLcp expected = TreeToSaLcp(served);

  IoStats stats;
  std::shared_ptr<const ServedSubTree> pinned;
  for (uint32_t id = 0; id < 8; ++id) {
    auto opened = index.OpenSubTree(&env, id, &stats);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto walked = TryTreeToSaLcp(**opened);
    ASSERT_TRUE(walked.ok()) << walked.status().ToString();
    EXPECT_EQ(*walked, expected);
    if (id == 0) pinned = *opened;
  }
  TreeIndex::CacheSnapshot snap = index.CacheStats();
  EXPECT_EQ(snap.misses, 8u);
  EXPECT_EQ(snap.resident_trees, 8u);
  EXPECT_GT(snap.evictions, 0u);
  EXPECT_GT(snap.block_misses, 0u);
  EXPECT_LE(snap.resident_bytes, options.budget_bytes);
  EXPECT_EQ(stats.cache_misses, 8u);

  // Id 0's blocks were evicted long ago, but its view still reads: misses
  // reload the blocks.
  EXPECT_EQ(pinned->LeafCount(), CountLeaves(*tree));
  EXPECT_EQ(TreeToSaLcp(*pinned), expected);

  // Re-opening any attached id is a handle hit, whatever its blocks' fate.
  auto hit = index.OpenSubTree(&env, 7, &stats);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(stats.cache_hits, 1u);
  auto again = index.OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 8u);
  snap = index.CacheStats();
  uint64_t hits_before = snap.hits;
  EXPECT_TRUE(index.OpenSubTree(&env, 7, nullptr).ok());
  EXPECT_EQ(index.CacheStats().hits, hits_before + 1);

  // An explicit sweep drops every block and handle without counting as
  // budget eviction; the next open attaches again.
  uint64_t evictions_before = index.CacheStats().evictions;
  index.EvictCache();
  snap = index.CacheStats();
  EXPECT_EQ(snap.resident_trees, 0u);
  EXPECT_EQ(snap.resident_bytes, 0u);
  EXPECT_EQ(snap.evictions, evictions_before);
  ASSERT_TRUE(index.OpenSubTree(&env, 0, &stats).ok());
  EXPECT_EQ(stats.cache_misses, 9u);
  EXPECT_EQ(TreeToSaLcp(*pinned), expected);
}

TEST(TrieTest, InsertAndDescend) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("TGA", 0, 10).ok());
  ASSERT_TRUE(trie.InsertSubTree("TGC", 1, 20).ok());
  ASSERT_TRUE(trie.InsertSubTree("A", 2, 5).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("TG", 100).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 999).ok());

  auto r = trie.Descend("TGAXX");
  EXPECT_EQ(r.matched, 3u);
  EXPECT_FALSE(r.pattern_exhausted);
  EXPECT_EQ(trie.node(r.node).subtree_id, 0);

  r = trie.Descend("T");
  EXPECT_EQ(r.matched, 1u);
  EXPECT_TRUE(r.pattern_exhausted);

  r = trie.Descend("G");
  EXPECT_EQ(r.matched, 0u);
  EXPECT_FALSE(r.pattern_exhausted);
}

TEST(TrieTest, RejectsConflicts) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("AB", 0, 1).ok());
  EXPECT_FALSE(trie.InsertSubTree("AB", 1, 1).ok());   // duplicate
  EXPECT_FALSE(trie.InsertSubTree("", 2, 1).ok());     // empty
  ASSERT_TRUE(trie.InsertTerminalLeaf("A", 5).ok());
  EXPECT_FALSE(trie.InsertTerminalLeaf("A", 6).ok());  // duplicate leaf
}

TEST(TrieTest, TotalFrequencyAggregates) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("AA", 0, 10).ok());
  ASSERT_TRUE(trie.InsertSubTree("AB", 1, 20).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("A", 7).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 99).ok());
  EXPECT_EQ(trie.TotalFrequency(0), 32u);  // 10 + 20 + 2 terminal leaves
}

TEST(TrieTest, CollectInOrderIsLexicographic) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("TGG", 0, 1).ok());
  ASSERT_TRUE(trie.InsertSubTree("TGA", 1, 1).ok());
  ASSERT_TRUE(trie.InsertSubTree("A", 2, 1).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("TG", 50).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 99).ok());

  std::vector<int32_t> ids;
  std::vector<uint64_t> leaves;
  trie.CollectInOrder(0, &ids, &leaves);
  // Lexicographic: A(2), TGA(1), TGG(0); terminal leaves: TG~ then ~...
  EXPECT_EQ(ids, (std::vector<int32_t>{2, 1, 0}));
  // "TG~" < "~" because 'T' < '~'.
  EXPECT_EQ(leaves, (std::vector<uint64_t>{50, 99}));
}

TEST(TrieTest, SerializeDeserializeRoundTrip) {
  PrefixTrie trie;
  ASSERT_TRUE(trie.InsertSubTree("ACG", 0, 11).ok());
  ASSERT_TRUE(trie.InsertSubTree("ACT", 1, 22).ok());
  ASSERT_TRUE(trie.InsertSubTree("G", 2, 33).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("AC", 5).ok());
  ASSERT_TRUE(trie.InsertTerminalLeaf("", 44).ok());

  auto back = PrefixTrie::Deserialize(trie.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), trie.size());
  EXPECT_EQ(back->TotalFrequency(0), trie.TotalFrequency(0));

  std::vector<int32_t> ids1, ids2;
  std::vector<uint64_t> l1, l2;
  trie.CollectInOrder(0, &ids1, &l1);
  back->CollectInOrder(0, &ids2, &l2);
  EXPECT_EQ(ids1, ids2);
  EXPECT_EQ(l1, l2);

  auto r = back->Descend("ACT");
  EXPECT_TRUE(r.pattern_exhausted);
  EXPECT_EQ(back->node(r.node).subtree_id, 1);
}

TEST(TrieTest, DeserializeRejectsGarbage) {
  EXPECT_FALSE(PrefixTrie::Deserialize("").ok());
  EXPECT_FALSE(PrefixTrie::Deserialize("abc").ok());
  std::string valid = PrefixTrie().Serialize();
  EXPECT_FALSE(
      PrefixTrie::Deserialize(valid + "trailing garbage").ok());
}

TEST(TreeIndexTest, SaveLoadRoundTrip) {
  MemEnv env;
  std::string text = testing::RandomText(Alphabet::Dna(), 200, 8);

  TreeIndex index;
  TextInfo info{"/text", static_cast<uint64_t>(text.size()), Alphabet::Dna()};
  index.SetText(info);

  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(env.CreateDir("/idx").ok());
  ASSERT_TRUE(WriteSubTree(&env, "/idx/st_0", "A", *tree, nullptr).ok());
  uint32_t id = index.AddSubTree("A", 42, "st_0");
  ASSERT_TRUE(index.mutable_trie().InsertSubTree("A", id, 42).ok());
  ASSERT_TRUE(index.Save(&env, "/idx").ok());

  auto loaded = TreeIndex::Load(&env, "/idx");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->text().length, text.size());
  EXPECT_EQ(loaded->text().alphabet.symbols(), "ACGT");
  ASSERT_EQ(loaded->subtrees().size(), 1u);
  EXPECT_EQ(loaded->subtrees()[0].prefix, "A");
  EXPECT_EQ(loaded->subtrees()[0].frequency, 42u);

  IoStats stats;
  auto sub = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub.ok());
  EXPECT_EQ((*sub)->size(), tree->size());
  EXPECT_GT(stats.bytes_read, 0u);

  // Second open comes from cache: stats unchanged.
  uint64_t bytes = stats.bytes_read;
  auto sub2 = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub2.ok());
  EXPECT_EQ(stats.bytes_read, bytes);

  loaded->EvictCache();
  auto sub3 = loaded->OpenSubTree(&env, 0, &stats);
  ASSERT_TRUE(sub3.ok());
  EXPECT_GT(stats.bytes_read, bytes);
}

TEST(TreeIndexTest, LoadRejectsMissingOrBadManifest) {
  MemEnv env;
  EXPECT_FALSE(TreeIndex::Load(&env, "/nope").ok());
  ASSERT_TRUE(env.WriteFile("/bad/MANIFEST", "format: other-thing\n").ok());
  EXPECT_FALSE(TreeIndex::Load(&env, "/bad").ok());
}

TEST(ValidatorTest, DetectsMutations) {
  std::string text = testing::RandomText(Alphabet::Dna(), 300, 15);
  auto tree = BuildUkkonenTree(text);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(ValidateSubTree(*tree, text, "").ok());

  // Swap two leaves' ids: breaks suffix/path correspondence.
  TreeBuffer broken = *tree;
  std::vector<uint32_t> leaf_nodes;
  for (uint32_t i = 0; i < broken.size(); ++i) {
    if (broken.node(i).IsLeaf()) leaf_nodes.push_back(i);
  }
  ASSERT_GE(leaf_nodes.size(), 2u);
  std::swap(broken.node(leaf_nodes[0]).leaf_id,
            broken.node(leaf_nodes[1]).leaf_id);
  EXPECT_FALSE(ValidateSubTree(broken, text, "").ok());

  // Out-of-range edge.
  TreeBuffer broken2 = *tree;
  broken2.node(leaf_nodes[0]).edge_start = text.size() + 100;
  EXPECT_FALSE(ValidateSubTree(broken2, text, "").ok());

  // Cycle: point a child pointer back at the root.
  TreeBuffer broken3 = *tree;
  broken3.node(leaf_nodes[0]).leaf_id = kNoLeaf;
  broken3.node(leaf_nodes[0]).first_child = 0;
  EXPECT_FALSE(ValidateSubTree(broken3, text, "").ok());
}

}  // namespace
}  // namespace era
