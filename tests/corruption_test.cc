// On-disk damage on the read path: checksums turn bit flips and truncation
// into Corruption (never silent wrong answers), and the QueryEngine degrades
// per-query — a damaged sub-tree quarantines itself while the rest of the
// index keeps serving, and a repaired file serves again without a restart.
// The block-served path is covered too: a block rewritten after its
// sub-tree was attached fails its per-block checksum on the next load.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "era/era_builder.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "suffixtree/serializer.h"
#include "suffixtree/tree_index.h"
#include "tests/test_util.h"
#include "text/corpus.h"

namespace era {
namespace {

/// A small built index on MemEnv shared by the cases in this file.
struct BuiltIndex {
  MemEnv env;
  TextInfo info;
  std::vector<SubTreeEntry> subtrees;

  BuiltIndex() {
    std::string text = testing::RepetitiveText(Alphabet::Dna(), 12000, 31);
    auto materialized =
        MaterializeText(&env, "/text", Alphabet::Dna(), text);
    EXPECT_TRUE(materialized.ok());
    info = *materialized;
    BuildOptions options;
    options.env = &env;
    options.work_dir = "/idx";
    options.memory_budget = 2 << 20;
    options.input_buffer_bytes = 4096;
    EraBuilder builder(options);
    auto result = builder.Build(info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    subtrees = result->index.subtrees();
    EXPECT_GE(subtrees.size(), 2u)
        << "the degradation cases need a healthy sub-tree to keep serving";
  }

  /// Copies the clean index into a fresh MemEnv so each case damages its
  /// own copy.
  void CloneInto(MemEnv* dst) const {
    auto copy = [&](const std::string& path) {
      std::string bytes;
      ASSERT_TRUE(
          const_cast<MemEnv&>(env).ReadFileToString(path, &bytes).ok());
      ASSERT_TRUE(dst->WriteFile(path, bytes).ok());
    };
    copy("/text");
    copy("/idx/MANIFEST");
    for (const SubTreeEntry& entry : subtrees) copy("/idx/" + entry.filename);
  }
};

BuiltIndex& Built() {
  static BuiltIndex* built = new BuiltIndex();
  return *built;
}

TEST(CorruptionTest, SubTreeBitFlipsAreCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t offset :
       {std::size_t{0}, clean.size() / 4, clean.size() / 2,
        clean.size() - 1}) {
    std::string damaged = clean;
    damaged[offset] ^= 0x10;
    ASSERT_TRUE(env.WriteFile(path, damaged).ok());
    CountedTree tree;
    Status s = ReadCountedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "bit flip at offset " << offset << " undetected";
    EXPECT_TRUE(s.IsCorruption())
        << "offset " << offset << ": " << s.ToString();
  }
}

TEST(CorruptionTest, TruncatedSubTreeIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string path = "/idx/" + Built().subtrees[0].filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());

  for (std::size_t keep : {std::size_t{0}, std::size_t{4}, clean.size() / 2,
                           clean.size() - 1}) {
    ASSERT_TRUE(env.WriteFile(path, clean.substr(0, keep)).ok());
    CountedTree tree;
    Status s = ReadCountedSubTree(&env, path, &tree, nullptr, nullptr);
    EXPECT_FALSE(s.ok()) << "truncation to " << keep << " bytes undetected";
    EXPECT_TRUE(s.IsCorruption()) << "keep=" << keep << ": " << s.ToString();
  }
}

TEST(CorruptionTest, ManifestDamageIsCorruption) {
  MemEnv env;
  Built().CloneInto(&env);
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString("/idx/MANIFEST", &clean).ok());

  // Flip one character of a recorded frequency.
  std::string damaged = clean;
  std::size_t pos = damaged.find("subtree: ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t digit = damaged.find_first_of("0123456789", pos);
  ASSERT_NE(digit, std::string::npos);
  damaged[digit] = damaged[digit] == '1' ? '2' : '1';
  ASSERT_TRUE(env.WriteFile("/idx/MANIFEST", damaged).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());

  // Truncate away the trailing checksum line.
  std::size_t crc_line = clean.rfind("crc: ");
  ASSERT_NE(crc_line, std::string::npos);
  ASSERT_TRUE(
      env.WriteFile("/idx/MANIFEST", clean.substr(0, crc_line)).ok());
  EXPECT_TRUE(TreeIndex::Load(&env, "/idx").status().IsCorruption());
}

TEST(CorruptionTest, QueryEngineQuarantinesAndRecoversWithoutRestart) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Patterns one symbol longer than a sub-tree's prefix force the engine to
  // open that sub-tree (the trie alone cannot answer them).
  const SubTreeEntry& victim = Built().subtrees[0];
  const SubTreeEntry& healthy = Built().subtrees[1];
  std::string victim_pattern = victim.prefix + "A";
  std::string healthy_pattern = healthy.prefix + "A";

  std::string victim_path = "/idx/" + victim.filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(victim_path, &clean).ok());
  std::string damaged = clean;
  damaged[damaged.size() / 2] ^= 0x08;
  ASSERT_TRUE(env.WriteFile(victim_path, damaged).ok());

  // The damaged sub-tree fails ITS queries with Unavailable...
  auto count = (*engine)->Count(victim_pattern);
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto located = (*engine)->Locate(victim_pattern);
  EXPECT_TRUE(located.status().IsUnavailable());
  EXPECT_GE((*engine)->stats().unavailable_queries, 2u);
  auto quarantine = (*engine)->quarantine();
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.begin()->first, 0u) << "sub-tree 0 is the victim";
  EXPECT_GE(quarantine.begin()->second, 2u);

  // ...while patterns routed to healthy sub-trees keep serving.
  auto healthy_count = (*engine)->Count(healthy_pattern);
  ASSERT_TRUE(healthy_count.ok()) << healthy_count.status().ToString();

  // Repair the file: the very next query succeeds on the same engine —
  // proof that the failed load was never admitted to the cache.
  ASSERT_TRUE(env.WriteFile(victim_path, clean).ok());
  auto recovered = (*engine)->Count(victim_pattern);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();

  // And the answer agrees with a fresh engine over the clean index.
  MemEnv fresh_env;
  Built().CloneInto(&fresh_env);
  auto fresh = QueryEngine::Open(&fresh_env, "/idx");
  ASSERT_TRUE(fresh.ok());
  auto expected = (*fresh)->Count(victim_pattern);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(*recovered, *expected);
}

TEST(CorruptionTest, MissingSubTreeFileIsUnavailableNotFatal) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());
  const SubTreeEntry& victim = Built().subtrees[0];
  ASSERT_TRUE(env.DeleteFile("/idx/" + victim.filename).ok());
  auto count = (*engine)->Count(victim.prefix + "A");
  EXPECT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  auto healthy = (*engine)->Count(Built().subtrees[1].prefix + "A");
  EXPECT_TRUE(healthy.ok()) << healthy.status().ToString();
}

TEST(CorruptionTest, ResealedStructurallyBadFileIsRejectedAtAttach) {
  MemEnv env;
  Built().CloneInto(&env);
  const SubTreeEntry& victim = Built().subtrees[0];
  const std::string path = "/idx/" + victim.filename;
  std::string bytes;
  ASSERT_TRUE(env.ReadFileToString(path, &bytes).ok());
  // Bump a declared field width in the packed header, then reseal the
  // payload CRC so only the structural checks can catch it.
  constexpr std::size_t kFileHeader = 32;
  constexpr std::size_t kCrcOffset = 24;
  const std::size_t payload = kFileHeader + victim.prefix.size();
  bytes[payload + 60] = static_cast<char>(bytes[payload + 60] + 1);
  const uint32_t crc =
      Crc32c(bytes.data() + payload, bytes.size() - payload,
             Crc32c(victim.prefix.data(), victim.prefix.size()));
  std::memcpy(&bytes[kCrcOffset], &crc, sizeof(crc));
  ASSERT_TRUE(env.WriteFile(path, bytes).ok());

  auto index = TreeIndex::Load(&env, "/idx");
  ASSERT_TRUE(index.ok());
  auto opened = index->OpenSubTree(&env, 0, nullptr);
  EXPECT_TRUE(opened.status().IsCorruption()) << opened.status().ToString();
  EXPECT_EQ(index->CacheStats().resident_trees, 0u);
  auto engine = QueryEngine::Open(&env, "/idx");
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE((*engine)->Count(victim.prefix + "A").status().IsUnavailable());
}

/// Engine options whose cache holds no block beyond a single one per shard:
/// attaches admit nothing, so every read after attach is a device load.
QueryEngineOptions OneBlockCache() {
  QueryEngineOptions options;
  options.cache.budget_bytes = 4096;
  options.cache.shards = 1;
  return options;
}

TEST(CorruptionTest, BlockRewrittenAfterAttachFailsItsChecksumAndRecovers) {
  MemEnv env;
  Built().CloneInto(&env);
  auto engine = QueryEngine::Open(&env, "/idx", OneBlockCache());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const SubTreeEntry& victim = Built().subtrees[0];
  const std::string pattern = victim.prefix + "A";
  auto expected = (*engine)->Count(pattern);  // attaches sub-tree 0
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_EQ((*engine)->cache().resident_trees, 1u);

  // Rewrite a byte of the first block (the root's records) on disk, with
  // no block of the file resident: the next descent must load it.
  const std::string path = "/idx/" + victim.filename;
  std::string clean;
  ASSERT_TRUE(env.ReadFileToString(path, &clean).ok());
  std::string damaged = clean;
  damaged[150] ^= 0x04;
  ASSERT_TRUE(env.WriteFile(path, damaged).ok());
  (*engine)->index().block_cache()->EvictAll();

  auto count = (*engine)->Count(pattern);
  ASSERT_TRUE(count.status().IsUnavailable()) << count.status().ToString();
  EXPECT_NE(count.status().message().find("checksum"), std::string::npos)
      << count.status().ToString();
  auto quarantine = (*engine)->quarantine();
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine.begin()->first, 0u);

  // The failed block dropped the handle: the next open re-attaches, and the
  // damaged file fails the whole-file checksum there.
  auto again = (*engine)->Locate(pattern);
  EXPECT_TRUE(again.status().IsUnavailable()) << again.status().ToString();
  EXPECT_GE((*engine)->quarantine().at(0), 2u);

  // Repaired on disk: the same engine serves the right answer again.
  ASSERT_TRUE(env.WriteFile(path, clean).ok());
  auto recovered = (*engine)->Count(pattern);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(*recovered, *expected);
  auto located = (*engine)->Locate(pattern);
  ASSERT_TRUE(located.ok()) << located.status().ToString();
  EXPECT_EQ(located->size(), *expected);
}

TEST(CorruptionTest, DeadlineDuringBlockMissIsNotQuarantined) {
  MemEnv base;
  Built().CloneInto(&base);
  LatencyModel slow;
  slow.read_latency_seconds = 0.05;
  LatencyEnv env(&base, slow);
  auto engine = QueryEngine::Open(&env, "/idx", OneBlockCache());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::string pattern = Built().subtrees[0].prefix + "A";
  ASSERT_TRUE((*engine)->Count(pattern).ok());  // attach, untimed
  (*engine)->index().block_cache()->EvictAll();

  // The deadline passes while the first block load is on the device; the
  // query stops at its next boundary and the file is not blamed.
  const QueryContext ctx = QueryContext::WithTimeout(0.02);
  auto count = (*engine)->Count(pattern, ctx);
  EXPECT_TRUE(count.status().IsDeadlineExceeded())
      << count.status().ToString();
  EXPECT_TRUE((*engine)->quarantine().empty());
  EXPECT_EQ((*engine)->stats().unavailable_queries, 0u);
  // The handle survived: a query with time to spare is a handle hit.
  const uint64_t attaches = (*engine)->cache().misses;
  EXPECT_TRUE((*engine)->Count(pattern).ok());
  EXPECT_EQ((*engine)->cache().misses, attaches);
}

}  // namespace
}  // namespace era
