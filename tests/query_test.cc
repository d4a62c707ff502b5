// Query engine and applications against naive string-scan oracles.

#include "query/query_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "era/era_builder.h"
#include "io/mem_env.h"
#include "query/applications.h"
#include "tests/test_util.h"

namespace era {
namespace {

/// All occurrence positions of `pattern` in `text` by naive scan (the
/// terminal byte is part of the text and may match).
std::vector<uint64_t> NaiveLocate(const std::string& text,
                                  const std::string& pattern) {
  std::vector<uint64_t> hits;
  std::size_t pos = text.find(pattern);
  while (pos != std::string::npos) {
    hits.push_back(pos);
    pos = text.find(pattern, pos + 1);
  }
  return hits;
}

class QueryEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = testing::RepetitiveText(Alphabet::Dna(), 8000, 71);
    auto info = MaterializeText(&env_, "/text", Alphabet::Dna(), text_);
    ASSERT_TRUE(info.ok());

    BuildOptions options;
    options.env = &env_;
    options.work_dir = "/idx";
    options.memory_budget = 512 << 10;  // force several sub-trees
    options.input_buffer_bytes = 4096;
    EraBuilder builder(options);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto engine = QueryEngine::Open(&env_, "/idx");
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }

  void CheckPattern(const std::string& pattern) {
    auto expected = NaiveLocate(text_, pattern);
    auto located = engine_->Locate(pattern);
    ASSERT_TRUE(located.ok()) << located.status().ToString();
    EXPECT_EQ(*located, expected) << "pattern: " << pattern;
    auto count = engine_->Count(pattern);
    ASSERT_TRUE(count.ok());
    EXPECT_EQ(*count, expected.size()) << "pattern: " << pattern;
    auto contains = engine_->Contains(pattern);
    ASSERT_TRUE(contains.ok());
    EXPECT_EQ(*contains, !expected.empty());
  }

  MemEnv env_;
  std::string text_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(QueryEngineTest, ShortPatternsWithinTrie) {
  for (const char* p : {"A", "C", "G", "T", "AC", "GT", "TT"}) {
    CheckPattern(p);
  }
}

TEST_F(QueryEngineTest, MediumPatternsFromText) {
  for (std::size_t offset : {0u, 100u, 500u, 4000u, 7900u}) {
    CheckPattern(text_.substr(offset, 12));
  }
}

TEST_F(QueryEngineTest, LongPatternsIncludingFullSuffixes) {
  CheckPattern(text_.substr(7000));             // suffix incl. terminal
  CheckPattern(text_.substr(0, 200));           // long prefix
  CheckPattern(text_.substr(2500, 64));
}

TEST_F(QueryEngineTest, AbsentPatterns) {
  CheckPattern("ACGTACGTACGTACGTACGTACGTACGTACGT");
  // A pattern that diverges from the text in its last symbol.
  std::string almost = text_.substr(1000, 20);
  almost.back() = almost.back() == 'A' ? 'C' : 'A';
  CheckPattern(almost);
}

TEST_F(QueryEngineTest, EmptyPatternRejected) {
  EXPECT_FALSE(engine_->Locate("").ok());
  EXPECT_FALSE(engine_->Count("").ok());
}

TEST_F(QueryEngineTest, LimitReturnsTheSmallestOffsets) {
  // Regression: leaves used to be collected in tree order up to the limit
  // and only then sorted, so Locate(p, k) could return k arbitrary (not the
  // k smallest) offsets. The guarantee is now: smallest `limit` offsets.
  for (const std::string& pattern :
       {std::string("A"), std::string("T"), text_.substr(100, 6)}) {
    auto full = engine_->Locate(pattern);
    ASSERT_TRUE(full.ok());
    ASSERT_GT(full->size(), 5u) << "pattern: " << pattern;
    for (std::size_t limit : {1u, 2u, 5u}) {
      auto limited = engine_->Locate(pattern, limit);
      ASSERT_TRUE(limited.ok());
      std::vector<uint64_t> expected(full->begin(), full->begin() + limit);
      EXPECT_EQ(*limited, expected)
          << "pattern: " << pattern << " limit: " << limit;
    }
  }
}

TEST_F(QueryEngineTest, ArbitraryOrderStopsEnumeratingAtTheLimit) {
  // LocateOrder::kArbitrary is the bounded-enumeration contract: the engine
  // may stop decoding leaf slots as soon as `limit` are in hand. The
  // regression pin is on leaves_enumerated — a decode-everything-then-trim
  // implementation would satisfy the result check but light this up.
  const std::string pattern = text_.substr(100, 4);
  auto full = engine_->Locate(pattern);
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->size(), 8u);

  for (std::size_t limit : {1u, 3u, 8u}) {
    const uint64_t before = engine_->stats().leaves_enumerated;
    auto limited = engine_->Locate(pattern, limit, LocateOrder::kArbitrary);
    ASSERT_TRUE(limited.ok());
    EXPECT_EQ(limited->size(), limit);
    // Arbitrary subset, but still sorted and still real occurrences.
    for (std::size_t i = 0; i + 1 < limited->size(); ++i) {
      EXPECT_LT((*limited)[i], (*limited)[i + 1]);
    }
    for (uint64_t hit : *limited) {
      EXPECT_NE(std::find(full->begin(), full->end(), hit), full->end());
    }
    // The pin: exactly `limit` slots were decoded, not the full match set.
    EXPECT_EQ(engine_->stats().leaves_enumerated - before, limit)
        << "limit: " << limit;
  }

  // kSmallest with the same limit must keep enumerating everything (that is
  // what buys the "smallest offsets" guarantee).
  const uint64_t before = engine_->stats().leaves_enumerated;
  auto smallest = engine_->Locate(pattern, 3);
  ASSERT_TRUE(smallest.ok());
  std::vector<uint64_t> expected(full->begin(), full->begin() + 3);
  EXPECT_EQ(*smallest, expected);
  EXPECT_EQ(engine_->stats().leaves_enumerated - before, full->size());
}

TEST_F(QueryEngineTest, CountNeverEnumeratesLeaves) {
  // Patterns long enough to leave the trie and land in a sub-tree with many
  // occurrences below the match node.
  std::vector<std::string> patterns = {text_.substr(0, 6),
                                       text_.substr(500, 8),
                                       text_.substr(4000, 10)};
  for (const std::string& pattern : patterns) {
    auto count = engine_->Count(pattern);
    ASSERT_TRUE(count.ok());
    EXPECT_GT(*count, 1u) << "pattern: " << pattern;  // non-trivial subtree
  }
  QueryStats stats = engine_->stats();
  // Count answers come from the counted layout's subtree leaf counts: zero
  // leaf records were materialized, and the walk visited a bounded number of
  // nodes per query (binary-search probes over |P| levels, not occ leaves).
  EXPECT_EQ(stats.leaves_enumerated, 0u);
  EXPECT_GT(stats.queries, 0u);
  EXPECT_LT(stats.nodes_visited, 64u * patterns.size());

  // Locate does enumerate; the counter proves the instrumentation works.
  auto hits = engine_->Locate(patterns[0]);
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(engine_->stats().leaves_enumerated, hits->size());

  // Contains goes through Count: still no enumeration.
  auto contains = engine_->Contains(patterns[1]);
  ASSERT_TRUE(contains.ok());
  EXPECT_TRUE(*contains);
  EXPECT_EQ(engine_->stats().leaves_enumerated, hits->size());
}

TEST_F(QueryEngineTest, DictionaryBatchMatchesSingles) {
  // The empty item fails on its own (per-item status); the rest of the
  // batch still answers.
  std::vector<std::string> patterns = {"A",
                                       "ACG",
                                       text_.substr(10, 12),
                                       "",
                                       text_.substr(3000, 7),
                                       "ACGTACGTACGTACGTACGTACGTACGTACGT"};
  DictMatchOptions locate_mode;
  locate_mode.locate = true;
  locate_mode.locate_limit = 20;
  auto outcomes = engine_->MatchDictionary(patterns, locate_mode);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const DictOutcome& outcome = (*outcomes)[i];
    auto count = engine_->Count(patterns[i]);
    ASSERT_EQ(outcome.status.code(), count.status().code())
        << "pattern: " << patterns[i];
    if (!count.ok()) {
      EXPECT_TRUE(outcome.status.IsInvalidArgument());
      continue;
    }
    EXPECT_EQ(outcome.count, *count) << "pattern: " << patterns[i];
    auto hits = engine_->Locate(patterns[i], 20);
    ASSERT_TRUE(hits.ok());
    EXPECT_EQ(outcome.offsets, *hits) << "pattern: " << patterns[i];
  }
}

TEST_F(QueryEngineTest, CountUsesTrieWithoutSubTreeIo) {
  uint64_t reads_before = engine_->io().bytes_read;
  auto count = engine_->Count("A");  // resolvable from trie frequencies
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(engine_->io().bytes_read, reads_before);
}

TEST(QueryEngineLifecycleTest, OpenFailsOnMissingIndex) {
  MemEnv env;
  EXPECT_FALSE(QueryEngine::Open(&env, "/nope").ok());
}

// ---------------------------------------------------------------------------
// Applications.
// ---------------------------------------------------------------------------

class ApplicationsTest : public ::testing::Test {
 protected:
  /// Builds an ERA index over `text` in `dir`, returning it.
  TreeIndex BuildIndex(const std::string& text, const std::string& dir,
                       const Alphabet& alphabet) {
    auto info = MaterializeText(&env_, dir + "_text", alphabet, text);
    EXPECT_TRUE(info.ok());
    BuildOptions options;
    options.env = &env_;
    options.work_dir = dir;
    options.memory_budget = 512 << 10;
    options.input_buffer_bytes = 4096;
    EraBuilder builder(options);
    auto result = builder.Build(*info);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result->index);
  }

  MemEnv env_;
};

TEST_F(ApplicationsTest, LongestRepeatedSubstringMatchesLcpOracle) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 5000, 81);
  TreeIndex index = BuildIndex(text, "/lrs", Alphabet::Dna());

  auto lrs = LongestRepeatedSubstring(&env_, index, text);
  ASSERT_TRUE(lrs.ok()) << lrs.status().ToString();

  // Oracle: the maximum LCP between adjacent suffixes.
  SaLcp oracle = testing::OracleSaLcp(text);
  uint64_t max_lcp =
      *std::max_element(oracle.lcp.begin(), oracle.lcp.end());
  EXPECT_EQ(lrs->length, max_lcp);
  // The witness substring must indeed occur at least twice.
  std::string witness = text.substr(lrs->offset, lrs->length);
  EXPECT_NE(text.find(witness, text.find(witness) + 1), std::string::npos);
}

TEST_F(ApplicationsTest, LongestRepeatedSubstringOnRandomText) {
  std::string text = testing::RandomText(Alphabet::Protein(), 4000, 82);
  TreeIndex index = BuildIndex(text, "/lrs2", Alphabet::Protein());
  auto lrs = LongestRepeatedSubstring(&env_, index, text);
  ASSERT_TRUE(lrs.ok());
  SaLcp oracle = testing::OracleSaLcp(text);
  EXPECT_EQ(lrs->length,
            *std::max_element(oracle.lcp.begin(), oracle.lcp.end()));
}

TEST_F(ApplicationsTest, MostFrequentKmerMatchesNaiveCount) {
  std::string text = testing::RepetitiveText(Alphabet::Dna(), 3000, 83);
  TreeIndex index = BuildIndex(text, "/kmer", Alphabet::Dna());

  for (uint64_t k : {3u, 8u, 16u}) {
    auto motif = MostFrequentKmer(&env_, index, text, k);
    ASSERT_TRUE(motif.ok()) << motif.status().ToString();

    // Naive: count all k-windows inside the body.
    std::map<std::string, uint64_t> counts;
    for (std::size_t i = 0; i + k < text.size(); ++i) {
      counts[text.substr(i, k)]++;
    }
    uint64_t best = 0;
    for (const auto& [w, c] : counts) best = std::max(best, c);
    EXPECT_EQ(motif->count, best) << "k=" << k;
    EXPECT_EQ(counts[text.substr(motif->offset, k)], best) << "k=" << k;
  }
}

TEST_F(ApplicationsTest, ConcatenateDocumentsLayout) {
  auto combined = ConcatenateDocuments({"abc", "de", "f"}, '#');
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->text, std::string("abc#de#f") + kTerminal);
  ASSERT_EQ(combined->documents.num_documents(), 3u);
  EXPECT_EQ(combined->documents.document(0).start, 0u);
  EXPECT_EQ(combined->documents.document(1).start, 4u);
  EXPECT_EQ(combined->documents.document(2).start, 7u);
  EXPECT_EQ(combined->documents.document(1).length, 2u);
  EXPECT_EQ(combined->documents.document(1).name, "doc1");
  EXPECT_EQ(combined->documents.separator(), '#');
  EXPECT_FALSE(ConcatenateDocuments({}, '#').ok());
}

TEST_F(ApplicationsTest, ConcatenateDocumentsRejectsReservedBytes) {
  // A document containing the separator or the terminal must fail at
  // ingestion (InvalidArgument), not later at LCS query time.
  auto sep_collision = ConcatenateDocuments({"ab#c", "de"}, '#');
  EXPECT_FALSE(sep_collision.ok());
  EXPECT_EQ(sep_collision.status().code(), Status::Code::kInvalidArgument);
  auto term_collision =
      ConcatenateDocuments({std::string("ab") + kTerminal, "de"}, '#');
  EXPECT_FALSE(term_collision.ok());
  EXPECT_EQ(term_collision.status().code(), Status::Code::kInvalidArgument);
  // The separator itself may not be the terminal.
  EXPECT_FALSE(ConcatenateDocuments({"ab"}, kTerminal).ok());
}

TEST_F(ApplicationsTest, ConcatenateDocumentsDegenerateLayouts) {
  // Single document: no separators, just the terminal.
  auto single = ConcatenateDocuments({"abc"}, '#');
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->text, std::string("abc") + kTerminal);
  ASSERT_EQ(single->documents.num_documents(), 1u);
  DocLocation loc;
  EXPECT_TRUE(single->documents.Resolve(2, &loc));
  EXPECT_EQ(loc.doc_id, 0u);
  EXPECT_FALSE(single->documents.Resolve(3, &loc));  // terminal

  // Empty documents in every position.
  auto with_empty = ConcatenateDocuments({"", "ab", "", "c", ""}, '#');
  ASSERT_TRUE(with_empty.ok());
  EXPECT_EQ(with_empty->text, std::string("#ab##c#") + kTerminal);
  ASSERT_EQ(with_empty->documents.num_documents(), 5u);
  EXPECT_TRUE(with_empty->documents.Resolve(1, &loc));
  EXPECT_EQ(loc.doc_id, 1u);
  EXPECT_EQ(loc.local_offset, 0u);
  EXPECT_TRUE(with_empty->documents.Resolve(5, &loc));
  EXPECT_EQ(loc.doc_id, 3u);
  // Separators and the terminal resolve to no document.
  for (uint64_t off : {0u, 3u, 4u, 6u, 7u}) {
    EXPECT_FALSE(with_empty->documents.Resolve(off, &loc)) << off;
  }
}

TEST_F(ApplicationsTest, LongestCommonSubstringMatchesNaiveDp) {
  // Two English-like documents with a planted common phrase.
  std::string a = testing::RandomText(Alphabet::English(), 600, 84);
  a.pop_back();  // strip terminal
  std::string b = testing::RandomText(Alphabet::English(), 500, 85);
  b.pop_back();
  const std::string planted = "thequickbrownfoxjumps";
  a.insert(200, planted);
  b.insert(350, planted);

  auto combined = ConcatenateDocuments({a, b}, '#');
  ASSERT_TRUE(combined.ok());
  auto alphabet = Alphabet::Create("#abcdefghijklmnopqrstuvwxyz");
  ASSERT_TRUE(alphabet.ok());
  TreeIndex index = BuildIndex(combined->text, "/lcs", *alphabet);

  auto lcs = LongestCommonSubstring(&env_, index, combined->documents, 0, 1);
  ASSERT_TRUE(lcs.ok()) << lcs.status().ToString();

  // Naive DP oracle for the LCS length.
  std::vector<std::vector<uint32_t>> dp(a.size() + 1,
                                        std::vector<uint32_t>(b.size() + 1));
  uint32_t naive = 0;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    for (std::size_t j = 1; j <= b.size(); ++j) {
      if (a[i - 1] == b[j - 1]) {
        dp[i][j] = dp[i - 1][j - 1] + 1;
        naive = std::max(naive, dp[i][j]);
      }
    }
  }
  EXPECT_GE(naive, planted.size());
  EXPECT_EQ(lcs->length, naive);

  // The witness must occur in both documents.
  std::string witness = combined->text.substr(lcs->offset, lcs->length);
  EXPECT_NE(a.find(witness), std::string::npos);
  EXPECT_NE(b.find(witness), std::string::npos);
}

/// Block-served answers under a cache that holds one block: every query
/// evicts and reloads, and Count, Locate and MatchDictionary must still
/// agree with the naive scan, for both served formats and at 1 and 8
/// threads.
TEST(BlockServingTest, OneBlockBudgetAnswersMatchOracleAcrossFormats) {
  for (SubTreeFormat format :
       {SubTreeFormat::kPacked, SubTreeFormat::kCounted}) {
    MemEnv env;
    const std::string text =
        testing::RepetitiveText(Alphabet::Dna(), 6000, 17);
    auto info = MaterializeText(&env, "/text", Alphabet::Dna(), text);
    ASSERT_TRUE(info.ok());
    BuildOptions build;
    build.env = &env;
    build.work_dir = "/idx";
    build.memory_budget = 512 << 10;
    build.input_buffer_bytes = 4096;
    build.format = format;
    EraBuilder builder(build);
    auto built = builder.Build(*info);
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    std::vector<std::string> patterns;
    for (std::size_t i = 0; i + 40 < text.size(); i += 97) {
      patterns.push_back(text.substr(i, 3 + i % 29));
    }
    patterns.push_back("ACGTTGCAACGT");  // likely absent
    std::vector<std::vector<uint64_t>> expected;
    for (const std::string& p : patterns) {
      expected.push_back(NaiveLocate(text, p));
    }

    for (unsigned threads : {1u, 8u}) {
      QueryEngineOptions options;
      options.cache.budget_bytes = 4096;
      options.cache.shards = 1;
      auto engine = QueryEngine::Open(&env, "/idx", options);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      std::atomic<int> wrong{0};
      std::vector<std::thread> pool;
      for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
          for (std::size_t i = t; i < patterns.size(); i += threads) {
            auto count = (*engine)->Count(patterns[i]);
            auto located = (*engine)->Locate(patterns[i]);
            if (!count.ok() || *count != expected[i].size() ||
                !located.ok() || *located != expected[i]) {
              ++wrong;
            }
          }
          DictMatchOptions locate;
          locate.locate = true;
          for (const DictMatchOptions& mode : {DictMatchOptions{}, locate}) {
            auto batch = (*engine)->MatchDictionary(patterns, mode);
            if (!batch.ok()) {
              ++wrong;
              continue;
            }
            for (std::size_t i = 0; i < patterns.size(); ++i) {
              const DictOutcome& o = (*batch)[i];
              if (!o.status.ok() || o.count != expected[i].size() ||
                  (mode.locate && o.offsets != expected[i])) {
                ++wrong;
              }
            }
          }
        });
      }
      for (std::thread& thread : pool) thread.join();
      EXPECT_EQ(wrong.load(), 0) << "format " << static_cast<int>(format)
                                 << ", " << threads << " threads";
      const TreeIndex::CacheSnapshot cache = (*engine)->cache();
      EXPECT_GT(cache.evictions, 0u);
      EXPECT_GT(cache.block_misses, 0u);
      EXPECT_TRUE((*engine)->quarantine().empty());
    }
  }
}

}  // namespace
}  // namespace era
