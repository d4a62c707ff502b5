// Document-collection subsystem: DocumentMap persistence and resolution,
// CollectionBuilder ingestion, and DocEngine answers cross-checked against
// brute-force scans over the original documents.

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "io/mem_env.h"
#include "suffixtree/serializer.h"
#include "tests/test_util.h"
#include "text/fasta.h"

namespace era {
namespace {

// ---------------------------------------------------------------------------
// DocumentMap unit tests.
// ---------------------------------------------------------------------------

TEST(DocumentMapTest, CreateValidatesLayout) {
  // Valid: ascending spans with >= 1 byte gaps.
  auto ok = DocumentMap::Create({{"a", 0, 3}, {"b", 4, 2}, {"c", 7, 0}}, '|');
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  // Overlapping spans.
  EXPECT_FALSE(DocumentMap::Create({{"a", 0, 3}, {"b", 2, 2}}, '|').ok());
  // No separator gap between consecutive documents.
  EXPECT_FALSE(DocumentMap::Create({{"a", 0, 3}, {"b", 3, 2}}, '|').ok());
  // Duplicate / empty names.
  EXPECT_FALSE(DocumentMap::Create({{"a", 0, 3}, {"a", 4, 2}}, '|').ok());
  EXPECT_FALSE(DocumentMap::Create({{"", 0, 3}}, '|').ok());
  // Separator may not be the terminal.
  EXPECT_FALSE(DocumentMap::Create({{"a", 0, 3}}, kTerminal).ok());
  // Spans whose arithmetic would wrap uint64 must fail closed (a CRC-valid
  // but hand-crafted DOCMAP goes through this same validation on Load).
  EXPECT_FALSE(
      DocumentMap::Create({{"a", 0, UINT64_MAX}, {"b", 5, 1}}, '|').ok());
  EXPECT_FALSE(DocumentMap::Create({{"a", 5, UINT64_MAX}}, '|').ok());
  EXPECT_FALSE(
      DocumentMap::Create({{"a", UINT64_MAX, 0}, {"b", 3, 1}}, '|').ok());
}

TEST(DocumentMapTest, ResolveEdges) {
  auto map =
      DocumentMap::Create({{"a", 0, 5}, {"empty", 6, 0}, {"b", 7, 3}}, '|');
  ASSERT_TRUE(map.ok());
  DocLocation loc;

  EXPECT_TRUE(map->Resolve(0, &loc));
  EXPECT_EQ(loc.doc_id, 0u);
  EXPECT_EQ(loc.local_offset, 0u);
  EXPECT_TRUE(map->Resolve(4, &loc));
  EXPECT_EQ(loc.doc_id, 0u);
  EXPECT_EQ(loc.local_offset, 4u);
  EXPECT_FALSE(map->Resolve(5, &loc));  // separator after doc a
  EXPECT_FALSE(map->Resolve(6, &loc));  // separator "inside" the empty doc's
                                        // slot (empty docs own no bytes)
  EXPECT_TRUE(map->Resolve(7, &loc));
  EXPECT_EQ(loc.doc_id, 2u);
  EXPECT_EQ(loc.local_offset, 0u);
  EXPECT_TRUE(map->Resolve(9, &loc));
  EXPECT_EQ(loc.doc_id, 2u);
  EXPECT_FALSE(map->Resolve(10, &loc));   // terminal
  EXPECT_FALSE(map->Resolve(1000, &loc));  // way past the end

  // Span resolution: inside, exactly filling, and crossing out of a doc.
  EXPECT_TRUE(map->ResolveSpan(7, 3, &loc));
  EXPECT_EQ(loc.doc_id, 2u);
  EXPECT_TRUE(map->ResolveSpan(0, 5, &loc));
  EXPECT_FALSE(map->ResolveSpan(3, 3, &loc));  // runs into the separator
  EXPECT_FALSE(map->ResolveSpan(5, 1, &loc));  // starts on the separator

  EXPECT_EQ(map->TotalDocumentBytes(), 8u);
  auto id = map->FindDocument("empty");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);
  EXPECT_FALSE(map->FindDocument("nope").ok());
}

TEST(DocumentMapTest, SaveLoadRoundTrip) {
  MemEnv env;
  auto map = DocumentMap::Create(
      {{"genome/chr1", 0, 100}, {"genome/chr2", 101, 0}, {"x", 102, 7}}, '|');
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Save(&env, "/DOCMAP").ok());

  auto loaded = DocumentMap::Load(&env, "/DOCMAP");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->separator(), '|');
  ASSERT_EQ(loaded->num_documents(), 3u);
  for (uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(loaded->document(i).name, map->document(i).name);
    EXPECT_EQ(loaded->document(i).start, map->document(i).start);
    EXPECT_EQ(loaded->document(i).length, map->document(i).length);
  }
}

TEST(DocumentMapTest, CorruptionIsDetected) {
  MemEnv env;
  auto map = DocumentMap::Create({{"a", 0, 9}, {"bb", 10, 4}}, '|');
  ASSERT_TRUE(map.ok());
  ASSERT_TRUE(map->Save(&env, "/DOCMAP").ok());
  std::string good;
  ASSERT_TRUE(env.ReadFileToString("/DOCMAP", &good).ok());

  // Any single flipped byte (magic, payload, or stored CRC) must fail Load.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string bad = good;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    ASSERT_TRUE(env.WriteFile("/DOCMAP", bad).ok());
    auto loaded = DocumentMap::Load(&env, "/DOCMAP");
    EXPECT_FALSE(loaded.ok()) << "flipped byte " << i << " not detected";
  }

  // Truncations must fail too (including cutting into the CRC footer).
  for (std::size_t keep : {0u, 4u, 11u}) {
    ASSERT_TRUE(env.WriteFile("/DOCMAP", good.substr(0, keep)).ok());
    EXPECT_FALSE(DocumentMap::Load(&env, "/DOCMAP").ok()) << keep;
  }
  ASSERT_TRUE(
      env.WriteFile("/DOCMAP", good.substr(0, good.size() - 2)).ok());
  EXPECT_FALSE(DocumentMap::Load(&env, "/DOCMAP").ok());

  // Not-a-DOCMAP content.
  ASSERT_TRUE(env.WriteFile("/DOCMAP", "format: era-tree-index-v1\n").ok());
  EXPECT_FALSE(DocumentMap::Load(&env, "/DOCMAP").ok());
}

// ---------------------------------------------------------------------------
// CollectionBuilder ingestion.
// ---------------------------------------------------------------------------

CollectionBuildOptions SmallCollectionOptions(Env* env, const std::string& dir,
                                              unsigned workers = 1) {
  CollectionBuildOptions options;
  options.build.env = env;
  options.build.work_dir = dir;
  options.build.memory_budget = 512 << 10;
  options.build.input_buffer_bytes = 4096;
  options.num_workers = workers;
  return options;
}

TEST(CollectionBuilderTest, RejectsBadDocuments) {
  MemEnv env;
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/idx"));
  EXPECT_FALSE(builder.AddDocument("", "ACGT").ok());
  EXPECT_TRUE(builder.AddDocument("a", "ACGT").ok());
  EXPECT_FALSE(builder.AddDocument("a", "GGTT").ok());  // duplicate name
  EXPECT_FALSE(builder.AddDocument("sep", "AC|GT").ok());
  EXPECT_FALSE(
      builder.AddDocument("term", std::string("AC") + kTerminal).ok());
  EXPECT_FALSE(builder.AddDocument("foreign", "ACGTN").ok());
  EXPECT_EQ(builder.num_documents(), 1u);
}

TEST(CollectionBuilderTest, RejectsSeparatorBelowAlphabet) {
  MemEnv env;
  auto options = SmallCollectionOptions(&env, "/idx");
  options.separator = 'A';  // inside the DNA alphabet: must be refused
  CollectionBuilder builder(Alphabet::Dna(), options);
  ASSERT_TRUE(builder.AddDocument("a", "ACGT").ok());
  EXPECT_FALSE(builder.Build().ok());
}

TEST(CollectionBuilderTest, BuildsEmptyCollectionFails) {
  MemEnv env;
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/idx"));
  EXPECT_FALSE(builder.Build().ok());
}

TEST(CollectionBuilderTest, FastaRecordsBecomeDocuments) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/multi.fa",
                            "> chr1 \nACGT\nACGT\n"
                            ">chr2\nggtt\n"
                            ">chr3\nNNNACANNN\n")
                  .ok());
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/fasta_idx"));
  ASSERT_TRUE(
      builder.AddFastaFile(&env, "/multi.fa", FastaCleanPolicy::kSkip).ok());
  ASSERT_EQ(builder.num_documents(), 3u);

  auto result = builder.Build();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->documents.document(0).name, "chr1");
  EXPECT_EQ(result->documents.document(0).length, 8u);  // line-wrap joined
  EXPECT_EQ(result->documents.document(1).name, "chr2");
  EXPECT_EQ(result->documents.document(1).length, 4u);  // uppercased
  EXPECT_EQ(result->documents.document(2).name, "chr3");
  EXPECT_EQ(result->documents.document(2).length, 3u);  // 'N' runs skipped

  auto engine = DocEngine::Open(&env, "/fasta_idx");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto docs = (*engine)->CountDocs("ACGT");
  ASSERT_TRUE(docs.ok());
  EXPECT_EQ(*docs, 1u);  // only chr1 (chr2 is GGTT, chr3 is ACA)
  auto gg = (*engine)->CountDocs("GG");
  ASSERT_TRUE(gg.ok());
  EXPECT_EQ(*gg, 1u);
  auto local = (*engine)->LocateInDoc("ACGT", 0);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(*local, (std::vector<uint64_t>{0, 4}));
}

TEST(CollectionBuilderTest, TextFilesAndTerminalStripping) {
  MemEnv env;
  ASSERT_TRUE(env.WriteFile("/a.txt", std::string("ACGTAC") + kTerminal).ok());
  ASSERT_TRUE(env.WriteFile("/b.txt", "GGTT").ok());
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/txt_idx"));
  ASSERT_TRUE(builder.AddTextFile(&env, "/a.txt").ok());
  ASSERT_TRUE(builder.AddTextFile(&env, "/b.txt", "bee").ok());
  auto result = builder.Build();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->documents.document(0).name, "/a.txt");
  EXPECT_EQ(result->documents.document(0).length, 6u);
  EXPECT_EQ(result->documents.document(1).name, "bee");
}

// ---------------------------------------------------------------------------
// Randomized cross-check against brute-force document scans.
// ---------------------------------------------------------------------------

/// Overlapping occurrence offsets of `pattern` in `doc` by naive scan.
std::vector<uint64_t> ScanDoc(const std::string& doc,
                              const std::string& pattern) {
  std::vector<uint64_t> hits;
  if (pattern.empty() || doc.size() < pattern.size()) return hits;
  std::size_t pos = doc.find(pattern);
  while (pos != std::string::npos) {
    hits.push_back(pos);
    pos = doc.find(pattern, pos + 1);
  }
  return hits;
}

struct BruteForce {
  std::vector<DocHit> histogram;  // ascending doc id, matching docs only
  std::map<uint32_t, std::vector<uint64_t>> local_hits;
};

BruteForce ScanAllDocs(const std::vector<std::string>& docs,
                       const std::string& pattern) {
  BruteForce result;
  for (uint32_t d = 0; d < docs.size(); ++d) {
    std::vector<uint64_t> hits = ScanDoc(docs[d], pattern);
    if (!hits.empty()) {
      result.histogram.push_back({d, hits.size()});
      result.local_hits[d] = std::move(hits);
    }
  }
  return result;
}

class CollectionRandomizedTest
    : public ::testing::TestWithParam<std::pair<const char*, int>> {
 protected:
  Alphabet TestAlphabet() const {
    switch (GetParam().second) {
      case 0:
        return Alphabet::Dna();
      case 1:
        return Alphabet::Protein();
      default:
        return Alphabet::English();
    }
  }
};

TEST_P(CollectionRandomizedTest, DocQueriesMatchBruteForceScans) {
  const Alphabet alphabet = TestAlphabet();
  const uint64_t seed = 1000 + GetParam().second;
  std::mt19937_64 rng(seed);

  // >= 50 documents with wildly varying lengths, some empty, some highly
  // repetitive (shared units => patterns hitting many documents).
  std::vector<std::string> docs;
  std::string shared_unit =
      testing::RandomText(alphabet, 12, seed + 7);
  shared_unit.pop_back();  // strip terminal
  std::uniform_int_distribution<std::size_t> len_dist(10, 300);
  for (int d = 0; d < 56; ++d) {
    if (d % 19 == 3) {
      docs.emplace_back();  // empty document
      continue;
    }
    std::string body = testing::RandomText(alphabet, len_dist(rng), rng());
    body.pop_back();
    if (d % 3 == 0) {
      // Plant the shared unit so many documents contain a common pattern.
      std::uniform_int_distribution<std::size_t> pos_dist(0, body.size());
      body.insert(pos_dist(rng), shared_unit);
    }
    docs.push_back(std::move(body));
  }
  ASSERT_GE(docs.size(), 50u);

  MemEnv env;
  const unsigned workers = GetParam().second == 0 ? 3 : 1;
  CollectionBuilder builder(alphabet,
                            SmallCollectionOptions(&env, "/col", workers));
  for (std::size_t d = 0; d < docs.size(); ++d) {
    ASSERT_TRUE(builder.AddDocument("doc" + std::to_string(d), docs[d]).ok());
  }
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  ASSERT_EQ(built->documents.num_documents(), docs.size());

  auto engine = DocEngine::Open(&env, "/col");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Pattern mix: substrings of random documents, the shared unit and its
  // pieces, mutated (mostly-absent) strings, and boundary spans.
  std::vector<std::string> patterns = {shared_unit,
                                       shared_unit.substr(0, 4),
                                       shared_unit.substr(3, 6)};
  std::uniform_int_distribution<std::size_t> pat_len_dist(2, 14);
  while (patterns.size() < 60) {
    std::uniform_int_distribution<std::size_t> doc_dist(0, docs.size() - 1);
    const std::string& doc = docs[doc_dist(rng)];
    if (doc.size() < 2) continue;
    std::size_t len = std::min(pat_len_dist(rng), doc.size());
    std::uniform_int_distribution<std::size_t> pos_dist(0, doc.size() - len);
    std::string pattern = doc.substr(pos_dist(rng), len);
    if (patterns.size() % 5 == 0) {
      pattern.back() = alphabet.Symbol(
          static_cast<int>(rng() % static_cast<uint64_t>(alphabet.size())));
    }
    patterns.push_back(std::move(pattern));
  }

  uint64_t nonzero_answers = 0;
  for (const std::string& pattern : patterns) {
    BruteForce expected = ScanAllDocs(docs, pattern);

    auto histogram = (*engine)->DocumentHistogram(pattern);
    ASSERT_TRUE(histogram.ok()) << histogram.status().ToString();
    EXPECT_EQ(*histogram, expected.histogram) << "pattern: " << pattern;

    auto count_docs = (*engine)->CountDocs(pattern);
    ASSERT_TRUE(count_docs.ok());
    EXPECT_EQ(*count_docs, expected.histogram.size());
    nonzero_answers += *count_docs > 0 ? 1 : 0;

    for (std::size_t k : {1u, 3u, 1000u}) {
      auto topk = (*engine)->TopKDocuments(pattern, k);
      ASSERT_TRUE(topk.ok());
      EXPECT_EQ(*topk, TopKFromHistogram(expected.histogram, k))
          << "pattern: " << pattern << " k=" << k;
    }
  }
  EXPECT_GT(nonzero_answers, 10u);  // the workload actually exercises hits

  // LocateInDoc on every matching (pattern, doc) pair of a pattern subset.
  for (std::size_t i = 0; i < 10; ++i) {
    const std::string& pattern = patterns[i];
    BruteForce expected = ScanAllDocs(docs, pattern);
    for (uint32_t d : {0u, 5u, 17u, 42u}) {
      auto local = (*engine)->LocateInDoc(pattern, d);
      ASSERT_TRUE(local.ok());
      auto it = expected.local_hits.find(d);
      if (it == expected.local_hits.end()) {
        EXPECT_TRUE(local->empty()) << "pattern: " << pattern << " doc " << d;
      } else {
        EXPECT_EQ(*local, it->second) << "pattern: " << pattern << " doc " << d;
      }
    }
  }

  // The doc path never saw an occurrence outside a document: a pattern over
  // the document alphabet cannot start on a separator or terminal byte.
  EXPECT_EQ((*engine)->doc_stats().offsets_outside_documents, 0u);
  EXPECT_GT((*engine)->doc_stats().queries, 0u);
}

TEST_P(CollectionRandomizedTest, PatternsNeverMatchAcrossBoundaries) {
  const Alphabet alphabet = TestAlphabet();
  const uint64_t seed = 2000 + GetParam().second;
  std::mt19937_64 rng(seed);

  std::vector<std::string> docs;
  for (int d = 0; d < 50; ++d) {
    std::string body = testing::RandomText(alphabet, 40 + (d % 7) * 30, rng());
    body.pop_back();
    docs.push_back(std::move(body));
  }

  MemEnv env;
  CollectionBuilder builder(alphabet, SmallCollectionOptions(&env, "/iso"));
  for (std::size_t d = 0; d < docs.size(); ++d) {
    ASSERT_TRUE(builder.AddDocument("doc" + std::to_string(d), docs[d]).ok());
  }
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  auto engine = DocEngine::Open(&env, "/iso");
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Boundary spans: the last `a` symbols of doc i glued to the first `b`
  // symbols of doc i+1 — exactly what a collection index must NOT match
  // (the separator sits between them in the indexed text).
  uint64_t spans_checked = 0;
  for (std::size_t d = 0; d + 1 < docs.size(); d += 3) {
    const std::string& left = docs[d];
    const std::string& right = docs[d + 1];
    for (std::size_t a : {1u, 3u, 6u}) {
      for (std::size_t b : {1u, 3u, 6u}) {
        if (left.size() < a || right.size() < b) continue;
        std::string span = left.substr(left.size() - a) + right.substr(0, b);
        BruteForce expected = ScanAllDocs(docs, span);

        // Document-level answers equal the brute-force scan (usually zero
        // documents; coincidental in-document occurrences stay counted).
        auto histogram = (*engine)->DocumentHistogram(span);
        ASSERT_TRUE(histogram.ok());
        EXPECT_EQ(*histogram, expected.histogram) << "span: " << span;

        // And the raw pattern engine over the CONCATENATED text agrees with
        // the sum of in-document occurrences: the separator layout leaves no
        // extra cross-boundary match to find.
        uint64_t in_doc_total = 0;
        for (const DocHit& hit : expected.histogram) {
          in_doc_total += hit.occurrences;
        }
        auto raw = (*engine)->engine().Count(span);
        ASSERT_TRUE(raw.ok());
        EXPECT_EQ(*raw, in_doc_total) << "span: " << span;
        ++spans_checked;
      }
    }
  }
  EXPECT_GT(spans_checked, 100u);

  // Patterns carrying the reserved bytes are rejected outright.
  EXPECT_FALSE((*engine)->CountDocs(std::string(1, kDocSeparator)).ok());
  EXPECT_FALSE(
      (*engine)->CountDocs(docs[0].substr(0, 2) + kDocSeparator).ok());
  EXPECT_FALSE((*engine)->CountDocs(std::string(1, kTerminal)).ok());
  EXPECT_FALSE((*engine)->CountDocs("").ok());
  EXPECT_FALSE((*engine)->LocateInDoc("A|", 0).ok());
  EXPECT_FALSE(
      (*engine)
          ->LocateInDoc(docs[0].substr(0, 1),
                        built->documents.num_documents())
          .ok());
}

INSTANTIATE_TEST_SUITE_P(Alphabets, CollectionRandomizedTest,
                         ::testing::Values(std::make_pair("dna", 0),
                                           std::make_pair("protein", 1),
                                           std::make_pair("english", 2)),
                         [](const auto& info) { return info.param.first; });

// ---------------------------------------------------------------------------
// DocEngine over index format versions and corrupt catalogs.
// ---------------------------------------------------------------------------

TEST(DocEngineTest, OpenFailsOnCorruptDocmap) {
  MemEnv env;
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/cor"));
  ASSERT_TRUE(builder.AddSyntheticDocuments(8, 200, 11).ok());
  ASSERT_TRUE(builder.Build().ok());
  ASSERT_TRUE(DocEngine::Open(&env, "/cor").ok());

  std::string raw;
  ASSERT_TRUE(env.ReadFileToString("/cor/DOCMAP", &raw).ok());
  std::string bad = raw;
  bad[raw.size() / 2] = static_cast<char>(bad[raw.size() / 2] ^ 0x01);
  ASSERT_TRUE(env.WriteFile("/cor/DOCMAP", bad).ok());
  auto engine = DocEngine::Open(&env, "/cor");
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), Status::Code::kCorruption);

  // Missing DOCMAP: a plain index directory is not a collection.
  ASSERT_TRUE(env.DeleteFile("/cor/DOCMAP").ok());
  EXPECT_FALSE(DocEngine::Open(&env, "/cor").ok());
}

TEST(DocEngineTest, V1MirrorAnswersIdentically) {
  MemEnv env;
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/v2col"));
  std::mt19937_64 rng(33);
  std::vector<std::string> docs;
  for (int d = 0; d < 20; ++d) {
    std::string body = testing::RepetitiveText(Alphabet::Dna(), 150, rng());
    body.pop_back();
    docs.push_back(body);
    ASSERT_TRUE(builder.AddDocument("doc" + std::to_string(d), body).ok());
  }
  auto built = builder.Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  // Mirror: same MANIFEST, TEXT reference and DOCMAP, but every sub-tree
  // file rewritten in the legacy v1 linked format.
  ASSERT_TRUE(env.CreateDir("/v1col").ok());
  for (const char* file : {"MANIFEST", "DOCMAP"}) {
    std::string raw;
    ASSERT_TRUE(
        env.ReadFileToString(std::string("/v2col/") + file, &raw).ok());
    ASSERT_TRUE(env.WriteFile(std::string("/v1col/") + file, raw).ok());
  }
  for (const SubTreeEntry& entry : built->index.subtrees()) {
    TreeBuffer tree;
    std::string prefix;
    ASSERT_TRUE(ReadSubTree(&env, "/v2col/" + entry.filename, &tree, &prefix,
                            nullptr)
                    .ok());
    ASSERT_TRUE(WriteSubTreeV1(&env, "/v1col/" + entry.filename, prefix, tree,
                               nullptr)
                    .ok());
  }

  auto v2 = DocEngine::Open(&env, "/v2col");
  auto v1 = DocEngine::Open(&env, "/v1col");
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();

  std::vector<std::string> patterns;
  for (const std::string& doc : docs) {
    patterns.push_back(doc.substr(0, 5));
    patterns.push_back(doc.substr(doc.size() / 2, 8));
  }
  patterns.push_back("ACGTACGTACGTACGT");  // likely absent
  for (const std::string& pattern : patterns) {
    auto h2 = (*v2)->DocumentHistogram(pattern);
    auto h1 = (*v1)->DocumentHistogram(pattern);
    ASSERT_TRUE(h2.ok());
    ASSERT_TRUE(h1.ok());
    EXPECT_EQ(*h2, *h1) << "pattern: " << pattern;
    auto top2 = (*v2)->TopKDocuments(pattern, 4);
    auto top1 = (*v1)->TopKDocuments(pattern, 4);
    ASSERT_TRUE(top2.ok());
    ASSERT_TRUE(top1.ok());
    EXPECT_EQ(*top2, *top1);
    auto loc2 = (*v2)->LocateInDoc(pattern, 7);
    auto loc1 = (*v1)->LocateInDoc(pattern, 7);
    ASSERT_TRUE(loc2.ok());
    ASSERT_TRUE(loc1.ok());
    EXPECT_EQ(*loc2, *loc1);
  }
}

TEST(DocEngineTest, DictionaryCountsMatchSingles) {
  MemEnv env;
  CollectionBuilder builder(Alphabet::Dna(),
                            SmallCollectionOptions(&env, "/batch"));
  ASSERT_TRUE(builder.AddSyntheticDocuments(30, 120, 5).ok());
  ASSERT_TRUE(builder.Build().ok());
  auto engine = DocEngine::Open(&env, "/batch");
  ASSERT_TRUE(engine.ok());

  // Invalid items (empty, reserved separator) fail on their own; the valid
  // items around them still get the per-pattern answers.
  std::vector<std::string> patterns = {"A",  "AC",   "GT", "ACGTACGT",
                                       "",   "TTTT", "|",  "AC"};
  auto outcomes = (*engine)->CountDocsDictionary(patterns);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ASSERT_EQ(outcomes->size(), patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    auto count = (*engine)->CountDocs(patterns[i]);
    const CountOutcome& outcome = (*outcomes)[i];
    ASSERT_EQ(outcome.status.code(), count.status().code())
        << "pattern: " << patterns[i];
    if (count.ok()) {
      EXPECT_EQ(outcome.count, *count) << "pattern: " << patterns[i];
    } else {
      EXPECT_TRUE(outcome.status.IsInvalidArgument());
    }
  }
}

}  // namespace
}  // namespace era
