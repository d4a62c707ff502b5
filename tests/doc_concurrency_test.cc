// Concurrent document-aware serving: one DocEngine hammered from 8 threads
// with mixed CountDocs/TopKDocuments/LocateInDoc/batch traffic interleaved
// with cache-evicting sweeps, checked against serially computed answers.
// Runs under the ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "io/mem_env.h"
#include "tests/test_util.h"

namespace era {
namespace {

class DocConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CollectionBuildOptions options;
    options.build.env = &env_;
    options.build.work_dir = "/col";
    options.build.memory_budget = 256 << 10;  // force several sub-trees
    options.build.input_buffer_bytes = 4096;
    options.num_workers = 2;

    CollectionBuilder builder(Alphabet::Dna(), options);
    std::mt19937_64 rng(97);
    for (int d = 0; d < 40; ++d) {
      std::string body =
          testing::RepetitiveText(Alphabet::Dna(), 200 + (d % 5) * 80, rng());
      body.pop_back();
      docs_.push_back(body);
      ASSERT_TRUE(builder.AddDocument("doc" + std::to_string(d), body).ok());
    }
    auto built = builder.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();

    // Tiny cache budget so concurrent traffic constantly loads and evicts.
    QueryEngineOptions engine_options;
    engine_options.cache.budget_bytes = 64 << 10;
    engine_options.cache.shards = 4;
    auto engine = DocEngine::Open(&env_, "/col", engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);

    // Workload + serial ground truth.
    for (int i = 0; i < 120; ++i) {
      const std::string& doc = docs_[i % docs_.size()];
      std::size_t len = 3 + static_cast<std::size_t>(rng() % 10);
      std::size_t pos = rng() % (doc.size() - len);
      patterns_.push_back(doc.substr(pos, len));
    }
    for (const std::string& pattern : patterns_) {
      auto histogram = engine_->DocumentHistogram(pattern);
      ASSERT_TRUE(histogram.ok());
      expected_histograms_.push_back(std::move(*histogram));
      auto local = engine_->LocateInDoc(pattern, 13);
      ASSERT_TRUE(local.ok());
      expected_local_.push_back(std::move(*local));
    }
  }

  MemEnv env_;
  std::vector<std::string> docs_;
  std::unique_ptr<DocEngine> engine_;
  std::vector<std::string> patterns_;
  std::vector<std::vector<DocHit>> expected_histograms_;
  std::vector<std::vector<uint64_t>> expected_local_;
};

TEST_F(DocConcurrencyTest, EightThreadsMatchSerialAnswers) {
  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 3;
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> queries{0};

  auto worker = [&](unsigned t) {
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = t; i < patterns_.size(); i += kThreads) {
        const std::string& pattern = patterns_[i];
        switch ((i + round) % 4) {
          case 0: {
            auto count = engine_->CountDocs(pattern);
            if (!count.ok()) ++errors;
            else if (*count != expected_histograms_[i].size()) ++mismatches;
            break;
          }
          case 1: {
            auto topk = engine_->TopKDocuments(pattern, 5);
            if (!topk.ok()) ++errors;
            else if (*topk !=
                     TopKFromHistogram(expected_histograms_[i], 5)) {
              ++mismatches;
            }
            break;
          }
          case 2: {
            auto local = engine_->LocateInDoc(pattern, 13);
            if (!local.ok()) ++errors;
            else if (*local != expected_local_[i]) ++mismatches;
            break;
          }
          default: {
            auto outcomes = engine_->CountDocsDictionary({pattern});
            if (!outcomes.ok() || outcomes->size() != 1 ||
                !(*outcomes)[0].status.ok()) {
              ++errors;
            } else if ((*outcomes)[0].count !=
                       expected_histograms_[i].size()) {
              ++mismatches;
            }
            break;
          }
        }
        ++queries;
      }
    }
  };

  // One additional thread generates cache-evicting traffic racing the doc
  // queries (same adversarial pattern as the plain-query concurrency test).
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    uint32_t id = 0;
    const TreeIndex& index = engine_->engine().index();
    while (!stop.load(std::memory_order_relaxed)) {
      index.EvictCache();
      IoStats scratch;
      (void)index.OpenSubTree(&env_, id++ % index.subtrees().size(), &scratch);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& thread : threads) thread.join();
  stop.store(true);
  evictor.join();

  EXPECT_EQ(errors.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(queries.load(), kRounds * patterns_.size());

  // The doc-query aggregates are consistent with the traffic, and no
  // occurrence ever fell outside a document.
  DocQueryStats stats = engine_->doc_stats();
  EXPECT_GE(stats.queries, queries.load());
  EXPECT_EQ(stats.offsets_outside_documents, 0u);
  EXPECT_GT(engine_->engine().cache().evictions, 0u);
}

}  // namespace
}  // namespace era
