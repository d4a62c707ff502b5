// Concurrent serving: one QueryEngine hammered from 8 threads with mixed
// Count/Locate/Contains/batch traffic interleaved with cache-evicting
// sweeps, checked against serially computed answers. Runs under the
// ThreadSanitizer CI job.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "era/era_builder.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "tests/test_util.h"

namespace era {
namespace {

class QueryConcurrencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    text_ = testing::RepetitiveText(Alphabet::Dna(), 12000, 47);
    auto info = MaterializeText(&env_, "/text", Alphabet::Dna(), text_);
    ASSERT_TRUE(info.ok());

    BuildOptions options;
    options.env = &env_;
    options.work_dir = "/idx";
    options.memory_budget = 256 << 10;  // force several sub-trees
    options.input_buffer_bytes = 4096;
    EraBuilder builder(options);
    auto result = builder.Build(*info);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    // Tiny cache budget so concurrent traffic constantly loads and evicts.
    QueryEngineOptions engine_options;
    engine_options.cache.budget_bytes = 64 << 10;
    engine_options.cache.shards = 4;
    auto engine = QueryEngine::Open(&env_, "/idx", engine_options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);

    // Workload + serial ground truth.
    QueryWorkloadOptions workload;
    workload.num_patterns = 160;
    workload.min_len = 3;
    workload.max_len = 16;
    workload.seed = 7;
    patterns_ = SamplePatternWorkload(text_, workload);
    ASSERT_FALSE(patterns_.empty());
    for (const std::string& pattern : patterns_) {
      auto count = engine_->Count(pattern);
      ASSERT_TRUE(count.ok());
      expected_counts_.push_back(*count);
      auto hits = engine_->Locate(pattern, 25);
      ASSERT_TRUE(hits.ok());
      expected_hits_.push_back(std::move(*hits));
    }
  }

  MemEnv env_;
  std::string text_;
  std::unique_ptr<QueryEngine> engine_;
  std::vector<std::string> patterns_;
  std::vector<uint64_t> expected_counts_;
  std::vector<std::vector<uint64_t>> expected_hits_;
};

TEST_F(QueryConcurrencyTest, EightThreadsMatchSerialAnswers) {
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
            auto count = engine_->Count(pattern);
            if (!count.ok()) ++errors;
            else if (*count != expected_counts_[i]) ++mismatches;
            break;
          }
          case 1: {
            auto hits = engine_->Locate(pattern, 25);
            if (!hits.ok()) ++errors;
            else if (*hits != expected_hits_[i]) ++mismatches;
            break;
          }
          case 2: {
            auto contains = engine_->Contains(pattern);
            if (!contains.ok()) ++errors;
            else if (*contains != (expected_counts_[i] > 0)) ++mismatches;
            break;
          }
          default: {
            auto outcomes = engine_->MatchDictionary({pattern});
            if (!outcomes.ok() || outcomes->size() != 1 ||
                !(*outcomes)[0].status.ok()) {
              ++errors;
            } else if ((*outcomes)[0].count != expected_counts_[i]) {
              ++mismatches;
            }
            break;
          }
        }
        ++queries;
      }
    }
  };

  // One additional thread generates cache-evicting traffic: explicit sweeps
  // plus a stream of cold sub-tree opens racing the query threads.
  std::atomic<bool> stop{false};
  std::thread evictor([&] {
    uint32_t id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      engine_->index().EvictCache();
      IoStats scratch;
      (void)engine_->index().OpenSubTree(
          &env_, id++ % engine_->index().subtrees().size(), &scratch);
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

  // The tiny budget must actually have evicted under load, and the engine's
  // aggregate counters must be consistent with the traffic.
  EXPECT_GT(engine_->cache().evictions, 0u);
  QueryStats stats = engine_->stats();
  EXPECT_GE(stats.queries, queries.load());
  IoStats io = engine_->io();
  EXPECT_GT(io.cache_misses, 0u);
}

TEST_F(QueryConcurrencyTest, ReplayHelperAgreesAcrossThreadCounts) {
  QueryWorkloadOptions workload;
  workload.locate_limit = 25;
  auto serial = ReplayWorkload(engine_.get(), patterns_, 1, workload);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = ReplayWorkload(engine_.get(), patterns_, 8, workload);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(serial->occurrence_checksum, parallel->occurrence_checksum);
  EXPECT_EQ(serial->queries, parallel->queries);
  EXPECT_EQ(serial->queries, patterns_.size());
}

}  // namespace
}  // namespace era
