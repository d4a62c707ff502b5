// Engine-level overload behavior: deadline expiry and cancellation through
// the full serving stack (admission -> trie descent -> sub-tree loads ->
// reader refills) on every QueryEngine and DocEngine entry point, dictionary
// batches stopping mid-flight, drain semantics, and an 8-thread deadline
// storm. Runs under the ThreadSanitizer CI job.
//
// The serving engines sit on a LatencyEnv over the MemEnv so queries cost
// real wall time (otherwise nothing can expire mid-flight deterministically);
// ground truth comes from a context-free engine on the raw MemEnv.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection_builder.h"
#include "collection/doc_engine.h"
#include "era/era_builder.h"
#include "io/latency_env.h"
#include "io/mem_env.h"
#include "query/query_engine.h"
#include "query/query_workload.h"
#include "tests/test_util.h"

namespace era {
namespace {

using Clock = QueryContext::Clock;

class OverloadTest : public ::testing::Test {
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

    // Ground truth from an unloaded, context-free engine on the raw env.
    auto fast = QueryEngine::Open(&env_, "/idx");
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    fast_engine_ = std::move(*fast);

    QueryWorkloadOptions workload;
    workload.num_patterns = 120;
    workload.min_len = 3;
    workload.max_len = 16;
    workload.seed = 7;
    patterns_ = SamplePatternWorkload(text_, workload);
    ASSERT_FALSE(patterns_.empty());
    for (const std::string& pattern : patterns_) {
      auto count = fast_engine_->Count(pattern);
      ASSERT_TRUE(count.ok());
      expected_counts_.push_back(*count);
      auto hits = fast_engine_->Locate(pattern, 25);
      ASSERT_TRUE(hits.ok());
      expected_hits_.push_back(std::move(*hits));
    }
  }

  /// `n` distinct text substrings. MatchDictionary folds duplicates before
  /// routing, so a batch meant to run long must not repeat patterns.
  std::vector<std::string> DistinctPatterns(std::size_t n) const {
    std::vector<std::string> patterns;
    std::set<std::string> seen;
    for (std::size_t i = 0; patterns.size() < n; ++i) {
      std::string pattern = text_.substr((i * 7919) % (text_.size() - 32),
                                         6 + i % 17);
      if (seen.insert(pattern).second) patterns.push_back(std::move(pattern));
    }
    return patterns;
  }

  /// The answers MatchDictionary must reproduce, from the context-free
  /// per-pattern loop on the unloaded engine.
  std::vector<DictOutcome> Expected(const std::vector<std::string>& patterns,
                                    const DictMatchOptions& options) {
    std::vector<DictOutcome> expected(patterns.size());
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      auto count = fast_engine_->Count(patterns[i]);
      EXPECT_TRUE(count.ok());
      expected[i].count = count.ok() ? *count : 0;
      if (!options.locate) continue;
      auto hits = fast_engine_->Locate(patterns[i], options.locate_limit);
      EXPECT_TRUE(hits.ok());
      if (hits.ok()) expected[i].offsets = std::move(*hits);
    }
    return expected;
  }

  /// The batch contract under a terminal status: every item is the correct
  /// answer or carries the `terminal` code with nothing else filled in, and
  /// at least one item was stopped.
  static void ExpectCorrectOrTerminal(
      const std::vector<DictOutcome>& outcomes,
      const std::vector<DictOutcome>& expected, Status::Code terminal) {
    EXPECT_EQ(outcomes.size(), expected.size());
    std::size_t stopped = 0;
    for (std::size_t i = 0; i < outcomes.size() && i < expected.size(); ++i) {
      const DictOutcome& outcome = outcomes[i];
      if (outcome.status.code() == terminal) {
        ++stopped;
        EXPECT_EQ(outcome.count, 0u);
        EXPECT_TRUE(outcome.offsets.empty());
        continue;
      }
      EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
      EXPECT_EQ(outcome.count, expected[i].count) << "item " << i;
      EXPECT_EQ(outcome.offsets, expected[i].offsets) << "item " << i;
    }
    EXPECT_GT(stopped, 0u) << "the terminal status landed after the batch";
  }

  /// A small synthetic collection index on the same MemEnv.
  std::unique_ptr<DocEngine> OpenDocEngine() {
    CollectionBuildOptions options;
    options.build.env = &env_;
    options.build.work_dir = "/docs";
    options.build.memory_budget = 512 << 10;
    options.build.input_buffer_bytes = 4096;
    CollectionBuilder builder(Alphabet::Dna(), options);
    EXPECT_TRUE(builder.AddSyntheticDocuments(12, 200, 3).ok());
    auto built = builder.Build();
    EXPECT_TRUE(built.ok()) << built.status().ToString();
    auto doc = DocEngine::Open(&env_, "/docs");
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    return doc.ok() ? std::move(*doc) : nullptr;
  }

  /// An engine whose device charges `latency_seconds` per request, so
  /// queries take real wall time and deadlines can expire mid-flight.
  std::unique_ptr<QueryEngine> SlowEngine(double latency_seconds,
                                          const QueryEngineOptions& options) {
    LatencyModel model;
    model.read_latency_seconds = latency_seconds;
    model.queue_depth = 2;
    slow_envs_.push_back(std::make_unique<LatencyEnv>(&env_, model));
    auto engine = QueryEngine::Open(slow_envs_.back().get(), "/idx", options);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return engine.ok() ? std::move(*engine) : nullptr;
  }

  MemEnv env_;
  std::string text_;
  std::unique_ptr<QueryEngine> fast_engine_;
  std::vector<std::unique_ptr<LatencyEnv>> slow_envs_;
  std::vector<std::string> patterns_;
  std::vector<uint64_t> expected_counts_;
  std::vector<std::vector<uint64_t>> expected_hits_;
};

TEST_F(OverloadTest, ExpiredContextFailsFastOnEveryEntryPoint) {
  QueryContext expired = QueryContext::WithDeadline(Clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const std::string& pattern = patterns_[0];
  EXPECT_TRUE(
      fast_engine_->Count(pattern, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(fast_engine_->Locate(pattern, SIZE_MAX, LocateOrder::kSmallest,
                                   expired)
                  .status()
                  .IsDeadlineExceeded());
  EXPECT_TRUE(
      fast_engine_->Contains(pattern, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(fast_engine_->MatchDictionary({pattern}, {}, expired)
                  .status()
                  .IsDeadlineExceeded());
  EXPECT_GE(fast_engine_->serving().deadline_exceeded, 4u);

  // The engine is unharmed: the same query succeeds context-free.
  auto count = fast_engine_->Count(pattern);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expected_counts_[0]);

  auto doc = OpenDocEngine();
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->CountDocs(pattern, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(
      doc->TopKDocuments(pattern, 3, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(
      doc->LocateInDoc(pattern, 0, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(
      doc->DocumentHistogram(pattern, expired).status().IsDeadlineExceeded());
  EXPECT_TRUE(doc->CountDocsDictionary({pattern}, expired)
                  .status()
                  .IsDeadlineExceeded());
  EXPECT_EQ(doc->doc_stats().deadline_exceeded, 5u);
  EXPECT_EQ(doc->serving().deadline_exceeded, 5u);
  EXPECT_TRUE(doc->CountDocs(pattern).ok());
}

TEST_F(OverloadTest, CancelledContextReportsCancelled) {
  QueryContext ctx;
  ctx.cancel.Cancel();
  const std::string& pattern = patterns_[0];
  EXPECT_TRUE(fast_engine_->Count(pattern, ctx).status().IsCancelled());
  EXPECT_TRUE(
      fast_engine_->Locate(pattern, 25, LocateOrder::kArbitrary, ctx)
          .status()
          .IsCancelled());
  EXPECT_TRUE(fast_engine_->Contains(pattern, ctx).status().IsCancelled());
  EXPECT_TRUE(fast_engine_->MatchDictionary({pattern}, {}, ctx)
                  .status()
                  .IsCancelled());
  EXPECT_EQ(fast_engine_->serving().cancelled, 4u);

  auto doc = OpenDocEngine();
  ASSERT_NE(doc, nullptr);
  EXPECT_TRUE(doc->CountDocs(pattern, ctx).status().IsCancelled());
  EXPECT_TRUE(doc->TopKDocuments(pattern, 3, ctx).status().IsCancelled());
  EXPECT_TRUE(doc->LocateInDoc(pattern, 0, ctx).status().IsCancelled());
  EXPECT_TRUE(doc->DocumentHistogram(pattern, ctx).status().IsCancelled());
  EXPECT_TRUE(doc->CountDocsDictionary({pattern}, ctx).status().IsCancelled());
  EXPECT_EQ(doc->serving().cancelled, 5u);
  // Cancellation bills as "the caller stopped waiting".
  EXPECT_EQ(doc->doc_stats().deadline_exceeded, 5u);
}

TEST_F(OverloadTest, MidBatchCancellationLeavesEngineReusable) {
  // 20ms of device time per request on a two-deep device queue: a fresh
  // engine attaches each of the batch's sub-trees (whole-file reads) before
  // their groups finish, which alone keeps the batch in flight for well over
  // 100ms, so a cancel fired 10ms after admission lands mid-batch.
  QueryEngineOptions options;
  options.cache.budget_bytes = 64 << 10;
  auto engine = SlowEngine(0.02, options);
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> batch = DistinctPatterns(600);
  DictMatchOptions locate_mode;
  locate_mode.locate = true;
  locate_mode.locate_limit = 25;
  const std::vector<DictOutcome> expected = Expected(batch, locate_mode);

  QueryContext ctx;
  std::thread canceller([&] {
    const auto give_up = Clock::now() + std::chrono::seconds(5);
    while (engine->admission().in_flight() == 0 && Clock::now() < give_up) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ctx.cancel.Cancel();
  });
  auto outcomes = engine->MatchDictionary(batch, locate_mode, ctx);
  canceller.join();
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ExpectCorrectOrTerminal(*outcomes, expected, Status::Code::kCancelled);
  EXPECT_GE(engine->serving().cancelled, 1u);

  // The engine (and its pooled readers) must be fully reusable.
  for (std::size_t i = 0; i < 5; ++i) {
    auto count = engine->Count(patterns_[i]);
    ASSERT_TRUE(count.ok()) << count.status().ToString();
    EXPECT_EQ(*count, expected_counts_[i]);
  }
}

TEST_F(OverloadTest, BatchDeadlineStampsRemainingItems) {
  QueryEngineOptions options;
  options.cache.budget_bytes = 64 << 10;
  auto engine = SlowEngine(0.02, options);
  ASSERT_NE(engine, nullptr);

  // At 20ms per request the batch's sub-tree attaches alone outlast a 50ms
  // deadline (see MidBatchCancellation): unresolved items carry
  // DeadlineExceeded, resolved ones are correct.
  const std::vector<std::string> batch = DistinctPatterns(600);
  const std::vector<DictOutcome> expected = Expected(batch, {});
  QueryContext ctx = QueryContext::WithTimeout(0.05);
  auto outcomes = engine->MatchDictionary(batch, {}, ctx);
  ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
  ExpectCorrectOrTerminal(*outcomes, expected,
                          Status::Code::kDeadlineExceeded);
  EXPECT_GE(engine->serving().deadline_exceeded, 1u);
}

TEST_F(OverloadTest, DeadlineStormKeepsEveryAnswerCorrectOrAbandoned) {
  QueryEngineOptions options;
  options.cache.budget_bytes = 64 << 10;
  options.admission.enabled = true;
  options.admission.max_in_flight = 2;
  options.admission.max_queue = 4;
  options.admission.queue_poll_seconds = 0.001;
  auto engine = SlowEngine(0.0002, options);
  ASSERT_NE(engine, nullptr);

  constexpr unsigned kThreads = 8;
  constexpr int kRounds = 2;
  std::atomic<uint64_t> ok{0}, expired{0}, shed{0};
  std::atomic<uint64_t> wrong{0}, illegal{0};

  auto worker = [&](unsigned t) {
    std::mt19937_64 rng(0x5eedull * (t + 1));
    std::uniform_real_distribution<double> deadline_ms(0.05, 4.0);
    for (int round = 0; round < kRounds; ++round) {
      for (std::size_t i = t; i < patterns_.size(); i += kThreads) {
        QueryContext ctx =
            QueryContext::WithTimeout(deadline_ms(rng) / 1000.0);
        ctx.client_id = t;
        if (i % 2 == 0) {
          auto count = engine->Count(patterns_[i], ctx);
          if (count.ok()) {
            ++ok;
            if (*count != expected_counts_[i]) ++wrong;
          } else if (count.status().IsDeadlineExceeded()) {
            ++expired;
          } else if (count.status().IsResourceExhausted()) {
            ++shed;
          } else {
            ++illegal;
          }
        } else {
          auto hits = engine->Locate(patterns_[i], 25,
                                     LocateOrder::kSmallest, ctx);
          if (hits.ok()) {
            ++ok;
            if (*hits != expected_hits_[i]) ++wrong;
          } else if (hits.status().IsDeadlineExceeded()) {
            ++expired;
          } else if (hits.status().IsResourceExhausted()) {
            ++shed;
          } else {
            ++illegal;
          }
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& thread : threads) thread.join();

  // The storm contract: every response is a byte-correct answer or an
  // honest DeadlineExceeded/ResourceExhausted. Nothing else, ever.
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(illegal.load(), 0u);
  EXPECT_GT(expired.load() + shed.load(), 0u) << "storm never stressed";
  EXPECT_EQ(ok.load() + expired.load() + shed.load(),
            kRounds * patterns_.size());

  // And the engine serves normally afterwards.
  auto count = engine->Count(patterns_[0]);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expected_counts_[0]);
}

TEST_F(OverloadTest, DrainRejectsNewWorkWhileInFlightCompletes) {
  QueryEngineOptions options;
  options.cache.budget_bytes = 64 << 10;
  auto engine = SlowEngine(0.001, options);
  ASSERT_NE(engine, nullptr);

  // A long device-bound batch of distinct patterns holds its admission slot
  // for its whole run (admission is disabled here — Drain's contract must
  // hold regardless).
  const std::vector<std::string> batch = DistinctPatterns(300);
  const std::vector<DictOutcome> expected = Expected(batch, {});
  std::atomic<bool> batch_ok{false};
  std::thread in_flight([&] {
    auto outcomes = engine->MatchDictionary(batch);
    bool ok = outcomes.ok() && outcomes->size() == batch.size();
    for (std::size_t i = 0; ok && i < batch.size(); ++i) {
      ok = (*outcomes)[i].status.ok() &&
           (*outcomes)[i].count == expected[i].count;
    }
    batch_ok.store(ok);
  });

  // Wait until the batch is genuinely in flight, then drain.
  const auto give_up = Clock::now() + std::chrono::seconds(5);
  while (engine->admission().in_flight() == 0 && Clock::now() < give_up) {
    std::this_thread::yield();
  }
  ASSERT_GT(engine->admission().in_flight(), 0u);
  engine->Drain();

  // New work is refused with ResourceExhausted while draining...
  EXPECT_TRUE(
      engine->Count(patterns_[0]).status().IsResourceExhausted());
  EXPECT_TRUE(engine->MatchDictionary({patterns_[0]})
                  .status()
                  .IsResourceExhausted());

  // ...but the in-flight batch runs to completion, untouched.
  in_flight.join();
  EXPECT_TRUE(batch_ok.load());
  engine->admission().WaitIdle();
  EXPECT_EQ(engine->admission().in_flight(), 0u);

  engine->Resume();
  auto count = engine->Count(patterns_[0]);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, expected_counts_[0]);
}

TEST_F(OverloadTest, DocEngineStatsSplitDegradation) {
  // DocQueryStats counters are exercised in collection tests; here we only
  // need the serving passthroughs on QueryEngine's stats to stay coherent
  // under mixed failures.
  QueryContext expired = QueryContext::WithDeadline(Clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  (void)fast_engine_->Count(patterns_[0], expired);
  ServingStats serving = fast_engine_->serving();
  EXPECT_GE(serving.deadline_exceeded, 1u);
  EXPECT_EQ(serving.shed, 0u);
}

}  // namespace
}  // namespace era
