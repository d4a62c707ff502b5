#include "check.h"

#include <mutex>
#include <set>

namespace perfbench {

void AnswerKey::PrepareLookups(
    const std::vector<std::pair<uint32_t, bool>>& items, unsigned threads) {
  std::vector<uint64_t> digests(items.size());
  ParallelFor(items.size(), threads, [&](std::size_t n) -> Status {
    const auto [item, locate] = items[n];
    const std::string& pattern = inputs_.lookups[item];
    if (locate) {
      std::vector<uint64_t> offsets;
      oracle_.Answer(pattern, config_.locate_limit, &offsets);
      digests[n] = AnswerDigest(offsets.size(), offsets);
    } else {
      digests[n] = AnswerDigest(oracle_.Answer(pattern, 0, nullptr), {});
    }
    return Status::OK();
  });
  for (std::size_t n = 0; n < items.size(); ++n) {
    lookups_[items[n]] = digests[n];
  }
}

Status AnswerKey::PrepareBatches(const std::vector<uint32_t>& items,
                                 unsigned threads) {
  std::mutex mu;  // guards batches_ and ac_s_
  return ParallelFor(items.size(), threads, [&](std::size_t n) -> Status {
    const uint32_t item = items[n];
    {
      std::lock_guard<std::mutex> lock(mu);
      if (batches_.count({item, false}) != 0) return Status::OK();
    }
    const std::vector<std::string>& patterns = inputs_.dict_batches[item];
    double scan_s = 0;
    ERA_ASSIGN_OR_RETURN(
        std::vector<uint64_t> counts,
        AhoCorasickCounts(era::GetDefaultEnv(), inputs_.info.path, patterns,
                          &scan_s));
    uint64_t count_digest = Fnv1a("", 0), locate_digest = count_digest;
    for (std::size_t i = 0; i < patterns.size(); ++i) {
      std::vector<uint64_t> offsets;
      if (oracle_.Answer(patterns[i], config_.locate_limit, &offsets) !=
          counts[i]) {
        return Status::Internal("Aho-Corasick and SA oracles disagree on '" +
                                patterns[i] + "'");
      }
      const uint64_t c = AnswerDigest(counts[i], {});
      const uint64_t l = AnswerDigest(counts[i], offsets);
      count_digest = Fnv1a(&c, sizeof(c), count_digest);
      locate_digest = Fnv1a(&l, sizeof(l), locate_digest);
    }
    std::lock_guard<std::mutex> lock(mu);
    ac_s_.push_back(scan_s);
    batches_[{item, false}] = count_digest;
    batches_[{item, true}] = locate_digest;
    return Status::OK();
  });
}

CheckResult CheckLookups(const std::vector<CallRecord>& calls, AnswerKey* key,
                         unsigned threads) {
  std::set<std::pair<uint32_t, bool>> items;
  for (const CallRecord& call : calls) items.insert({call.item, call.locate});
  key->PrepareLookups({items.begin(), items.end()}, threads);
  CheckResult r;
  for (const CallRecord& call : calls) {
    const bool wrong = call.ok && call.digest != key->Lookup(call.item,
                                                             call.locate);
    r.wrong += wrong ? 1 : 0;
    r.failed += (!call.ok || wrong) ? 1 : 0;
  }
  return r;
}

StatusOr<CheckResult> CheckBatches(const std::vector<CallRecord>& calls,
                                   AnswerKey* key, unsigned threads) {
  std::set<uint32_t> items;
  for (const CallRecord& call : calls) items.insert(call.item);
  ERA_RETURN_NOT_OK(key->PrepareBatches({items.begin(), items.end()}, threads));
  CheckResult r;
  for (const CallRecord& call : calls) {
    const bool wrong =
        call.ok && call.digest != key->Batch(call.item, call.locate);
    r.wrong += wrong ? 1 : 0;
    r.failed += (!call.ok || wrong) ? 1 : 0;
  }
  return r;
}

}  // namespace perfbench
