// Correctness checks of every answer a run collected, made after timing.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <map>
#include <utility>

#include "perfbench.h"
#include "serve.h"

namespace perfbench {

/// Expected answers, computed once per distinct (item, mode) and memoized.
class AnswerKey {
 public:
  AnswerKey(const Config& config, const Inputs& inputs, const Oracle& oracle)
      : config_(config), inputs_(inputs), oracle_(oracle) {}

  /// Computes, on `threads` threads, the digests correct lookups of the
  /// given (pool pattern, locate) pairs have.
  void PrepareLookups(const std::vector<std::pair<uint32_t, bool>>& items,
                      unsigned threads);
  /// Digest of a lookup (after PrepareLookups).
  uint64_t Lookup(uint32_t item, bool locate) const {
    return lookups_.at({item, locate});
  }
  /// Computes, on `threads` threads, the digests correct MatchDictionary
  /// calls on the pool batches in `items` have, in both modes. Counts come
  /// from an Aho-Corasick scan of the text file and must agree with the SA.
  Status PrepareBatches(const std::vector<uint32_t>& items, unsigned threads);
  /// Digest of pool batch `item` in the given mode (after PrepareBatches).
  uint64_t Batch(uint32_t item, bool locate) const {
    return batches_.at({item, locate});
  }

  /// Scan seconds of every Aho-Corasick pass made so far.
  const std::vector<double>& aho_corasick_seconds() const { return ac_s_; }

 private:
  const Config& config_;
  const Inputs& inputs_;
  const Oracle& oracle_;
  std::map<std::pair<uint32_t, bool>, uint64_t> lookups_;
  std::map<std::pair<uint32_t, bool>, uint64_t> batches_;
  std::vector<double> ac_s_;
};

/// Calls whose status failed or whose answer differs from the key.
struct CheckResult {
  uint64_t failed = 0;  // failed status or wrong answer
  uint64_t wrong = 0;   // wrong answer only
};
CheckResult CheckLookups(const std::vector<CallRecord>& calls, AnswerKey* key,
                         unsigned threads);
StatusOr<CheckResult> CheckBatches(const std::vector<CallRecord>& calls,
                                   AnswerKey* key, unsigned threads);

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
