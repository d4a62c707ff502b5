// Per-request deadline and cancellation, threaded through the serving path.
//
// A QueryContext travels with one request (or one batch) from the public
// QueryEngine/DocEngine entry points down to the device-read boundaries
// (StringReader refills, TileCache loads, TreeIndex sub-tree opens) and the
// node-visit loops of the tree descent. The contract is cooperative and
// boundary-checked: a query observes cancellation or deadline expiry at the
// next node visit or device read — never mid-node, and an in-flight device
// request is always allowed to finish — so partial work is abandoned at a
// consistent point and the engine stays reusable.
//
// The deadline is ABSOLUTE (a steady_clock instant, immune to wall-clock
// jumps): retries, queue waits and multi-item batches all burn the same
// budget, which is what lets RetryPolicy promise it never sleeps past the
// caller's deadline. The cancellation token is shareable: copies observe the
// same state, so a client thread can cancel a batch another thread is
// running.
//
// Lives in common/ because both the io/ layer (readers, caches) and the
// query/ layer consume it.

#ifndef ERA_COMMON_QUERY_CONTEXT_H_
#define ERA_COMMON_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/status.h"

namespace era {

struct Trace;

/// Shareable cancellation flag. Copies alias the same state; Cancel() on any
/// copy is observed by all of them. Thread-safe.
class CancellationToken {
 public:
  CancellationToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() const { state_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return state_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// Deadline + cancellation + client identity for one request. Cheap to copy;
/// pass by const reference down the call tree. A default-constructed context
/// never expires and is never cancelled (use Background() to avoid even the
/// token allocation on context-free fast paths).
struct QueryContext {
  using Clock = std::chrono::steady_clock;

  /// Absolute expiry instant; time_point::max() means no deadline.
  Clock::time_point deadline = Clock::time_point::max();
  /// Cooperative cancellation, checked at the same boundaries as the
  /// deadline. Cancellation wins over expiry when both hold.
  CancellationToken cancel;
  /// Fairness key for admission control: the bounded wait queue is served
  /// round-robin across client ids, so one flooding client cannot starve
  /// the others (see query/admission.h).
  uint64_t client_id = 0;
  /// Per-request trace (common/metrics.h), recorded at the same cooperative
  /// checkpoints the deadline is checked at. Null (the default) means the
  /// request is untraced and every span is a no-op; when the engine samples
  /// a request for tracing it passes a copy of the caller's context with
  /// this set. Borrowed — the trace outlives the request via its recorder.
  Trace* trace = nullptr;

  /// Context expiring `seconds` from now.
  static QueryContext WithTimeout(double seconds);
  /// Context expiring at the given absolute instant.
  static QueryContext WithDeadline(Clock::time_point deadline);
  /// Shared no-deadline, never-cancelled context: the default of every
  /// serving entry point's trailing QueryContext. Do not Cancel() it.
  static const QueryContext& Background();

  bool has_deadline() const { return deadline != Clock::time_point::max(); }
  bool cancelled() const { return cancel.cancelled(); }
  bool expired(Clock::time_point now) const {
    return has_deadline() && now >= deadline;
  }
  bool expired() const { return has_deadline() && Clock::now() >= deadline; }

  /// Seconds until the deadline (negative once expired); +infinity when no
  /// deadline is set.
  double RemainingSeconds() const;

  /// The boundary check: Cancelled if the token fired, DeadlineExceeded if
  /// the deadline passed, OK otherwise. Costs one relaxed atomic load, plus
  /// one clock read when a deadline is set.
  Status Check() const;
};

}  // namespace era

#endif  // ERA_COMMON_QUERY_CONTEXT_H_
