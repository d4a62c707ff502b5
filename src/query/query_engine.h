// Query engine over a built TreeIndex: exact pattern search in O(|P|)
// symbol comparisons (the suffix tree's raison d'être, Section 1).
//
// A query routes through the index's k-mer dispatch table (one array probe
// replacing the pointer-trie walk) to the responsible sub-tree, opens it
// through the index (README "Serving anatomy": attach once, then 4 KiB
// blocks from the index's block cache), and continues matching against edge
// labels resolved from the text through a reader backed by the same cache. Sub-trees are
// walked in their serving form (ServedSubTree): compressed v3 payloads are
// never inflated — child lookup is a binary search over the bit-packed,
// first-symbol-sorted child block, and Count reads the match node's stored
// subtree leaf count, so the O(|P|) bound holds with zero leaf enumeration
// for either format.
//
// The engine is thread-safe: any number of threads may issue queries
// concurrently. Each call leases a text-reader session from an internal pool
// (readers are pooled, never shared), the sub-tree cache is sharded, and
// per-session I/O and query counters are folded into the engine aggregates
// when the lease is returned.
//
// Overload control: every entry point takes a trailing QueryContext carrying
// an absolute deadline and a cancellation token, checked at node-visit and
// device-read boundaries (it defaults to QueryContext::Background(), which
// never expires). All queries pass through an AdmissionController
// (query/admission.h) — disabled by default, so existing callers only gain
// the Drain() contract — and serving degradation is counted in ServingStats
// beside QueryStats.

#ifndef ERA_QUERY_QUERY_ENGINE_H_
#define ERA_QUERY_QUERY_ENGINE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/query_context.h"
#include "common/status.h"
#include "io/string_reader.h"
#include "query/admission.h"
#include "suffixtree/tree_index.h"

namespace era {

/// Per-engine tracing knobs (see common/metrics.h for the trace layer).
struct QueryTraceOptions {
  /// Master switch. Off (default) keeps every trace pointer null: the whole
  /// span layer costs one pointer test per checkpoint.
  bool enabled = false;
  /// Trace every Nth top-level request (1 = all). Sampling is a per-engine
  /// round-robin counter, so a steady workload traces a steady fraction.
  uint64_t sample_every = 1;
  /// Ring capacities and the slow-query threshold.
  TraceRecorderOptions recorder;
};

/// Tuning for a serving engine.
struct QueryEngineOptions {
  /// Sub-tree cache budget and sharding (see TreeCacheOptions).
  TreeCacheOptions cache;
  /// Buffer of each pooled text reader.
  uint64_t reader_buffer_bytes = 64 << 10;
  /// Readers kept for reuse; excess sessions are dropped on release.
  std::size_t max_pooled_sessions = 64;
  /// Overload policy (disabled by default: everything admitted instantly,
  /// but Drain() still rejects new work while in-flight queries finish).
  AdmissionOptions admission;
  /// Registry the engine's counters live in; null means
  /// MetricsRegistry::Global(). Each engine registers its series under a
  /// unique {engine="N"} label, so a fresh engine always starts from zero.
  MetricsRegistry* registry = nullptr;
  /// When false the engine keeps the original plain-struct aggregation and
  /// registers nothing — the pre-registry hot path, kept so
  /// bench_query_qps can measure (and guard) the registry's overhead.
  bool metrics_enabled = true;
  /// Per-request tracing (off by default).
  QueryTraceOptions trace;
};

/// Aggregate query-path counters (device traffic is in IoStats; these count
/// tree work).
struct QueryStats {
  /// Completed Count/Locate/Contains calls plus the distinct patterns a
  /// MatchDictionary batch answered (an item folded into an identical
  /// pattern of the same batch counts only in batch_duplicates_folded).
  uint64_t queries = 0;
  /// Counts answered from the trie alone (no sub-tree open).
  uint64_t trie_resolved_counts = 0;
  /// Sub-tree nodes examined while matching (binary-search probes included).
  uint64_t nodes_visited = 0;
  /// Leaf records materialized (Locate only; Count never enumerates).
  uint64_t leaves_enumerated = 0;
  /// Queries answered Unavailable because their sub-tree could not be
  /// loaded (corrupt or unreadable after retries). The failure is per-query:
  /// patterns routed to healthy sub-trees keep succeeding.
  uint64_t unavailable_queries = 0;
  /// MatchDictionary items answered by copying the outcome of an identical
  /// pattern in the same batch (no descent, no leaf work).
  uint64_t batch_duplicates_folded = 0;
  /// Same-sub-tree pattern groups formed by MatchDictionary (one sub-tree
  /// open and one range descent per group).
  uint64_t dict_groups_formed = 0;
  /// Tree edges walked once on behalf of a whole pattern range during a
  /// shared descent.
  uint64_t dict_descents_shared = 0;
  /// Edge walks avoided versus the per-pattern loop: for every shared edge,
  /// (patterns entering the edge - 1).
  uint64_t dict_descents_saved = 0;

  void Add(const QueryStats& other) {
    queries += other.queries;
    trie_resolved_counts += other.trie_resolved_counts;
    nodes_visited += other.nodes_visited;
    leaves_enumerated += other.leaves_enumerated;
    unavailable_queries += other.unavailable_queries;
    batch_duplicates_folded += other.batch_duplicates_folded;
    dict_groups_formed += other.dict_groups_formed;
    dict_descents_shared += other.dict_descents_shared;
    dict_descents_saved += other.dict_descents_saved;
  }
};

/// QueryStats field table for the metrics registry (the IoStatsFields
/// pattern; see io/io_stats.h).
struct QueryStatsField {
  const char* name;
  const char* help;
  uint64_t QueryStats::*member;
};
const std::vector<QueryStatsField>& QueryStatsFields();

/// What a limited Locate promises about WHICH occurrences it returns.
enum class LocateOrder {
  /// The smallest `limit` offsets: every occurrence is enumerated, then a
  /// selection keeps the smallest. Deterministic, but the enumeration cost
  /// is proportional to the total occurrence count, not the limit.
  kSmallest,
  /// Any `limit` occurrences (still returned sorted): decoding stops after
  /// `limit` leaf slots, so a huge posting list costs O(limit) leaf decodes.
  /// Use when the caller needs *some* occurrences — existence samples,
  /// result-page seeds — rather than the smallest ones.
  kArbitrary,
};

/// Knobs for MatchDictionary.
struct DictMatchOptions {
  /// When true every matched pattern also gets its occurrence offsets
  /// (kSmallest semantics under locate_limit, like Locate). Leaf work is
  /// shared: one enumeration pass per touched sub-tree resolves every
  /// matched pattern routed there.
  bool locate = false;
  /// Per-pattern cap on returned offsets (locate mode only).
  std::size_t locate_limit = SIZE_MAX;
};

/// Per-pattern result of MatchDictionary. `count` is the full occurrence
/// count in both modes; `offsets` is filled only in locate mode (ascending,
/// at most locate_limit entries, smallest first).
///
/// The batch contract: a batch stops mid-flight on deadline expiry or
/// cancellation — items already answered keep their results, every item
/// still unresolved carries that terminal status. Non-fatal per-item
/// failures (empty pattern, sub-tree unavailable) do not stop the batch.
struct DictOutcome {
  Status status;
  uint64_t count = 0;
  std::vector<uint64_t> offsets;
};

/// Read-side facade over an index directory.
class QueryEngine {
 public:
  /// Loads the manifest from `index_dir`, configures the sub-tree cache and
  /// opens the text file referenced by the manifest.
  static StatusOr<std::unique_ptr<QueryEngine>> Open(
      Env* env, const std::string& index_dir,
      const QueryEngineOptions& options = QueryEngineOptions{});

  ~QueryEngine();

  /// Number of occurrences of `pattern` in the text. O(|P|) — answered from
  /// trie frequencies or the match node's subtree leaf count.
  StatusOr<uint64_t> Count(
      const std::string& pattern,
      const QueryContext& ctx = QueryContext::Background());

  /// Starting offsets of occurrences, ascending. With a `limit`, `order`
  /// picks the contract: kSmallest (default) collects every occurrence and
  /// keeps the smallest `limit`; kArbitrary stops decoding after `limit`
  /// leaf slots (see LocateOrder).
  StatusOr<std::vector<uint64_t>> Locate(
      const std::string& pattern, std::size_t limit = SIZE_MAX,
      LocateOrder order = LocateOrder::kSmallest,
      const QueryContext& ctx = QueryContext::Background());

  /// True iff `pattern` occurs at least once (via Count; no enumeration).
  StatusOr<bool> Contains(
      const std::string& pattern,
      const QueryContext& ctx = QueryContext::Background());

  /// The batch entry point. Shared-descent dictionary matching answers the
  /// whole pattern set in one pass on one leased session (and one admission
  /// permit). Patterns are deduplicated (QueryStats::batch_duplicates_folded)
  /// and sorted (memcmp order, which is also the tree's child order),
  /// grouped by target sub-tree, and each group descends the tree with a
  /// pattern-range cursor — every tree edge is walked at most once per
  /// distinct shared prefix, and each touched sub-tree is opened exactly
  /// once. Results are byte-identical to running the per-pattern
  /// Count/Locate loop. Outcomes are index-aligned with `patterns` and follow
  /// the DictOutcome batch contract; the outer status is only non-OK when the
  /// batch never ran (shed by admission, or no reader session).
  /// Deadline/cancel checkpoints sit at group and node boundaries.
  StatusOr<std::vector<DictOutcome>> MatchDictionary(
      const std::vector<std::string>& patterns,
      const DictMatchOptions& options = DictMatchOptions{},
      const QueryContext& ctx = QueryContext::Background());

  const TreeIndex& index() const { return index_; }
  /// Snapshot of the accumulated I/O of retired sessions (sub-tree loads,
  /// cache traffic, label reads). Sessions still in flight report on
  /// release.
  IoStats io() const;
  /// Snapshot of the aggregate query counters.
  QueryStats stats() const;
  /// Snapshot of the sub-tree cache (hits/misses/evictions/residency).
  TreeIndex::CacheSnapshot cache() const { return index_.CacheStats(); }
  /// Sub-trees whose attaches or block loads have failed, with failure
  /// counts — the serving blast radius of on-disk damage. Failed attaches
  /// are never cached and a failed block checksum drops the handle, so a
  /// repaired file starts serving again without a restart.
  std::map<uint32_t, uint64_t> quarantine() const;

  /// Snapshot of the serving-layer counters (admitted/queued/shed/...).
  ServingStats serving() const { return admission_.stats(); }
  /// Trace recorder when tracing is enabled in the options, else null.
  TraceRecorder* tracer() const { return tracer_.get(); }
  /// Graceful shutdown: sheds queued work, refuses new queries with
  /// ResourceExhausted (even under the default Background() context), lets
  /// in-flight queries finish. Follow with admission().WaitIdle() to block
  /// until they have.
  void Drain() { admission_.Drain(); }
  void Resume() { admission_.Resume(); }
  /// The underlying controller (in_flight(), WaitIdle(), options()).
  AdmissionController& admission() { return admission_; }

 private:
  /// The shared-descent dictionary matcher (query/dict_matcher.cc) runs
  /// inside a leased session and shares the engine's private traversal
  /// helpers (FindChild, OpenSubTreeOrQuarantine, LocateWithSession).
  friend class DictMatcher;

  /// One pooled serving session: a private text reader plus the stat sinks
  /// it is bound to.
  struct Session {
    std::unique_ptr<StringReader> reader;
    IoStats io;
    QueryStats stats;
  };

  /// RAII over AcquireSession/ReleaseSession: folds the session's counters
  /// into the engine aggregates on every exit path.
  class Lease {
   public:
    Lease() = default;
    ~Lease();
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Status Acquire(QueryEngine* engine);
    Session* get() { return session_.get(); }

   private:
    QueryEngine* engine_ = nullptr;
    std::unique_ptr<Session> session_;
  };

  /// Scoped binding of a query's context to a leased session's reader, so
  /// every device read the session performs observes the caller's deadline.
  /// Declare AFTER the Lease: the binding must unwind before the session
  /// returns to the pool (a pooled reader must never point at a dead
  /// context).
  class ReaderContextGuard {
   public:
    ReaderContextGuard(Session* session, const QueryContext* ctx);
    ~ReaderContextGuard();
    ReaderContextGuard(const ReaderContextGuard&) = delete;
    ReaderContextGuard& operator=(const ReaderContextGuard&) = delete;

   private:
    Session* session_;
  };

  QueryEngine(Env* env, TreeIndex index, const QueryEngineOptions& options)
      : env_(env),
        index_(std::move(index)),
        options_(options),
        admission_(options.admission) {}

  /// Registers the engine's counter series and snapshot collector (cache,
  /// quarantine, in-flight) under a unique {engine="N"} label, and creates
  /// the trace recorder when tracing is enabled. Called once from Open.
  void InitObservability();

  /// Starts a sampled trace for one top-level request; null when tracing is
  /// off or the sampler skips this request.
  std::shared_ptr<Trace> MaybeStartTrace(const char* label,
                                         const QueryContext& ctx);

  /// Runs one top-level request: a sampled trace labelled `label`, the
  /// admission permit (under an "admission" span), a leased session with
  /// the context bound to its reader, then `body(session, ctx)`. A failed
  /// result is billed to admission. A template rather than a
  /// std::function, so the wrapper itself allocates nothing, and the
  /// untraced path hands the caller's `ctx` to the body uncopied.
  template <typename T, typename Body>
  StatusOr<T> Serve(const char* label, const QueryContext& ctx, Body&& body) {
    auto admitted = [&](const QueryContext& c) -> StatusOr<T> {
      Permit permit;
      {
        TraceSpan span(c.trace, "admission");
        ERA_RETURN_NOT_OK(admission_.Admit(c, &permit));
      }
      Lease lease;
      ERA_RETURN_NOT_OK(lease.Acquire(this));
      ReaderContextGuard guard(lease.get(), &c);
      StatusOr<T> result = body(lease.get(), c);
      if (!result.ok()) admission_.RecordOutcome(result.status());
      return result;
    };
    std::shared_ptr<Trace> trace = MaybeStartTrace(label, ctx);
    if (trace == nullptr) return admitted(ctx);
    QueryContext traced = ctx;
    traced.trace = trace.get();
    StatusOr<T> result = admitted(traced);
    tracer_->FinishTrace(trace, result.ok() ? Status::OK() : result.status());
    return result;
  }

  StatusOr<std::unique_ptr<Session>> AcquireSession();
  void ReleaseSession(std::unique_ptr<Session> session);

  /// OpenSubTree with serving degradation: a failed load is recorded in the
  /// quarantine map and surfaced as Unavailable naming the sub-tree, so one
  /// damaged file fails its own queries instead of the process. A deadline
  /// or cancellation abandon is NOT the file's fault and passes through
  /// without quarantining.
  StatusOr<std::shared_ptr<const ServedSubTree>> OpenSubTreeOrQuarantine(
      uint32_t id, Session* session, const QueryContext& ctx);
  /// The same degradation for `status` from any read of sub-tree `id` (its
  /// open, or a block load during the walk): OK, deadline and cancellation
  /// pass through; anything else is quarantined and becomes Unavailable.
  Status SubTreeFailure(uint32_t id, Session* session, const Status& status);

  StatusOr<uint64_t> CountWithSession(Session* session,
                                      const QueryContext& ctx,
                                      const std::string& pattern);
  StatusOr<std::vector<uint64_t>> LocateWithSession(Session* session,
                                                    const QueryContext& ctx,
                                                    const std::string& pattern,
                                                    std::size_t limit,
                                                    LocateOrder order);

  /// Match outcome inside one sub-tree.
  struct SubTreeMatch {
    bool matched = false;
    uint32_t node = 0;  // node whose subtree holds all occurrences
  };
  StatusOr<SubTreeMatch> MatchInSubTree(const ServedSubTree& tree,
                                        const QueryContext& ctx,
                                        const std::string& pattern,
                                        Session* session);
  /// Child of `node` whose edge starts with `symbol` (binary search over the
  /// sorted child block; first symbols resolve through the session reader).
  /// kNilNode if absent.
  StatusOr<uint32_t> FindChild(const ServedSubTree& tree, uint32_t node,
                               char symbol, Session* session);

  Env* env_;
  TreeIndex index_;
  QueryEngineOptions options_;
  AdmissionController admission_;

  mutable std::mutex mu_;  // guards pool_ and the retired aggregates
  std::vector<std::unique_ptr<Session>> pool_;
  /// Plain-struct aggregates, used only when metrics are disabled (the
  /// pre-registry path bench_query_qps compares against).
  IoStats io_;
  QueryStats stats_;
  std::map<uint32_t, uint64_t> quarantine_;  // subtree id -> failed loads

  /// Registry wiring (null when options_.metrics_enabled is false).
  /// Counter vectors are index-aligned with IoStatsFields() /
  /// QueryStatsFields(): ReleaseSession folds a retired session into them,
  /// io()/stats() materialize the snapshot structs back out.
  struct RegistryHooks {
    MetricsRegistry* registry = nullptr;
    std::vector<std::shared_ptr<Counter>> io;
    std::vector<std::shared_ptr<Counter>> query;
    uint64_t collector_id = 0;
  };
  std::unique_ptr<RegistryHooks> metrics_;
  std::unique_ptr<TraceRecorder> tracer_;
  std::atomic<uint64_t> trace_tick_{0};  // sampling counter
};

}  // namespace era

#endif  // ERA_QUERY_QUERY_ENGINE_H_
