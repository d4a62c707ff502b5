// The serving side: closed-loop clients for the timed phases, and the
// traced single-client replays that split a call into its layers.

#include "serve.h"

#include <algorithm>
#include <cmath>
#include <thread>

namespace perfbench {

namespace {

/// Issues one lookup and digests its answer.
CallRecord Lookup(era::QueryEngine* engine, const Config& config,
                  const Inputs& inputs, uint64_t i) {
  CallRecord r;
  r.item = static_cast<uint32_t>(i % inputs.lookups.size());
  r.locate = LookupIsLocate(i);
  const std::string& pattern = inputs.lookups[r.item];
  if (r.locate) {
    auto offsets = engine->Locate(pattern, config.locate_limit);
    r.ok = offsets.ok();
    if (r.ok) r.digest = AnswerDigest(offsets->size(), *offsets);
  } else {
    auto count = engine->Count(pattern);
    r.ok = count.ok();
    if (r.ok) r.digest = AnswerDigest(*count, {});
  }
  return r;
}

/// Sends one dictionary batch and digests every item's answer.
CallRecord Batch(era::QueryEngine* engine, const Config& config,
                 const Inputs& inputs, uint64_t j) {
  CallRecord r;
  r.item = static_cast<uint32_t>(j % inputs.dict_batches.size());
  r.locate = BatchIsLocate(j, inputs.dict_batches.size());
  era::DictMatchOptions options;
  options.locate = r.locate;
  options.locate_limit = config.locate_limit;
  auto outcomes =
      engine->MatchDictionary(inputs.dict_batches[r.item], options);
  r.ok = outcomes.ok();
  if (!r.ok) return r;
  uint64_t h = Fnv1a("", 0);
  for (const era::DictOutcome& o : *outcomes) {
    r.ok = r.ok && o.status.ok();
    const uint64_t d = AnswerDigest(o.count, o.offsets);
    h = Fnv1a(&d, sizeof(d), h);
  }
  r.digest = h;
  return r;
}

/// One closed-loop slice: each client issues its next call when the
/// previous one returns, until `seconds` have passed. Call indices continue
/// from `*next`; completion times count from `origin`.
template <typename Call>
void RunSlice(unsigned clients, double seconds, Clock::time_point origin,
              std::atomic<uint64_t>* next, Call call, PhaseResult* out) {
  std::vector<std::vector<CallRecord>> per_client(clients);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      while (Clock::now() < deadline) {
        const uint64_t i = next->fetch_add(1, std::memory_order_relaxed);
        const Clock::time_point t0 = Clock::now();
        CallRecord r = call(i);
        r.ms = SecondsSince(t0) * 1e3;
        r.done_s = SecondsSince(origin);
        per_client[c].push_back(r);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& records : per_client) {
    out->calls.insert(out->calls.end(), records.begin(), records.end());
  }
}

void SortByCompletion(PhaseResult* phase) {
  std::sort(phase->calls.begin(), phase->calls.end(),
            [](const CallRecord& a, const CallRecord& b) {
              return a.done_s < b.done_s;
            });
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Opens sub-tree `id` through the index inside a "suffixtree.open" span
/// noted cache_hit or cache_miss, read off the cache counters (so one
/// thread at a time).
Status TracedOpen(const era::TreeIndex& index, era::Env* env, uint32_t id,
                  era::Trace* trace) {
  const uint64_t hits = index.CacheStats().hits;
  era::TraceSpan span(trace, "suffixtree.open");
  Status s = index.OpenSubTree(env, id, nullptr).status();
  span.set_note(index.CacheStats().hits > hits ? "cache_hit" : "cache_miss");
  return s;
}

}  // namespace

double PhaseResult::Rate(unsigned clients) const {
  double busy_s = 0;
  for (const CallRecord& c : calls) busy_s += c.ms / 1e3;
  return busy_s == 0 ? 0
                     : static_cast<double>(calls.size()) *
                           static_cast<double>(clients) / busy_s;
}

Serving RunServing(era::QueryEngine* engine, const Config& config,
                   const Inputs& inputs, double seconds) {
  auto lookup = [&](uint64_t i) { return Lookup(engine, config, inputs, i); };
  auto batch = [&](uint64_t j) { return Batch(engine, config, inputs, j); };
  const int slices = std::max(1, static_cast<int>(std::lround(seconds)));
  const double slice_s = seconds / slices;
  const Clock::time_point origin = Clock::now();
  std::atomic<uint64_t> next_lookup{0}, next_batch{0};
  Serving out;
  for (int k = 0; k < slices; ++k) {
    RunSlice(config.workers, slice_s, origin, &next_lookup, lookup,
             &out.lookups);
    RunSlice(config.workers, slice_s, origin, &next_batch, batch, &out.dict);
  }
  while (out.dict.calls.size() < config.min_batches) {
    RunSlice(config.workers, slice_s, origin, &next_batch, batch, &out.dict);
  }
  SortByCompletion(&out.lookups);
  SortByCompletion(&out.dict);
  return out;
}

Status WarmCache(era::QueryEngine* engine, era::Env* env, unsigned threads,
                 era::Trace* trace) {
  const era::TreeIndex& index = engine->index();
  // A trace is filled by one thread.
  ERA_RETURN_NOT_OK(ParallelFor(
      index.subtrees().size(), trace != nullptr ? 1 : threads,
      [&](std::size_t id) -> Status {
        const auto subtree = static_cast<uint32_t>(id);
        return trace != nullptr
                   ? TracedOpen(index, env, subtree, trace)
                   : index.OpenSubTree(env, subtree, nullptr).status();
      }));
  const era::TreeIndex::CacheSnapshot cache = index.CacheStats();
  if (cache.resident_trees != index.subtrees().size()) {
    return Status::Internal("warm-up left " +
                            std::to_string(cache.resident_trees) + " of " +
                            std::to_string(index.subtrees().size()) +
                            " sub-trees resident");
  }
  return Status::OK();
}

namespace {

/// Counters read around the phases of one replay.
struct Snapshot {
  era::QueryStats query;
  era::TreeIndex::CacheSnapshot cache;
  CountingEnv::Counts io;
};

struct Replay {
  Snapshot start, after_lookups, end;
  uint64_t routed_to_subtree = 0;
  uint64_t locates = 0;
  uint64_t patterns = 0;
  double seconds = 0;
};

/// One single-client replay of the first `config.trace_lookups` lookups and
/// `config.trace_dict_batches` batches. A lookup is Route, OpenSubTree of
/// the routed sub-tree, then the Count or Locate call; a batch is one
/// MatchDictionary call. Each call runs inside a span of `trace`; with a
/// null trace the spans record nothing, so a plain replay issues exactly
/// the calls a traced one does. Answers go to `lookups` and `dict` if given.
StatusOr<Replay> RunReplay(era::QueryEngine* engine, CountingEnv* env,
                           const Config& config, const Inputs& inputs,
                           era::Trace* trace, PhaseResult* lookups,
                           PhaseResult* dict) {
  const era::TreeIndex& index = engine->index();
  // A cold replay starts from an empty cache, as the timed phase does.
  if (!config.warm()) index.EvictCache();
  auto snapshot = [&] {
    return Snapshot{engine->stats(), index.CacheStats(), env->Snapshot()};
  };
  Replay r;
  r.start = snapshot();
  const Clock::time_point t0 = Clock::now();
  for (uint64_t i = 0; i < config.trace_lookups; ++i) {
    const std::string& pattern = inputs.lookups[i % inputs.lookups.size()];
    era::PrefixTrie::DescendResult route;
    {
      era::TraceSpan span(trace, "query.route");
      route = index.Route(pattern);
    }
    const era::PrefixTrie::Node& node = index.trie().node(route.node);
    if (!route.pattern_exhausted && node.subtree_id >= 0) {
      ++r.routed_to_subtree;
      ERA_RETURN_NOT_OK(TracedOpen(
          index, env, static_cast<uint32_t>(node.subtree_id), trace));
    }
    CallRecord call;
    {
      era::TraceSpan span(trace,
                          LookupIsLocate(i) ? "query.locate" : "query.count");
      call = Lookup(engine, config, inputs, i);
    }
    r.locates += call.locate ? 1 : 0;
    if (lookups != nullptr) lookups->calls.push_back(call);
  }
  r.after_lookups = snapshot();
  for (uint64_t j = 0; j < config.trace_dict_batches; ++j) {
    CallRecord call;
    {
      era::TraceSpan span(trace, BatchIsLocate(j, inputs.dict_batches.size())
                                     ? "query.dict.locate"
                                     : "query.dict.count");
      call = Batch(engine, config, inputs, j);
    }
    r.patterns += inputs.dict_batches[call.item].size();
    if (dict != nullptr) dict->calls.push_back(call);
  }
  r.end = snapshot();
  r.seconds = SecondsSince(t0);
  return r;
}

/// A traced replay, recorded as one trace of `recorder`.
StatusOr<Replay> RunTracedReplay(era::QueryEngine* engine, CountingEnv* env,
                                 const Config& config, const Inputs& inputs,
                                 era::TraceRecorder* recorder,
                                 std::shared_ptr<era::Trace>* trace,
                                 PhaseResult* lookups, PhaseResult* dict) {
  *trace = recorder->StartTrace("replay", 0);
  StatusOr<Replay> r = RunReplay(engine, env, config, inputs, trace->get(),
                                 lookups, dict);
  recorder->FinishTrace(*trace, r.status());
  if (r.ok() && (*trace)->dropped_spans > 0) {
    return Status::Internal("replay trace dropped spans");
  }
  return r;
}

}  // namespace

StatusOr<double> TraceServing(era::QueryEngine* engine, CountingEnv* env,
                              const Config& config, const Inputs& inputs,
                              era::TraceRecorder* recorder,
                              const era::Trace* warmup,
                              std::vector<Metric>* metrics,
                              PhaseResult* lookups, PhaseResult* dict) {
  // The first replay gives the per-layer numbers and the answers, and opens
  // a round of traced, plain, plain, traced replays that times the tracing
  // overhead with warm-up and drift falling on both sides alike. Rounds
  // repeat for two seconds, so fast (warm) replays still time enough calls;
  // only the first replay's trace goes to `recorder`.
  std::shared_ptr<era::Trace> trace, discarded;
  ERA_ASSIGN_OR_RETURN(const Replay r,
                       RunTracedReplay(engine, env, config, inputs, recorder,
                                       &trace, lookups, dict));
  era::TraceRecorder scratch(TracedDriverOptions());
  double traced_s = r.seconds, plain_s = 0;
  const Clock::time_point start = Clock::now();
  for (bool first = true; first || SecondsSince(start) < 2; first = false) {
    if (!first) {
      ERA_ASSIGN_OR_RETURN(const Replay a,
                           RunTracedReplay(engine, env, config, inputs,
                                           &scratch, &discarded, nullptr,
                                           nullptr));
      traced_s += a.seconds;
    }
    for (int k = 0; k < 2; ++k) {
      ERA_ASSIGN_OR_RETURN(const Replay plain,
                           RunReplay(engine, env, config, inputs, nullptr,
                                     nullptr, nullptr));
      plain_s += plain.seconds;
    }
    ERA_ASSIGN_OR_RETURN(const Replay b,
                         RunTracedReplay(engine, env, config, inputs,
                                         &scratch, &discarded, nullptr,
                                         nullptr));
    traced_s += b.seconds;
  }
  const double overhead = traced_s / plain_s;

  auto median_us = [&](const char* name, const char* note = nullptr) {
    return Percentiles::Median(SumSpans(*trace, name, note).durations_us);
  };
  std::vector<double> open_miss_us =
      SumSpans(*trace, "suffixtree.open", "cache_miss").durations_us;
  if (warmup != nullptr) {
    const std::vector<double> w =
        SumSpans(*warmup, "suffixtree.open", "cache_miss").durations_us;
    open_miss_us.insert(open_miss_us.end(), w.begin(), w.end());
  }
  const double n = static_cast<double>(config.trace_lookups);
  const double opens = static_cast<double>(r.routed_to_subtree);
  const era::QueryStats& q0 = r.start.query;
  const era::QueryStats& q1 = r.after_lookups.query;
  const era::QueryStats& q2 = r.end.query;
  auto add = [&](std::string name, double value, std::string unit) {
    metrics->push_back({std::move(name), value, std::move(unit)});
  };
  add("query.route.us", median_us("query.route"), "us");
  add("query.route.trie_resolved_ratio", 1.0 - opens / n, "ratio");
  add("suffixtree.cache.hit_rate",
      Ratio(static_cast<double>(
                SumSpans(*trace, "suffixtree.open", "cache_hit").calls),
            opens),
      "ratio");
  add("suffixtree.cache.evicted_bytes_per_query",
      static_cast<double>(r.after_lookups.cache.evicted_bytes -
                          r.start.cache.evicted_bytes) /
          n,
      "B");
  add("suffixtree.open_miss.ms", Percentiles::Median(open_miss_us) / 1e3,
      "ms");
  add("suffixtree.open_hit.us", median_us("suffixtree.open", "cache_hit"),
      "us");
  add("query.count_hit.us", median_us("query.count"), "us");
  add("query.locate_hit.us", median_us("query.locate"), "us");
  add("query.descent.nodes_per_query",
      static_cast<double>(q1.nodes_visited - q0.nodes_visited) / n, "count");
  add("query.locate.leaves_per_query",
      Ratio(static_cast<double>(q1.leaves_enumerated - q0.leaves_enumerated),
            static_cast<double>(r.locates)),
      "count");
  add("io.query.read_bytes_per_query",
      static_cast<double>((r.after_lookups.io - r.start.io).read_bytes) / n,
      "B");

  const double batches = static_cast<double>(config.trace_dict_batches);
  const double p = static_cast<double>(r.patterns);
  const double saved =
      static_cast<double>(q2.dict_descents_saved - q1.dict_descents_saved);
  const double shared =
      static_cast<double>(q2.dict_descents_shared - q1.dict_descents_shared);
  add("query.dict.batch_count.ms", median_us("query.dict.count") / 1e3, "ms");
  add("query.dict.batch_locate.ms", median_us("query.dict.locate") / 1e3,
      "ms");
  add("query.dict.groups_per_batch",
      static_cast<double>(q2.dict_groups_formed - q1.dict_groups_formed) /
          batches,
      "count");
  add("query.dict.descents_saved_ratio", Ratio(saved, saved + shared),
      "ratio");
  add("query.dict.duplicates_folded_ratio",
      static_cast<double>(q2.batch_duplicates_folded -
                          q1.batch_duplicates_folded) /
          p,
      "ratio");
  add("query.descent.nodes_per_pattern",
      static_cast<double>(q2.nodes_visited - q1.nodes_visited) / p, "count");
  add("io.query.read_bytes_per_pattern",
      static_cast<double>((r.end.io - r.after_lookups.io).read_bytes) / p,
      "B");
  return overhead;
}

}  // namespace perfbench
