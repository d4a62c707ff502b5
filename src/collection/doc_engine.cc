#include "collection/doc_engine.h"

#include <algorithm>

#include "alphabet/alphabet.h"

namespace era {

StatusOr<std::unique_ptr<DocEngine>> DocEngine::Open(
    Env* env, const std::string& index_dir, const QueryEngineOptions& options) {
  ERA_ASSIGN_OR_RETURN(std::unique_ptr<QueryEngine> engine,
                       QueryEngine::Open(env, index_dir, options));
  ERA_ASSIGN_OR_RETURN(
      DocumentMap documents,
      DocumentMap::Load(env, index_dir + "/" + kDocMapFilename));
  std::unique_ptr<DocEngine> doc(
      new DocEngine(std::move(engine), std::move(documents)));
  if (options.metrics_enabled) {
    // The doc-level counters stay in the mutex-folded struct (it is tiny
    // and cold); a collector translates it into era_doc_* samples at
    // snapshot time so the exporters and the CLI degradation printer see
    // collection serving alongside everything else.
    static std::atomic<uint64_t> next_instance{0};
    const MetricLabels labels = {
        {"collection",
         std::to_string(next_instance.fetch_add(1,
                                                std::memory_order_relaxed))}};
    doc->registry_ = options.registry != nullptr ? options.registry
                                                 : MetricsRegistry::Global();
    DocEngine* raw = doc.get();
    doc->collector_id_ = doc->registry_->AddCollector(
        [raw, labels](std::vector<MetricSample>* samples) {
          const DocQueryStats stats = raw->doc_stats();
          auto add = [&](const char* name, const char* help, uint64_t value) {
            MetricSample sample;
            sample.name = name;
            sample.help = help;
            sample.kind = MetricKind::kCounter;
            sample.labels = labels;
            sample.value = static_cast<double>(value);
            samples->push_back(std::move(sample));
          };
          add("era_doc_queries_total", "Completed doc-level calls",
              stats.queries);
          add("era_doc_offsets_resolved_total",
              "Occurrence offsets folded through the DocumentMap",
              stats.offsets_resolved);
          add("era_doc_offsets_outside_documents_total",
              "Offsets resolving to no document (layout bug flag)",
              stats.offsets_outside_documents);
          add("era_doc_docs_matched_total",
              "Sum over queries of distinct matching documents",
              stats.docs_matched);
          add("era_doc_unavailable_queries_total",
              "Doc queries failed Unavailable (quarantined sub-tree)",
              stats.unavailable_queries);
          add("era_doc_deadline_exceeded_total",
              "Doc queries abandoned by deadline expiry or cancellation",
              stats.deadline_exceeded);
          add("era_doc_shed_total",
              "Doc queries refused by admission control", stats.shed);
        });
  }
  return doc;
}

DocEngine::~DocEngine() {
  if (registry_ != nullptr && collector_id_ != 0) {
    registry_->RemoveCollector(collector_id_);
  }
}

Status DocEngine::ValidatePattern(const std::string& pattern) const {
  if (pattern.empty()) return Status::InvalidArgument("empty pattern");
  if (pattern.find(documents_.separator()) != std::string::npos) {
    return Status::InvalidArgument(
        "pattern contains the reserved document separator");
  }
  if (pattern.find(kTerminal) != std::string::npos) {
    return Status::InvalidArgument("pattern contains the terminal byte");
  }
  return Status::OK();
}

void DocEngine::ClassifyFailure(const Status& status, DocQueryStats* stats) {
  if (status.IsUnavailable()) {
    ++stats->unavailable_queries;
  } else if (status.IsDeadlineExceeded() || status.IsCancelled()) {
    ++stats->deadline_exceeded;
  } else if (status.IsResourceExhausted()) {
    ++stats->shed;
  }
}

StatusOr<std::vector<uint64_t>> DocEngine::LocateAll(
    const std::string& pattern, const QueryContext& ctx,
    DocQueryStats* stats) {
  ERA_RETURN_NOT_OK(ValidatePattern(pattern));
  ++stats->queries;
  // All occurrences, from the match node's contiguous descendant leaf-slot
  // range (ascending after Locate's sort).
  auto located =
      engine_->Locate(pattern, SIZE_MAX, LocateOrder::kSmallest, ctx);
  if (!located.ok()) ClassifyFailure(located.status(), stats);
  return located;
}

std::vector<DocHit> DocEngine::HistogramFromOffsets(
    const std::vector<uint64_t>& offsets, DocQueryStats* stats) const {
  // Offsets ascend and document spans ascend, so grouping by document is a
  // single forward pass; Resolve's binary search only re-runs when an offset
  // leaves the current span.
  std::vector<DocHit> histogram;
  DocLocation loc;
  uint64_t span_end = 0;
  bool have_doc = false;
  for (uint64_t offset : offsets) {
    ++stats->offsets_resolved;
    if (have_doc && offset < span_end &&
        offset >= documents_.document(loc.doc_id).start) {
      ++histogram.back().occurrences;
      continue;
    }
    if (!documents_.Resolve(offset, &loc)) {
      // A pattern over the document alphabet can never start on a separator
      // or terminal byte; counted defensively rather than erroring so a
      // corrupt layout surfaces in stats instead of failing reads.
      ++stats->offsets_outside_documents;
      have_doc = false;
      continue;
    }
    const DocumentSpan& doc = documents_.document(loc.doc_id);
    span_end = doc.start + doc.length;
    have_doc = true;
    histogram.push_back({loc.doc_id, 1});
  }
  stats->docs_matched += histogram.size();
  return histogram;
}

void DocEngine::FoldStats(const DocQueryStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.Add(stats);
}

DocQueryStats DocEngine::doc_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

StatusOr<std::vector<DocHit>> DocEngine::DocumentHistogram(
    const std::string& pattern, const QueryContext& ctx) {
  DocQueryStats stats;
  auto located = LocateAll(pattern, ctx, &stats);
  if (!located.ok()) {
    FoldStats(stats);
    return located.status();
  }
  std::vector<DocHit> histogram = HistogramFromOffsets(*located, &stats);
  FoldStats(stats);
  return histogram;
}

StatusOr<uint64_t> DocEngine::CountDocs(const std::string& pattern,
                                        const QueryContext& ctx) {
  ERA_ASSIGN_OR_RETURN(std::vector<DocHit> histogram,
                       DocumentHistogram(pattern, ctx));
  return static_cast<uint64_t>(histogram.size());
}

std::vector<DocHit> TopKFromHistogram(std::vector<DocHit> histogram,
                                      std::size_t k) {
  std::sort(histogram.begin(), histogram.end(),
            [](const DocHit& a, const DocHit& b) {
              if (a.occurrences != b.occurrences) {
                return a.occurrences > b.occurrences;
              }
              return a.doc_id < b.doc_id;
            });
  if (histogram.size() > k) histogram.resize(k);
  return histogram;
}

StatusOr<std::vector<DocHit>> DocEngine::TopKDocuments(
    const std::string& pattern, std::size_t k, const QueryContext& ctx) {
  ERA_ASSIGN_OR_RETURN(std::vector<DocHit> histogram,
                       DocumentHistogram(pattern, ctx));
  return TopKFromHistogram(std::move(histogram), k);
}

StatusOr<std::vector<uint64_t>> DocEngine::LocateInDoc(
    const std::string& pattern, uint32_t doc_id, const QueryContext& ctx) {
  if (doc_id >= documents_.num_documents()) {
    return Status::InvalidArgument("document id out of range");
  }
  DocQueryStats stats;
  auto located = LocateAll(pattern, ctx, &stats);
  if (!located.ok()) {
    FoldStats(stats);
    return located.status();
  }
  const std::vector<uint64_t>& offsets = *located;
  const DocumentSpan& doc = documents_.document(doc_id);
  // Offsets are ascending: the document's occurrences are one contiguous
  // run, found by binary search.
  auto begin =
      std::lower_bound(offsets.begin(), offsets.end(), doc.start);
  auto end =
      std::lower_bound(begin, offsets.end(), doc.start + doc.length);
  std::vector<uint64_t> local;
  local.reserve(static_cast<std::size_t>(end - begin));
  for (auto it = begin; it != end; ++it) local.push_back(*it - doc.start);
  stats.offsets_resolved += local.size();
  if (!local.empty()) ++stats.docs_matched;
  FoldStats(stats);
  return local;
}

StatusOr<std::vector<CountOutcome>> DocEngine::CountDocsDictionary(
    const std::vector<std::string>& patterns, const QueryContext& ctx) {
  DocQueryStats stats;
  std::vector<CountOutcome> outcomes(patterns.size());
  // Per-item validation up front (the dictionary layer below only rejects
  // empty patterns); only valid patterns enter the shared pass.
  std::vector<std::string> valid;
  std::vector<std::size_t> item_of;
  valid.reserve(patterns.size());
  item_of.reserve(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    Status v = ValidatePattern(patterns[i]);
    if (!v.ok()) {
      outcomes[i].status = v;
      continue;
    }
    valid.push_back(patterns[i]);
    item_of.push_back(i);
  }
  DictMatchOptions options;
  options.locate = true;
  auto dict = engine_->MatchDictionary(valid, options, ctx);
  if (!dict.ok()) {
    // The pass never ran (shed, or no reader session): propagate.
    ClassifyFailure(dict.status(), &stats);
    FoldStats(stats);
    return dict.status();
  }
  for (std::size_t k = 0; k < dict->size(); ++k) {
    CountOutcome& out = outcomes[item_of[k]];
    const DictOutcome& item = (*dict)[k];
    if (!item.status.ok()) {
      out.status = item.status;
      ClassifyFailure(item.status, &stats);
      continue;
    }
    ++stats.queries;
    out.count = HistogramFromOffsets(item.offsets, &stats).size();
  }
  FoldStats(stats);
  return outcomes;
}

}  // namespace era
