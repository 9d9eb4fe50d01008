#include "statcube/obs/query_profile.h"

#include <sstream>

#include "statcube/obs/json.h"

namespace statcube::obs {

namespace internal {

QueryProfile*& ActiveProfileSlot() {
  thread_local QueryProfile* t_active = nullptr;
  return t_active;
}

void RecordOperatorImpl(const char* op, uint64_t rows_in, uint64_t rows_out) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::string prefix = std::string("statcube.relational.") + op;
  reg.GetCounter(prefix + ".calls").Add(1);
  reg.GetCounter(prefix + ".rows_in").Add(rows_in);
  reg.GetCounter(prefix + ".rows_out").Add(rows_out);
  if (QueryProfile* p = ActiveProfileSlot())
    p->operators.push_back({op, rows_in, rows_out});
}

void RecordBackendImpl(const std::string& backend, uint64_t blocks,
                       uint64_t bytes) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  std::string prefix = "statcube.backend." + backend;
  reg.GetCounter(prefix + ".queries").Add(1);
  reg.GetCounter(prefix + ".blocks_read").Add(blocks);
  reg.GetCounter(prefix + ".bytes_read").Add(bytes);
  if (QueryProfile* p = ActiveProfileSlot()) {
    p->backend = backend;
    p->blocks.MergeRaw(blocks, bytes);
  }
  if (ResourceAccumulator* r = CurrentResources()) r->ChargeBytes(bytes);
}

void RecordViewStoreQueryImpl(uint32_t mask, bool hit, int64_t ancestor_mask,
                              uint64_t rows_scanned) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter(hit ? "statcube.viewstore.hits"
                     : "statcube.viewstore.misses")
      .Add(1);
  reg.GetCounter("statcube.viewstore.rows_scanned").Add(rows_scanned);
  if (QueryProfile* p = ActiveProfileSlot()) {
    p->view_events.push_back({mask, hit, ancestor_mask, rows_scanned});
    if (hit) ++p->view_hits; else ++p->view_misses;
  }
}

void RecordViewStoreRefreshImpl(uint64_t reaggregated_rows) {
  MetricsRegistry::Global()
      .GetCounter("statcube.viewstore.reagg_rows")
      .Add(reaggregated_rows);
  if (QueryProfile* p = ActiveProfileSlot())
    p->reaggregated_rows += reaggregated_rows;
}

void RecordPrivacyImpl(bool answered, bool perturbed) {
  MetricsRegistry& reg = MetricsRegistry::Global();
  reg.GetCounter(answered ? "statcube.privacy.answered"
                          : "statcube.privacy.refused")
      .Add(1);
  if (perturbed) reg.GetCounter("statcube.privacy.perturbed").Add(1);
}

}  // namespace internal

QueryProfile* ActiveProfile() { return internal::ActiveProfileSlot(); }

ProfileScope::ProfileScope() {
  prev_profile_ = internal::ActiveProfileSlot();
  internal::ActiveProfileSlot() = &profile_;
  prev_binding_ = internal::SwapTraceBinding({&profile_.trace, -1, {}});
  prev_resources_ = internal::SwapCurrentResources(&resources_);
  if (Enabled()) root_span_ = profile_.trace.BeginSpan("query");
}

void ProfileScope::Uninstall() {
  if (!installed_) return;
  installed_ = false;
  if (root_span_ >= 0) profile_.trace.EndSpan(root_span_);
  internal::SwapCurrentResources(prev_resources_);
  internal::SwapTraceBinding(std::move(prev_binding_));
  internal::ActiveProfileSlot() = prev_profile_;
}

ProfileScope::~ProfileScope() { Uninstall(); }

QueryProfile ProfileScope::Take() {
  Uninstall();
  profile_.resources = resources_.Snapshot();
  if (Enabled()) {
    MetricsRegistry::Global()
        .GetHistogram("statcube.query.latency_us")
        .Observe(double(profile_.trace.TotalDurationNs()) / 1000.0);
  }
  return std::move(profile_);
}

size_t QueryProfile::NumPhases() const {
  // Root spans plus their direct children: the "query" root contributes its
  // phase children; a profile built without the implicit root counts roots.
  size_t n = 0;
  for (const SpanRecord& s : trace.spans())
    if (s.depth <= 1) ++n;
  return n;
}

std::string QueryProfile::ToString() const {
  std::ostringstream os;
  os << "-- query profile --\n";
  os << "backend: " << (backend.empty() ? "relational" : backend) << "\n";
  if (!cache.empty()) os << "cache: " << cache << "\n";
  if (!outcome.empty() && outcome != "ok") os << "outcome: " << outcome
                                              << "\n";
  os << "spans:\n" << trace.TreeString();
  if (!resources.Empty()) os << "resources: " << resources.ToString() << "\n";
  if (!operators.empty()) {
    os << "operators:\n";
    for (const OperatorStats& op : operators)
      os << "  " << op.op << ": rows_in=" << op.rows_in
         << " rows_out=" << op.rows_out << "\n";
  }
  os << "blocks_read=" << blocks.blocks_read()
     << " bytes_read=" << blocks.bytes_read() << "\n";
  if (!view_events.empty()) {
    os << "view_store: hits=" << view_hits << " misses=" << view_misses;
    if (reaggregated_rows > 0) os << " reagg_rows=" << reaggregated_rows;
    os << "\n";
    for (const ViewStoreEvent& e : view_events) {
      os << "  mask=" << e.mask << (e.hit ? " hit" : " miss");
      if (!e.hit)
        os << " ancestor="
           << (e.ancestor_mask < 0 ? std::string("base")
                                   : std::to_string(e.ancestor_mask));
      os << " rows_scanned=" << e.rows_scanned << "\n";
    }
  }
  os << "result_rows=" << result_rows << "\n";
  return os.str();
}

std::string QueryProfile::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("backend").String(backend.empty() ? "relational" : backend)
      .Key("cache").String(cache.empty() ? "off" : cache)
      .Key("outcome").String(outcome.empty() ? "ok" : outcome)
      .Key("tenant").String(tenant)
      .Key("spans");
  trace.WriteSpansJson(w);
  w.Key("dropped_spans").Uint(trace.dropped_spans())
      .Key("resources").Raw(resources.ToJson())
      .Key("operators").BeginArray();
  for (const OperatorStats& op : operators) {
    w.BeginObject()
        .Key("op").String(op.op)
        .Key("rows_in").Uint(op.rows_in)
        .Key("rows_out").Uint(op.rows_out)
        .EndObject();
  }
  w.EndArray()
      .Key("blocks_read").Uint(blocks.blocks_read())
      .Key("bytes_read").Uint(blocks.bytes_read())
      .Key("view_hits").Uint(view_hits)
      .Key("view_misses").Uint(view_misses)
      .Key("reaggregated_rows").Uint(reaggregated_rows)
      .Key("result_rows").Uint(result_rows)
      .EndObject();
  return w.Take();
}

}  // namespace statcube::obs
