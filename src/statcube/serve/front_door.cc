#include "statcube/serve/front_door.h"

#include <sstream>

#include "statcube/common/str_util.h"
#include "statcube/obs/json.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/serve/json_value.h"

namespace statcube::serve {

namespace {

// Rows of the text table a request with "render": true also receives.
constexpr size_t kRenderRows = 25;

// Closes the object `w` holds and sends it, newline-terminated, with
// `status`.
obs::HttpResponse JsonResponse(int status, obs::JsonWriter& w) {
  obs::HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  w.EndObject();
  resp.body = w.Take();
  resp.body.push_back('\n');
  return resp;
}

obs::HttpResponse JsonError(int status, const std::string& message) {
  obs::JsonWriter w;
  w.BeginObject().Key("error").String(message);
  return JsonResponse(status, w);
}

// HTTP status for a query that was admitted but failed to execute. The
// query's own mistakes are 4xx; infrastructure limits map to their
// dedicated codes so load generators can tell the classes apart.
int StatusToHttp(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotSummarizable:
    case StatusCode::kUnimplemented: return 400;
    case StatusCode::kPrivacyRefused: return 403;
    case StatusCode::kCancelled: return 499;
    case StatusCode::kDeadlineExceeded: return 504;
    default: return 500;
  }
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string TableToJson(const Table& table) { return table.ToJson(); }

QueryFrontDoor::QueryFrontDoor(const StatisticalObject& obj,
                               FrontDoorOptions options)
    : obj_(obj),
      options_(options),
      tenants_(options.default_quota),
      queue_(options.queue) {
  if (options_.max_threads < 1) options_.max_threads = 1;
  if (options_.default_threads < 0) options_.default_threads = 0;
}

uint64_t QueryFrontDoor::requests() const {
  return requests_.load(std::memory_order_relaxed);
}

obs::HttpResponse QueryFrontDoor::ServeRequest(const obs::HttpRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled())
    obs::MetricsRegistry::Global().GetCounter("statcube.serve.requests").Add();

  // ---- Parse and validate the body -------------------------------------
  auto parsed = ParseJson(req.body);
  if (!parsed.ok()) return JsonError(400, parsed.status().message());
  const JsonValue& body = *parsed;
  if (!body.is_object())
    return JsonError(400, "request body must be a JSON object");

  static const char* kKnownKeys[] = {"query",   "engine",      "cache",
                                     "threads", "deadline_ms", "tenant",
                                     "render"};
  for (const auto& [key, value] : body.AsObject()) {
    bool known = false;
    for (const char* k : kKnownKeys) known = known || key == k;
    if (!known) return JsonError(400, "unknown request field \"" + key + "\"");
    (void)value;
  }

  const JsonValue* query_v = body.Find("query");
  if (query_v == nullptr || !query_v->is_string() ||
      query_v->AsString().empty())
    return JsonError(400, "\"query\" must be a non-empty string");
  const std::string& query_text = query_v->AsString();

  QueryOptions qopt;
  qopt.cache = options_.default_cache;
  qopt.threads = options_.default_threads;
  qopt.deadline_us = options_.default_deadline_ms * 1000;

  if (const JsonValue* v = body.Find("engine")) {
    if (!v->is_string()) return JsonError(400, "\"engine\" must be a string");
    auto engine = EngineFromName(v->AsString());
    if (!engine.ok()) return JsonError(400, engine.status().message());
    qopt.engine = *engine;
  }
  if (const JsonValue* v = body.Find("cache")) {
    if (!v->is_string()) return JsonError(400, "\"cache\" must be a string");
    auto mode = cache::ModeFromName(v->AsString());
    if (!mode.ok()) return JsonError(400, mode.status().message());
    qopt.cache = *mode;
  }
  if (const JsonValue* v = body.Find("threads")) {
    if (!v->is_int() || v->AsInt() < 0 ||
        v->AsInt() > int64_t(options_.max_threads))
      return JsonError(400, "\"threads\" must be an integer in [0, " +
                                std::to_string(options_.max_threads) + "]");
    qopt.threads = int(v->AsInt());
  }
  if (const JsonValue* v = body.Find("deadline_ms")) {
    if (!v->is_int() || v->AsInt() < 0)
      return JsonError(400, "\"deadline_ms\" must be a non-negative integer "
                            "(0 = no deadline)");
    qopt.deadline_us = uint64_t(v->AsInt()) * 1000;
  }
  bool render = false;
  if (const JsonValue* v = body.Find("render")) {
    if (!v->is_bool()) return JsonError(400, "\"render\" must be a boolean");
    render = v->AsBool();
  }
  std::string tenant = "default";
  if (const JsonValue* v = body.Find("tenant")) {
    if (!v->is_string() || !ValidTenantName(v->AsString()))
      return JsonError(400, "\"tenant\" must match [A-Za-z0-9_.-]{1,64}");
    tenant = v->AsString();
  }
  qopt.tenant = tenant;

  // ---- Per-tenant admission: the 429 path ------------------------------
  Admission admission = tenants_.Admit(tenant);
  if (!admission.ok()) {
    if (obs::Enabled())
      obs::MetricsRegistry::Global()
          .GetCounter("statcube.serve.rejected")
          .Add();
    obs::JsonWriter w;
    w.BeginObject()
        .Key("error").String(std::string("tenant over ") +
                             AdmitOutcomeName(admission.outcome) + " quota")
        .Key("tenant").String(tenant)
        .Key("reason").String(AdmitOutcomeName(admission.outcome))
        .Key("retry_after_ms").Uint(admission.retry_after_ms);
    obs::HttpResponse resp = JsonResponse(429, w);
    // Retry-After is whole seconds; round up so clients never retry early.
    // The concurrency gate has no time component — suggest one second.
    uint64_t after_s = admission.retry_after_ms == 0
                           ? 1
                           : (admission.retry_after_ms + 999) / 1000;
    resp.headers.emplace_back("Retry-After", std::to_string(after_s));
    return resp;
  }

  // Admitted: from here every exit must Release the tenant, charging the
  // bytes of whatever response actually goes out.
  auto release = [&](obs::HttpResponse resp, bool ok) {
    tenants_.Release(tenant, resp.body.size(), ok);
    return resp;
  };

  // ---- Global execute-or-shed gate: the 503 path -----------------------
  EnterOutcome gate = queue_.Enter();
  if (gate != EnterOutcome::kAdmitted) {
    tenants_.NoteShed(tenant);
    obs::HttpResponse resp =
        JsonError(503, gate == EnterOutcome::kShedQueueFull
                           ? "admission queue full"
                           : "timed out waiting for an execution slot");
    resp.headers.emplace_back("Retry-After", "1");
    obs::LogEvent(obs::LogLevel::kWarn, "query_shed")
        .Str("tenant", tenant)
        .Str("reason", gate == EnterOutcome::kShedQueueFull ? "queue_full"
                                                            : "timeout")
        .Emit();
    return release(std::move(resp), /*ok=*/false);
  }

  // ---- Execute through the exact CLI path ------------------------------
  Result<ProfiledQuery> result = QueryProfiled(obj_, query_text, qopt);
  queue_.Exit();

  if (!result.ok()) {
    const Status& st = result.status();
    obs::JsonWriter w;
    w.BeginObject()
        .Key("error").String(st.message())
        .Key("code").String(StatusCodeName(st.code()))
        .Key("tenant").String(tenant);
    return release(JsonResponse(StatusToHttp(st), w), /*ok=*/false);
  }

  // One buffer for the whole response. "result" is the table's encoding,
  // spliced from the result cache's stored bytes when it holds them and
  // encoded here otherwise; it stays the last member unless a rendering was
  // asked for. The buffer is sized for the head, the result and the closing
  // "}\n" before the splice, so the body is written once and never moved.
  const ProfiledQuery& pq = *result;
  std::string encoded;
  if (pq.json == nullptr) encoded = pq.table->ToJson();
  const std::string& result_json = pq.json != nullptr ? *pq.json : encoded;
  obs::JsonWriter w;
  w.BeginObject()
      .Key("tenant").String(tenant)
      .Key("engine").String(QueryEngineName(qopt.engine))
      .Key("backend").String(pq.profile.backend)
      .Key("cache").String(pq.profile.cache.empty() ? "off" : pq.profile.cache)
      .Key("outcome").String(pq.profile.outcome)
      .Key("profile_id").Uint(pq.profile_id)
      .Key("result");
  w.Reserve(result_json.size() + 2).Raw(result_json);
  if (render) w.Key("rendered").String(pq.table->ToString(kRenderRows));
  if (obs::Enabled())
    obs::MetricsRegistry::Global().GetCounter("statcube.serve.ok").Add();
  return release(JsonResponse(200, w), /*ok=*/true);
}

void QueryFrontDoor::Register(obs::StatsServer& server) {
  server.HandleMethod("POST", "/query", [this](const obs::HttpRequest& req) {
    return ServeRequest(req);
  });
  server.AddStatuszSection("tenants", [this] { return StatuszSection(); });
}

std::string QueryFrontDoor::StatuszSection() const {
  std::vector<TenantStats> stats = tenants_.Snapshot();
  std::ostringstream os;
  os << "<p>queue: " << queue_.active() << " active / " << queue_.queued()
     << " queued (max_active " << queue_.options().max_active
     << ", max_queued " << queue_.options().max_queued << ", "
     << queue_.sheds() << " shed)</p>";
  if (stats.empty()) {
    os << "<p>no tenants seen yet</p>";
    return os.str();
  }
  os << "<table><tr><th>tenant</th><th>active</th><th>admitted</th>"
     << "<th>429 concurrency</th><th>429 rate</th><th>429 bytes</th>"
     << "<th>shed</th><th>ok</th><th>error</th><th>bytes_served</th>"
     << "<th>rate_tokens</th><th>byte_tokens</th></tr>";
  for (const TenantStats& s : stats) {
    os << "<tr><td><a href=\"/profiles?tenant=" << s.name << "\">" << s.name
       << "</a></td><td>" << s.active << "</td><td>" << s.admitted
       << "</td><td>" << s.rejected_concurrency << "</td><td>"
       << s.rejected_rate << "</td><td>" << s.rejected_bytes << "</td><td>"
       << s.shed << "</td><td>" << s.queries_ok << "</td><td>"
       << s.queries_error << "</td><td>" << s.bytes_served << "</td><td>"
       << FormatDouble(s.rate_tokens) << "</td><td>"
       << FormatDouble(s.byte_tokens) << "</td></tr>";
  }
  os << "</table>";
  return os.str();
}

}  // namespace statcube::serve
