#include "statcube/obs/http_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "statcube/common/str_util.h"
#include "statcube/obs/exporter.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/json.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_registry.h"
#include "statcube/obs/timeseries_ring.h"

namespace statcube::obs {

namespace {

constexpr size_t kMaxRequestBytes = 8192;

const char* StatusText(int code) {
  switch (code) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 429: return "Too Many Requests";
    case 499: return "Client Closed Request";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
  }
  return "Unknown";
}

void SetSocketTimeouts(int fd, int read_ms, int write_ms) {
  timeval rtv{read_ms / 1000, (read_ms % 1000) * 1000};
  timeval wtv{write_ms / 1000, (write_ms % 1000) * 1000};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &rtv, sizeof(rtv));
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &wtv, sizeof(wtv));
}

// Writes the whole buffer; returns false on error/timeout. MSG_NOSIGNAL so
// a client that hung up yields EPIPE instead of killing the process.
bool WriteAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += size_t(n);
  }
  return true;
}

void WriteResponse(int fd, const HttpResponse& resp, bool head_only) {
  std::ostringstream os;
  os << "HTTP/1.1 " << resp.status << " " << StatusText(resp.status)
     << "\r\nContent-Type: " << resp.content_type
     << "\r\nContent-Length: " << resp.body.size();
  for (const auto& [name, value] : resp.headers)
    os << "\r\n" << name << ": " << value;
  os << "\r\nConnection: close\r\n\r\n";
  std::string out = os.str();
  if (!head_only) out += resp.body;
  WriteAll(fd, out);
}

HttpResponse SimpleResponse(int status, const std::string& body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = body;
  return resp;
}

// Strict query-string parser: pairs split on '&', each pair must be
// `key=value` with a non-empty key (value may be empty). An empty query
// string parses to an empty map; anything else malformed returns false —
// endpoints answer 400 instead of guessing.
bool ParseQuery(const std::string& query,
                std::map<std::string, std::string>* out) {
  out->clear();
  if (query.empty()) return true;
  size_t pos = 0;
  while (pos <= query.size()) {
    size_t amp = query.find('&', pos);
    std::string pair = query.substr(
        pos, amp == std::string::npos ? std::string::npos : amp - pos);
    size_t eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    (*out)[pair.substr(0, eq)] = pair.substr(eq + 1);
    if (amp == std::string::npos) break;
    pos = amp + 1;
  }
  return true;
}

// Reads an optional size_t parameter. Returns false (and leaves *out
// untouched) when the key is present but not a plain decimal number.
bool ParseSizeParam(const std::map<std::string, std::string>& params,
                    const std::string& key, size_t* out) {
  auto it = params.find(key);
  if (it == params.end()) return true;
  const std::string& v = it->second;
  // Digits only: strtoull would silently wrap "-1" to a huge value.
  if (v.empty() || v[0] < '0' || v[0] > '9') return false;
  char* end = nullptr;
  unsigned long long n = strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = size_t(n);
  return true;
}

// Case-insensitive Content-Length lookup in a raw header block. Returns
// true with *out = 0 when absent; false when present but not a plain
// decimal number (answered 400 — never guess at a body length).
bool FindContentLength(const std::string& headers, size_t* out) {
  *out = 0;
  size_t pos = 0;
  while (pos < headers.size()) {
    size_t eol = headers.find('\n', pos);
    if (eol == std::string::npos) eol = headers.size();
    std::string line = headers.substr(pos, eol - pos);
    if (!line.empty() && line.back() == '\r') line.pop_back();
    pos = eol + 1;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return char(tolower(c)); });
    if (name != "content-length") continue;
    size_t v = colon + 1;
    while (v < line.size() && (line[v] == ' ' || line[v] == '\t')) ++v;
    std::string value = line.substr(v);
    while (!value.empty() && (value.back() == ' ' || value.back() == '\t'))
      value.pop_back();
    if (value.empty() || value[0] < '0' || value[0] > '9') return false;
    char* end = nullptr;
    unsigned long long n = strtoull(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return false;
    *out = size_t(n);
    return true;
  }
  return true;
}

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

// Unicode block-element sparkline: each value maps to one of 8 bar heights
// scaled to the series' own min..max. Dependency-free "charting" for
// /statusz — renders in any modern terminal or browser.
std::string Sparkline(const std::vector<double>& values) {
  static const char* kBlocks[8] = {"▁", "▂", "▃", "▄",
                                   "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  double lo = *std::min_element(values.begin(), values.end());
  double hi = *std::max_element(values.begin(), values.end());
  std::string out;
  for (double v : values) {
    int idx = hi > lo ? int((v - lo) / (hi - lo) * 7.0 + 0.5) : 0;
    idx = std::max(0, std::min(7, idx));
    out += kBlocks[idx];
  }
  return out;
}

}  // namespace

StatsServer::StatsServer(StatsServerOptions options)
    : options_(std::move(options)) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  if (options_.max_queued < 1) options_.max_queued = 1;
  if (!options_.register_default_endpoints) return;

  Handle("/healthz", [](const HttpRequest&) {
    return SimpleResponse(200, "ok\n");
  });
  Handle("/metrics", [](const HttpRequest&) {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = PrometheusSnapshot();
    return resp;
  });
  Handle("/profiles", [](const HttpRequest& req) {
    std::map<std::string, std::string> params;
    if (!ParseQuery(req.query, &params))
      return SimpleResponse(400, "malformed query string\n");
    size_t limit = 0;  // 0 = everything retained
    // `n` is the documented name; `limit` stays as an alias.
    if (!ParseSizeParam(params, "n", &limit) ||
        !ParseSizeParam(params, "limit", &limit))
      return SimpleResponse(400, "bad n= value\n");
    std::string tenant;  // empty = every tenant
    auto t = params.find("tenant");
    if (t != params.end()) tenant = t->second;
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = FlightRecorder::Global().ToJson(limit, tenant);
    return resp;
  });
  Handle("/profiles/", [](const HttpRequest& req) {
    const std::string id_str = req.path.substr(strlen("/profiles/"));
    char* end = nullptr;
    uint64_t id = strtoull(id_str.c_str(), &end, 10);
    if (id_str.empty() || end == nullptr || *end != '\0')
      return SimpleResponse(400, "bad profile id\n");
    auto rec = FlightRecorder::Global().Get(id);
    if (!rec) return SimpleResponse(404, "profile not retained\n");
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = rec->ToJson();
    return resp;
  }, /*prefix=*/true);
  Handle("/queryz", [](const HttpRequest& req) {
    std::map<std::string, std::string> params;
    if (!ParseQuery(req.query, &params))
      return SimpleResponse(400, "malformed query string\n");
    auto fmt = params.find("format");
    if (fmt != params.end() && fmt->second != "json" &&
        fmt->second != "html")
      return SimpleResponse(400, "format must be json or html\n");
    if (fmt != params.end() && fmt->second == "json") {
      HttpResponse resp;
      resp.content_type = "application/json";
      resp.body = QueryRegistry::Global().ToJson();
      return resp;
    }
    return QueryzPage();
  });
  HandleMethod("POST", "/queryz/cancel", [](const HttpRequest& req) {
    std::map<std::string, std::string> params;
    if (!ParseQuery(req.query, &params))
      return SimpleResponse(400, "malformed query string\n");
    if (params.find("id") == params.end())
      return SimpleResponse(400, "id= is required\n");
    size_t id = 0;
    if (!ParseSizeParam(params, "id", &id))
      return SimpleResponse(400, "bad id= value\n");
    if (!QueryRegistry::Global().Cancel(uint64_t(id)))
      return SimpleResponse(404, "no in-flight query with that id\n");
    HttpResponse resp;
    resp.content_type = "application/json";
    JsonWriter w;
    w.BeginObject().Key("cancelled").Uint(id).EndObject();
    resp.body = w.Take();
    resp.body.push_back('\n');
    return resp;
  });
  Handle("/statusz", [this](const HttpRequest& req) {
    std::map<std::string, std::string> params;
    if (!ParseQuery(req.query, &params))
      return SimpleResponse(400, "malformed query string\n");
    return StatuszPage();
  });
  Handle("/tracez", [](const HttpRequest& req) {
    std::map<std::string, std::string> params;
    if (!ParseQuery(req.query, &params))
      return SimpleResponse(400, "malformed query string\n");
    size_t limit = 20;
    if (!ParseSizeParam(params, "n", &limit))
      return SimpleResponse(400, "bad n= value\n");
    auto fmt = params.find("format");
    if (fmt != params.end() && fmt->second != "json" &&
        fmt->second != "html")
      return SimpleResponse(400, "format must be json or html\n");
    bool json = fmt != params.end() && fmt->second == "json";
    return TracezPage(limit, json);
  });
}

HttpResponse StatsServer::StatuszPage() const {
  double uptime = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_time_)
                      .count();
  std::ostringstream os;
  os << "<!doctype html><html><head><meta charset=\"utf-8\">"
     << "<title>statcube /statusz</title><style>"
     << "body{font-family:monospace;margin:2em;background:#fdfdfd}"
     << "table{border-collapse:collapse}"
     << "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}"
     << "td.spark{font-size:1.2em;letter-spacing:-1px}"
     << "h2{margin-top:1.5em}</style></head><body>"
     << "<h1>statcube</h1>";

  os << "<h2>Process</h2><table>"
     << "<tr><th>uptime_s</th><td>" << FormatDouble(uptime) << "</td></tr>"
     << "<tr><th>build</th><td>" << HtmlEscape(__DATE__ " " __TIME__)
     << "</td></tr>"
     << "<tr><th>compiler</th><td>" << HtmlEscape(__VERSION__) << "</td></tr>"
     << "<tr><th>port</th><td>" << port_.load() << "</td></tr>"
     << "<tr><th>requests_served</th><td>" << requests_served_.load()
     << "</td></tr>"
     << "<tr><th>profiles_recorded</th><td>"
     << FlightRecorder::Global().TotalRecorded() << "</td></tr></table>";

  if (options_.sampler != nullptr) {
    os << "<h2>Time series</h2><p>interval "
       << options_.sampler->interval_ms() << " ms, sliding window "
       << options_.sampler->window() << " ticks, "
       << options_.sampler->samples() << " samples</p>"
       << "<table id=\"sparklines\"><tr><th>series</th><th>sparkline</th>"
       << "<th>last</th></tr>";
    for (const auto& [name, values] : options_.sampler->SnapshotAll()) {
      os << "<tr><td>" << HtmlEscape(name) << "</td><td class=\"spark\">"
         << Sparkline(values) << "</td><td>"
         << (values.empty() ? std::string("-") : FormatDouble(values.back()))
         << "</td></tr>";
    }
    os << "</table>";
  } else {
    os << "<h2>Time series</h2><p>no sampler configured "
       << "(--statusz-sample-ms)</p>";
  }

  os << "<h2>Gauges</h2><table><tr><th>gauge</th><th>value</th></tr>";
  MetricsRegistry::Global().Visit(
      nullptr,
      [&os](const std::string& name, const Gauge& g) {
        os << "<tr><td>" << HtmlEscape(name) << "</td><td>"
           << FormatDouble(g.Value()) << "</td></tr>";
      },
      nullptr);
  os << "</table>";

  os << "<h2>Recent slow queries</h2>";
  std::vector<RecordedProfile> recent = FlightRecorder::Global().Snapshot(0);
  std::vector<const RecordedProfile*> slow;
  for (const RecordedProfile& rec : recent)
    if (rec.slow) slow.push_back(&rec);
  if (slow.empty()) {
    os << "<p>none retained (threshold "
       << FlightRecorder::Global().SlowQueryThresholdUs() << " us)</p>";
  } else {
    os << "<table><tr><th>id</th><th>latency_us</th><th>backend</th>"
       << "<th>outcome</th><th>query</th></tr>";
    size_t shown = 0;
    for (size_t i = slow.size(); i-- > 0 && shown < 10; ++shown) {
      const RecordedProfile& rec = *slow[i];
      os << "<tr><td><a href=\"/profiles/" << rec.id << "\">" << rec.id
         << "</a></td><td>" << rec.latency_us << "</td><td>"
         << HtmlEscape(rec.profile.backend.empty() ? "relational"
                                                   : rec.profile.backend)
         << "</td><td>"
         << HtmlEscape(rec.profile.outcome.empty() ? "ok"
                                                   : rec.profile.outcome)
         << "</td><td>" << HtmlEscape(rec.query) << "</td></tr>";
    }
    os << "</table>";
  }
  for (const auto& [title, html_fn] : statusz_sections_)
    os << "<h2>" << HtmlEscape(title) << "</h2>" << html_fn();

  os << "<p><a href=\"/tracez\">/tracez</a> "
     << "<a href=\"/metrics\">/metrics</a> "
     << "<a href=\"/profiles\">/profiles</a> "
     << "<a href=\"/queryz\">/queryz</a></p></body></html>";

  HttpResponse resp;
  resp.content_type = "text/html; charset=utf-8";
  resp.body = os.str();
  return resp;
}

HttpResponse StatsServer::QueryzPage() {
  std::vector<ActiveQuerySnapshot> snaps = QueryRegistry::Global().Snapshot();
  std::ostringstream os;
  os << "<!doctype html><html><head><meta charset=\"utf-8\">"
     << "<title>statcube /queryz</title><style>"
     << "body{font-family:monospace;margin:2em;background:#fdfdfd}"
     << "table{border-collapse:collapse}"
     << "td,th{border:1px solid #ccc;padding:2px 8px;text-align:left}"
     << "</style></head><body><h1>in-flight queries</h1>"
     << "<p>" << snaps.size() << " active; "
     << "<a href=\"/queryz?format=json\">json</a>; cancel with "
     << "<code>curl -X POST /queryz/cancel?id=N</code></p>";
  if (snaps.empty()) {
    os << "<p>none</p>";
  } else {
    os << "<table><tr><th>id</th><th>tenant</th><th>engine</th>"
       << "<th>threads</th>"
       << "<th>elapsed_us</th><th>cpu_us</th><th>morsels</th>"
       << "<th>cache</th><th>deadline</th><th>cancelled</th>"
       << "<th>query</th></tr>";
    for (const ActiveQuerySnapshot& s : snaps) {
      os << "<tr><td>" << s.id << "</td><td>"
         << HtmlEscape(s.tenant.empty() ? std::string("-") : s.tenant)
         << "</td><td>"
         << HtmlEscape(s.engine)
         << "</td><td>" << s.threads << "</td><td>" << s.elapsed_us
         << "</td><td>" << s.resources.cpu_us << "</td><td>"
         << s.resources.morsels << "</td><td>" << HtmlEscape(s.cache_mode)
         << "</td><td>"
         << (s.deadline_us == 0 ? std::string("-")
                                : std::to_string(s.deadline_us))
         << "</td><td>" << (s.cancelled ? "yes" : "no") << "</td><td>"
         << HtmlEscape(s.query) << "</td></tr>";
    }
    os << "</table>";
  }
  os << "<p><a href=\"/statusz\">/statusz</a> "
     << "<a href=\"/profiles\">/profiles</a></p></body></html>";
  HttpResponse resp;
  resp.content_type = "text/html; charset=utf-8";
  resp.body = os.str();
  return resp;
}

HttpResponse StatsServer::TracezPage(size_t limit, bool json) {
  std::vector<RecordedProfile> entries =
      FlightRecorder::Global().Snapshot(limit);
  HttpResponse resp;
  if (json) {
    JsonWriter w;
    w.BeginObject().Key("traces").BeginArray();
    for (const RecordedProfile& rec : entries) {
      w.BeginObject()
          .Key("id").Uint(rec.id)
          .Key("query").String(rec.query)
          .Key("latency_us").Uint(rec.latency_us)
          .Key("dropped_spans").Uint(rec.profile.trace.dropped_spans())
          .Key("spans");
      rec.profile.trace.WriteSpansJson(w);
      w.EndObject();
    }
    w.EndArray().EndObject();
    resp.content_type = "application/json";
    resp.body = w.Take();
    return resp;
  }
  std::ostringstream os;
  os << "<!doctype html><html><head><meta charset=\"utf-8\">"
     << "<title>statcube /tracez</title><style>"
     << "body{font-family:monospace;margin:2em;background:#fdfdfd}"
     << "pre{background:#f4f4f4;padding:8px;border:1px solid #ccc}"
     << "</style></head><body><h1>recent traces</h1>"
     << "<p>" << entries.size() << " retained (newest last); "
     << "<a href=\"/tracez?format=json\">json</a></p>";
  for (const RecordedProfile& rec : entries) {
    os << "<h3>#" << rec.id << " "
       << HtmlEscape(rec.query.empty() ? "(unnamed query)" : rec.query)
       << " — " << rec.latency_us << " us</h3><pre>"
       << HtmlEscape(rec.profile.trace.TreeString()) << "</pre>";
  }
  os << "</body></html>";
  resp.content_type = "text/html; charset=utf-8";
  resp.body = os.str();
  return resp;
}

StatsServer::~StatsServer() { Stop(); }

void StatsServer::Handle(const std::string& path, HttpHandler handler,
                         bool prefix) {
  HandleMethod("GET", path, std::move(handler), prefix);
}

void StatsServer::HandleMethod(const std::string& method,
                               const std::string& path, HttpHandler handler,
                               bool prefix) {
  (prefix ? prefix_ : exact_).push_back({path, method, std::move(handler)});
}

void StatsServer::AddStatuszSection(const std::string& title,
                                    std::function<std::string()> html_fn) {
  statusz_sections_.emplace_back(title, std::move(html_fn));
}

Status StatsServer::Start() {
  if (running_.load()) return Status::Internal("stats server already running");

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    return Status::Internal(std::string("socket: ") + strerror(errno));
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(options_.port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::Internal(std::string("bind port ") +
                                std::to_string(options_.port) + ": " +
                                strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  // The front door is sized for ~1000 concurrent closed-loop sessions; a
  // short backlog turns a connect burst into SYN retransmits (seconds of
  // artificial tail latency). The kernel clamps to somaxconn.
  if (listen(listen_fd_, 1024) < 0) {
    Status s = Status::Internal(std::string("listen: ") + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_.store(ntohs(addr.sin_port));

  if (pipe(wake_pipe_) < 0) {
    Status s = Status::Internal(std::string("pipe: ") + strerror(errno));
    close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }

  start_time_ = std::chrono::steady_clock::now();
  requests_served_.store(0);
  {
    MutexLock lock(queue_mu_);
    shutting_down_ = false;
  }
  running_.store(true);
  for (int i = 0; i < options_.num_workers; ++i)
    workers_.emplace_back(&StatsServer::WorkerLoop, this);
  acceptor_ = std::thread(&StatsServer::AcceptLoop, this);

  LogEvent(LogLevel::kInfo, "stats_server_started")
      .Int("port", port_.load())
      .Int("workers", options_.num_workers)
      .Emit();
  return Status::OK();
}

void StatsServer::Stop() {
  if (!running_.exchange(false)) return;

  // Wake the acceptor out of poll() via the self-pipe; it then stops
  // accepting and exits. shutdown() unblocks any in-flight accept too.
  char byte = 'x';
  ssize_t ignored = write(wake_pipe_[1], &byte, 1);
  (void)ignored;
  shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
  close(wake_pipe_[0]);
  close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;

  // Tell workers to drain: anything still queued is answered 503.
  {
    MutexLock lock(queue_mu_);
    shutting_down_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  workers_.clear();

  std::deque<int> leftovers;
  {
    MutexLock lock(queue_mu_);
    leftovers.swap(pending_);
  }
  for (int fd : leftovers) {
    WriteResponse(fd, SimpleResponse(503, "shutting down\n"), false);
    close(fd);
  }

  LogEvent(LogLevel::kInfo, "stats_server_stopped")
      .Int("requests_served", int64_t(requests_served_.load()))
      .Emit();
}

void StatsServer::AcceptLoop() {
  while (running_.load()) {
    pollfd fds[2];
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    int rc = poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // Stop() wrote the self-pipe
    if ((fds[0].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listen socket shut down
    }
    bool queued = false;
    {
      MutexLock lock(queue_mu_);
      if (int(pending_.size()) < options_.max_queued) {
        pending_.push_back(fd);
        queued = true;
      }
    }
    if (queued) {
      queue_cv_.NotifyOne();
    } else {
      // Bounded queue full: shed load instead of buffering unboundedly.
      WriteResponse(fd, SimpleResponse(503, "overloaded\n"), false);
      close(fd);
      if (Enabled())
        MetricsRegistry::Global().GetCounter("statcube.http.shed").Add(1);
    }
  }
}

void StatsServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      MutexLock lock(queue_mu_);
      while (!shutting_down_ && pending_.empty()) queue_cv_.Wait(queue_mu_);
      if (!pending_.empty()) {
        fd = pending_.front();
        pending_.pop_front();
      } else if (shutting_down_) {
        return;
      }
    }
    if (fd >= 0) ServeConnection(fd);
  }
}

void StatsServer::ServeConnection(int fd) {
  SetSocketTimeouts(fd, options_.read_timeout_ms, options_.write_timeout_ms);

  // Read until the end of headers. The header section has its own fixed cap
  // (kMaxRequestBytes); the body, read below only when Content-Length
  // announces one, is bounded separately by options_.max_body_bytes.
  std::string raw;
  char buf[2048];
  bool complete = false, timed_out = false;
  while (raw.size() < kMaxRequestBytes) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      timed_out = (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
    if (n == 0) break;  // client closed
    raw.append(buf, size_t(n));
    if (raw.find("\r\n\r\n") != std::string::npos ||
        raw.find("\n\n") != std::string::npos) {
      complete = true;
      break;
    }
  }
  if (!complete) {
    if (timed_out) WriteResponse(fd, SimpleResponse(408, "timeout\n"), false);
    else if (!raw.empty())
      WriteResponse(fd, SimpleResponse(400, "truncated request\n"), false);
    close(fd);
    return;
  }

  // Locate the header/body boundary (whichever separator came first).
  size_t hdr_end = raw.find("\r\n\r\n");
  size_t sep_len = 4;
  size_t lf_end = raw.find("\n\n");
  if (hdr_end == std::string::npos ||
      (lf_end != std::string::npos && lf_end < hdr_end)) {
    hdr_end = lf_end;
    sep_len = 2;
  }
  const size_t body_start = hdr_end + sep_len;

  size_t content_length = 0;
  if (!FindContentLength(raw.substr(0, hdr_end), &content_length)) {
    WriteResponse(fd, SimpleResponse(400, "bad Content-Length\n"), false);
    close(fd);
    return;
  }
  if (content_length > options_.max_body_bytes) {
    // Refuse without reading: the client said up front it would overflow
    // the budget, so there is no reason to drain the bytes.
    WriteResponse(fd, SimpleResponse(413, "request body too large\n"), false);
    close(fd);
    if (Enabled())
      MetricsRegistry::Global()
          .GetCounter("statcube.http.body_too_large")
          .Add(1);
    return;
  }
  timed_out = false;
  while (raw.size() < body_start + content_length) {
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      timed_out = (errno == EAGAIN || errno == EWOULDBLOCK);
      break;
    }
    if (n == 0) break;  // client closed mid-body
    raw.append(buf, size_t(n));
  }
  if (raw.size() < body_start + content_length) {
    WriteResponse(fd,
                  SimpleResponse(timed_out ? 408 : 400,
                                 timed_out ? "timeout\n" : "truncated body\n"),
                  false);
    close(fd);
    return;
  }

  // Request line: METHOD SP target SP version.
  size_t eol = raw.find_first_of("\r\n");
  std::string line = raw.substr(0, eol);
  size_t sp1 = line.find(' ');
  size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    WriteResponse(fd, SimpleResponse(400, "malformed request line\n"), false);
    close(fd);
    return;
  }
  HttpRequest req;
  req.method = line.substr(0, sp1);
  std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  size_t qmark = target.find('?');
  req.path = target.substr(0, qmark);
  if (qmark != std::string::npos) req.query = target.substr(qmark + 1);
  req.body = raw.substr(body_start, content_length);

  HttpResponse resp;
  bool head_only = req.method == "HEAD";
  if (req.method != "GET" && req.method != "HEAD" && req.method != "POST") {
    resp = SimpleResponse(405, "only GET, HEAD and POST are served\n");
  } else {
    // HEAD dispatches to the GET route (headers-only at write time). Exact
    // match beats prefix; among prefixes the longest wins. A path that
    // matched only under another method is a 405, not a 404.
    const std::string& method = head_only ? "GET" : req.method;
    const HttpHandler* handler = nullptr;
    bool path_known = false;
    for (const Route& r : exact_)
      if (r.path == req.path) {
        path_known = true;
        if (r.method == method) handler = &r.handler;
      }
    if (handler == nullptr) {
      size_t best = 0;
      for (const Route& r : prefix_)
        if (req.path.rfind(r.path, 0) == 0 && r.path.size() >= best) {
          path_known = true;
          if (r.method == method) {
            handler = &r.handler;
            best = r.path.size();
          }
        }
    }
    if (handler == nullptr) {
      resp = path_known
                 ? SimpleResponse(405, "method not allowed for this endpoint\n")
                 : SimpleResponse(404, "no such endpoint\n");
    } else {
      try {
        resp = (*handler)(req);
      } catch (const std::exception& e) {
        resp = SimpleResponse(500, std::string("handler error: ") + e.what() +
                                       "\n");
      } catch (...) {
        resp = SimpleResponse(500, "handler error\n");
      }
    }
  }

  WriteResponse(fd, resp, head_only);
  close(fd);
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  if (Enabled()) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    reg.GetCounter("statcube.http.requests").Add(1);
    if (resp.status >= 400)
      reg.GetCounter("statcube.http.errors").Add(1);
  }
}

}  // namespace statcube::obs
