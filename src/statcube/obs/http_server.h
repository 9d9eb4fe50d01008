// Embedded HTTP/1.1 stats server over raw POSIX sockets — no third-party
// dependency, because the only job is serving small text/JSON snapshots to
// scrapers and humans with curl. Architecture: one acceptor thread blocks
// in poll() on the listen socket plus a self-pipe; accepted connections go
// into a bounded queue drained by a small fixed pool of worker threads
// (serving a snapshot is cheap; the pool exists so one stalled client
// cannot block the scraper). Stop() writes the self-pipe, closes the listen
// socket, and joins every thread — safe to call from any thread, idempotent.
//
// Built-in endpoints (GET unless noted; HEAD answers headers-only):
//   /metrics         Prometheus text exposition v0.0.4 (obs/exporter.h)
//   /healthz         "ok\n", 200 — liveness for load balancers
//   /profiles        flight-recorder ring as JSON, oldest first (?n= limit)
//   /profiles/<id>   one retained profile by id (404 once evicted)
//   /queryz          in-flight queries from obs::QueryRegistry, HTML by
//                    default, ?format=json for machines: per-query id,
//                    text, engine, elapsed wall/CPU, morsels, cache mode
//   POST /queryz/cancel?id=N   cancels in-flight query N (404 when it is
//                    not running; the query returns kCancelled)
//   /statusz         dependency-free HTML: uptime, build info, QPS /
//                    latency / cache-hit-rate sparklines (when a
//                    MetricSampler is wired in), pool and queue gauges,
//                    recent slow queries (with their outcome)
//   /tracez          recent trace trees from the flight recorder, HTML by
//                    default, ?format=json for machines
//
// Content types are per-endpoint: Prometheus text for /metrics,
// application/json for the JSON endpoints, text/html for /statusz and
// /tracez. Query strings are parsed strictly — a malformed pair (missing
// '=', empty key) or an unparsable numeric value is a 400, not a silent
// default. Routes are (method, path) pairs: a known path hit with the wrong
// method is a 405, an unknown path a 404. POST bodies are read when
// Content-Length announces one, bounded by max_body_bytes (oversize = 413)
// — the serve/ front door's /query endpoint consumes them; /queryz/cancel
// still takes its argument in the query string.
//
// Additional handlers can be registered before Start(). Connections are
// serviced one request each (Connection: close); a client that does not
// deliver a full request within the read timeout is dropped with 408.

#ifndef STATCUBE_OBS_HTTP_SERVER_H_
#define STATCUBE_OBS_HTTP_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "statcube/common/mutex.h"
#include "statcube/common/status.h"
#include "statcube/common/thread_annotations.h"

namespace statcube::obs {

class MetricSampler;

/// A parsed request as seen by handlers.
struct HttpRequest {
  std::string method;  ///< "GET", "HEAD", ...
  std::string path;    ///< decoded path, no query string
  std::string query;   ///< raw query string after '?', may be empty
  /// Request body, read when Content-Length says there is one. Bounded by
  /// StatsServerOptions::max_body_bytes — an oversized body is answered 413
  /// before the handler ever runs.
  std::string body;
};

/// What a handler sends back. Default: 200 text/plain empty body.
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  /// Extra response headers as (name, value) pairs — e.g. Retry-After on a
  /// 429. Content-Type/Content-Length/Connection are always emitted by the
  /// server and must not be repeated here.
  std::vector<std::pair<std::string, std::string>> headers;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct StatsServerOptions {
  uint16_t port = 0;        ///< 0 = kernel-assigned (see StatsServer::port())
  int num_workers = 4;      ///< connection-handling threads
  int max_queued = 64;      ///< accepted-but-unserviced connection cap;
                            ///< beyond it, new connections are closed
  int read_timeout_ms = 5000;   ///< full request must arrive within this
  int write_timeout_ms = 5000;  ///< response write timeout
  /// Largest accepted request body (Content-Length and actual bytes both
  /// checked). Bigger bodies are answered 413 Payload Too Large without
  /// reading them. Headers have their own independent 8 KB cap.
  size_t max_body_bytes = 65536;
  bool register_default_endpoints = true;  ///< the endpoint table above
  /// Optional time-series source for /statusz sparklines and /tracez's
  /// sampler block. Not owned; must outlive the server. Without one,
  /// /statusz still renders uptime/build/gauges/slow-queries but no
  /// sparklines.
  MetricSampler* sampler = nullptr;
};

class StatsServer {
 public:
  explicit StatsServer(StatsServerOptions options = {});
  ~StatsServer();  // calls Stop()
  StatsServer(const StatsServer&) = delete;
  StatsServer& operator=(const StatsServer&) = delete;

  /// Exact-path GET handler ("/metrics") or, with `prefix = true`, a
  /// subtree handler ("/profiles/" receives every path below it). Must be
  /// called before Start(). Longest match wins; exact beats prefix. HEAD is
  /// served by the GET route, headers-only.
  void Handle(const std::string& path, HttpHandler handler,
              bool prefix = false);

  /// Like Handle but for an explicit method (e.g. "POST" for
  /// /queryz/cancel). A path registered under one method answers 405 — not
  /// 404 — to the others.
  void HandleMethod(const std::string& method, const std::string& path,
                    HttpHandler handler, bool prefix = false);

  /// Appends a custom section to the /statusz page: `html_fn` is called at
  /// render time and must return an HTML fragment (it is embedded verbatim
  /// under an <h2> with `title`, which is escaped). This is how higher
  /// layers — the serve/ front door's per-tenant table, for example — put
  /// their state on /statusz without obs/ depending on them. Must be called
  /// before Start().
  void AddStatuszSection(const std::string& title,
                         std::function<std::string()> html_fn);

  /// Binds 0.0.0.0:<port>, spawns the acceptor and workers. Fails if the
  /// port is taken or the server already runs.
  Status Start();

  /// Shuts down: stops accepting, drains queued connections with 503,
  /// joins all threads. Idempotent.
  void Stop();

  bool running() const { return running_.load(); }
  /// The bound port (useful with options.port = 0). 0 before Start().
  uint16_t port() const { return port_.load(); }
  /// Requests fully served since Start().
  uint64_t requests_served() const { return requests_served_.load(); }

 private:
  void AcceptLoop();
  void WorkerLoop();
  void ServeConnection(int fd);
  /// Renders the /statusz HTML page (sparklines come from options_.sampler).
  HttpResponse StatuszPage() const;
  /// Renders /tracez: the newest `limit` flight-recorder traces.
  static HttpResponse TracezPage(size_t limit, bool json);
  /// Renders /queryz as HTML: one row per in-flight query.
  static HttpResponse QueryzPage();

  StatsServerOptions options_;
  std::atomic<bool> running_{false};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> requests_served_{0};

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  // self-pipe: Stop() wakes the acceptor
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  Mutex queue_mu_;
  CondVar queue_cv_;
  /// accepted fds awaiting a worker
  std::deque<int> pending_ STATCUBE_GUARDED_BY(queue_mu_);
  bool shutting_down_ STATCUBE_GUARDED_BY(queue_mu_) = false;

  /// One registered (method, path) route.
  struct Route {
    std::string path;
    std::string method;  // "GET", "POST", ... (HEAD dispatches to GET)
    HttpHandler handler;
  };

  std::vector<Route> exact_;
  std::vector<Route> prefix_;
  /// Extra /statusz sections from higher layers, rendered in order.
  std::vector<std::pair<std::string, std::function<std::string()>>>
      statusz_sections_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace statcube::obs

#endif  // STATCUBE_OBS_HTTP_SERVER_H_
