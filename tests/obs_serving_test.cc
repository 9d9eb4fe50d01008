// Tests for the observability serving layer: the shared JSON writer, the
// Prometheus exporter, the structured log (levels, sinks, token-bucket rate
// limit), the flight recorder (ring semantics, slow-query promotion), and
// the embedded HTTP stats server end-to-end over a real socket: its
// lifecycle (every worker accepts, Stop() with idle and busy workers, an
// accept() that fails at the fd limit) and seeded hostile requests.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "statcube/common/rng.h"
#include "statcube/obs/exporter.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/json.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/trace.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// ------------------------------------------------- tiny blocking client

// A loopback client socket whose reads give up after 10 s, so a server that
// never answers fails the test instead of hanging it.
int BoundedClientSocket() {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  timeval tv{10, 0};
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  return fd;
}

bool Connect(int fd, uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
}

// Sends `request` (stopping at the first failed write), closes the write
// side so the server reads EOF instead of waiting out its read timeout,
// and reads until the server closes, resets or the 10 s bound passes.
// Returns the bytes read; *timed_out says whether the bound passed.
std::string Exchange(int fd, const std::string& request,
                     bool* timed_out = nullptr) {
  size_t off = 0;
  while (off < request.size()) {
    ssize_t n = send(fd, request.data() + off, request.size() - off,
                     MSG_NOSIGNAL);
    if (n <= 0) break;
    off += size_t(n);
  }
  shutdown(fd, SHUT_WR);
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) resp.append(buf, size_t(n));
  if (timed_out != nullptr)
    *timed_out = n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  return resp;
}

// One HTTP/1.1 request against localhost:port; returns the raw response
// (headers + body) or "" on connect/IO failure.
std::string HttpGet(uint16_t port, const std::string& target,
                    const std::string& method = "GET") {
  const std::string req = method + " " + target +
                          " HTTP/1.1\r\nHost: localhost\r\n"
                          "Connection: close\r\n\r\n";
  const int fd = BoundedClientSocket();
  if (fd < 0) return "";
  const std::string resp = Connect(fd, port) ? Exchange(fd, req) : "";
  close(fd);
  return resp;
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

// A count-down latch whose wait is bounded: a handler that waits for a
// request the server never delivers gives up instead of hanging the test.
class Latch {
 public:
  explicit Latch(int count) : count_(count) {}
  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (count_ > 0 && --count_ == 0) cv_.notify_all();
  }
  bool Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [this] { return count_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int count_;
};

// ------------------------------------------------------------ JsonWriter

TEST(JsonWriterTest, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(obs::JsonStr("plain"), "\"plain\"");
  EXPECT_EQ(obs::JsonStr("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::JsonStr("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::JsonStr("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(obs::JsonStr(std::string("a\x01z")), "\"a\\u0001z\"");
  EXPECT_EQ(obs::JsonStr("x\"y"), "\"x\\\"y\"");
  // Every escaped string must parse as JSON.
  for (const char* hostile :
       {"\"", "\\", "\n\t\r\b\f", "\x01\x02\x1f", "mix\"ed\\every\nthing"}) {
    EXPECT_TRUE(JsonChecker(obs::JsonStr(hostile)).Valid())
        << obs::JsonStr(hostile);
  }
}

TEST(JsonWriterTest, PlacesCommasAndSpellsNonFiniteDoubles) {
  obs::JsonWriter w;
  w.BeginObject().Key("a").BeginArray().EndArray().Key("b").BeginObject();
  w.EndObject().Key("c").BeginArray().Int(-1).Uint(2).Double(0.1);
  w.Double(NAN).Double(INFINITY).Double(-INFINITY).Bool(true).Null();
  w.Cell(Value::All()).Raw("{\"x\":1}").EndArray().EndObject();
  const std::string json = w.Take();
  EXPECT_EQ(json,
            "{\"a\":[],\"b\":{},\"c\":[-1,2,0.1,\"NaN\",\"Infinity\","
            "\"-Infinity\",true,null,\"ALL\",{\"x\":1}]}");
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
}

// Hostile names flow through every serializer and stay valid JSON (or, on
// /metrics, a valid Prometheus name).
TEST(JsonWriterTest, SerializersSurviveHostileNames) {
  const std::string hostile = "evil\"name\\with\ncontrol\x01chars";

  // Metrics registry on /metrics: the name is sanitized, not escaped.
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("statcube.test." + hostile).Add(1);
  const std::string name = obs::PrometheusName("statcube.test." + hostile);
  EXPECT_EQ(name.find_first_not_of("abcdefghijklmnopqrstuvwxyz_"),
            std::string::npos)
      << name;
  const std::string prom = obs::PrometheusSnapshot(reg);
  EXPECT_NE(prom.find("\n" + name + " 1\n"), std::string::npos) << prom;

  // Trace Chrome export with a hostile span name.
  {
    obs::EnabledScope on(true);
    obs::TraceScope scope;
    { obs::Span s(hostile); }
    EXPECT_TRUE(JsonChecker(scope.trace().ChromeTraceJson()).Valid())
        << scope.trace().ChromeTraceJson();
  }

  // QueryProfile JSON with hostile operator and backend names.
  {
    obs::EnabledScope on(true);
    obs::ProfileScope scope;
    obs::RecordOperator(hostile.c_str(), 1, 1);
    obs::RecordBackend(hostile, 1, 1);
    obs::QueryProfile p = scope.Take();
    EXPECT_TRUE(JsonChecker(p.ToJson()).Valid()) << p.ToJson();
  }

  // Flight-recorder entry with hostile query text.
  {
    obs::FlightRecorder rec(4);
    obs::EnabledScope on(true);
    obs::ProfileScope scope;
    rec.Record(scope.Take(), "SELECT \"\\\n\x02 FROM nowhere");
    EXPECT_TRUE(JsonChecker(rec.ToJson()).Valid()) << rec.ToJson();
  }

  // Log line with hostile event and field values.
  {
    obs::LogEvent ev(obs::LogLevel::kError, hostile);
    ev.Str("field", hostile).Num("n", 1.5).Int("i", -2).Bool("b", true);
    EXPECT_TRUE(JsonChecker(ev.Render()).Valid()) << ev.Render();
  }
  reg.Reset();
}

// -------------------------------------------------------------- exporter

TEST(ExporterTest, PrometheusNameSanitization) {
  EXPECT_EQ(obs::PrometheusName("statcube.query.latency_us"),
            "statcube_query_latency_us");
  EXPECT_EQ(obs::PrometheusName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(obs::PrometheusName("9lives"), "_9lives");
}

TEST(ExporterTest, RendersTypedMetricsWithCumulativeBuckets) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.GetCounter("statcube.test.requests").Add(7);
  reg.GetGauge("statcube.test.temperature").Set(36.6);
  obs::Histogram& h = reg.GetHistogram("statcube.test.lat_us", {10, 100});
  h.Observe(5);
  h.Observe(50);
  h.Observe(5000);

  std::string text = obs::PrometheusSnapshot(reg);
  EXPECT_NE(text.find("# TYPE statcube_test_requests counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("statcube_test_requests 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE statcube_test_temperature gauge"),
            std::string::npos);
  EXPECT_NE(text.find("statcube_test_temperature 36.6"), std::string::npos);
  EXPECT_NE(text.find("# TYPE statcube_test_lat_us histogram"),
            std::string::npos);
  // Buckets are cumulative with a final +Inf equal to the count.
  EXPECT_NE(text.find("statcube_test_lat_us_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_bucket{le=\"100\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_count 3"), std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_sum 5055"), std::string::npos);
  // Derived percentile gauges exist.
  EXPECT_NE(text.find("statcube_test_lat_us_p50 "), std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_p95 "), std::string::npos);
  EXPECT_NE(text.find("statcube_test_lat_us_p99 "), std::string::npos);

  // Prometheus text format invariants: every non-comment line is
  // `name{labels} value` or `name value` with a parseable value.
  for (size_t start = 0; start < text.size();) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    char* endp = nullptr;
    strtod(line.c_str() + sp + 1, &endp);
    EXPECT_EQ(*endp, '\0') << "unparseable value in: " << line;
  }
  reg.Reset();
}

// ------------------------------------------------------------------- log

TEST(LogTest, StructuredLineShapeAndLevels) {
  std::vector<std::string> lines;
  auto prev = obs::SetLogSink(
      [&lines](const std::string& line) { lines.push_back(line); });
  obs::SetLogRateLimit(0, 0);  // disable limiting for this test

  obs::LogEvent(obs::LogLevel::kInfo, "test_event")
      .Str("query", "SELECT sum(amount) BY city")
      .Int("rows", 42)
      .Num("latency_us", 12.5)
      .Bool("slow", false)
      .Emit();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonChecker(lines[0]).Valid()) << lines[0];
  EXPECT_NE(lines[0].find("\"level\":\"info\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"event\":\"test_event\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"rows\":42"), std::string::npos);
  EXPECT_NE(lines[0].find("\"slow\":false"), std::string::npos);
  EXPECT_NE(lines[0].find("\"ts\":\""), std::string::npos);

  // Below min level: nothing emitted, not even rendered.
  obs::LogLevel prev_level = obs::SetMinLogLevel(obs::LogLevel::kWarn);
  EXPECT_FALSE(obs::LogEvent(obs::LogLevel::kInfo, "dropped").Emit());
  EXPECT_TRUE(obs::LogEvent(obs::LogLevel::kError, "kept").Emit());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"kept\""), std::string::npos);

  obs::SetMinLogLevel(prev_level);
  obs::SetLogRateLimit(100, 50);
  obs::SetLogSink(std::move(prev));
}

TEST(LogTest, TokenBucketLimitsBurst) {
  std::vector<std::string> lines;
  auto prev = obs::SetLogSink(
      [&lines](const std::string& line) { lines.push_back(line); });
  // 5-token bucket, negligible refill: exactly 5 of 50 get through.
  obs::SetLogRateLimit(0.0001, 5);
  uint64_t dropped_before = obs::LogDroppedCount();
  int emitted = 0;
  for (int i = 0; i < 50; ++i)
    if (obs::LogEvent(obs::LogLevel::kError, "burst").Emit()) ++emitted;
  EXPECT_EQ(emitted, 5);
  EXPECT_EQ(lines.size(), 5u);
  EXPECT_EQ(obs::LogDroppedCount() - dropped_before, 45u);

  obs::SetLogRateLimit(100, 50);
  obs::SetLogSink(std::move(prev));
}

// -------------------------------------------------------- flight recorder

obs::QueryProfile MakeProfile(const std::string& backend) {
  obs::EnabledScope on(true);
  obs::ProfileScope scope;
  obs::RecordBackend(backend, 3, 12288);
  return scope.Take();
}

TEST(FlightRecorderTest, RingEvictsOldestAndIdsAreMonotonic) {
  obs::FlightRecorder rec(3);
  uint64_t first = rec.Record(MakeProfile("molap"), "q1");
  rec.Record(MakeProfile("molap"), "q2");
  rec.Record(MakeProfile("rolap"), "q3");
  uint64_t last = rec.Record(MakeProfile("rolap"), "q4");
  EXPECT_EQ(last, first + 3);
  EXPECT_EQ(rec.TotalRecorded(), 4u);

  auto entries = rec.Snapshot();
  ASSERT_EQ(entries.size(), 3u);  // q1 evicted
  EXPECT_EQ(entries[0].query, "q2");
  EXPECT_EQ(entries[2].query, "q4");
  for (size_t i = 1; i < entries.size(); ++i)
    EXPECT_EQ(entries[i].id, entries[i - 1].id + 1);

  // Get by id: evicted ids are gone, retained ids round-trip.
  EXPECT_FALSE(rec.Get(first).has_value());
  auto got = rec.Get(last);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->query, "q4");
  EXPECT_EQ(got->profile.backend, "rolap");

  // Limited snapshot takes the newest.
  auto latest = rec.Snapshot(1);
  ASSERT_EQ(latest.size(), 1u);
  EXPECT_EQ(latest[0].query, "q4");

  EXPECT_TRUE(JsonChecker(rec.ToJson()).Valid()) << rec.ToJson();
  rec.Clear();
  EXPECT_TRUE(rec.Snapshot().empty());
  EXPECT_EQ(rec.TotalRecorded(), 4u);  // ids keep advancing
}

TEST(FlightRecorderTest, SlowQueryEmitsExactlyOneLogLine) {
  std::vector<std::string> lines;
  auto prev = obs::SetLogSink(
      [&lines](const std::string& line) { lines.push_back(line); });
  obs::SetLogRateLimit(0, 0);

  obs::FlightRecorder rec(8);
  rec.SetSlowQueryThresholdUs(1);  // every real query exceeds 1us

  // Under threshold 0 (disabled): no log.
  rec.SetSlowQueryThresholdUs(0);
  rec.Record(MakeProfile("molap"), "fast");
  EXPECT_TRUE(lines.empty());

  // Over threshold: exactly one slow_query line, carrying the query text.
  // The profiled scope sleeps 2ms so its latency beats the 1us threshold
  // deterministically even on a coarse clock.
  rec.SetSlowQueryThresholdUs(1);
  obs::QueryProfile slow_profile;
  {
    obs::EnabledScope on(true);
    obs::ProfileScope scope;
    obs::RecordBackend("rolap", 3, 12288);
    // Simulates query latency (not a wait-for-condition): the recorder must
    // see a nonzero duration. statcube-lint: allow(sleep)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    slow_profile = scope.Take();
  }
  ASSERT_GE(slow_profile.trace.TotalDurationNs(), 1000u);
  uint64_t id = rec.Record(slow_profile, "SELECT slow BY something");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonChecker(lines[0]).Valid()) << lines[0];
  EXPECT_NE(lines[0].find("\"event\":\"slow_query\""), std::string::npos);
  EXPECT_NE(lines[0].find("SELECT slow BY something"), std::string::npos);
  EXPECT_NE(lines[0].find("\"profile_id\":" + std::to_string(id)),
            std::string::npos);
  {
    auto got = rec.Get(id);
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->slow);
  }

  obs::SetLogRateLimit(100, 50);
  obs::SetLogSink(std::move(prev));
}

// ------------------------------------------------------------ http server

class StatsServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::StatsServerOptions opt;
    opt.port = 0;  // kernel-assigned
    opt.num_workers = 2;
    server_ = std::make_unique<obs::StatsServer>(opt);
    auto s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override { server_->Stop(); }
  std::unique_ptr<obs::StatsServer> server_;
};

TEST_F(StatsServerTest, HealthzAndNotFound) {
  std::string resp = HttpGet(server_->port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_EQ(Body(resp), "ok\n");

  EXPECT_NE(HttpGet(server_->port(), "/nope").find("404"), std::string::npos);
  EXPECT_NE(HttpGet(server_->port(), "/healthz", "POST").find("405"),
            std::string::npos);
  // HEAD answers headers only.
  std::string head = HttpGet(server_->port(), "/healthz", "HEAD");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_EQ(Body(head), "");
}

TEST_F(StatsServerTest, ProfilesMissingIdIs404WithBody) {
  // A well-formed id that the recorder has never retained (ids start at 1,
  // so 0 can never exist; the huge id outlives any test's recording) must
  // produce a proper 404 response, not an empty 200 or a crash.
  for (const char* target : {"/profiles/0", "/profiles/18446744073709551615"}) {
    std::string resp = HttpGet(server_->port(), target);
    EXPECT_NE(resp.find("HTTP/1.1 404 Not Found"), std::string::npos)
        << target << ": " << resp;
    EXPECT_EQ(Body(resp), "profile not retained\n") << target;
  }
}

TEST_F(StatsServerTest, MetricsEndpointServesPrometheusText) {
  obs::EnabledScope on(true);
  obs::MetricsRegistry::Global().Reset();
  obs::MetricsRegistry::Global().GetCounter("statcube.test.http").Add(5);
  obs::MetricsRegistry::Global()
      .GetHistogram("statcube.test.http_lat", {10, 100})
      .Observe(42);

  std::string resp = HttpGet(server_->port(), "/metrics");
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("text/plain; version=0.0.4"), std::string::npos);
  std::string body = Body(resp);
  EXPECT_NE(body.find("statcube_test_http 5"), std::string::npos) << body;
  EXPECT_NE(body.find("statcube_test_http_lat_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  obs::MetricsRegistry::Global().Reset();
}

// Gauge values are exact, and non-finite ones use the exposition format's
// spellings. A double-to-integer cast of any value here but the last is
// undefined, so the formatter must not make one.
TEST_F(StatsServerTest, MetricsGaugesAreExactAndSpellNonFinite) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  const std::pair<const char*, double> gauges[] = {
      {"nan", NAN},      {"pinf", INFINITY}, {"ninf", -INFINITY},
      {"huge", 1e300},   {"big", 1234567.891}};
  for (const auto& [name, v] : gauges)
    reg.GetGauge(std::string("statcube.test.g_") + name).Set(v);

  const std::string body = Body(HttpGet(server_->port(), "/metrics"));
  for (const char* line :
       {"\nstatcube_test_g_nan NaN\n", "\nstatcube_test_g_pinf +Inf\n",
        "\nstatcube_test_g_ninf -Inf\n", "\nstatcube_test_g_huge 1e+300\n",
        "\nstatcube_test_g_big 1234567.891\n"})
    EXPECT_NE(body.find(line), std::string::npos) << line << " in\n" << body;
  reg.Reset();
}

TEST_F(StatsServerTest, ProfilesEndpointsServeTheGlobalRecorder) {
  // Feed the global recorder through the real query path.
  RetailOptions ropt;
  ropt.num_products = 6;
  ropt.num_stores = 4;
  ropt.num_cities = 2;
  ropt.num_days = 5;
  ropt.num_rows = 500;
  auto data = MakeRetailWorkload(ropt);
  ASSERT_TRUE(data.ok());
  auto r = QueryProfiled(data->object, "SELECT sum(amount) BY city");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_GT(r->profile_id, 0u);

  std::string body = Body(HttpGet(server_->port(), "/profiles"));
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_NE(body.find("\"id\":" + std::to_string(r->profile_id)),
            std::string::npos)
      << body;
  EXPECT_NE(body.find("SELECT sum(amount) BY city"), std::string::npos);

  // Single-profile endpoint round-trips; bad ids are 400/404.
  std::string one = Body(HttpGet(
      server_->port(), "/profiles/" + std::to_string(r->profile_id)));
  EXPECT_TRUE(JsonChecker(one).Valid()) << one;
  EXPECT_NE(one.find("\"backend\":"), std::string::npos);
  EXPECT_NE(HttpGet(server_->port(), "/profiles/999999999").find("404"),
            std::string::npos);
  EXPECT_NE(HttpGet(server_->port(), "/profiles/abc").find("400"),
            std::string::npos);

  // limit=1 returns exactly the newest entry.
  std::string limited = Body(HttpGet(server_->port(), "/profiles?limit=1"));
  EXPECT_TRUE(JsonChecker(limited).Valid());
  size_t first = limited.find("\"id\":");
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(limited.find("\"id\":", first + 1), std::string::npos)
      << "more than one profile with limit=1: " << limited;
}

TEST(StatsServerLifecycleTest, StopIsIdempotentAndPortRefusesAfterStop) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  auto server = std::make_unique<obs::StatsServer>(opt);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  server->Stop();
  server->Stop();  // idempotent
  EXPECT_EQ(HttpGet(port, "/healthz"), "");  // connection refused
  // A second server can immediately rebind (SO_REUSEADDR) the same port.
  obs::StatsServerOptions opt2;
  opt2.port = port;
  obs::StatsServer second(opt2);
  auto s = second.Start();
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  second.Stop();
}

// Two requests held inside the handler at once are both answered by a
// 2-worker server: each worker accepts its own connection.
TEST(StatsServerLifecycleTest, EveryWorkerAccepts) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  opt.num_workers = 2;
  obs::StatsServer server(opt);
  Latch both_inside(2);
  server.Handle("/hold", [&both_inside](const obs::HttpRequest&) {
    both_inside.CountDown();
    obs::HttpResponse resp;
    resp.status = both_inside.Wait() ? 200 : 500;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  std::string first, second;
  std::thread a([&] { first = HttpGet(server.port(), "/hold"); });
  std::thread b([&] { second = HttpGet(server.port(), "/hold"); });
  a.join();
  b.join();
  server.Stop();
  EXPECT_NE(first.find("HTTP/1.1 200 OK"), std::string::npos) << first;
  EXPECT_NE(second.find("HTTP/1.1 200 OK"), std::string::npos) << second;
}

// Stop() wakes workers blocked in accept(): it returns with every worker
// idle, and the port refuses connections afterwards.
TEST(StatsServerLifecycleTest, StopReturnsWhileEveryWorkerIdlesInAccept) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  opt.num_workers = 4;
  obs::StatsServer server(opt);
  ASSERT_TRUE(server.Start().ok());
  const uint16_t port = server.port();
  EXPECT_NE(HttpGet(port, "/healthz").find("200"), std::string::npos);
  server.Stop();
  EXPECT_FALSE(server.running());
  EXPECT_EQ(HttpGet(port, "/healthz"), "");
}

// A request in flight when Stop() begins is answered 200, and Stop() does
// not return until it has been.
TEST(StatsServerLifecycleTest, StopAnswersTheRequestInFlight) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  opt.num_workers = 2;
  obs::StatsServer server(opt);
  Latch entered(1), release(1);
  server.Handle("/hold", [&](const obs::HttpRequest&) {
    entered.CountDown();
    obs::HttpResponse resp;
    resp.status = release.Wait() ? 200 : 500;
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());
  std::string resp;
  std::thread client([&] { resp = HttpGet(server.port(), "/hold"); });
  ASSERT_TRUE(entered.Wait());

  std::atomic<bool> stop_returned{false};
  std::thread stopper([&] {
    server.Stop();
    stop_returned.store(true);
  });
  // Stop() has begun once running() reads false.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.running() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_FALSE(server.running());
  EXPECT_FALSE(stop_returned.load()) << "Stop() did not wait for the handler";
  release.CountDown();
  client.join();
  stopper.join();
  EXPECT_TRUE(stop_returned.load());
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
}

// At the fd limit accept() fails with EMFILE and leaves the connection in
// the backlog. The worker logs accept_failed and keeps retrying, so the
// connection is answered once descriptors are free again.
TEST(StatsServerLifecycleTest, AcceptRecoversFromFdExhaustion) {
  Latch warned(1);
  const std::string emfile = "\"errno\":" + std::to_string(EMFILE);
  auto prev_sink = obs::SetLogSink([&](const std::string& line) {
    if (line.find("\"event\":\"accept_failed\"") != std::string::npos &&
        line.find(emfile) != std::string::npos)
      warned.CountDown();
  });
  obs::SetLogRateLimit(0, 0);

  // Every descriptor the server and the clients take lies at or above
  // `limit`, the lowest one free now, and every one below it is in use. A
  // soft limit of `limit` therefore leaves no descriptor to allocate, and
  // nothing the server closes frees one. A worker already blocked in
  // accept() reserved its descriptor on entry; the warm-up connection
  // spends that reservation, so the worker's next accept() meets the limit.
  const int limit = open("/dev/null", O_RDONLY);
  ASSERT_GE(limit, 0);
  close(limit);
  obs::StatsServerOptions opt;
  opt.port = 0;
  opt.num_workers = 1;
  obs::StatsServer server(opt);
  ASSERT_TRUE(server.Start().ok());
  const int warm = BoundedClientSocket();
  const int client = BoundedClientSocket();
  ASSERT_GE(warm, 0);
  ASSERT_GE(client, 0);
  rlimit saved{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit low = saved;
  low.rlim_cur = rlim_t(limit);
  ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &low), 0);

  // From here to the restore, nothing returns early.
  const int probe = open("/dev/null", O_RDONLY);
  const int probe_errno = errno;
  const std::string request =
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  const bool connected = Connect(warm, server.port()) &&
                         Connect(client, server.port()) &&
                         send(warm, request.data(), request.size(),
                              MSG_NOSIGNAL) == ssize_t(request.size()) &&
                         send(client, request.data(), request.size(),
                              MSG_NOSIGNAL) == ssize_t(request.size());
  const bool logged = connected && warned.Wait();
  setrlimit(RLIMIT_NOFILE, &saved);  // descriptors free again
  bool timed_out = false;
  const std::string resp = Exchange(client, "", &timed_out);
  const std::string warm_resp = Exchange(warm, "");
  close(warm);
  close(client);
  if (probe >= 0) close(probe);
  server.Stop();
  obs::SetLogRateLimit(100, 50);
  obs::SetLogSink(std::move(prev_sink));

  EXPECT_EQ(probe, -1);
  EXPECT_EQ(probe_errno, EMFILE);
  EXPECT_TRUE(connected);
  EXPECT_TRUE(logged) << "no accept_failed line with errno EMFILE";
  EXPECT_FALSE(timed_out) << "the connection was never answered";
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(warm_resp.find("HTTP/1.1 200 OK"), std::string::npos)
      << warm_resp;
}

TEST(StatsServerLifecycleTest, PortCollisionReportsError) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  obs::StatsServer first(opt);
  ASSERT_TRUE(first.Start().ok());
  obs::StatsServerOptions opt2;
  opt2.port = first.port();
  obs::StatsServer second(opt2);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

// ------------------------------------------------- hostile HTTP requests

// One seeded mutation step of a well-formed request: a truncation, a
// flipped byte, a stray CR/LF/NUL, a request-line part dropped, a hostile
// Content-Length, or a run of garbage bytes.
void MutateOnce(std::string* req, Rng* rng) {
  const size_t at = req->empty() ? 0 : size_t(rng->Uniform(req->size()));
  switch (rng->Uniform(6)) {
    case 0:
      req->resize(at);
      break;
    case 1:
      if (!req->empty()) (*req)[at] ^= char(1 + rng->Uniform(255));
      break;
    case 2:
      req->insert(at, 1, "\r\n"[rng->Uniform(3)]);  // CR, LF or NUL
      break;
    case 3: {
      const size_t eol = std::min(req->find_first_of("\r\n"), req->size());
      std::vector<std::string> parts;
      size_t pos = 0;
      while (pos <= eol) {
        size_t sp = std::min(req->find(' ', pos), eol);
        parts.push_back(req->substr(pos, sp - pos));
        pos = sp + 1;
      }
      parts.erase(parts.begin() + ptrdiff_t(rng->Uniform(parts.size())));
      std::string line;
      for (size_t i = 0; i < parts.size(); ++i)
        line += (i == 0 ? "" : " ") + parts[i];
      req->replace(0, eol, line);
      break;
    }
    case 4: {
      static const char* kLengths[] = {
          "",      "abc", "-1",     "-0",  "+5",   "1e3", "0x10",
          "12abc", " 7 7", "4096", "100000000", "99999999999999999999999",
          "18446744073709551615"};
      const std::string value =
          kLengths[rng->Uniform(sizeof(kLengths) / sizeof(kLengths[0]))];
      const size_t cl = req->find("Content-Length:");
      if (cl == std::string::npos) {
        const size_t eol = req->find("\r\n");
        req->insert(eol == std::string::npos ? req->size() : eol + 2,
                    "Content-Length: " + value + "\r\n");
      } else {
        const size_t start = cl + strlen("Content-Length:");
        const size_t end = std::min(req->find('\r', start), req->size());
        req->replace(start, end - start, " " + value);
      }
      break;
    }
    default: {
      std::string garbage(1 + rng->Uniform(16), '\0');
      for (char& c : garbage) c = char(rng->Uniform(256));
      req->insert(at, garbage);
      break;
    }
  }
}

// A few hundred seeded mutations of GET /healthz and POST /query-shaped
// requests, each on its own connection. Every reply is empty (the server
// read nothing it could answer), a reset, or a status line with a code the
// HTTP layer documents; the server answers /healthz afterwards.
TEST(HttpRequestFuzzTest, SeededMutationsGetDocumentedAnswers) {
  obs::StatsServerOptions opt;
  opt.port = 0;
  opt.num_workers = 2;
  opt.max_body_bytes = 1024;
  obs::StatsServer server(opt);
  server.HandleMethod("POST", "/query", [](const obs::HttpRequest& req) {
    obs::HttpResponse resp;
    resp.body = std::to_string(req.body.size()) + "\n";
    return resp;
  });
  ASSERT_TRUE(server.Start().ok());

  const std::string body =
      R"({"query":"SELECT sum(amount) BY city","tenant":"fuzz"})";
  const std::string seeds[] = {
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
      "POST /query HTTP/1.1\r\nHost: localhost\r\n"
      "Content-Type: application/json\r\nContent-Length: " +
          std::to_string(body.size()) + "\r\n\r\n" + body};
  const std::set<int> documented = {200, 400, 404, 405, 408, 413};
  std::map<int, int> seen;
  Rng rng(0x5eed2026);
  constexpr int kMutations = 300;
  for (int i = 0; i < kMutations; ++i) {
    std::string req = seeds[i % 2];
    for (uint64_t steps = 1 + rng.Uniform(3); steps > 0; --steps)
      MutateOnce(&req, &rng);
    const int fd = BoundedClientSocket();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(Connect(fd, server.port()));
    bool timed_out = false;
    const std::string resp = Exchange(fd, req, &timed_out);
    close(fd);
    ASSERT_FALSE(timed_out) << "mutation " << i << " was never answered";
    if (resp.empty()) {
      ++seen[0];
      continue;
    }
    ASSERT_GE(resp.size(), 13u) << "mutation " << i << ": " << resp;
    ASSERT_EQ(resp.compare(0, 9, "HTTP/1.1 "), 0) << resp;
    const int code = atoi(resp.substr(9, 3).c_str());
    EXPECT_EQ(documented.count(code), 1u)
        << "mutation " << i << " answered " << code;
    ++seen[code];
  }
  // The mutations reach both the handler and the parser's refusals.
  EXPECT_GT(seen[200], 0);
  EXPECT_GT(seen[400], 0);
  EXPECT_NE(HttpGet(server.port(), "/healthz").find("HTTP/1.1 200 OK"),
            std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace statcube
