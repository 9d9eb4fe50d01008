// End-to-end tests for the human-facing status endpoints added in
// observability v2: /statusz (dependency-free HTML with sparklines fed by a
// MetricSampler) and /tracez (recent trace trees, HTML and JSON), plus the
// strict query-string contract (?n= limits, per-endpoint content types,
// 400 on malformed input) and the configurable flight-recorder capacity.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "json_checker.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/timeseries_ring.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// --------------------------------------------------- tiny blocking client

std::string HttpGet(uint16_t port, const std::string& target) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    close(fd);
    return "";
  }
  std::string req = "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n"
                    "Connection: close\r\n\r\n";
  size_t off = 0;
  while (off < req.size()) {
    ssize_t n = send(fd, req.data() + off, req.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd);
      return "";
    }
    off += size_t(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = recv(fd, buf, sizeof(buf), 0)) > 0) resp.append(buf, size_t(n));
  close(fd);
  return resp;
}

int StatusOf(const std::string& response) {
  // "HTTP/1.1 200 ..." — the code sits after the first space.
  size_t sp = response.find(' ');
  return sp == std::string::npos ? -1 : atoi(response.c_str() + sp + 1);
}

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

std::string ContentTypeOf(const std::string& response) {
  size_t pos = response.find("Content-Type: ");
  if (pos == std::string::npos) return "";
  size_t end = response.find("\r\n", pos);
  pos += strlen("Content-Type: ");
  return response.substr(pos, end - pos);
}

size_t CountOccurrences(const std::string& haystack, const std::string& sub) {
  size_t count = 0;
  for (size_t pos = haystack.find(sub); pos != std::string::npos;
       pos = haystack.find(sub, pos + sub.size()))
    ++count;
  return count;
}

// One server + populated recorder/metrics shared by every test: a few
// profiled queries (all "slow" via a 1us threshold) and two deterministic
// sampler ticks, so /statusz has sparkline data and /tracez has traces.
class StatuszTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    obs::SetEnabled(true);
    obs::FlightRecorder::Global().Clear();
    obs::FlightRecorder::Global().SetSlowQueryThresholdUs(1);
    data_ = std::make_unique<RetailData>(*MakeRetailWorkload());
    QueryOptions opt;
    opt.threads = 2;
    for (const char* text :
         {"SELECT sum(amount) BY city", "SELECT sum(amount) BY store",
          "SELECT sum(qty) BY category"}) {
      auto r = QueryProfiled(data_->object, text, opt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }

    obs::MetricSamplerOptions mopt;
    mopt.interval_ms = 10;
    mopt.ring_capacity = 16;
    mopt.percentile_window = 4;
    sampler_ = std::make_unique<obs::MetricSampler>(mopt);
    sampler_->AddDefaultStatuszSeries();
    sampler_->SampleOnce();
    sampler_->SampleOnce();

    obs::StatsServerOptions sopt;
    sopt.port = 0;
    sopt.sampler = sampler_.get();
    server_ = std::make_unique<obs::StatsServer>(sopt);
    ASSERT_TRUE(server_->Start().ok());
    port_ = server_->port();
  }

  static void TearDownTestSuite() {
    server_->Stop();
    server_.reset();
    sampler_.reset();
    data_.reset();
    obs::FlightRecorder::Global().SetSlowQueryThresholdUs(20000);
    obs::SetEnabled(false);
  }

  static std::unique_ptr<RetailData> data_;
  static std::unique_ptr<obs::MetricSampler> sampler_;
  static std::unique_ptr<obs::StatsServer> server_;
  static uint16_t port_;
};

std::unique_ptr<RetailData> StatuszTest::data_;
std::unique_ptr<obs::MetricSampler> StatuszTest::sampler_;
std::unique_ptr<obs::StatsServer> StatuszTest::server_;
uint16_t StatuszTest::port_ = 0;

// ------------------------------------------------------------- /statusz

TEST_F(StatuszTest, StatuszServesHtmlWithSparklinesAndSlowQueries) {
  std::string resp = HttpGet(port_, "/statusz");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_EQ(ContentTypeOf(resp), "text/html; charset=utf-8");
  std::string body = Body(resp);
  EXPECT_NE(body.find("id=\"sparklines\""), std::string::npos);
  // The default series are all present, with the sliding percentiles.
  for (const char* series :
       {"statcube.query.latency_us.rate", "statcube.query.latency_us.p50",
        "statcube.query.latency_us.p99", "statcube.cache.hit_rate",
        "statcube.exec.morsels.rate"}) {
    EXPECT_NE(body.find(series), std::string::npos) << series;
  }
  EXPECT_NE(body.find("uptime_s"), std::string::npos);
  EXPECT_NE(body.find("build"), std::string::npos);
  // Three slow queries were recorded; each links to its retained profile.
  EXPECT_NE(body.find("slow"), std::string::npos);
  EXPECT_NE(body.find("href=\"/profiles/"), std::string::npos);
}

TEST_F(StatuszTest, StatuszWithoutSamplerStillRenders) {
  obs::StatsServerOptions sopt;
  sopt.port = 0;
  obs::StatsServer bare(sopt);
  ASSERT_TRUE(bare.Start().ok());
  std::string resp = HttpGet(bare.port(), "/statusz");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_NE(Body(resp).find("no sampler configured"), std::string::npos);
  bare.Stop();
}

TEST_F(StatuszTest, StatuszRejectsMalformedQueryString) {
  EXPECT_EQ(StatusOf(HttpGet(port_, "/statusz?x")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/statusz?=v")), 400);
}

// -------------------------------------------------------------- /tracez

TEST_F(StatuszTest, TracezHtmlShowsRecentTraceTrees) {
  std::string resp = HttpGet(port_, "/tracez");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_EQ(ContentTypeOf(resp), "text/html; charset=utf-8");
  std::string body = Body(resp);
  // Each recorded query appears with its span tree (root span "query").
  EXPECT_NE(body.find("SELECT sum(amount) BY city"), std::string::npos);
  EXPECT_NE(body.find("query"), std::string::npos);
  EXPECT_NE(body.find("format=json"), std::string::npos);
}

TEST_F(StatuszTest, TracezJsonIsValidAndCarriesSpans) {
  std::string resp = HttpGet(port_, "/tracez?format=json");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_EQ(ContentTypeOf(resp), "application/json");
  std::string body = Body(resp);
  EXPECT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_NE(body.find("\"traces\":"), std::string::npos);
  EXPECT_NE(body.find("\"spans\":"), std::string::npos);
  EXPECT_NE(body.find("\"thread\":"), std::string::npos);
  EXPECT_NE(body.find("\"dropped_spans\":"), std::string::npos);
}

TEST_F(StatuszTest, TracezHonorsLimitAndRejectsBadParams) {
  std::string body = Body(HttpGet(port_, "/tracez?format=json&n=1"));
  ASSERT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_EQ(CountOccurrences(body, "\"id\":"), 1u);

  EXPECT_EQ(StatusOf(HttpGet(port_, "/tracez?format=xml")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/tracez?n=abc")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/tracez?n=")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/tracez?format")), 400);
}

// ------------------------------------------- /profiles limits and types

TEST_F(StatuszTest, ProfilesHonorsNAndRejectsBadValues) {
  std::string resp = HttpGet(port_, "/profiles?n=1");
  EXPECT_EQ(StatusOf(resp), 200);
  EXPECT_EQ(ContentTypeOf(resp), "application/json");
  std::string body = Body(resp);
  ASSERT_TRUE(JsonChecker(body).Valid()) << body;
  EXPECT_EQ(CountOccurrences(body, "{\"id\":"), 1u);

  // The legacy alias still works.
  body = Body(HttpGet(port_, "/profiles?limit=2"));
  EXPECT_EQ(CountOccurrences(body, "{\"id\":"), 2u);

  EXPECT_EQ(StatusOf(HttpGet(port_, "/profiles?n=abc")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/profiles?n=1&bogus")), 400);
  EXPECT_EQ(StatusOf(HttpGet(port_, "/profiles?n=-1")), 400);
}

TEST_F(StatuszTest, EveryEndpointDeclaresItsContentType) {
  EXPECT_EQ(ContentTypeOf(HttpGet(port_, "/metrics")),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_EQ(ContentTypeOf(HttpGet(port_, "/profiles")), "application/json");
  EXPECT_EQ(ContentTypeOf(HttpGet(port_, "/statusz")),
            "text/html; charset=utf-8");
  EXPECT_EQ(ContentTypeOf(HttpGet(port_, "/tracez")),
            "text/html; charset=utf-8");
  EXPECT_EQ(ContentTypeOf(HttpGet(port_, "/tracez?format=json")),
            "application/json");
}

// ------------------------------------------------ flight-recorder sizing

TEST_F(StatuszTest, FlightCapacityIsConfigurableAndBounded) {
  obs::FlightRecorder& rec = obs::FlightRecorder::Global();
  size_t original = rec.capacity();

  EXPECT_FALSE(rec.SetCapacity(0));
  EXPECT_FALSE(rec.SetCapacity(obs::FlightRecorder::kMaxCapacity + 1));
  EXPECT_EQ(rec.capacity(), original);  // rejected calls change nothing

  ASSERT_TRUE(rec.SetCapacity(2));
  EXPECT_EQ(rec.capacity(), 2u);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("statcube.recorder.capacity")
                .Value(),
            2.0);
  // Shrinking evicted down to the newest two entries.
  EXPECT_LE(rec.Snapshot().size(), 2u);

  // New recordings respect the smaller ring.
  QueryOptions opt;
  for (int i = 0; i < 4; ++i) {
    auto r = QueryProfiled(data_->object, "SELECT sum(amount) BY city", opt);
    ASSERT_TRUE(r.ok());
  }
  EXPECT_EQ(rec.Snapshot().size(), 2u);

  ASSERT_TRUE(rec.SetCapacity(original));
}

}  // namespace
}  // namespace statcube
