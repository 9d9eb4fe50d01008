// End-to-end tests for the query front door (serve/front_door.h): request
// validation (400), per-tenant admission (429 + Retry-After), load shedding
// (503), the success JSON envelope, and the bit-identical guarantee — the
// served result bytes equal an independent TableToJson encoding of what
// QueryProfiled returns for the same options. The socket-level tests drive a
// real StatsServer with POST bodies, including the 413 oversized-body path.

#include "statcube/serve/front_door.h"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "json_checker.h"
#include "statcube/cache/result_cache.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/json.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube::serve {
namespace {

const StatisticalObject& Retail() {
  static StatisticalObject* obj = [] {
    RetailOptions opt;
    opt.num_products = 6;
    opt.num_stores = 4;
    opt.num_cities = 2;
    opt.num_days = 5;
    opt.num_rows = 2000;
    return new StatisticalObject(
        MakeRetailWorkload(opt).ValueOrDie().object);
  }();
  return *obj;
}

obs::HttpRequest Post(const std::string& body) {
  obs::HttpRequest req;
  req.method = "POST";
  req.path = "/query";
  req.body = body;
  return req;
}

std::string Header(const obs::HttpResponse& resp, const std::string& name) {
  for (const auto& [key, value] : resp.headers)
    if (key == name) return value;
  return "";
}

// ------------------------------------------------- validation: the 400 path

TEST(FrontDoorValidationTest, RejectsBadBodies) {
  QueryFrontDoor door(Retail());
  struct Case {
    const char* body;
    const char* needle;  // expected substring of the error message
  };
  const Case cases[] = {
      {"", "JSON parse error"},
      {"not json", "JSON parse error"},
      {"[1,2]", "must be a JSON object"},
      {"\"SELECT sum(amount) BY city\"", "must be a JSON object"},
      {"{}", "must be a non-empty string"},
      {R"({"query":""})", "must be a non-empty string"},
      {R"({"query":42})", "must be a non-empty string"},
      {R"({"query":"SELECT sum(amount) BY city","deadlin_ms":5})",
       "unknown request field"},
      {R"({"query":"SELECT sum(amount) BY city","vectorized":true})",
       "unknown request field"},
      {R"({"query":"SELECT sum(amount) BY city","engine":7})",
       "engine"},
      {R"({"query":"SELECT sum(amount) BY city","engine":"warp"})", "engine"},
      {R"({"query":"SELECT sum(amount) BY city","cache":"sometimes"})",
       "cache"},
      {R"({"query":"SELECT sum(amount) BY city","cache":"on"})",
       "off|derive"},
      {R"({"query":"SELECT sum(amount) BY city","threads":-1})", "threads"},
      {R"({"query":"SELECT sum(amount) BY city","threads":2.5})", "threads"},
      {R"({"query":"SELECT sum(amount) BY city","threads":100000})",
       "threads"},
      {R"({"query":"SELECT sum(amount) BY city","deadline_ms":-5})",
       "deadline_ms"},
      {R"({"query":"SELECT sum(amount) BY city","render":"yes"})",
       "render"},
      {R"({"query":"SELECT sum(amount) BY city","tenant":""})", "tenant"},
      {R"({"query":"SELECT sum(amount) BY city","tenant":"a b"})", "tenant"},
      {R"({"query":"SELECT sum(amount) BY city","tenant":17})", "tenant"},
  };
  for (const Case& c : cases) {
    obs::HttpResponse resp = door.ServeRequest(Post(c.body));
    EXPECT_EQ(resp.status, 400) << c.body;
    EXPECT_TRUE(statcube::JsonChecker(resp.body).Valid()) << resp.body;
    EXPECT_NE(resp.body.find(c.needle), std::string::npos)
        << c.body << " -> " << resp.body;
  }
  // A validation failure happens before admission: no tenant was charged.
  EXPECT_EQ(door.tenants().TenantCount(), 0u);
  EXPECT_EQ(door.requests(), sizeof(cases) / sizeof(cases[0]));
}

TEST(FrontDoorValidationTest, OversizedTenantNameRejected) {
  QueryFrontDoor door(Retail());
  std::string long_name(65, 'a');
  obs::HttpResponse resp = door.ServeRequest(
      Post(R"({"query":"SELECT sum(amount) BY city","tenant":")" + long_name +
           "\"}"));
  EXPECT_EQ(resp.status, 400);
}

// --------------------------------------------------- success + bit-identical

TEST(FrontDoorServeTest, ServesQueryWithEnvelope) {
  QueryFrontDoor door(Retail());
  obs::HttpResponse resp = door.ServeRequest(
      Post(R"({"query":"SELECT sum(amount) BY city","tenant":"team-a"})"));
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.content_type, "application/json");
  EXPECT_TRUE(statcube::JsonChecker(resp.body).Valid()) << resp.body;
  for (const char* needle :
       {"\"tenant\":\"team-a\"", "\"engine\":", "\"backend\":", "\"cache\":",
        "\"outcome\":\"ok\"", "\"profile_id\":", "\"result\":",
        "\"columns\":[\"city\",\"sum_amount\"]"}) {
    EXPECT_NE(resp.body.find(needle), std::string::npos)
        << needle << " missing from " << resp.body;
  }
  // No "render" requested: the rendering is not paid for or shipped.
  EXPECT_EQ(resp.body.find("\"rendered\""), std::string::npos);

  // The tenant was admitted, released, and charged the response bytes.
  std::vector<TenantStats> stats = door.tenants().Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].name, "team-a");
  EXPECT_EQ(stats[0].active, 0);
  EXPECT_EQ(stats[0].admitted, 1u);
  EXPECT_EQ(stats[0].queries_ok, 1u);
  EXPECT_EQ(stats[0].bytes_served, resp.body.size());
}

// The front door must not invent its own execution semantics: for the same
// options, its served bytes embed exactly the table the CLI path
// (QueryProfiled) produces, and its rendering of that table.
TEST(FrontDoorServeTest, ResultBitIdenticalToQueryProfiledPath) {
  const std::string query =
      "SELECT sum(amount), count(amount) BY CUBE(city, product)";

  QueryOptions qopt;
  qopt.cache = cache::Mode::kOff;
  qopt.threads = 1;
  qopt.tenant = "cli";
  Result<ProfiledQuery> direct = QueryProfiled(Retail(), query, qopt);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  QueryFrontDoor door(Retail());
  obs::HttpResponse resp = door.ServeRequest(Post(
      R"({"query":)" + obs::JsonStr(query) + R"(,"render":true})"));
  ASSERT_EQ(resp.status, 200) << resp.body;

  const std::string expect_result = "\"result\":" + TableToJson(*direct->table);
  EXPECT_NE(resp.body.find(expect_result), std::string::npos)
      << "served result differs from the QueryProfiled table";
  const std::string expect_rendered =
      "\"rendered\":" + obs::JsonStr(direct->table->ToString(25));
  EXPECT_NE(resp.body.find(expect_rendered), std::string::npos)
      << "served rendering differs from the QueryProfiled rendering";
}

// The result cache serves stored encodings: for every dashboard panel
// (finest to coarsest), the "result" of a miss, an exact hit and a derived
// hit is byte for byte the encoding of the reference answer, and once an
// append has moved the data no response serves the bytes stored before it.
const char* const kDashboardPanels[] = {
    "SELECT sum(amount), sum(qty) BY product, store",
    "SELECT sum(amount), sum(qty) BY product, city",
    "SELECT sum(amount), sum(qty) BY product",
    "SELECT sum(amount), sum(qty) BY store",
    "SELECT sum(qty) BY store",
    "SELECT sum(amount), sum(qty) BY city",
    "SELECT sum(qty)",
    "SELECT sum(amount)",
};

// The "result" member of `text` answered through `door` with the cache in
// derive mode. The answer must come by `cache_path` (hit, derived or miss)
// unless that is empty.
std::string ServeCached(QueryFrontDoor& door, const std::string& text,
                        const std::string& cache_path) {
  obs::HttpResponse resp = door.ServeRequest(
      Post(R"({"query":)" + obs::JsonStr(text) + R"(,"cache":"derive"})"));
  EXPECT_EQ(resp.status, 200) << text << ": " << resp.body;
  if (!cache_path.empty())
    EXPECT_NE(resp.body.find("\"cache\":\"" + cache_path + "\""),
              std::string::npos)
        << text << ": " << resp.body;
  const std::string member = "\"result\":";
  const size_t at = resp.body.find(member);
  if (at == std::string::npos || resp.body.size() < at + member.size() + 2)
    return "";
  // The envelope closes with "}\n" right after the result.
  return resp.body.substr(at + member.size(),
                          resp.body.size() - 2 - (at + member.size()));
}

std::string Reference(const StatisticalObject& obj, const std::string& text) {
  Result<Table> t = Query(obj, text);
  EXPECT_TRUE(t.ok()) << text << ": " << t.status().ToString();
  return t.ok() ? TableToJson(*t) : "";
}

class FrontDoorCachedTest : public ::testing::Test {
 protected:
  void SetUp() override { cache::ResultCache::Global().Clear(); }
  void TearDown() override { cache::ResultCache::Global().Clear(); }
};

TEST_F(FrontDoorCachedTest, MissHitAndDerivedServeTheReferenceBytes) {
  QueryFrontDoor door(Retail());
  for (const std::string panel : kDashboardPanels) {
    const std::string want = Reference(Retail(), panel);
    cache::ResultCache::Global().Clear();
    EXPECT_EQ(ServeCached(door, panel, "miss"), want) << panel << " [miss]";
    EXPECT_EQ(ServeCached(door, panel, "hit"), want) << panel << " [hit]";

    // A superset grouping of the same aggregates, one attribute finer.
    const std::string finer =
        panel + (panel.find(" BY ") == std::string::npos ? " BY day" : ", day");
    cache::ResultCache::Global().Clear();
    ServeCached(door, finer, "miss");
    EXPECT_EQ(ServeCached(door, panel, "derived"), want)
        << panel << " [derived from " << finer << "]";
  }
}

// The envelope's buffer is sized for the result before it is spliced in —
// a fresh encoding with the cache off, the cache's stored bytes on a miss
// it admits and on a hit — so the closing "}\n" does not reallocate the
// body to twice its size and move it.
TEST_F(FrontDoorCachedTest, ResponseBodyIsWrittenOnce) {
  QueryFrontDoor door(Retail());
  const char* const kRuns[][2] = {
      {"off", "off"}, {"derive", "miss"}, {"derive", "hit"}};
  for (const auto& [mode, path] : kRuns) {
    obs::HttpResponse resp = door.ServeRequest(Post(
        R"({"query":"SELECT sum(amount), sum(qty) BY product, store, day",)"
        R"("cache":")" + std::string(mode) + "\"}"));
    ASSERT_EQ(resp.status, 200) << resp.body;
    EXPECT_NE(resp.body.find(std::string("\"cache\":\"") + path + "\""),
              std::string::npos)
        << resp.body;
    EXPECT_LT(resp.body.capacity() - resp.body.size(), resp.body.size() / 2)
        << path << ": " << resp.body.size() << " bytes in a buffer of "
        << resp.body.capacity();
  }
}

TEST_F(FrontDoorCachedTest, AppendRetiresStoredBytes) {
  RetailOptions opt;
  opt.num_products = 6;
  opt.num_stores = 4;
  opt.num_cities = 2;
  opt.num_days = 5;
  opt.num_rows = 2000;
  StatisticalObject obj = MakeRetailWorkload(opt).ValueOrDie().object;
  QueryFrontDoor door(obj);
  std::vector<std::string> before;
  for (const char* panel : kDashboardPanels) {
    ServeCached(door, panel, "");
    before.push_back(ServeCached(door, panel, "hit"));
    EXPECT_EQ(before.back(), Reference(obj, panel)) << panel;
  }

  // One more sale on an existing cell: every panel's sums move.
  Row dims(obj.data().row(0).begin(), obj.data().row(0).begin() + 3);
  ASSERT_TRUE(
      obj.AddCell(dims, {Value(int64_t(1000000)), Value(int64_t(9))}).ok());

  for (size_t i = 0; i < before.size(); ++i) {
    const std::string panel = kDashboardPanels[i];
    for (int round = 0; round < 2; ++round) {
      const std::string served = ServeCached(door, panel, "");
      EXPECT_NE(served, before[i]) << panel << " served pre-append bytes";
      EXPECT_EQ(served, Reference(obj, panel)) << panel;
    }
  }
}

TEST(FrontDoorServeTest, QueryErrorsMapToStatusAndCarryCode) {
  QueryFrontDoor door(Retail());
  obs::HttpResponse resp =
      door.ServeRequest(Post(R"({"query":"this is not a query"})"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_TRUE(statcube::JsonChecker(resp.body).Valid()) << resp.body;
  EXPECT_NE(resp.body.find("\"code\":"), std::string::npos) << resp.body;
  EXPECT_NE(resp.body.find("\"tenant\":\"default\""), std::string::npos);
  // The failed query still consumed an admission and was released.
  std::vector<TenantStats> stats = door.tenants().Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].queries_error, 1u);
  EXPECT_EQ(stats[0].active, 0);
}

TEST(FrontDoorServeTest, DeadlineZeroMeansNoDeadline) {
  QueryFrontDoor door(Retail());
  obs::HttpResponse resp = door.ServeRequest(Post(
      R"j({"query":"SELECT sum(amount) BY CUBE(city, store)","deadline_ms":0})j"));
  EXPECT_EQ(resp.status, 200) << resp.body;
  EXPECT_NE(resp.body.find("\"outcome\":\"ok\""), std::string::npos);
}

// ---------------------------------------------------------- the 429 path

TEST(FrontDoorAdmissionTest, RateLimitedTenantGets429WithRetryAfter) {
  FrontDoorOptions opt;
  opt.default_quota.rate_qps = 1;
  opt.default_quota.burst = 1;
  QueryFrontDoor door(Retail(), opt);
  const std::string body = R"({"query":"SELECT sum(amount) BY city"})";
  EXPECT_EQ(door.ServeRequest(Post(body)).status, 200);
  obs::HttpResponse limited = door.ServeRequest(Post(body));
  EXPECT_EQ(limited.status, 429);
  EXPECT_TRUE(statcube::JsonChecker(limited.body).Valid()) << limited.body;
  EXPECT_NE(limited.body.find("\"reason\":\"rate\""), std::string::npos)
      << limited.body;
  EXPECT_NE(limited.body.find("\"retry_after_ms\":"), std::string::npos);
  EXPECT_NE(limited.body.find("\"tenant\":\"default\""), std::string::npos);
  // Whole seconds, rounded up: with qps=1 the hint is <= 1000 ms -> "1".
  EXPECT_EQ(Header(limited, "Retry-After"), "1");
  std::vector<TenantStats> stats = door.tenants().Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].rejected_rate, 1u);
}

TEST(FrontDoorAdmissionTest, ConcurrencyRejectionSuggestsOneSecond) {
  FrontDoorOptions opt;
  opt.default_quota.max_concurrent = 1;
  QueryFrontDoor door(Retail(), opt);
  // Occupy the tenant's single slot by admitting directly (ServeRequest is
  // synchronous, so two in-flight requests need this back door).
  ASSERT_TRUE(door.tenants().Admit("default").ok());
  obs::HttpResponse resp = door.ServeRequest(
      Post(R"({"query":"SELECT sum(amount) BY city"})"));
  EXPECT_EQ(resp.status, 429);
  EXPECT_NE(resp.body.find("\"reason\":\"concurrency\""), std::string::npos);
  // The concurrency gate has no refill clock: the header still suggests 1 s.
  EXPECT_EQ(Header(resp, "Retry-After"), "1");
  door.tenants().Release("default", 0, true);
}

// ---------------------------------------------------------- the 503 path

TEST(FrontDoorShedTest, FullQueueSheds503WithRetryAfter) {
  FrontDoorOptions opt;
  opt.queue.max_active = 1;
  opt.queue.max_queued = 0;  // shed as soon as the slot is busy
  QueryFrontDoor door(Retail(), opt);
  // Occupy the single execution slot.
  ASSERT_EQ(door.queue().Enter(), EnterOutcome::kAdmitted);
  obs::HttpResponse resp = door.ServeRequest(
      Post(R"({"query":"SELECT sum(amount) BY city","tenant":"t"})"));
  EXPECT_EQ(resp.status, 503);
  EXPECT_TRUE(statcube::JsonChecker(resp.body).Valid()) << resp.body;
  EXPECT_NE(resp.body.find("admission queue full"), std::string::npos);
  EXPECT_EQ(Header(resp, "Retry-After"), "1");
  door.queue().Exit();

  // The shed is attributed to the tenant, and the admission was released.
  std::vector<TenantStats> stats = door.tenants().Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].shed, 1u);
  EXPECT_EQ(stats[0].active, 0);
  EXPECT_EQ(stats[0].queries_error, 1u);
  EXPECT_EQ(door.queue().sheds(), 1u);

  // Slot free again: the same request now succeeds.
  EXPECT_EQ(door
                .ServeRequest(Post(
                    R"({"query":"SELECT sum(amount) BY city","tenant":"t"})"))
                .status,
            200);
}

// --------------------------------------------------------- /statusz fragment

TEST(FrontDoorStatuszTest, SectionListsTenantsAndQueue) {
  QueryFrontDoor door(Retail());
  (void)door.ServeRequest(
      Post(R"({"query":"SELECT sum(amount) BY city","tenant":"acme"})"));
  std::string html = door.StatuszSection();
  EXPECT_NE(html.find("queue: 0 active / 0 queued"), std::string::npos)
      << html;
  EXPECT_NE(html.find("acme"), std::string::npos);
  EXPECT_NE(html.find("/profiles?tenant=acme"), std::string::npos);
}

// -------------------------------------------------------- socket-level tests

// One HTTP/1.1 request with an optional body against localhost:port;
// returns the raw response or "" on connect/IO failure. obs_serving_test's
// HttpGet cannot send bodies, which POST /query needs.
std::string HttpRequestRaw(uint16_t port, const std::string& method,
                           const std::string& target,
                           const std::string& body) {
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
  std::string req = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  if (!body.empty())
    req += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  req += "Connection: close\r\n\r\n" + body;
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

std::string Body(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

class FrontDoorSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::StatsServerOptions opt;
    opt.port = 0;  // kernel-assigned
    opt.max_body_bytes = 1024;  // small cap to exercise 413 cheaply
    server_ = std::make_unique<obs::StatsServer>(opt);
    door_ = std::make_unique<QueryFrontDoor>(Retail());
    door_->Register(*server_);
    auto s = server_->Start();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_GT(server_->port(), 0);
  }
  void TearDown() override { server_->Stop(); }

  std::unique_ptr<obs::StatsServer> server_;
  std::unique_ptr<QueryFrontDoor> door_;
};

TEST_F(FrontDoorSocketTest, PostQueryServesJsonOverTheWire) {
  std::string resp = HttpRequestRaw(
      server_->port(), "POST", "/query",
      R"({"query":"SELECT sum(amount) BY city","tenant":"wire"})");
  EXPECT_NE(resp.find("200"), std::string::npos) << resp;
  EXPECT_NE(resp.find("application/json"), std::string::npos);
  std::string body = Body(resp);
  EXPECT_TRUE(statcube::JsonChecker(body).Valid()) << body;
  EXPECT_NE(body.find("\"tenant\":\"wire\""), std::string::npos);
  EXPECT_NE(body.find("\"outcome\":\"ok\""), std::string::npos);
}

TEST_F(FrontDoorSocketTest, GetQueryIs405) {
  std::string resp = HttpRequestRaw(server_->port(), "GET", "/query", "");
  EXPECT_NE(resp.find("405"), std::string::npos) << resp;
}

TEST_F(FrontDoorSocketTest, OversizedBodyIs413) {
  // 2 KiB body against a 1 KiB cap: refused before the query layer runs.
  std::string huge = R"({"query":")" + std::string(2048, 'x') + "\"}";
  std::string resp = HttpRequestRaw(server_->port(), "POST", "/query", huge);
  EXPECT_NE(resp.find("413"), std::string::npos) << resp;
  EXPECT_EQ(door_->requests(), 0u);  // never reached the front door
}

TEST_F(FrontDoorSocketTest, RetryAfterHeaderReachesTheWire) {
  // Exhaust a 1-token bucket, then read the header off the raw response.
  TenantQuota q;
  q.rate_qps = 1;
  q.burst = 1;
  door_->tenants().Configure("wire", q);
  const std::string body =
      R"({"query":"SELECT sum(amount) BY city","tenant":"wire"})";
  std::string first = HttpRequestRaw(server_->port(), "POST", "/query", body);
  EXPECT_NE(first.find("200"), std::string::npos) << first;
  std::string second = HttpRequestRaw(server_->port(), "POST", "/query", body);
  EXPECT_NE(second.find("429"), std::string::npos) << second;
  EXPECT_NE(second.find("Retry-After: 1\r\n"), std::string::npos) << second;
}

TEST_F(FrontDoorSocketTest, StatuszShowsTenantSection) {
  (void)HttpRequestRaw(
      server_->port(), "POST", "/query",
      R"({"query":"SELECT sum(amount) BY city","tenant":"seen"})");
  std::string resp = HttpRequestRaw(server_->port(), "GET", "/statusz", "");
  EXPECT_NE(resp.find("tenants"), std::string::npos);
  EXPECT_NE(resp.find("seen"), std::string::npos);
}

}  // namespace
}  // namespace statcube::serve
