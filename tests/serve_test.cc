// Tests for the serving subsystem's building blocks: the JSON request
// parser (serve/json_value.h), the exactness of the result encoding
// (TableToJson), per-tenant admission control with its quota
// edge cases (serve/tenant_registry.h), and the bounded execute-or-shed
// gate (serve/admission_queue.h) — including a concurrent admit/release
// hammer that the TSan CI job runs.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "round_trip_cells.h"
#include "statcube/serve/admission_queue.h"
#include "statcube/serve/front_door.h"
#include "statcube/serve/json_value.h"
#include "statcube/serve/tenant_registry.h"

namespace statcube::serve {
namespace {

// ------------------------------------------------------------- ParseJson

TEST(JsonValueTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->AsBool());
  EXPECT_FALSE(ParseJson("false")->AsBool());
  EXPECT_EQ(ParseJson("42")->AsInt(), 42);
  EXPECT_EQ(ParseJson("-7")->AsInt(), -7);
  EXPECT_TRUE(ParseJson("42")->is_int());
  EXPECT_FALSE(ParseJson("42.5")->is_int());
  EXPECT_DOUBLE_EQ(ParseJson("42.5")->AsDouble(), 42.5);
  EXPECT_DOUBLE_EQ(ParseJson("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"")->AsString(), "hi");
}

TEST(JsonValueTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a":[1,2,{"b":"c"}],"d":{"e":null},"f":true})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[0].AsInt(), 1);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(v->Find("d")->Find("e")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonValueTest, StringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\nd\te\u0041")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->AsString(), "a\"b\\c\nd\teA");
}

TEST(JsonValueTest, LastDuplicateKeyWins) {
  auto v = ParseJson(R"({"k":1,"k":2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("k")->AsInt(), 2);
}

TEST(JsonValueTest, RejectsMalformedDocuments) {
  const char* bad[] = {
      "",           "{",           "[1,]",        "{\"a\":}",
      "{\"a\" 1}",  "{'a':1}",     "tru",         "nul",
      "01",         "1.",          "1e",          "+1",
      "\"unterminated", "\"bad\\x\"", "\"\\u12g4\"", "{} trailing",
      "\x01",       "[1 2]",
  };
  for (const char* doc : bad) {
    auto v = ParseJson(doc);
    EXPECT_FALSE(v.ok()) << "accepted: " << doc;
    if (!v.ok()) {
      EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << doc;
    }
  }
}

TEST(JsonValueTest, ErrorsCarryByteOffset) {
  auto v = ParseJson("{\"a\": oops}");
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("byte 6"), std::string::npos)
      << v.status().ToString();
}

TEST(JsonValueTest, DepthLimitStopsHostileNesting) {
  std::string hostile(10000, '[');
  auto v = ParseJson(hostile);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().message().find("nesting too deep"), std::string::npos);
  // A document within the limit parses.
  EXPECT_TRUE(ParseJson("[[[[[[[[[[1]]]]]]]]]]").ok());
}

TEST(JsonValueTest, DumpRoundTripsAndIsValidJson) {
  const std::string doc =
      R"({"q":"SELECT \"x\"","n":3,"f":2.5,"b":true,"z":null,"a":[1,"two"]})";
  auto v = ParseJson(doc);
  ASSERT_TRUE(v.ok());
  std::string dumped = v->Dump();
  EXPECT_TRUE(statcube::JsonChecker(dumped).Valid()) << dumped;
  // Dump -> parse -> dump is a fixed point.
  auto v2 = ParseJson(dumped);
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(v2->Dump(), dumped);
}

// ---------------------------------------------------------- TableToJson

// Every number on the wire reads back (strtod, as ParseJson does) as the
// bits that went in; the doubles JSON cannot carry are the documented
// strings, and strings survive escaping.
TEST(TableToJsonTest, EveryCellRoundTripsExactly) {
  const std::vector<Value> cells = RoundTripCells();
  Schema schema;
  schema.AddColumn("v", ValueType::kDouble);
  Table table("cells", schema);
  for (const Value& v : cells) table.AppendRowUnchecked({v});

  const std::string json = TableToJson(table);
  auto parsed = ParseJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << json;
  const JsonValue* data = parsed->Find("data");
  ASSERT_NE(data, nullptr);
  ASSERT_EQ(data->AsArray().size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const JsonValue& got = data->AsArray()[i].AsArray().at(0);
    const Value& want = cells[i];
    const std::string what = "cell " + std::to_string(i) + " in " + json;
    if (want.type() == ValueType::kInt64) {
      ASSERT_TRUE(got.is_int()) << what;
      EXPECT_EQ(got.AsInt(), want.AsInt64()) << what;
    } else if (want.type() == ValueType::kString) {
      ASSERT_TRUE(got.is_string()) << what;
      EXPECT_EQ(got.AsString(), want.AsString()) << what;
    } else if (std::isnan(want.AsDouble())) {
      EXPECT_EQ(got.AsString(), "NaN") << what;
    } else if (std::isinf(want.AsDouble())) {
      EXPECT_EQ(got.AsString(), want.AsDouble() > 0 ? "Infinity" : "-Infinity")
          << what;
    } else {
      ASSERT_TRUE(got.is_number()) << what;
      EXPECT_EQ(DoubleBits(got.AsDouble()), DoubleBits(want.AsDouble()))
          << what;
    }
  }
}

// ------------------------------------------------------- TenantRegistry

// Fixed, arbitrary start instant for the deterministic AdmitAt tests.
constexpr uint64_t kT0 = 1'000'000'000;

TEST(TenantRegistryTest, ConcurrencyGateAndRelease) {
  TenantQuota q;
  q.max_concurrent = 2;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  Admission third = reg.AdmitAt("t", kT0);
  EXPECT_EQ(third.outcome, AdmitOutcome::kConcurrencyExceeded);
  // Concurrency does not recover with time — no Retry-After hint.
  EXPECT_EQ(third.retry_after_ms, 0u);
  reg.ReleaseAt("t", kT0, /*bytes=*/100, /*ok=*/true);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());

  std::vector<TenantStats> stats = reg.Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].active, 2);
  EXPECT_EQ(stats[0].admitted, 3u);
  EXPECT_EQ(stats[0].rejected_concurrency, 1u);
  EXPECT_EQ(stats[0].bytes_served, 100u);
}

TEST(TenantRegistryTest, TenantsAreIndependent) {
  TenantQuota q;
  q.max_concurrent = 1;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("a", kT0).ok());
  EXPECT_FALSE(reg.AdmitAt("a", kT0).ok());
  EXPECT_TRUE(reg.AdmitAt("b", kT0).ok());  // b has its own budget
  EXPECT_EQ(reg.TenantCount(), 2u);
}

// Rate-budget-exactly-exhausted edge: with qps=1, burst=1, the single token
// is spent at t0; at t0 + 999999 us the bucket holds 0.999999 tokens — still
// a rejection — and at exactly t0 + 1 s the refilled token admits.
TEST(TenantRegistryTest, TokenBucketRefillBoundary) {
  TenantQuota q;
  q.max_concurrent = 0;  // isolate the rate gate
  q.rate_qps = 1;
  q.burst = 1;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0, 0, true);

  Admission just_under = reg.AdmitAt("t", kT0 + 999'999);
  EXPECT_EQ(just_under.outcome, AdmitOutcome::kRateLimited);
  // 1e-6 tokens short at 1 token/s -> ceil to 1 ms.
  EXPECT_EQ(just_under.retry_after_ms, 1u);

  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 1'000'000).ok());
  reg.ReleaseAt("t", kT0 + 1'000'000, 0, true);

  std::vector<TenantStats> stats = reg.Snapshot();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].admitted, 2u);
  EXPECT_EQ(stats[0].rejected_rate, 1u);
}

TEST(TenantRegistryTest, RateRejectionReportsRefillTime) {
  TenantQuota q;
  q.max_concurrent = 0;
  q.rate_qps = 2;  // a token every 500 ms
  q.burst = 1;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  Admission rejected = reg.AdmitAt("t", kT0);
  EXPECT_EQ(rejected.outcome, AdmitOutcome::kRateLimited);
  EXPECT_EQ(rejected.retry_after_ms, 500u);
}

// Burst capacity: tokens accumulate while idle but never beyond `burst`.
TEST(TenantRegistryTest, BurstCapsAccumulation) {
  TenantQuota q;
  q.max_concurrent = 0;
  q.rate_qps = 1;
  q.burst = 2;
  TenantRegistry reg(q);
  // A long idle period would fill 100 tokens; the cap keeps 2.
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0, 0, true);
  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 100'000'000).ok());
  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 100'000'000).ok());
  EXPECT_EQ(reg.AdmitAt("t", kT0 + 100'000'000).outcome,
            AdmitOutcome::kRateLimited);
}

// Byte-budget-exactly-exhausted edge: the post-paid model admits while the
// bucket is positive and charges at release. A response that spends the
// bucket to exactly zero blocks the next admission until credit accrues.
TEST(TenantRegistryTest, ByteBudgetExactlyExhausted) {
  TenantQuota q;
  q.max_concurrent = 0;
  q.bytes_per_sec = 1000;
  q.byte_burst = 1000;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0, /*bytes=*/1000, true);  // bucket now exactly 0
  Admission broke = reg.AdmitAt("t", kT0);
  EXPECT_EQ(broke.outcome, AdmitOutcome::kByteBudgetExhausted);
  // Needs debt (0) cleared plus 1 byte of credit: 1 ms at 1000 B/s.
  EXPECT_EQ(broke.retry_after_ms, 1u);
  // 1 ms later one byte of credit has accrued: positive bucket admits.
  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 1000).ok());
}

// Debt: one enormous response pushes the bucket negative and the hint
// reflects how long the debt takes to clear.
TEST(TenantRegistryTest, ByteDebtDelaysNextAdmission) {
  TenantQuota q;
  q.max_concurrent = 0;
  q.bytes_per_sec = 1000;
  q.byte_burst = 1000;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0, /*bytes=*/3000, true);  // bucket now -2000
  Admission in_debt = reg.AdmitAt("t", kT0);
  EXPECT_EQ(in_debt.outcome, AdmitOutcome::kByteBudgetExhausted);
  // 2000 B debt + 1 B credit at 1000 B/s -> 2001 ms.
  EXPECT_EQ(in_debt.retry_after_ms, 2001u);
  EXPECT_EQ(reg.AdmitAt("t", kT0 + 2'000'000).outcome,
            AdmitOutcome::kByteBudgetExhausted);
  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 2'001'000).ok());
}

// Gates are evaluated before any state commits: a byte-gate rejection must
// not burn a rate token.
TEST(TenantRegistryTest, RejectionAtLaterGateSpendsNoToken) {
  TenantQuota q;
  q.max_concurrent = 0;
  q.rate_qps = 1;
  q.burst = 1;
  q.bytes_per_sec = 1000;
  q.byte_burst = 1000;
  TenantRegistry reg(q);
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0 + 1'000'000, /*bytes=*/5000, true);  // deep debt
  // Rate bucket refilled to 1.0 by t0+1s, but the byte gate rejects...
  EXPECT_EQ(reg.AdmitAt("t", kT0 + 1'000'000).outcome,
            AdmitOutcome::kByteBudgetExhausted);
  // ...and once the debt clears, the unspent rate token still admits at the
  // same instant-equivalent state.
  EXPECT_TRUE(reg.AdmitAt("t", kT0 + 6'000'000).ok());
}

TEST(TenantRegistryTest, ConfigureTightensAndReclamps) {
  TenantRegistry reg;  // permissive default quota
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  reg.ReleaseAt("t", kT0, 0, true);
  TenantQuota tight;
  tight.max_concurrent = 0;
  tight.rate_qps = 1;
  tight.burst = 1;
  reg.Configure("t", tight);
  // Buckets re-clamped to the new (smaller) capacity: one admit passes,
  // the next is rate-limited.
  EXPECT_TRUE(reg.AdmitAt("t", kT0).ok());
  EXPECT_EQ(reg.AdmitAt("t", kT0).outcome, AdmitOutcome::kRateLimited);
}

TEST(TenantRegistryTest, ToJsonIsValidAndListsTenants) {
  TenantRegistry reg;
  (void)reg.AdmitAt("alpha", kT0);
  (void)reg.AdmitAt("beta", kT0);
  reg.NoteShed("beta");
  std::string json = reg.ToJson();
  EXPECT_TRUE(statcube::JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"tenant\":\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant\":\"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"shed\":1"), std::string::npos);
}

TEST(TenantRegistryTest, ReleaseWithoutAdmitIsHarmless) {
  TenantRegistry reg;
  reg.ReleaseAt("ghost", kT0, 10, true);  // unknown tenant: ignored
  EXPECT_EQ(reg.TenantCount(), 0u);
  (void)reg.AdmitAt("t", kT0);
  reg.ReleaseAt("t", kT0, 0, true);
  reg.ReleaseAt("t", kT0, 0, true);  // double release: active clamps at 0
  EXPECT_EQ(reg.Snapshot()[0].active, 0);
}

// Concurrent admit/release hammer across tenants — the TSan CI job runs
// this test under -fsanitize=thread; invariants are checked after the dust
// settles (every admit paired with a release -> zero active, and the
// admitted/rejected split must add up).
TEST(TenantRegistryTest, ConcurrentAdmitReleaseHammer) {
  TenantQuota q;
  q.max_concurrent = 4;
  q.rate_qps = 1e9;  // effectively unlimited, but the bucket path executes
  q.burst = 1e9;
  TenantRegistry reg(q);
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  std::atomic<uint64_t> admitted{0}, rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&reg, &admitted, &rejected, t] {
      const std::string tenant = "tenant" + std::to_string(t % 3);
      for (int i = 0; i < kIters; ++i) {
        Admission a = reg.Admit(tenant);
        if (a.ok()) {
          admitted.fetch_add(1, std::memory_order_relaxed);
          reg.Release(tenant, 64, (i % 7) != 0);
        } else {
          rejected.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  uint64_t total_admitted = 0, total_rejected = 0, total_bytes = 0;
  for (const TenantStats& s : reg.Snapshot()) {
    EXPECT_EQ(s.active, 0) << s.name;
    total_admitted += s.admitted;
    total_rejected += s.rejected_total();
    total_bytes += s.bytes_served;
  }
  EXPECT_EQ(total_admitted, admitted.load());
  EXPECT_EQ(total_rejected, rejected.load());
  EXPECT_EQ(total_admitted + total_rejected, uint64_t(kThreads) * kIters);
  EXPECT_EQ(total_bytes, admitted.load() * 64);
}

// ------------------------------------------------------- AdmissionQueue

TEST(AdmissionQueueTest, AdmitsUpToMaxActive) {
  AdmissionQueue gate({.max_active = 2, .max_queued = 0, .max_wait_ms = 50});
  EXPECT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  EXPECT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  EXPECT_EQ(gate.active(), 2);
  // max_queued = 0: the third caller sheds immediately, no waiting.
  EXPECT_EQ(gate.Enter(), EnterOutcome::kShedQueueFull);
  EXPECT_EQ(gate.sheds(), 1u);
  gate.Exit();
  EXPECT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  gate.Exit();
  gate.Exit();
  EXPECT_EQ(gate.active(), 0);
}

TEST(AdmissionQueueTest, QueuedWaiterGetsSlotOnExit) {
  AdmissionQueue gate({.max_active = 1, .max_queued = 4, .max_wait_ms =
                           10000});
  ASSERT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  std::atomic<int> result{-1};
  std::thread waiter([&] { result.store(int(gate.Enter())); });
  // Poll until the waiter is queued (no sleeps-as-synchronization: the
  // queued() gauge is the condition).
  while (gate.queued() == 0) std::this_thread::yield();
  gate.Exit();
  waiter.join();
  EXPECT_EQ(EnterOutcome(result.load()), EnterOutcome::kAdmitted);
  EXPECT_EQ(gate.active(), 1);
  gate.Exit();
}

TEST(AdmissionQueueTest, WaitBudgetExpiryShedsWithTimeout) {
  AdmissionQueue gate({.max_active = 1, .max_queued = 4, .max_wait_ms = 30});
  ASSERT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  // Nobody will Exit: the queued waiter must give up after max_wait_ms.
  EXPECT_EQ(gate.Enter(), EnterOutcome::kShedTimeout);
  EXPECT_EQ(gate.queued(), 0);
  EXPECT_EQ(gate.sheds(), 1u);
  gate.Exit();
}

TEST(AdmissionQueueTest, QueueFullShedsImmediately) {
  AdmissionQueue gate({.max_active = 1, .max_queued = 1, .max_wait_ms =
                           10000});
  ASSERT_EQ(gate.Enter(), EnterOutcome::kAdmitted);
  std::thread waiter([&] { (void)gate.Enter(); });
  while (gate.queued() == 0) std::this_thread::yield();
  // Queue holds its one allowed waiter: the next caller sheds at once.
  EXPECT_EQ(gate.Enter(), EnterOutcome::kShedQueueFull);
  gate.Exit();
  waiter.join();
  gate.Exit();
}

// Concurrent stampede: N threads race through a narrow gate; afterwards
// every admitted Enter was paired with an Exit and the accounting is
// conserved. Runs under TSan in CI.
TEST(AdmissionQueueTest, ConcurrentStampedeConservesSlots) {
  AdmissionQueue gate({.max_active = 3, .max_queued = 8, .max_wait_ms = 5000});
  constexpr int kThreads = 12;
  constexpr int kIters = 300;
  std::atomic<uint64_t> admitted{0}, shed{0};
  std::atomic<int> in_flight{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        EnterOutcome e = gate.Enter();
        if (e == EnterOutcome::kAdmitted) {
          int now = in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
          EXPECT_LE(now, 3);  // never more than max_active inside
          admitted.fetch_add(1, std::memory_order_relaxed);
          in_flight.fetch_sub(1, std::memory_order_acq_rel);
          gate.Exit();
        } else {
          shed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(gate.active(), 0);
  EXPECT_EQ(gate.queued(), 0);
  EXPECT_EQ(admitted.load() + shed.load(), uint64_t(kThreads) * kIters);
  EXPECT_EQ(gate.sheds(), shed.load());
}

}  // namespace
}  // namespace statcube::serve
