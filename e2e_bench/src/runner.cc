// One benchmark run: set up the serving stack once, drive the seeded op
// stream (the workload's rate × --seconds ops) through POST /query, check
// answers against the serial relational oracle, and turn drift-adjusted
// timings into the end-to-end metrics (untraced) or the per-layer metrics
// (traced).

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>

#include "harness.h"
#include "trace.h"
#include "statcube/cache/result_cache.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/http_server.h"
#include "statcube/obs/metrics.h"
#include "statcube/olap/backend.h"
#include "statcube/query/parser.h"
#include "statcube/serve/front_door.h"
#include "statcube/serve/json_value.h"

namespace e2e {

namespace {

using statcube::Result;
using statcube::StatisticalObject;
using statcube::Status;
using statcube::Table;

// A reference sample is taken at least this often, in op time.
constexpr double kWindowOpNs = 0.25e9;
// Ops a timed run checks after its window (refreshes on dashboard_live).
constexpr size_t kTimedChecks = 12;
constexpr size_t kTimedRefreshChecks = 6;
// Append batches the append probe times on workloads without appends, and
// how many it adds to one side object before starting a fresh one.
constexpr uint64_t kProbeBatches = 40;
constexpr uint64_t kProbeRebuild = 10;
constexpr uint64_t kProbeBatchBase = 1u << 20;

constexpr double kInf = std::numeric_limits<double>::infinity();

// The drift factor's exponent for an op: append batches slow more than
// queries when the machine slows.
double Elasticity(bool append) {
  return append ? kRefAppendElasticity : kRefElasticity;
}

// The object, its front door and the HTTP server answering over it.
struct Stack {
  std::unique_ptr<StatisticalObject> obj;
  std::unique_ptr<statcube::serve::QueryFrontDoor> door;
  std::unique_ptr<statcube::obs::StatsServer> server;

  // Stops the server before the front door and the object it serves go.
  void Reset() {
    server.reset();
    door.reset();
    obj.reset();
  }
};

// ----------------------------------------------------------------- answers

// The fields of a /query response envelope the harness reads. The result
// table is the last member, so it is found by position.
struct Envelope {
  std::string backend;
  uint64_t profile_id = 0;
  size_t result_pos = 0;
  size_t result_len = 0;
};

bool ParseEnvelope(const std::string& body, Envelope* e) {
  const size_t r = body.find(",\"result\":");
  const size_t end = body.rfind('}');
  if (r == std::string::npos || end == std::string::npos || end <= r + 10)
    return false;
  const std::string_view head(body.data(), r);
  size_t b = head.find("\"backend\":\"");
  if (b == std::string_view::npos) return false;
  b += 11;
  e->backend = std::string(head.substr(b, head.find('"', b) - b));
  const size_t p = head.find("\"profile_id\":");
  if (p != std::string_view::npos)
    e->profile_id = std::strtoull(body.c_str() + p + 13, nullptr, 10);
  e->result_pos = r + 10;
  e->result_len = end - e->result_pos;
  return true;
}

// A cube backend answers with its own table name, calls its one aggregate
// "sum" and may order rows differently (olap/backend.h). Its answer is
// compared on the group column names and the multiset of rows. 0 when the
// JSON does not parse as a table.
uint64_t CanonicalHash(std::string_view table_json) {
  auto v = statcube::serve::ParseJson(std::string(table_json));
  if (!v.ok()) return 0;
  const statcube::serve::JsonValue* cols = v->Find("columns");
  const statcube::serve::JsonValue* data = v->Find("data");
  if (cols == nullptr || data == nullptr) return 0;
  std::string key;
  const auto& c = cols->AsArray();
  for (size_t i = 0; i + 1 < c.size(); ++i) key += c[i].Dump() + ",";
  std::vector<std::string> rows;
  for (const auto& row : data->AsArray()) rows.push_back(row.Dump());
  std::sort(rows.begin(), rows.end());
  key += "|";
  for (const auto& r : rows) key += r + "\n";
  return Fnv1a(key);
}

// What the harness keeps of one response to check it later.
struct Answer {
  int status = -1;
  std::string engine;   // requested
  std::string backend;  // answered
  uint64_t profile_id = 0;
  uint64_t hash = 0;
  bool canonical = false;
  size_t bytes = 0;
};

Answer Fingerprint(std::string& body, int status, const Request& req,
                   bool corrupt) {
  Answer a;
  a.status = status;
  a.engine = req.engine;
  a.bytes = body.size();
  Envelope e;
  if (status != 200) return a;
  if (!ParseEnvelope(body, &e)) {
    a.status = -2;
    return a;
  }
  if (corrupt) {
    // Change the last digit of the result: a wrong answer the checker must
    // catch.
    for (size_t k = e.result_pos + e.result_len; k-- > e.result_pos;)
      if (body[k] >= '0' && body[k] <= '9') {
        body[k] = body[k] == '0' ? '1' : '0';
        break;
      }
  }
  a.backend = e.backend;
  a.profile_id = e.profile_id;
  const std::string_view result(body.data() + e.result_pos, e.result_len);
  a.canonical = req.engine != "relational" && e.backend == req.engine;
  a.hash = a.canonical ? CanonicalHash(result) : Fnv1a(result);
  return a;
}

bool Matches(const Answer& a, const std::string& oracle_json) {
  if (a.status != 200) return false;
  return a.canonical ? a.hash != 0 && CanonicalHash(oracle_json) == a.hash
                     : Fnv1a(oracle_json) == a.hash;
}

// The serial relational oracle: ExecuteQuery at one thread, cache off.
bool CheckAgainstOracle(const StatisticalObject& obj, const Request& req,
                        const Answer& a) {
  Result<Table> t = statcube::Query(obj, req.query);
  return t.ok() && Matches(a, statcube::serve::TableToJson(*t));
}

// --------------------------------------------------------------------- ops

struct OpRun {
  int64_t t0 = 0, t1 = 0;
  std::vector<std::pair<int64_t, int64_t>> req_ns;
  std::vector<HttpReply> replies;
  Status append_status;
};

// Runs one op. Only the requests (or the append) sit between t0 and t1.
OpRun RunOp(const Workload& w, Stack& s, const Op& op,
            const std::vector<std::string>& bodies) {
  OpRun r;
  r.replies.reserve(bodies.size());
  r.req_ns.reserve(bodies.size());
  const uint16_t port = s.server->port();
  r.t0 = NowNs();
  if (op.append) {
    r.append_status = w.Append(*s.obj, op.append_batch);
  } else {
    for (const std::string& b : bodies) {
      const int64_t a = NowNs();
      r.replies.push_back(PostQuery(port, b));
      r.req_ns.emplace_back(a, NowNs());
    }
  }
  r.t1 = NowNs();
  return r;
}

std::vector<std::string> Bodies(const Op& op) {
  std::vector<std::string> b;
  for (const Request& q : op.requests) b.push_back(q.Body());
  return b;
}

// Runs ops 0 .. count-1, stopping early only past `cap_s` seconds of loop
// time (a program many times slower than the rates assume). The reference
// kernel is sampled at both ends and at least every kWindowOpNs of op time,
// never while a request is in flight. `after(i, op, run)` is called outside
// each op's timing.
template <typename After>
void Loop(const Workload& w, Stack& s, DriftClock& drift, uint64_t count,
          double cap_s, After&& after) {
  drift.Sample();
  const int64_t start = NowNs();
  double window = 0;
  for (uint64_t i = 0; i < count; ++i) {
    if (double(NowNs() - start) >= cap_s * 1e9) break;
    const Op op = w.At(i);
    const std::vector<std::string> bodies = Bodies(op);
    OpRun r = RunOp(w, s, op, bodies);
    window += double(r.t1 - r.t0);
    after(i, op, r);
    if (window >= kWindowOpNs) {
      drift.Sample();
      window = 0;
    }
  }
  drift.Sample();
}

// ------------------------------------------------------------------ set-up

// Reference samples taken back to back around each set-up step. A step runs
// once per process, so its bracket alone sets its drift factor.
constexpr int kSetupBracketSamples = 5;

// The program's work from process start to the first timed op: static
// initialization, generate, server start and each warm-up op, each timed
// on its own. The reference samples between them are harness work and are
// left out.
struct SetupTiming {
  std::vector<std::pair<int64_t, int64_t>> steps;
  std::pair<int64_t, int64_t> generate;

  double AdjustedMs(const DriftClock& d) const {
    double ms = 0;
    for (const auto& [a, b] : steps) ms += d.AdjustedMs(a, b);
    return ms;
  }
  double WallMs() const {
    double ns = 0;
    for (const auto& [a, b] : steps) ns += double(b - a);
    return ns / 1e6;
  }
  double GenerateMs(const DriftClock& d) const {
    return d.AdjustedMs(generate.first, generate.second);
  }
};

// Generates the object, starts the server (port 0, one HTTP worker) with
// the front door at its defaults, and runs the warm-up ops. Each step is
// bracketed by reference samples.
Status SetUp(const Workload& w, DriftClock& drift, Stack* s, SetupTiming* t) {
  s->Reset();
  statcube::cache::ResultCache::Global().Clear();
  statcube::obs::FlightRecorder::Global().Clear();

  drift.Sample(kSetupBracketSamples);
  const int64_t gen0 = NowNs();
  Result<StatisticalObject> obj = w.Generate();
  t->generate = {gen0, NowNs()};
  t->steps.push_back(t->generate);
  STATCUBE_RETURN_NOT_OK(obj.status());
  s->obj = std::make_unique<StatisticalObject>(std::move(obj).value());

  drift.Sample(kSetupBracketSamples);
  const int64_t start0 = NowNs();
  s->door = std::make_unique<statcube::serve::QueryFrontDoor>(*s->obj);
  statcube::obs::StatsServerOptions so;
  so.port = 0;
  so.num_workers = 1;
  s->server = std::make_unique<statcube::obs::StatsServer>(so);
  s->door->Register(*s->server);
  Status started = s->server->Start();
  t->steps.emplace_back(start0, NowNs());
  STATCUBE_RETURN_NOT_OK(started);

  drift.Sample(kSetupBracketSamples);
  double window = 0;
  for (const Op& op : w.Warmup()) {
    OpRun r = RunOp(w, *s, op, Bodies(op));
    t->steps.emplace_back(r.t0, r.t1);
    for (const HttpReply& reply : r.replies)
      if (reply.status != 200)
        return Status::Internal("warm-up request answered " +
                                std::to_string(reply.status) + ": " +
                                reply.body);
    window += double(r.t1 - r.t0);
    if (window >= kWindowOpNs) {
      drift.Sample();
      window = 0;
    }
  }
  drift.Sample(kSetupBracketSamples);
  return Status::OK();
}

// ----------------------------------------------------------------- metrics

struct OpRecord {
  uint64_t index = 0;
  bool append = false;
  uint64_t append_batch = 0;
  int64_t t0 = 0, t1 = 0;
  bool ok = true;
  std::vector<Answer> answers;
};

OpRecord Record(uint64_t i, const Op& op, OpRun& r, bool corrupt) {
  OpRecord rec;
  rec.index = i;
  rec.append = op.append;
  rec.append_batch = op.append_batch;
  rec.t0 = r.t0;
  rec.t1 = r.t1;
  rec.ok = r.append_status.ok();
  for (size_t j = 0; j < r.replies.size(); ++j) {
    rec.answers.push_back(Fingerprint(r.replies[j].body, r.replies[j].status,
                                      op.requests[j], corrupt));
    rec.ok = rec.ok && rec.answers.back().status == 200;
  }
  return rec;
}

// End-to-end timings of a list of ops.
struct Timings {
  uint64_t query_ops = 0;
  double qps = 0, p50_ms = 0, p90_ms = 0;
  double wall_qps = 0, wall_p50_ms = 0, wall_p90_ms = 0;
  std::vector<double> append_ms;
};

// qps counts query ops (refreshes on dashboard_live) per second of op time,
// appends included; p50/p90 are over query ops, a failed op counting as
// +infinity.
Timings Summarize(const std::vector<OpRecord>& ops, const DriftClock& d) {
  Timings t;
  std::vector<double> lat, wall;
  double total = 0, wall_total = 0;
  for (const OpRecord& r : ops) {
    const double adj = d.AdjustedMs(r.t0, r.t1, Elasticity(r.append));
    const double w = double(r.t1 - r.t0) / 1e6;
    total += adj;
    wall_total += w;
    if (r.append) {
      t.append_ms.push_back(adj);
      continue;
    }
    ++t.query_ops;
    lat.push_back(r.ok ? adj : kInf);
    wall.push_back(r.ok ? w : kInf);
  }
  if (total > 0) t.qps = double(t.query_ops) / (total / 1e3);
  if (wall_total > 0) t.wall_qps = double(t.query_ops) / (wall_total / 1e3);
  t.p50_ms = Quantile(lat, 0.5);
  t.p90_ms = Quantile(lat, 0.9);
  t.wall_p50_ms = Quantile(wall, 0.5);
  t.wall_p90_ms = Quantile(wall, 0.9);
  return t;
}

// Checks a seeded sample of ops after the timed window. Without appends
// the live object is the data every op saw; with appends a fresh object is
// generated and the same batches replayed up to each checked refresh.
Status CheckSample(const Workload& w, const RunConfig& cfg,
                   const StatisticalObject& live, std::vector<OpRecord>& ops) {
  std::vector<size_t> candidates;
  for (size_t i = 0; i < ops.size(); ++i)
    if (!ops[i].append && ops[i].ok) candidates.push_back(i);
  const size_t k = std::min(
      candidates.size(), w.has_appends() ? kTimedRefreshChecks : kTimedChecks);
  SplitMix rng(StreamSeed(cfg.seed, 99));
  for (size_t j = 0; j < k; ++j)
    std::swap(candidates[j],
              candidates[j + rng.Uniform(candidates.size() - j)]);
  std::vector<size_t> picked(candidates.begin(), candidates.begin() + long(k));
  std::sort(picked.begin(), picked.end());

  std::unique_ptr<StatisticalObject> replay;
  size_t replayed = 0;
  if (w.has_appends()) {
    Result<StatisticalObject> fresh = w.Generate();
    STATCUBE_RETURN_NOT_OK(fresh.status());
    replay = std::make_unique<StatisticalObject>(std::move(fresh).value());
  }
  for (size_t idx : picked) {
    const StatisticalObject* obj = &live;
    if (replay) {
      for (; replayed < idx; ++replayed)
        if (ops[replayed].append)
          STATCUBE_RETURN_NOT_OK(
              w.Append(*replay, ops[replayed].append_batch));
      obj = replay.get();
    }
    const Op op = w.At(ops[idx].index);
    for (size_t r = 0; r < op.requests.size(); ++r)
      if (!CheckAgainstOracle(*obj, op.requests[r], ops[idx].answers[r]))
        ops[idx].ok = false;
  }
  return Status::OK();
}

// Times AddCell batches on a workload whose op stream has no appends, so
// append_ms is reported everywhere. The batches go to a side object with
// the live object's dimensions and measures under its own name (its epoch
// bumps leave the live object's cached results alone), one after every few
// ops and outside their timing: spread over the run like the ops, they see
// the same machine states the ops see.
class AppendProbe {
 public:
  AppendProbe(const Workload& w, const StatisticalObject& like, uint64_t ops)
      : w_(w),
        dims_(like.dimensions()),
        measures_(like.measures()),
        every_(std::max<uint64_t>(1, ops / kProbeBatches)) {}

  // Called after op `i`; appends one batch every `every_` ops.
  Status AfterOp(uint64_t i) {
    if ((i + 1) % every_ != 0) return Status::OK();
    if (!obj_ || batches_ % kProbeRebuild == 0) {
      obj_ = std::make_unique<StatisticalObject>("append_probe");
      for (const auto& d : dims_) STATCUBE_RETURN_NOT_OK(obj_->AddDimension(d));
      for (const auto& m : measures_)
        STATCUBE_RETURN_NOT_OK(obj_->AddMeasure(m));
    }
    const int64_t t0 = NowNs();
    Status st = w_.Append(*obj_, kProbeBatchBase + batches_++);
    intervals_.emplace_back(t0, NowNs());
    return st;
  }

  std::vector<double> AdjustedMs(const DriftClock& d) const {
    std::vector<double> ms;
    for (const auto& [a, b] : intervals_)
      ms.push_back(d.AdjustedMs(a, b, kRefAppendElasticity));
    return ms;
  }

 private:
  const Workload& w_;
  const std::vector<statcube::Dimension> dims_;
  const std::vector<statcube::SummaryMeasure> measures_;
  const uint64_t every_;
  std::unique_ptr<StatisticalObject> obj_;
  uint64_t batches_ = 0;
  std::vector<std::pair<int64_t, int64_t>> intervals_;
};

uint64_t CounterValue(const char* name) {
  return statcube::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

// ------------------------------------------------------------ traced replay

// One request of the traced replay, with what its profile and the direct
// calls measured.
struct TracedRequest {
  uint64_t op = 0;
  int32_t http = -1;
  std::vector<int32_t> grafted;
  std::string engine, backend;
  double rtt_ns = 0, latency_ns = 0, parse_ns = 0, envelope_ns = 0;
  double bytes = 0;
  uint64_t rows_in = 0, result_rows = 0, blocks = 0;
};

struct LayerRow {
  double self_ms = 0;
  uint64_t count = 0;
};

// What the untraced part of a run measured.
struct TimedRun {
  std::vector<OpRecord> ops;
  std::vector<double> append_ms;
  double rss_mb = 0;
  double cap_s = 0;
};

// Runs the timed ops untraced on the stack the process set up: rate ×
// seconds of them, rounded up to whole blocks.
Status RunTimed(const Workload& w, const RunConfig& cfg, DriftClock& drift,
                Stack& stack, TimedRun* run) {
  const uint64_t blocks = uint64_t(
      std::ceil(w.ops_per_second() * cfg.seconds / double(w.block())));
  const uint64_t count = std::max<uint64_t>(1, blocks) * w.block();
  run->cap_s = 3 * cfg.seconds + 30;
  AppendProbe probe(w, *stack.obj, count);
  Status probe_status;
  Loop(w, stack, drift, count, run->cap_s,
       [&](uint64_t i, const Op& op, OpRun& r) {
         run->ops.push_back(Record(i, op, r, cfg.corrupt_answers));
         if (!w.has_appends() && probe_status.ok())
           probe_status = probe.AfterOp(i);
       });
  STATCUBE_RETURN_NOT_OK(probe_status);
  run->rss_mb = PeakRssMb();
  run->append_ms = w.has_appends() ? Summarize(run->ops, drift).append_ms
                                   : probe.AdjustedMs(drift);
  return Status::OK();
}

// Replays the timed ops traced, from the same cold state, checks every
// answer, and fills the per-layer metrics.
Status TracedReplay(const Workload& w, const RunConfig& cfg, DriftClock& drift,
                    const SetupTiming& setup, Stack& stack,
                    const TimedRun& timed, RunResult* out) {
  const uint64_t n = timed.ops.size();
  {
    SetupTiming again;
    STATCUBE_RETURN_NOT_OK(SetUp(w, drift, &stack, &again));
  }
  auto& rc = statcube::cache::ResultCache::Global();
  const auto cache0 = rc.stats();
  const uint64_t vec_rows0 = CounterValue("statcube.exec.vec.rows");
  const uint64_t morsels0 = CounterValue("statcube.exec.morsels");

  SpanLog log;
  // Oracle answers by query text, valid until the next append changes the
  // data (dashboard_live repeats its panels between appends).
  std::map<std::string, std::pair<Table, std::string>> oracle_memo;
  std::vector<OpRecord> traced_ops;
  AppendProbe probe(w, *stack.obj, n);
  Status probe_status;
  std::vector<TracedRequest> reqs;
  uint64_t missing_profiles = 0;
  Loop(w, stack, drift, n, timed.cap_s,
       [&](uint64_t i, const Op& op, OpRun& r) {
    const int32_t op_span = log.Add("op", -1, i, r.t0, r.t1);
    if (op.append) {
      log.Add("core.append", op_span, i, r.t0, r.t1);
      oracle_memo.clear();
    }
    const std::vector<std::string> bodies = Bodies(op);
    OpRecord rec = Record(i, op, r, cfg.corrupt_answers);
    for (size_t j = 0; j < r.replies.size(); ++j) {
      const Request& req = op.requests[j];
      const Answer& answer = rec.answers[j];
      TracedRequest tr;
      tr.op = i;
      tr.engine = req.engine;
      tr.backend = answer.backend;
      tr.rtt_ns = double(r.req_ns[j].second - r.req_ns[j].first);
      tr.bytes = double(answer.bytes);
      tr.http =
          log.Add("obs.http", op_span, i, r.req_ns[j].first, r.req_ns[j].second);

      // Direct calls, outside the op's timing.
      int64_t a = NowNs();
      const bool parsed = statcube::serve::ParseJson(bodies[j]).ok();
      tr.parse_ns = double(NowNs() - a);
      auto memo = oracle_memo.find(req.query);
      if (memo == oracle_memo.end()) {
        Result<Table> t = statcube::Query(*stack.obj, req.query);
        if (t.ok()) {
          std::string json = statcube::serve::TableToJson(*t);
          memo = oracle_memo
                     .emplace(req.query, std::make_pair(std::move(t).value(),
                                                        std::move(json)))
                     .first;
        }
      }
      if (parsed && memo != oracle_memo.end()) {
        if (!Matches(answer, memo->second.second)) rec.ok = false;
        // Timed on a second call: the first warmed caches and the allocator
        // as the server's call is warm.
        a = NowNs();
        const std::string json = statcube::serve::TableToJson(memo->second.first);
        tr.envelope_ns = double(NowNs() - a);
      } else {
        rec.ok = false;
      }

      auto prof = statcube::obs::FlightRecorder::Global().Get(answer.profile_id);
      if (answer.status == 200 && prof) {
        tr.latency_ns = double(prof->latency_us) * 1e3;
        // The query ran after the body was parsed and before the envelope
        // was written; place its root accordingly, inside the round trip.
        const double slack = std::max(0.0, tr.rtt_ns - tr.latency_ns);
        tr.grafted = log.Graft(
            tr.http, prof->profile.trace,
            r.req_ns[j].first + int64_t(std::min(tr.parse_ns, slack)));
        for (const auto& o : prof->profile.operators) tr.rows_in += o.rows_in;
        tr.result_rows = prof->profile.result_rows;
        tr.blocks = prof->profile.blocks.blocks_read();
      } else if (answer.status == 200) {
        ++missing_profiles;
      }
      reqs.push_back(std::move(tr));
    }
    traced_ops.push_back(std::move(rec));
    if (!w.has_appends() && probe_status.ok()) probe_status = probe.AfterOp(i);
  });
  STATCUBE_RETURN_NOT_OK(probe_status);

  // ---- Per-op layer values, drift-adjusted by each op's factor.
  const std::vector<int64_t> self = log.SelfTimesNs();
  const auto& spans = log.spans();
  std::vector<std::map<std::string, double>> per_op(n);
  std::vector<bool> op_rollup(n, false);
  std::vector<double> rows_in(n, 0), result_rows(n, 0);
  uint64_t cube_requests = 0, fallbacks = 0;
  auto factor = [&](uint64_t i) {
    return drift.Factor(traced_ops[i].t0, traced_ops[i].t1,
                        Elasticity(traced_ops[i].append));
  };
  for (const TracedRequest& tr : reqs) {
    auto& m = per_op[tr.op];
    const double f = factor(tr.op);
    m["obs.http_us"] +=
        (tr.rtt_ns - tr.latency_ns - tr.parse_ns - tr.envelope_ns) * f / 1e3;
    m["serve.parse_us"] += tr.parse_ns * f / 1e3;
    m["serve.envelope_us"] += tr.envelope_ns * f / 1e3;
    m["serve.response_kb"] += tr.bytes / 1024;
    for (int32_t k : tr.grafted) {
      if (k < 0) continue;
      const HarnessSpan& s = spans[size_t(k)];
      const double dur = double(s.end_ns - s.start_ns) * f / 1e3;
      const double own = double(self[size_t(k)]) * f / 1e3;
      const std::string& nm = s.name;
      if (nm == "query") {
        m["query.profiled_us"] += dur;
      } else if (nm == "parse") {
        m["query.parse_us"] += dur;
      } else if (nm == "execute" && tr.backend == "relational") {
        m["query.copy_us"] += own;
      } else if (nm.rfind("rollup:", 0) == 0) {
        m["query.rollup_us"] += dur;
        op_rollup[tr.op] = true;
      } else if (nm == "render") {
        m["query.render_us"] += dur;
      } else if (nm == "filter") {
        m["relational.filter_us"] += dur;
      } else if (nm == "aggregate") {
        m["relational.groupby_us"] += dur;
      } else if (nm == "cache.lookup") {
        m["cache.lookup_us"] += own;
      } else if (nm == "cache.derive") {
        m["cache.derive_us"] += dur;
      } else if (nm == "cache.insert") {
        m["cache.insert_us"] += dur;
      } else if (nm == "backend.build") {
        m["olap.build_us." + std::string(tr.engine == "rolap+bitmap"
                                              ? "rolap_bitmap"
                                              : tr.engine)] += dur;
      } else if (nm.rfind("backend.groupby:", 0) == 0) {
        m["olap.groupby_us"] += dur;
      }
    }
    if (tr.backend == "relational" && tr.rows_in > 0) {
      rows_in[tr.op] += double(tr.rows_in);
      result_rows[tr.op] += double(tr.result_rows);
    }
    if (tr.engine != "relational") {
      ++cube_requests;
      if (tr.backend != tr.engine) ++fallbacks;
      else m["olap.blocks_read"] += double(tr.blocks);
    }
  }
  uint64_t query_ops = 0, rollup_ops = 0;
  double op_ms_total = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const double ms = drift.AdjustedMs(traced_ops[i].t0, traced_ops[i].t1,
                                       Elasticity(traced_ops[i].append));
    op_ms_total += ms;
    if (traced_ops[i].append) {
      per_op[i]["core.append_us_per_cell"] = ms * 1e3 / Workload::kAppendCells;
    } else {
      ++query_ops;
      rollup_ops += op_rollup[i] ? 1 : 0;
    }
    if (rows_in[i] > 0)
      per_op[i]["relational.rows_examined"] =
          rows_in[i] / std::max(1.0, result_rows[i]);
  }
  // Median over the ops in which a layer did work.
  auto op_median = [&](const std::string& name) {
    std::vector<double> v;
    for (const auto& m : per_op) {
      auto it = m.find(name);
      if (it != m.end()) v.push_back(it->second);
    }
    return Median(std::move(v));
  };

  const Timings untraced = Summarize(timed.ops, drift);
  const Timings traced = Summarize(traced_ops, drift);
  const double overhead_pct =
      untraced.qps > 0 ? (untraced.qps - traced.qps) / untraced.qps * 100 : 0;
  out->attempted = n;
  for (const OpRecord& r : traced_ops) out->failed += r.ok ? 0 : 1;
  const size_t violations = log.NestingViolations();
  out->correct = out->failed == 0 && violations == 0 && missing_profiles == 0;

  const auto cache1 = rc.stats();
  const double lookups =
      double((cache1.hits - cache0.hits) + (cache1.misses - cache0.misses));
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  auto backend_mb = [&](int which) {
    Result<std::unique_ptr<statcube::CubeBackend>> b =
        which == 0 ? statcube::MakeMolapBackend(*stack.obj, w.backend_measure())
                   : statcube::MakeRolapBackend(
                         *stack.obj, w.backend_measure(),
                         {.build_bitmap_indexes = which == 2});
    return b.ok() ? double((*b)->ByteSize()) / (1 << 20) : 0.0;
  };
  const double append_us_per_cell =
      w.has_appends()
          ? op_median("core.append_us_per_cell")
          : Median(probe.AdjustedMs(drift)) * 1e3 / Workload::kAppendCells;

  out->metrics = {
      {"obs.http_us", op_median("obs.http_us"), "us"},
      {"serve.parse_us", op_median("serve.parse_us"), "us"},
      {"serve.envelope_us", op_median("serve.envelope_us"), "us"},
      {"serve.response_kb", op_median("serve.response_kb"), "KiB"},
      {"query.profiled_us", op_median("query.profiled_us"), "us"},
      {"query.parse_us", op_median("query.parse_us"), "us"},
      {"query.copy_us", op_median("query.copy_us"), "us"},
      {"query.rollup_us", op_median("query.rollup_us"), "us"},
      {"query.render_us", op_median("query.render_us"), "us"},
      {"query.rollup_share", ratio(double(rollup_ops), double(query_ops)),
       "ratio"},
      {"relational.filter_us", op_median("relational.filter_us"), "us"},
      {"relational.groupby_us", op_median("relational.groupby_us"), "us"},
      {"relational.rows_examined", op_median("relational.rows_examined"),
       "rows/row"},
      {"cache.lookup_us", op_median("cache.lookup_us"), "us"},
      {"cache.derive_us", op_median("cache.derive_us"), "us"},
      {"cache.insert_us", op_median("cache.insert_us"), "us"},
      {"cache.hit_ratio", ratio(double(cache1.hits - cache0.hits), lookups),
       "ratio"},
      {"cache.derived_ratio",
       ratio(double(cache1.derived_hits - cache0.derived_hits), lookups),
       "ratio"},
      {"cache.admission_rejects",
       double(cache1.admission_rejects - cache0.admission_rejects), "count"},
      {"cache.evictions", double(cache1.evictions - cache0.evictions),
       "count"},
      {"cache.mb", double(cache1.bytes) / (1 << 20), "MiB"},
      {"olap.build_us.molap", op_median("olap.build_us.molap"), "us"},
      {"olap.build_us.rolap", op_median("olap.build_us.rolap"), "us"},
      {"olap.build_us.rolap_bitmap", op_median("olap.build_us.rolap_bitmap"),
       "us"},
      {"olap.groupby_us", op_median("olap.groupby_us"), "us"},
      {"olap.fallback_share", ratio(double(fallbacks), double(cube_requests)),
       "ratio"},
      {"olap.blocks_read", op_median("olap.blocks_read"), "blocks"},
      {"olap.mb.molap", backend_mb(0), "MiB"},
      {"olap.mb.rolap", backend_mb(1), "MiB"},
      {"olap.mb.rolap_bitmap", backend_mb(2), "MiB"},
      {"core.append_us_per_cell", append_us_per_cell, "us"},
      {"core.rows", double(stack.obj->data().num_rows()), "rows"},
      {"exec.vec_rows",
       double(CounterValue("statcube.exec.vec.rows") - vec_rows0), "rows"},
      {"exec.morsels",
       double(CounterValue("statcube.exec.morsels") - morsels0), "count"},
      {"workload.generate_s", setup.GenerateMs(drift) / 1e3, "s"},
      {"bench.ref_ms", drift.MedianRefMs(), "ms"},
      {"bench.wall_qps", untraced.wall_qps, "1/s"},
      {"bench.wall_p50_ms", untraced.wall_p50_ms, "ms"},
      {"bench.wall_p90_ms", untraced.wall_p90_ms, "ms"},
      {"bench.wall_setup_s", setup.WallMs() / 1e3, "s"},
      {"bench.trace_overhead_pct", overhead_pct, "%"},
  };

  // Per-layer table: self time, span count, share of op time.
  std::map<std::string, LayerRow> layers;
  for (size_t k = 0; k < spans.size(); ++k) {
    LayerRow& row = layers[spans[k].name];
    row.self_ms += double(self[k]) * factor(spans[k].op) / 1e6;
    ++row.count;
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, row] : layers) order.emplace_back(-row.self_ms, name);
  std::sort(order.begin(), order.end());
  out->notes.push_back("traced replay: " + std::to_string(n) + " ops, " +
                       std::to_string(spans.size()) + " spans, " +
                       std::to_string(violations) + " nesting violations, " +
                       std::to_string(missing_profiles) + " missing profiles");
  out->notes.push_back("span                            self_ms    count  share");
  for (const auto& [neg, name] : order) {
    const LayerRow& row = layers[name];
    char line[160];
    std::snprintf(line, sizeof(line), "%-28s %10.2f %8llu %6.1f%%",
                  name.c_str(), row.self_ms,
                  static_cast<unsigned long long>(row.count),
                  op_ms_total > 0 ? row.self_ms / op_ms_total * 100 : 0.0);
    out->notes.push_back(line);
  }
  out->notes.push_back("bench.trace_overhead_pct " + Fmt("%.2f", overhead_pct));

  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  const std::string path = cfg.out_dir + "/trace-" + cfg.workload + "-seed" +
                           std::to_string(cfg.seed) + ".json";
  std::ofstream f(path);
  f << log.ChromeJson(spans.empty() ? 0 : spans.front().start_ns);
  if (!f) return Status::Internal("cannot write " + path);
  out->notes.push_back("spans written to " + path);
  return Status::OK();
}

}  // namespace

Result<RunResult> RunBenchmark(const RunConfig& cfg) {
  std::unique_ptr<Workload> w = Workload::Make(cfg.workload, cfg.seed);
  if (!w) return Status::InvalidArgument("unknown workload " + cfg.workload);
  // Static initialization and flag handling: the program's part of the time
  // before the harness starts its reference kernel.
  SetupTiming setup;
  setup.steps.emplace_back(cfg.process_start_ns, NowNs());
  DriftClock drift(cfg.ref_nominal_ms);
  drift.Warm();
  Stack stack;
  STATCUBE_RETURN_NOT_OK(SetUp(*w, drift, &stack, &setup));

  RunResult out;
  if (cfg.setup_only) {
    out.attempted = w->Warmup().size();
    out.metrics = {
        {"setup_s", setup.AdjustedMs(drift) / 1e3, "s"},
        {"bench.wall_setup_s", setup.WallMs() / 1e3, "s"},
        {"workload.generate_s", setup.GenerateMs(drift) / 1e3, "s"},
    };
    return out;
  }
  TimedRun timed;
  STATCUBE_RETURN_NOT_OK(RunTimed(*w, cfg, drift, stack, &timed));
  if (!cfg.trace) {
    STATCUBE_RETURN_NOT_OK(CheckSample(*w, cfg, *stack.obj, timed.ops));
    out.attempted = timed.ops.size();
    for (const OpRecord& r : timed.ops) out.failed += r.ok ? 0 : 1;
    out.correct = out.failed == 0 && !timed.append_ms.empty();
    // After the check, so wrong answers count as failed ops.
    const Timings t = Summarize(timed.ops, drift);
    out.metrics = {
        {"qps", t.qps, "1/s"},
        {"p50_ms", t.p50_ms, "ms"},
        {"p90_ms", t.p90_ms, "ms"},
        {"setup_s", setup.AdjustedMs(drift) / 1e3, "s"},
        {"rss_mb", timed.rss_mb, "MiB"},
        {"append_ms", Median(timed.append_ms), "ms"},
    };
    out.notes.push_back("workload " + cfg.workload + " seed " +
                        std::to_string(cfg.seed) + ": " +
                        std::to_string(timed.ops.size()) + " ops, " +
                        std::to_string(t.query_ops) + " query ops");
    out.notes.push_back("bench.ref_ms " + Fmt("%.4f", drift.MedianRefMs()) +
                        " (nominal " + Fmt("%.4f", drift.nominal_ms()) + ")");
    out.notes.push_back("bench.wall_qps " + Fmt("%.3f", t.wall_qps) +
                        "  bench.wall_p50_ms " + Fmt("%.3f", t.wall_p50_ms) +
                        "  bench.wall_p90_ms " + Fmt("%.3f", t.wall_p90_ms));
    return out;
  }
  STATCUBE_RETURN_NOT_OK(
      TracedReplay(*w, cfg, drift, setup, stack, timed, &out));
  return out;
}

}  // namespace e2e
