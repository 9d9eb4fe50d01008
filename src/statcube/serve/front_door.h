/// \file
/// \brief The multi-tenant query front door: `POST /query` as a first-class
/// serving endpoint, with per-tenant admission control (429), bounded
/// queueing with load shedding (503), and JSON results that are
/// bit-identical to what the CLI path computes.
///
/// The paper's framing is an OLAP engine as a *shared service*: many users,
/// one set of cubes, concurrent ad-hoc aggregation. The observability
/// subsystem (obs/) already shows what such a service is doing; this file is
/// the missing front half — the piece that decides, per request, whether the
/// service should do it at all. A request travels:
///
///   body JSON  →  parse/validate (400)
///              →  TenantRegistry::Admit (429 + Retry-After)
///              →  AdmissionQueue::Enter (503 when the queue is full or the
///                 wait budget expires)
///              →  QueryProfiled — the exact engine/cache/parallel/deadline
///                 path the CLI uses, now stamped with the tenant
///              →  JSON response; response bytes charged to the tenant's
///                 byte budget at release.
///
/// The request body is a flat JSON object:
///
/// ```json
/// {"query":   "SELECT sum(amount) BY store",   // required
///  "engine":  "molap",          // relational|molap|rolap|rolap+bitmap
///  "cache":   "derive",         // off|derive
///  "threads": 4,                // 0 = exec::DefaultThreads()
///  "deadline_ms": 250,          // 0 = no deadline
///  "tenant":  "team-fraud",     // [A-Za-z0-9_.-]{1,64}; default "default"
///  "render":  true}             // also send the first 25 rows as text
/// ```
///
/// Unknown keys are a 400, not silently ignored — a client that misspells
/// `"deadline_ms"` must hear about it rather than run without a deadline.
///
/// Layering: serve/ sits above query/ and obs/. The front door registers
/// its endpoint and its /statusz section through the generic StatsServer
/// hooks, so obs/ never includes a serve/ header.

#ifndef STATCUBE_SERVE_FRONT_DOOR_H_
#define STATCUBE_SERVE_FRONT_DOOR_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "statcube/cache/mode.h"
#include "statcube/core/statistical_object.h"
#include "statcube/obs/http_server.h"
#include "statcube/query/parser.h"
#include "statcube/serve/admission_queue.h"
#include "statcube/serve/tenant_registry.h"

namespace statcube::serve {

/// Service-level policy for a QueryFrontDoor.
struct FrontDoorOptions {
  /// Quota applied to tenants first seen at admission (Configure overrides
  /// per tenant). The default default-quota is permissive — see TenantQuota.
  TenantQuota default_quota;
  /// Execute-or-shed gate sizing (see AdmissionQueueOptions).
  AdmissionQueueOptions queue;
  /// Cache mode when the request does not say ("cache" key absent).
  cache::Mode default_cache = cache::Mode::kOff;
  /// Threads when the request does not say. 1 = serial; 0 would mean
  /// exec::DefaultThreads().
  int default_threads = 1;
  /// Largest "threads" a request may ask for; bigger is a 400 (a client
  /// asking for 10k workers is a bug, not a preference).
  int max_threads = 64;
  /// Deadline applied when the request does not say (0 = none).
  uint64_t default_deadline_ms = 0;
};

/// Serializes a result table as a JSON object:
/// `{"name":...,"columns":[...],"rows":N,"data":[[...],...]}`, every row
/// included (responses are bounded by the tenant's byte budget, never
/// truncated). Cell encoding: int64 → JSON integer; double → the shortest
/// JSON number that `strtod` reads back as the same bits ("2658072",
/// "0.1", "1e+21", "-0"); NaN, +∞ and −∞ → the strings "NaN", "Infinity"
/// and "-Infinity" (the proto3 JSON mapping, since null is taken); string →
/// JSON string; NULL → null; ALL → the string "ALL". It is Table::ToJson,
/// the one encoder, which also makes the result cache's stored encodings
/// that responses splice in. Exposed so tests and the benchmark's answer
/// check can compare served bytes with an encoding of the same table.
std::string TableToJson(const Table& table);

/// The /query serving subsystem: owns the tenant table and the admission
/// queue, and turns HTTP requests into QueryProfiled calls against one
/// statistical object. Thread-safe: ServeRequest may be called from every
/// StatsServer worker at once.
class QueryFrontDoor {
 public:
  /// Serves queries against `obj` (borrowed; must outlive the front door).
  explicit QueryFrontDoor(const StatisticalObject& obj,
                          FrontDoorOptions options = {});

  QueryFrontDoor(const QueryFrontDoor&) = delete;             ///< Not copyable.
  QueryFrontDoor& operator=(const QueryFrontDoor&) = delete;  ///< Not copyable.

  /// Handles one POST /query request end to end: parse → admit → queue →
  /// execute → respond. Public (rather than only reachable through a
  /// server socket) so unit tests and bench_serve drive the full pipeline
  /// in-process.
  obs::HttpResponse ServeRequest(const obs::HttpRequest& req);

  /// Registers POST /query on `server` and adds the per-tenant table as a
  /// /statusz section. Must be called before server.Start(); the front
  /// door must outlive the server.
  void Register(obs::StatsServer& server);

  /// Per-tenant admission state (Configure quotas through this).
  TenantRegistry& tenants() { return tenants_; }
  /// The execute-or-shed gate.
  AdmissionQueue& queue() { return queue_; }
  /// Configured policy (after construction-time clamping).
  const FrontDoorOptions& options() const { return options_; }

  /// Requests fully served (any status) since construction.
  uint64_t requests() const;

  /// HTML fragment for /statusz: one row per tenant with its quota and
  /// counters, plus the queue gauges.
  std::string StatuszSection() const;

 private:
  const StatisticalObject& obj_;
  FrontDoorOptions options_;
  TenantRegistry tenants_;
  AdmissionQueue queue_;
  std::atomic<uint64_t> requests_{0};
};

}  // namespace statcube::serve

#endif  // STATCUBE_SERVE_FRONT_DOOR_H_
