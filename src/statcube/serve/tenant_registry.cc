#include "statcube/serve/tenant_registry.h"

#include <algorithm>
#include <cmath>

#include "statcube/common/cancellation.h"
#include "statcube/obs/json.h"

namespace statcube::serve {

namespace {

double EffectiveBurst(const TenantQuota& q) {
  if (q.burst > 0) return q.burst;
  return std::max(1.0, q.rate_qps);
}

double EffectiveByteBurst(const TenantQuota& q) {
  if (q.byte_burst > 0) return double(q.byte_burst);
  return double(q.bytes_per_sec);
}

// Milliseconds (rounded up, at least 1) until `deficit` units accrue at
// `per_sec` — the Retry-After hint for a bucket rejection.
uint64_t RetryAfterMs(double deficit, double per_sec) {
  if (per_sec <= 0) return 0;
  double ms = std::ceil(deficit / per_sec * 1000.0);
  return ms < 1.0 ? 1 : uint64_t(ms);
}

}  // namespace

const char* AdmitOutcomeName(AdmitOutcome outcome) {
  switch (outcome) {
    case AdmitOutcome::kAdmitted: return "admitted";
    case AdmitOutcome::kConcurrencyExceeded: return "concurrency";
    case AdmitOutcome::kRateLimited: return "rate";
    case AdmitOutcome::kByteBudgetExhausted: return "bytes";
  }
  return "?";
}

TenantRegistry::TenantRegistry(TenantQuota default_quota)
    : default_quota_(default_quota) {}

TenantRegistry::Tenant& TenantRegistry::GetOrCreate(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    Tenant t;
    t.quota = default_quota_;
    t.stats.name = name;
    it = tenants_.emplace(name, std::move(t)).first;
  }
  return it->second;
}

void TenantRegistry::Refill(Tenant& t, uint64_t now_us) {
  if (now_us <= t.last_us) return;  // steady clock, but be defensive
  double dt_s = double(now_us - t.last_us) / 1e6;
  if (t.quota.rate_qps > 0)
    t.rate_tokens = std::min(EffectiveBurst(t.quota),
                             t.rate_tokens + t.quota.rate_qps * dt_s);
  if (t.quota.bytes_per_sec > 0)
    t.byte_tokens = std::min(EffectiveByteBurst(t.quota),
                             t.byte_tokens + double(t.quota.bytes_per_sec) *
                                                 dt_s);
  t.last_us = now_us;
}

void TenantRegistry::Configure(const std::string& tenant,
                               const TenantQuota& quota) {
  MutexLock lock(mu_);
  Tenant& t = GetOrCreate(tenant);
  t.quota = quota;
  // Re-clamp to the (possibly smaller) new capacities; an unprimed tenant
  // will still start with full buckets at its first admission.
  if (t.buckets_primed) {
    t.rate_tokens = std::min(t.rate_tokens, EffectiveBurst(quota));
    t.byte_tokens = std::min(t.byte_tokens, EffectiveByteBurst(quota));
  }
}

Admission TenantRegistry::AdmitAt(const std::string& tenant, uint64_t now_us) {
  MutexLock lock(mu_);
  Tenant& t = GetOrCreate(tenant);
  if (!t.buckets_primed) {
    t.rate_tokens = EffectiveBurst(t.quota);
    t.byte_tokens = EffectiveByteBurst(t.quota);
    t.last_us = now_us;
    t.buckets_primed = true;
  }
  Refill(t, now_us);

  // Evaluate every gate before committing anything, so a rejection at a
  // later gate never spends a token at an earlier one.
  Admission a;
  if (t.quota.max_concurrent > 0 && t.stats.active >= t.quota.max_concurrent) {
    a.outcome = AdmitOutcome::kConcurrencyExceeded;
    a.retry_after_ms = 0;  // recovers when a query finishes, not with time
    ++t.stats.rejected_concurrency;
    return a;
  }
  if (t.quota.rate_qps > 0 && t.rate_tokens < 1.0) {
    a.outcome = AdmitOutcome::kRateLimited;
    a.retry_after_ms = RetryAfterMs(1.0 - t.rate_tokens, t.quota.rate_qps);
    ++t.stats.rejected_rate;
    return a;
  }
  // The byte budget is post-paid: admission only requires the bucket to be
  // positive; the actual response bytes are charged at release and may push
  // the bucket negative (debt), delaying the next admission.
  if (t.quota.bytes_per_sec > 0 && t.byte_tokens <= 0) {
    a.outcome = AdmitOutcome::kByteBudgetExhausted;
    // Time for the debt to clear and the first byte of credit to accrue.
    a.retry_after_ms =
        RetryAfterMs(-t.byte_tokens + 1.0, double(t.quota.bytes_per_sec));
    ++t.stats.rejected_bytes;
    return a;
  }

  if (t.quota.rate_qps > 0) t.rate_tokens -= 1.0;
  ++t.stats.active;
  ++t.stats.admitted;
  return a;
}

Admission TenantRegistry::Admit(const std::string& tenant) {
  return AdmitAt(tenant, SteadyNowUs());
}

void TenantRegistry::ReleaseAt(const std::string& tenant, uint64_t now_us,
                               uint64_t bytes, bool ok) {
  MutexLock lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  Tenant& t = it->second;
  Refill(t, now_us);
  if (t.stats.active > 0) --t.stats.active;
  t.stats.bytes_served += bytes;
  if (t.quota.bytes_per_sec > 0) t.byte_tokens -= double(bytes);
  if (ok)
    ++t.stats.queries_ok;
  else
    ++t.stats.queries_error;
}

void TenantRegistry::Release(const std::string& tenant, uint64_t bytes,
                             bool ok) {
  ReleaseAt(tenant, SteadyNowUs(), bytes, ok);
}

void TenantRegistry::NoteShed(const std::string& tenant) {
  MutexLock lock(mu_);
  ++GetOrCreate(tenant).stats.shed;
}

std::vector<TenantStats> TenantRegistry::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<TenantStats> out;
  out.reserve(tenants_.size());
  for (const auto& [name, t] : tenants_) {
    TenantStats s = t.stats;
    s.rate_tokens = t.rate_tokens;
    s.byte_tokens = t.byte_tokens;
    out.push_back(std::move(s));
  }
  return out;  // std::map iteration is already name-sorted
}

std::string TenantRegistry::ToJson() const {
  MutexLock lock(mu_);
  obs::JsonWriter w;
  w.BeginObject().Key("tenants").BeginArray();
  for (const auto& [name, t] : tenants_) {
    const TenantStats& s = t.stats;
    w.BeginObject()
        .Key("tenant").String(name)
        .Key("active").Int(s.active)
        .Key("admitted").Uint(s.admitted)
        .Key("rejected_concurrency").Uint(s.rejected_concurrency)
        .Key("rejected_rate").Uint(s.rejected_rate)
        .Key("rejected_bytes").Uint(s.rejected_bytes)
        .Key("shed").Uint(s.shed)
        .Key("queries_ok").Uint(s.queries_ok)
        .Key("queries_error").Uint(s.queries_error)
        .Key("bytes_served").Uint(s.bytes_served)
        .Key("rate_tokens").Double(t.rate_tokens)
        .Key("byte_tokens").Double(t.byte_tokens)
        .Key("quota").BeginObject()
        .Key("max_concurrent").Int(t.quota.max_concurrent)
        .Key("rate_qps").Double(t.quota.rate_qps)
        .Key("burst").Double(EffectiveBurst(t.quota))
        .Key("bytes_per_sec").Uint(t.quota.bytes_per_sec)
        .Key("byte_burst").Uint(uint64_t(EffectiveByteBurst(t.quota)))
        .EndObject()
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
}

size_t TenantRegistry::TenantCount() const {
  MutexLock lock(mu_);
  return tenants_.size();
}

}  // namespace statcube::serve
