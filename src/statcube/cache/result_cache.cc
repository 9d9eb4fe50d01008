#include "statcube/cache/result_cache.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <functional>
#include <iterator>

#include "statcube/materialize/lattice.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/resource.h"

namespace statcube::cache {

namespace {

// Everything is behind the obs gate, like the rest of the codebase: with
// observability disabled the cache maintains only its own relaxed atomics.
void Count(const char* name, uint64_t n = 1) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("statcube.cache.") + name)
      .Add(n);
}

}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kOn: return "on";
    case Mode::kDerive: return "derive";
  }
  return "?";
}

Result<Mode> ModeFromName(const std::string& name) {
  std::string n;
  n.reserve(name.size());
  for (char c : name) n.push_back(char(std::tolower((unsigned char)c)));
  if (n == "off") return Mode::kOff;
  if (n == "on") return Mode::kOn;
  if (n == "derive") return Mode::kDerive;
  return Status::InvalidArgument("unknown cache mode '" + name +
                                 "' (off|on|derive)");
}

ResultCache::ResultCache() : ResultCache(Options()) {}

ResultCache::ResultCache(const Options& options)
    : byte_budget_(options.byte_budget),
      per_shard_budget_(options.byte_budget /
                        std::max<size_t>(1, options.shards)),
      max_entry_bytes_(options.max_entry_bytes != 0 ? options.max_entry_bytes
                                                    : options.byte_budget / 8),
      admit_min_us_(options.admit_min_us) {
  size_t n = std::max<size_t>(1, options.shards);
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

ResultCache& ResultCache::Global() {
  static ResultCache* instance = [] {
    Options o;
    if (const char* env = std::getenv("STATCUBE_CACHE_BYTES")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v > 0) o.byte_budget = size_t(v);
    }
    return new ResultCache(o);
  }();
  return *instance;
}

ResultCache::Shard& ResultCache::ShardFor(const std::string& exact) {
  return *shards_[std::hash<std::string>()(exact) % shards_.size()];
}

CachedResult ResultCache::Lookup(const QueryKey& key) {
  CachedResult hit;
  {
    Shard& shard = ShardFor(key.exact);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key.exact);
    if (it != shard.map.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hit.table = it->second->result;
      hit.json = it->second->json;
    }
  }
  if (hit.table != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    Count("hits");
    obs::RecordCacheProbe(obs::CacheProbe::kHit);
  } else {
    misses_.fetch_add(1, std::memory_order_relaxed);
    Count("misses");
    obs::RecordCacheProbe(obs::CacheProbe::kMiss);
  }
  return hit;
}

std::optional<DerivedSource> ResultCache::FindDerivationSource(
    const QueryKey& key) {
  if (!key.derivable || key.cube) return std::nullopt;

  // Candidate scan under the index lock only; the entries themselves are
  // fetched afterwards shard by shard (an entry evicted in between simply
  // falls through to the next candidate).
  std::vector<std::string> candidates;
  {
    MutexLock lock(index_mu_);
    auto fam_it = families_.find(key.family);
    if (fam_it == families_.end()) return std::nullopt;
    Family& fam = fam_it->second;
    uint32_t want = 0;
    for (const auto& name : key.by) {
      auto bit = fam.bit_of.find(name);
      // A dimension no cached entry groups by: nothing can be a superset.
      if (bit == fam.bit_of.end()) return std::nullopt;
      want |= 1u << bit->second;
    }
    std::vector<const FamilyMember*> fit;
    for (const auto& m : fam.members)
      if (m.backend_shaped == key.backend_shaped && m.exact != key.exact &&
          Lattice::DerivableFrom(want, m.mask))
        fit.push_back(&m);
    // Cheapest ancestor first (ties broken on the key for determinism),
    // mirroring MaterializedCubeStore::CheapestAncestor.
    std::sort(fit.begin(), fit.end(),
              [](const FamilyMember* a, const FamilyMember* b) {
                if (a->rows != b->rows) return a->rows < b->rows;
                return a->exact < b->exact;
              });
    for (const auto* m : fit) candidates.push_back(m->exact);
  }

  for (const auto& exact : candidates) {
    Shard& shard = ShardFor(exact);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(exact);
    if (it == shard.map.end()) continue;  // evicted since the index scan
    Entry& e = *it->second;
    if (!e.derivable_source) continue;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);  // keep hot
    DerivedSource src;
    src.result = e.result;
    src.by = e.by;
    src.agg_fns = e.agg_fns;
    src.agg_cols = e.agg_cols;
    return src;
  }
  return std::nullopt;
}

void ResultCache::NoteDerivedHit() {
  derived_hits_.fetch_add(1, std::memory_order_relaxed);
  Count("derived_hits");
  obs::RecordCacheProbe(obs::CacheProbe::kDerived);
}

std::shared_ptr<const std::string> ResultCache::Insert(
    const QueryKey& key, std::shared_ptr<const Table> result,
    bool backend_answered, uint64_t exec_us) {
  auto refuse = [this]() -> std::shared_ptr<const std::string> {
    admission_rejects_.fetch_add(1, std::memory_order_relaxed);
    Count("admission_rejects");
    return nullptr;
  };
  if (exec_us < admit_min_us_.load(std::memory_order_relaxed)) return refuse();
  // A table too large on its own is refused before it is encoded.
  size_t entry_bytes = result->ByteSize() + key.exact.size() + sizeof(Entry);
  if (entry_bytes > max_entry_bytes_) return refuse();
  auto json = std::make_shared<const std::string>(result->ToJson());
  entry_bytes += json->size();
  if (entry_bytes > max_entry_bytes_) return refuse();
  const size_t rows = result->num_rows();

  Entry e;
  e.exact = key.exact;
  e.family = key.family;
  e.result = std::move(result);
  e.json = json;
  e.by = key.by;
  e.agg_fns = key.agg_fns;
  // Actual shape, not predicted: a backend answer always has the single
  // aggregate column "sum" (olap/backend.h), anything else keeps the
  // relational EffectiveName columns.
  e.agg_cols = backend_answered ? std::vector<std::string>{"sum"}
                                : key.agg_names;
  e.derivable_source = key.derivable && !key.cube;
  e.backend_shaped = backend_answered;
  e.bytes = entry_bytes;

  // Victims leave the shard under its lock but are destroyed after it is
  // released: the last reference to a large table frees it there.
  std::list<Entry> evicted;
  {
    Shard& shard = ShardFor(key.exact);
    MutexLock lock(shard.mu);
    auto it = shard.map.find(key.exact);
    if (it != shard.map.end()) {
      // Deterministic execution means an existing entry is already this
      // result; just refresh recency.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->json;
    }
    shard.lru.push_front(std::move(e));
    shard.map[key.exact] = shard.lru.begin();
    shard.bytes += entry_bytes;
    bytes_.fetch_add(entry_bytes, std::memory_order_relaxed);
    entries_.fetch_add(1, std::memory_order_relaxed);
    while (shard.bytes > per_shard_budget_ && shard.lru.size() > 1) {
      Entry& victim = shard.lru.back();
      shard.bytes -= victim.bytes;
      bytes_.fetch_sub(victim.bytes, std::memory_order_relaxed);
      entries_.fetch_sub(1, std::memory_order_relaxed);
      shard.map.erase(victim.exact);
      evicted.splice(evicted.end(), shard.lru, std::prev(shard.lru.end()));
    }
  }

  inserts_.fetch_add(1, std::memory_order_relaxed);
  Count("inserts");
  {
    MutexLock lock(index_mu_);
    if (key.derivable && !key.cube) {
      Family& fam = families_[key.family];
      uint32_t mask = 0;
      bool indexable = true;
      for (const auto& name : key.by) {
        auto [bit, ignore] =
            fam.bit_of.try_emplace(name, int(fam.bit_of.size()));
        if (bit->second >= 32) {  // lattice masks are 32-bit; skip the index
          indexable = false;
          break;
        }
        mask |= 1u << bit->second;
      }
      if (indexable)
        fam.members.push_back({key.exact, mask, rows, backend_answered});
    }
    for (const Entry& victim : evicted) {
      auto fam_it = families_.find(victim.family);
      if (fam_it == families_.end()) continue;
      auto& members = fam_it->second.members;
      members.erase(std::remove_if(members.begin(), members.end(),
                                   [&victim](const FamilyMember& m) {
                                     return m.exact == victim.exact;
                                   }),
                    members.end());
      if (members.empty()) families_.erase(fam_it);
    }
  }
  if (!evicted.empty()) {
    evictions_.fetch_add(evicted.size(), std::memory_order_relaxed);
    Count("evictions", evicted.size());
  }
  UpdateSizeMetrics();
  return json;
}

void ResultCache::Clear() {
  for (auto& shard : shards_) {
    MutexLock lock(shard->mu);
    shard->lru.clear();
    shard->map.clear();
    shard->bytes = 0;
  }
  {
    MutexLock lock(index_mu_);
    families_.clear();
  }
  bytes_.store(0, std::memory_order_relaxed);
  entries_.store(0, std::memory_order_relaxed);
  UpdateSizeMetrics();
}

ResultCache::Stats ResultCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.derived_hits = derived_hits_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.admission_rejects = admission_rejects_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  return s;
}

void ResultCache::UpdateSizeMetrics() {
  if (!obs::Enabled()) return;
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("statcube.cache.bytes")
      .Set(double(bytes_.load(std::memory_order_relaxed)));
  reg.GetGauge("statcube.cache.entries")
      .Set(double(entries_.load(std::memory_order_relaxed)));
}

}  // namespace statcube::cache
