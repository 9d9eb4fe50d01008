#include "statcube/cache/result_cache.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <iterator>

#include "statcube/materialize/lattice.h"
#include "statcube/obs/metrics.h"

namespace statcube::cache {

namespace {

// Everything is behind the obs gate, like the rest of the codebase: with
// observability disabled the cache keeps only its own Stats. The registry
// is called after the cache's lock is released.
void Count(const char* name, uint64_t n = 1) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Global()
      .GetCounter(std::string("statcube.cache.") + name)
      .Add(n);
}

void UpdateSizeMetrics(size_t bytes, size_t entries) {
  if (!obs::Enabled()) return;
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("statcube.cache.bytes").Set(double(bytes));
  reg.GetGauge("statcube.cache.entries").Set(double(entries));
}

}  // namespace

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kDerive: return "derive";
  }
  return "?";
}

Result<Mode> ModeFromName(const std::string& name) {
  std::string n;
  n.reserve(name.size());
  for (char c : name) n.push_back(char(std::tolower((unsigned char)c)));
  if (n == "off") return Mode::kOff;
  if (n == "derive") return Mode::kDerive;
  return Status::InvalidArgument("unknown cache mode '" + name +
                                 "' (off|derive)");
}

ResultCache::ResultCache() : ResultCache(Options()) {}

ResultCache::ResultCache(const Options& options)
    : byte_budget_(options.byte_budget),
      max_entry_bytes_(options.max_entry_bytes != 0
                           ? options.max_entry_bytes
                           : options.byte_budget / 8) {}

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

CachedResult ResultCache::Lookup(const QueryKey& key) {
  CachedResult found;
  {
    MutexLock lock(mu_);
    auto it = map_.find(key.exact);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      const Entry& e = *it->second;
      found.table = e.result;
      found.json = e.json;
      found.object_rows = e.object_rows;
      found.backend_shaped = e.backend_shaped;
      found.hit = e.object_rows == key.object_rows;
    }
    ++(found.hit ? stats_.hits : stats_.misses);
  }
  Count(found.hit ? "hits" : "misses");
  return found;
}

std::optional<DerivedSource> ResultCache::FindDerivationSource(
    const QueryKey& key) {
  if (!key.derivable || key.cube) return std::nullopt;
  MutexLock lock(mu_);
  auto fam_it = families_.find(key.family);
  if (fam_it == families_.end()) return std::nullopt;
  const Family& fam = fam_it->second;
  uint32_t want = 0;
  for (const auto& name : key.by) {
    auto bit = fam.bit_of.find(name);
    // A dimension no cached entry groups by: nothing can be a superset.
    if (bit == fam.bit_of.end()) return std::nullopt;
    want |= 1u << bit->second;
  }
  // The cheapest ancestor at the key's version and of its shape (ties
  // broken on the exact key for determinism), mirroring
  // MaterializedCubeStore::CheapestAncestor.
  auto cheaper = [](const Entry& a, const Entry& b) {
    const size_t ra = a.result->num_rows(), rb = b.result->num_rows();
    return ra != rb ? ra < rb : a.exact < b.exact;
  };
  Lru::iterator best = lru_.end();
  for (Lru::iterator m : fam.members) {
    if (m->object_rows == key.object_rows &&
        m->backend_shaped == key.backend_shaped && m->exact != key.exact &&
        Lattice::DerivableFrom(want, m->by_mask) &&
        (best == lru_.end() || cheaper(*m, *best)))
      best = m;
  }
  if (best == lru_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, best);  // keep hot
  return DerivedSource{best->result, best->by, best->aggs};
}

void ResultCache::NoteDerivedHit() {
  {
    MutexLock lock(mu_);
    ++stats_.derived_hits;
  }
  Count("derived_hits");
}

void ResultCache::NoteFoldedHit() {
  {
    MutexLock lock(mu_);
    ++stats_.folded_hits;
  }
  Count("folded_hits");
}

std::shared_ptr<const std::string> ResultCache::Insert(
    const QueryKey& key, std::shared_ptr<const Table> result,
    bool backend_answered) {
  auto refuse = [this]() -> std::shared_ptr<const std::string> {
    {
      MutexLock lock(mu_);
      ++stats_.admission_rejects;
    }
    Count("admission_rejects");
    return nullptr;
  };
  // A table too large on its own is refused before it is encoded.
  size_t entry_bytes = result->ByteSize() + key.exact.size() + sizeof(Entry);
  if (entry_bytes > max_entry_bytes_) return refuse();
  auto json = std::make_shared<const std::string>(result->ToJson());
  entry_bytes += json->size();
  if (entry_bytes > max_entry_bytes_) return refuse();

  Entry e;
  e.exact = key.exact;
  e.family = key.family;
  e.result = std::move(result);
  e.json = json;
  e.by = key.by;
  e.aggs = key.aggs;
  e.object_rows = key.object_rows;
  // Actual shape, not predicted: a backend answer always has the single
  // aggregate column "sum" (olap/backend.h), anything else keeps the
  // relational EffectiveName columns.
  if (backend_answered) e.aggs[0].output_name = "sum";
  e.backend_shaped = backend_answered;
  e.bytes = entry_bytes;

  // Victims, and the older version this entry replaces, leave the cache
  // under its lock but are destroyed after it is released: the last
  // reference to a large table frees it there.
  Lru retired;
  size_t evicted = 0;
  Stats after;
  {
    MutexLock lock(mu_);
    auto it = map_.find(key.exact);
    if (it != map_.end()) {
      if (it->second->object_rows == key.object_rows) {
        // Deterministic execution means an entry at this version is
        // already this result; just refresh recency.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->json;
      }
      Retire(it->second, &retired);
    }
    lru_.push_front(std::move(e));
    map_.emplace(key.exact, lru_.begin());
    AddToIndex(key, lru_.begin());
    stats_.bytes += entry_bytes;
    ++stats_.entries;
    ++stats_.inserts;
    while (stats_.bytes > byte_budget_ && lru_.size() > 1) {
      Retire(std::prev(lru_.end()), &retired);
      ++evicted;
    }
    stats_.evictions += evicted;
    after = stats_;
  }

  Count("inserts");
  if (evicted != 0) Count("evictions", evicted);
  UpdateSizeMetrics(after.bytes, after.entries);
  return json;
}

void ResultCache::AddToIndex(const QueryKey& key, Lru::iterator it) {
  if (!key.derivable || key.cube) return;
  Family& fam = families_[key.family];
  uint32_t mask = 0;
  for (const auto& name : key.by) {
    auto [bit, ignore] = fam.bit_of.try_emplace(name, int(fam.bit_of.size()));
    if (bit->second >= 32) return;  // lattice masks are 32-bit; skip the index
    mask |= 1u << bit->second;
  }
  it->by_mask = mask;
  fam.members.push_back(it);
}

void ResultCache::Retire(Lru::iterator it, Lru* retired) {
  auto fam_it = families_.find(it->family);
  if (fam_it != families_.end()) {
    auto& members = fam_it->second.members;
    members.erase(std::remove(members.begin(), members.end(), it),
                  members.end());
    if (members.empty()) families_.erase(fam_it);
  }
  stats_.bytes -= it->bytes;
  --stats_.entries;
  map_.erase(it->exact);
  retired->splice(retired->end(), lru_, it);
}

void ResultCache::Clear() {
  Lru dropped;  // destroyed after the lock is released
  {
    MutexLock lock(mu_);
    dropped.swap(lru_);
    map_.clear();
    families_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
  }
  UpdateSizeMetrics(0, 0);
}

ResultCache::Stats ResultCache::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace statcube::cache
