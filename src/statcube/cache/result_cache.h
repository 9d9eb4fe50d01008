/// \file
/// \brief Thread-safe, lattice-aware LRU cache of query result tables.
///
/// Sits between QueryProfiled / ExecuteQueryOnBackend and the physical
/// backends (relational, MOLAP, ROLAP): the paper's §6.3/§6.6 observation —
/// most OLAP answers are derivable from previously computed aggregates — as
/// an actual fast path. Four ways a request can be satisfied, tried in
/// this order by QueryProfiled:
///
///  1. **Exact hit**: the canonical key (cache/query_key.h) matches a live
///     entry at the key's data version; the stored table and its stored
///     JSON encoding are returned by reference, nothing copied.
///  2. **Folded**: the exact key's entry answers an older version of the
///     same object, which has only gained rows since. The caller
///     aggregates the appended rows alone and merges that delta into the
///     stored table with `RollupFinalized` (relational/aggregate.h), Gray
///     et al.'s maintenance of distributive aggregates under insert. Only
///     a derivable key (QueryKey::derivable), a relational-shaped entry and
///     a GROUP BY (not a CUBE) fold.
///  3. **Derived**: some entry at the key's version in the same family
///     groups by a *superset* of the requested dimensions
///     (`Lattice::DerivableFrom` on interned dimension masks) and the key
///     is derivable — the entry is rolled up by `RollupFinalized`, the
///     roll-up the materialized-view store uses too, instead of scanning
///     base data.
///  4. **Miss**: the caller executes normally.
///
/// Every answer but a hit is offered back via Insert, which admits every
/// result up to `max_entry_bytes` and replaces the exact key's entry at an
/// older version: the cache keeps one version per exact key, and the byte
/// budget's LRU decides what stays.
///
/// An entry is an immutable answer shared with every reader: the table
/// (`shared_ptr<const Table>`, the very object the executor built) plus
/// its wire encoding (Table::ToJson), made once at admission. Readers keep
/// what they were handed after the entry is evicted or replaced.
///
/// Storage is one LRU list under one mutex, keyed by the exact key string
/// and bounded as a whole by a byte budget (per entry: `Table::ByteSize`
/// plus the encoding's bytes plus the key). A side index per family points
/// at the family's derivable entries in that list, each with its group-by
/// set as a bitmask, and is updated under the same lock by every insert,
/// replacement and eviction, so a derivation is one scan of the family.
/// Invalidation is by version: an entry is a hit only at the row count it
/// answers, and an object that is copied or edited other than by appending
/// has a new identity, so its keys name another family.
///
/// Observability: statcube.cache.{hits,misses,derived_hits,folded_hits,
/// inserts,admission_rejects,evictions} counters and
/// statcube.cache.{bytes,entries} gauges, visible on /metrics when obs is
/// enabled; identical numbers are always available via stats(). The
/// registry is only called after the cache's lock is released.

#ifndef STATCUBE_CACHE_RESULT_CACHE_H_
#define STATCUBE_CACHE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "statcube/cache/mode.h"
#include "statcube/common/mutex.h"
#include "statcube/common/thread_annotations.h"
#include "statcube/cache/query_key.h"
#include "statcube/relational/table.h"

namespace statcube::cache {

/// What Lookup found under the exact key: its entry at whatever version it
/// answers, shared with the cache. `table` and `json` are null when there
/// is no entry; `hit` says whether the entry answers the key's version.
struct CachedResult {
  std::shared_ptr<const Table> table;       ///< the cached result
  std::shared_ptr<const std::string> json;  ///< `table->ToJson()`
  /// The object's row count the entry answers (QueryKey::object_rows).
  size_t object_rows = 0;
  /// A cube backend produced the entry (its shape tag).
  bool backend_shaped = false;
  /// The entry answers the key's version: an exact hit.
  bool hit = false;
};

/// A cached superset entry usable to answer a finer query by roll-up; its
/// fields are RollupFinalized's source arguments (relational/aggregate.h).
struct DerivedSource {
  std::shared_ptr<const Table> result;  ///< the cached superset result
  std::vector<std::string> by;          ///< its group-by columns (insert order)
  /// Its aggregates: each one's function, and its column in `result` as
  /// the EffectiveName.
  std::vector<AggSpec> aggs;
};

/// The byte-bounded, lattice-aware result cache: one LRU under one lock.
class ResultCache {
 public:
  /// Construction-time knobs (see class comment).
  struct Options {
    size_t byte_budget = 64ull << 20;  ///< bounds the whole cache
    /// Largest admissible entry; 0 means byte_budget / 8.
    size_t max_entry_bytes = 0;
  };

  /// Monotonic counters + instantaneous size, mirrored in statcube.cache.*.
  /// Hit rate over a window is (hits + folded_hits + derived_hits) /
  /// (hits + misses): every lookup counts one hit or one miss, and folded
  /// and derived hits are the subsets of misses recovered from cached
  /// answers.
  struct Stats {
    uint64_t hits = 0;  ///< exact-key lookups answered at the key's version
    uint64_t misses = 0;  ///< lookups with no entry at the key's version
    uint64_t derived_hits = 0;       ///< misses recovered by roll-up
    uint64_t folded_hits = 0;  ///< misses recovered by folding appended rows
    uint64_t inserts = 0;            ///< entries admitted
    uint64_t admission_rejects = 0;  ///< offers refused (too large)
    uint64_t evictions = 0;          ///< entries pushed out by the budget
    size_t bytes = 0;                ///< current resident bytes
    size_t entries = 0;              ///< current resident entries
  };

  /// Default Options.
  ResultCache();
  /// Custom budget and entry-size knobs.
  explicit ResultCache(const Options& options);

  /// The process-wide cache used by QueryProfiled. Honors the
  /// STATCUBE_CACHE_BYTES environment variable for its byte budget.
  static ResultCache& Global();

  /// Exact lookup: shares the exact key's entry at any version (refreshing
  /// its LRU position). Counts a hit when the entry answers the key's
  /// version (`hit`), else a miss; an older version's entry comes back for
  /// the caller to fold forward.
  CachedResult Lookup(const QueryKey& key);

  /// Best derivation source for `key`: a live entry at the key's version,
  /// of the same family and shape, whose group-by set is a superset of
  /// `key.by`, with distributive aggregates on both sides — smallest row
  /// count wins (ties to the smaller exact key), mirroring
  /// MaterializedCubeStore::CheapestAncestor — refreshed in the LRU. Does
  /// not count hits or misses (call NoteDerivedHit once the roll-up
  /// actually succeeds).
  std::optional<DerivedSource> FindDerivationSource(const QueryKey& key);

  /// Records a successful derivation (statcube.cache.derived_hits).
  void NoteDerivedHit();

  /// Records a successful fold of appended rows into an older version's
  /// entry (statcube.cache.folded_hits).
  void NoteFoldedHit();

  /// Offers a computed result for `key`'s version. `backend_answered` says
  /// whether a cube backend produced it (shape tag for derivation and
  /// folding). A result within `max_entry_bytes` is admitted, kept by
  /// reference, not copied, and encoded once (outside the lock); the
  /// encoding counts toward the entry's bytes. It replaces the exact key's
  /// entry at an older version, and the family index updates that member.
  /// Returns the stored encoding (the live entry's, when the key's version
  /// is already cached), or null when the result is too large.
  std::shared_ptr<const std::string> Insert(
      const QueryKey& key, std::shared_ptr<const Table> result,
      bool backend_answered);

  /// Empties the cache and the derivation index (counters are kept:
  /// they are lifetime totals).
  void Clear();

  /// Snapshot of the counters and current size.
  Stats stats() const;

 private:
  struct Entry {
    std::string exact;
    std::string family;
    std::shared_ptr<const Table> result;
    std::shared_ptr<const std::string> json;
    std::vector<std::string> by;
    std::vector<AggSpec> aggs;
    size_t object_rows = 0;  // the version it answers
    bool backend_shaped = false;
    uint32_t by_mask = 0;  // its family's bits of `by`, when indexed
    size_t bytes = 0;
  };
  /// Front = most recently used.
  using Lru = std::list<Entry>;
  /// Derivation index for one family: group-by column names interned to
  /// bits, and the family's derivable entries in the LRU.
  struct Family {
    std::unordered_map<std::string, int> bit_of;
    std::vector<Lru::iterator> members;
  };

  /// Lists `it`, the entry just inserted for `key`, in its family's index
  /// when `key` derives and its group-by set fits a 32-bit lattice mask.
  void AddToIndex(const QueryKey& key, Lru::iterator it)
      STATCUBE_REQUIRES(mu_);
  /// Takes `it` out of the map, its family's index and the byte count,
  /// and moves it to `retired`, to be destroyed after the lock is released.
  void Retire(Lru::iterator it, Lru* retired) STATCUBE_REQUIRES(mu_);

  const size_t byte_budget_;
  const size_t max_entry_bytes_;

  mutable Mutex mu_;
  Lru lru_ STATCUBE_GUARDED_BY(mu_);
  std::unordered_map<std::string, Lru::iterator> map_ STATCUBE_GUARDED_BY(mu_);
  std::unordered_map<std::string, Family> families_ STATCUBE_GUARDED_BY(mu_);
  Stats stats_ STATCUBE_GUARDED_BY(mu_);
};

}  // namespace statcube::cache

#endif  // STATCUBE_CACHE_RESULT_CACHE_H_
