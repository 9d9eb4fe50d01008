/// \file
/// \brief Thread-safe, lattice-aware LRU cache of query result tables.
///
/// Sits between QueryProfiled / ExecuteQueryOnBackend and the physical
/// backends (relational, MOLAP, ROLAP): the paper's §6.3/§6.6 observation —
/// most OLAP answers are derivable from previously computed aggregates — as
/// an actual fast path. Three ways a request can be satisfied:
///
///  1. **Exact hit**: the canonical key (cache/query_key.h) matches a live
///     entry; the stored table and its stored JSON encoding are returned
///     by reference, nothing copied.
///  2. **Derived hit** (Mode::kDerive): no exact entry, but some cached
///     entry in the same family groups by a *superset* of the requested
///     dimensions (`Lattice::DerivableFrom` on interned dimension masks) and
///     every aggregate is distributive — the entry is rolled up with the
///     ordinary group-by kernels instead of scanning base data
///     (cache/derive.h).
///  3. **Miss**: the caller executes normally and offers the result back via
///     Insert, which applies cost-aware admission: results cheaper to
///     recompute than `admit_min_us` (measured by the QueryProfile span
///     timings) or larger than `max_entry_bytes` are not worth keeping.
///
/// An entry is an immutable answer shared with every reader: the table
/// (`shared_ptr<const Table>`, the very object the executor built) plus
/// its wire encoding (Table::ToJson), made once at admission. Readers keep
/// what they were handed after the entry is evicted.
///
/// Storage is a sharded LRU keyed by the exact key string, bounded by a byte
/// budget (per entry: `Table::ByteSize` plus the encoding's bytes plus the
/// key); eviction is per shard. A side index per family maps group-by sets
/// to bitmasks for the derivation search. Invalidation is by construction:
/// keys embed the dataset epoch (common/epoch.h), so entries for mutated
/// objects stop matching and age out via LRU.
///
/// Observability: statcube.cache.{hits,misses,derived_hits,inserts,
/// admission_rejects,evictions} counters and statcube.cache.{bytes,entries}
/// gauges, visible on /metrics when obs is enabled; identical
/// numbers are always available via stats() for tests.

#ifndef STATCUBE_CACHE_RESULT_CACHE_H_
#define STATCUBE_CACHE_RESULT_CACHE_H_

#include <atomic>
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

/// An exact hit: the entry's table and its JSON encoding (Table::ToJson),
/// shared with the cache. Both are null on a miss.
struct CachedResult {
  std::shared_ptr<const Table> table;       ///< the cached result
  std::shared_ptr<const std::string> json;  ///< `table->ToJson()`
};

/// A cached superset entry usable to answer a finer query by roll-up; handed
/// to RollupDerived (cache/derive.h).
struct DerivedSource {
  std::shared_ptr<const Table> result;  ///< the cached superset result
  std::vector<std::string> by;          ///< its group-by columns (insert order)
  std::vector<AggFn> agg_fns;           ///< original aggregate functions
  std::vector<std::string> agg_cols;    ///< aggregate column names in `result`
};

/// The sharded, byte-bounded, lattice-aware result cache.
class ResultCache {
 public:
  /// Construction-time knobs (see class comment).
  struct Options {
    size_t byte_budget = 64ull << 20;  ///< total across shards
    size_t shards = 8;                 ///< lock-striping factor
    /// Admission floor: results that took less than this to execute are not
    /// cached (0 admits everything — used by tests).
    uint64_t admit_min_us = 50;
    /// Largest admissible entry; 0 means byte_budget / 8.
    size_t max_entry_bytes = 0;
  };

  /// Monotonic counters + instantaneous size, mirrored in statcube.cache.*.
  /// Hit rate over a window is (hits + derived_hits) / (hits + misses):
  /// every lookup counts one hit or one miss, and derived hits are the
  /// subset of misses recovered without touching base data.
  struct Stats {
    uint64_t hits = 0;               ///< exact-key lookups answered
    uint64_t misses = 0;             ///< lookups that found no exact entry
    uint64_t derived_hits = 0;       ///< misses recovered by roll-up
    uint64_t inserts = 0;            ///< entries admitted
    uint64_t admission_rejects = 0;  ///< offers refused (too cheap / large)
    uint64_t evictions = 0;          ///< entries pushed out by the budget
    size_t bytes = 0;                ///< current resident bytes
    size_t entries = 0;              ///< current resident entries
  };

  /// Default Options.
  ResultCache();
  /// Custom budget/sharding/admission knobs.
  explicit ResultCache(const Options& options);

  /// The process-wide cache used by QueryProfiled. Honors the
  /// STATCUBE_CACHE_BYTES environment variable for its byte budget.
  static ResultCache& Global();

  /// Exact lookup; counts a hit (and refreshes LRU) or a miss. A hit shares
  /// the entry's table and encoding; a miss returns two nulls.
  CachedResult Lookup(const QueryKey& key);

  /// Best derivation source for `key`: a live entry of the same family and
  /// shape whose group-by set is a superset of `key.by`, with distributive
  /// aggregates on both sides — smallest row count wins, mirroring
  /// MaterializedCubeStore::CheapestAncestor. Does not count hits or misses
  /// (call NoteDerivedHit once the roll-up actually succeeds).
  std::optional<DerivedSource> FindDerivationSource(const QueryKey& key);

  /// Records a successful derivation (statcube.cache.derived_hits).
  void NoteDerivedHit();

  /// Offers a computed result. `backend_answered` says whether a cube
  /// backend produced it (shape tag for derivation), `exec_us` is the
  /// measured execution cost driving admission. An admitted result is kept
  /// by reference, not copied, and encoded once (outside the shard lock);
  /// the encoding counts toward the entry's bytes. Returns the stored
  /// encoding (the live entry's, when the key is already cached), or null
  /// when admission refuses the result.
  std::shared_ptr<const std::string> Insert(
      const QueryKey& key, std::shared_ptr<const Table> result,
      bool backend_answered, uint64_t exec_us);

  /// Empties the cache and the derivation index (counters are kept:
  /// they are lifetime totals).
  void Clear();

  /// Snapshot of the counters and current size.
  Stats stats() const;

  /// Current resident bytes across all shards.
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  /// Current resident entry count across all shards.
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }

  /// Runtime knobs for tests and benchmarks (e.g. force admission with 0, or
  /// block admission entirely to measure steady-state derivation).
  void set_admit_min_us(uint64_t us) {
    admit_min_us_.store(us, std::memory_order_relaxed);
  }
  /// Current admission floor in microseconds.
  uint64_t admit_min_us() const {
    return admit_min_us_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    std::string exact;
    std::string family;
    std::shared_ptr<const Table> result;
    std::shared_ptr<const std::string> json;
    std::vector<std::string> by;
    std::vector<AggFn> agg_fns;
    std::vector<std::string> agg_cols;
    bool derivable_source = false;
    bool backend_shaped = false;
    size_t bytes = 0;
  };
  struct Shard {
    Mutex mu;
    /// front = most recently used
    std::list<Entry> lru STATCUBE_GUARDED_BY(mu);
    std::unordered_map<std::string, std::list<Entry>::iterator> map
        STATCUBE_GUARDED_BY(mu);
    size_t bytes STATCUBE_GUARDED_BY(mu) = 0;
  };
  /// Derivation index for one family: group-by column names interned to
  /// bits, members listed as (mask, exact key, rows).
  struct FamilyMember {
    std::string exact;
    uint32_t mask = 0;
    size_t rows = 0;
    bool backend_shaped = false;
  };
  struct Family {
    std::unordered_map<std::string, int> bit_of;
    std::vector<FamilyMember> members;
  };

  Shard& ShardFor(const std::string& exact);
  void UpdateSizeMetrics();

  const size_t byte_budget_;
  const size_t per_shard_budget_;
  const size_t max_entry_bytes_;
  std::atomic<uint64_t> admit_min_us_;
  std::vector<std::unique_ptr<Shard>> shards_;

  Mutex index_mu_;
  std::unordered_map<std::string, Family> families_
      STATCUBE_GUARDED_BY(index_mu_);

  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> entries_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> derived_hits_{0};
  std::atomic<uint64_t> inserts_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace statcube::cache

#endif  // STATCUBE_CACHE_RESULT_CACHE_H_
