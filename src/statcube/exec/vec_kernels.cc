#include "statcube/exec/vec_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "statcube/common/vec_block.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"

namespace statcube::exec {

// ---------------------------------------------------------------------------
// Block primitives live in common/vec_block.cc (namespace statcube::vec);
// only the metrics-instrumented SumBlockAuto wrapper stays at this layer.
// ---------------------------------------------------------------------------

namespace vec = ::statcube::vec;

double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs) {
  // Resolved once: GetCounter is a by-name map lookup under the registry
  // mutex, and this function runs once per block. Registry entries are
  // never erased (Reset() only zeroes values), so the references stay
  // valid for the process lifetime.
  static obs::Counter& fast_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_fast");
  static obs::Counter& ordered_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_ordered");
  if (vec::ReorderIsExact(all_integral, max_abs, n)) {
    if (obs::Enabled()) fast_counter.Add(1);
    return vec::SumBlockFast(v, n);
  }
  if (obs::Enabled()) ordered_counter.Add(1);
  return vec::SumBlockOrdered(v, n);
}

// ---------------------------------------------------------------------------
// Radix group-by
// ---------------------------------------------------------------------------

namespace {

constexpr int kRadixBits = 6;
static_assert((size_t(1) << kRadixBits) == kRadixPartitions,
              "kRadixPartitions must be 2^kRadixBits");

// splitmix64 finalizer: spreads tuple hashes so the open-addressing probe
// start is well distributed even when Value::Hash clusters.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Group ids are dense (0..ngroups-1), so the low bits alone deal groups
// round-robin — perfectly balanced by construction, no mixing needed.
inline size_t PartitionOf(uint32_t gid) {
  return size_t(gid) & (kRadixPartitions - 1);
}

// Dictionary entries are capped at the int32_t slot range; DictCode answers
// kDictFull instead of a code once a dictionary holds kMaxGroups tuples.
constexpr size_t kMaxGroups = size_t(INT32_MAX);
constexpr uint32_t kDictFull = UINT32_MAX;

size_t NumMorsels(size_t n, size_t morsel) {
  return n == 0 ? 0 : (n + morsel - 1) / morsel;
}

// Morsels are capped at kMaxGroups rows, so a morsel's dictionary and local
// codes always fit 32 bits (the result does not depend on the morsel size).
ParallelForOptions LoopOptions(const char* label, const ExecOptions& options) {
  ParallelForOptions loop;
  loop.label = label;
  loop.morsel_size = std::min(
      options.morsel_rows == 0 ? kDefaultMorselRows : options.morsel_rows,
      kMaxGroups);
  loop.max_workers = options.EffectiveThreads();
  loop.scheduler = options.scheduler;
  loop.stop = options.stop;
  return loop;
}

StopReason StopAfter(const ExecOptions& options) {
  return options.stop == nullptr ? StopReason::kNone : options.stop->Check();
}

// Open-addressing dictionary over group-column tuples. The tuple itself is
// never copied: an entry remembers the global row index of its first
// occurrence plus the cached tuple hash, and probes compare against the
// borrowed input row. `entries` insertion order is first-occurrence order
// (within a morsel for the per-morsel dictionaries; globally for the merged
// one).
// Fixed-width inline key record: one (tag, len, 16 payload bytes, padding)
// cell per group column, 24 bytes so the tuple hash can run word-at-a-time
// over the record itself. Probe hits compare records with a single memcmp
// against the entry's cached record — no representative-row fetch, no
// string walk — whenever both sides encode cleanly. Cells that cannot
// preserve Value::Compare's equality inline (strings longer than 16 bytes,
// numeric magnitudes at or beyond 2^53 whose double image is ambiguous,
// NaN — which Compare treats as equal to every number) mark the record as
// a fallback and the probe re-checks with the exact TupleEq below.
constexpr size_t kKeyCell = 24;
constexpr uint8_t kTagNull = 0, kTagAll = 1, kTagNum = 2, kTagStr = 3;

// Encodes one key column into `out` (kKeyCell bytes). Returns false when
// the cell cannot decide equality on its own (caller marks the record as
// fallback). int64 and double collapse to one canonical double image so
// cross-representation equal values compare equal; -0.0 collapses to +0.0.
inline bool EncodeKeyCell(const Value& v, uint8_t* out) {
  std::memset(out, 0, kKeyCell);
  switch (v.type()) {
    case ValueType::kNull:
      out[0] = kTagNull;
      return true;
    case ValueType::kAll:
      out[0] = kTagAll;
      return true;
    case ValueType::kInt64: {
      int64_t i = v.AsInt64();
      if (i <= -(int64_t(1) << 53) || i >= (int64_t(1) << 53)) return false;
      out[0] = kTagNum;
      double d = double(i);
      __builtin_memcpy(out + 2, &d, sizeof(d));
      return true;
    }
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (d != d) return false;  // NaN: Compare calls it equal to anything
      if (std::abs(d) >= 9007199254740992.0) return false;  // 2^53: int64
      if (d == 0.0) d = 0.0;  // collapse -0.0 to +0.0
      out[0] = kTagNum;
      __builtin_memcpy(out + 2, &d, sizeof(d));
      return true;
    }
    default: {  // string
      const std::string& s = v.AsString();
      if (s.size() > 16) return false;
      out[0] = kTagStr;
      out[1] = uint8_t(s.size());
      __builtin_memcpy(out + 2, s.data(), s.size());
      return true;
    }
  }
}

struct TupleDict {
  std::vector<int32_t> slots;    // entry index, -1 = empty; power-of-two
  std::vector<uint64_t> hashes;  // per entry: cached tuple hash
  std::vector<size_t> rows;      // per entry: first-occurrence row
  std::vector<uint8_t> recs;     // per entry: inline key record
  std::vector<uint8_t> rec_ok;   // per entry: record decides equality
  size_t mask = 0;

  void Init(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;  // load factor <= 0.5
    slots.assign(cap, -1);
    mask = cap - 1;
  }
};

// Inline mirror of Value::Hash for the probe loop: the out-of-line version
// costs a call plus a type dispatch per key column per row. Only the
// *shape* must match — values that Value::Compare calls equal must hash
// equal (int64 and integral doubles collapse, strings hash by content) —
// because the dictionary is self-contained: emitted keys re-enter the
// output map through RowHash, never through this function.
inline uint64_t FastValueHash(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kAll:
      return 0xa0761d6478bd642fULL;
    case ValueType::kString: {
      // Word-at-a-time multiply-xor (byte-wise FNV is a one-byte-per-cycle
      // dependency chain). Length is mixed in up front so a short string is
      // never a hash prefix of a longer one.
      const std::string& s = v.AsString();
      const char* p = s.data();
      size_t rem = s.size();
      uint64_t h = 0xcbf29ce484222325ULL ^ (uint64_t(rem) * 0x100000001b3ULL);
      while (rem >= 8) {
        uint64_t w;
        __builtin_memcpy(&w, p, 8);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
        p += 8;
        rem -= 8;
      }
      if (rem > 0) {
        uint64_t w = 0;
        __builtin_memcpy(&w, p, rem);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
      }
      return h;
    }
    default: {  // numeric: int64 and integral doubles hash identically
      double d = v.AsDouble();
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        uint64_t x = uint64_t(int64_t(d)) * 0xff51afd7ed558ccdULL;
        return x ^ (x >> 33);
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(d));
      bits *= 0xc4ceb9fe1a85ec53ULL;
      return bits ^ (bits >> 29);
    }
  }
}

// Inline equality with Value::Compare's exact semantics: int64 and double
// compare numerically across representations, and the double comparison is
// !(x<y) && !(x>y) — NOT x==y — so NaN keys group the way the serial map's
// RowEq groups them.
inline bool FastValueEq(const Value& a, const Value& b) {
  ValueType ta = a.type(), tb = b.type();
  if (ta == tb) {
    switch (ta) {
      case ValueType::kNull:
      case ValueType::kAll:
        return true;
      case ValueType::kInt64:
        return a.AsInt64() == b.AsInt64();
      case ValueType::kDouble: {
        double x = a.AsDouble(), y = b.AsDouble();
        return !(x < y) && !(x > y);
      }
      default:
        return a.AsString() == b.AsString();
    }
  }
  if ((ta == ValueType::kInt64 && tb == ValueType::kDouble) ||
      (ta == ValueType::kDouble && tb == ValueType::kInt64)) {
    double x = a.AsDouble(), y = b.AsDouble();
    return !(x < y) && !(x > y);
  }
  return false;
}

// Encodes the key record for `row` and folds the tuple hash in the same
// pass: exact cells hash their three record words (the canonical bytes ARE
// the value identity), fallback cells hash through FastValueHash. Equal
// tuples always hash equal: exact cells are bijective with the value's
// equality class, and a value with an exact cell can never Compare-equal
// one that falls back (lengths differ for strings; the 2^53 cutoff applies
// to int64 and double alike, so an exact-cell numeric is always below it
// and a fallback numeric at or above it — NaN keeps the same
// hash-vs-Compare tension the serial map's RowHash has).
inline uint64_t EncodeAndHash(const Row& row, const std::vector<size_t>& gidx,
                              uint8_t* rec, bool* rec_ok) {
  uint64_t h = 0xcbf29ce484222325ULL;
  bool ok_all = true;
  for (size_t c = 0; c < gidx.size(); ++c) {
    const Value& v = row[gidx[c]];
    uint8_t* cell = rec + c * kKeyCell;
    if (EncodeKeyCell(v, cell)) {
      for (int k = 0; k < 3; ++k) {
        uint64_t w;
        __builtin_memcpy(&w, cell + 8 * k, 8);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
      }
    } else {
      ok_all = false;
      h = (h ^ FastValueHash(v)) * 0x100000001b3ULL;
    }
  }
  *rec_ok = ok_all;
  return h;
}

bool TupleEq(const Row& a, const Row& b, const std::vector<size_t>& gidx) {
  for (size_t g : gidx)
    if (!FastValueEq(a[g], b[g])) return false;
  return true;
}

// Finds or inserts `row` (at global index r, with hash h and encoded key
// record `rec` of `stride` bytes, exact iff `rec_ok`) and returns its entry
// index, or kDictFull when a new tuple would not fit an int32_t slot. The
// caller sizes the slot table so it never grows. A hash match
// resolves with one record memcmp when both records are exact; otherwise it
// re-checks with the exact TupleEq against the entry's borrowed first row.
uint32_t DictCode(TupleDict& d, const Table& input,
                  const std::vector<size_t>& gidx, const Row& row, size_t r,
                  uint64_t h, const uint8_t* rec, bool rec_ok,
                  size_t stride) {
  size_t idx = size_t(Mix64(h)) & d.mask;
  for (;;) {
    int32_t s = d.slots[idx];
    if (s < 0) {
      if (d.rows.size() == kMaxGroups) return kDictFull;
      uint32_t code = uint32_t(d.rows.size());
      d.slots[idx] = int32_t(code);
      d.hashes.push_back(h);
      d.rows.push_back(r);
      d.recs.insert(d.recs.end(), rec, rec + stride);
      d.rec_ok.push_back(rec_ok ? 1 : 0);
      return code;
    }
    if (d.hashes[size_t(s)] == h) {
      // An empty BY has zero-width records and no record storage at all
      // (memcmp must not see its null pointer): every key is equal.
      bool equal =
          (rec_ok && d.rec_ok[size_t(s)] != 0)
              ? stride == 0 ||
                    std::memcmp(d.recs.data() + size_t(s) * stride, rec,
                                stride) == 0
              : TupleEq(input.row(d.rows[size_t(s)]), row, gidx);
      if (equal) return uint32_t(s);
    }
    idx = (idx + 1) & d.mask;
  }
}

// AggState::AddSlab of slab positions [begin, end), in order, into
// states[gid[e] * stride]. A null `values` is count() without a column
// (rows only); a null `flags` says every entry is a non-NaN number.
void FoldSlab(const uint32_t* gid, const double* values, const uint8_t* flags,
              size_t begin, size_t end, AggState* states, size_t stride) {
  if (values == nullptr) {
    for (size_t e = begin; e < end; ++e) ++states[gid[e] * stride].rows;
  } else if (flags == nullptr) {
    for (size_t e = begin; e < end; ++e)
      states[gid[e] * stride].AddSlab(values[e], kSlabNonNull | kSlabNumeric);
  } else {
    for (size_t e = begin; e < end; ++e)
      states[gid[e] * stride].AddSlab(values[e], flags[e]);
  }
}

}  // namespace

Result<std::vector<AggState>> GroupIdStates(const GroupIdRows& in,
                                            const ExecOptions& options) {
  const size_t n = in.rows;
  const size_t naggs = in.slabs.size();
  const size_t ngroups = n == 0 ? 0 : (in.gids == nullptr ? 1 : in.groups);
  std::vector<AggState> states(ngroups * naggs);
  if (n == 0) return states;
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("statcube.exec.vec.groupby_calls").Add(1);
    reg.GetCounter("statcube.exec.vec.rows").Add(n);
    reg.GetCounter("statcube.exec.vec.groups").Add(ngroups);
  }

  // Empty BY: one global group over fully contiguous slabs — the pure
  // block-kernel case. Sum/sum_sq run reassociated only under the exactness
  // gate (gap rows hold 0.0, which is bit-transparent to a sum whose running
  // value starts at +0.0); count reduces over the flag bytes; min/max fall
  // back to a flag-checked loop when any row lacks a numeric value.
  if (in.gids == nullptr) {
    obs::Span agg_span("vec.aggregate");
    for (size_t i = 0; i < naggs; ++i) {
      AggState& st = states[i];
      st.rows = int64_t(n);
      const SlabView& slab = in.slabs[i];
      if (slab.values == nullptr) continue;  // kCountAll without a column
      const SlabEvidence& ev = slab.evidence;
      const double* v = slab.values;
      st.sum = SumBlockAuto(v, n, ev.integral, ev.max_abs);
      st.sum_sq = vec::ReorderIsExact(ev.integral, ev.max_abs * ev.max_abs, n)
                      ? vec::SumSqBlockFast(v, n)
                      : vec::SumSqBlockOrdered(v, n);
      if (!ev.gap) {
        st.count = int64_t(n);
        st.min = vec::MinBlock(v, n);
        st.max = vec::MaxBlock(v, n);
      } else {
        const uint8_t* f = slab.flags;
        st.count = int64_t(vec::CountFlagBits(f, n, kSlabNonNull));
        for (size_t r = 0; r < n; ++r) {
          if ((f[r] & kSlabNumeric) == 0) continue;
          if (v[r] < st.min) st.min = v[r];
          if (v[r] > st.max) st.max = v[r];
        }
      }
    }
    return states;
  }

  // Folds slab positions [begin, end) into their groups' states, one
  // aggregate at a time, each in position order (vp[i]/fp[i] are aggregate
  // i's slab, gid[e] position e's group). gids index the flat state array
  // directly: no hash table, no Row allocation, no Value access.
  std::vector<const double*> vp(naggs, nullptr);
  std::vector<const uint8_t*> fp(naggs, nullptr);
  auto fold = [&](const uint32_t* gid, size_t begin, size_t end) {
    for (size_t i = 0; i < naggs; ++i)
      FoldSlab(gid, vp[i], fp[i], begin, end, states.data() + i, naggs);
  };

  // One worker, or too few rows per worker to pay for a pool barrier: the
  // scatter is skipped, and one pass in row order hands every group its
  // rows in the same ascending order the stable scatter would.
  const int threads = options.EffectiveThreads();
  const bool fan_out =
      threads > 1 && (options.vec_fanout_rows == 0 ||
                      n >= options.vec_fanout_rows * size_t(threads));
  if (!fan_out) {
    {
      obs::Span span("vec.aggregate");
      for (size_t i = 0; i < naggs; ++i) {
        vp[i] = in.slabs[i].values;
        if (in.slabs[i].evidence.gap) fp[i] = in.slabs[i].flags;
      }
      fold(in.gids, 0, n);
    }
    if (StopReason r = StopAfter(options); r != StopReason::kNone)
      return StopStatus(r, "groupby");
    return states;
  }

  // --- Phase 2: radix partition -------------------------------------------
  // Histogram per (morsel, partition), prefix into stable scatter offsets,
  // and scatter each row's gid and measure values partition-major — the
  // aggregation pass then touches nothing but sequential partition-ordered
  // slabs. Stability: partition-major, then morsel-major, then row order —
  // i.e. ascending global row order within a partition.
  ParallelForOptions loop = LoopOptions("vec_partition", options);
  const size_t nmorsels = NumMorsels(n, loop.morsel_size);
  std::vector<std::vector<size_t>> offsets(
      nmorsels, std::vector<size_t>(kRadixPartitions, 0));
  auto part_gids = std::make_unique_for_overwrite<uint32_t[]>(n);
  std::vector<std::unique_ptr<double[]>> part_vals(naggs);
  std::vector<std::unique_ptr<uint8_t[]>> part_flags(naggs);
  for (size_t i = 0; i < naggs; ++i) {
    if (in.slabs[i].values == nullptr) continue;
    part_vals[i] = std::make_unique_for_overwrite<double[]>(n);
    if (in.slabs[i].evidence.gap)
      part_flags[i] = std::make_unique_for_overwrite<uint8_t[]>(n);
  }
  std::vector<size_t> part_begin(kRadixPartitions + 1, 0);
  {
    obs::Span span("vec.partition");
    ParallelFor(
        n,
        [&](size_t m, size_t begin, size_t end) {
          std::vector<size_t>& h = offsets[m];
          for (size_t r = begin; r < end; ++r) ++h[PartitionOf(in.gids[r])];
        },
        loop);
    size_t pos = 0;
    for (size_t p = 0; p < kRadixPartitions; ++p) {
      part_begin[p] = pos;
      for (size_t m = 0; m < nmorsels; ++m) {
        const size_t count = offsets[m][p];
        offsets[m][p] = pos;
        pos += count;
      }
    }
    part_begin[kRadixPartitions] = pos;

    ParallelFor(
        n,
        [&](size_t m, size_t begin, size_t end) {
          std::vector<size_t>& off = offsets[m];
          for (size_t r = begin; r < end; ++r) {
            const uint32_t g = in.gids[r];
            const size_t idx = off[PartitionOf(g)]++;
            part_gids[idx] = g;
            for (size_t i = 0; i < naggs; ++i) {
              if (part_vals[i] == nullptr) continue;
              part_vals[i][idx] = in.slabs[i].values[r];
              if (part_flags[i] != nullptr)
                part_flags[i][idx] = in.slabs[i].flags[r];
            }
          }
        },
        loop);
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");

  // --- Phase 3: per-partition aggregation ---------------------------------
  // One task per partition. Partitions own disjoint gid sets, so the writes
  // never race and there is no cross-thread merge of thread-local partials.
  // Rows arrive in ascending global row order (stable scatter), so every
  // group's AggState replays the serial accumulation sequence bit for bit.
  {
    obs::Span span("vec.aggregate");
    for (size_t i = 0; i < naggs; ++i) {
      vp[i] = part_vals[i].get();
      fp[i] = part_flags[i].get();
    }
    ParallelForOptions aloop = LoopOptions("vec_aggregate", options);
    aloop.morsel_size = 1;
    ParallelFor(
        kRadixPartitions,
        [&](size_t, size_t pbegin, size_t pend) {
          for (size_t p = pbegin; p < pend; ++p)
            fold(part_gids.get(), part_begin[p], part_begin[p + 1]);
        },
        aloop);
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");
  return states;
}

GroupedStates EmitGroupedStates(
    size_t groups, size_t naggs, const std::vector<AggState>& states,
    const std::function<void(size_t, Row*)>& key_of) {
  obs::Span span("vec.emit");
  GroupedStates out;
  Row key;
  for (size_t g = 0; g < groups; ++g) {
    key_of(g, &key);
    out.emplace(key, std::vector<AggState>(states.begin() + g * naggs,
                                           states.begin() + (g + 1) * naggs));
  }
  return out;
}

Result<GroupedStates> ParallelGroupByStates(
    const Table& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs, const ExecOptions& options) {
  // Resolve columns up front (exactly as GroupByStates) so every error
  // surfaces before any task is spawned.
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                            input.schema().IndexesOf(group_cols));
  std::vector<int64_t> aidx(aggs.size(), -1);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFn::kCountAll && aggs[i].column.empty()) continue;
    STATCUBE_ASSIGN_OR_RETURN(size_t idx,
                              input.schema().IndexOf(aggs[i].column));
    aidx[i] = static_cast<int64_t>(idx);
  }

  const size_t n = input.num_rows();
  const size_t ncols = gidx.size();
  const size_t naggs = aggs.size();
  if (n == 0) return GroupedStates{};
  if (obs::Enabled()) obs::RecordBytesTouched(input.ByteSize());

  ParallelForOptions loop = LoopOptions("vec_columnarize", options);
  const size_t morsel = loop.morsel_size;
  const size_t nmorsels = NumMorsels(n, morsel);

  // --- Phase 1: columnarize -----------------------------------------------
  // Each morsel dictionary-encodes its group-column tuples to dense local
  // codes (one open-addressing probe per row, values borrowed from the
  // table); measures copy into double slabs with a flag byte per row, and
  // each morsel gathers the slabs' evidence.
  // Slabs are allocated uninitialized (for_overwrite): phase 1 writes every
  // row of every slab before anything reads it, and the default-zeroing
  // constructor would memset megabytes per call for nothing.
  auto codes = std::make_unique_for_overwrite<uint32_t[]>(n);  // local code
  std::vector<std::unique_ptr<double[]>> vals(naggs);
  std::vector<std::unique_ptr<uint8_t[]>> flags(naggs);
  // Measure slots that actually read a column (kCountAll-without-column
  // never touches the slabs).
  std::vector<uint32_t> mslots;
  for (size_t i = 0; i < naggs; ++i) {
    if (aidx[i] < 0) continue;
    vals[i] = std::make_unique_for_overwrite<double[]>(n);
    flags[i] = std::make_unique_for_overwrite<uint8_t[]>(n);
    mslots.push_back(uint32_t(i));
  }
  std::vector<TupleDict> dicts(nmorsels);
  std::vector<std::vector<SlabEvidence>> evidence(
      nmorsels, std::vector<SlabEvidence>(naggs));

  {
    obs::Span span("vec.columnarize");
    ParallelFor(
        n,
        [&](size_t m, size_t begin, size_t end) {
          TupleDict& d = dicts[m];
          d.Init(end - begin);
          SlabEvidence* ev = evidence[m].data();
          const size_t stride = kKeyCell * ncols;
          std::vector<uint8_t> rec(stride);
          for (size_t r = begin; r < end; ++r) {
            const Row& row = input.row(r);
            bool rec_ok = false;
            uint64_t h = EncodeAndHash(row, gidx, rec.data(), &rec_ok);
            codes[r] = DictCode(d, input, gidx, row, r, h, rec.data(),
                                rec_ok, stride);
            for (uint32_t i : mslots)
              flags[i][r] = EncodeSlabEntry(row[size_t(aidx[i])],
                                            &vals[i][r], &ev[i]);
          }
        },
        loop);
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");

  GroupIdRows in;
  in.rows = n;
  in.slabs.resize(naggs);
  for (uint32_t i : mslots) {
    in.slabs[i].values = vals[i].get();
    in.slabs[i].flags = flags[i].get();
    for (size_t m = 0; m < nmorsels; ++m)
      in.slabs[i].evidence.Merge(evidence[m][i]);
  }
  if (ncols == 0) {
    STATCUBE_ASSIGN_OR_RETURN(std::vector<AggState> st,
                              GroupIdStates(in, options));
    GroupedStates out;
    out.emplace(Row(), std::move(st));
    return out;
  }

  // Merge local dictionaries in ascending morsel order (entries in
  // insertion = first-occurrence order): the global group id sequence is
  // therefore the global first-occurrence order — the serial scan's emplace
  // order. Cached hashes make the merge a probe per distinct tuple per
  // morsel, not per row.
  size_t total_entries = 0;
  for (const TupleDict& d : dicts) total_entries += d.rows.size();
  TupleDict global;
  global.Init(total_entries);
  const size_t stride = kKeyCell * ncols;
  // [morsel]: local tuple code -> global group id
  std::vector<std::vector<uint32_t>> remap(nmorsels);
  for (size_t m = 0; m < nmorsels; ++m) {
    const TupleDict& d = dicts[m];
    std::vector<uint32_t>& rm = remap[m];
    rm.resize(d.rows.size());
    for (size_t e = 0; e < d.rows.size(); ++e) {
      rm[e] = DictCode(global, input, gidx, input.row(d.rows[e]), d.rows[e],
                       d.hashes[e], d.recs.data() + e * stride,
                       d.rec_ok[e] != 0, stride);
      if (rm[e] == kDictFull)
        return Status::OutOfRange("group-by over more than " +
                                  std::to_string(kMaxGroups) +
                                  " distinct tuples");
    }
  }
  // Local codes become global group ids in place.
  ParallelFor(
      n,
      [&](size_t m, size_t begin, size_t end) {
        const std::vector<uint32_t>& rm = remap[m];
        for (size_t r = begin; r < end; ++r) codes[r] = rm[codes[r]];
      },
      LoopOptions("vec_remap", options));
  in.gids = codes.get();
  in.groups = global.rows.size();
  STATCUBE_ASSIGN_OR_RETURN(std::vector<AggState> states,
                            GroupIdStates(in, options));

  // Gid order IS global first-occurrence order, and each key is rebuilt
  // from its group's first row — the representative the serial map keeps
  // (int64 2 and double 2.0 compare equal; it keeps whichever came first).
  const std::vector<size_t>& first_row = global.rows;
  return EmitGroupedStates(in.groups, naggs, states, [&](size_t g, Row* key) {
    const Row& first = input.row(first_row[g]);
    key->resize(ncols);
    for (size_t k = 0; k < ncols; ++k) (*key)[k] = first[gidx[k]];
  });
}

}  // namespace statcube::exec
