#include "statcube/exec/parallel_kernels.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "statcube/common/str_util.h"
#include "statcube/common/vec_block.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"
#include "statcube/relational/cube_operator.h"

namespace statcube::exec {

namespace vec = ::statcube::vec;

namespace {

ParallelForOptions LoopOptions(const char* label, const ExecOptions& options) {
  ParallelForOptions loop;
  loop.label = label;
  loop.morsel_size = options.morsel_rows == 0 ? kDefaultMorselRows
                                              : options.morsel_rows;
  loop.max_workers = options.EffectiveThreads();
  loop.stop = options.stop;
  return loop;
}

// The stop state after a kernel's loops ran: kNone means every morsel was
// claimed and completed (monotonicity — a stop that fired during the loop is
// still visible here), anything else means the kernel must discard its
// partial output and report the stop.
StopReason StopAfter(const ExecOptions& options) {
  return options.stop == nullptr ? StopReason::kNone : options.stop->Check();
}

// True when grouping by code is grouping by Value::Compare: the entries
// hold no NaN and no two that Compare calls equal. Entries are distinct by
// representation, so strings, NULL and ALL are never equal to another
// entry; numbers are checked through their double images (1 and 1.0,
// -0.0 and 0.0, the int64 2^53 + 1 and the double 2^53).
bool GroupsExactly(const std::vector<Value>& values) {
  std::unordered_set<double> doubles;  // 0.0 and -0.0 collide here
  for (const Value& v : values) {
    if (v.type() != ValueType::kDouble) continue;
    const double d = v.AsDouble();
    if (d != d || !doubles.insert(d).second) return false;
  }
  if (doubles.empty()) return true;
  for (const Value& v : values)
    if (v.type() == ValueType::kInt64 && doubles.count(v.AsDouble()) != 0)
      return false;
  return true;
}

// Splitmix64 finalizer for the packed-key table.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Packed BY code tuple -> dense group id in first-occurrence order. Direct
// addressing while the key space is small, else open addressing sized for
// one group per row.
class GroupIds {
 public:
  GroupIds(uint64_t key_space, size_t rows) {
    direct_ = key_space <= std::max<uint64_t>(uint64_t(1) << 16, 2 * rows);
    size_t slots = size_t(key_space);
    if (!direct_) {
      slots = 16;
      while (slots < 2 * rows) slots <<= 1;
      slot_keys_.resize(slots);
    }
    ids_.assign(slots, kEmpty);
    mask_ = slots - 1;
  }

  uint32_t Find(uint64_t key) {
    size_t i = direct_ ? size_t(key) : size_t(Mix64(key)) & mask_;
    for (;;) {
      uint32_t& id = ids_[i];
      if (id == kEmpty) {
        id = uint32_t(keys_.size());
        if (!direct_) slot_keys_[i] = key;
        keys_.push_back(key);
        return id;
      }
      if (direct_ || slot_keys_[i] == key) return id;
      i = (i + 1) & mask_;
    }
  }

  /// Per group id: its packed key.
  const std::vector<uint64_t>& keys() const { return keys_; }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  bool direct_;
  size_t mask_;
  std::vector<uint32_t> ids_;
  std::vector<uint64_t> slot_keys_;
  std::vector<uint64_t> keys_;
};

// Picks the reassociated block sum when
// `vec::ReorderIsExact(all_integral, max_abs, n)` holds and the ordered loop
// otherwise; always bit-identical to `vec::SumBlockOrdered`. Counts each
// choice in `statcube.exec.vec.block_sum_fast` / `_ordered`.
double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs) {
  // Resolved once: GetCounter is a by-name map lookup under the registry
  // mutex. Registry entries are never erased (Reset() only zeroes values),
  // so the references stay valid for the process lifetime.
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

// AggState::AddSlab of slab positions [0, n), in order, into
// states[gid[e] * stride]. A null `values` is count() without a column
// (rows only); a null `flags` says every entry is a non-NaN number.
void FoldSlab(const uint32_t* gid, const double* values, const uint8_t* flags,
              size_t n, AggState* states, size_t stride) {
  if (values == nullptr) {
    for (size_t e = 0; e < n; ++e) ++states[gid[e] * stride].rows;
  } else if (flags == nullptr) {
    for (size_t e = 0; e < n; ++e)
      states[gid[e] * stride].AddSlab(values[e], kSlabNonNull | kSlabNumeric);
  } else {
    for (size_t e = 0; e < n; ++e)
      states[gid[e] * stride].AddSlab(values[e], flags[e]);
  }
}

// The fold of n > 0 kept rows (DESIGN.md §12): one pass on the caller in row
// order, one aggregate at a time, into flat per-group states indexed by
// group id — no hash table, no Row, no Value. Each group folds its rows in
// ascending row order, so every state is the serial GroupByStates' bit for
// bit. gids[e] is row e's group in [0, ngroups); null puts every row in one
// group (an empty BY). Returns `slabs.size()` states per group, group-major.
std::vector<AggState> FoldStates(size_t n, const uint32_t* gids,
                                 size_t ngroups,
                                 const std::vector<SlabView>& slabs) {
  const size_t naggs = slabs.size();
  std::vector<AggState> states(ngroups * naggs);
  if (obs::Enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("statcube.exec.vec.groupby_calls").Add(1);
    reg.GetCounter("statcube.exec.vec.rows").Add(n);
    reg.GetCounter("statcube.exec.vec.groups").Add(ngroups);
  }
  obs::Span span("vec.aggregate");
  if (gids != nullptr) {
    for (size_t i = 0; i < naggs; ++i)
      FoldSlab(gids, slabs[i].values,
               slabs[i].evidence.gap ? slabs[i].flags : nullptr, n,
               states.data() + i, naggs);
    return states;
  }

  // Empty BY: one global group over fully contiguous slabs — the pure
  // block-kernel case. Sum/sum_sq run reassociated only under the exactness
  // gate (gap rows hold 0.0, which is bit-transparent to a sum whose running
  // value starts at +0.0); count reduces over the flag bytes; min/max fall
  // back to a flag-checked loop when any row lacks a numeric value.
  for (size_t i = 0; i < naggs; ++i) {
    AggState& st = states[i];
    st.rows = int64_t(n);
    const SlabView& slab = slabs[i];
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

// GROUP BY CUBE over its finest grouping (at most 20 dimensions): every
// coarser grouping rolls up through the lattice level-synchronously, one
// task per grouping set within a level ([ZDN97]'s simultaneous
// aggregation, parallelized). `finest` must be GroupByStates(input, dims,
// aggs) bit for bit, insertion order included; the output is then CubeBy's.
Result<Table> CubeLattice(const std::string& name, GroupedStates finest,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs,
                          const ExecOptions& options) {
  size_t ndims = dims.size();
  uint32_t full = ndims == 0 ? 0 : ((1u << ndims) - 1);

  // Every coarser grouping rolls up from the parent with the lowest absent
  // dimension added — the same parent CubeBy picks, so the merged states are
  // identical. Groupings within one popcount level depend only on the level
  // above, so each level is one parallel loop (morsel = one grouping set).
  std::vector<GroupedStates> computed(size_t(full) + 1);
  computed[full] = std::move(finest);

  std::vector<std::vector<uint32_t>> levels(ndims);  // by popcount, asc mask
  for (uint32_t m = 0; m < full; ++m)
    levels[__builtin_popcount(m)].push_back(m);

  ParallelForOptions loop = LoopOptions("cube_rollup", options);
  loop.morsel_size = 1;  // one grouping set per task
  for (size_t level = ndims; level-- > 0;) {
    const std::vector<uint32_t>& masks = levels[level];
    ParallelFor(
        masks.size(),
        [&](size_t, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            uint32_t m = masks[i];
            uint32_t missing = full & ~m;
            uint32_t parent = m | (missing & (~missing + 1));
            computed[m] =
                RollupGroupedStates(computed[parent], parent, m, ndims);
          }
        },
        loop);
    if (StopReason r = StopAfter(options); r != StopReason::kNone)
      return StopStatus(r, "cube");
  }

  // Emission order matches CubeBy (popcount desc, mask asc); the canonical
  // sort would make any emission order equivalent anyway since every
  // dim/ALL pattern is unique.
  Table out(name + "_cube", CubeOutputSchema(dims, aggs));
  EmitCubeGrouping(computed[full], full, ndims, aggs, &out);
  for (size_t level = ndims; level-- > 0;)
    for (uint32_t m : levels[level])
      EmitCubeGrouping(computed[m], m, ndims, aggs, &out);
  SortCubeRows(&out, ndims);
  return out;
}

}  // namespace

std::optional<Result<Table>> CodedGroupBy(const CodedGroupByInput& in,
                                          const ExecOptions& options) {
  const size_t nby = in.by.size();
  if (in.cube && nby > 20) return std::nullopt;
  uint64_t key_space = 1;
  bool levels = false;
  for (const CodedKey& a : in.by) {
    if (!GroupsExactly(*a.values) ||
        __builtin_mul_overflow(key_space, uint64_t(a.values->size()),
                               &key_space))
      return std::nullopt;
    levels = levels || a.level_of != nullptr;
  }

  // The pass, in two steps. Morsels, in parallel when there are workers:
  // each row's packed BY codes, or kDropped when a filter drops it. Then in
  // row order: each kept row's dense group id, numbered on first
  // occurrence.
  constexpr uint64_t kDropped = UINT64_MAX;
  if (key_space == kDropped) return std::nullopt;
  const size_t n = in.rows;
  const bool filtered = !in.filters.empty();
  std::vector<uint32_t> gids;
  std::vector<uint32_t> kept;  // row indexes, when a filter drops rows
  GroupIds groups(key_space, n);
  {
    std::optional<obs::Span> pass_span;
    if (in.pass_span != nullptr) pass_span.emplace(in.pass_span);
    if (obs::Enabled())
      obs::RecordBytesTouched(n * sizeof(uint32_t) *
                              (in.filters.size() + nby));
    auto keys = std::make_unique_for_overwrite<uint64_t[]>(n);
    ParallelForOptions loop = LoopOptions("coded_pass", options);
    // One worker takes large morsels: the stop context is still checked
    // between them, and fewer morsels cost less bookkeeping.
    if (loop.max_workers == 1) loop.morsel_size = size_t(1) << 16;
    ParallelFor(
        n,
        [&](size_t, size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r) {
            bool pass = true;
            for (const CodedFilter& f : in.filters)
              pass = pass && f.keep[f.codes[r]] != 0;
            uint64_t key = 0;
            for (size_t k = 0; pass && k < nby; ++k) {
              uint32_t c = in.by[k].codes[r];
              if (in.by[k].level_of != nullptr) c = in.by[k].level_of[c];
              key = key * in.by[k].values->size() + c;
            }
            keys[r] = pass ? key : kDropped;
          }
        },
        loop);
    if (StopReason sr = StopAfter(options); sr != StopReason::kNone)
      return StopStatus(sr, filtered || levels ? "scan" : "groupby");
    if (nby > 0) gids.reserve(n);
    for (size_t r = 0; r < n; ++r) {
      if (keys[r] == kDropped) continue;
      if (filtered) kept.push_back(uint32_t(r));
      if (nby > 0) gids.push_back(groups.Find(keys[r]));
    }
    if (filtered) obs::RecordOperator("select", n, kept.size());
  }
  const size_t nkept = filtered ? kept.size() : n;

  // Slabs: the caller's, or gathered over the kept rows once per slab. The
  // evidence covers a superset of the kept rows, so it holds.
  std::vector<SlabView> slabs = in.slabs;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<uint8_t>> flags;
  for (size_t i = 0; filtered && i < slabs.size(); ++i) {
    SlabView& view = slabs[i];
    if (view.values == nullptr) continue;
    size_t j = 0;
    while (in.slabs[j].values != view.values) ++j;
    if (j < i) {
      view = slabs[j];
      continue;
    }
    std::vector<double>& v = values.emplace_back(nkept);
    for (size_t e = 0; e < nkept; ++e) v[e] = view.values[kept[e]];
    view.values = v.data();
    if (view.flags != nullptr) {
      std::vector<uint8_t>& f = flags.emplace_back(nkept);
      for (size_t e = 0; e < nkept; ++e) f[e] = view.flags[kept[e]];
      view.flags = f.data();
    }
  }

  std::optional<obs::Span> fold_span;
  if (in.fold_span != nullptr) fold_span.emplace(in.fold_span);
  obs::Span op_span(in.cube ? "op.cube" : "op.groupby");
  const size_t naggs = in.aggs.size();
  const size_t ngroups =
      nkept == 0 ? 0 : (nby == 0 ? 1 : groups.keys().size());
  std::vector<AggState> states;
  if (nkept > 0) {
    states = FoldStates(nkept, nby == 0 ? nullptr : gids.data(), ngroups,
                        slabs);
    if (StopReason r = StopAfter(options); r != StopReason::kNone)
      return StopStatus(r, "groupby");
  }
  // Group g's code of BY attribute k, unpacked from its key.
  std::vector<std::vector<uint32_t>> codes(nby,
                                           std::vector<uint32_t>(ngroups));
  for (size_t g = 0; nby > 0 && g < ngroups; ++g) {
    uint64_t key = groups.keys()[g];
    for (size_t k = nby; k-- > 0;) {
      codes[k][g] = uint32_t(key % in.by[k].values->size());
      key /= in.by[k].values->size();
    }
  }
  auto value = [&](size_t k, size_t g) -> const Value& {
    return (*in.by[k].values)[codes[k][g]];
  };
  if (in.cube) {
    // The finest grouping, inserted in gid order: first-occurrence order,
    // so the map grows and iterates as the serial GroupByStates' does.
    GroupedStates finest;
    {
      obs::Span span("vec.emit");
      Row key(nby);
      for (size_t g = 0; g < ngroups; ++g) {
        for (size_t k = 0; k < nby; ++k) key[k] = value(k, g);
        finest.emplace(key, std::vector<AggState>(
                                states.begin() + g * naggs,
                                states.begin() + (g + 1) * naggs));
      }
    }
    return CubeLattice(in.name, std::move(finest), in.by_names, in.aggs,
                       options);
  }

  // GROUP BY: one row per group, in the order StatesToTable sorts to —
  // Value::Compare on the BY columns, which on exact values is the order
  // of the codes' ranks, so the groups sort by integers.
  std::vector<uint64_t> rank_key(ngroups, 0);
  for (size_t k = 0; k < nby; ++k) {
    const std::vector<Value>& vals = *in.by[k].values;
    std::vector<uint32_t> sorted(vals.size());
    for (size_t c = 0; c < vals.size(); ++c) sorted[c] = uint32_t(c);
    std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
      return Value::Compare(vals[a], vals[b]) < 0;
    });
    std::vector<uint64_t> rank(vals.size());
    for (size_t p = 0; p < sorted.size(); ++p) rank[sorted[p]] = p;
    for (size_t g = 0; g < ngroups; ++g)
      rank_key[g] = rank_key[g] * vals.size() + rank[codes[k][g]];
  }
  std::vector<uint32_t> order(ngroups);
  for (size_t g = 0; g < ngroups; ++g) order[g] = uint32_t(g);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return rank_key[a] < rank_key[b];
  });
  Table out(in.name + "_by_" + Join(in.by_names, "_"),
            CubeOutputSchema(in.by_names, in.aggs));  // StatesToTable's
  out.mutable_rows().reserve(ngroups);
  for (uint32_t g : order) {
    Row row(nby + naggs);
    for (size_t k = 0; k < nby; ++k) row[k] = value(k, g);
    for (size_t i = 0; i < naggs; ++i)
      row[nby + i] = states[size_t(g) * naggs + i].Finalize(in.aggs[i].fn);
    out.AppendRowUnchecked(std::move(row));
  }
  obs::RecordOperator("groupby", nkept, out.num_rows());
  return out;
}

}  // namespace statcube::exec
