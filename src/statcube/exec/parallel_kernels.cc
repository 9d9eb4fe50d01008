#include "statcube/exec/parallel_kernels.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
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
// addressing when the key space is dense (CodedGroupBy's density rule), else
// open addressing sized for one group per kept row.
class GroupIds {
 public:
  GroupIds(bool dense, uint64_t key_space, size_t rows) : direct_(dense) {
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

// Picks the reassociated block sum when the evidence licenses it
// (vec::ReorderIsExact) and the ordered loop otherwise; always
// bit-identical to `vec::SumBlockOrdered`. Counts each choice in
// `statcube.exec.vec.block_sum_fast` / `_ordered`.
double SumBlockAuto(const double* v, size_t n, const vec::ScaleEvidence& ev) {
  // Resolved once: GetCounter is a by-name map lookup under the registry
  // mutex. Registry entries are never erased (Reset() only zeroes values),
  // so the references stay valid for the process lifetime.
  static obs::Counter& fast_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_fast");
  static obs::Counter& ordered_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_ordered");
  if (ev.Licenses(n)) {
    if (obs::Enabled()) fast_counter.Add(1);
    return vec::SumBlockFast(v, n);
  }
  if (obs::Enabled()) ordered_counter.Add(1);
  return vec::SumBlockOrdered(v, n);
}

// Counts one fold of `rows` kept rows into `groups` non-empty groups.
void CountFold(size_t rows, size_t groups) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("statcube.exec.vec.groupby_calls").Add(1);
  reg.GetCounter("statcube.exec.vec.rows").Add(rows);
  reg.GetCounter("statcube.exec.vec.groups").Add(groups);
}

// The codes of `values` in Value::Compare order. On exact values
// (GroupsExactly) that order is strict, and it is StatesToTable's.
std::vector<uint32_t> CodesByRank(const std::vector<Value>& values) {
  std::vector<uint32_t> codes(values.size());
  for (size_t c = 0; c < codes.size(); ++c) codes[c] = uint32_t(c);
  std::sort(codes.begin(), codes.end(), [&](uint32_t a, uint32_t b) {
    return Value::Compare(values[a], values[b]) < 0;
  });
  return codes;
}

// Per slot, one aggregate at a time: the fold's state (DESIGN.md §12).
// Each aggregate keeps only the arrays its function reads (Gray et al.'s
// per-function scratchpad), all indexed by slot; the row count is shared.
struct SlotStates {
  struct Agg {
    std::vector<double> sum;      // sum, avg, var, stddev
    std::vector<double> sum_sq;   // var, stddev
    std::vector<double> extreme;  // min from +inf, or max from -inf
    std::vector<uint32_t> count;  // non-null values, on a slab with a gap
  };
  std::vector<uint32_t> rows;
  std::vector<Agg> aggs;
  size_t groups = 0;  // non-empty slots

  // Aggregate i at non-empty slot s, read back into the AggState AddSlab
  // would have built: equal in every field its function reads, so Finalize
  // and Merge give the same bits.
  AggState State(size_t i, size_t s) const {
    const Agg& a = aggs[i];
    AggState st;
    st.rows = rows[s];
    st.count = a.count.empty() ? rows[s] : a.count[s];
    if (!a.sum.empty()) st.sum = a.sum[s];
    if (!a.sum_sq.empty()) st.sum_sq = a.sum_sq[s];
    if (!a.extreme.empty()) st.min = st.max = a.extreme[s];
    return st;
  }
};

// The min (Better = std::less) or max (std::greater) of each slot's
// numeric entries, in row order; a null `slot` folds every row into slot 0.
template <typename Better>
void FoldExtreme(size_t n, const uint64_t* slot, const double* v,
                 const uint8_t* f, double* x) {
  for (size_t e = 0; e < n; ++e) {
    const size_t s = slot == nullptr ? 0 : size_t(slot[e]);
    if ((f == nullptr || (f[e] & kSlabNumeric) != 0) && Better()(v[e], x[s]))
      x[s] = v[e];
  }
}

// The fold of n kept rows into `nslots` slots (DESIGN.md §12): slot[e] is
// kept row e's packed key or group id. One pass on the caller per array,
// in row order, so every array holds what AddSlab would have, bit for bit.
// A gap row holds 0.0, which leaves a sum that started at +0.0 unchanged,
// so sums read no flags; min, max and the non-null count do. A null `slot`
// is an empty BY's one slot, reduced by the block kernels: sums run
// reassociated only under the exactness gate, and min and max take the
// block kernels only on a slab without a gap.
SlotStates FoldSlots(size_t n, const uint64_t* slot, size_t nslots,
                     const std::vector<SlabView>& slabs,
                     const std::vector<AggSpec>& aggs) {
  obs::Span span("vec.aggregate");
  SlotStates st;
  st.rows.assign(nslots, 0);
  if (slot == nullptr) {
    st.rows[0] = uint32_t(n);
  } else {
    for (size_t e = 0; e < n; ++e) ++st.rows[slot[e]];
  }
  for (uint32_t r : st.rows) st.groups += r != 0;
  st.aggs.resize(aggs.size());
  if (st.groups == 0) return st;  // the block kernels require n >= 1
  for (size_t i = 0; i < aggs.size(); ++i) {
    const double* v = slabs[i].values;
    if (v == nullptr || aggs[i].fn == AggFn::kCountAll) continue;
    const SlabEvidence& ev = slabs[i].evidence;
    const uint8_t* f = ev.gap ? slabs[i].flags : nullptr;
    SlotStates::Agg& a = st.aggs[i];
    if (f != nullptr) {
      a.count.assign(nslots, 0);
      if (slot == nullptr) {
        a.count[0] = uint32_t(vec::CountFlagBits(f, n, kSlabNonNull));
      } else {
        for (size_t e = 0; e < n; ++e)
          a.count[slot[e]] += (f[e] & kSlabNonNull) != 0;
      }
    }
    switch (aggs[i].fn) {
      case AggFn::kVariance:
      case AggFn::kStdDev:
        a.sum_sq.assign(nslots, 0.0);
        if (slot == nullptr) {
          a.sum_sq[0] = ev.LicensesSquares(n) ? vec::SumSqBlockFast(v, n)
                                              : vec::SumSqBlockOrdered(v, n);
        } else {
          for (size_t e = 0; e < n; ++e) a.sum_sq[slot[e]] += v[e] * v[e];
        }
        [[fallthrough]];
      case AggFn::kSum:
      case AggFn::kAvg:
        a.sum.assign(nslots, 0.0);
        if (slot == nullptr) {
          a.sum[0] = SumBlockAuto(v, n, ev);
        } else {
          for (size_t e = 0; e < n; ++e) a.sum[slot[e]] += v[e];
        }
        break;
      case AggFn::kMin:
        a.extreme.assign(nslots, std::numeric_limits<double>::infinity());
        if (slot == nullptr && f == nullptr) {
          a.extreme[0] = vec::MinBlock(v, n);
        } else {
          FoldExtreme<std::less<double>>(n, slot, v, f, a.extreme.data());
        }
        break;
      case AggFn::kMax:
        a.extreme.assign(nslots, -std::numeric_limits<double>::infinity());
        if (slot == nullptr && f == nullptr) {
          a.extreme[0] = vec::MaxBlock(v, n);
        } else {
          FoldExtreme<std::greater<double>>(n, slot, v, f, a.extreme.data());
        }
        break;
      case AggFn::kCount:
      case AggFn::kCountAll:
        break;
    }
  }
  return st;
}

// Fills an output row's aggregate cells, after its BY values, from slot s.
void FinalizeAggs(const CodedGroupByInput& in, const SlotStates& st, size_t s,
                  Row* row) {
  for (size_t i = 0; i < in.aggs.size(); ++i)
    (*row)[in.by.size() + i] = st.State(i, s).Finalize(in.aggs[i].fn);
}

// A dense GROUP BY's table: one row per non-empty slot, in the order
// StatesToTable sorts to — Value::Compare on the BY columns, which on exact
// values is the order of the codes' ranks. So the emit walks the key space
// rank by rank, BY attribute 0 outermost, and sorts no group.
Table EmitSlots(const CodedGroupByInput& in, const SlotStates& st) {
  obs::Span span("vec.emit");
  const size_t nby = in.by.size();
  Table out(in.name + "_by_" + Join(in.by_names, "_"),
            CubeOutputSchema(in.by_names, in.aggs));  // StatesToTable's
  if (st.groups == 0) return out;
  out.mutable_rows().reserve(st.groups);
  std::vector<std::vector<uint32_t>> by_rank(nby);
  std::vector<uint64_t> stride(nby, 1);  // a code's step in the packed key
  for (size_t k = nby; k-- > 0;) {
    by_rank[k] = CodesByRank(*in.by[k].values);
    if (k + 1 < nby) stride[k] = stride[k + 1] * in.by[k + 1].values->size();
  }
  // An odometer over the ranks of attributes 0..nby-2; the last attribute
  // sweeps its ranks inside.
  std::vector<size_t> pos(nby, 0);
  for (;;) {
    uint64_t base = 0;
    for (size_t k = 0; k + 1 < nby; ++k)
      base += by_rank[k][pos[k]] * stride[k];
    for (uint32_t last : by_rank[nby - 1]) {
      const size_t s = size_t(base + last);
      if (st.rows[s] == 0) continue;
      Row row(nby + in.aggs.size());
      for (size_t k = 0; k + 1 < nby; ++k)
        row[k] = (*in.by[k].values)[by_rank[k][pos[k]]];
      row[nby - 1] = (*in.by[nby - 1].values)[last];
      FinalizeAggs(in, st, s, &row);
      out.AppendRowUnchecked(std::move(row));
    }
    size_t k = nby - 1;
    for (; k > 0; --k) {
      if (++pos[k - 1] < by_rank[k - 1].size()) break;
      pos[k - 1] = 0;
    }
    if (k == 0) return out;
  }
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
  constexpr uint64_t kDropped = UINT64_MAX;
  if (key_space == kDropped) return std::nullopt;

  // The pass, when there is a BY or a WHERE. Morsels, in parallel when
  // there are workers: each row's packed BY codes, or kDropped when a
  // filter drops it. Then in row order: a WHERE compacts the keys over the
  // kept rows in place, and a key space too sparse for slots (or a CUBE's)
  // numbers them in place into dense group ids in first-occurrence order.
  // An empty BY without a WHERE runs no pass: every row is kept, in one
  // group.
  const size_t n = in.rows;
  const bool filtered = !in.filters.empty();
  size_t nkept = n;
  std::unique_ptr<uint64_t[]> keys;  // per kept row: its slot
  std::vector<uint32_t> kept;        // row indexes, when a filter drops rows
  bool numbered = false;
  std::optional<GroupIds> groups;
  if (nby > 0 || filtered) {
    std::optional<obs::Span> pass_span;
    if (in.pass_span != nullptr) pass_span.emplace(in.pass_span);
    if (obs::Enabled())
      obs::RecordBytesTouched(n * sizeof(uint32_t) *
                              (in.filters.size() + nby));
    keys = std::make_unique_for_overwrite<uint64_t[]>(n);
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
    if (filtered) {
      nkept = 0;
      for (size_t r = 0; r < n; ++r) {
        if (keys[r] == kDropped) continue;
        kept.push_back(uint32_t(r));
        keys[nkept++] = keys[r];
      }
      obs::RecordOperator("select", n, nkept);
    }
    // Dense: at most kMinSlots keys, or two per kept row. Up to 1,024
    // slots the slots' fold and walk cost no more than the numbering and
    // the sort even for a handful of kept rows (docs/PERFORMANCE.md §14).
    constexpr uint64_t kMinSlots = uint64_t(1) << 10;
    const bool dense =
        key_space <= std::max<uint64_t>(kMinSlots, 2 * uint64_t(nkept));
    numbered = nby > 0 && (in.cube || !dense);
    if (numbered) {
      groups.emplace(dense, key_space, nkept);
      for (size_t e = 0; e < nkept; ++e) keys[e] = groups->Find(keys[e]);
    }
  }

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

  // One fold: a dense GROUP BY's keys index the slots directly, group ids
  // index one slot per group, and an empty BY has one slot.
  std::optional<obs::Span> fold_span;
  if (in.fold_span != nullptr) fold_span.emplace(in.fold_span);
  obs::Span op_span(in.cube ? "op.cube" : "op.groupby");
  const size_t nslots =
      nby == 0 ? 1 : (numbered ? groups->keys().size() : size_t(key_space));
  const SlotStates states = FoldSlots(nkept, nby == 0 ? nullptr : keys.get(),
                                      nslots, slabs, in.aggs);
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");
  CountFold(nkept, states.groups);
  if (nby > 0 && !numbered) {
    Table out = EmitSlots(in, states);
    obs::RecordOperator("groupby", nkept, out.num_rows());
    return out;
  }

  // Numbered groups (an empty BY's one slot is group 0, when it holds
  // rows): group g's code of BY attribute k, unpacked from its key.
  const size_t ngroups = states.groups;
  std::vector<std::vector<uint32_t>> codes(nby,
                                           std::vector<uint32_t>(ngroups));
  for (size_t g = 0; nby > 0 && g < ngroups; ++g) {
    uint64_t key = groups->keys()[g];
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
        std::vector<AggState> st;
        st.reserve(in.aggs.size());
        for (size_t i = 0; i < in.aggs.size(); ++i)
          st.push_back(states.State(i, g));
        finest.emplace(key, std::move(st));
      }
    }
    return CubeFromFinest(in.name, std::move(finest), in.by_names, in.aggs,
                          options.stop);
  }

  // A sparse GROUP BY: one row per group, in the order StatesToTable sorts
  // to, found by sorting the groups by the ranks of their codes.
  obs::Span emit_span("vec.emit");
  std::vector<uint64_t> rank_key(ngroups, 0);
  for (size_t k = 0; k < nby; ++k) {
    const std::vector<uint32_t> by_rank = CodesByRank(*in.by[k].values);
    std::vector<uint64_t> rank(by_rank.size());
    for (size_t p = 0; p < by_rank.size(); ++p) rank[by_rank[p]] = p;
    for (size_t g = 0; g < ngroups; ++g)
      rank_key[g] = rank_key[g] * by_rank.size() + rank[codes[k][g]];
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
    Row row(nby + in.aggs.size());
    for (size_t k = 0; k < nby; ++k) row[k] = value(k, g);
    FinalizeAggs(in, states, g, &row);
    out.AppendRowUnchecked(std::move(row));
  }
  obs::RecordOperator("groupby", nkept, out.num_rows());
  return out;
}

}  // namespace statcube::exec
