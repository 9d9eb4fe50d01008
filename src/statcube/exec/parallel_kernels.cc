#include "statcube/exec/parallel_kernels.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_set>
#include <utility>

#include "statcube/common/mutex.h"
#include "statcube/common/str_util.h"
#include "statcube/common/vec_block.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/relational/cube_operator.h"

namespace statcube::exec {

namespace vec = ::statcube::vec;

namespace {

size_t NumMorsels(size_t n, size_t morsel) {
  return n == 0 ? 0 : (n + morsel - 1) / morsel;
}

ParallelForOptions LoopOptions(const char* label, const ExecOptions& options) {
  ParallelForOptions loop;
  loop.label = label;
  loop.morsel_size = options.morsel_rows == 0 ? kDefaultMorselRows
                                              : options.morsel_rows;
  loop.max_workers = options.EffectiveThreads();
  loop.scheduler = options.scheduler;
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
  GroupIdRows ids;
  ids.rows = nkept;
  ids.gids = nby == 0 ? nullptr : gids.data();
  ids.groups = nby == 0 ? 1 : groups.keys().size();
  ids.slabs = in.slabs;
  std::vector<std::vector<double>> values;
  std::vector<std::vector<uint8_t>> flags;
  for (size_t i = 0; filtered && i < ids.slabs.size(); ++i) {
    SlabView& view = ids.slabs[i];
    if (view.values == nullptr) continue;
    size_t j = 0;
    while (in.slabs[j].values != view.values) ++j;
    if (j < i) {
      view = ids.slabs[j];
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
  STATCUBE_ASSIGN_OR_RETURN(std::vector<AggState> states,
                            GroupIdStates(ids, options));
  const size_t naggs = in.aggs.size();
  const size_t ngroups = nkept == 0 ? 0 : ids.groups;
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
    GroupedStates finest = EmitGroupedStates(
        ngroups, naggs, states, [&](size_t g, Row* key) {
          key->resize(nby);
          for (size_t k = 0; k < nby; ++k) (*key)[k] = value(k, g);
        });
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

Result<Table> ParallelGroupBy(const Table& input,
                              const std::vector<std::string>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const ExecOptions& options) {
  obs::Span span("op.groupby");
  STATCUBE_ASSIGN_OR_RETURN(
      GroupedStates states,
      ParallelGroupByStates(input, group_cols, aggs, options));
  Table out = StatesToTable(input.name() + "_by_" + Join(group_cols, "_"),
                            group_cols, aggs, states);
  obs::RecordOperator("groupby", input.num_rows(), out.num_rows());
  return out;
}

Result<Table> ParallelCubeBy(const Table& input,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const ExecOptions& options) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
  obs::Span span("op.cube");
  // The finest grouping: one parallel scan of the input.
  STATCUBE_ASSIGN_OR_RETURN(GroupedStates base,
                            ParallelGroupByStates(input, dims, aggs, options));
  return CubeLattice(input.name(), std::move(base), dims, aggs, options);
}

Result<Table> CubeLattice(const std::string& name, GroupedStates finest,
                          const std::vector<std::string>& dims,
                          const std::vector<AggSpec>& aggs,
                          const ExecOptions& options) {
  if (dims.size() > 20)
    return Status::InvalidArgument("cube over >20 dimensions refused");
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

Result<double> ParallelSumRange(DenseArray& array,
                                const std::vector<DimRange>& ranges,
                                const ExecOptions& options) {
  // Same validation (and early-outs) as DenseArray::SumRange.
  if (ranges.size() != array.num_dims())
    return Status::InvalidArgument("range arity mismatch");
  for (size_t i = 0; i < ranges.size(); ++i) {
    if (ranges[i].lo > ranges[i].hi || ranges[i].hi > array.shape()[i])
      return Status::OutOfRange("range invalid for dimension " +
                                std::to_string(i));
    if (ranges[i].lo == ranges[i].hi) return 0.0;  // empty slab
  }
  size_t ndims = array.num_dims();
  if (ndims <= 1) return array.SumRange(ranges);

  // Morsel unit: one contiguous innermost segment, i.e. one assignment of
  // the leading dims. Segment s decodes to leading coordinates in the same
  // row-major (last-leading-dim-fastest) order the serial odometer visits.
  size_t nsegments = 1;
  for (size_t i = 0; i + 1 < ndims; ++i) nsegments *= ranges[i].width();
  size_t inner_width = ranges[ndims - 1].width();

  // Strides of the flat array (recomputed; DenseArray keeps them private).
  std::vector<size_t> strides(ndims, 1);
  for (size_t i = ndims - 1; i-- > 0;)
    strides[i] = strides[i + 1] * array.shape()[i + 1];

  ParallelForOptions loop = LoopOptions("sum_range", options);
  // Scale the morsel so one morsel covers roughly kDefaultMorselRows cells.
  loop.morsel_size = std::max<size_t>(
      1, (options.morsel_rows == 0 ? kDefaultMorselRows
                                   : options.morsel_rows) /
             std::max<size_t>(1, inner_width));
  obs::RecordBytesTouched(nsegments * inner_width * sizeof(double));
  std::vector<double> parts(NumMorsels(nsegments, loop.morsel_size), 0.0);
  const std::vector<double>& cells = array.cells();
  BlockCounter& counter = array.counter();
  // Same exactness gate as DenseArray::SumRange: when the whole region's
  // sum is provably exact, segments may use the reassociated block kernel
  // — bit-identical to the ordered walk, and to the serial SumRange.
  bool fast = vec::ReorderIsExact(array.all_integral(), array.max_abs(),
                                  nsegments * inner_width);

  ParallelFor(
      nsegments,
      [&](size_t m, size_t begin, size_t end) {
        double sum = 0.0;
        std::vector<size_t> coord(ndims);
        coord[ndims - 1] = ranges[ndims - 1].lo;
        for (size_t s = begin; s < end; ++s) {
          size_t rem = s;
          for (size_t d = ndims - 1; d-- > 0;) {
            coord[d] = ranges[d].lo + rem % ranges[d].width();
            rem /= ranges[d].width();
          }
          size_t base = 0;
          for (size_t i = 0; i < ndims; ++i) base += coord[i] * strides[i];
          counter.ChargeBytes(inner_width * sizeof(double));
          if (fast) {
            sum += vec::SumBlockFast(&cells[base], inner_width);
          } else {
            for (size_t k = 0; k < inner_width; ++k) sum += cells[base + k];
          }
        }
        parts[m] = sum;
      },
      loop);

  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "sum_range");
  double total = 0.0;
  for (double p : parts) total += p;
  return total;
}

Result<std::vector<double>> MarginalSums(DenseArray& array, size_t dim) {
  if (dim >= array.num_dims())
    return Status::OutOfRange("marginal dimension out of range");
  size_t ndims = array.num_dims();
  std::vector<double> out(array.shape()[dim], 0.0);
  std::vector<DimRange> ranges(ndims);
  for (size_t d = 0; d < ndims; ++d) ranges[d] = {0, array.shape()[d]};
  for (size_t i = 0; i < out.size(); ++i) {
    ranges[dim] = {i, i + 1};
    STATCUBE_ASSIGN_OR_RETURN(out[i], array.SumRange(ranges));
  }
  return out;
}

Result<std::vector<double>> ParallelMarginalSums(DenseArray& array,
                                                 size_t dim,
                                                 const ExecOptions& options) {
  if (dim >= array.num_dims())
    return Status::OutOfRange("marginal dimension out of range");
  size_t ndims = array.num_dims();
  size_t card = array.shape()[dim];
  std::vector<double> out(card, 0.0);
  obs::RecordBytesTouched(array.cells().size() * sizeof(double));

  ParallelForOptions loop = LoopOptions("marginal", options);
  // One marginal entry is a whole slab; a morsel of a few entries balances
  // well even for small cardinalities.
  loop.morsel_size = std::max<size_t>(
      1, std::min<size_t>(loop.morsel_size,
                          (card + size_t(loop.max_workers) * 4 - 1) /
                              std::max<size_t>(1, size_t(loop.max_workers) *
                                                      4)));
  Mutex err_mu;
  Status first_error = Status::OK();

  ParallelFor(
      card,
      [&](size_t, size_t begin, size_t end) {
        std::vector<DimRange> ranges(ndims);
        for (size_t d = 0; d < ndims; ++d) ranges[d] = {0, array.shape()[d]};
        for (size_t i = begin; i < end; ++i) {
          ranges[dim] = {i, i + 1};
          // Each entry walks its slab in the serial index order, so the
          // value is bit-identical to MarginalSums.
          Result<double> r = array.SumRange(ranges);
          if (!r.ok()) {
            MutexLock lock(err_mu);
            if (first_error.ok()) first_error = r.status();
            return;
          }
          out[i] = r.value();
        }
      },
      loop);

  if (!first_error.ok()) return first_error;
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "marginal");
  return out;
}

}  // namespace statcube::exec
