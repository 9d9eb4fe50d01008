#include "statcube/olap/backend.h"

#include <algorithm>
#include <optional>

#include "statcube/common/cancellation.h"
#include "statcube/common/mutex.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/obs/query_profile.h"
#include "statcube/olap/molap_cube.h"

namespace statcube {

namespace {

// Snapshots a backend's BlockCounter around an answer and reports the delta
// (plus the backend's identity) to the active profile and registry.
class BackendObsScope {
 public:
  BackendObsScope(const std::string& backend, BlockCounter& counter)
      : enabled_(obs::Enabled()),
        backend_(enabled_ ? backend : std::string()),
        counter_(counter),
        blocks0_(enabled_ ? counter.blocks_read() : 0),
        bytes0_(enabled_ ? counter.bytes_read() : 0) {}
  ~BackendObsScope() {
    if (!enabled_) return;
    obs::RecordBackend(backend_, counter_.blocks_read() - blocks0_,
                       counter_.bytes_read() - bytes0_);
  }

 private:
  bool enabled_;
  std::string backend_;
  BlockCounter& counter_;
  uint64_t blocks0_, bytes0_;
};

// ------------------------------------------------------------------ MOLAP

class MolapBackend : public CubeBackend {
 public:
  explicit MolapBackend(MolapCube cube) : cube_(std::move(cube)) {}

  std::string name() const override { return "molap"; }

  Result<double> Sum(const std::vector<EqFilter>& filters) override {
    obs::Span span("backend.sum:molap");
    BackendObsScope scope(name(), cube_.counter());
    return cube_.SumWhere(filters);
  }

  // One slab sum per cell of the WHERE's sub-cube projected on the BY
  // dimensions, computed concurrently: group g decodes to one code per BY
  // dimension (the last fastest) within the codes its WHERE keeps.
  Result<Table> GroupBySum(const CubeQuery& query) override {
    obs::Span span("backend.groupby:molap");
    BackendObsScope scope(name(), cube_.counter());
    STATCUBE_ASSIGN_OR_RETURN(std::vector<DimRange> slab,
                              cube_.FilterRanges(query.filters));
    std::vector<size_t> gidx;
    for (const auto& g : query.group_dims) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, cube_.DimIndex(g));
      gidx.push_back(d);
    }
    size_t ngroups = 1;
    for (const DimRange& r : slab)
      if (r.width() == 0) ngroups = 0;  // an empty sub-cube has no cells
    for (size_t d : gidx) ngroups *= slab[d].width();
    std::vector<Row> rows(ngroups);

    exec::ExecOptions xo;
    xo.threads = query.threads;
    exec::ParallelForOptions loop;
    loop.label = "molap_groupby";
    loop.max_workers = xo.EffectiveThreads();
    loop.stop = CurrentCancelContext();
    // One group is a whole slab sum. 32 groups a morsel: enough morsels to
    // balance uneven slabs across workers, few enough that each morsel's
    // profile span and stop check stay small beside its 32 slab sums.
    loop.morsel_size = 32;

    Mutex err_mu;
    Status first_error = Status::OK();
    exec::ParallelFor(
        ngroups,
        [&](size_t, size_t begin, size_t end) {
          std::vector<DimRange> ranges;
          for (size_t g = begin; g < end; ++g) {
            ranges = slab;
            Row row(gidx.size() + 1);
            size_t rem = g;
            for (size_t i = gidx.size(); i-- > 0;) {
              const DimRange& r = slab[gidx[i]];
              const size_t code = r.lo + rem % r.width();
              rem /= r.width();
              row[i] = cube_.dictionary(gidx[i]).Decode(uint32_t(code));
              // A dimension named twice keeps only the code both pick.
              ranges[gidx[i]].Keep(code);
            }
            Result<double> s = cube_.mutable_array().SumRange(ranges);
            if (!s.ok()) {
              MutexLock lock(err_mu);
              if (first_error.ok()) first_error = s.status();
              return;
            }
            row.back() = Value(s.value());
            rows[g] = std::move(row);
          }
        },
        loop);
    STATCUBE_RETURN_NOT_OK(first_error);
    if (loop.stop != nullptr)
      if (StopReason sr = loop.stop->Check(); sr != StopReason::kNone)
        return StopStatus(sr, "groupby");

    Schema out_schema;
    for (const auto& g : query.group_dims)
      out_schema.AddColumn(g, ValueType::kString);
    out_schema.AddColumn("sum", ValueType::kDouble);
    Table out("groupby_molap", out_schema);
    for (Row& row : rows) out.AppendRowUnchecked(std::move(row));
    STATCUBE_RETURN_NOT_OK(out.SortBy(query.group_dims));
    return out;
  }

  size_t ByteSize() const override { return cube_.ByteSize(); }
  BlockCounter& counter() override { return cube_.counter(); }

 private:
  MolapCube cube_;
};

// ------------------------------------------------------------------ ROLAP

// The object's code columns and one measure slab, copied flat: a DataCube
// shares its built backend between copies of its handle, so the backend
// must not point into one handle's object.
class RolapBackend : public CubeBackend {
 public:
  RolapBackend(const StatisticalObject& obj, size_t measure,
               RolapBackendOptions options)
      : object_name_(obj.data().name()),
        measure_name_(obj.measures()[measure].name),
        rows_(obj.data().num_rows()),
        options_(options) {
    const auto& cols = obj.code_columns();
    codes_.reserve(cols.size() * rows_);
    for (size_t d = 0; d < cols.size(); ++d) {
      dim_names_.push_back(obj.dimensions()[d].name());
      dictionaries_.push_back(cols[d].dictionary);
      codes_.insert(codes_.end(), cols[d].codes.begin(), cols[d].codes.end());
    }
    const StatisticalObject::MeasureSlab& slab = obj.measure_slabs()[measure];
    values_ = slab.values;
    flags_ = slab.flags;
    evidence_ = slab.evidence;
    if (options_.build_bitmap_indexes) BuildIndexes();
  }

  std::string name() const override {
    return options_.build_bitmap_indexes ? "rolap+bitmap" : "rolap";
  }

  Result<double> Sum(const std::vector<EqFilter>& filters) override {
    obs::Span span(options_.build_bitmap_indexes ? "backend.sum:rolap+bitmap"
                                                 : "backend.sum:rolap");
    BackendObsScope scope(name(), counter_);
    if (options_.build_bitmap_indexes) return SumIndexed(filters);
    return SumScan(filters);
  }

  // The executor's coded group-by over the copied codes and slab; a BY
  // dimension it cannot group exactly is Unimplemented (backend.h).
  Result<Table> GroupBySum(const CubeQuery& query) override {
    obs::Span span("backend.groupby:rolap");
    BackendObsScope scope(name(), counter_);
    STATCUBE_ASSIGN_OR_RETURN(KeepBytes keep, Keep(query.filters));
    exec::CodedGroupByInput in;
    in.name = object_name_;
    in.rows = rows_;
    in.by_names = query.group_dims;
    in.aggs = {{AggFn::kSum, measure_name_, "sum"}};
    in.slabs = {{values_.data(), flags_.data(), evidence_}};
    for (const auto& [d, k] : keep) in.filters.push_back({Codes(d), k.data()});
    for (const auto& g : query.group_dims) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, DimIndex(g));
      in.by.push_back({Codes(d), nullptr, &dictionaries_[d]});
    }
    counter_.ChargeBytes(rows_ * (sizeof(uint32_t) * (keep.size() +
                                                      in.by.size()) +
                                  sizeof(double) + sizeof(uint8_t)));
    const exec::ExecOptions xo{.threads = query.threads,
                               .stop = CurrentCancelContext()};
    std::optional<Result<Table>> out = exec::CodedGroupBy(in, xo);
    if (!out)
      return Status::Unimplemented(
          "a BY dimension holds NaN or values Value::Compare calls equal");
    return *std::move(out);
  }

  size_t ByteSize() const override {
    size_t b = codes_.size() * sizeof(uint32_t) +
               values_.size() * sizeof(double) + flags_.size();
    for (const std::vector<Value>& dict : dictionaries_)
      for (const Value& v : dict)
        b += sizeof(Value) +
             (v.type() == ValueType::kString ? v.AsString().size() : 0);
    for (const auto& dim_index : indexes_)
      for (const BitVector& bm : dim_index) b += bm.ByteSize();
    return b;
  }
  BlockCounter& counter() override { return counter_; }

 private:
  // Per filtered dimension: a keep byte per code, the AND of every filter
  // on it (Value::Compare equality, as the executor's WHERE).
  using KeepBytes = std::vector<std::pair<size_t, std::vector<uint8_t>>>;

  const uint32_t* Codes(size_t d) const { return codes_.data() + d * rows_; }

  Result<size_t> DimIndex(const std::string& name) const {
    auto it = std::find(dim_names_.begin(), dim_names_.end(), name);
    if (it == dim_names_.end())
      return Status::NotFound("no dimension '" + name + "'");
    return size_t(it - dim_names_.begin());
  }

  Result<KeepBytes> Keep(const std::vector<EqFilter>& filters) const {
    KeepBytes keep;
    for (const auto& f : filters) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, DimIndex(f.column));
      auto it = std::find_if(keep.begin(), keep.end(),
                             [&](const auto& k) { return k.first == d; });
      if (it == keep.end())
        it = keep.insert(keep.end(),
                         {d, std::vector<uint8_t>(dictionaries_[d].size(), 1)});
      for (size_t c = 0; c < it->second.size(); ++c)
        it->second[c] &= Value::Compare(dictionaries_[d][c], f.value) == 0;
    }
    return keep;
  }

  Result<double> SumScan(const std::vector<EqFilter>& filters) {
    STATCUBE_ASSIGN_OR_RETURN(KeepBytes keep, Keep(filters));
    counter_.ChargeBytes(rows_ * (sizeof(uint32_t) * keep.size() +
                                  sizeof(double) + sizeof(uint8_t)));
    double sum = 0;
    for (size_t r = 0; r < rows_; ++r) {
      bool match = true;
      for (const auto& [d, k] : keep) match = match && k[Codes(d)[r]] != 0;
      if (match && (flags_[r] & kSlabNumeric) != 0) sum += values_[r];
    }
    return sum;
  }

  Result<double> SumIndexed(const std::vector<EqFilter>& filters) {
    BitVector match(rows_, true);
    for (const auto& f : filters) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, DimIndex(f.column));
      // The rows of every code Value::Compare calls equal to the literal:
      // one code, except for int/double twins such as 1 and 1.0.
      const BitVector* rows = nullptr;
      BitVector twins;
      for (size_t c = 0; c < dictionaries_[d].size(); ++c) {
        if (Value::Compare(dictionaries_[d][c], f.value) != 0) continue;
        const BitVector& bm = indexes_[d][c];
        counter_.ChargeBytes(bm.ByteSize());
        if (rows == nullptr) {
          rows = &bm;
          continue;
        }
        if (rows != &twins) twins = *rows;
        twins.OrWith(bm);
        rows = &twins;
      }
      if (rows == nullptr) return 0.0;  // value never occurs
      match.AndWith(*rows);
    }
    // Read only the matching measure cells.
    double sum = 0;
    size_t matched = 0;
    for (size_t i = 0; i < rows_; ++i) {
      if (!match.Get(i)) continue;
      ++matched;
      if ((flags_[i] & kSlabNumeric) != 0) sum += values_[i];
    }
    counter_.ChargeBytes(matched * sizeof(double));
    return sum;
  }

  // One bitmap per dictionary code, one pass over each code column: a run
  // of one code within a 64-row word gathers its bits in a register.
  void BuildIndexes() {
    indexes_.resize(dim_names_.size());
    for (size_t d = 0; d < dim_names_.size(); ++d) {
      std::vector<BitVector>& bitmaps = indexes_[d];
      bitmaps.assign(dictionaries_[d].size(), BitVector(rows_));
      const uint32_t* codes = Codes(d);
      for (size_t begin = 0; begin < rows_; begin += 64) {
        const size_t end = std::min(rows_, begin + 64);
        uint32_t code = codes[begin];
        uint64_t bits = 0;
        for (size_t r = begin; r < end; ++r) {
          if (codes[r] != code) {
            bitmaps[code].OrWord(begin / 64, bits);
            code = codes[r];
            bits = 0;
          }
          bits |= uint64_t{1} << (r % 64);
        }
        bitmaps[code].OrWord(begin / 64, bits);
      }
    }
  }

  std::string object_name_;
  std::string measure_name_;
  size_t rows_;
  RolapBackendOptions options_;
  std::vector<std::string> dim_names_;
  std::vector<std::vector<Value>> dictionaries_;  // per dim: code -> value
  std::vector<uint32_t> codes_;  // dim d's codes at [d * rows_, (d+1) * rows_)
  std::vector<double> values_;   // the measure slab
  std::vector<uint8_t> flags_;
  SlabEvidence evidence_;
  std::vector<std::vector<BitVector>> indexes_;  // per dim: code -> rows
  BlockCounter counter_;
};

}  // namespace

Result<std::unique_ptr<CubeBackend>> MakeMolapBackend(
    const StatisticalObject& obj, const std::string& measure) {
  STATCUBE_ASSIGN_OR_RETURN(MolapCube cube, MolapCube::Build(obj, measure));
  return std::unique_ptr<CubeBackend>(new MolapBackend(std::move(cube)));
}

Result<std::unique_ptr<CubeBackend>> MakeRolapBackend(
    const StatisticalObject& obj, const std::string& measure,
    const RolapBackendOptions& options) {
  STATCUBE_ASSIGN_OR_RETURN(const SummaryMeasure* m,
                            obj.MeasureNamed(measure));
  return std::unique_ptr<CubeBackend>(new RolapBackend(
      obj, size_t(m - obj.measures().data()), options));
}

}  // namespace statcube
