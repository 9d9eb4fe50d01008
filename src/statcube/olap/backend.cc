#include "statcube/olap/backend.h"

#include <algorithm>
#include <optional>

#include "statcube/common/cancellation.h"
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

  // The WHERE's sub-cube summed onto the BY dimensions in one pass over
  // the array: total g decodes to one code per BY dimension (the last
  // fastest) within the codes its WHERE keeps.
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
    STATCUBE_ASSIGN_OR_RETURN(
        std::vector<double> sums,
        cube_.mutable_array().SumRangeBy(slab, gidx, CurrentCancelContext()));

    Schema out_schema;
    for (const auto& g : query.group_dims)
      out_schema.AddColumn(g, ValueType::kString);
    out_schema.AddColumn("sum", ValueType::kDouble);
    Table out("groupby_molap", out_schema);
    for (size_t g = 0; g < sums.size(); ++g) {
      Row row(gidx.size() + 1);
      size_t rem = g;
      for (size_t i = gidx.size(); i-- > 0;) {
        const DimRange& r = slab[gidx[i]];
        row[i] = cube_.dictionary(gidx[i]).Decode(
            uint32_t(r.lo + rem % r.width()));
        rem /= r.width();
      }
      row.back() = Value(sums[g]);
      out.AppendRowUnchecked(std::move(row));
    }
    STATCUBE_RETURN_NOT_OK(out.SortBy(query.group_dims));
    return out;
  }

  size_t ByteSize() const override { return cube_.ByteSize(); }
  BlockCounter& counter() override { return cube_.counter(); }

 private:
  MolapCube cube_;
};

// ------------------------------------------------------------------ ROLAP

// The object's code columns and one measure slab, read in place; the
// object must outlive the backend (backend.h). The backend answers over
// the rows the object held when it was built, the rows its bitmaps cover.
class RolapBackend : public CubeBackend {
 public:
  RolapBackend(const StatisticalObject& obj, size_t measure,
               RolapBackendOptions options)
      : obj_(obj),
        measure_(measure),
        rows_(obj.data().num_rows()),
        options_(options) {
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

  // The executor's coded group-by over the object's codes and slab; a BY
  // dimension it cannot group exactly is Unimplemented (backend.h).
  Result<Table> GroupBySum(const CubeQuery& query) override {
    obs::Span span("backend.groupby:rolap");
    BackendObsScope scope(name(), counter_);
    STATCUBE_ASSIGN_OR_RETURN(KeepBytes keep, Keep(query.filters));
    const StatisticalObject::MeasureSlab& slab = Slab();
    exec::CodedGroupByInput in;
    in.name = obj_.data().name();
    in.rows = rows_;
    in.by_names = query.group_dims;
    in.aggs = {{AggFn::kSum, obj_.measures()[measure_].name, "sum"}};
    in.slabs = {{slab.values.data(), slab.flags.data(), slab.evidence}};
    for (const auto& [d, k] : keep) in.filters.push_back({Codes(d), k.data()});
    for (const auto& g : query.group_dims) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, obj_.DimensionIndex(g));
      in.by.push_back({Codes(d), nullptr, &Dictionary(d)});
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
    const size_t ndims = obj_.code_columns().size();
    size_t b = rows_ * (ndims * sizeof(uint32_t) + sizeof(double) +
                        sizeof(uint8_t));
    for (size_t d = 0; d < ndims; ++d)
      for (const Value& v : Dictionary(d))
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

  const uint32_t* Codes(size_t d) const {
    return obj_.code_columns()[d].codes.data();
  }
  const std::vector<Value>& Dictionary(size_t d) const {
    return obj_.code_columns()[d].dictionary;
  }
  const StatisticalObject::MeasureSlab& Slab() const {
    return obj_.measure_slabs()[measure_];
  }

  Result<KeepBytes> Keep(const std::vector<EqFilter>& filters) const {
    KeepBytes keep;
    for (const auto& f : filters) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, obj_.DimensionIndex(f.column));
      auto it = std::find_if(keep.begin(), keep.end(),
                             [&](const auto& k) { return k.first == d; });
      if (it == keep.end())
        it = keep.insert(keep.end(),
                         {d, std::vector<uint8_t>(Dictionary(d).size(), 1)});
      for (size_t c = 0; c < it->second.size(); ++c)
        it->second[c] &= Value::Compare(Dictionary(d)[c], f.value) == 0;
    }
    return keep;
  }

  Result<double> SumScan(const std::vector<EqFilter>& filters) {
    STATCUBE_ASSIGN_OR_RETURN(KeepBytes keep, Keep(filters));
    counter_.ChargeBytes(rows_ * (sizeof(uint32_t) * keep.size() +
                                  sizeof(double) + sizeof(uint8_t)));
    const double* values = Slab().values.data();
    const uint8_t* flags = Slab().flags.data();
    double sum = 0;
    for (size_t r = 0; r < rows_; ++r) {
      bool match = true;
      for (const auto& [d, k] : keep) match = match && k[Codes(d)[r]] != 0;
      if (match && (flags[r] & kSlabNumeric) != 0) sum += values[r];
    }
    return sum;
  }

  Result<double> SumIndexed(const std::vector<EqFilter>& filters) {
    BitVector match(rows_, true);
    for (const auto& f : filters) {
      STATCUBE_ASSIGN_OR_RETURN(size_t d, obj_.DimensionIndex(f.column));
      // The rows of every code Value::Compare calls equal to the literal:
      // one code, except for int/double twins such as 1 and 1.0.
      const BitVector* rows = nullptr;
      BitVector twins;
      for (size_t c = 0; c < indexes_[d].size(); ++c) {
        if (Value::Compare(Dictionary(d)[c], f.value) != 0) continue;
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
    const double* values = Slab().values.data();
    const uint8_t* flags = Slab().flags.data();
    double sum = 0;
    size_t matched = 0;
    for (size_t i = 0; i < rows_; ++i) {
      if (!match.Get(i)) continue;
      ++matched;
      if ((flags[i] & kSlabNumeric) != 0) sum += values[i];
    }
    counter_.ChargeBytes(matched * sizeof(double));
    return sum;
  }

  // One bitmap per dictionary code, one pass over each code column: a run
  // of one code within a 64-row word gathers its bits in a register.
  void BuildIndexes() {
    indexes_.resize(obj_.code_columns().size());
    for (size_t d = 0; d < indexes_.size(); ++d) {
      std::vector<BitVector>& bitmaps = indexes_[d];
      bitmaps.assign(Dictionary(d).size(), BitVector(rows_));
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

  const StatisticalObject& obj_;
  size_t measure_;
  size_t rows_;
  RolapBackendOptions options_;
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
