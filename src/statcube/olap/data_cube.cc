#include "statcube/olap/data_cube.h"

namespace statcube {

Result<DataCube> DataCube::Wrap(Result<StatisticalObject> r) const {
  if (!r.ok()) return r.status();
  return DataCube(std::move(r).value(), options_);
}

Result<DataCube> DataCube::Select(const std::string& dim,
                                  const std::vector<Value>& values) const {
  return Wrap(SSelect(*object_, dim, values));
}

Result<DataCube> DataCube::Dice(const std::vector<DiceSpec>& specs) const {
  return Wrap(statcube::Dice(*object_, specs));
}

Result<DataCube> DataCube::Slice(const std::string& dim) const {
  return Wrap(SProject(*object_, dim, OpOptions()));
}

Result<DataCube> DataCube::SliceAt(const std::string& dim,
                                   const Value& value) const {
  return Wrap(statcube::SliceAt(*object_, dim, value));
}

Result<DataCube> DataCube::RollUp(const std::string& dim,
                                  const std::string& hierarchy,
                                  size_t to_level) const {
  return Wrap(SAggregate(*object_, dim, hierarchy, to_level, OpOptions()));
}

Result<DataCube> DataCube::Union(const DataCube& other) const {
  return Wrap(SUnion(*object_, *other.object_));
}

Status DataCube::EnsureBackend(const std::string& measure) {
  if (backend_ && backend_measure_ == measure) return Status::OK();
  Result<std::unique_ptr<CubeBackend>> built =
      options_.backend == BackendKind::kMolap
          ? MakeMolapBackend(*object_, measure)
          : MakeRolapBackend(
                *object_, measure,
                {.build_bitmap_indexes =
                     options_.backend == BackendKind::kRolapBitmap});
  if (!built.ok()) return built.status();
  backend_ = std::shared_ptr<CubeBackend>(std::move(built).value());
  backend_measure_ = measure;
  return Status::OK();
}

Result<double> DataCube::Sum(const std::string& measure,
                             const std::vector<EqFilter>& filters) {
  STATCUBE_RETURN_NOT_OK(EnsureBackend(measure));
  return backend_->Sum(filters);
}

Result<AutoResult> DataCube::Ask(const AutoQuery& query) const {
  return AutoAggregate(*object_, query, OpOptions());
}

Result<std::string> DataCube::Render(const Render2DOptions& options) const {
  return Render2D(*object_, options);
}

}  // namespace statcube
