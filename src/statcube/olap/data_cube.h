// DataCube: the Statistical Object as a self-contained data type — what the
// paper's conclusion (§8) argues object-relational systems should support:
// "the semantics, operations, and physical structures of the
// multidimensional space, but also of the classification structures ...
// automatic aggregations, advanced statistical operators, and mechanisms to
// deal with time varying and incompatible classifications."
//
// DataCube holds an immutable StatisticalObject, lazily materializes a
// physical backend (MOLAP array, ROLAP scan, or bitmap-indexed ROLAP) for
// fast aggregates, and exposes the operator algebra, the text query
// language, automatic aggregation, and 2-D rendering behind one handle.
// Copies of a handle share the object and the backend, so a backend that
// reads the object in place (ROLAP) never outlives it. Operators return
// new DataCubes, so pipelines chain.

#ifndef STATCUBE_OLAP_DATA_CUBE_H_
#define STATCUBE_OLAP_DATA_CUBE_H_

#include <memory>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/core/table_render.h"
#include "statcube/olap/auto_aggregate.h"
#include "statcube/olap/backend.h"
#include "statcube/olap/operators.h"

namespace statcube {

/// Physical backend choice for aggregate queries.
enum class BackendKind { kMolap, kRolap, kRolapBitmap };

/// Configuration for a DataCube.
struct DataCubeOptions {
  BackendKind backend = BackendKind::kMolap;
  /// Applied to every summarizing operator invoked through this handle.
  bool enforce_summarizability = true;
};

/// The statistical-object data type: semantics + operators + physical
/// backend behind one handle.
class DataCube {
 public:
  explicit DataCube(StatisticalObject object, DataCubeOptions options = {})
      : object_(std::make_shared<const StatisticalObject>(std::move(object))),
        options_(options) {}

  const StatisticalObject& object() const { return *object_; }
  const DataCubeOptions& options() const { return options_; }

  /// Structural description (the paper's §2 summaries).
  std::string Describe() const { return object_->DescribeStructure(); }

  // --- operators (each returns a new DataCube with the same options) -----
  Result<DataCube> Select(const std::string& dim,
                          const std::vector<Value>& values) const;
  Result<DataCube> Dice(const std::vector<DiceSpec>& specs) const;
  Result<DataCube> Slice(const std::string& dim) const;  // S-project
  Result<DataCube> SliceAt(const std::string& dim, const Value& value) const;
  Result<DataCube> RollUp(const std::string& dim, const std::string& hierarchy,
                          size_t to_level = 1) const;
  Result<DataCube> Union(const DataCube& other) const;

  // --- aggregates through the physical backend ---------------------------
  /// SUM(measure) under equality filters; the backend is built lazily per
  /// measure and cached, and shared with copies of this handle.
  Result<double> Sum(const std::string& measure,
                     const std::vector<EqFilter>& filters = {});

  // The §5.1 text query language lives one layer up: parse-and-run a cube
  // with statcube::Query(cube.object(), text) (query/parser.h). A member
  // forwarding to it would point olap/ at query/, inverting the layer DAG.

  /// Automatic aggregation (Figure 13).
  Result<AutoResult> Ask(const AutoQuery& query) const;

  /// 2-D statistical table (Figure 1/9).
  Result<std::string> Render(const Render2DOptions& options) const;

  /// Name of the active backend, if one has been materialized.
  std::string backend_name() const {
    return backend_ ? backend_->name() : "(none)";
  }

 private:
  OperatorOptions OpOptions() const {
    return {.enforce_summarizability = options_.enforce_summarizability};
  }
  Result<DataCube> Wrap(Result<StatisticalObject> r) const;
  Status EnsureBackend(const std::string& measure);

  // Shared by copies of the handle, as is backend_, which may read it.
  std::shared_ptr<const StatisticalObject> object_;
  DataCubeOptions options_;
  std::shared_ptr<CubeBackend> backend_;  // lazily built
  std::string backend_measure_;
};

}  // namespace statcube

#endif  // STATCUBE_OLAP_DATA_CUBE_H_
