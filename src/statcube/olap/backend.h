/// \file
/// \brief The pluggable query backend interface behind a statistical
/// object — the §6.6 ROLAP vs MOLAP debate expressed as an API.
///
/// Both backends answer the same aggregate queries over the same
/// StatisticalObject; which physical organization serves them differs.
/// Both are built from the object's dictionary-coded image (§6.1, Figs
/// 18-19: a code column per dimension, a slab per measure), never from its
/// rows:
///
///  * MolapBackend — dense linearized array (molap_cube.h): arithmetic
///    addressing, stores the whole cross product. Its slab is scattered
///    from the codes with one dictionary lookup per code, not per row. A
///    GROUP BY reports every cell of the WHERE's sub-cube projected on the
///    BY dimensions, empty or not; an empty sub-cube (a WHERE value that
///    never occurs, or two that disagree on one dimension) has none.
///  * RolapBackend — a flat copy of the code columns and the one measure
///    slab, scanned relationally; with `BuildIndexes`, one bitmap per
///    dictionary code accelerates the scans (the ROLAP proponents' claim
///    (iv): "efficiency of ROLAP can be achieved by using techniques such
///    as encoding and compression"). GroupBySum runs the query executor's
///    coded group-by (exec::CodedGroupBy), so its rows equal Query()'s bit
///    for bit. Where that group-by declines — a BY dimension holding NaN or
///    values Value::Compare calls equal — GroupBySum returns Unimplemented,
///    and QueryProfiled answers with the relational executor instead.
///
/// ByteSize is the store a query reads: the array and its dictionaries
/// (MOLAP), or the codes, the slab, the dictionaries and the bitmaps
/// (ROLAP). The block counters charge the bytes of array segments, codes,
/// slab entries and bitmaps read. A name that is not a dimension is
/// NotFound. GroupBySum checks the thread's CurrentCancelContext() between
/// morsels and returns kCancelled / kDeadlineExceeded once it fires.
///
/// Equivalence across backends is a test invariant; bench_rolap_molap and
/// bench_ablation measure the trade-offs.

#ifndef STATCUBE_OLAP_BACKEND_H_
#define STATCUBE_OLAP_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "statcube/common/block_counter.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/storage/bitvector.h"
#include "statcube/storage/dictionary.h"
#include "statcube/storage/stores.h"

namespace statcube {

/// A dimension-subset aggregate query: SUM(measure) grouped by `group_dims`
/// with optional equality filters. Empty group = a single total.
struct CubeQuery {
  /// Dimensions to group by (order fixes the output column order).
  std::vector<std::string> group_dims;
  /// Equality filters ANDed together; empty = no filtering.
  std::vector<EqFilter> filters;
  /// Worker cap of the backend's morsel loops (statcube/exec): 1 (default)
  /// runs them on the caller, 0 = exec::DefaultThreads(). Results are
  /// identical at any value.
  int threads = 1;
};

/// Backend-independent query interface over one (object, measure) pair.
class CubeBackend {
 public:
  virtual ~CubeBackend() = default;  ///< Backends are owned polymorphically.

  /// Descriptive name ("molap", "rolap", "rolap+bitmap").
  virtual std::string name() const = 0;

  /// SUM(measure) over cells matching all equality filters.
  virtual Result<double> Sum(const std::vector<EqFilter>& filters) = 0;

  /// GROUP BY over the named dimensions with filters; returns rows of
  /// (group values..., sum) sorted by group values.
  virtual Result<Table> GroupBySum(const CubeQuery& query) = 0;

  /// Physical footprint.
  virtual size_t ByteSize() const = 0;

  /// Logical block accounting.
  virtual BlockCounter& counter() = 0;
};

/// Builds a MOLAP backend (dense array) of `measure`.
Result<std::unique_ptr<CubeBackend>> MakeMolapBackend(
    const StatisticalObject& obj, const std::string& measure);

/// Options for the ROLAP backend.
struct RolapBackendOptions {
  /// Build per-dimension bitmap indexes (one bitmap per dictionary code) so
  /// equality filters intersect bitmaps instead of scanning.
  bool build_bitmap_indexes = false;
};

/// Builds a ROLAP backend over the object's code columns and the slab of
/// `measure`.
Result<std::unique_ptr<CubeBackend>> MakeRolapBackend(
    const StatisticalObject& obj, const std::string& measure,
    const RolapBackendOptions& options = {});

}  // namespace statcube

#endif  // STATCUBE_OLAP_BACKEND_H_
