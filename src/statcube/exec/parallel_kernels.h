// Parallel operator kernels over the morsel scheduler (task_scheduler.h):
// the group-by over dictionary-coded columns (CodedGroupBy, the route of
// the query executor and the ROLAP backends), whose morsel pass packs each
// row's BY codes into a key for one fold in row order into per-function
// slot arrays (DESIGN.md §12). A dense GROUP BY's keys are its slots; a
// sparse one's, and a CUBE's, are numbered into group ids first, and a
// CUBE's finest grouping rolls up through CubeBy's own lattice
// (relational/cube_operator.h). A Table has one group-by, the serial
// GroupBy / CubeBy of relational/; a MOLAP array has one reduction,
// DenseArray::SumRangeBy.
//
// Determinism contract (tested by tests/parallel_equivalence_test.cc and
// documented in DESIGN.md §6): every kernel's output is **bit-identical for
// any thread count and any morsel size**, including 1. The coded group-by
// and CUBE also match GroupBy / CubeBy over the decoded rows bit for bit on
// every measure: the fold hands each group its rows in serial row order,
// and group ids are numbered in serial first-occurrence order.

#ifndef STATCUBE_EXEC_PARALLEL_KERNELS_H_
#define STATCUBE_EXEC_PARALLEL_KERNELS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/exec/task_scheduler.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube::exec {

/// Knobs shared by every parallel kernel.
struct ExecOptions {
  /// Worker cap for the coded pass's morsels: 0 = DefaultThreads(); 1 =
  /// run inline on the caller (same result); N > pool grows the pool.
  int threads = 0;
  /// Morsel size in rows of the coded pass when it has more than one
  /// worker. Every kernel gives the same bits at any size.
  size_t morsel_rows = kDefaultMorselRows;
  /// Optional query-level stop context (token + deadline). Morsel loops stop
  /// claiming work once it fires and the kernel returns kCancelled /
  /// kDeadlineExceeded instead of a partial result. nullptr = never stops.
  const CancelContext* stop = nullptr;

  /// The thread cap with defaults resolved.
  int EffectiveThreads() const {
    return threads <= 0 ? DefaultThreads() : threads;
  }
};

/// One aggregate's input to CodedGroupBy's fold: a measure slab — the
/// numbers and the flag bytes of EncodeSlabEntry — or null pointers for
/// count() without a column.
struct SlabView {
  const double* values = nullptr;
  const uint8_t* flags = nullptr;
  /// Evidence over these rows or a superset of them.
  SlabEvidence evidence;
};

/// A BY attribute of CodedGroupBy: row r's code is `codes[r]`, read
/// through `level_of` (code -> attribute code) when the attribute is a
/// hierarchy level; `values` holds the attribute's value per code.
struct CodedKey {
  const uint32_t* codes = nullptr;
  const uint32_t* level_of = nullptr;
  const std::vector<Value>* values = nullptr;
};

/// A WHERE of CodedGroupBy: row r passes when `keep[codes[r]]` is nonzero.
struct CodedFilter {
  const uint32_t* codes = nullptr;
  const uint8_t* keep = nullptr;
};

/// A group-by over dictionary-coded columns (DESIGN.md §14).
struct CodedGroupByInput {
  /// The table is named `name` + "_by_" + the BY names, or `name` + "_cube".
  std::string name;
  size_t rows = 0;
  std::vector<std::string> by_names;  ///< the BY columns' names
  std::vector<CodedKey> by;           ///< one per BY name
  std::vector<CodedFilter> filters;   ///< ANDed
  std::vector<AggSpec> aggs;          ///< output names set
  std::vector<SlabView> slabs;        ///< one per aggregate, over all rows
  bool cube = false;
  /// Spans for the caller's profile, around the pass over the rows and
  /// around the fold and emit; none when null.
  const char* pass_span = nullptr;
  const char* fold_span = nullptr;
};

/// GROUP BY or CUBE over code columns, bit-identical to GroupBy / CubeBy
/// over the decoded rows at any thread count. A morsel pass packs each
/// kept row's BY codes into one key (an empty BY without a WHERE has no
/// pass), then one fold on the caller, in row order, gives each slot only
/// the arrays each aggregate's function reads (DESIGN.md §12). A kept
/// row's slot is its key when the key space is dense — at most
/// max(1,024, 2 × kept rows) keys — and the GROUP BY's emit walks the key
/// space in the ranks of the codes (the order of Value::Compare on exact
/// values). A sparse GROUP BY and every CUBE number the keys in place into
/// group ids in first-occurrence order, one slot per group; the GROUP BY
/// then sorts its groups by those ranks, and the CUBE reads its finest
/// grouping back into AggStates in group-id order and rolls it up with
/// CubeFromFinest. An empty BY has one slot, reduced by the block kernels.
/// Returns nullopt, before touching a row, when codes cannot group exactly
/// — a BY attribute whose values hold NaN or two entries Value::Compare
/// calls equal — and for BY codes that do not pack into 64 bits and CUBEs
/// over more than 20 attributes.
/// `options.stop` is checked by the pass, the fold and the CUBE's lattice
/// levels; a pass that filters or reads a level stops as "scan", any
/// other as "groupby", and the lattice as "cube".
std::optional<Result<Table>> CodedGroupBy(const CodedGroupByInput& in,
                                          const ExecOptions& options = {});

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_PARALLEL_KERNELS_H_
