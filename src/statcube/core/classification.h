// Classification structures (paper §2, §4.2, Figure 8).
//
// A classification structure has a schema component — the ordered category
// attributes, finest first (e.g. profession -> professional_class) — and an
// instance component: which category value groups under which. The paper
// identifies the properties that must be captured explicitly because
// summarizability (§3.3.2, [LS97]) depends on them:
//
//  * strictness      — a child may belong to several parents (lung cancer is
//                      both a "cancer" and a "respiratory" disease; a
//                      physician has several specialties). Summing over a
//                      non-strict step double-counts.
//  * covering        — every child is mapped to some parent. An unmapped
//                      child silently drops out of a roll-up.
//  * completeness    — a *semantic* declaration: the children exhaust the
//                      parent with respect to a measure (cities do not
//                      exhaust a state's population, but they do exhaust its
//                      museums). Cannot be inferred from the data; declared.
//  * ID dependency   — child values are unique only within their parent
//                      (store numbers within a city, days within a month);
//                      the full identity is the concatenated path.
//
// Values may carry properties (the ISA example of Figure 8's middle
// structure: a VCR's brand or sound system), which selections can filter on.

#ifndef STATCUBE_CORE_CLASSIFICATION_H_
#define STATCUBE_CORE_CLASSIFICATION_H_

#include <map>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/common/value.h"

namespace statcube {

/// A multi-level classification structure over one dimension.
class ClassificationHierarchy {
 public:
  ClassificationHierarchy() = default;
  /// `levels` are category attribute names, finest first:
  /// {"profession", "professional_class"} or {"day", "month", "year"}.
  ClassificationHierarchy(std::string name, std::vector<std::string> levels)
      : name_(std::move(name)), levels_(std::move(levels)) {}

  const std::string& name() const { return name_; }
  const std::vector<std::string>& levels() const { return levels_; }
  size_t num_levels() const { return levels_.size(); }

  /// Index of a level by category attribute name.
  Result<size_t> LevelIndex(const std::string& level_name) const;

  /// Registers a category value at a level (idempotent).
  Status AddValue(size_t level, const Value& v);

  /// Declares that `child` (at `child_level`) groups under `parent` (at
  /// `child_level + 1`). Both values are registered if new. Multiple calls
  /// with different parents make the structure non-strict.
  Status Link(size_t child_level, const Value& child, const Value& parent);

  /// All values at a level, in insertion order (empty for a level with no
  /// values yet or out of range).
  const std::vector<Value>& ValuesAt(size_t level) const;

  /// Parents of `v` one level up (empty if unmapped or at the top level).
  std::vector<Value> Parents(size_t level, const Value& v) const;

  /// Children of `v` one level down (empty at the leaf level).
  std::vector<Value> Children(size_t level, const Value& v) const;

  /// Ancestors of a leaf-or-mid value at `target_level` (deduplicated; more
  /// than one iff some step is non-strict).
  Result<std::vector<Value>> Ancestors(size_t level, const Value& v,
                                       size_t target_level) const;

  /// All leaf-level descendants of `v` at `level`.
  Result<std::vector<Value>> LeafDescendants(size_t level,
                                             const Value& v) const;

  // --- structural property checks (mechanical) ------------------------

  /// True if no value at `child_level` has more than one parent.
  bool IsStrictAt(size_t child_level) const;

  /// True if every roll-up step is strict.
  bool IsStrict() const;

  /// True if every value at `child_level` has at least one parent.
  bool IsCoveringAt(size_t child_level) const;

  /// Values at `child_level` with multiple parents (the summarizability
  /// culprits).
  std::vector<Value> MultiParentValues(size_t child_level) const;

  // --- semantic declarations (cannot be inferred) ----------------------

  /// Declares (or revokes) completeness of the `child_level ->
  /// child_level+1` grouping with respect to measure `measure_name`
  /// ("cities exhaust museums but not population").
  void DeclareComplete(size_t child_level, const std::string& measure_name,
                       bool complete = true);

  /// Whether completeness was declared for this step and measure.
  bool IsDeclaredComplete(size_t child_level,
                          const std::string& measure_name) const;

  /// Marks child values as ID-dependent on their parent (store numbers are
  /// only unique within a city).
  void set_id_dependent(bool v) { id_dependent_ = v; }
  bool id_dependent() const { return id_dependent_; }

  /// Fully qualified identity of an ID-dependent value: the path of values
  /// from `level` up to the root, finest first (e.g. {s#1, seattle}).
  Result<std::vector<Value>> QualifiedIdentity(size_t level,
                                               const Value& v) const;

  // --- value properties (the ISA enrichment of Figure 8) ---------------

  /// Attaches a named property to a category value.
  Status SetProperty(size_t level, const Value& v, const std::string& key,
                     Value property);

  /// Reads a property (NotFound if absent).
  Result<Value> GetProperty(size_t level, const Value& v,
                            const std::string& key) const;

  /// Values at `level` whose property `key` equals `want` — the "select only
  /// Sanyo products for summarization" query of §4.2.
  std::vector<Value> ValuesWithProperty(size_t level, const std::string& key,
                                        const Value& want) const;

 private:
  Status CheckLevel(size_t level) const;

  std::string name_;
  std::vector<std::string> levels_;
  // Per level: registered values in insertion order + fast membership.
  mutable std::vector<std::vector<Value>> level_values_;
  mutable std::vector<std::map<Value, size_t>> value_index_;
  // Per child level: child value -> parent values.
  mutable std::vector<std::map<Value, std::vector<Value>>> parents_;
  // Per child level: measure name -> declared complete.
  mutable std::vector<std::map<std::string, bool>> complete_;
  // Per level: value -> (property key -> property value).
  mutable std::vector<std::map<Value, std::map<std::string, Value>>> props_;
  bool id_dependent_ = false;

  void EnsureLevelStorage() const;
};

}  // namespace statcube

#endif  // STATCUBE_CORE_CLASSIFICATION_H_
