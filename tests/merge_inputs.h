// The inputs of the merge and splice property tests in relational_test and
// cache_test: seeded pairs of finalized group-bys — a stored table and a
// delta, the two sources a cache fold hands RollupFinalized — whose keys
// need JSON escaping and whose cells hold every value the merge must not
// copy blindly.

#ifndef STATCUBE_TESTS_MERGE_INPUTS_H_
#define STATCUBE_TESTS_MERGE_INPUTS_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "statcube/common/rng.h"
#include "statcube/relational/aggregate.h"

namespace statcube {

/// A stored table and a delta over the keys (k1, k2), grouped by both and
/// sorted on them, with one column per MergeAggs() aggregate.
struct MergeCase {
  Table stored;
  Table delta;
  std::string what;  ///< the seed and the delta's shape, for messages
};

inline const std::vector<std::string>& MergeBy() {
  static const std::vector<std::string> by = {"k1", "k2"};
  return by;
}

inline const std::vector<AggSpec>& MergeAggs() {
  static const std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                                            {AggFn::kCount, "v", ""},
                                            {AggFn::kCountAll, "", ""},
                                            {AggFn::kMin, "v", ""},
                                            {AggFn::kMax, "v", ""}};
  return aggs;
}

/// Every key (k1, k2) a case draws from, in key order: k1 needs escaping
/// (a quote, a backslash, control bytes, multi-byte UTF-8, DEL) or is
/// empty or plain, and k2 is 0 to 3.
inline std::vector<Row> MergeKeyUniverse() {
  const char* const k1s[] = {"",
                             "a\"q",
                             "back\\slash",
                             "ctl\x01\x1f",
                             "na\xc3\xafve",
                             "plain",
                             "tab\there\n",
                             "\x7f",
                             "\xe6\x97\xa5\xe6\x9c\xac"};
  std::vector<Row> keys;
  for (const char* k1 : k1s)
    for (int64_t k2 = 0; k2 < 4; ++k2) keys.push_back({Value(k1), Value(k2)});
  return keys;
}

/// One aggregate cell: mostly a quarter-valued double (a count: a small
/// int64), sometimes NULL, NaN, ±∞, -0.0, an int64 in a sum, min or max,
/// or a count at or past 2^53.
inline Value MergeCell(Rng& rng, bool count) {
  if (rng.Bernoulli(0.7))
    return count ? Value(int64_t(rng.Uniform(50)))
                 : Value(double(rng.UniformRange(-40, 40)) / 4);
  if (count) {
    const Value counts[] = {Value::Null(), Value(int64_t(0)),
                            Value(int64_t(1) << 53),
                            Value((int64_t(1) << 53) + 1)};
    return counts[rng.Uniform(4)];
  }
  const Value cells[] = {Value::Null(),
                         Value(std::numeric_limits<double>::quiet_NaN()),
                         Value(INFINITY),
                         Value(-INFINITY),
                         Value(-0.0),
                         Value(0.0),
                         Value(1e300),
                         Value(int64_t(3))};
  return cells[rng.Uniform(8)];
}

/// `keys` as a finalized group-by named "t_by_k1_k2", cells drawn by `rng`.
inline Table MergeTable(Rng& rng, const std::vector<Row>& keys) {
  Schema schema;
  schema.AddColumn("k1", ValueType::kString);
  schema.AddColumn("k2", ValueType::kInt64);
  for (const AggSpec& a : MergeAggs())
    schema.AddColumn(a.EffectiveName(), ValueType::kDouble);
  Table t("t_by_k1_k2", schema);
  for (const Row& key : keys) {
    Row row = key;
    for (const AggSpec& a : MergeAggs())
      row.push_back(MergeCell(
          rng, a.fn == AggFn::kCount || a.fn == AggFn::kCountAll));
    t.AppendRowUnchecked(std::move(row));
  }
  return t;
}

/// The case for `seed`. The stored table holds a random subset of the key
/// universe, so new keys fall before, between and after its keys; the
/// delta, by `seed % 6`, touches a random mix of stored and new keys, no
/// stored row, every stored row, only the first, only the last, or is
/// empty.
inline MergeCase MakeMergeCase(uint64_t seed) {
  Rng rng(seed);
  const std::vector<Row> universe = MergeKeyUniverse();
  std::vector<char> in_stored(universe.size());
  std::vector<Row> stored_keys;
  for (size_t k = 0; k < universe.size(); ++k) {
    in_stored[k] = rng.Bernoulli(0.6);
    if (in_stored[k]) stored_keys.push_back(universe[k]);
  }
  static const char* const kShapes[] = {"mix",   "no stored row", "every row",
                                        "first", "last",          "empty"};
  const int shape = int(seed % 6);
  std::vector<Row> delta_keys;
  for (size_t k = 0; k < universe.size(); ++k) {
    bool take = false;
    switch (shape) {
      case 0: take = rng.Bernoulli(0.3); break;
      case 1: take = !in_stored[k] && rng.Bernoulli(0.5); break;
      case 2: take = in_stored[k] || rng.Bernoulli(0.2); break;
      case 3:
        take = !stored_keys.empty() && universe[k] == stored_keys.front();
        break;
      case 4:
        take = !stored_keys.empty() && universe[k] == stored_keys.back();
        break;
      default: break;
    }
    if (take) delta_keys.push_back(universe[k]);
  }
  return {MergeTable(rng, stored_keys), MergeTable(rng, delta_keys),
          "seed " + std::to_string(seed) + " (" + kShapes[shape] + ")"};
}

}  // namespace statcube

#endif  // STATCUBE_TESTS_MERGE_INPUTS_H_
