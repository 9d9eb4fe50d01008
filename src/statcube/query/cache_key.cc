#include "statcube/query/cache_key.h"

#include <algorithm>

#include "statcube/obs/json.h"
#include "statcube/query/parser.h"

namespace statcube::query {

namespace {

// Type-tagged exact rendering, a JSON pair such as `"double",0.1`: the
// string '1', the integer 1 and the double 1.0 must not collide in
// predicate fingerprints, nor may two doubles one bit apart.
// Strings are JSON-quoted, so no literal can spell the '&' and '=' that
// join predicates.
std::string Tagged(const Value& v) {
  return obs::JsonWriter().String(ValueTypeName(v.type())).Cell(v).Take();
}

// A sum rolled up or folded from partial sums repeats direct execution's
// bits only when no partial can round: every number of the measure is a
// multiple of 2^e and rows × max|v| stays within 2^(53+e)
// (vec::ReorderIsExact). The slab's evidence covers every row, so it holds
// for any WHERE's subset and any split of the rows. A sum over anything
// but a measure never qualifies.
bool SumReaddsExactly(const StatisticalObject& obj, const std::string& column) {
  for (size_t m = 0; m < obj.measures().size(); ++m)
    if (obj.measures()[m].name == column)
      return obj.measure_slabs()[m].evidence.Licenses(obj.data().num_rows());
  return false;
}

}  // namespace

Result<cache::QueryKey> BuildQueryKey(const StatisticalObject& obj,
                               const ParsedQuery& query, QueryEngine engine) {
  if (query.aggs.empty())
    return Status::InvalidArgument("query has no aggregates to cache");

  cache::QueryKey key;
  key.by = query.by;
  key.aggs = query.aggs;
  key.cube = query.cube;
  key.derivable = !query.cube;
  for (const auto& a : query.aggs)
    if (!Distributive(a.fn) ||
        (a.fn == AggFn::kSum && !SumReaddsExactly(obj, a.column)))
      key.derivable = false;
  // The backend route's own test, made before any build: a wrong
  // prediction (a build that fails) can only miss, never mis-derive, since
  // no backend-shaped entry then exists in the family either.
  key.backend_shaped = engine != QueryEngine::kRelational &&
                       BackendExpressible(obj, query).ok();

  key.object_rows = obj.data().num_rows();

  std::string family = "o";
  family += std::to_string(obj.identity());
  family += "|";
  family += QueryEngineName(engine);
  family += "|aggs=";
  for (size_t i = 0; i < query.aggs.size(); ++i) {
    if (i) family += ",";
    family += AggFnName(query.aggs[i].fn);
    family += "(";
    family += query.aggs[i].column;
    family += ")->";
    family += query.aggs[i].EffectiveName();
  }
  // WHERE is conjunctive equality, so order does not affect the result:
  // canonicalize by sorting on (attribute, tagged value).
  std::vector<std::string> preds;
  preds.reserve(query.where.size());
  for (const auto& [attr, v] : query.where)
    preds.push_back(attr + "=" + Tagged(v));
  std::sort(preds.begin(), preds.end());
  family += "|where=";
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i) family += "&";
    family += preds[i];
  }

  key.family = std::move(family);
  key.exact = key.family + "|by=";
  for (size_t i = 0; i < key.by.size(); ++i) {
    if (i) key.exact += ",";
    key.exact += key.by[i];
  }
  if (key.cube) key.exact += "|cube";
  return key;
}

}  // namespace statcube::query
