#include "statcube/query/cache_key.h"

#include <algorithm>
#include <cstdio>

#include "statcube/common/epoch.h"
#include "statcube/obs/json.h"
#include "statcube/query/parser.h"

namespace statcube::query {

namespace {

// FNV-1a 64-bit over the bytes of `s`.
uint64_t FnvMix(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xff;  // field separator so {"ab","c"} != {"a","bc"}
  h *= 1099511628211ull;
  return h;
}

// Type-tagged exact rendering, a JSON pair such as `"double",0.1`: the
// string '1', the integer 1 and the double 1.0 must not collide in
// predicate fingerprints or row samples, nor may two doubles one bit apart.
// Strings are JSON-quoted, so no literal can spell the '&' and '=' that
// join predicates.
std::string Tagged(const Value& v) {
  return obs::JsonWriter().String(ValueTypeName(v.type())).Cell(v).Take();
}

uint64_t FingerprintRow(uint64_t h, const Row& row) {
  for (const Value& v : row) h = FnvMix(h, Tagged(v));
  return h;
}

// Identifies the dataset *contents* independently of which backend will scan
// them: object name, shape, and a first/last row sample. Combined with the
// mutation epoch this is the "backend-independent dataset version" of the
// key. The row sample guards against two same-named objects built in one
// process without any mutation in between (the epoch alone would tie them).
uint64_t DatasetFingerprint(const StatisticalObject& obj) {
  uint64_t h = 14695981039346656037ull;
  h = FnvMix(h, obj.name());
  h = FnvMix(h, std::to_string(obj.data().num_rows()));
  for (const auto& d : obj.dimensions()) h = FnvMix(h, d.name());
  for (const auto& m : obj.measures()) h = FnvMix(h, m.name);
  const Table& data = obj.data();
  if (data.num_rows() > 0) {
    h = FingerprintRow(h, data.row(0));
    h = FingerprintRow(h, data.row(data.num_rows() - 1));
  }
  return h;
}

bool Distributive(AggFn fn) {
  switch (fn) {
    case AggFn::kSum:
    case AggFn::kCount:
    case AggFn::kCountAll:
    case AggFn::kMin:
    case AggFn::kMax:
      return true;
    case AggFn::kAvg:
    case AggFn::kVariance:
    case AggFn::kStdDev:
      return false;
  }
  return false;
}

// Mirrors the acceptance conditions of ExecuteQueryOnBackend plus the
// backend constructors: these all depend only on the object and the query,
// so the prediction matches the executed path whenever the backend build
// succeeds — and when it cannot succeed, no backend-shaped entry exists in
// the family either, so a wrong prediction can only miss, never mis-derive.
bool PredictBackendShape(const StatisticalObject& obj, const ParsedQuery& q,
                         QueryEngine engine) {
  if (engine == QueryEngine::kRelational) return false;
  if (q.cube) return false;
  if (q.aggs.size() != 1 || q.aggs[0].fn != AggFn::kSum) return false;
  if (!obj.MeasureNamed(q.aggs[0].column).ok()) return false;
  for (const auto& b : q.by)
    if (!obj.DimensionNamed(b).ok()) return false;
  for (const auto& [attr, v] : q.where)
    if (!obj.DimensionNamed(attr).ok()) return false;
  return true;
}

}  // namespace

Result<cache::QueryKey> BuildQueryKey(const StatisticalObject& obj,
                               const ParsedQuery& query, QueryEngine engine) {
  if (query.aggs.empty())
    return Status::InvalidArgument("query has no aggregates to cache");

  cache::QueryKey key;
  key.by = query.by;
  key.cube = query.cube;
  key.derivable = !query.cube;
  for (const auto& a : query.aggs) {
    key.agg_fns.push_back(a.fn);
    key.agg_names.push_back(a.EffectiveName());
    if (!Distributive(a.fn)) key.derivable = false;
  }
  key.backend_shaped = PredictBackendShape(obj, query, engine);

  char fp[32];
  snprintf(fp, sizeof(fp), "%016llx",
           static_cast<unsigned long long>(DatasetFingerprint(obj)));

  std::string family = fp;
  family += "|e";
  family += std::to_string(DataEpochs::Global().Of(obj.name()));
  family += "|";
  family += QueryEngineName(engine);
  family += "|aggs=";
  for (size_t i = 0; i < query.aggs.size(); ++i) {
    if (i) family += ",";
    family += AggFnName(query.aggs[i].fn);
    family += "(";
    family += query.aggs[i].column;
    family += ")->";
    family += key.agg_names[i];
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
