#include "statcube/query/cache_key.h"

#include <algorithm>
#include <cstdio>

#include "statcube/common/epoch.h"
#include "statcube/common/vec_block.h"
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

// A sum rolled up from partial sums repeats direct execution's bits only
// when no partial can round: every number of the measure is integral and
// rows × max|v| stays within 2^53 (vec::ReorderIsExact). The slab's
// evidence covers every row, so it holds for any WHERE's subset. A sum over
// anything but a measure never qualifies.
bool SumReaddsExactly(const StatisticalObject& obj, const std::string& column) {
  for (size_t m = 0; m < obj.measures().size(); ++m) {
    if (obj.measures()[m].name != column) continue;
    const SlabEvidence& ev = obj.measure_slabs()[m].evidence;
    return vec::ReorderIsExact(ev.integral, ev.max_abs, obj.data().num_rows());
  }
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
