#include "statcube/io/csv.h"

#include <cstdlib>
#include <map>
#include <sstream>

#include "statcube/common/str_util.h"

namespace statcube {

namespace {

// Strings are always quoted (so the reader can tell "1996" the string from
// 1996 the number); numbers, ALL and NULL (empty) are never quoted. Doubles
// are exact, an integral one with a ".0" so it reads back as a double.
std::string FieldFor(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kAll:
      return "ALL";
    case ValueType::kInt64:
      return std::to_string(v.AsInt64());
    case ValueType::kDouble: {
      std::string out = FormatDouble(v.AsDouble());
      if (out.find_first_not_of("-0123456789") == std::string::npos)
        out += ".0";
      return out;
    }
    case ValueType::kString: {
      std::string out = "\"";
      for (char c : v.AsString()) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
      return out;
    }
  }
  return "";
}

// Splits one CSV record (no embedded newlines supported in this format).
Result<std::vector<std::pair<std::string, bool>>> SplitRecord(
    const std::string& line) {
  std::vector<std::pair<std::string, bool>> fields;  // (text, was_quoted)
  std::string cur;
  bool quoted = false, in_quotes = false;
  size_t i = 0;
  auto push = [&] {
    fields.emplace_back(cur, quoted);
    cur.clear();
    quoted = false;
  };
  while (i < line.size()) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      in_quotes = true;
      quoted = true;
    } else if (c == ',') {
      push();
    } else {
      cur += c;
    }
    ++i;
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quote in CSV");
  push();
  return fields;
}

Value ValueFor(const std::string& text, bool was_quoted) {
  if (was_quoted) return Value(text);
  if (text.empty()) return Value::Null();
  if (text == "ALL") return Value::All();
  // Full-string numeric parse.
  char* end = nullptr;
  long long ll = strtoll(text.c_str(), &end, 10);
  if (end && *end == '\0') return Value(int64_t(ll));
  end = nullptr;
  double d = strtod(text.c_str(), &end);
  if (end && *end == '\0') return Value(d);
  return Value(text);
}

std::string EscapeField(const std::string& s) {
  return FieldFor(Value(s));
}

}  // namespace

std::string WriteCsv(const Table& table) {
  std::string out;
  std::vector<std::string> header;
  for (const auto& c : table.schema().columns())
    header.push_back(EscapeField(c.name));
  out += Join(header, ",") + "\n";
  for (const Row& r : table.rows()) {
    std::vector<std::string> fields;
    for (const Value& v : r) fields.push_back(FieldFor(v));
    out += Join(fields, ",") + "\n";
  }
  return out;
}

Result<Table> ReadCsv(const std::string& csv, const std::string& table_name) {
  std::istringstream in(csv);
  std::string line;
  if (!std::getline(in, line))
    return Status::InvalidArgument("CSV has no header row");
  STATCUBE_ASSIGN_OR_RETURN(auto header, SplitRecord(line));
  Schema schema;
  for (const auto& [name, q] : header) schema.AddColumn(name, ValueType::kString);
  Table out(table_name, schema);
  size_t lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    STATCUBE_ASSIGN_OR_RETURN(auto fields, SplitRecord(line));
    if (fields.size() != header.size())
      return Status::InvalidArgument("CSV line " + std::to_string(lineno) +
                                     " has " + std::to_string(fields.size()) +
                                     " fields, expected " +
                                     std::to_string(header.size()));
    Row row;
    for (const auto& [text, quoted] : fields)
      row.push_back(ValueFor(text, quoted));
    out.AppendRowUnchecked(std::move(row));
  }
  return out;
}

namespace {

const char* KindName(DimensionKind k) { return DimensionKindName(k); }

Result<DimensionKind> KindFromName(const std::string& n) {
  if (n == "categorical") return DimensionKind::kCategorical;
  if (n == "temporal") return DimensionKind::kTemporal;
  if (n == "spatial") return DimensionKind::kSpatial;
  return Status::InvalidArgument("unknown dimension kind '" + n + "'");
}

Result<MeasureType> MeasureTypeFromName(const std::string& n) {
  if (n == "flow") return MeasureType::kFlow;
  if (n == "stock") return MeasureType::kStock;
  if (n == "value-per-unit") return MeasureType::kValuePerUnit;
  return Status::InvalidArgument("unknown measure type '" + n + "'");
}

Result<AggFn> AggFromName(const std::string& n) {
  for (AggFn f : {AggFn::kCount, AggFn::kCountAll, AggFn::kSum, AggFn::kAvg,
                  AggFn::kMin, AggFn::kMax, AggFn::kVariance, AggFn::kStdDev})
    if (n == AggFnName(f)) return f;
  return Status::InvalidArgument("unknown aggregate '" + n + "'");
}

}  // namespace

std::string ExportObject(const StatisticalObject& obj) {
  std::string out = "# statcube-object v1\n";
  out += "# name," + EscapeField(obj.name()) + "\n";
  for (const auto& d : obj.dimensions())
    out += "# dimension," + EscapeField(d.name()) + "," +
           KindName(d.kind()) + "\n";
  for (const auto& m : obj.measures())
    out += "# measure," + EscapeField(m.name) + "," + EscapeField(m.unit) +
           "," + MeasureTypeName(m.type) + "," + AggFnName(m.default_fn) +
           "," + EscapeField(m.weight_measure) + "\n";
  for (const auto& d : obj.dimensions()) {
    for (const auto& h : d.hierarchies()) {
      std::vector<std::string> levels;
      for (const auto& l : h.levels()) levels.push_back(EscapeField(l));
      out += "# hierarchy," + EscapeField(d.name()) + "," +
             EscapeField(h.name()) + "," + std::to_string(h.id_dependent()) +
             "," + Join(levels, ",") + "\n";
      for (size_t l = 0; l + 1 < h.num_levels(); ++l) {
        for (const Value& child : h.ValuesAt(l)) {
          for (const Value& parent : h.Parents(l, child)) {
            out += "# link," + EscapeField(h.name()) + "," +
                   std::to_string(l) + "," + FieldFor(child) + "," +
                   FieldFor(parent) + "\n";
          }
        }
        for (const auto& m : obj.measures()) {
          if (h.IsDeclaredComplete(l, m.name)) {
            out += "# complete," + EscapeField(h.name()) + "," +
                   std::to_string(l) + "," + EscapeField(m.name) + "\n";
          }
        }
      }
    }
  }
  out += "# end\n";
  out += WriteCsv(obj.data());
  return out;
}

Result<StatisticalObject> ImportObject(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || line != "# statcube-object v1")
    return Status::InvalidArgument("missing statcube-object header");

  StatisticalObject obj;
  std::vector<Dimension> dims;
  std::vector<SummaryMeasure> measures;
  // hierarchy name -> (dimension index, hierarchy object)
  std::map<std::string, std::pair<size_t, ClassificationHierarchy>> hiers;
  std::string name = "imported";

  while (std::getline(in, line)) {
    if (line == "# end") break;
    if (line.rfind("# ", 0) != 0)
      return Status::InvalidArgument("malformed metadata line: " + line);
    STATCUBE_ASSIGN_OR_RETURN(auto fields, SplitRecord(line.substr(2)));
    const std::string& tag = fields[0].first;
    auto text_at = [&](size_t i) { return fields[i].first; };
    if (tag == "name") {
      name = text_at(1);
    } else if (tag == "dimension") {
      STATCUBE_ASSIGN_OR_RETURN(DimensionKind kind, KindFromName(text_at(2)));
      dims.emplace_back(text_at(1), kind);
    } else if (tag == "measure") {
      SummaryMeasure m;
      m.name = text_at(1);
      m.unit = text_at(2);
      STATCUBE_ASSIGN_OR_RETURN(m.type, MeasureTypeFromName(text_at(3)));
      STATCUBE_ASSIGN_OR_RETURN(m.default_fn, AggFromName(text_at(4)));
      m.weight_measure = text_at(5);
      measures.push_back(std::move(m));
    } else if (tag == "hierarchy") {
      const std::string& dim_name = text_at(1);
      size_t didx = dims.size();
      for (size_t i = 0; i < dims.size(); ++i)
        if (dims[i].name() == dim_name) didx = i;
      if (didx == dims.size())
        return Status::InvalidArgument("hierarchy on unknown dimension '" +
                                       dim_name + "'");
      std::vector<std::string> levels;
      for (size_t i = 4; i < fields.size(); ++i) levels.push_back(text_at(i));
      ClassificationHierarchy h(text_at(2), levels);
      h.set_id_dependent(text_at(3) == "1");
      hiers.emplace(text_at(2), std::make_pair(didx, std::move(h)));
    } else if (tag == "link") {
      auto it = hiers.find(text_at(1));
      if (it == hiers.end())
        return Status::InvalidArgument("link for unknown hierarchy");
      size_t level = size_t(std::stoul(text_at(2)));
      STATCUBE_RETURN_NOT_OK(it->second.second.Link(
          level, ValueFor(fields[3].first, fields[3].second),
          ValueFor(fields[4].first, fields[4].second)));
    } else if (tag == "complete") {
      auto it = hiers.find(text_at(1));
      if (it == hiers.end())
        return Status::InvalidArgument("complete for unknown hierarchy");
      it->second.second.DeclareComplete(size_t(std::stoul(text_at(2))),
                                        text_at(3));
    } else {
      return Status::InvalidArgument("unknown metadata tag '" + tag + "'");
    }
  }

  // Attach hierarchies and assemble the object.
  for (auto& [hname, entry] : hiers)
    dims[entry.first].AddHierarchy(std::move(entry.second));
  obj = StatisticalObject(name);
  for (auto& d : dims) STATCUBE_RETURN_NOT_OK(obj.AddDimension(std::move(d)));
  for (auto& m : measures) STATCUBE_RETURN_NOT_OK(obj.AddMeasure(m));

  // CSV body.
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  STATCUBE_ASSIGN_OR_RETURN(Table data, ReadCsv(body, name));
  size_t nd = obj.dimensions().size();
  size_t nm = obj.measures().size();
  if (data.num_columns() != nd + nm)
    return Status::InvalidArgument("CSV body arity does not match metadata");
  for (const Row& r : data.rows()) {
    Row coord(r.begin(), r.begin() + long(nd));
    Row mv(r.begin() + long(nd), r.end());
    STATCUBE_RETURN_NOT_OK(obj.AddCell(coord, mv));
  }
  return obj;
}

}  // namespace statcube
