#include "statcube/core/classification.h"

#include <algorithm>
#include <set>

namespace statcube {

void ClassificationHierarchy::EnsureLevelStorage() const {
  size_t n = levels_.size();
  if (level_values_.size() < n) level_values_.resize(n);
  if (value_index_.size() < n) value_index_.resize(n);
  if (parents_.size() < n) parents_.resize(n);
  if (complete_.size() < n) complete_.resize(n);
  if (props_.size() < n) props_.resize(n);
}

Status ClassificationHierarchy::CheckLevel(size_t level) const {
  if (level >= levels_.size()) {
    return Status::OutOfRange("level " + std::to_string(level) +
                              " out of range for hierarchy '" + name_ +
                              "' with " + std::to_string(levels_.size()) +
                              " levels");
  }
  EnsureLevelStorage();
  return Status::OK();
}

Result<size_t> ClassificationHierarchy::LevelIndex(
    const std::string& level_name) const {
  for (size_t i = 0; i < levels_.size(); ++i)
    if (levels_[i] == level_name) return i;
  return Status::NotFound("hierarchy '" + name_ + "' has no level '" +
                          level_name + "'");
}

Status ClassificationHierarchy::AddValue(size_t level, const Value& v) {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  auto& idx = value_index_[level];
  if (idx.count(v)) return Status::OK();
  idx.emplace(v, level_values_[level].size());
  level_values_[level].push_back(v);
  return Status::OK();
}

Status ClassificationHierarchy::Link(size_t child_level, const Value& child,
                                     const Value& parent) {
  STATCUBE_RETURN_NOT_OK(CheckLevel(child_level));
  if (child_level + 1 >= levels_.size()) {
    return Status::OutOfRange("level " + std::to_string(child_level) +
                              " is the top of hierarchy '" + name_ + "'");
  }
  STATCUBE_RETURN_NOT_OK(AddValue(child_level, child));
  STATCUBE_RETURN_NOT_OK(AddValue(child_level + 1, parent));
  auto& ps = parents_[child_level][child];
  if (std::find(ps.begin(), ps.end(), parent) == ps.end())
    ps.push_back(parent);
  return Status::OK();
}

const std::vector<Value>& ClassificationHierarchy::ValuesAt(
    size_t level) const {
  // Storage is sized lazily by the first mutation; until then every level
  // is empty.
  static const std::vector<Value> kNone;
  return level < level_values_.size() ? level_values_[level] : kNone;
}

std::vector<Value> ClassificationHierarchy::Parents(size_t level,
                                                    const Value& v) const {
  if (!CheckLevel(level).ok() || level + 1 >= levels_.size()) return {};
  auto it = parents_[level].find(v);
  return it == parents_[level].end() ? std::vector<Value>{} : it->second;
}

std::vector<Value> ClassificationHierarchy::Children(size_t level,
                                                     const Value& v) const {
  if (!CheckLevel(level).ok() || level == 0) return {};
  std::vector<Value> out;
  for (const auto& [child, ps] : parents_[level - 1]) {
    if (std::find(ps.begin(), ps.end(), v) != ps.end()) out.push_back(child);
  }
  return out;
}

Result<std::vector<Value>> ClassificationHierarchy::Ancestors(
    size_t level, const Value& v, size_t target_level) const {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  STATCUBE_RETURN_NOT_OK(CheckLevel(target_level));
  if (target_level < level) {
    return Status::InvalidArgument(
        "Ancestors: target level below starting level");
  }
  std::vector<Value> frontier = {v};
  for (size_t l = level; l < target_level; ++l) {
    std::set<Value> next;
    for (const Value& f : frontier)
      for (const Value& p : Parents(l, f)) next.insert(p);
    frontier.assign(next.begin(), next.end());
  }
  return frontier;
}

Result<std::vector<Value>> ClassificationHierarchy::LeafDescendants(
    size_t level, const Value& v) const {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  std::vector<Value> frontier = {v};
  for (size_t l = level; l > 0; --l) {
    std::set<Value> next;
    for (const Value& f : frontier)
      for (const Value& c : Children(l, f)) next.insert(c);
    frontier.assign(next.begin(), next.end());
  }
  return frontier;
}

bool ClassificationHierarchy::IsStrictAt(size_t child_level) const {
  if (!CheckLevel(child_level).ok()) return true;
  if (child_level + 1 >= levels_.size()) return true;
  for (const auto& [child, ps] : parents_[child_level])
    if (ps.size() > 1) return false;
  return true;
}

bool ClassificationHierarchy::IsStrict() const {
  for (size_t l = 0; l + 1 < levels_.size(); ++l)
    if (!IsStrictAt(l)) return false;
  return true;
}

bool ClassificationHierarchy::IsCoveringAt(size_t child_level) const {
  if (!CheckLevel(child_level).ok()) return true;
  if (child_level + 1 >= levels_.size()) return true;
  for (const Value& v : level_values_[child_level]) {
    auto it = parents_[child_level].find(v);
    if (it == parents_[child_level].end() || it->second.empty()) return false;
  }
  return true;
}

std::vector<Value> ClassificationHierarchy::MultiParentValues(
    size_t child_level) const {
  std::vector<Value> out;
  if (!CheckLevel(child_level).ok() || child_level + 1 >= levels_.size())
    return out;
  for (const auto& [child, ps] : parents_[child_level])
    if (ps.size() > 1) out.push_back(child);
  return out;
}

void ClassificationHierarchy::DeclareComplete(size_t child_level,
                                              const std::string& measure_name,
                                              bool complete) {
  if (!CheckLevel(child_level).ok()) return;
  complete_[child_level][measure_name] = complete;
}

bool ClassificationHierarchy::IsDeclaredComplete(
    size_t child_level, const std::string& measure_name) const {
  if (!CheckLevel(child_level).ok()) return false;
  auto it = complete_[child_level].find(measure_name);
  return it != complete_[child_level].end() && it->second;
}

Result<std::vector<Value>> ClassificationHierarchy::QualifiedIdentity(
    size_t level, const Value& v) const {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  std::vector<Value> path = {v};
  Value cur = v;
  for (size_t l = level; l + 1 < levels_.size(); ++l) {
    std::vector<Value> ps = Parents(l, cur);
    if (ps.empty()) break;
    if (ps.size() > 1) {
      return Status::InvalidArgument(
          "qualified identity undefined: '" + cur.ToString() +
          "' has multiple parents in non-strict hierarchy '" + name_ + "'");
    }
    cur = ps.front();
    path.push_back(cur);
  }
  return path;
}

Status ClassificationHierarchy::SetProperty(size_t level, const Value& v,
                                            const std::string& key,
                                            Value property) {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  STATCUBE_RETURN_NOT_OK(AddValue(level, v));
  props_[level][v][key] = std::move(property);
  return Status::OK();
}

Result<Value> ClassificationHierarchy::GetProperty(size_t level,
                                                   const Value& v,
                                                   const std::string& key) const {
  STATCUBE_RETURN_NOT_OK(CheckLevel(level));
  auto vit = props_[level].find(v);
  if (vit == props_[level].end())
    return Status::NotFound("no properties on value " + v.ToString());
  auto pit = vit->second.find(key);
  if (pit == vit->second.end())
    return Status::NotFound("no property '" + key + "' on value " +
                            v.ToString());
  return pit->second;
}

std::vector<Value> ClassificationHierarchy::ValuesWithProperty(
    size_t level, const std::string& key, const Value& want) const {
  std::vector<Value> out;
  if (!CheckLevel(level).ok()) return out;
  for (const Value& v : level_values_[level]) {
    auto r = GetProperty(level, v, key);
    if (r.ok() && *r == want) out.push_back(v);
  }
  return out;
}

}  // namespace statcube
