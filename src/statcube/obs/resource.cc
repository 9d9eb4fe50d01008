#include "statcube/obs/resource.h"

#include <sstream>

#include "statcube/obs/json.h"

namespace statcube::obs {

namespace {
thread_local ResourceAccumulator* t_resources = nullptr;
}  // namespace

namespace internal {
ResourceAccumulator* SwapCurrentResources(ResourceAccumulator* r) {
  ResourceAccumulator* prev = t_resources;
  t_resources = r;
  return prev;
}
}  // namespace internal

ResourceAccumulator* CurrentResources() { return t_resources; }

ResourceVector ResourceAccumulator::Snapshot() const {
  ResourceVector v;
  v.cpu_us = cpu_us_.load(std::memory_order_relaxed);
  v.bytes_touched = bytes_.load(std::memory_order_relaxed);
  v.morsels = morsels_.load(std::memory_order_relaxed);
  v.tasks_spawned = tasks_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kCpuSlots; ++i) {
    if (per_thread_used_[i].load(std::memory_order_relaxed)) {
      v.cpu_us_by_thread.emplace_back(
          uint32_t(i), per_thread_us_[i].load(std::memory_order_relaxed));
    }
  }
  return v;
}

TaskContext TaskContext::Capture() {
  TaskContext ctx;
  if (!Enabled()) return ctx;
  ctx.trace = CurrentTrace();
  ctx.parent_span = internal::CurrentParentSpan();
  ctx.resources = t_resources;
  return ctx;
}

TaskContextScope::TaskContextScope(const TaskContext& ctx) {
  if (ctx.empty()) return;
  installed_ = true;
  prev_binding_ =
      internal::SwapTraceBinding({ctx.trace, ctx.parent_span, {}});
  prev_res_ = internal::SwapCurrentResources(ctx.resources);
}

TaskContextScope::~TaskContextScope() {
  if (!installed_) return;
  internal::SwapTraceBinding(std::move(prev_binding_));
  internal::SwapCurrentResources(prev_res_);
}

std::string ResourceVector::ToString() const {
  std::ostringstream os;
  os << "cpu_us=" << cpu_us << " bytes_touched=" << bytes_touched
     << " morsels=" << morsels << " tasks_spawned=" << tasks_spawned;
  if (!cpu_us_by_thread.empty()) {
    os << " cpu_by_thread=";
    for (size_t i = 0; i < cpu_us_by_thread.size(); ++i) {
      if (i) os << ",";
      os << "t" << cpu_us_by_thread[i].first << ":"
         << cpu_us_by_thread[i].second;
    }
  }
  return os.str();
}

std::string ResourceVector::ToJson() const {
  JsonWriter w;
  w.BeginObject()
      .Key("cpu_us").Uint(cpu_us)
      .Key("bytes_touched").Uint(bytes_touched)
      .Key("morsels").Uint(morsels)
      .Key("tasks_spawned").Uint(tasks_spawned)
      .Key("cpu_us_by_thread").BeginArray();
  for (const auto& [thread, us] : cpu_us_by_thread)
    w.BeginObject().Key("thread").Uint(thread).Key("us").Uint(us).EndObject();
  w.EndArray().EndObject();
  return w.Take();
}

}  // namespace statcube::obs
