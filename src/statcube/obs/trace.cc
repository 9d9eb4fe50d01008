#include "statcube/obs/trace.h"

#include <cstdio>
#include <sstream>
#include <utility>

#include "statcube/obs/json.h"

namespace statcube::obs {

namespace {
thread_local internal::TraceBinding t_binding;

std::atomic<uint32_t> g_next_thread_id{0};
}  // namespace

uint32_t CurrentThreadId() {
  thread_local uint32_t id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id;
}

namespace internal {

TraceBinding SwapTraceBinding(TraceBinding b) {
  TraceBinding prev = std::move(t_binding);
  t_binding = std::move(b);
  return prev;
}

int32_t CurrentParentSpan() {
  if (t_binding.trace == nullptr) return -1;
  return t_binding.stack.empty() ? t_binding.base_parent
                                 : t_binding.stack.back();
}

}  // namespace internal

Trace* CurrentTrace() { return t_binding.trace; }

TraceScope::TraceScope()
    : prev_(internal::SwapTraceBinding({&trace_, -1, {}})) {}
TraceScope::~TraceScope() { internal::SwapTraceBinding(std::move(prev_)); }

Trace::Trace(const Trace& other) : origin_(other.origin_) {
  std::vector<SpanRecord> copied;
  {
    MutexLock lock(other.mu_);
    copied = other.spans_;
  }
  budget_.store(other.span_budget(), std::memory_order_relaxed);
  dropped_.store(other.dropped_spans(), std::memory_order_relaxed);
  MutexLock lock(mu_);
  spans_ = std::move(copied);
}

Trace& Trace::operator=(const Trace& other) {
  if (this == &other) return *this;
  std::vector<SpanRecord> copied;
  {
    MutexLock lock(other.mu_);
    copied = other.spans_;
  }
  budget_.store(other.span_budget(), std::memory_order_relaxed);
  dropped_.store(other.dropped_spans(), std::memory_order_relaxed);
  MutexLock lock(mu_);
  origin_ = other.origin_;
  spans_ = std::move(copied);
  return *this;
}

Trace::Trace(Trace&& other) : origin_(other.origin_) {
  std::vector<SpanRecord> taken;
  {
    MutexLock lock(other.mu_);
    taken.swap(other.spans_);
  }
  budget_.store(other.span_budget(), std::memory_order_relaxed);
  dropped_.store(other.dropped_spans(), std::memory_order_relaxed);
  MutexLock lock(mu_);
  spans_ = std::move(taken);
}

Trace& Trace::operator=(Trace&& other) {
  if (this == &other) return *this;
  std::vector<SpanRecord> taken;
  {
    MutexLock lock(other.mu_);
    taken.swap(other.spans_);
  }
  budget_.store(other.span_budget(), std::memory_order_relaxed);
  dropped_.store(other.dropped_spans(), std::memory_order_relaxed);
  MutexLock lock(mu_);
  origin_ = other.origin_;
  spans_ = std::move(taken);
  return *this;
}

int32_t Trace::BeginSpan(std::string name) {
  SpanRecord rec;
  rec.name = std::move(name);
  rec.thread_id = CurrentThreadId();
  // Parent comes from this thread's open-span stack; when the trace was
  // propagated here by a TaskContext the stack is seeded with the
  // submitting span as base_parent, so worker spans nest under it.
  const bool bound = t_binding.trace == this;
  rec.parent = bound ? internal::CurrentParentSpan() : -1;
  rec.start_ns = NowNs();
  int32_t idx;
  {
    MutexLock lock(mu_);
    if (spans_.size() >= budget_.load(std::memory_order_relaxed)) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return -1;
    }
    rec.depth =
        rec.parent < 0 ? 0 : spans_[size_t(rec.parent)].depth + 1;
    idx = int32_t(spans_.size());
    spans_.push_back(std::move(rec));
  }
  if (bound) t_binding.stack.push_back(idx);
  return idx;
}

void Trace::EndSpan(int32_t idx) {
  if (idx < 0) return;
  uint64_t now = NowNs();
  {
    MutexLock lock(mu_);
    if (size_t(idx) >= spans_.size()) return;
    SpanRecord& rec = spans_[size_t(idx)];
    if (!rec.open) return;
    rec.dur_ns = now - rec.start_ns;
    rec.open = false;
  }
  // Scopes close in LIFO order per thread; tolerate out-of-order closes by
  // popping through (an open parent whose child outlived it would otherwise
  // pin the stack). Only this thread's stack is touched.
  if (t_binding.trace != this) return;
  while (!t_binding.stack.empty()) {
    int32_t top = t_binding.stack.back();
    t_binding.stack.pop_back();
    if (top == idx) break;
  }
}

uint64_t Trace::TotalDurationNs() const {
  uint64_t total = 0;
  for (const SpanRecord& s : spans_)
    if (s.parent < 0) total += s.dur_ns;
  return total;
}

namespace {
std::string FmtDurUs(uint64_t ns) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%.1f us", double(ns) / 1000.0);
  return buf;
}

// Depth-first order over the span forest: children grouped under their
// parent even when worker threads interleaved the append order.
void DfsOrder(const std::vector<SpanRecord>& spans,
              std::vector<size_t>* out) {
  size_t n = spans.size();
  // children[i] = indexes whose parent == i, ascending (begin order).
  std::vector<std::vector<size_t>> children(n);
  std::vector<size_t> roots;
  for (size_t i = 0; i < n; ++i) {
    int32_t p = spans[i].parent;
    if (p < 0 || size_t(p) >= n)
      roots.push_back(i);
    else
      children[size_t(p)].push_back(i);
  }
  out->reserve(n);
  std::vector<size_t> stack;
  for (size_t r = roots.size(); r > 0; --r) stack.push_back(roots[r - 1]);
  while (!stack.empty()) {
    size_t i = stack.back();
    stack.pop_back();
    out->push_back(i);
    for (size_t c = children[i].size(); c > 0; --c)
      stack.push_back(children[i][c - 1]);
  }
}
}  // namespace

std::string Trace::TreeString() const {
  std::vector<size_t> order;
  DfsOrder(spans_, &order);
  std::ostringstream os;
  for (size_t i : order) {
    const SpanRecord& s = spans_[i];
    for (int32_t d = 0; d < s.depth; ++d) os << "  ";
    os << (s.depth > 0 ? "- " : "") << s.name;
    size_t width = size_t(s.depth) * 2 + (s.depth > 0 ? 2 : 0) + s.name.size();
    for (size_t p = width; p < 40; ++p) os << ' ';
    os << " " << FmtDurUs(s.dur_ns) << " [t" << s.thread_id << "]";
    if (s.open) os << " (open)";
    os << "\n";
  }
  uint64_t dropped = dropped_spans();
  if (dropped > 0) os << "(" << dropped << " spans dropped over budget)\n";
  return os.str();
}

std::string Trace::ChromeTraceJson() const {
  JsonWriter w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const SpanRecord& s : spans_) {
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("ph").String("X")
        .Key("ts").Double(double(s.start_ns) / 1000.0)
        .Key("dur").Double(double(s.dur_ns) / 1000.0)
        .Key("pid").Int(1)
        .Key("tid").Uint(uint64_t(s.thread_id) + 1)
        .EndObject();
  }
  w.EndArray().EndObject();
  return w.Take();
}

void Trace::WriteSpansJson(JsonWriter& w) const {
  w.BeginArray();
  for (const SpanRecord& s : spans_) {
    w.BeginObject()
        .Key("name").String(s.name)
        .Key("parent").Int(s.parent)
        .Key("start_us").Double(double(s.start_ns) / 1000.0)
        .Key("dur_us").Double(double(s.dur_ns) / 1000.0)
        .Key("thread").Uint(s.thread_id)
        .EndObject();
  }
  w.EndArray();
}

}  // namespace statcube::obs
