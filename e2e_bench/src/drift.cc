// The drift reference kernel and the adjustment it implies.
//
// On a shared virtual CPU the machine's speed wanders by tens of percent
// within a minute, and every op time wanders with it. The kernel below is a
// fixed piece of harness work with the same ingredients as a query (string
// formatting, hashing, probing, sorting, number printing) and a working set
// of a few MiB. Sampling it around each stretch of ops measures the speed of
// the machine at that moment, and each op time is scaled by
// (ref_nominal / ref_local)^elasticity (kRefElasticity, or
// kRefAppendElasticity for an append batch); a program change moves only
// the op.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "harness.h"

namespace e2e {

namespace {

// Written after every run so the compiler cannot drop the kernel's work.
volatile uint64_t g_sink = 0;

constexpr size_t kArenaBytes = size_t(8) << 20;
constexpr size_t kRows = 30000;
constexpr size_t kLabelBytes = 16;
constexpr size_t kSlots = 8192;  // power of two, above the 3000 groups
constexpr uint64_t kGroups = 3000;

struct Slot {
  const char* label;
  double sum;
  uint64_t count;
};

static_assert(kRows * (sizeof(uint64_t) + kLabelBytes) +
                      kSlots * (sizeof(Slot) + 32) + 4 * 64 <=
                  kArenaBytes,
              "the kernel's buffers must fit its arena");

}  // namespace

RefKernel::RefKernel() : arena_bytes_(kArenaBytes) {
  arena_.reset(new unsigned char[arena_bytes_]);
  std::memset(arena_.get(), 0, arena_bytes_);
}

double RefKernel::RunMs() {
  const int64_t t0 = NowNs();
  unsigned char* base = arena_.get();
  size_t used = 0;
  auto alloc = [&](size_t bytes) {
    unsigned char* p = base + used;
    used += (bytes + 63) & ~size_t(63);
    return p;
  };

  // Rows: a 64-bit key and a short decimal label per row.
  auto* keys = reinterpret_cast<uint64_t*>(alloc(kRows * sizeof(uint64_t)));
  auto* labels = reinterpret_cast<char*>(alloc(kRows * kLabelBytes));
  uint64_t x = 0x9e3779b97f4a7c15ull;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys[i] = x;
    char* l = labels + i * kLabelBytes;
    std::memset(l, 0, kLabelBytes);
    l[0] = 'g';
    std::to_chars(l + 1, l + kLabelBytes, x % kGroups);
  }

  // Hash aggregation by label: open addressing, byte compare on probe.
  auto* slots = reinterpret_cast<Slot*>(alloc(kSlots * sizeof(Slot)));
  std::memset(slots, 0, kSlots * sizeof(Slot));
  for (size_t i = 0; i < kRows; ++i) {
    const char* l = labels + i * kLabelBytes;
    size_t s = Fnv1a(std::string_view(l, strnlen(l, kLabelBytes))) &
               (kSlots - 1);
    while (slots[s].label != nullptr &&
           std::memcmp(slots[s].label, l, kLabelBytes) != 0)
      s = (s + 1) & (kSlots - 1);
    if (slots[s].label == nullptr) slots[s].label = l;
    slots[s].sum += double(keys[i] & 0xffff) * 0.5;
    ++slots[s].count;
  }

  std::sort(keys, keys + kRows);

  // Print every group's sum.
  auto* out = reinterpret_cast<char*>(alloc(kSlots * 32));
  size_t written = 0;
  for (size_t s = 0; s < kSlots; ++s) {
    if (slots[s].label == nullptr) continue;
    auto r = std::to_chars(out + written, out + written + 32, slots[s].sum);
    written = size_t(r.ptr - out);
  }
  g_sink = g_sink + keys[kRows / 2] + written;
  return double(NowNs() - t0) / 1e6;
}

double RefKernel::SampleMs() {
  double a = RunMs(), b = RunMs(), c = RunMs();
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

void DriftClock::Warm() {
  for (int i = 0; i < 5; ++i) kernel_.RunMs();
}

void DriftClock::Sample(int samples) {
  const int64_t start = NowNs();
  std::vector<double> ms;
  for (int i = 0; i < samples; ++i) ms.push_back(kernel_.SampleMs());
  samples_.emplace_back(start + (NowNs() - start) / 2, Median(std::move(ms)));
}

double DriftClock::Factor(int64_t t0_ns, int64_t t1_ns,
                          double elasticity) const {
  const std::pair<int64_t, double>* before = nullptr;
  const std::pair<int64_t, double>* after = nullptr;
  for (const auto& s : samples_) {
    if (s.first <= t0_ns) before = &s;
    if (s.first >= t1_ns && after == nullptr) after = &s;
  }
  double local = 0;
  if (before != nullptr && after != nullptr)
    local = (before->second + after->second) / 2;
  else if (before != nullptr)
    local = before->second;
  else if (after != nullptr)
    local = after->second;
  else
    return 1.0;
  return std::pow(nominal_ms_ / local, elasticity);
}

double DriftClock::MedianRefMs() const {
  std::vector<double> v;
  v.reserve(samples_.size());
  for (const auto& s : samples_) v.push_back(s.second);
  return Median(std::move(v));
}

}  // namespace e2e
