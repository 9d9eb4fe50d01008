#include "statcube/common/vec_block.h"

#include <bit>
#include <cmath>
#include <limits>

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace statcube::vec {

namespace {

double SumBlockFastGeneric(const double* v, size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += v[i];
    l1 += v[i + 1];
    l2 += v[i + 2];
    l3 += v[i + 3];
  }
  double s = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) s += v[i];
  return s;
}

double SumSqBlockFastGeneric(const double* v, size_t n) {
  double l0 = 0.0, l1 = 0.0, l2 = 0.0, l3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    l0 += v[i] * v[i];
    l1 += v[i + 1] * v[i + 1];
    l2 += v[i + 2] * v[i + 2];
    l3 += v[i + 3] * v[i + 3];
  }
  double s = (l0 + l1) + (l2 + l3);
  for (; i < n; ++i) s += v[i] * v[i];
  return s;
}

#if defined(__x86_64__) || defined(_M_X64)

// Structurally identical to the generic 4-lane loops (same lane assignment,
// same (l0+l1)+(l2+l3) combine, same in-order tail), so both dispatch
// targets produce the same bits even outside the exactness gate.
__attribute__((target("avx2"))) double SumBlockFastAvx2(const double* v,
                                                        size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4)
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(v + i));
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += v[i];
  return s;
}

__attribute__((target("avx2"))) double SumSqBlockFastAvx2(const double* v,
                                                          size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d x = _mm256_loadu_pd(v + i);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) s += v[i] * v[i];
  return s;
}

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2") != 0; }

#else

bool CpuHasAvx2() { return false; }

#endif  // x86_64

using BlockSumFn = double (*)(const double*, size_t);

// One-time dispatch: resolved at first use, never changes afterwards.
struct Dispatch {
  BlockSumFn sum;
  BlockSumFn sum_sq;
  const char* level;
};

const Dispatch& GetDispatch() {
  static const Dispatch d = [] {
#if defined(__x86_64__) || defined(_M_X64)
    if (CpuHasAvx2()) return Dispatch{SumBlockFastAvx2, SumSqBlockFastAvx2,
                                      "avx2"};
#endif
    return Dispatch{SumBlockFastGeneric, SumSqBlockFastGeneric, "generic"};
  }();
  return d;
}

}  // namespace

double SumBlockOrdered(const double* v, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += v[i];
  return s;
}

double SumBlockFast(const double* v, size_t n) {
  return GetDispatch().sum(v, n);
}

double SumSqBlockOrdered(const double* v, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) s += v[i] * v[i];
  return s;
}

double SumSqBlockFast(const double* v, size_t n) {
  return GetDispatch().sum_sq(v, n);
}

double MinBlock(const double* v, size_t n) {
  double m = v[0];
  for (size_t i = 1; i < n; ++i) m = v[i] < m ? v[i] : m;
  return m;
}

double MaxBlock(const double* v, size_t n) {
  double m = v[0];
  for (size_t i = 1; i < n; ++i) m = v[i] > m ? v[i] : m;
  return m;
}

size_t CountFlagBits(const uint8_t* flags, size_t n, uint8_t bit) {
  size_t c = 0;
  for (size_t i = 0; i < n; ++i) c += (flags[i] & bit) != 0 ? 1 : 0;
  return c;
}

bool ReorderIsExact(int scale, double max_abs, size_t n) {
  if (n == 0 || max_abs == 0.0) return true;
  if (!(max_abs <= std::numeric_limits<double>::max())) return false;
  // In units of 2^scale the largest magnitude is the integer m, and every
  // partial sum is an integer of magnitude at most n * m. That is exact
  // while n * m <= 2^53, i.e. m <= floor(2^53 / n) in integers. A scale
  // the numbers do not have (m not an integer) licenses nothing.
  const double m = std::ldexp(max_abs, -scale);
  if (!(m <= kMaxExactDouble) || m != std::trunc(m)) return false;
  constexpr uint64_t kTwo53 = uint64_t(1) << 53;
  return uint64_t(m) <= kTwo53 / uint64_t(n);
}

void ScaleEvidence::Note(double x) {
  const double a = std::fabs(x);
  if (!(a <= std::numeric_limits<double>::max())) {  // NaN or an infinity
    max_abs = std::numeric_limits<double>::infinity();
    return;
  }
  if (a == 0.0) return;
  if (a > max_abs) max_abs = a;
  // x = significand * 2^(biased exponent - 1075) for a normal number (the
  // significand carries the implicit bit), significand * 2^-1074 for a
  // subnormal; its lowest set bit sets the scale.
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const int biased = int((bits >> 52) & 0x7ff);
  const uint64_t frac = bits & ((uint64_t(1) << 52) - 1);
  const uint64_t significand =
      biased == 0 ? frac : frac | (uint64_t(1) << 52);
  const int low = (biased == 0 ? -1074 : biased - 1075) +
                  std::countr_zero(significand);
  if (low < scale) scale = low;
}

const char* SimdLevelName() { return GetDispatch().level; }

}  // namespace statcube::vec
