// The inputs of the round-trip tests in serve_test, csv_test and
// cache_test: every class of double, the int64 edges, and a string hostile
// to JSON, CSV and cache-key syntax. A machine-readable encoding of a cell
// must give back its type and bits.

#ifndef STATCUBE_TESTS_ROUND_TRIP_CELLS_H_
#define STATCUBE_TESTS_ROUND_TRIP_CELLS_H_

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "statcube/common/value.h"

namespace statcube {

inline std::vector<Value> RoundTripCells() {
  const double two53 = 9007199254740992.0;
  return {Value(0.0),
          Value(-0.0),
          Value(std::numeric_limits<double>::denorm_min()),
          Value(0.1),
          Value(1.0 / 3),
          Value(two53),
          Value(std::nextafter(two53, INFINITY)),  // the double above 2^53
          Value(int64_t(1) << 53),
          Value((int64_t(1) << 53) + 1),
          Value(1e21),
          Value(DBL_MAX),
          Value(-DBL_MAX),
          Value(std::numeric_limits<int64_t>::min()),
          Value(std::numeric_limits<int64_t>::max()),
          Value(std::nan("")),
          Value(INFINITY),
          Value(-INFINITY),
          Value(std::string("q\"uote,comma\\back&d=string:x\x01"))};
}

// The bits of `d`: -0.0 differs from 0.0, and NaN equals itself.
inline uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

// Same type and, for doubles, the same bits.
inline bool SameBits(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  if (a.type() == ValueType::kDouble)
    return DoubleBits(a.AsDouble()) == DoubleBits(b.AsDouble());
  return a == b;
}

}  // namespace statcube

#endif  // STATCUBE_TESTS_ROUND_TRIP_CELLS_H_
