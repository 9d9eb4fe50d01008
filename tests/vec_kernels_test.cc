// Unit tests for the block-at-a-time kernels (common/vec_block.h) and the
// fold of the coded group-by (exec::CodedGroupBy, driven through
// ExecuteQuery): block primitive semantics, the exactness gate that
// licenses reassociation, many groups at every morsel size, and the
// null/non-numeric/NaN edges of the flag-encoded measure slabs.

#include "statcube/common/vec_block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "coded_query.h"
#include "statcube/exec/parallel_kernels.h"

namespace statcube {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// ---------------------------------------------------------------------------
// Block primitives.

TEST(VecBlock, OrderedSumMatchesNaiveLoop) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(0.1 * double(i) + 0.003);
  double naive = 0.0;
  for (double d : v) naive += d;
  EXPECT_EQ(Bits(naive), Bits(vec::SumBlockOrdered(v.data(), v.size())));
  double naive_sq = 0.0;
  for (double d : v) naive_sq += d * d;
  EXPECT_EQ(Bits(naive_sq),
            Bits(vec::SumSqBlockOrdered(v.data(), v.size())));
}

TEST(VecBlock, FastSumIsExactOnIntegers) {
  // Integer-valued doubles below 2^53/n: every partial sum is exactly
  // representable, so the 4-lane reassociation must equal the ordered sum
  // bit-for-bit at every length (tails included).
  std::vector<double> v;
  for (int i = 0; i < 403; ++i) v.push_back(double((i * 7919) % 10007));
  for (size_t n : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(7),
                   size_t(64), size_t(403)}) {
    EXPECT_EQ(Bits(vec::SumBlockOrdered(v.data(), n)),
              Bits(vec::SumBlockFast(v.data(), n)))
        << "n=" << n;
    EXPECT_EQ(Bits(vec::SumSqBlockOrdered(v.data(), n)),
              Bits(vec::SumSqBlockFast(v.data(), n)))
        << "n=" << n;
  }
}

TEST(VecBlock, MinMaxBlock) {
  std::vector<double> v = {3.5, -2.0, 9.25, 9.25, -2.0, 0.0};
  EXPECT_EQ(-2.0, vec::MinBlock(v.data(), v.size()));
  EXPECT_EQ(9.25, vec::MaxBlock(v.data(), v.size()));
  EXPECT_EQ(3.5, vec::MinBlock(v.data(), 1));
  EXPECT_EQ(3.5, vec::MaxBlock(v.data(), 1));
}

TEST(VecBlock, CountFlagBits) {
  std::vector<uint8_t> flags = {3, 1, 0, 3, 2, 1, 3};
  EXPECT_EQ(5u, vec::CountFlagBits(flags.data(), flags.size(), 1));
  EXPECT_EQ(4u, vec::CountFlagBits(flags.data(), flags.size(), 2));
  EXPECT_EQ(0u, vec::CountFlagBits(flags.data(), 0, 1));
}

TEST(VecBlock, ReorderIsExactGate) {
  const double kMax = vec::kMaxExactDouble;  // 2^53
  // Integral (scale 0) and comfortably small: exact.
  EXPECT_TRUE(vec::ReorderIsExact(0, 1000.0, 1000));
  // n * max_abs crossing 2^53 disqualifies: a partial sum could round.
  EXPECT_TRUE(vec::ReorderIsExact(0, kMax / 4.0, 4));
  EXPECT_FALSE(vec::ReorderIsExact(0, kMax / 4.0, 5));
  // Empty blocks are trivially exact.
  EXPECT_TRUE(vec::ReorderIsExact(0, 0.0, 0));
  // A scale the numbers do not have licenses nothing: 0.5 is no multiple
  // of 2^0.
  EXPECT_FALSE(vec::ReorderIsExact(0, 0.5, 10));
}

// The scale is the smallest exponent of a lowest set bit among the
// nonzero numbers; zeros leave it alone, NaN and infinities revoke the
// licence through max_abs.
TEST(VecBlock, ScaleEvidenceRecordsBinaryScale) {
  auto evidence = [](std::initializer_list<double> xs) {
    vec::ScaleEvidence ev;
    for (double x : xs) ev.Note(x);
    return ev;
  };
  EXPECT_EQ(evidence({1, 3, 5}).scale, 0);
  EXPECT_EQ(evidence({2, 4, 12}).scale, 1);
  EXPECT_EQ(evidence({0.25, 1.5, 5000.75}).scale, -2);
  EXPECT_EQ(evidence({-0.25, 3}).scale, -2);
  EXPECT_EQ(evidence({0.1}).scale, -55);  // 0.1 = 0x1.999999999999ap-4
  const double tiny = std::numeric_limits<double>::denorm_min();  // 2^-1074
  EXPECT_EQ(evidence({tiny, 1.0}).scale, -1074);
  EXPECT_EQ(evidence({3 * tiny}).scale, -1074);
  EXPECT_EQ(evidence({4 * tiny}).scale, -1072);
  // Zeros of either sign are ignored; a set of zeros has no scale and
  // always re-adds exactly.
  vec::ScaleEvidence zeros = evidence({0.0, -0.0, 0.0});
  EXPECT_EQ(zeros.scale, vec::ScaleEvidence::kNoScale);
  EXPECT_EQ(zeros.max_abs, 0.0);
  EXPECT_TRUE(zeros.Licenses(1000000));
  EXPECT_TRUE(zeros.LicensesSquares(1000000));
  EXPECT_EQ(evidence({-0.0, 0.5}).scale, -1);
  EXPECT_EQ(evidence({-0.0, 0.5}).max_abs, 0.5);
  // NaN and the infinities leave no licence, whatever else was seen.
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()}) {
    vec::ScaleEvidence ev = evidence({1.0, bad, 2.0});
    EXPECT_FALSE(ev.Licenses(1)) << bad;
    EXPECT_FALSE(ev.LicensesSquares(1)) << bad;
    EXPECT_TRUE(ev.Licenses(0)) << bad;
  }
}

// Quarter values re-add exactly while n * max_abs <= 2^51, decided in
// integers: exactly at the bound, and not one quarter past it.
TEST(VecBlock, ReorderIsExactAtTheBinaryScaleBound) {
  // The dashboard's appends: (1..20000)/4 over 90,000 rows.
  vec::ScaleEvidence quarters;
  for (int k = 1; k <= 20000; ++k) quarters.Note(k / 4.0);
  EXPECT_EQ(quarters.scale, -2);
  EXPECT_TRUE(quarters.Licenses(90000));
  EXPECT_TRUE(quarters.LicensesSquares(90000));

  constexpr uint64_t kTwo53 = uint64_t(1) << 53;
  // (From n = 2 on, one step past the bound is still a double.)
  for (size_t n : {size_t(2), size_t(3), size_t(7), size_t(90000),
                   size_t(1) << 20}) {
    // The largest multiple of 2^-2 with n * m <= 2^51: m = floor(2^53/n)
    // quarters.
    const double at = std::ldexp(double(kTwo53 / n), -2);
    const double past = at + 0.25;
    EXPECT_TRUE(vec::ReorderIsExact(-2, at, n)) << n;
    EXPECT_FALSE(vec::ReorderIsExact(-2, past, n)) << n;
    // Integral data keep the licence they had: at 2^53 / n, not past it.
    EXPECT_TRUE(vec::ReorderIsExact(0, double(kTwo53 / n), n)) << n;
    EXPECT_FALSE(vec::ReorderIsExact(0, double(kTwo53 / n + 1), n)) << n;
  }
  // Subnormals: the scale reaches -1074, and the bound scales with it.
  const double tiny = std::numeric_limits<double>::denorm_min();
  vec::ScaleEvidence sub;
  sub.Note(tiny);
  sub.Note(1000 * tiny);
  EXPECT_TRUE(sub.Licenses(1000));
  vec::ScaleEvidence mixed;  // 1.0 in units of 2^-1074 is far past 2^53
  mixed.Note(tiny);
  mixed.Note(1.0);
  EXPECT_FALSE(mixed.Licenses(2));
  // The squared sum's gate doubles the scale and squares the magnitude.
  EXPECT_TRUE(vec::ReorderIsExact(-4, 0.25 * 0.25, 2));
  EXPECT_FALSE(quarters.LicensesSquares(size_t(1) << 26));
}

// What the licence promises: a licensed set sums to the same bits in any
// order, here a reversal, the reassociated block kernel and a pairwise
// tree.
TEST(VecBlock, LicensedQuarterSumsAreOrderFree) {
  std::vector<double> v;
  vec::ScaleEvidence ev;
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 4096; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v.push_back(double(1 + x % 80000) / 4 * (x % 3 == 0 ? -1 : 1));
    ev.Note(v.back());
  }
  ASSERT_TRUE(ev.Licenses(v.size()));
  const double ordered = vec::SumBlockOrdered(v.data(), v.size());
  std::vector<double> rev(v.rbegin(), v.rend());
  EXPECT_EQ(ordered, vec::SumBlockOrdered(rev.data(), rev.size()));
  EXPECT_EQ(ordered, vec::SumBlockFast(v.data(), v.size()));
  std::vector<double> tree = v;
  while (tree.size() > 1) {
    std::vector<double> next;
    for (size_t i = 0; i + 1 < tree.size(); i += 2)
      next.push_back(tree[i] + tree[i + 1]);
    if (tree.size() % 2 == 1) next.push_back(tree.back());
    tree.swap(next);
  }
  EXPECT_EQ(ordered, tree[0]);
}

TEST(VecBlock, SimdLevelNameIsKnown) {
  std::string level = vec::SimdLevelName();
  EXPECT_TRUE(level == "avx2" || level == "generic") << level;
}

// ---------------------------------------------------------------------------
// The coded group-by, through ExecuteQuery over hand-built objects, vs the
// Query() reference.

exec::ExecOptions Vec(int threads, size_t morsel_rows = 128) {
  exec::ExecOptions o;
  o.threads = threads;
  o.morsel_rows = morsel_rows;
  return o;
}

// A GROUP BY gives its packed key space a slot per key when the space is
// dense against the kept rows (at most max(1,024, 2 × kept rows) keys),
// and numbers the keys in first-occurrence order otherwise; a CUBE always
// numbers them, through a direct table on a dense key space and a hash
// table on a sparse one. Every shape must give Query()'s bits. The shapes
// below sit on either side of that rule.

// `query` with its BY list as a CUBE: "... BY a, b WHERE ..." becomes
// "... BY CUBE(a, b) WHERE ...".
std::string AsCube(std::string query) {
  const size_t by = query.find(" BY ") + 4;
  return query.insert(std::min(query.find(" WHERE"), query.size()), ")")
      .insert(by, "CUBE(");
}

TEST(VecGroupBy, NullsNonNumericsAndNaNs) {
  // The flag-encoded slabs must reproduce AggState::Add exactly: NULL rows
  // count toward `rows` only, a non-numeric cell toward `count` too, and a
  // NaN poisons its group's sum while min/max's `<` comparisons pass it
  // over. The NaN rows all fall in g0, so in g1..g4 avg and var show
  // `count` and `sum_sq`; count(v) shows `rows` and min/max their own bits.
  // The numbers are not integers, so a fold of these flagged slabs out of
  // row order shows in the sums' bits. Each group's numbers share a sign
  // (g0, g2, g4 positive), so a min or max that folded a gap row's stored
  // 0.0 would show too.
  //
  // The 600 edge cells are w = 'edge' and p = 'p0'; 2,000 filler cells,
  // one per p value, are w = 'fill'. So BY k is dense with or without the
  // WHERE, and BY k, p (5 × 2,001 keys) is sparse against 2,600 rows and
  // against the 600 the WHERE keeps. The CUBEs read each slab's arrays
  // back for the lattice, and the empty BYs (whole, g1's negative numbers,
  // g2's positive ones) reduce gap slabs with the block kernels.
  std::vector<std::pair<Row, Value>> cells;
  auto sign = [](int g) { return g % 2 == 0 ? 1.0 : -1.0; };
  for (int i = 0; i < 600; ++i) {
    Row coords = {Value(std::string("g").append(std::to_string(i % 5))),
                  Value("p0"), Value("edge")};
    if (i % 11 == 0) {
      cells.emplace_back(coords, Value::Null());
    } else if (i % 13 == 0) {
      cells.emplace_back(coords, Value("not-a-number"));
    } else if (i % 35 == 0) {
      cells.emplace_back(coords,
                         Value(std::numeric_limits<double>::quiet_NaN()));
    } else {
      cells.emplace_back(coords,
                         Value(sign(i % 5) * (0.1 * double(i) + 0.05)));
    }
  }
  for (int j = 0; j < 2000; ++j)
    cells.emplace_back(
        Row{Value(std::string("g").append(std::to_string(j % 5))),
            Value(std::string("p").append(std::to_string(j + 1))),
            Value("fill")},
        Value(sign(j % 5) * (double(j) + 0.25)));
  const StatisticalObject edges = CellObject("edges", {"k", "p", "w"}, cells);
  const std::string aggs =
      "SELECT sum(v), count(v), min(v), max(v), var(v), avg(v)";
  for (const char* tail :
       {" BY k", " BY k WHERE w = 'edge'", " BY k, p",
        " BY k, p WHERE w = 'edge'", " BY CUBE(k)",
        " BY CUBE(k) WHERE w = 'edge'", " BY CUBE(k, p)",
        " BY CUBE(k, p) WHERE w = 'edge'", "", " WHERE k = 'g1'",
        " WHERE k = 'g2'"})
    for (int threads : {1, 2, 4, 8})
      ExpectCodedMatchesQuery(edges, aggs + tail, Vec(threads));
}

// A grid of `rows` cells over a (`na` <= 400 numbers, negative and
// positive, int and double alternating) × b (`nb` <= 400 strings), with
// w = 'in' on every fourth row, 'few' on every fortieth (offset one) and
// 'out' elsewhere. Both attributes first occur out of
// Value::Compare order, so an emit in slot or group-id order shows. The
// (a, b) pairs repeat every 400 rows and v is not integral, so a group's
// sum shows its fold order.
StatisticalObject Grid(int na, int nb, int rows) {
  std::vector<std::pair<Row, Value>> cells;
  for (int i = 0; i < rows; ++i) {
    const int x = (i % 400 * 7) % na - na / 2;
    const Value a = x % 2 == 0 ? Value(int64_t(x)) : Value(double(x) + 0.5);
    const int b = (i % 400 * 13) % nb;
    const char* w = i % 4 == 0 ? "in" : (i % 40 == 1 ? "few" : "out");
    cells.emplace_back(
        Row{a, Value(std::string("b").append(std::to_string(b))), Value(w)},
        Value(0.1 * double(i % 97) + 0.01));
  }
  return CellObject("grid", {"a", "b", "w"}, cells);
}

TEST(VecGroupBy, ManyGroupsAtEveryMorselSize) {
  // 701 groups, each folding rows from many morsels of the pass; group
  // count and per-group bits must match serial exactly.
  std::vector<std::pair<Value, Value>> cells;
  for (int i = 0; i < 4096; ++i)
    cells.emplace_back(Value("key" + std::to_string(i % 701)),
                       Value(0.5 * double(i % 89)));
  const StatisticalObject many = KvObject("many", cells);
  const char* text = "SELECT sum(v), count() BY k";
  auto reference = Query(many, text);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(701u, reference->num_rows());
  // The density rule's two sides over 4,000 rows: unfiltered, 80 × 100 =
  // 8,000 keys are dense and 80 × 101 sparse; under w = 'in' (1,000 rows),
  // 40 × 50 = 2,000 are dense and 40 × 51 sparse; under w = 'few' (100
  // rows), 32 × 32 = 1,024 are dense and 32 × 33 sparse. Each query runs
  // as a CUBE too, whose numbering takes the same rule.
  const StatisticalObject dense = Grid(80, 100, 4000);
  const StatisticalObject sparse = Grid(80, 101, 4000);
  const StatisticalObject dense_in = Grid(40, 50, 4000);
  const StatisticalObject sparse_in = Grid(40, 51, 4000);
  const StatisticalObject dense_few = Grid(32, 32, 4000);
  const StatisticalObject sparse_few = Grid(32, 33, 4000);
  const char* all = "SELECT sum(v), min(v), count() BY a, b";
  const char* in = "SELECT sum(v), max(v), count() BY a, b WHERE w = 'in'";
  const char* few = "SELECT sum(v), avg(v) BY a, b WHERE w = 'few'";
  const std::pair<const StatisticalObject*, const char*> cases[] = {
      {&many, text},         {&dense, all},         {&sparse, all},
      {&dense, "SELECT avg(v) BY b"},               {&dense_in, in},
      {&sparse_in, in},      {&dense_few, few},     {&sparse_few, few}};
  // A size_t-max morsel makes the whole table one morsel: ParallelFor's
  // morsel count must not overflow to zero.
  for (const auto& [obj, query] : cases)
    for (const std::string& text : {std::string(query), AsCube(query)})
      for (size_t morsel : {size_t(128), std::numeric_limits<size_t>::max()})
        for (int threads : {1, 2, 4, 8})
          ExpectCodedMatchesQuery(*obj, text, Vec(threads, morsel));
}

}  // namespace
}  // namespace statcube
