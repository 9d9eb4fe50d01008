// Tests for the MOLAP storage structures of §6.2–6.5: dense linearized
// arrays and their one-pass range reduction, header compression, chunked
// (subcube) arrays, extendible arrays.
// Property sweeps check all structures agree with the dense reference across
// dimension shapes and densities.

#include <gtest/gtest.h>

#include <bit>
#include <string>
#include <tuple>

#include "statcube/common/rng.h"
#include "statcube/molap/chunked_array.h"
#include "statcube/molap/dense_array.h"
#include "statcube/molap/extendible_array.h"
#include "statcube/molap/header_compressed.h"

namespace statcube {
namespace {

// ---------------------------------------------------------------- Dense

TEST(DenseArrayTest, LinearizeRoundTrip) {
  DenseArray a({3, 4, 5});
  EXPECT_EQ(a.num_cells(), 60u);
  size_t expected = 0;
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j)
      for (size_t k = 0; k < 5; ++k) {
        auto pos = a.Linearize({i, j, k});
        ASSERT_TRUE(pos.ok());
        EXPECT_EQ(*pos, expected);  // row-major order
        EXPECT_EQ(a.Delinearize(*pos), (std::vector<size_t>{i, j, k}));
        ++expected;
      }
}

TEST(DenseArrayTest, BoundsChecked) {
  DenseArray a({2, 2});
  EXPECT_FALSE(a.Linearize({2, 0}).ok());
  EXPECT_FALSE(a.Linearize({0}).ok());
  EXPECT_FALSE(a.Set({5, 5}, 1.0).ok());
  EXPECT_FALSE(a.Get({0, 9}).ok());
}

TEST(DenseArrayTest, SumRange) {
  DenseArray a({4, 4});
  for (size_t i = 0; i < 4; ++i)
    for (size_t j = 0; j < 4; ++j)
      ASSERT_TRUE(a.Set({i, j}, double(i * 4 + j)).ok());
  auto s = a.SumRange({{1, 3}, {1, 3}});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 5 + 6 + 9 + 10);
  s = a.SumRange({{0, 4}, {0, 4}});
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 120.0);
  s = a.SumRange({{2, 2}, {0, 4}});  // empty slab
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 0.0);
  EXPECT_FALSE(a.SumRange({{0, 9}, {0, 4}}).ok());
}

// ------------------------------------------------- SumRangeBy (one pass)

// Cells like the parallel-equivalence arrays': inexact (0.1 * (i % 97) +
// 0.003, where the order of the adds shows in the bits), integers or
// quarters (which both take the block-sum path: their binary scale
// licenses it).
enum class Cells { kInexact, kIntegers, kQuarters };
DenseArray MakeArray(std::vector<size_t> shape, Cells cells) {
  DenseArray a(std::move(shape));
  for (size_t i = 0; i < a.num_cells(); ++i)
    a.SetLinear(i, cells == Cells::kInexact    ? 0.1 * double(i % 97) + 0.003
                   : cells == Cells::kIntegers ? double(i % 97)
                                               : double(i % 97) / 4);
  return a;
}

// The reference: total g (the last of `by` fastest) adds, in array order,
// every cell of `ranges` whose coordinate on each by[i] is g's code there.
std::vector<double> GroupSumsInArrayOrder(const DenseArray& a,
                                          const std::vector<DimRange>& ranges,
                                          const std::vector<size_t>& by) {
  std::vector<size_t> in_ranges;  // array positions, in array order
  std::vector<std::vector<size_t>> coords;  // and their coordinates
  for (size_t pos = 0; pos < a.num_cells(); ++pos) {
    std::vector<size_t> coord = a.Delinearize(pos);
    bool in = true;
    for (size_t d = 0; d < coord.size(); ++d)
      in = in && coord[d] >= ranges[d].lo && coord[d] < ranges[d].hi;
    if (!in) continue;
    in_ranges.push_back(pos);
    coords.push_back(std::move(coord));
  }
  size_t ntotals = 1;
  for (size_t d : by) ntotals *= ranges[d].width();
  std::vector<double> totals(ntotals, 0.0);
  for (size_t g = 0; g < ntotals; ++g) {
    std::vector<size_t> code(by.size());
    size_t rem = g;
    for (size_t i = by.size(); i-- > 0;) {
      code[i] = ranges[by[i]].lo + rem % ranges[by[i]].width();
      rem /= ranges[by[i]].width();
    }
    for (size_t k = 0; k < in_ranges.size(); ++k) {
      bool in = true;
      for (size_t i = 0; i < by.size(); ++i)
        in = in && coords[k][by[i]] == code[i];
      if (in) totals[g] += a.GetLinear(in_ranges[k]);
    }
  }
  return totals;
}

// One ChargeBytes per contiguous innermost segment of `ranges`.
BlockCounter SegmentCharges(const std::vector<DimRange>& ranges) {
  size_t segments = 1;
  for (size_t d = 0; d + 1 < ranges.size(); ++d)
    segments *= ranges[d].width();
  BlockCounter want;
  for (size_t s = 0; s < segments; ++s)
    want.ChargeBytes(ranges.back().width() * sizeof(double));
  return want;
}

TEST(DenseArrayTest, SumRangeByAddsEachGroupInArrayOrder) {
  for (const std::vector<size_t>& shape :
       {std::vector<size_t>{5, 6, 7, 4}, std::vector<size_t>{7, 5, 9}}) {
    const size_t n = shape.size();
    // Whole, interior, thin (one code on each leading dimension) and
    // empty (dimension 1).
    std::vector<std::vector<DimRange>> cases(4);
    for (size_t d = 0; d < n; ++d) {
      cases[0].push_back({0, shape[d]});
      cases[1].push_back({1, shape[d] - 1});
      cases[2].push_back(d + 1 < n ? DimRange{shape[d] / 2, shape[d] / 2 + 1}
                                   : DimRange{0, shape[d]});
      cases[3].push_back(d == 1 ? DimRange{2, 2} : DimRange{0, shape[d]});
    }
    // None, each single dimension, the innermost with an outer one (both
    // orders), a dimension listed twice, and all of them.
    std::vector<std::vector<size_t>> bys = {{}};
    for (size_t d = 0; d < n; ++d) bys.push_back({d});
    bys.push_back({0, n - 1});
    bys.push_back({n - 1, 0});
    bys.push_back({1, 1});
    bys.push_back({});
    for (size_t d = 0; d < n; ++d) bys.back().push_back(d);

    for (Cells cells : {Cells::kInexact, Cells::kIntegers, Cells::kQuarters}) {
      DenseArray a = MakeArray(shape, cells);
      for (size_t c = 0; c < cases.size(); ++c) {
        const std::vector<DimRange>& ranges = cases[c];
        const bool empty = c == 3;
        for (const auto& by : bys) {
          std::string what = std::to_string(n) + "d, case " +
                             std::to_string(c) + ", by {";
          for (size_t d : by) what += " " + std::to_string(d);
          what += cells == Cells::kInexact    ? " }"
                  : cells == Cells::kIntegers ? " }, integer cells"
                                              : " }, quarter cells";
          const uint64_t blocks0 = a.counter().blocks_read();
          const uint64_t bytes0 = a.counter().bytes_read();
          auto got = a.SumRangeBy(ranges, by);
          ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
          if (empty) {
            EXPECT_TRUE(got->empty()) << what;  // no totals, nothing read
            EXPECT_EQ(a.counter().bytes_read(), bytes0) << what;
            continue;
          }
          const std::vector<double> want =
              GroupSumsInArrayOrder(a, ranges, by);
          ASSERT_EQ(got->size(), want.size()) << what;
          for (size_t g = 0; g < want.size(); ++g)
            EXPECT_EQ(std::bit_cast<uint64_t>((*got)[g]),
                      std::bit_cast<uint64_t>(want[g]))
                << what << ", total " << g;
          const BlockCounter charged = SegmentCharges(ranges);
          EXPECT_EQ(a.counter().blocks_read() - blocks0,
                    charged.blocks_read())
              << what;
          EXPECT_EQ(a.counter().bytes_read() - bytes0, charged.bytes_read())
              << what;
        }
        // SumRange is the one total of no BY.
        auto total = a.SumRange(ranges);
        ASSERT_TRUE(total.ok());
        EXPECT_EQ(std::bit_cast<uint64_t>(*total),
                  std::bit_cast<uint64_t>(
                      empty ? 0.0
                          : GroupSumsInArrayOrder(a, ranges, {})[0]));
      }
    }
  }
}

TEST(DenseArrayTest, SumRangeByValidates) {
  DenseArray a = MakeArray({5, 6, 7, 4}, Cells::kInexact);
  const std::vector<DimRange> whole = {{0, 5}, {0, 6}, {0, 7}, {0, 4}};
  EXPECT_EQ(a.SumRangeBy({{0, 5}}, {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(a.SumRangeBy({{0, 5}, {0, 6}, {0, 7}, {0, 9}}, {0})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(a.SumRangeBy({{3, 2}, {0, 6}, {0, 7}, {0, 4}}, {0})
                .status()
                .code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(a.SumRangeBy(whole, {4}).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(a.counter().bytes_read(), 0u);
}

// A stop context that never fires changes nothing, even where one segment
// outlasts the cells between two checks; a fired one stops before the
// first cell.
TEST(DenseArrayTest, SumRangeByStops) {
  DenseArray a = MakeArray({3, 9000}, Cells::kInexact);
  const std::vector<DimRange> whole = {{0, 3}, {0, 9000}};
  CancellationToken token;
  CancelContext ctx;
  ctx.token = &token;
  for (const std::vector<size_t>& by :
       {std::vector<size_t>{}, std::vector<size_t>{0},
        std::vector<size_t>{1}}) {
    auto plain = a.SumRangeBy(whole, by);
    auto checked = a.SumRangeBy(whole, by, &ctx);
    ASSERT_TRUE(plain.ok() && checked.ok());
    ASSERT_EQ(plain->size(), checked->size());
    for (size_t g = 0; g < plain->size(); ++g)
      EXPECT_EQ(std::bit_cast<uint64_t>((*plain)[g]),
                std::bit_cast<uint64_t>((*checked)[g]));
  }
  token.Cancel();
  const uint64_t bytes0 = a.counter().bytes_read();
  EXPECT_EQ(a.SumRangeBy(whole, {0}, &ctx).status().ToString(),
            "Cancelled: query cancelled during groupby");
  EXPECT_EQ(a.counter().bytes_read(), bytes0);
}

TEST(DenseArrayTest, Density) {
  DenseArray a({10});
  ASSERT_TRUE(a.Set({3}, 5.0).ok());
  ASSERT_TRUE(a.Set({7}, 1.0).ok());
  EXPECT_DOUBLE_EQ(a.Density(), 0.2);
}

// ------------------------------------------------------ Header compression

TEST(HeaderCompressedTest, Figure21Example) {
  // The paper's Figure 21 sequence: values, nulls, value, nulls...
  std::vector<double> cells = {30173, 13457, 0, 0, 14362, 0, 0};
  HeaderCompressedArray h(cells);
  EXPECT_EQ(h.logical_size(), 7u);
  EXPECT_EQ(h.stored_count(), 3u);
  EXPECT_EQ(h.num_runs(), 2u);
  for (size_t i = 0; i < cells.size(); ++i) {
    auto v = h.Get(i);
    ASSERT_TRUE(v.ok());
    EXPECT_DOUBLE_EQ(*v, cells[i]) << i;
  }
  // Inverse mapping: stored index -> logical position.
  auto p = h.LogicalPositionOf(0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, 0u);
  p = h.LogicalPositionOf(2);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(*p, 4u);
  EXPECT_FALSE(h.LogicalPositionOf(3).ok());
  EXPECT_FALSE(h.Get(7).ok());
}

TEST(HeaderCompressedTest, AllNull) {
  HeaderCompressedArray h(std::vector<double>(100, 0.0));
  EXPECT_EQ(h.stored_count(), 0u);
  auto v = h.Get(50);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 0.0);
}

TEST(HeaderCompressedTest, NoNulls) {
  std::vector<double> cells;
  for (int i = 1; i <= 100; ++i) cells.push_back(double(i));
  HeaderCompressedArray h(cells);
  EXPECT_EQ(h.num_runs(), 1u);
  EXPECT_EQ(h.stored_count(), 100u);
  auto s = h.SumPositions(0, 100);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, 5050.0);
}

TEST(HeaderCompressedTest, CustomNullValue) {
  std::vector<double> cells = {-1, 5, -1, 7};
  HeaderCompressedArray h(cells, -1);
  EXPECT_EQ(h.stored_count(), 2u);
  auto v = h.Get(0);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, -1.0);
  v = h.Get(3);
  ASSERT_TRUE(v.ok());
  EXPECT_DOUBLE_EQ(*v, 7.0);
}

class HeaderCompressedSweep
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(HeaderCompressedSweep, RandomRoundTripAndRangeSums) {
  auto [density, seed] = GetParam();
  Rng rng(seed);
  std::vector<double> cells(4096);
  for (auto& c : cells)
    c = rng.Bernoulli(density) ? double(1 + rng.Uniform(1000)) : 0.0;
  HeaderCompressedArray h(cells);

  // Round trip every position.
  for (size_t i = 0; i < cells.size(); ++i) {
    auto v = h.Get(i);
    ASSERT_TRUE(v.ok());
    ASSERT_DOUBLE_EQ(*v, cells[i]) << i;
  }
  // Inverse mapping is consistent with forward.
  for (uint64_t s = 0; s < h.stored_count(); s += 17) {
    auto pos = h.LogicalPositionOf(s);
    ASSERT_TRUE(pos.ok());
    auto v = h.Get(*pos);
    ASSERT_TRUE(v.ok());
    EXPECT_NE(*v, 0.0);
  }
  // Random range sums match the dense reference.
  for (int trial = 0; trial < 30; ++trial) {
    uint64_t a = rng.Uniform(cells.size());
    uint64_t b = rng.Uniform(cells.size());
    if (a > b) std::swap(a, b);
    double ref = 0;
    for (uint64_t i = a; i < b; ++i) ref += cells[i];
    auto s = h.SumPositions(a, b);
    ASSERT_TRUE(s.ok());
    EXPECT_DOUBLE_EQ(*s, ref) << "[" << a << "," << b << ")";
  }
  // Sparse inputs must actually compress.
  if (density <= 0.1) {
    EXPECT_GT(h.CompressionRatio(), 2.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Densities, HeaderCompressedSweep,
    ::testing::Values(std::make_tuple(0.01, 1ull), std::make_tuple(0.05, 2ull),
                      std::make_tuple(0.1, 3ull), std::make_tuple(0.5, 4ull),
                      std::make_tuple(0.9, 5ull)));

// --------------------------------------------------------------- Chunked

class ChunkedSweep : public ::testing::TestWithParam<
                         std::tuple<std::vector<size_t>, std::vector<size_t>>> {};

TEST_P(ChunkedSweep, AgreesWithDense) {
  auto [shape, chunk_shape] = GetParam();
  DenseArray dense(shape);
  ChunkedArray chunked(shape, chunk_shape);
  Rng rng(99);
  size_t ndims = shape.size();
  // Fill both identically.
  std::vector<size_t> coord(ndims);
  for (int n = 0; n < 500; ++n) {
    for (size_t i = 0; i < ndims; ++i) coord[i] = rng.Uniform(shape[i]);
    double v = double(rng.Uniform(100));
    ASSERT_TRUE(dense.Set(coord, v).ok());
    ASSERT_TRUE(chunked.Set(coord, v).ok());
  }
  // Point reads agree.
  for (int n = 0; n < 100; ++n) {
    for (size_t i = 0; i < ndims; ++i) coord[i] = rng.Uniform(shape[i]);
    EXPECT_DOUBLE_EQ(*chunked.Get(coord), *dense.Get(coord));
  }
  // Range sums agree.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<DimRange> ranges(ndims);
    for (size_t i = 0; i < ndims; ++i) {
      size_t a = rng.Uniform(shape[i] + 1), b = rng.Uniform(shape[i] + 1);
      if (a > b) std::swap(a, b);
      ranges[i] = {a, b};
    }
    auto s1 = dense.SumRange(ranges);
    auto s2 = chunked.SumRange(ranges);
    ASSERT_TRUE(s1.ok());
    ASSERT_TRUE(s2.ok());
    EXPECT_DOUBLE_EQ(*s2, *s1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChunkedSweep,
    ::testing::Values(
        std::make_tuple(std::vector<size_t>{16, 16},
                        std::vector<size_t>{4, 4}),
        std::make_tuple(std::vector<size_t>{17, 13},
                        std::vector<size_t>{4, 5}),  // ragged chunks
        std::make_tuple(std::vector<size_t>{8, 8, 8},
                        std::vector<size_t>{3, 3, 3}),
        std::make_tuple(std::vector<size_t>{5, 7, 9, 3},
                        std::vector<size_t>{2, 3, 4, 2}),
        std::make_tuple(std::vector<size_t>{100},
                        std::vector<size_t>{7})));

TEST(ChunkedArrayTest, ChunksOverlapped) {
  ChunkedArray a({16, 16}, {4, 4});
  EXPECT_EQ(a.num_chunks(), 16u);
  auto n = a.ChunksOverlapped({{0, 4}, {0, 4}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);
  n = a.ChunksOverlapped({{3, 5}, {3, 5}});  // straddles 4 chunks
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4u);
  n = a.ChunksOverlapped({{0, 16}, {0, 16}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 16u);
  n = a.ChunksOverlapped({{2, 2}, {0, 16}});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
}

TEST(ChunkedArrayTest, RangeQueryTouchesFewerBytesThanDenseScan) {
  // The Figure 23 claim: a small dice on a big cube reads only the
  // overlapping subcubes.
  std::vector<size_t> shape = {64, 64, 64};
  DenseArray dense(shape);
  ChunkedArray chunked(shape, {8, 8, 8});
  std::vector<DimRange> dice = {{8, 16}, {8, 16}, {8, 16}};
  dense.counter().Reset();
  chunked.counter().Reset();
  (void)*dense.SumRange(dice);
  (void)*chunked.SumRange(dice);
  // Dense reads 64 segments of 8 doubles (64 blocks); chunked reads exactly
  // one 8x8x8 chunk (4096 bytes = 1 block).
  EXPECT_LT(chunked.counter().blocks_read(), dense.counter().blocks_read());
}

TEST(ChunkAdvisorTest, ShapesChunksLikeTheQuery) {
  // Anisotropic queries (long in dim 0) get anisotropic chunks.
  auto advised = AdviseChunkShape({128, 128, 128}, {64, 4, 4}, 1024);
  EXPECT_GT(advised[0], advised[1]);
  EXPECT_EQ(advised[1], advised[2]);
  size_t cells = advised[0] * advised[1] * advised[2];
  EXPECT_GE(cells, 256u);
  EXPECT_LE(cells, 4096u);
}

TEST(ChunkAdvisorTest, ClampsToArrayBounds) {
  auto advised = AdviseChunkShape({8, 8}, {100, 1}, 4096);
  EXPECT_LE(advised[0], 8u);
  EXPECT_GE(advised[1], 1u);
  EXPECT_TRUE(AdviseChunkShape({}, {}, 10).empty());
  // Zero query extents are treated as 1.
  auto z = AdviseChunkShape({16, 16}, {0, 0}, 16);
  EXPECT_GE(z[0], 1u);
}

TEST(ChunkAdvisorTest, AdvisedChunksBeatSymmetricOnSkewedQueries) {
  // Queries are 32x2x2 slabs; compare chunks shaped by the advisor against
  // symmetric cubes of the same volume.
  std::vector<size_t> shape = {64, 64, 64};
  std::vector<size_t> qshape = {32, 2, 2};
  auto advised_shape = AdviseChunkShape(shape, qshape, 512);
  ChunkedArray advised(shape, advised_shape);
  ChunkedArray symmetric(shape, {8, 8, 8});  // 512 cells, cube-shaped
  Rng rng(31);
  uint64_t advised_chunks = 0, symmetric_chunks = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<DimRange> q(3);
    for (size_t i = 0; i < 3; ++i) {
      size_t lo = rng.Uniform(shape[i] - qshape[i]);
      q[i] = {lo, lo + qshape[i]};
    }
    advised_chunks += *advised.ChunksOverlapped(q);
    symmetric_chunks += *symmetric.ChunksOverlapped(q);
  }
  EXPECT_LT(advised_chunks, symmetric_chunks);
}

// ------------------------------------------------------------- Extendible

TEST(ExtendibleArrayTest, StartsAsOneSegment) {
  ExtendibleArray a({3, 3});
  EXPECT_EQ(a.num_segments(), 1u);
  EXPECT_EQ(a.num_cells(), 9u);
  ASSERT_TRUE(a.Set({2, 2}, 5.0).ok());
  EXPECT_DOUBLE_EQ(*a.Get({2, 2}), 5.0);
}

TEST(ExtendibleArrayTest, ExpandPreservesExistingCells) {
  ExtendibleArray a({2, 2});
  for (size_t i = 0; i < 2; ++i)
    for (size_t j = 0; j < 2; ++j)
      ASSERT_TRUE(a.Set({i, j}, double(10 * i + j)).ok());
  ASSERT_TRUE(a.Expand(0, 2).ok());  // rows 2..3
  ASSERT_TRUE(a.Expand(1, 1).ok());  // col 2
  EXPECT_EQ(a.shape(), (std::vector<size_t>{4, 3}));
  EXPECT_EQ(a.num_segments(), 3u);
  for (size_t i = 0; i < 2; ++i)
    for (size_t j = 0; j < 2; ++j)
      EXPECT_DOUBLE_EQ(*a.Get({i, j}), double(10 * i + j));
  // New cells are addressable and zero.
  EXPECT_DOUBLE_EQ(*a.Get({3, 2}), 0.0);
  ASSERT_TRUE(a.Set({3, 2}, 7.0).ok());
  EXPECT_DOUBLE_EQ(*a.Get({3, 2}), 7.0);
  ASSERT_TRUE(a.Set({0, 2}, 3.0).ok());  // old row, new column
  EXPECT_DOUBLE_EQ(*a.Get({0, 2}), 3.0);
}

TEST(ExtendibleArrayTest, InterleavedExpansionsAgreeWithDense) {
  // Property: after a random sequence of expansions and writes, every cell
  // matches a plain map-based reference.
  Rng rng(7);
  ExtendibleArray a({2, 2, 2});
  std::vector<size_t> shape = {2, 2, 2};
  std::map<std::vector<size_t>, double> ref;
  for (int step = 0; step < 200; ++step) {
    if (rng.Bernoulli(0.15)) {
      size_t dim = rng.Uniform(3);
      size_t by = 1 + rng.Uniform(2);
      ASSERT_TRUE(a.Expand(dim, by).ok());
      shape[dim] += by;
    } else {
      std::vector<size_t> c = {rng.Uniform(shape[0]), rng.Uniform(shape[1]),
                               rng.Uniform(shape[2])};
      double v = double(1 + rng.Uniform(1000));
      ASSERT_TRUE(a.Set(c, v).ok());
      ref[c] = v;
    }
  }
  for (const auto& [c, v] : ref) EXPECT_DOUBLE_EQ(*a.Get(c), v);
  // SumRange over the full cube equals the sum of all writes.
  double total = 0;
  for (const auto& [c, v] : ref) total += v;
  std::vector<DimRange> full = {{0, shape[0]}, {0, shape[1]}, {0, shape[2]}};
  auto s = a.SumRange(full);
  ASSERT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(*s, total);
}

TEST(ExtendibleArrayTest, SubRangeSumsAgainstReference) {
  Rng rng(21);
  ExtendibleArray a({3, 3});
  ASSERT_TRUE(a.Expand(0, 2).ok());
  ASSERT_TRUE(a.Expand(1, 3).ok());
  ASSERT_TRUE(a.Expand(0, 1).ok());
  std::vector<size_t> shape = {6, 6};
  std::vector<std::vector<double>> ref(6, std::vector<double>(6, 0.0));
  for (size_t i = 0; i < 6; ++i)
    for (size_t j = 0; j < 6; ++j) {
      double v = double(rng.Uniform(50));
      ASSERT_TRUE(a.Set({i, j}, v).ok());
      ref[i][j] = v;
    }
  for (int trial = 0; trial < 40; ++trial) {
    size_t a0 = rng.Uniform(7), b0 = rng.Uniform(7);
    size_t a1 = rng.Uniform(7), b1 = rng.Uniform(7);
    if (a0 > b0) std::swap(a0, b0);
    if (a1 > b1) std::swap(a1, b1);
    double expect = 0;
    for (size_t i = a0; i < b0; ++i)
      for (size_t j = a1; j < b1; ++j) expect += ref[i][j];
    auto s = a.SumRange({{a0, b0}, {a1, b1}});
    ASSERT_TRUE(s.ok());
    EXPECT_DOUBLE_EQ(*s, expect) << a0 << b0 << a1 << b1;
  }
}

TEST(ExtendibleArrayTest, AppendChargesOnlyNewSlab) {
  ExtendibleArray a({100, 100});
  a.counter().Reset();
  ASSERT_TRUE(a.Expand(0, 1).ok());  // one new row: 100 cells
  EXPECT_LE(a.counter().bytes_read(), 100 * sizeof(double) + 64);
}

TEST(ExtendibleArrayTest, Validation) {
  ExtendibleArray a({2, 2});
  EXPECT_FALSE(a.Expand(5, 1).ok());
  EXPECT_TRUE(a.Expand(0, 0).ok());  // no-op
  EXPECT_EQ(a.num_segments(), 1u);
  EXPECT_FALSE(a.Get({2, 0}).ok());
  EXPECT_FALSE(a.SumRange({{0, 3}, {0, 2}}).ok());
}

}  // namespace
}  // namespace statcube
