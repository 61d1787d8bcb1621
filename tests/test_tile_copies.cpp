// Bitwise tests for the tile copies on the direct path: the cache-blocked
// adjoint behind the LQ kernels (adjoint_part and both AdjointScratch
// regions), the tiling copy in and out of TileMatrix, and the R/L factor
// extraction. Every copy is exact, so each one is compared bit for bit with
// an element-wise reference kept in this file. Shapes avoid multiples of the
// 8-element transpose block and of nb; every scalar type runs, so the
// conjugation of the complex adjoints is checked too.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/tiled_qr.hpp"
#include "kernels/lq_kernels.hpp"
#include "matrix/generate.hpp"
#include "matrix/tile_matrix.hpp"

namespace tiledqr {
namespace {

using kernels::detail::AdjointScratch;
using kernels::detail::Part;
using kernels::detail::Region;
using kernels::detail::Scratch;
using Scalars = ::testing::Types<float, double, std::complex<float>, std::complex<double>>;

template <typename T>
class TileCopies : public ::testing::Test {};
TYPED_TEST_SUITE(TileCopies, Scalars);

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// Bitwise equality of two equally shaped views, element by element.
template <typename T>
::testing::AssertionResult bitwise_equal(ConstMatrixView<T> got, ConstMatrixView<T> want) {
  if (got.rows() != want.rows() || got.cols() != want.cols())
    return ::testing::AssertionFailure() << "shape mismatch";
  for (std::int64_t j = 0; j < got.cols(); ++j)
    for (std::int64_t i = 0; i < got.rows(); ++i)
      if (!same_bits(got(i, j), want(i, j)))
        return ::testing::AssertionFailure() << "first difference at (" << i << ", " << j << ")";
  return ::testing::AssertionSuccess();
}

/// A value no copy produces, to show which elements a copy left alone.
template <typename T>
T sentinel() {
  return T(std::numeric_limits<RealType<T>>::quiet_NaN());
}

/// Reference: dst(j, i) = conj(src(i, j)) over `part` of src.
template <typename T>
void adjoint_reference(ConstMatrixView<T> src, MatrixView<T> dst, Part part) {
  for (std::int64_t j = 0; j < src.cols(); ++j)
    for (std::int64_t i = 0; i < src.rows(); ++i)
      if (part == Part::All || (part == Part::Lower ? i >= j : i <= j))
        dst(j, i) = conj_if_complex(src(i, j));
}

const std::vector<std::pair<int, int>> kAdjointShapes = {
    {1, 1}, {1, 13}, {13, 1}, {3, 3}, {8, 8}, {9, 7}, {13, 13}, {16, 16}, {17, 31}, {128, 128}};

TYPED_TEST(TileCopies, AdjointPartMatchesElementwise) {
  using T = TypeParam;
  for (auto [m, n] : kAdjointShapes) {
    // Strided source and destination: both views sit inside larger
    // matrices, whose borders must come through untouched.
    auto big = random_matrix<T>(m + 5, n + 3, std::uint64_t(31 * m + n));
    ConstMatrixView<T> src = big.sub(2, 1, m, n);
    Matrix<T> got(n + 4, m + 2), want(n + 4, m + 2);
    for (Part part : {Part::All, Part::Lower, Part::Upper}) {
      got.fill(sentinel<T>());
      want.fill(sentinel<T>());
      kernels::detail::adjoint_part(src, got.sub(1, 1, n, m), part);
      adjoint_reference(src, want.sub(1, 1, n, m), part);
      EXPECT_TRUE(bitwise_equal<T>(got.view(), want.view()))
          << m << "x" << n << " part " << int(part);
    }
  }
}

TYPED_TEST(TileCopies, AdjointScratchFullRoundTrip) {
  using T = TypeParam;
  for (int nb : {1, 3, 13, 128}) {
    auto tile = random_matrix<T>(nb, nb, std::uint64_t(nb));
    auto other = random_matrix<T>(nb, nb, std::uint64_t(nb) + 1000);
    auto written = random_matrix<T>(nb, nb, std::uint64_t(nb) + 2000);
    Matrix<T> want(nb, nb);
    {
      // Both slots live at once, as in a TSMLQ/TTMLQ task: distinct buffers.
      AdjointScratch<T> s(tile.view(), Region::Full, Scratch::Adjoint0);
      AdjointScratch<T> s2(other.view(), Region::Full, Scratch::Adjoint1);
      ASSERT_NE(s.view().data(), s2.view().data());
      adjoint_reference<T>(tile.view(), want.view(), Part::All);
      EXPECT_TRUE(bitwise_equal<T>(s.view(), want.view())) << "copy in, nb=" << nb;
      adjoint_reference<T>(other.view(), want.view(), Part::All);
      EXPECT_TRUE(bitwise_equal<T>(s2.view(), want.view())) << "second slot, nb=" << nb;
      copy<T>(written.view(), s.view());
      s.commit();
    }
    adjoint_reference<T>(written.view(), want.view(), Part::All);
    EXPECT_TRUE(bitwise_equal<T>(tile.view(), want.view())) << "commit, nb=" << nb;
  }
}

TYPED_TEST(TileCopies, AdjointScratchLowerTriangleTouchesOnlyItsRegion) {
  using T = TypeParam;
  for (int nb : {1, 3, 13, 128}) {
    auto tile = random_matrix<T>(nb, nb, std::uint64_t(nb) + 3000);
    const Matrix<T> before = tile;
    auto written = random_matrix<T>(nb, nb, std::uint64_t(nb) + 4000);
    {
      // Fill the slot first: the part outside the region keeps whatever the
      // slot held, so the check below reads only the region.
      Matrix<T> junk(nb, nb);
      junk.fill(sentinel<T>());
      AdjointScratch<T>(junk.view(), Region::Full, Scratch::Adjoint1);
    }
    AdjointScratch<T> s(tile.view(), Region::LowerTriangle, Scratch::Adjoint1);
    // The image of the tile's lower triangle is the scratch's upper one.
    for (std::int64_t j = 0; j < nb; ++j)
      for (std::int64_t i = j; i < nb; ++i)
        ASSERT_TRUE(same_bits(s.view()(j, i), conj_if_complex(before(i, j))))
            << "copy in (" << i << ", " << j << "), nb=" << nb;
    copy<T>(written.view(), s.view());
    s.commit();
    Matrix<T> want = before;
    adjoint_reference<T>(written.view(), want.view(), Part::Upper);
    EXPECT_TRUE(bitwise_equal<T>(tile.view(), want.view())) << "commit, nb=" << nb;
  }
}

/// Shapes (m, n, nb) for the tiling copies: single rows and columns, ragged
/// edge tiles, nb larger than the matrix, and exact multiples.
struct TilingShape {
  std::int64_t m, n;
  int nb;
};
const std::vector<TilingShape> kTilingShapes = {
    {1, 1, 1},    {1, 40, 3},  {40, 1, 3},   {1, 200, 128}, {200, 1, 128}, {7, 5, 1},
    {37, 29, 13}, {39, 26, 13}, {9, 9, 3},   {10, 11, 3},   {5, 4, 128},   {130, 257, 128},
    {256, 128, 128}};

/// Expected tiled buffer of `a`: tile (ti, tj) in storage order, zero past
/// the logical edge.
template <typename T>
T expected_tile_entry(ConstMatrixView<T> a, int nb, int ti, int tj, int ii, int jj) {
  const std::int64_t i = std::int64_t(ti) * nb + ii;
  const std::int64_t j = std::int64_t(tj) * nb + jj;
  return i < a.rows() && j < a.cols() ? a(i, j) : T(0);
}

template <typename T>
::testing::AssertionResult tiles_match(const TileMatrix<T>& got, ConstMatrixView<T> a, int nb) {
  for (int tj = 0; tj < got.nt(); ++tj)
    for (int ti = 0; ti < got.mt(); ++ti)
      for (int jj = 0; jj < nb; ++jj)
        for (int ii = 0; ii < nb; ++ii)
          if (!same_bits(got.tile(ti, tj)(ii, jj), expected_tile_entry(a, nb, ti, tj, ii, jj)))
            return ::testing::AssertionFailure()
                   << "tile (" << ti << ", " << tj << ") entry (" << ii << ", " << jj << ")";
  return ::testing::AssertionSuccess();
}

TYPED_TEST(TileCopies, FromDenseMatchesElementwiseWithZeroPadding) {
  using T = TypeParam;
  for (const auto& s : kTilingShapes) {
    // A strided source, and a heap left dirty by a same-sized tiled matrix,
    // so a padding entry the copy forgets to zero shows up.
    auto big = random_matrix<T>(s.m + 3, s.n + 2, std::uint64_t(s.m * 7 + s.n));
    ConstMatrixView<T> a = big.sub(1, 2, s.m, s.n);
    {
      TileMatrix<T> dirty(s.m, s.n, s.nb);
      dirty.fill(sentinel<T>());
    }
    auto tiles = TileMatrix<T>::from_dense(a, s.nb);
    EXPECT_TRUE(tiles_match(tiles, a, s.nb)) << s.m << "x" << s.n << " nb=" << s.nb;
  }
}

TYPED_TEST(TileCopies, ToDenseRoundTripIsExact) {
  using T = TypeParam;
  for (const auto& s : kTilingShapes) {
    auto a = random_matrix<T>(s.m, s.n, std::uint64_t(s.m + 11 * s.n));
    const Matrix<T> back = TileMatrix<T>::from_dense(a.view(), s.nb).to_dense();
    EXPECT_TRUE(bitwise_equal<T>(back.view(), a.view())) << s.m << "x" << s.n << " nb=" << s.nb;
  }
}

TYPED_TEST(TileCopies, PublicConstructorReturnsZeros) {
  using T = TypeParam;
  for (const auto& s : kTilingShapes) {
    {
      TileMatrix<T> dirty(s.m, s.n, s.nb);
      dirty.fill(sentinel<T>());
    }
    const TileMatrix<T> z(s.m, s.n, s.nb);
    Matrix<T> zeros(s.m, s.n);
    EXPECT_TRUE(tiles_match(z, ConstMatrixView<T>(zeros.view()), s.nb))
        << s.m << "x" << s.n << " nb=" << s.nb;
  }
}

/// Options for a small factorization with tile size nb.
core::Options small_options(int nb) {
  core::Options opt;
  opt.nb = nb;
  opt.ib = std::min(nb, 4);
  opt.threads = 2;
  return opt;
}

TYPED_TEST(TileCopies, RFactorMatchesElementwise) {
  using T = TypeParam;
  for (const auto& s : kTilingShapes) {
    if (s.m < s.n) continue;
    auto a = random_matrix<T>(s.m, s.n, std::uint64_t(5 * s.m + s.n));
    auto qr = core::TiledQr<T>::factorize(a.view(), small_options(s.nb));
    const TileMatrix<T>& f = qr.factors();
    const std::int64_t k = std::min(s.m, s.n);
    Matrix<T> want(k, s.n);
    for (std::int64_t j = 0; j < s.n; ++j)
      for (std::int64_t i = 0; i <= std::min(j, k - 1); ++i) want(i, j) = f.at(i, j);
    EXPECT_TRUE(bitwise_equal<T>(qr.r_factor().view(), want.view()))
        << s.m << "x" << s.n << " nb=" << s.nb;
  }
}

TYPED_TEST(TileCopies, LFactorMatchesElementwise) {
  using T = TypeParam;
  for (const auto& s : kTilingShapes) {
    if (s.m >= s.n) continue;
    auto a = random_matrix<T>(s.m, s.n, std::uint64_t(3 * s.m + s.n));
    auto lq = core::TiledQr<T>::factorize(a.view(), small_options(s.nb));
    const TileMatrix<T>& f = lq.factors();
    const std::int64_t k = std::min(s.m, s.n);
    Matrix<T> want(s.m, k);
    for (std::int64_t i = 0; i < s.m; ++i)
      for (std::int64_t j = 0; j <= std::min(i, k - 1); ++j) want(i, j) = f.at(i, j);
    EXPECT_TRUE(bitwise_equal<T>(lq.l_factor().view(), want.view()))
        << s.m << "x" << s.n << " nb=" << s.nb;
  }
}

}  // namespace
}  // namespace tiledqr
