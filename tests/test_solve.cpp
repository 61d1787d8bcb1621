// Tests for the solver layer: apply_q round trips, least squares against the
// reference solver, and square-system solves.
#include <gtest/gtest.h>

#include <complex>

#include "core/qr_session.hpp"
#include "core/tiled_qr.hpp"
#include "kernels/reference_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using core::Options;
using core::TiledQr;
using kernels::ApplyTrans;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

Options small_opts(TreeKind kind = TreeKind::Greedy, KernelFamily fam = KernelFamily::TT) {
  Options opt;
  opt.tree = TreeConfig{kind, fam, 2, 1};
  opt.nb = 8;
  opt.ib = 4;
  opt.threads = 2;
  return opt;
}

using Scalars = ::testing::Types<double, std::complex<double>>;

template <typename T>
class SolveTyped : public ::testing::Test {};
TYPED_TEST_SUITE(SolveTyped, Scalars);

TYPED_TEST(SolveTyped, ApplyQRoundTrip) {
  using T = TypeParam;
  const int m = 40, n = 24;
  auto a = random_matrix<T>(m, n, 3);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto c0 = random_matrix<T>(m, 2 * 8, 5);
  auto c = TileMatrix<T>::from_dense(c0.view(), 8);
  qr.apply_q(ApplyTrans::NoTrans, c);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  auto back = c.to_dense();
  EXPECT_LE(double(difference_norm<T>(back.view(), c0.view())), 1e-11);
}

TYPED_TEST(SolveTyped, QtAOnTilesEqualsR) {
  using T = TypeParam;
  const int m = 32, n = 16;
  auto a = random_matrix<T>(m, n, 7);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto c = TileMatrix<T>::from_dense(a.view(), 8);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  auto qta = c.to_dense();
  auto r = qr.r_factor();
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) {
      T want = (i <= j && i < n) ? r(i, j) : T(0);
      EXPECT_LE(std::abs(qta(i, j) - want), 1e-11) << i << "," << j;
    }
}

TYPED_TEST(SolveTyped, LeastSquaresMatchesReference) {
  using T = TypeParam;
  const int m = 45, n = 17;  // ragged on purpose
  auto a = random_matrix<T>(m, n, 11);
  auto b = random_matrix<T>(m, 3, 13);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto x = qr.solve_least_squares(b.view());
  auto xref = kernels::reference_least_squares<T>(a.view(), b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xref.view())), 1e-10);
}

TYPED_TEST(SolveTyped, LeastSquaresResidualOrthogonalToRange) {
  using T = TypeParam;
  const int m = 64, n = 20;
  auto a = random_matrix<T>(m, n, 17);
  auto b = random_matrix<T>(m, 1, 19);
  auto qr = TiledQr<T>::factorize(a.view(), small_opts(TreeKind::Fibonacci));
  auto x = qr.solve_least_squares(b.view());
  Matrix<T> r(m, 1);
  copy(b.view(), r.view());
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), x.view(), T(-1), r.view());
  Matrix<T> atr(n, 1);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), a.view(), r.view(), T(0), atr.view());
  EXPECT_LE(double(frobenius_norm<T>(atr.view())), 1e-10);
}

TYPED_TEST(SolveTyped, SquareSolve) {
  using T = TypeParam;
  const int n = 32;
  auto a = random_matrix<T>(n, n, 23);
  for (int i = 0; i < n; ++i) a(i, i) += T(8);  // well-conditioned
  auto xtrue = random_matrix<T>(n, 2, 29);
  Matrix<T> b(n, 2);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), xtrue.view(), T(0), b.view());
  auto qr = TiledQr<T>::factorize(a.view(), small_opts());
  auto x = qr.solve(b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xtrue.view()) / frobenius_norm<T>(xtrue.view())),
            1e-10);
}

TYPED_TEST(SolveTyped, ExactlySolvableOverdeterminedSystem) {
  using T = TypeParam;
  // b in range(A): residual must be ~0 and x recovers the generator.
  const int m = 48, n = 12;
  auto a = random_matrix<T>(m, n, 31);
  auto xtrue = random_matrix<T>(n, 1, 37);
  Matrix<T> b(m, 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), a.view(), xtrue.view(), T(0), b.view());
  auto qr = TiledQr<T>::factorize(a.view(), small_opts(TreeKind::PlasmaTree));
  auto x = qr.solve_least_squares(b.view());
  EXPECT_LE(double(difference_norm<T>(x.view(), xtrue.view())), 1e-9);
}

TEST(Solve, TsKernelsGiveSameSolution) {
  const int m = 40, n = 16;
  auto a = random_matrix<double>(m, n, 41);
  auto b = random_matrix<double>(m, 1, 43);
  auto qtt = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::Greedy));
  auto qts = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::FlatTree,
                                                             KernelFamily::TS));
  auto x1 = qtt.solve_least_squares(b.view());
  auto x2 = qts.solve_least_squares(b.view());
  EXPECT_LE(difference_norm<double>(x1.view(), x2.view()), 1e-10);
}

TEST(Solve, ShapeChecksThrow) {
  auto a = random_matrix<double>(24, 8, 47);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  auto bad = random_matrix<double>(23, 1, 49);
  EXPECT_THROW((void)qr.solve_least_squares(bad.view()), Error);
  EXPECT_THROW((void)qr.solve(bad.view()), Error);  // not square
  TileMatrix<double> wrong_tiling(24, 8, 6);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, wrong_tiling), Error);
}

TEST(Solve, NbLargerThanM) {
  // Tile size exceeding the matrix: a single padded tile (1x1 grid through
  // the padding path). apply_q and least squares must behave like LAPACK.
  const int m = 40, n = 24;
  auto a = random_matrix<double>(m, n, 61);
  auto b = random_matrix<double>(m, 2, 67);
  auto opt = small_opts();
  opt.nb = 64;  // > m
  opt.ib = 8;
  auto qr = TiledQr<double>::factorize(a.view(), opt);
  EXPECT_EQ(qr.factors().mt(), 1);
  EXPECT_EQ(qr.factors().nt(), 1);
  auto x = qr.solve_least_squares(b.view());
  auto xref = kernels::reference_least_squares<double>(a.view(), b.view());
  EXPECT_LE(double(difference_norm<double>(x.view(), xref.view())), 1e-10);
  EXPECT_LE(double(orthogonality_error<double>(qr.q_thin().view())), 1e-11);
}

TEST(Solve, OneByOneTileGrid) {
  // Matrix exactly one full tile: the degenerate DAG (single GEQRT).
  const int n = 8;
  auto a = random_matrix<double>(n, n, 71);
  for (int i = 0; i < n; ++i) a(i, i) += 4.0;
  auto xtrue = random_matrix<double>(n, 1, 73);
  Matrix<double> b(n, 1);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, a.view(), xtrue.view(), 0.0, b.view());
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  auto x = qr.solve(b.view());
  EXPECT_LE(double(difference_norm<double>(x.view(), xtrue.view()) /
                   frobenius_norm<double>(xtrue.view())),
            1e-10);
  auto c0 = random_matrix<double>(n, 3, 79);
  auto c = TileMatrix<double>::from_dense(c0.view(), 8);
  qr.apply_q(ApplyTrans::ConjTrans, c);
  qr.apply_q(ApplyTrans::NoTrans, c);
  EXPECT_LE(double(difference_norm<double>(c.to_dense().view(), c0.view())), 1e-11);
}

TEST(Solve, ZeroColumnRhsIsAValidDegenerateSystem) {
  // Tall (QR least squares) and wide (LQ minimum norm) inputs alike.
  for (const auto& [m, n] : {std::pair{40, 24}, std::pair{24, 40}}) {
    auto a = random_matrix<double>(m, n, 83);
    auto qr = TiledQr<double>::factorize(a.view(), small_opts());
    Matrix<double> b(m, 0);
    auto x = qr.solve_least_squares(b.view());
    EXPECT_EQ(x.rows(), n);
    EXPECT_EQ(x.cols(), 0);
    // The async pipeline handles the same degenerate rhs (both flavors).
    core::QrSession session(core::QrSession::Config{2});
    auto x2 = session.solve_least_squares_async(qr, ConstMatrixView<double>(b.view())).get();
    EXPECT_EQ(x2.rows(), n);
    EXPECT_EQ(x2.cols(), 0);
    auto x3 = session
                  .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                             ConstMatrixView<double>(b.view()), small_opts())
                  .get();
    EXPECT_EQ(x3.rows(), n);
    EXPECT_EQ(x3.cols(), 0);
  }
}

TEST(Solve, MismatchedRowTilingErrorPaths) {
  auto a = random_matrix<double>(24, 8, 89);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts());
  // Same nb, wrong row count (different mt).
  TileMatrix<double> short_c(16, 8, 8);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, short_c), Error);
  EXPECT_THROW(qr.apply_q(ApplyTrans::NoTrans, short_c, /*threads=*/2), Error);
  // Same rows, wrong tile size.
  TileMatrix<double> wrong_nb(24, 8, 6);
  EXPECT_THROW(qr.apply_q(ApplyTrans::ConjTrans, wrong_nb), Error);
  // The async entry points surface the same errors through their futures.
  core::QrSession session(core::QrSession::Config{2});
  EXPECT_THROW((void)session.apply_q_async(qr, ApplyTrans::NoTrans, TileMatrix<double>(16, 8, 8))
                   .get(),
               Error);
  auto short_b = random_matrix<double>(23, 1, 97);
  EXPECT_THROW(
      (void)session.solve_least_squares_async(qr, ConstMatrixView<double>(short_b.view())).get(),
      Error);
  EXPECT_THROW((void)session
                   .solve_least_squares_async(ConstMatrixView<double>(a.view()),
                                              ConstMatrixView<double>(short_b.view()),
                                              small_opts())
                   .get(),
               Error);
}

TEST(Solve, WideMatrixMinimumNormSolve) {
  // m < n routes to the LQ factorization and the minimum-norm solution:
  // x must satisfy A x = b exactly (A has full row rank w.h.p.) and be the
  // shortest such vector — i.e. x lies in range(A^H), so any residual
  // against the pseudoinverse solution shows up in the norm comparison.
  auto wide = random_matrix<double>(8, 24, 101);
  auto b = random_matrix<double>(8, 2, 103);
  auto qr = TiledQr<double>::factorize(wide.view(), small_opts());
  auto x = qr.solve_least_squares(b.view());
  ASSERT_EQ(x.rows(), 24);
  ASSERT_EQ(x.cols(), 2);
  Matrix<double> ax(8, 2);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, wide.view(), x.view(), 0.0, ax.view());
  EXPECT_LE(difference_norm<double>(ax.view(), b.view()) / frobenius_norm<double>(b.view()),
            1e-12);
  // Minimum-norm certificate: x in range(A^H) means the component of x
  // orthogonal to range(A^H) vanishes. Project x onto null(A) via
  // x - A^H (A A^H)^{-1} A x and check it is zero: equivalently A^H y = x
  // is solvable, which we verify through x's norm against the normal
  // equations solution computed densely.
  Matrix<double> aat(8, 8);
  blas::gemm(blas::Op::NoTrans, blas::Op::ConjTrans, 1.0, wide.view(), wide.view(), 0.0,
             aat.view());
  // Solve (A A^H) y = b by the tall QR path (square system), then
  // x_ref = A^H y is the dense minimum-norm reference.
  auto aat_qr = TiledQr<double>::factorize(aat.view(), small_opts());
  auto y = aat_qr.solve_least_squares(b.view());
  Matrix<double> x_ref(24, 2);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, 1.0, wide.view(), y.view(), 0.0,
             x_ref.view());
  EXPECT_LE(difference_norm<double>(x.view(), x_ref.view()) /
                frobenius_norm<double>(x_ref.view()),
            1e-10);

  // The async pipeline routes the same way.
  core::QrSession session(core::QrSession::Config{2});
  auto x_async = session
                     .solve_least_squares_async(ConstMatrixView<double>(wide.view()),
                                                ConstMatrixView<double>(b.view()), small_opts())
                     .get();
  EXPECT_LE(difference_norm<double>(x_async.view(), x_ref.view()) /
                frobenius_norm<double>(x_ref.view()),
            1e-10);

  // apply_q_async on the LQ factorization is bitwise identical to the
  // sequential apply_q (C lives in the transposed world: 24 rows).
  auto c0 = random_matrix<double>(24, 3, 107);
  for (ApplyTrans trans : {ApplyTrans::NoTrans, ApplyTrans::ConjTrans}) {
    auto want = TileMatrix<double>::from_dense(c0.view(), 8);
    qr.apply_q(trans, want);
    auto got =
        session.apply_q_async(qr, trans, TileMatrix<double>::from_dense(c0.view(), 8)).get();
    auto dw = want.to_dense();
    auto dg = got.to_dense();
    for (std::int64_t j = 0; j < dw.cols(); ++j)
      for (std::int64_t i = 0; i < dw.rows(); ++i) ASSERT_EQ(dg(i, j), dw(i, j)) << i << "," << j;
  }
}

TEST(Solve, QThinFirstColumnsSpanA) {
  // Projection of A onto range(Q) equals A.
  const int m = 36, n = 12;
  auto a = random_matrix<double>(m, n, 53);
  auto qr = TiledQr<double>::factorize(a.view(), small_opts(TreeKind::Asap));
  auto q = qr.q_thin();
  Matrix<double> qta(n, n);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, 1.0, q.view(), a.view(), 0.0, qta.view());
  Matrix<double> proj(m, n);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, q.view(), qta.view(), 0.0, proj.view());
  EXPECT_LE(difference_norm<double>(proj.view(), a.view()) / frobenius_norm<double>(a.view()),
            1e-11);
}

}  // namespace
}  // namespace tiledqr
