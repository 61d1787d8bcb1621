// Tests for the six tile kernels, parameterized over tile size and inner
// blocking. Each *QRT kernel is validated through its matching *MQR kernel:
// applying Q^H to the original operands must reproduce [R; 0], applying
// Q then Q^H must round-trip, and the |R| diagonal must agree with the
// reference Householder QR of the stacked operands (R is unique up to the
// phase of its rows).
#include <gtest/gtest.h>

#include <complex>
#include <cstring>
#include <limits>
#include <tuple>

#include "blas/simd/simd.hpp"
#include "kernels/kernels.hpp"
#include "kernels/reference_qr.hpp"
#include "matrix/generate.hpp"
#include "matrix/norms.hpp"

namespace tiledqr {
namespace {

using kernels::ApplyTrans;

struct Shape {
  int nb;
  int ib;
};

class KernelParam : public ::testing::TestWithParam<Shape> {};

template <typename T>
Matrix<T> stack(const Matrix<T>& top, const Matrix<T>& bottom) {
  Matrix<T> s(top.rows() + bottom.rows(), top.cols());
  for (std::int64_t j = 0; j < top.cols(); ++j) {
    for (std::int64_t i = 0; i < top.rows(); ++i) s(i, j) = top(i, j);
    for (std::int64_t i = 0; i < bottom.rows(); ++i) s(top.rows() + i, j) = bottom(i, j);
  }
  return s;
}

template <typename T>
double check_geqrt(int nb, int ib) {
  auto a0 = random_matrix<T>(nb, nb, 11);
  Matrix<T> a(nb, nb);
  copy(a0.view(), a.view());
  Matrix<T> t(ib, nb);
  kernels::geqrt(ib, a.view(), t.view());

  double err = 0;
  // Q^H A0 == R.
  Matrix<T> c(nb, nb);
  copy(a0.view(), c.view());
  kernels::unmqr(ApplyTrans::ConjTrans, ib, a.view(), t.view(), c.view());
  for (int j = 0; j < nb; ++j)
    for (int i = 0; i < nb; ++i)
      err = std::max(err, std::abs(c(i, j) - (i <= j ? a(i, j) : T(0))));
  // Round trip Q Q^H = I.
  auto d0 = random_matrix<T>(nb, nb, 12);
  Matrix<T> d(nb, nb);
  copy(d0.view(), d.view());
  kernels::unmqr(ApplyTrans::NoTrans, ib, a.view(), t.view(), d.view());
  kernels::unmqr(ApplyTrans::ConjTrans, ib, a.view(), t.view(), d.view());
  err = std::max(err, double(difference_norm<T>(d.view(), d0.view())));
  // |diag R| vs reference.
  auto ref = kernels::reference_qr<T>(a0.view());
  for (int i = 0; i < nb; ++i)
    err = std::max(err, std::abs(std::abs(a(i, i)) - std::abs(ref.vr(i, i))));
  return err;
}

template <typename T>
double check_pair(int nb, int ib, bool tt) {
  auto a1o = random_upper_triangular<T>(nb, 21);
  auto a2o = tt ? random_upper_triangular<T>(nb, 22) : random_matrix<T>(nb, nb, 22);
  Matrix<T> a1(nb, nb), a2(nb, nb), t(ib, nb);
  copy(a1o.view(), a1.view());
  copy(a2o.view(), a2.view());
  if (tt)
    kernels::ttqrt(ib, a1.view(), a2.view(), t.view());
  else
    kernels::tsqrt(ib, a1.view(), a2.view(), t.view());

  auto mqr = [&](ApplyTrans trans, MatrixView<T> c1, MatrixView<T> c2) {
    if (tt)
      kernels::ttmqr(trans, ib, a2.view(), t.view(), c1, c2);
    else
      kernels::tsmqr(trans, ib, a2.view(), t.view(), c1, c2);
  };

  double err = 0;
  // Q^H [A1o; A2o] == [R; 0].
  Matrix<T> c1(nb, nb), c2(nb, nb);
  copy(a1o.view(), c1.view());
  copy(a2o.view(), c2.view());
  mqr(ApplyTrans::ConjTrans, c1.view(), c2.view());
  err = std::max(err, double(frobenius_norm<T>(c2.view())));
  err = std::max(err, double(difference_norm<T>(c1.view(), a1.view())));
  // Round trip.
  auto d1o = random_matrix<T>(nb, nb, 23);
  auto d2o = random_matrix<T>(nb, nb, 24);
  Matrix<T> d1(nb, nb), d2(nb, nb);
  copy(d1o.view(), d1.view());
  copy(d2o.view(), d2.view());
  mqr(ApplyTrans::NoTrans, d1.view(), d2.view());
  mqr(ApplyTrans::ConjTrans, d1.view(), d2.view());
  err = std::max(err, double(difference_norm<T>(d1.view(), d1o.view())));
  err = std::max(err, double(difference_norm<T>(d2.view(), d2o.view())));
  // |diag R| vs the reference QR of the stacked pair.
  auto ref = kernels::reference_qr<T>(ConstMatrixView<T>(stack(a1o, a2o).view()));
  for (int i = 0; i < nb; ++i)
    err = std::max(err, std::abs(std::abs(a1(i, i)) - std::abs(ref.vr(i, i))));
  return err;
}

/// Materializes Q^H of a TS/TT transformation as a dense 2nb x 2nb matrix
/// and checks unitarity.
template <typename T>
double check_unitarity(int nb, int ib, bool tt) {
  auto a1 = random_upper_triangular<T>(nb, 31);
  auto a2 = tt ? random_upper_triangular<T>(nb, 32) : random_matrix<T>(nb, nb, 32);
  Matrix<T> t(ib, nb);
  if (tt)
    kernels::ttqrt(ib, a1.view(), a2.view(), t.view());
  else
    kernels::tsqrt(ib, a1.view(), a2.view(), t.view());

  Matrix<T> qh(2 * nb, 2 * nb);
  // Column block c: Q^H applied to [I; 0] and [0; I].
  for (int blockcol = 0; blockcol < 2; ++blockcol) {
    Matrix<T> c1(nb, nb), c2(nb, nb);
    if (blockcol == 0)
      for (int i = 0; i < nb; ++i) c1(i, i) = T(1);
    else
      for (int i = 0; i < nb; ++i) c2(i, i) = T(1);
    if (tt)
      kernels::ttmqr(ApplyTrans::ConjTrans, ib, a2.view(), t.view(), c1.view(), c2.view());
    else
      kernels::tsmqr(ApplyTrans::ConjTrans, ib, a2.view(), t.view(), c1.view(), c2.view());
    for (int j = 0; j < nb; ++j)
      for (int i = 0; i < nb; ++i) {
        qh(i, blockcol * nb + j) = c1(i, j);
        qh(nb + i, blockcol * nb + j) = c2(i, j);
      }
  }
  return double(orthogonality_error<T>(qh.view()));
}

TEST_P(KernelParam, GeqrtUnmqrDouble) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_geqrt<double>(nb, ib), 1e-12);
}
TEST_P(KernelParam, GeqrtUnmqrComplex) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_geqrt<std::complex<double>>(nb, ib), 1e-12);
}
TEST_P(KernelParam, TsqrtTsmqrDouble) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_pair<double>(nb, ib, false), 1e-12);
}
TEST_P(KernelParam, TsqrtTsmqrComplex) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_pair<std::complex<double>>(nb, ib, false), 1e-12);
}
TEST_P(KernelParam, TtqrtTtmqrDouble) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_pair<double>(nb, ib, true), 1e-12);
}
TEST_P(KernelParam, TtqrtTtmqrComplex) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_pair<std::complex<double>>(nb, ib, true), 1e-12);
}
TEST_P(KernelParam, TsUnitary) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_unitarity<double>(nb, ib, false), 1e-12);
  EXPECT_LE(check_unitarity<std::complex<double>>(nb, ib, false), 1e-12);
}
TEST_P(KernelParam, TtUnitary) {
  auto [nb, ib] = GetParam();
  EXPECT_LE(check_unitarity<double>(nb, ib, true), 1e-12);
  EXPECT_LE(check_unitarity<std::complex<double>>(nb, ib, true), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelParam,
                         ::testing::Values(Shape{1, 1}, Shape{2, 1}, Shape{3, 2}, Shape{5, 2},
                                           Shape{8, 3}, Shape{8, 8}, Shape{16, 4}, Shape{16, 16},
                                           Shape{24, 5}, Shape{33, 8}, Shape{33, 64}),
                         [](const auto& inst) {
                           return "nb" + std::to_string(inst.param.nb) + "_ib" +
                                  std::to_string(inst.param.ib);
                         });

TEST(KernelStorage, TtqrtPreservesStrictlyLowerParts) {
  // The strictly-lower triangles of both tiles hold GEQRT reflectors that a
  // later apply_q replay needs; TTQRT must not touch them.
  const int nb = 8, ib = 3;
  auto a1 = random_matrix<double>(nb, nb, 41);
  auto a2 = random_matrix<double>(nb, nb, 42);
  Matrix<double> a1c(nb, nb), a2c(nb, nb), t(ib, nb);
  copy(a1.view(), a1c.view());
  copy(a2.view(), a2c.view());
  kernels::ttqrt(ib, a1c.view(), a2c.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) {
      EXPECT_EQ(a1c(i, j), a1(i, j)) << "a1 " << i << "," << j;
      EXPECT_EQ(a2c(i, j), a2(i, j)) << "a2 " << i << "," << j;
    }
}

TEST(KernelStorage, TsqrtPreservesPivotStrictlyLower) {
  const int nb = 8, ib = 4;
  auto a1 = random_matrix<double>(nb, nb, 43);
  auto a2 = random_matrix<double>(nb, nb, 44);
  Matrix<double> a1c(nb, nb), t(ib, nb);
  copy(a1.view(), a1c.view());
  kernels::tsqrt(ib, a1c.view(), a2.view(), t.view());
  for (int j = 0; j < nb; ++j)
    for (int i = j + 1; i < nb; ++i) EXPECT_EQ(a1c(i, j), a1(i, j));
}

TEST(KernelMeta, WeightsMatchTable1) {
  using kernels::KernelKind;
  EXPECT_EQ(kernels::kernel_weight(KernelKind::GEQRT), 4);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::UNMQR), 6);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TSQRT), 6);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TSMQR), 12);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TTQRT), 2);
  EXPECT_EQ(kernels::kernel_weight(KernelKind::TTMQR), 6);
}

TEST(KernelMeta, NamesAndFlops) {
  using kernels::KernelKind;
  EXPECT_STREQ(kernels::kernel_name(KernelKind::TSMQR), "TSMQR");
  EXPECT_DOUBLE_EQ(kernels::kernel_flops(KernelKind::GEQRT, 3, false), 4.0 * 9.0);
  EXPECT_DOUBLE_EQ(kernels::kernel_flops(KernelKind::GEQRT, 3, true), 16.0 * 9.0);
}

TEST(KernelChecks, BadIbThrows) {
  Matrix<double> a(4, 4), t(2, 4);
  EXPECT_THROW(kernels::geqrt(0, a.view(), t.view()), Error);
}

TEST(KernelChecks, TsqrtRejectsUndersizedR1) {
  // a1 must hold an n x n triangle: a 2 x 4 a1 cannot. The original check
  // compared a1.rows() against min(a1.rows(), n) — a tautology that let this
  // shape through to read past a1's rows.
  Matrix<double> a1(2, 4), a2(4, 4), t(2, 4);
  EXPECT_THROW(kernels::tsqrt(2, a1.view(), a2.view(), t.view()), Error);
}


// ------------------------------------------------------------------------
// The apply contract shared by all six apply kernels (UNMQR/TSMQR/TTMQR and
// their LQ duals), at ragged inner blocking:
//  (a) only the reflector region of the factored tile and the upper triangle
//      of each T block are read: NaN everywhere else leaves the output
//      bitwise unchanged;
//  (b) columns are independent: applying to the first j columns of C gives
//      bitwise the columns an all-columns apply gives, on every SIMD tier
//      (the solve paths rely on this to skip zero-padding columns).

enum class ApplyKind { UNMQR, TSMQR, TTMQR, UNMLQ, TSMLQ, TTMLQ };

const char* apply_kind_name(ApplyKind k) {
  static const char* names[] = {"UNMQR", "TSMQR", "TTMQR", "UNMLQ", "TSMLQ", "TTMLQ"};
  return names[int(k)];
}

struct ApplyContractParam {
  ApplyKind kind;
  int ib;
};

/// A factored reflector tile plus its T factors, ready to be applied.
template <typename T>
struct FactoredTile {
  ApplyKind kind;
  int ib;
  Matrix<T> v, t;

  void apply(ApplyTrans trans, ConstMatrixView<T> vv, ConstMatrixView<T> tt, MatrixView<T> c1,
             MatrixView<T> c2) const {
    switch (kind) {
      case ApplyKind::UNMQR: kernels::unmqr(trans, ib, vv, tt, c1); break;
      case ApplyKind::TSMQR: kernels::tsmqr(trans, ib, vv, tt, c1, c2); break;
      case ApplyKind::TTMQR: kernels::ttmqr(trans, ib, vv, tt, c1, c2); break;
      case ApplyKind::UNMLQ: kernels::unmlq(trans, ib, vv, tt, c1); break;
      case ApplyKind::TSMLQ: kernels::tsmlq(trans, ib, vv, tt, c1, c2); break;
      case ApplyKind::TTMLQ: kernels::ttmlq(trans, ib, vv, tt, c1, c2); break;
    }
  }

  /// Whether tile element (i, j) lies outside the reflector region.
  [[nodiscard]] bool outside_region(std::int64_t i, std::int64_t j) const {
    switch (kind) {
      case ApplyKind::UNMQR: return i <= j;  // R triangle
      case ApplyKind::TTMQR: return i > j;   // GEQRT reflectors below V2
      case ApplyKind::UNMLQ: return i >= j;  // L triangle
      case ApplyKind::TTMLQ: return i < j;   // GELQT reflectors right of V2
      default: return false;                 // TS tails are dense
    }
  }
};

template <typename T>
FactoredTile<T> factor_for(ApplyKind kind, int nb, int ib) {
  FactoredTile<T> f{kind, ib, Matrix<T>(nb, nb), Matrix<T>(ib, nb)};
  auto a1 = random_matrix<T>(nb, nb, 71);
  f.v = random_matrix<T>(nb, nb, 72);
  switch (kind) {
    case ApplyKind::UNMQR: kernels::geqrt(ib, f.v.view(), f.t.view()); break;
    case ApplyKind::TSMQR: kernels::tsqrt(ib, a1.view(), f.v.view(), f.t.view()); break;
    case ApplyKind::TTMQR: kernels::ttqrt(ib, a1.view(), f.v.view(), f.t.view()); break;
    case ApplyKind::UNMLQ: kernels::gelqt(ib, f.v.view(), f.t.view()); break;
    case ApplyKind::TSMLQ: kernels::tslqt(ib, a1.view(), f.v.view(), f.t.view()); break;
    case ApplyKind::TTMLQ: kernels::ttlqt(ib, a1.view(), f.v.view(), f.t.view()); break;
  }
  return f;
}

template <typename T>
bool bitwise_equal(ConstMatrixView<T> a, ConstMatrixView<T> b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::int64_t j = 0; j < a.cols(); ++j)
    if (std::memcmp(a.col(j), b.col(j), size_t(a.rows()) * sizeof(T)) != 0) return false;
  return true;
}

class ApplyContract : public ::testing::TestWithParam<ApplyContractParam> {};

template <typename T>
void check_nan_outside_region(ApplyKind kind, int ib) {
  const int nb = 40;
  const auto f = factor_for<T>(kind, nb, ib);
  const T nan = T(std::numeric_limits<double>::quiet_NaN());
  Matrix<T> vn(nb, nb), tn(ib, nb);
  copy(f.v.view(), vn.view());
  copy(f.t.view(), tn.view());
  for (std::int64_t j = 0; j < nb; ++j) {
    for (std::int64_t i = 0; i < nb; ++i)
      if (f.outside_region(i, j)) vn(i, j) = nan;
    for (std::int64_t r = j % ib + 1; r < ib; ++r) tn(r, j) = nan;  // below each T block
  }
  for (ApplyTrans trans : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
    auto c1 = random_matrix<T>(nb, nb, 73);
    auto c2 = random_matrix<T>(nb, nb, 74);
    Matrix<T> d1(nb, nb), d2(nb, nb);
    copy(c1.view(), d1.view());
    copy(c2.view(), d2.view());
    f.apply(trans, f.v.view(), f.t.view(), c1.view(), c2.view());
    f.apply(trans, vn.view(), tn.view(), d1.view(), d2.view());
    const char* dir = trans == ApplyTrans::NoTrans ? "Q" : "Q^H";
    EXPECT_TRUE(bitwise_equal<T>(c1.view(), d1.view())) << apply_kind_name(kind) << " " << dir;
    EXPECT_TRUE(bitwise_equal<T>(c2.view(), d2.view())) << apply_kind_name(kind) << " " << dir;
  }
}

template <typename T>
void check_column_subsets(ApplyKind kind, int ib) {
  const int nb = 40;
  const auto f = factor_for<T>(kind, nb, ib);
  const blas::simd::Tier saved = blas::simd::active_tier();
  for (blas::simd::Tier tier : blas::simd::available_tiers()) {
    ASSERT_TRUE(blas::simd::set_tier(tier));
    for (ApplyTrans trans : {ApplyTrans::ConjTrans, ApplyTrans::NoTrans}) {
      auto c1 = random_matrix<T>(nb, nb, 75);
      auto c2 = random_matrix<T>(nb, nb, 76);
      Matrix<T> full1(nb, nb), full2(nb, nb);
      copy(c1.view(), full1.view());
      copy(c2.view(), full2.view());
      f.apply(trans, f.v.view(), f.t.view(), full1.view(), full2.view());
      for (int j : {1, 3, 5}) {
        Matrix<T> p1(nb, j), p2(nb, j);
        copy(c1.sub(0, 0, nb, j), p1.view());
        copy(c2.sub(0, 0, nb, j), p2.view());
        f.apply(trans, f.v.view(), f.t.view(), p1.view(), p2.view());
        EXPECT_TRUE(bitwise_equal<T>(p1.view(), full1.sub(0, 0, nb, j)))
            << apply_kind_name(kind) << " tier " << blas::simd::tier_name(tier) << " j=" << j;
        EXPECT_TRUE(bitwise_equal<T>(p2.view(), full2.sub(0, 0, nb, j)))
            << apply_kind_name(kind) << " tier " << blas::simd::tier_name(tier) << " j=" << j;
      }
    }
  }
  blas::simd::set_tier(saved);
}

TEST_P(ApplyContract, NanOutsideReflectorRegionIsNeverRead) {
  check_nan_outside_region<double>(GetParam().kind, GetParam().ib);
  check_nan_outside_region<std::complex<double>>(GetParam().kind, GetParam().ib);
}

TEST_P(ApplyContract, LeadingColumnsMatchFullApplyBitwise) {
  check_column_subsets<double>(GetParam().kind, GetParam().ib);
  check_column_subsets<std::complex<double>>(GetParam().kind, GetParam().ib);
}

std::vector<ApplyContractParam> apply_contract_params() {
  std::vector<ApplyContractParam> out;
  for (ApplyKind k : {ApplyKind::UNMQR, ApplyKind::TSMQR, ApplyKind::TTMQR, ApplyKind::UNMLQ,
                      ApplyKind::TSMLQ, ApplyKind::TTMLQ})
    for (int ib : {7, 16, 40}) out.push_back({k, ib});
  return out;
}

INSTANTIATE_TEST_SUITE_P(RaggedIb, ApplyContract, ::testing::ValuesIn(apply_contract_params()),
                         [](const auto& inst) {
                           return std::string(apply_kind_name(inst.param.kind)) + "_ib" +
                                  std::to_string(inst.param.ib);
                         });

}  // namespace
}  // namespace tiledqr
