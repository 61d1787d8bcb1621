// Triangular multiply / solve implementations.
//
// The library's triangular multiplies are the one-column T-factor updates of
// the block-factor construction (larft and the TSQRT/TTQRT T blocks); the
// block-reflector applications themselves run as GEMMs (kernels::larfb).
// Side::Left is written in axpy/dot form over contiguous column segments of
// A, so it rides the same SIMD dispatch as the level-1 layer
// (blas/vector.hpp). Only the complex non-conjugating transpose keeps the
// elementwise fallback (dotc conjugates, so it cannot express Op::Trans on
// complex data).
#pragma once

#include "common/error.hpp"

namespace tiledqr::blas {

namespace detail {

template <typename T>
inline T tri_diag(ConstMatrixView<T> a, Diag diag, std::int64_t i, Op opa) {
  if (diag == Diag::Unit) return T(1);
  return apply_op(opa, a(i, i));
}

/// Whether op(A) on this scalar type is expressible with dotc: real scalars
/// always (conjugation is the identity), complex only under ConjTrans.
template <typename T>
inline bool dotc_expressible(Op opa) {
  return !is_complex_v<T> || opa == Op::ConjTrans;
}

}  // namespace detail

template <typename T>
void trmm(Side side, Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  const std::int64_t n = a.rows();
  TILEDQR_CHECK(a.rows() == a.cols(), "trmm: A must be square");
  TILEDQR_CHECK(side == Side::Left ? b.rows() == n : b.cols() == n, "trmm: shape mismatch");

  // Whether the operated matrix op(A) is effectively upper triangular.
  const bool op_upper = (uplo == Uplo::Upper) == (opa == Op::NoTrans);

  if (side == Side::Left) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      T* bj = b.col(j);
      if (op_upper) {
        if (opa == Op::NoTrans) {
          // b := U b in axpy form over column prefixes of A: at step l, b[l]
          // is still the pre-multiply value (steps l' < l only wrote indices
          // <= l'), so it both seeds the axpy into rows [0, l) and collapses
          // to the diagonal contribution afterwards.
          for (std::int64_t l = 0; l < n; ++l) {
            const T coef = bj[l];
            axpy(l, coef, a.col(l), bj);
            bj[l] = detail::tri_diag(a, diag, l, opa) * coef;
          }
          if (alpha != T(1)) scal(n, alpha, bj);
        } else if (detail::dotc_expressible<T>(opa)) {
          // op(A) upper with A lower: column tails of A are contiguous dots.
          // Tail addressed via col() pointer arithmetic — on the last column
          // the tail is empty and &a(i + 1, i) would index past the view.
          for (std::int64_t i = 0; i < n; ++i) {
            T acc = detail::tri_diag(a, diag, i, opa) * bj[i] +
                    dotc(n - i - 1, a.col(i) + i + 1, bj + i + 1);
            bj[i] = alpha * acc;
          }
        } else {
          // new b_i depends on old b_l for l >= i: go top-down.
          for (std::int64_t i = 0; i < n; ++i) {
            T acc = detail::tri_diag(a, diag, i, opa) * bj[i];
            for (std::int64_t l = i + 1; l < n; ++l) acc += detail::apply_op(opa, a(l, i)) * bj[l];
            bj[i] = alpha * acc;
          }
        }
      } else {
        if (opa == Op::NoTrans) {
          // b := L b in axpy form over column tails, descending so b[l] is
          // still the pre-multiply value when it seeds step l.
          for (std::int64_t l = n - 1; l >= 0; --l) {
            const T coef = bj[l];
            axpy(n - l - 1, coef, a.col(l) + l + 1, bj + l + 1);
            bj[l] = detail::tri_diag(a, diag, l, opa) * coef;
          }
          if (alpha != T(1)) scal(n, alpha, bj);
        } else if (detail::dotc_expressible<T>(opa)) {
          // op(A) lower with A upper: column prefixes of A are contiguous.
          for (std::int64_t i = n - 1; i >= 0; --i) {
            T acc = detail::tri_diag(a, diag, i, opa) * bj[i] + dotc(i, a.col(i), bj);
            bj[i] = alpha * acc;
          }
        } else {
          // new b_i depends on old b_l for l <= i: go bottom-up.
          for (std::int64_t i = n - 1; i >= 0; --i) {
            T acc = detail::tri_diag(a, diag, i, opa) * bj[i];
            for (std::int64_t l = 0; l < i; ++l) acc += detail::apply_op(opa, a(l, i)) * bj[l];
            bj[i] = alpha * acc;
          }
        }
      }
    }
  } else {  // Side::Right: B := alpha * B * op(A)
    if (op_upper) {
      // new col j depends on old cols l <= j: go right-to-left.
      for (std::int64_t j = n - 1; j >= 0; --j) {
        T* bj = b.col(j);
        scal(b.rows(), alpha * detail::tri_diag(a, diag, j, opa), bj);
        for (std::int64_t l = 0; l < j; ++l) {
          T coef = alpha * (opa == Op::NoTrans ? a(l, j) : detail::apply_op(opa, a(j, l)));
          axpy(b.rows(), coef, b.col(l), bj);
        }
      }
    } else {
      // new col j depends on old cols l >= j: go left-to-right.
      for (std::int64_t j = 0; j < n; ++j) {
        T* bj = b.col(j);
        scal(b.rows(), alpha * detail::tri_diag(a, diag, j, opa), bj);
        for (std::int64_t l = j + 1; l < n; ++l) {
          T coef = alpha * (opa == Op::NoTrans ? a(l, j) : detail::apply_op(opa, a(j, l)));
          axpy(b.rows(), coef, b.col(l), bj);
        }
      }
    }
  }
}

template <typename T>
void trsm(Side side, Uplo uplo, Op opa, Diag diag, T alpha, ConstMatrixView<T> a,
          MatrixView<T> b) {
  const std::int64_t n = a.rows();
  TILEDQR_CHECK(a.rows() == a.cols(), "trsm: A must be square");
  TILEDQR_CHECK(side == Side::Left ? b.rows() == n : b.cols() == n, "trsm: shape mismatch");
  const bool op_upper = (uplo == Uplo::Upper) == (opa == Op::NoTrans);

  auto op_elem = [&](std::int64_t i, std::int64_t l) -> T {
    return opa == Op::NoTrans ? a(i, l) : detail::apply_op(opa, a(l, i));
  };

  if (side == Side::Left) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      T* bj = b.col(j);
      if (alpha != T(1)) scal(n, alpha, bj);
      if (op_upper) {
        for (std::int64_t i = n - 1; i >= 0; --i) {
          T acc = bj[i];
          for (std::int64_t l = i + 1; l < n; ++l) acc -= op_elem(i, l) * bj[l];
          bj[i] = diag == Diag::Unit ? acc : acc / op_elem(i, i);
        }
      } else {
        for (std::int64_t i = 0; i < n; ++i) {
          T acc = bj[i];
          for (std::int64_t l = 0; l < i; ++l) acc -= op_elem(i, l) * bj[l];
          bj[i] = diag == Diag::Unit ? acc : acc / op_elem(i, i);
        }
      }
    }
  } else {
    // X * op(A) = alpha * B  =>  column solves over X columns.
    if (alpha != T(1)) scale(alpha, b);
    if (op_upper) {
      for (std::int64_t j = 0; j < n; ++j) {
        T* bj = b.col(j);
        for (std::int64_t l = 0; l < j; ++l) axpy(b.rows(), -op_elem(l, j), b.col(l), bj);
        if (diag == Diag::NonUnit) scal(b.rows(), T(1) / op_elem(j, j), bj);
      }
    } else {
      for (std::int64_t j = n - 1; j >= 0; --j) {
        T* bj = b.col(j);
        for (std::int64_t l = j + 1; l < n; ++l) axpy(b.rows(), -op_elem(l, j), b.col(l), bj);
        if (diag == Diag::NonUnit) scal(b.rows(), T(1) / op_elem(j, j), bj);
      }
    }
  }
}

}  // namespace tiledqr::blas
