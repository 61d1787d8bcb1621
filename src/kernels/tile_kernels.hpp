// The six sequential tile kernels of the tiled QR factorization (paper §2.1,
// Table 1), modeled on the PLASMA core_blas kernels:
//
//   GEQRT  factor a square tile into a triangle            (weight 4)
//   UNMQR  apply a GEQRT transformation to a tile          (weight 6)
//   TSQRT  zero a square tile against a triangle on top    (weight 6)
//   TSMQR  apply a TSQRT transformation to a tile pair     (weight 12)
//   TTQRT  zero a triangular tile against a triangle       (weight 2)
//   TTMQR  apply a TTQRT transformation to a tile pair     (weight 6)
//
// Weights are in units of nb^3/3 flops. The TT kernels exploit the upper
// triangular structure of the eliminated tile (reflector tails are upper
// trapezoidal), which is where their 2x flop advantage over TS comes from.
//
// Every block-reflector application here — the three *MQR kernels and the
// trailing updates inside GEQRT/TSQRT/TTQRT — is one call per ib-block to
// larfb (householder.hpp), which runs it as three GEMMs over a per-thread
// expansion of the block. The TT applies therefore spend GEMM flops on the
// zero part of each trapezoid (sb^2/2 per block) to run at GEMM rate; the
// factor kernels' column sweeps remain the unblocked part.
//
// Storage conventions (per tile, matching PLASMA):
//  * after GEQRT, the tile holds R in its upper triangle and the unit-lower
//    reflectors V strictly below the diagonal; T factors go to a separate
//    ib x nb array.
//  * after TSQRT, the zeroed tile holds the dense reflector tails V2; its own
//    T goes to another ib x nb array.
//  * after TTQRT, the zeroed (triangular) tile holds the upper-trapezoidal
//    reflector tails V2 in its upper triangle — the strictly-lower part (the
//    GEQRT reflectors of that tile) is preserved, so a factorization can
//    later replay both transformations (apply_q).
#pragma once

#include <algorithm>

#include "kernels/householder.hpp"

namespace tiledqr::kernels {

namespace detail {
/// Calls f(i, sb) for each ib-block [i, i + sb) of k reflectors, in the
/// order op(Q) applies them: ascending for Q^H, descending for Q
/// (Q = B_1 B_2 ... B_l, so Q C applies B_l first).
template <typename F>
void for_each_block(std::int64_t k, int ib, ApplyTrans trans, F&& f) {
  if (k <= 0) return;
  if (trans == ApplyTrans::ConjTrans) {
    for (std::int64_t i = 0; i < k; i += ib) f(i, std::min<std::int64_t>(ib, k - i));
  } else {
    for (std::int64_t i = (k - 1) / ib * ib; i >= 0; i -= ib)
      f(i, std::min<std::int64_t>(ib, k - i));
  }
}

/// The reflector block with dual rows [r0, r0 + rows) and columns
/// [j0, j0 + sb) of a reflector tile, in the orientation larfb expects for
/// `layout` (the LQ duals keep their reflectors as rows of the A-layout tile).
template <typename T>
ConstMatrixView<T> reflector_block(VLayout layout, ConstMatrixView<T> v, std::int64_t r0,
                                   std::int64_t j0, std::int64_t rows, std::int64_t sb) {
  return layout == VLayout::Columns ? v.sub(r0, j0, rows, sb) : v.sub(j0, r0, sb, rows);
}

/// Reflector-tile dimensions as the dual QR sees them.
template <typename T>
std::int64_t dual_rows(VLayout layout, ConstMatrixView<T> v) {
  return layout == VLayout::Columns ? v.rows() : v.cols();
}
template <typename T>
std::int64_t dual_cols(VLayout layout, ConstMatrixView<T> v) {
  return layout == VLayout::Columns ? v.cols() : v.rows();
}

/// UNMQR/UNMLQ: c := op(Q) c for the reflectors of a GEQRT-factored tile.
template <typename T>
void unm(ApplyTrans trans, int ib, VLayout layout, ConstMatrixView<T> v, ConstMatrixView<T> t,
         MatrixView<T> c) {
  const std::int64_t m = dual_rows(layout, v);
  const std::int64_t k = std::min(m, dual_cols(layout, v));
  TILEDQR_CHECK(c.rows() == m, "unmqr: C row mismatch");
  for_each_block(k, ib, trans, [&](std::int64_t i, std::int64_t sb) {
    larfb(trans, VShape::UnitLower, layout, reflector_block(layout, v, i, i, m - i, sb),
          t.sub(0, i, sb, sb), MatrixView<T>(), c.sub(i, 0, m - i, c.cols()));
  });
}

/// TSMQR/TSMLQ (shape Dense) and TTMQR/TTMLQ (shape UpperTrapezoid):
/// [a1; a2] := op(Q) [a1; a2]. Block i's identity part acts on rows
/// [i, i + sb) of a1; its tails on all of a2 (TS) or rows [0, i + sb) (TT).
template <typename T>
void tpm(ApplyTrans trans, int ib, VShape shape, VLayout layout, ConstMatrixView<T> v2,
         ConstMatrixView<T> t, MatrixView<T> a1, MatrixView<T> a2) {
  const std::int64_t m2 = dual_rows(layout, v2);
  const std::int64_t nn = a1.cols();
  TILEDQR_CHECK(a2.rows() == m2 && a2.cols() == nn, "tsmqr/ttmqr: shape mismatch");
  for_each_block(dual_cols(layout, v2), ib, trans, [&](std::int64_t i, std::int64_t sb) {
    const std::int64_t rows = shape == VShape::Dense ? m2 : i + sb;
    larfb(trans, shape, layout, reflector_block(layout, v2, 0, i, rows, sb),
          t.sub(0, i, sb, sb), a1.sub(i, 0, sb, nn), a2.sub(0, 0, rows, nn));
  });
}
}  // namespace detail

// ---------------------------------------------------------------------------
// GEQRT: blocked QR of an m x n tile. t must be ib x n (only the leading
// min(ib, remaining) x sb block per panel is written).
template <typename T>
void geqrt(int ib, MatrixView<T> a, MatrixView<T> t) {
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t k = std::min(m, n);
  TILEDQR_CHECK(ib >= 1, "geqrt: ib must be >= 1");
  TILEDQR_CHECK(t.rows() >= std::min<std::int64_t>(ib, k) && t.cols() >= k,
                "geqrt: T too small");

  T* tau = detail::thread_scratch<T>(detail::Scratch::Tau, static_cast<size_t>(k));
  T* work = detail::thread_scratch<T>(detail::Scratch::Work, static_cast<size_t>(n));

  for (std::int64_t i = 0; i < k; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, k - i);
    auto panel = a.sub(i, i, m - i, sb);
    geqr2(panel, tau + i, work);
    auto tblk = t.sub(0, i, sb, sb);
    larft(ConstMatrixView<T>(panel), tau + i, tblk);
    if (i + sb < n) {
      larfb(ApplyTrans::ConjTrans, VShape::UnitLower, VLayout::Columns, ConstMatrixView<T>(panel),
            ConstMatrixView<T>(tblk), MatrixView<T>(), a.sub(i, i + sb, m - i, n - i - sb));
    }
  }
}

// ---------------------------------------------------------------------------
// UNMQR: applies the transformation computed by geqrt (v = factored tile,
// t = its block factors) to an m x nn tile c: c := op(Q) c.
template <typename T>
void unmqr(ApplyTrans trans, int ib, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c) {
  detail::unm(trans, ib, VLayout::Columns, v, t, c);
}

// ---------------------------------------------------------------------------
// TSQRT: QR of the (2nb) x n stacked pair [R1; A2] where a1's upper triangle
// holds R1 and a2 is a full m2 x n tile. On return a1's upper triangle holds
// the updated R, a2 holds the dense reflector tails V2, and t the block
// factors. a1's strictly-lower part is never touched.
template <typename T>
void tsqrt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  const std::int64_t n = a1.cols();
  const std::int64_t m2 = a2.rows();
  TILEDQR_CHECK(a1.rows() >= n,
                "tsqrt: a1 has fewer rows than columns (R1 must hold an n x n triangle)");
  TILEDQR_CHECK(a2.cols() == n, "tsqrt: a2 col mismatch");
  TILEDQR_CHECK(ib >= 1, "tsqrt: ib must be >= 1");

  T* tau = detail::thread_scratch<T>(detail::Scratch::Tau, static_cast<size_t>(n));

  for (std::int64_t i = 0; i < n; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, n - i);
    // Factor the panel columns one by one.
    for (std::int64_t j = 0; j < sb; ++j) {
      const std::int64_t ci = i + j;
      larfg(a1(ci, ci), a2.col(ci), m2, tau[ci]);
      const T* v2 = a2.col(ci);
      for (std::int64_t jj = ci + 1; jj < i + sb; ++jj) {
        // w = a1(ci,jj) + v2^H a2(:,jj);  rows (ci, :) of a1 and all of a2.
        T w = a1(ci, jj) + blas::dotc(m2, v2, a2.col(jj));
        w *= conj_if_complex(tau[ci]);
        a1(ci, jj) -= w;
        blas::axpy(m2, -w, v2, a2.col(jj));
      }
    }
    // Form the sb x sb block factor: the identity parts of distinct
    // reflectors are orthogonal, so only V2 contributes to V^H v_j.
    auto tblk = t.sub(0, i, sb, sb);
    for (std::int64_t j = 0; j < sb; ++j) {
      for (std::int64_t l = 0; l < j; ++l)
        tblk(l, j) = -tau[i + j] * blas::dotc(m2, a2.col(i + l), a2.col(i + j));
      if (j > 0) {
        auto tcol = MatrixView<T>(&tblk(0, j), j, 1, tblk.ld());
        blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit,
                   T(1), tblk.sub(0, 0, j, j), tcol);
      }
      tblk(j, j) = tau[i + j];
    }
    // Apply the block reflector (Q^H) to the trailing columns.
    if (i + sb < n) {
      const std::int64_t nn = n - i - sb;
      larfb(ApplyTrans::ConjTrans, VShape::Dense, VLayout::Columns,
            ConstMatrixView<T>(a2.sub(0, i, m2, sb)), ConstMatrixView<T>(tblk),
            a1.sub(i, i + sb, sb, nn), a2.sub(0, i + sb, m2, nn));
    }
  }
}

// ---------------------------------------------------------------------------
// TSMQR: applies a TSQRT transformation (v2 = zeroed tile holding dense
// reflector tails, t = its block factors) to the stacked pair [a1; a2]:
//   [a1; a2] := op(Q) [a1; a2].
template <typename T>
void tsmqr(ApplyTrans trans, int ib, ConstMatrixView<T> v2, ConstMatrixView<T> t,
           MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpm(trans, ib, VShape::Dense, VLayout::Columns, v2, t, a1, a2);
}

// ---------------------------------------------------------------------------
// TTQRT: QR of the stacked pair [R1; R2] with both tiles upper triangular.
// On return a1's upper triangle holds the updated R, a2's upper triangle the
// upper-trapezoidal reflector tails V2, and t the block factors. The strictly
// lower parts of both tiles are preserved.
template <typename T>
void ttqrt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  const std::int64_t n = a1.cols();
  TILEDQR_CHECK(a2.cols() == n, "ttqrt: a2 col mismatch");
  TILEDQR_CHECK(ib >= 1, "ttqrt: ib must be >= 1");

  T* tau = detail::thread_scratch<T>(detail::Scratch::Tau, static_cast<size_t>(n));

  for (std::int64_t i = 0; i < n; i += ib) {
    const std::int64_t sb = std::min<std::int64_t>(ib, n - i);
    for (std::int64_t j = 0; j < sb; ++j) {
      const std::int64_t ci = i + j;
      // Column ci of a2 has nonzeros in rows 0..ci only.
      larfg(a1(ci, ci), a2.col(ci), ci + 1, tau[ci]);
      const T* v2 = a2.col(ci);
      for (std::int64_t jj = ci + 1; jj < i + sb; ++jj) {
        T w = a1(ci, jj) + blas::dotc(ci + 1, v2, a2.col(jj));
        w *= conj_if_complex(tau[ci]);
        a1(ci, jj) -= w;
        blas::axpy(ci + 1, -w, v2, a2.col(jj));
      }
    }
    auto tblk = t.sub(0, i, sb, sb);
    for (std::int64_t j = 0; j < sb; ++j) {
      // Reflector tail i+l has support rows 0..i+l only; the tile below that
      // may hold unrelated data (the GEQRT reflectors), so the dot product
      // must stop at the shorter support.
      for (std::int64_t l = 0; l < j; ++l)
        tblk(l, j) = -tau[i + j] * blas::dotc(i + l + 1, a2.col(i + l), a2.col(i + j));
      if (j > 0) {
        auto tcol = MatrixView<T>(&tblk(0, j), j, 1, tblk.ld());
        blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit,
                   T(1), tblk.sub(0, 0, j, j), tcol);
      }
      tblk(j, j) = tau[i + j];
    }
    // Block-apply Q^H to trailing columns. V2 for this panel is the
    // upper trapezoid a2[0:i+sb, i:i+sb].
    if (i + sb < n) {
      const std::int64_t nn = n - i - sb;
      larfb(ApplyTrans::ConjTrans, VShape::UpperTrapezoid, VLayout::Columns,
            ConstMatrixView<T>(a2.sub(0, i, i + sb, sb)), ConstMatrixView<T>(tblk),
            a1.sub(i, i + sb, sb, nn), a2.sub(0, i + sb, i + sb, nn));
    }
  }
}

// ---------------------------------------------------------------------------
// TTMQR: applies a TTQRT transformation (v2 = zeroed tile holding the upper
// trapezoidal reflector tails in its upper triangle) to the pair [a1; a2].
template <typename T>
void ttmqr(ApplyTrans trans, int ib, ConstMatrixView<T> v2, ConstMatrixView<T> t,
           MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpm(trans, ib, VShape::UpperTrapezoid, VLayout::Columns, v2, t, a1, a2);
}

// ---------------------------------------------------------------------------
// Convenience overloads accepting mutable views for read-only arguments
// (template deduction does not consider the MatrixView -> ConstMatrixView
// conversion).
template <typename T>
void unmqr(ApplyTrans trans, int ib, MatrixView<T> v, MatrixView<T> t, MatrixView<T> c) {
  unmqr(trans, ib, ConstMatrixView<T>(v), ConstMatrixView<T>(t), c);
}
template <typename T>
void tsmqr(ApplyTrans trans, int ib, MatrixView<T> v2, MatrixView<T> t, MatrixView<T> a1,
           MatrixView<T> a2) {
  tsmqr(trans, ib, ConstMatrixView<T>(v2), ConstMatrixView<T>(t), a1, a2);
}
template <typename T>
void ttmqr(ApplyTrans trans, int ib, MatrixView<T> v2, MatrixView<T> t, MatrixView<T> a1,
           MatrixView<T> a2) {
  ttmqr(trans, ib, ConstMatrixView<T>(v2), ConstMatrixView<T>(t), a1, a2);
}

}  // namespace tiledqr::kernels
