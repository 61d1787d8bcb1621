// Elementary Householder reflectors and compact-WY block accumulation,
// following the LAPACK conventions:
//
//   larfg produces H = I - tau * v * v^H  (v = [1; x'], unit first entry)
//   with H^H * [alpha; x] = [beta; 0], beta real, and H unitary.
//
//   A QR factorization accumulates Q = H_1 H_2 ... H_k; block reflectors are
//   Q_blk = I - V T V^H with T upper triangular (larft, forward columnwise).
//
//   Applying Q^H uses T^H, applying Q uses T (larfb, left). larfb is the
//   one compact-WY apply in the library: every update kernel (QR and LQ)
//   and every factor kernel's trailing update runs through it, as three
//   GEMMs over a per-thread expansion of the reflector block.
#pragma once

#include <array>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "common/aligned.hpp"
#include "matrix/matrix_view.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::kernels {

/// Generates an elementary reflector annihilating the n-vector x against the
/// scalar alpha (total reflector order n + 1). On return alpha holds beta and
/// x holds the reflector tail v (the leading implicit entry of v is 1).
/// Overflow-safe via LAPACK-style rescaling.
template <typename T>
void larfg(T& alpha, T* x, std::int64_t n, T& tau) {
  using R = RealType<T>;
  R xnorm = blas::nrm2(n, x);
  const R alphr = ScalarTraits<T>::real(alpha);
  const R alphi = ScalarTraits<T>::imag(alpha);

  if (xnorm == R(0) && alphi == R(0)) {
    tau = T(0);  // H = I
    return;
  }

  auto lapy = [](R a, R b, R c) { return std::sqrt(a * a + b * b + c * c); };
  R beta = -std::copysign(lapy(alphr, alphi, xnorm), alphr);

  const R safmin = std::numeric_limits<R>::min() / std::numeric_limits<R>::epsilon();
  const R rsafmn = R(1) / safmin;
  int knt = 0;
  T alpha_w = alpha;
  while (std::abs(beta) < safmin && knt < 20) {
    ++knt;
    blas::scal(n, T(rsafmn), x);
    beta *= rsafmn;
    alpha_w *= T(rsafmn);
    xnorm = blas::nrm2(n, x);
    beta = -std::copysign(lapy(ScalarTraits<T>::real(alpha_w), ScalarTraits<T>::imag(alpha_w), xnorm),
                          ScalarTraits<T>::real(alpha_w));
  }

  if constexpr (is_complex_v<T>) {
    tau = T((beta - ScalarTraits<T>::real(alpha_w)) / beta,
            -ScalarTraits<T>::imag(alpha_w) / beta);
  } else {
    tau = (beta - alpha_w) / beta;
  }
  T scale = T(1) / (alpha_w - T(beta));
  blas::scal(n, scale, x);

  for (int k = 0; k < knt; ++k) beta *= safmin;
  alpha = T(beta);
}

/// Unblocked QR of an m x n panel (LAPACK geqr2). On return the upper
/// triangle holds R, the strict lower part the reflector tails V, and tau[j]
/// the scalar factors. `work` must hold at least n entries.
template <typename T>
void geqr2(MatrixView<T> a, T* tau, T* work) {
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t k = std::min(m, n);
  for (std::int64_t i = 0; i < k; ++i) {
    larfg(a(i, i), &a(i + 1 < m ? i + 1 : i, i), m - i - 1, tau[i]);
    if (i + 1 < n) {
      // Apply H^H = I - conj(tau) v v^H to A[i:m, i+1:n].
      T alpha = a(i, i);
      a(i, i) = T(1);
      const T* v = &a(i, i);
      auto c = a.sub(i, i + 1, m - i, n - i - 1);
      // w_j = v^H C(:,j); then C(:,j) -= conj(tau) * w_j * v. Real scalars
      // take the shared-x microkernels (v loaded once per four columns);
      // complex keeps per-column dotc because the conjugation is on v.
      if constexpr (!is_complex_v<T>) {
        for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = T(0);
        blas::gemv_t_acc(c.rows(), c.cols(), T(1), c.data(), c.ld(), v, work);
        blas::ger_acc(c.rows(), c.cols(), -tau[i], v, work, c.data(), c.ld());
      } else {
        for (std::int64_t j = 0; j < c.cols(); ++j) work[j] = blas::dotc(c.rows(), v, c.col(j));
        for (std::int64_t j = 0; j < c.cols(); ++j)
          blas::axpy(c.rows(), -conj_if_complex(tau[i]) * work[j], v, c.col(j));
      }
      a(i, i) = alpha;
    }
  }
}

/// Forms the upper-triangular block factor T (k x k) of the compact WY
/// representation from reflectors V (m x k, unit lower trapezoidal) and tau,
/// such that H_1 ... H_k = I - V T V^H (LAPACK larft, forward columnwise).
template <typename T>
void larft(ConstMatrixView<T> v, const T* tau, MatrixView<T> t) {
  const std::int64_t m = v.rows();
  const std::int64_t k = v.cols();
  TILEDQR_ASSERT(t.rows() >= k && t.cols() >= k);
  for (std::int64_t i = 0; i < k; ++i) {
    if (tau[i] == T(0)) {
      for (std::int64_t j = 0; j <= i; ++j) t(j, i) = T(0);
      continue;
    }
    // t(0:i, i) = -tau_i * V(:,0:i)^H * v_i, exploiting the unit diagonal:
    // v_i has implicit 1 at row i, explicit tail below; the tails are
    // contiguous column segments, so the sum is a dotc. Real scalars batch
    // the i dots through the shared-x microkernel (v_i's tail loaded once
    // per four columns of V).
    if constexpr (!is_complex_v<T>) {
      for (std::int64_t j = 0; j < i; ++j) t(j, i) = v(i, j);  // implicit v_i(i) = 1
      if (i > 0 && m > i + 1)
        blas::gemv_t_acc(m - i - 1, i, T(1), &v(i + 1, 0), v.ld(), &v(i + 1, i), &t(0, i));
      for (std::int64_t j = 0; j < i; ++j) t(j, i) *= -tau[i];
    } else {
      for (std::int64_t j = 0; j < i; ++j) {
        // Row i of column j is explicit (j < i so V(i,j) is below V's
        // diagonal).
        // Tails via col() pointers: when i + 1 == m the tail is empty and
        // &v(i + 1, j) would index one past the view.
        T acc = conj_if_complex(v(i, j)) +  // from the implicit v_i(i) = 1
                blas::dotc(m - i - 1, v.col(j) + i + 1, v.col(i) + i + 1);
        t(j, i) = -tau[i] * acc;
      }
    }
    // t(0:i, i) = T(0:i,0:i) * t(0:i, i)
    if (i > 0) {
      auto tcol = MatrixView<T>(&t(0, i), i, 1, t.ld());
      blas::trmm(blas::Side::Left, blas::Uplo::Upper, blas::Op::NoTrans, blas::Diag::NonUnit,
                 T(1), t.sub(0, 0, i, i), tcol);
    }
    t(i, i) = tau[i];
  }
}

/// Whether a block application multiplies by Q or by Q^H.
enum class ApplyTrans { NoTrans, ConjTrans };

/// How a block of reflectors is laid out in the tile that stores it. All
/// three are read only inside their reflector region, so whatever the tile
/// holds elsewhere (an R or L triangle, another kernel's reflectors) is never
/// loaded.
enum class VShape {
  UnitLower,       ///< GEQRT/GELQT: unit diagonal implicit, zeros above it
  Dense,           ///< TSQRT/TSLQT tails: every row explicit
  UpperTrapezoid,  ///< TTQRT/TTLQT tails: column c has rows 0..rows-sb+c
};

/// Whether reflector columns are stored as columns (QR) or, for the LQ duals,
/// as conjugated rows of the A-layout tile.
enum class VLayout { Columns, Rows };

namespace detail {
/// The per-thread scratch buffers of one tile kernel call. Every routine
/// that is live at once on a thread owns a different slot, so no buffer is
/// handed out twice: larfb inside a factor kernel's tau/work loop, inside
/// the (at most two) adjoint scratches of an LQ task.
enum class Scratch { Larfb, Tau, Work, Adjoint0, Adjoint1, Count };

/// Per-thread scratch buffer `slot`: grows to the largest request the thread
/// has made and is reused after that, so steady-state kernels never
/// allocate. The contents are unspecified (whatever the slot's previous user
/// left, or never written); O(nb^2) per slot, thread and scalar type. A
/// growth frees the old block before taking the new one: nothing is copied
/// or zero-filled, and the two blocks are never live at once.
template <typename T>
T* thread_scratch(Scratch slot, std::size_t n) {
  using Buffer = std::vector<T, UninitAllocator<T>>;
  thread_local std::array<Buffer, std::size_t(Scratch::Count)> bufs;
  auto& buf = bufs[std::size_t(slot)];
  if (buf.size() < n) {
    buf = Buffer();
    buf.resize(n);
  }
  return buf.data();
}
}  // namespace detail

/// Applies one compact-WY block reflector from the left (LAPACK larfb,
/// direction forward, storage columnwise):
///   [top; c] := (I - V op(T) V^H)^{(H)} [top; c]
/// V is rows x sb, stored in `v` as `shape` and `layout` say (`v` is
/// rows x sb for Columns, sb x rows for Rows). For Dense and UpperTrapezoid
/// the reflectors carry an implicit identity block that acts on the sb rows
/// of `top`; for UnitLower `top` is empty and the unit diagonal sits in V.
/// T is sb x sb upper triangular; only its upper triangle is read.
///
/// The block is expanded into per-thread scratch with its structure written
/// out (unit diagonal, explicit zeros), op(T) is copied into a zeroed
/// sb x sb block, and the update runs as three GEMMs:
///   W = V^H c (+ top);   W := op(T) W;   top -= W, c -= V W.
/// Columns of [top; c] are independent: applying to a leading column subset
/// gives bitwise the same columns as applying to all of them.
template <typename T>
void larfb(ApplyTrans trans, VShape shape, VLayout layout, ConstMatrixView<T> v,
           ConstMatrixView<T> t, MatrixView<T> top, MatrixView<T> c) {
  const std::int64_t rows = c.rows();
  const std::int64_t sb = t.rows();
  const std::int64_t n = c.cols();
  const bool has_top = shape != VShape::UnitLower;
  TILEDQR_ASSERT(t.cols() == sb && rows >= sb);
  TILEDQR_ASSERT(layout == VLayout::Columns ? (v.rows() == rows && v.cols() == sb)
                                            : (v.rows() == sb && v.cols() == rows));
  TILEDQR_ASSERT(!has_top || (top.rows() == sb && top.cols() == n));
  if (n == 0 || sb == 0) return;

  T* s = detail::thread_scratch<T>(detail::Scratch::Larfb,
                                   std::size_t(sb) * std::size_t(rows + sb + 2 * n));
  MatrixView<T> vs(s, rows, sb, rows);
  MatrixView<T> ts(s + rows * sb, sb, sb, sb);
  MatrixView<T> w(ts.data() + sb * sb, sb, n, sb);
  MatrixView<T> w2(w.data() + sb * n, sb, n, sb);

  // Expand V: column j holds zeros on [0, lo), the unit diagonal at lo - 1
  // for UnitLower, the stored reflector entries on [lo, hi), zeros after.
  for (std::int64_t j = 0; j < sb; ++j) {
    std::int64_t lo = 0, hi = rows;
    if (shape == VShape::UnitLower) lo = j + 1;
    if (shape == VShape::UpperTrapezoid) hi = rows - sb + j + 1;
    T* dst = vs.col(j);
    for (std::int64_t r = 0; r < lo; ++r) dst[r] = T(0);
    if (shape == VShape::UnitLower) dst[j] = T(1);
    if (layout == VLayout::Columns) {
      const T* src = v.col(j);
      for (std::int64_t r = lo; r < hi; ++r) dst[r] = src[r];
    } else {
      for (std::int64_t r = lo; r < hi; ++r) dst[r] = conj_if_complex(v(j, r));
    }
    for (std::int64_t r = hi; r < rows; ++r) dst[r] = T(0);
  }
  // op(T) with its zero triangle written out.
  for (std::int64_t j = 0; j < sb; ++j)
    for (std::int64_t r = 0; r < sb; ++r)
      ts(r, j) = trans == ApplyTrans::NoTrans ? (r <= j ? t(r, j) : T(0))
                                              : (r >= j ? conj_if_complex(t(j, r)) : T(0));

  const ConstMatrixView<T> vc(vs);
  if (has_top) copy(ConstMatrixView<T>(top), w);
  blas::gemm(blas::Op::ConjTrans, blas::Op::NoTrans, T(1), vc, ConstMatrixView<T>(c),
             has_top ? T(1) : T(0), w);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(1), ConstMatrixView<T>(ts),
             ConstMatrixView<T>(w), T(0), w2);
  if (has_top) blas::add(T(-1), ConstMatrixView<T>(w2), top);
  blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, T(-1), vc, ConstMatrixView<T>(w2), T(1), c);
}

}  // namespace tiledqr::kernels
