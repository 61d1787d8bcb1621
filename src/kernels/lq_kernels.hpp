// LQ tile kernels by transpose duality (paper §2.1 footnote; PLASMA's
// core_gelqt family). An LQ factorization of A is the conjugate of a QR
// factorization of A^H: A = L Q with L = R^H and Q = Q̃^H where A^H = Q̃ R̃.
// Rather than duplicating PR 7's SIMD-dispatched microkernels for the row
// direction, each LQ kernel adjoints its nb x nb tile operands into scratch,
// runs the dual QR kernel, and adjoints the result back:
//
//   GELQT = GEQRT on A^H     TSLQT = TSQRT on A^H     TTLQT = TTQRT on A^H
//   UNMLQ = UNMQR w/ V^H     TSMLQ = TSMQR w/ V^H     TTMLQ = TTMQR w/ V^H
//
// Factor kernels adjoint every tile in and out, so the factored tile stays
// in A-layout: L in the lower triangle, the row reflectors strictly above it
// (TSLQT tails dense, TTLQT tails lower-trapezoidal). T factors are the
// transposed-world block factors and are stored as-is. Apply kernels operate
// on transposed-world operands (a C whose rows live in A's column space) and
// run the dual QR apply with VLayout::Rows: larfb packs each block of V^H
// straight from the A-layout reflector rows into its per-thread scratch, so
// the apply wrappers copy no tile and allocate nothing.
//
// The factor kernels' adjoint copies are O(nb^2) against their O(nb^3) work,
// and the wrappers require full square tiles — exactly what TileMatrix
// guarantees (every tile is a zero-padded nb x nb block).
//
// The copies must be region-exact, not whole-tile: the DAG runs a TSLQT/TTLQT
// (which rewrites a tile's L triangle) concurrently with UNMLQ tasks (which
// read the same tile's strictly-upper row reflectors) — the same disjoint-
// region parallelism the QR kernels rely on, where tsqrt/ttqrt touch only the
// upper triangles and larft/larfb read only strictly below the unit
// diagonal. A whole-tile adjoint in either wrapper would turn those disjoint
// element sets into a data race. larfb reads an A-layout reflector block only
// inside its reflector region for the same reason.
#pragma once

#include <algorithm>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/tile_kernels.hpp"
#include "matrix/scalar.hpp"

namespace tiledqr::kernels {

namespace detail {

/// Which part of a square source an adjoint copy reads (diagonal included).
enum class Part { All, Lower, Upper };

/// One full 8 x 8 block of adjoint_part: d(j, i) := conj(s(i, j)). Doubles
/// go through 2 x 2 register transposes where SSE2 is there (two column
/// loads, two unpacks, two row stores); other scalars take a fixed-size
/// loop the compiler unrolls.
template <typename T>
void adjoint_block8(const T* s, std::int64_t ls, T* d, std::int64_t ld) {
#if defined(__SSE2__)
  if constexpr (std::is_same_v<T, double>) {
    for (std::int64_t j = 0; j < 8; j += 2)
      for (std::int64_t i = 0; i < 8; i += 2) {
        const __m128d c0 = _mm_loadu_pd(s + i + j * ls);
        const __m128d c1 = _mm_loadu_pd(s + i + (j + 1) * ls);
        _mm_storeu_pd(d + j + i * ld, _mm_unpacklo_pd(c0, c1));
        _mm_storeu_pd(d + j + (i + 1) * ld, _mm_unpackhi_pd(c0, c1));
      }
    return;
  }
#endif
  for (std::int64_t j = 0; j < 8; ++j)
    for (std::int64_t i = 0; i < 8; ++i) d[j + i * ld] = conj_if_complex(s[i + j * ls]);
}

/// dst(j, i) := conj(src(i, j)) over `part` of src, in 8 x 8 cache blocks:
/// each block reads eight source column runs and writes eight destination
/// column runs, so both sides move whole cache lines instead of one strided
/// element per line. Full off-diagonal blocks take adjoint_block8; edge and
/// diagonal blocks clip per element. dst must be src.cols() x src.rows(); no
/// aliasing.
template <typename T>
void adjoint_part(ConstMatrixView<T> src, MatrixView<T> dst, Part part) {
  constexpr std::int64_t kB = 8;
  TILEDQR_ASSERT(dst.rows() == src.cols() && dst.cols() == src.rows());
  const std::int64_t ls = src.ld(), ld = dst.ld();
  for (std::int64_t jb = 0; jb < src.cols(); jb += kB) {
    const std::int64_t je = std::min(jb + kB, src.cols());
    const std::int64_t ib0 = part == Part::Lower ? jb : 0;
    const std::int64_t ib1 = part == Part::Upper ? std::min(je, src.rows()) : src.rows();
    for (std::int64_t ib = ib0; ib < ib1; ib += kB) {
      const std::int64_t ie = std::min(ib + kB, ib1);
      if (ie - ib == kB && je - jb == kB && (part == Part::All || ib != jb)) {
        adjoint_block8(src.data() + ib + jb * ls, ls, dst.data() + jb + ib * ld, ld);
        continue;
      }
      for (std::int64_t j = jb; j < je; ++j) {
        const std::int64_t lo = part == Part::Lower ? std::max(ib, j) : ib;
        const std::int64_t hi = part == Part::Upper ? std::min(ie, j + 1) : ie;
        for (std::int64_t i = lo; i < hi; ++i) dst(j, i) = conj_if_complex(src(i, j));
      }
    }
  }
}

/// Which elements of the bound tile an AdjointScratch may touch.
enum class Region {
  Full,           ///< the whole tile
  LowerTriangle,  ///< i >= j only (the L / dual-R part, diagonal included)
};

/// Scratch tile bound to a live view: adjoints in on construction, back out
/// on commit(). With Region::LowerTriangle only the tile's lower triangle is
/// read and written (its image is the scratch's upper triangle — exactly the
/// elements tsqrt/ttqrt access); the rest of the scratch keeps whatever its
/// slot held before and the tile's strictly-upper reflectors are never
/// loaded, which keeps the wrapper safe against concurrent UNMLQ readers of
/// the same tile. The buffer is the thread's `slot` scratch, so a task
/// allocates nothing once its thread has warmed up; the two scratches of one
/// task take Scratch::Adjoint0 and Scratch::Adjoint1.
template <typename T>
class AdjointScratch {
 public:
  AdjointScratch(MatrixView<T> tile, Region region, Scratch slot)
      : tile_(tile), region_(region),
        buf_(thread_scratch<T>(slot, size_t(tile.rows()) * size_t(tile.cols()))) {
    adjoint_part(ConstMatrixView<T>(tile_), view(),
                 region_ == Region::Full ? Part::All : Part::Lower);
  }

  [[nodiscard]] MatrixView<T> view() {
    return MatrixView<T>(buf_, tile_.cols(), tile_.rows(), tile_.cols());
  }

  void commit() {
    adjoint_part(ConstMatrixView<T>(view()), tile_,
                 region_ == Region::Full ? Part::All : Part::Upper);
  }

 private:
  MatrixView<T> tile_;
  Region region_;
  T* buf_;
};

}  // namespace detail

// ---------------------------------------------------------------------------
// GELQT: blocked LQ of a square tile. On return the tile holds L in its
// lower triangle and the row reflectors strictly above; t holds the dual
// GEQRT's ib x nb block factors.
template <typename T>
void gelqt(int ib, MatrixView<T> a, MatrixView<T> t) {
  detail::AdjointScratch<T> s(a, detail::Region::Full, detail::Scratch::Adjoint0);
  geqrt(ib, s.view(), t);
  s.commit();
}

// ---------------------------------------------------------------------------
// TSLQT: LQ of the side-by-side pair [L1 | A2] (L1 = a1's lower triangle).
// On return a1 holds the updated L, a2 the dense row-reflector tails.
template <typename T>
void tslqt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  // a1's strictly-upper reflectors may be under concurrent UNMLQ reads;
  // the dual tsqrt never touches a1's strictly-lower (dual) part anyway.
  detail::AdjointScratch<T> s1(a1, detail::Region::LowerTriangle, detail::Scratch::Adjoint0);
  detail::AdjointScratch<T> s2(a2, detail::Region::Full, detail::Scratch::Adjoint1);
  tsqrt(ib, s1.view(), s2.view(), t);
  s1.commit();
  s2.commit();
}

// ---------------------------------------------------------------------------
// TTLQT: LQ of the side-by-side pair of lower-triangular tiles [L1 | L2].
// On return a2's lower triangle holds the lower-trapezoidal reflector tails;
// the strictly-upper parts of both tiles (GELQT row reflectors) survive.
template <typename T>
void ttlqt(int ib, MatrixView<T> a1, MatrixView<T> a2, MatrixView<T> t) {
  // Both tiles carry live GELQT row reflectors strictly above the diagonal
  // that UNMLQ tasks read in parallel; the dual ttqrt only works on the
  // upper (dual) triangles, so restrict both scratches to the L region.
  detail::AdjointScratch<T> s1(a1, detail::Region::LowerTriangle, detail::Scratch::Adjoint0);
  detail::AdjointScratch<T> s2(a2, detail::Region::LowerTriangle, detail::Scratch::Adjoint1);
  ttqrt(ib, s1.view(), s2.view(), t);
  s1.commit();
  s2.commit();
}

// ---------------------------------------------------------------------------
// UNMLQ: applies a GELQT transformation to a transposed-world tile c
// (c's rows are indexed by A's columns): c := op(Q̃) c, where Q̃ is the dual
// QR's orthogonal factor. v is the factored tile in A-layout.
template <typename T>
void unmlq(ApplyTrans trans, int ib, ConstMatrixView<T> v, ConstMatrixView<T> t,
           MatrixView<T> c) {
  detail::unm(trans, ib, VLayout::Rows, v, t, c);
}

// ---------------------------------------------------------------------------
// TSMLQ: applies a TSLQT transformation (v2 = the zeroed tile holding dense
// row-reflector tails, in A-layout) to the transposed-world pair [a1; a2].
template <typename T>
void tsmlq(ApplyTrans trans, int ib, ConstMatrixView<T> v2, ConstMatrixView<T> t,
           MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpm(trans, ib, VShape::Dense, VLayout::Rows, v2, t, a1, a2);
}

// ---------------------------------------------------------------------------
// TTMLQ: applies a TTLQT transformation (v2 = the zeroed tile holding the
// lower-trapezoidal row-reflector tails, in A-layout) to the transposed-world
// pair [a1; a2].
template <typename T>
void ttmlq(ApplyTrans trans, int ib, ConstMatrixView<T> v2, ConstMatrixView<T> t,
           MatrixView<T> a1, MatrixView<T> a2) {
  detail::tpm(trans, ib, VShape::UpperTrapezoid, VLayout::Rows, v2, t, a1, a2);
}

// ---------------------------------------------------------------------------
// Convenience overloads accepting mutable views for read-only arguments
// (template deduction does not consider the MatrixView -> ConstMatrixView
// conversion).
template <typename T>
void unmlq(ApplyTrans trans, int ib, MatrixView<T> v, MatrixView<T> t, MatrixView<T> c) {
  unmlq(trans, ib, ConstMatrixView<T>(v), ConstMatrixView<T>(t), c);
}
template <typename T>
void tsmlq(ApplyTrans trans, int ib, MatrixView<T> v2, MatrixView<T> t, MatrixView<T> a1,
           MatrixView<T> a2) {
  tsmlq(trans, ib, ConstMatrixView<T>(v2), ConstMatrixView<T>(t), a1, a2);
}
template <typename T>
void ttmlq(ApplyTrans trans, int ib, MatrixView<T> v2, MatrixView<T> t, MatrixView<T> a1,
           MatrixView<T> a2) {
  ttmlq(trans, ib, ConstMatrixView<T>(v2), ConstMatrixView<T>(t), a1, a2);
}

}  // namespace tiledqr::kernels
