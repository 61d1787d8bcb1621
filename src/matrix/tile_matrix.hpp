// Tiled matrix storage (PLASMA-style layout).
//
// A TileMatrix stores an m x n logical matrix as a p x q grid of nb x nb
// tiles, each tile contiguous in memory (column-major within the tile). When
// m or n is not a multiple of nb, the matrix is zero-padded up to full tiles;
// zero-padding rows/columns does not change the R factor of a QR
// factorization nor the leading Q columns, so all kernels can assume full
// square tiles — exactly the model of the paper.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/aligned.hpp"
#include "common/error.hpp"
#include "matrix/matrix.hpp"
#include "matrix/matrix_view.hpp"

namespace tiledqr {

template <typename T>
class TileMatrix {
 public:
  TileMatrix() = default;

  /// Zero-initialized tiled matrix holding a logical m x n dense matrix.
  TileMatrix(std::int64_t m, std::int64_t n, int nb) : TileMatrix(m, n, nb, Unfilled{}) {
    fill(T(0));
  }

  /// Logical row/column counts.
  [[nodiscard]] std::int64_t m() const noexcept { return m_; }
  [[nodiscard]] std::int64_t n() const noexcept { return n_; }
  /// Tile grid dimensions (the paper's p and q).
  [[nodiscard]] int mt() const noexcept { return mt_; }
  [[nodiscard]] int nt() const noexcept { return nt_; }
  /// Tile size.
  [[nodiscard]] int nb() const noexcept { return nb_; }

  /// View of tile (i, j); always nb x nb.
  [[nodiscard]] MatrixView<T> tile(int i, int j) noexcept {
    TILEDQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return MatrixView<T>(tile_data(i, j), nb_, nb_, nb_);
  }
  [[nodiscard]] ConstMatrixView<T> tile(int i, int j) const noexcept {
    TILEDQR_ASSERT(i >= 0 && i < mt_ && j >= 0 && j < nt_);
    return ConstMatrixView<T>(tile_data(i, j), nb_, nb_, nb_);
  }

  /// Element access through tile translation (slow; for tests and I/O).
  [[nodiscard]] T at(std::int64_t i, std::int64_t j) const {
    TILEDQR_CHECK(i >= 0 && i < m_ && j >= 0 && j < n_, "at: out of range");
    return tile(int(i / nb_), int(j / nb_))(i % nb_, j % nb_);
  }

  /// Builds a tiled copy of a dense matrix (zero-padded to full tiles). The
  /// tiled buffer is written once, in storage order: one contiguous run per
  /// tile column, with only the ragged padding zeroed.
  [[nodiscard]] static TileMatrix from_dense(ConstMatrixView<T> a, int nb) {
    TileMatrix out(a.rows(), a.cols(), nb, Unfilled{});
    const std::int64_t tnb = out.nb_;
    T* dst = out.data_.data();
    for (int tj = 0; tj < out.nt_; ++tj) {
      const std::int64_t j0 = std::int64_t(tj) * tnb;
      const std::int64_t cols = std::min(tnb, out.n_ - j0);
      for (int ti = 0; ti < out.mt_; ++ti) {
        const std::int64_t i0 = std::int64_t(ti) * tnb;
        const std::int64_t rows = std::min(tnb, out.m_ - i0);
        for (std::int64_t jj = 0; jj < cols; ++jj, dst += tnb) {
          std::copy_n(a.col(j0 + jj) + i0, rows, dst);
          std::fill(dst + rows, dst + tnb, T(0));
        }
        dst = std::fill_n(dst, (tnb - cols) * tnb, T(0));
      }
    }
    return out;
  }

  /// Converts back to a dense m x n matrix (dropping the padding).
  [[nodiscard]] Matrix<T> to_dense() const {
    Matrix<T> out(m_, n_);
    for (std::int64_t j = 0; j < n_; ++j) read_column(j, 0, m_, out.view().col(j));
    return out;
  }

  /// Copies rows [i0, i1) of logical column j to dst[0, i1 - i0), one
  /// contiguous run per tile.
  void read_column(std::int64_t j, std::int64_t i0, std::int64_t i1, T* dst) const {
    TILEDQR_CHECK(j >= 0 && j < n_ && 0 <= i0 && i0 <= i1 && i1 <= m_,
                  "read_column: out of range");
    const std::int64_t jj = j % nb_;
    while (i0 < i1) {
      const std::int64_t ii = i0 % nb_;
      const std::int64_t run = std::min<std::int64_t>(nb_ - ii, i1 - i0);
      const T* src = tile(int(i0 / nb_), int(j / nb_)).col(jj) + ii;
      dst = std::copy_n(src, run, dst);
      i0 += run;
    }
  }

  /// Sets every entry (including padding) to `value`.
  void fill(T value) {
    for (auto& x : data_) x = value;
  }

 private:
  /// Tag for the constructor that leaves the tiled buffer unwritten. (The
  /// divisions must not run before the nb check: nb == 0 would be a SIGFPE
  /// in the member initializers, not a catchable Error.)
  struct Unfilled {};
  TileMatrix(std::int64_t m, std::int64_t n, int nb, Unfilled)
      : m_(m), n_(n), nb_(checked_nb(m, n, nb)), mt_(int((m + nb_ - 1) / nb_)),
        nt_(int((n + nb_ - 1) / nb_)),
        data_(size_t(mt_) * size_t(nt_) * size_t(nb_) * size_t(nb_)) {}

  [[nodiscard]] static int checked_nb(std::int64_t m, std::int64_t n, int nb) {
    TILEDQR_CHECK(m >= 1 && n >= 1, "tile matrix must be non-empty");
    TILEDQR_CHECK(nb >= 1, "tile size nb must be >= 1");
    return nb;
  }

  [[nodiscard]] T* tile_data(int i, int j) noexcept {
    return data_.data() + (size_t(j) * size_t(mt_) + size_t(i)) * size_t(nb_) * size_t(nb_);
  }
  [[nodiscard]] const T* tile_data(int i, int j) const noexcept {
    return data_.data() + (size_t(j) * size_t(mt_) + size_t(i)) * size_t(nb_) * size_t(nb_);
  }

  std::int64_t m_ = 0;
  std::int64_t n_ = 0;
  int nb_ = 0;
  int mt_ = 0;
  int nt_ = 0;
  std::vector<T, UninitAllocator<T>> data_;
};

}  // namespace tiledqr
