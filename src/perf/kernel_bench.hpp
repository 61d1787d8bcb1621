// Kernel-level timing harness (regenerates Figures 4 and 5).
//
// Rates are nominal flops (Table 1 weights, x4 for complex) divided by wall
// time, matching the paper's GFLOP/s axes. In-cache mode times repeated
// calls on resident operands; out-of-cache mode rotates through operand sets
// whose footprint exceeds the last-level cache (MultCallFlushLRU-style).
#pragma once

#include <array>
#include <string>

#include "kernels/kernels.hpp"

namespace tiledqr::perf {

enum class CacheMode { InCache, OutOfCache };

/// GFLOP/s per kernel, plus the paper's composite rates and a GEMM baseline.
struct KernelRates {
  /// Indexed by kernels::KernelKind.
  std::array<double, 6> kernel{};
  double geqrt_plus_ttqrt = 0.0;  ///< the TT pair doing TSQRT's job (6 units)
  double unmqr_plus_ttmqr = 0.0;  ///< the TT pair doing TSMQR's job (12... 12 vs 12 units)
  double gemm = 0.0;

  [[nodiscard]] double of(kernels::KernelKind k) const { return kernel[size_t(k)]; }
};

/// Measures all six kernels + gemm for tile size nb and inner block ib.
template <typename T>
[[nodiscard]] KernelRates measure_kernel_rates(int nb, int ib, CacheMode mode, int reps);

/// Median per-call seconds for each kernel kind (used to weight the DAG with
/// measured times).
template <typename T>
[[nodiscard]] std::array<double, 6> measure_kernel_seconds(int nb, int ib, CacheMode mode,
                                                           int reps);

/// A named per-kernel-kind weight vector for ranking candidate elimination
/// trees with the bounded-processor simulator (the tree autotuner's model).
/// `id` is a stable string that keys tuning-table entries, so decisions
/// made under one profile are never served under another.
struct WeightProfile {
  std::string id;
  std::array<double, 6> weight{};  ///< time units per kernel call, by KernelKind
};

/// The paper's Table-1 flop-count weights (GEQRT 4, UNMQR 6, TSQRT 6,
/// TSMQR 12, TTQRT 2, TTMQR 6). Treats every kernel as equally efficient,
/// which favors TT trees — useful as the "pure flops" baseline.
[[nodiscard]] WeightProfile table1_profile();

/// Table-1 weights corrected by the kernel efficiencies of the paper's §5
/// study: the TS kernels (TSQRT/TSMQR) run at full rate thanks to their
/// GEMM-like granularity, everything else at ~70% of it. This is the profile
/// that reproduces the paper's crossover — TS-family flat/plasma trees win
/// on squarish grids, Greedy/Fibonacci win on tall ones — and is the
/// autotuner's default.
[[nodiscard]] WeightProfile sc11_profile();

}  // namespace tiledqr::perf
