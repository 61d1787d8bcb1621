// Shared pieces of the benchmark: arguments, the metric report, correctness
// checks, and the per-layer measurements every workload reuses.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.hpp"
#include "core/plan_cache.hpp"
#include "kernels/kernels.hpp"
#include "matrix/matrix.hpp"
#include "matrix/tile_matrix.hpp"
#include "runtime/thread_pool.hpp"
#include "spans.hpp"

namespace perfbench {

using tiledqr::ConstMatrixView;
using tiledqr::Matrix;
using tiledqr::TileMatrix;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< measure one cold set-up and exit
  std::string spans_path;   ///< traced runs write their spans here ("" = don't)
};

/// Ordered name -> (value, unit) list, printed as a table and as JSON.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void print_table() const;
  [[nodiscard]] std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Outcome of one benchmark invocation.
struct Outcome {
  Report report;
  long attempted = 0;
  long failed = 0;
  double setup_s = 0.0;
  std::vector<std::pair<std::string, std::string>> stamp;  ///< configuration, printed first

  /// Counts one checked operation; `ok == false` counts it failed.
  void check(bool ok, const std::string& what);
};

// ---------------------------------------------------------------- checks --

/// Normal-equation residual of a least-squares solution,
/// ||A^T (A x - b)|| / (||A||_F ||b||).
[[nodiscard]] double normal_residual(ConstMatrixView<double> a, ConstMatrixView<double> x,
                                     ConstMatrixView<double> b);
/// ||A x - b|| / ||b||.
[[nodiscard]] double relative_residual(ConstMatrixView<double> a, ConstMatrixView<double> x,
                                       ConstMatrixView<double> b);
/// A wide system A x = b whose minimum-norm solution is known by
/// construction: x_ref = A^T y for a seeded y lies in the row space of A, and
/// b = A x_ref, so x_ref is the minimum-norm solution (up to the rounding of
/// b, far below the check bound).
struct WideSystem {
  Matrix<double> a, b, x_ref;
};
[[nodiscard]] WideSystem make_wide_system(Matrix<double> a, std::uint64_t seed);
/// ||x - y|| / ||y||.
[[nodiscard]] double relative_difference(ConstMatrixView<double> x, ConstMatrixView<double> y);
/// Tolerance of every scaled check: c * max(m, n) * eps with c = 10.
[[nodiscard]] double check_bound(std::int64_t m, std::int64_t n);
/// Bitwise equality of two tiled matrices (shape and every stored word).
[[nodiscard]] bool bitwise_equal(const TileMatrix<double>& x, const TileMatrix<double>& y);
[[nodiscard]] bool bitwise_equal(const Matrix<double>& x, const Matrix<double>& y);

// ------------------------------------------------------- layer measures --

/// Single-thread GEMM rate for an m x n x k product (GFLOP/s, median of batches).
[[nodiscard]] double gemm_gflops(int m, int n, int k);

/// Isolated in-cache kernel rates (perf::measure_kernel_rates), by QR slot.
[[nodiscard]] std::array<double, tiledqr::kernels::kNumQrKernelKinds> isolated_kernel_gflops(
    int nb, int ib);

/// Sequential rate gamma_seq of the paper's model (core::measure_gamma_seq,
/// median of 7).
[[nodiscard]] double gamma_seq_gflops(int nb, int ib);

/// Plan-cache hits over lookups between two snapshots (0 without lookups).
[[nodiscard]] double hit_rate(const tiledqr::core::PlanCache::Stats& after,
                              const tiledqr::core::PlanCache::Stats& before);

/// Per-kind totals of kernel spans: calls and busy nanoseconds.
struct KindTotals {
  std::array<double, tiledqr::kernels::kNumKernelKinds> calls{};
  std::array<double, tiledqr::kernels::kNumKernelKinds> busy_ns{};
  void add(const tiledqr::dag::TaskGraph& g, const std::vector<TaskRun>& runs, double weight = 1);
  /// Mean seconds per call by QR slot (LQ kinds fold into their dual's slot),
  /// the weight vector sim::critical_path_weighted takes.
  [[nodiscard]] std::array<double, tiledqr::kernels::kNumQrKernelKinds> mean_seconds() const;
};

/// Emits kernels.<KIND>.{calls,busy_s,gflops,pct_gemm,isolated_gflops} for
/// every kind, per operation (`ops` operations contributed to `totals`).
void report_kernel_kinds(Report& r, const KindTotals& totals, double ops, int nb,
                         double gemm_rate,
                         const std::array<double, tiledqr::kernels::kNumQrKernelKinds>& isolated);

/// Emits the runtime.* schedule metrics and dag.realized_cp_ms: medians over
/// the per-operation analyses, task ready-wait quantiles over all their tasks.
void report_schedule(Report& r, const std::vector<ScheduleAnalysis>& ops, int workers);

/// Adds the difference of two pool snapshots (counters and steal histogram)
/// to `sum`.
void add_pool_delta(tiledqr::runtime::ThreadPool::Stats& sum,
                    const tiledqr::runtime::ThreadPool::Stats& after,
                    const tiledqr::runtime::ThreadPool::Stats& before);

/// Emits runtime.tasks_stolen, foreign_frac, steal_p50_ns and
/// tasks_per_request from a summed pool delta over `ops` operations.
void report_pool(Report& r, const tiledqr::runtime::ThreadPool::Stats& d, double ops);

/// Executes `g` with an empty body on `pool`; median microseconds per task.
[[nodiscard]] double empty_us_per_task(tiledqr::runtime::ThreadPool& pool,
                                       const tiledqr::core::Plan& plan, int workers);

/// Peak resident set of this process in MiB.
[[nodiscard]] double peak_rss_mb();

/// Host and configuration stamp common to every workload.
void stamp_host(Outcome& out, const Args& args);

// ------------------------------------------------------------ workloads --

enum class DenseShape { Tall, Wide };

void run_dense(const Args& args, DenseShape shape, Outcome& out);
void run_stream(const Args& args, Outcome& out);

}  // namespace perfbench
