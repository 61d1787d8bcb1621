// The report, correctness checks and per-layer measurements shared by the
// workloads (declared in bench.hpp).
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <thread>

#include "bench.hpp"
#include "blas/blas.hpp"
#include "blas/simd/simd.hpp"
#include "common/stringf.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "matrix/generate.hpp"
#include "perf/kernel_bench.hpp"

extern char** environ;

namespace perfbench {

using namespace tiledqr;

void Report::print_table() const {
  TextTable t;
  t.set_header({"metric", "value", "unit"});
  for (const auto& m : metrics_) t.add_row({m.name, stringf("%.6g", m.value), m.unit});
  t.print(std::cout);
}

std::string Report::json() const {
  std::string s = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    // JSON has no NaN or Inf; a ratio with an empty base prints as 0.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    s += stringf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "", m.name.c_str(),
                 v, m.unit.c_str());
  }
  return s + "}";
}

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

// ---------------------------------------------------------------- checks --

namespace {

double norm2(ConstMatrixView<double> x) {
  double s = 0;
  for (std::int64_t j = 0; j < x.cols(); ++j)
    for (std::int64_t i = 0; i < x.rows(); ++i) s += x(i, j) * x(i, j);
  return std::sqrt(s);
}

/// r = A x - b for a single right-hand side (column sweeps, vectorizable).
std::vector<double> residual_vector(ConstMatrixView<double> a, ConstMatrixView<double> x,
                                    ConstMatrixView<double> b) {
  std::vector<double> r(size_t(a.rows()));
  for (std::int64_t i = 0; i < a.rows(); ++i) r[size_t(i)] = -b(i, 0);
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    const double xj = x(j, 0);
    const double* col = &a(0, j);
    for (std::int64_t i = 0; i < a.rows(); ++i) r[size_t(i)] += col[i] * xj;
  }
  return r;
}

}  // namespace

double normal_residual(ConstMatrixView<double> a, ConstMatrixView<double> x,
                       ConstMatrixView<double> b) {
  const std::vector<double> r = residual_vector(a, x, b);
  double s = 0;
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    const double* col = &a(0, j);
    double d = 0;
    for (std::int64_t i = 0; i < a.rows(); ++i) d += col[i] * r[size_t(i)];
    s += d * d;
  }
  return std::sqrt(s) / (norm2(a) * norm2(b));
}

double relative_residual(ConstMatrixView<double> a, ConstMatrixView<double> x,
                         ConstMatrixView<double> b) {
  const std::vector<double> r = residual_vector(a, x, b);
  double s = 0;
  for (double v : r) s += v * v;
  return std::sqrt(s) / norm2(b);
}

WideSystem make_wide_system(Matrix<double> a, std::uint64_t seed) {
  WideSystem w;
  const Matrix<double> y = random_matrix<double>(a.rows(), 1, seed);
  w.x_ref = Matrix<double>(a.cols(), 1);
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    const double* col = &a(0, j);
    double s = 0;
    for (std::int64_t i = 0; i < a.rows(); ++i) s += col[i] * y(i, 0);
    w.x_ref(j, 0) = s;
  }
  w.b = Matrix<double>(a.rows(), 1);
  for (std::int64_t j = 0; j < a.cols(); ++j) {
    const double* col = &a(0, j);
    const double xj = w.x_ref(j, 0);
    for (std::int64_t i = 0; i < a.rows(); ++i) w.b(i, 0) += col[i] * xj;
  }
  w.a = std::move(a);
  return w;
}

double relative_difference(ConstMatrixView<double> x, ConstMatrixView<double> y) {
  double s = 0;
  for (std::int64_t j = 0; j < x.cols(); ++j)
    for (std::int64_t i = 0; i < x.rows(); ++i) s += (x(i, j) - y(i, j)) * (x(i, j) - y(i, j));
  return std::sqrt(s) / norm2(y);
}

double check_bound(std::int64_t m, std::int64_t n) {
  constexpr double c = 10.0;
  return c * double(std::max(m, n)) * std::numeric_limits<double>::epsilon();
}

bool bitwise_equal(const TileMatrix<double>& x, const TileMatrix<double>& y) {
  if (x.m() != y.m() || x.n() != y.n() || x.nb() != y.nb()) return false;
  const size_t tile_bytes = size_t(x.nb()) * size_t(x.nb()) * sizeof(double);
  for (int j = 0; j < x.nt(); ++j)
    for (int i = 0; i < x.mt(); ++i)
      if (std::memcmp(x.tile(i, j).data(), y.tile(i, j).data(), tile_bytes) != 0) return false;
  return true;
}

bool bitwise_equal(const Matrix<double>& x, const Matrix<double>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), size_t(x.rows() * x.cols()) * sizeof(double)) == 0;
}

// ------------------------------------------------------- layer measures --

double gemm_gflops(int m, int n, int k) {
  Matrix<double> a = random_matrix<double>(m, k, 11), b = random_matrix<double>(k, n, 12);
  Matrix<double> c = random_matrix<double>(m, n, 13);
  const double flops = blas::gemm_flops(m, n, k, false);
  // Batches of ~1 ms; the median batch rate over ~0.2 s.
  const int per_batch = std::max(1, int(1e-3 * 20e9 / flops));
  std::vector<double> rates;
  const Ns stop = now_ns() + Ns(200'000'000);
  while (rates.size() < 5 || now_ns() < stop) {
    const Ns t0 = now_ns();
    for (int r = 0; r < per_batch; ++r)
      blas::gemm(blas::Op::NoTrans, blas::Op::NoTrans, 1.0, ConstMatrixView<double>(a.view()),
                 ConstMatrixView<double>(b.view()), 1.0, c.view());
    rates.push_back(flops * per_batch / double(now_ns() - t0));
  }
  return median(rates);
}

std::array<double, kernels::kNumQrKernelKinds> isolated_kernel_gflops(int nb, int ib) {
  return perf::measure_kernel_rates<double>(nb, ib, perf::CacheMode::InCache, 31).kernel;
}

double gamma_seq_gflops(int nb, int ib) {
  std::vector<double> g;
  for (int rep = 0; rep < 7; ++rep) g.push_back(core::measure_gamma_seq<double>(nb, ib));
  return median(g);
}

double hit_rate(const core::PlanCache::Stats& after, const core::PlanCache::Stats& before) {
  const long hits = after.hits - before.hits;
  const long lookups = hits + (after.misses - before.misses);
  return lookups > 0 ? double(hits) / double(lookups) : 0.0;
}

void KindTotals::add(const dag::TaskGraph& g, const std::vector<TaskRun>& runs, double weight) {
  for (size_t t = 0; t < runs.size(); ++t) {
    const size_t k = size_t(g.tasks[t].kind);
    calls[k] += weight;
    busy_ns[k] += weight * double(runs[t].end - runs[t].start);
  }
}

std::array<double, kernels::kNumQrKernelKinds> KindTotals::mean_seconds() const {
  std::array<double, kernels::kNumQrKernelKinds> calls_by_slot{}, busy_by_slot{}, mean{};
  for (int k = 0; k < kernels::kNumKernelKinds; ++k) {
    const size_t slot = size_t(kernels::qr_dual(kernels::KernelKind(k)));
    calls_by_slot[slot] += calls[size_t(k)];
    busy_by_slot[slot] += busy_ns[size_t(k)];
  }
  for (size_t slot = 0; slot < mean.size(); ++slot)
    if (calls_by_slot[slot] > 0) mean[slot] = busy_by_slot[slot] * 1e-9 / calls_by_slot[slot];
  return mean;
}

void report_kernel_kinds(Report& r, const KindTotals& totals, double ops, int nb,
                         double gemm_rate,
                         const std::array<double, kernels::kNumQrKernelKinds>& isolated) {
  for (int k = 0; k < kernels::kNumKernelKinds; ++k) {
    const auto kind = kernels::KernelKind(k);
    const std::string p = std::string("kernels.") + kernels::kernel_name(kind);
    const double calls = totals.calls[size_t(k)] / ops;
    const double busy_s = totals.busy_ns[size_t(k)] * 1e-9 / ops;
    const double gflops =
        busy_s > 0 ? calls * kernels::kernel_flops(kind, nb, false) / busy_s * 1e-9 : 0.0;
    r.add(p + ".calls", calls, "count");
    r.add(p + ".busy_s", busy_s, "s");
    r.add(p + ".gflops", gflops, "GFLOP/s");
    r.add(p + ".pct_gemm", gemm_rate > 0 ? 100.0 * gflops / gemm_rate : 0.0, "%");
    r.add(p + ".isolated_gflops", isolated[size_t(kernels::qr_dual(kind))], "GFLOP/s");
  }
}

void report_schedule(Report& r, const std::vector<ScheduleAnalysis>& ops, int workers) {
  auto med = [&](auto f) {
    std::vector<double> v;
    for (const auto& a : ops) v.push_back(f(a));
    return median(v);
  };
  std::vector<double> ready_us;
  double reconcile = 0;
  for (const auto& a : ops) {
    for (Ns w : a.ready_wait) ready_us.push_back(double(w) * 1e-3);
    const double capacity = double(workers) * double(a.wall);
    reconcile = std::max(reconcile, std::abs(double(a.busy + a.idle) - capacity) / capacity);
  }
  r.add("runtime.utilization", med([](auto& a) { return a.utilization; }), "ratio");
  r.add("runtime.ready_wait_s", med([](auto& a) { return double(a.ready_wait_total) * 1e-9; }),
        "s");
  r.add("runtime.ready_wait_p50_us", quantile(ready_us, 0.5), "us");
  r.add("runtime.ready_wait_p99_us", quantile(ready_us, 0.99), "us");
  r.add("runtime.idle_while_ready_s",
        med([](auto& a) { return double(a.idle_while_ready) * 1e-9; }), "s");
  r.add("runtime.execute_wall_s", med([](auto& a) { return double(a.wall) * 1e-9; }), "s");
  r.add("runtime.idle_s", med([](auto& a) { return double(a.idle) * 1e-9; }), "s");
  r.add("runtime.execute_self_s", med([](auto& a) { return double(a.execute_self) * 1e-9; }),
        "s");
  r.add("runtime.reconcile_err", reconcile, "ratio");
  r.add("dag.realized_cp_ms", med([](auto& a) { return double(a.realized_cp) * 1e-6; }), "ms");
}

void add_pool_delta(runtime::ThreadPool::Stats& sum, const runtime::ThreadPool::Stats& after,
                    const runtime::ThreadPool::Stats& before) {
  sum.tasks_executed += after.tasks_executed - before.tasks_executed;
  sum.tasks_stolen += after.tasks_stolen - before.tasks_stolen;
  sum.tasks_home += after.tasks_home - before.tasks_home;
  sum.tasks_foreign += after.tasks_foreign - before.tasks_foreign;
  for (size_t b = 0; b < sum.steal_latency_hist.size(); ++b)
    sum.steal_latency_hist[b] += after.steal_latency_hist[b] - before.steal_latency_hist[b];
}

void report_pool(Report& r, const runtime::ThreadPool::Stats& d, double ops) {
  r.add("runtime.tasks_stolen", double(d.tasks_stolen) / ops, "count");
  const long placed = d.tasks_home + d.tasks_foreign;
  r.add("runtime.foreign_frac", placed > 0 ? double(d.tasks_foreign) / double(placed) : 0.0,
        "ratio");
  r.add("runtime.steal_p50_ns", double(d.steal_latency_quantile_ns(0.5)), "ns");
  r.add("runtime.tasks_per_request", double(d.tasks_executed) / ops, "count");
}

double empty_us_per_task(runtime::ThreadPool& pool, const core::Plan& plan, int workers) {
  const std::function<void(std::int32_t)> empty = [](std::int32_t) {};
  std::vector<double> us;
  for (int rep = 0; rep < 9; ++rep) {
    const Ns t0 = now_ns();
    pool.run(plan.graph, empty, runtime::SchedulePriority::CriticalPath, workers, &plan.ranks);
    us.push_back(double(now_ns() - t0) * 1e-3 / double(plan.graph.tasks.size()));
  }
  return median(us);
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void stamp_host(Outcome& out, const Args& args) {
  out.stamp.push_back({"nproc", std::to_string(std::thread::hardware_concurrency())});
  out.stamp.push_back({"simd_tier", blas::simd::tier_name(blas::simd::active_tier())});
  out.stamp.push_back({"compiler", __VERSION__});
  out.stamp.push_back({"workload", args.workload});
  out.stamp.push_back({"seed", std::to_string(args.seed)});
  out.stamp.push_back({"seconds", stringf("%g", args.seconds)});
  out.stamp.push_back({"trace", args.trace ? "1" : "0"});
  for (char** e = environ; *e; ++e)
    if (std::strncmp(*e, "TILEDQR_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      if (eq) out.stamp.push_back({std::string(*e, size_t(eq - *e)), eq + 1});
    }
}

}  // namespace perfbench
