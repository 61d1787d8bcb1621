// tall_qr and wide_lq: back-to-back least-squares solves of one large matrix
// through TiledQr with default Options (Greedy/TT, nb = 128, ib = 32, a pool
// of nproc workers). The wide workload solves the transpose of the tall
// matrix, so flops and the reduction-grid DAG are identical and any
// difference isolates the LQ path.
#include <fstream>

#include "bench.hpp"
#include "common/env.hpp"
#include "common/stringf.hpp"
#include "core/roofline.hpp"
#include "core/tiled_qr.hpp"
#include "matrix/generate.hpp"
#include "sim/critical_path.hpp"

namespace perfbench {

using namespace tiledqr;

namespace {

constexpr std::int64_t kLong = 16384;
constexpr std::int64_t kShort = 1024;

struct DenseProblem {
  bool wide = false;
  Matrix<double> a, b;
  Matrix<double> x_ref;  ///< minimum-norm reference (wide only)
  core::Options opt;     ///< defaults: Greedy/TT, nb 128, ib 32, nproc workers

  /// Least-squares checks: the normal-equation residual for tall solves; the
  /// residual plus agreement with the minimum-norm reference for wide ones.
  [[nodiscard]] bool correct(const Matrix<double>& x) const {
    const double bound = check_bound(a.rows(), a.cols());
    if (!wide) return normal_residual(a.view(), x.view(), b.view()) <= bound;
    return relative_residual(a.view(), x.view(), b.view()) <= bound &&
           relative_difference(x.view(), x_ref.view()) <= bound;
  }
};

DenseProblem make_problem(std::uint64_t seed, bool wide) {
  DenseProblem p;
  p.wide = wide;
  Matrix<double> tall = random_matrix<double>(kLong, kShort, seed * 2 + 1);
  if (wide) {
    Matrix<double> a(kShort, kLong);
    for (std::int64_t j = 0; j < kShort; ++j)
      for (std::int64_t i = 0; i < kLong; ++i) a(j, i) = tall(i, j);
    WideSystem w = make_wide_system(std::move(a), seed * 2 + 2);
    p.a = std::move(w.a);
    p.b = std::move(w.b);
    p.x_ref = std::move(w.x_ref);
  } else {
    p.a = std::move(tall);
    p.b = random_matrix<double>(kLong, 1, seed * 2 + 2);
  }
  return p;
}

Matrix<double> solve(const DenseProblem& p) {
  auto qr = core::TiledQr<double>::factorize(p.a.view(), p.opt);
  return qr.solve_least_squares(p.b.view());
}

/// Per-iteration figures of one traced replay.
struct TracedIteration {
  ScheduleAnalysis sched;
  double copy_in_s = 0, copy_out_s = 0, solve_s = 0;
  Ns apply_busy = 0;
};

/// Replays one solve through the public steps TiledQr::factorize takes —
/// PlanCache::get, TileMatrix::from_dense, TStore, runtime::execute over the
/// plan graph with its ranks — with a span around each step and one per
/// kernel, then runs the solve stage on `ref` (whose factors the replay must
/// match bitwise) with spans around its apply DAG and copies.
TracedIteration traced_solve(const DenseProblem& p, const core::TiledQr<double>& ref,
                             const Matrix<double>& x_untraced, std::int64_t req, int workers,
                             SpanLog& log, KindTotals& kinds, Outcome& out) {
  const int nb = p.opt.nb, ib = p.opt.ib;
  const auto kind = p.wide ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
  const int rp = int((std::max(p.a.rows(), p.a.cols()) + nb - 1) / nb);
  const int rq = int((std::min(p.a.rows(), p.a.cols()) + nb - 1) / nb);
  TracedIteration it;

  const std::int32_t root = log.open("solve", -1, req);
  std::int32_t sp = log.open("plan.get", root, req);
  auto plan = core::PlanCache::default_cache().get(rp, rq, *ref.options().tree, kind);
  log.close(sp);
  sp = log.open("matrix.copy_in", root, req);
  TileMatrix<double> tiles = TileMatrix<double>::from_dense(p.a.view(), nb);
  log.close(sp);
  it.copy_in_s = double(log[sp].end - log[sp].start) * 1e-9;
  sp = log.open("tstore", root, req);
  core::TStore<double> ts(rp, rq, ib, nb), t2s(rp, rq, ib, nb);
  log.close(sp);

  const dag::TaskGraph& g = plan->graph;
  std::vector<TaskRun> runs(g.tasks.size());
  const std::int32_t ex = log.open("runtime.execute", root, req);
  runtime::execute(g, timed_body(runs, [&](std::int32_t t) {
                     core::run_task_kernels(g.tasks[size_t(t)], tiles, ts, t2s, ib);
                   }),
                   workers, runtime::SchedulePriority::CriticalPath, &plan->ranks);
  log.close(ex);
  log.add_tasks(g, runs, ex, req);
  it.sched = analyze_schedule(g, runs, log[ex].start, log[ex].end, workers);
  it.sched.execute_self = self_time(log.spans(), ex);
  kinds.add(g, runs);

  // Solve stage: apply op(Q) to the right-hand side as a DAG, then the
  // triangular part, exactly as solve_least_squares composes them.
  const auto trans = p.wide ? kernels::ApplyTrans::NoTrans : kernels::ApplyTrans::ConjTrans;
  TileMatrix<double> c;
  sp = log.open(p.wide ? "solve.head" : "solve.copy_in", root, req);
  c = p.wide ? ref.start_minimum_norm(p.b.view()) : TileMatrix<double>::from_dense(p.b.view(), nb);
  log.close(sp);
  const dag::TaskGraph ag = ref.build_apply_graph(trans, c.nt());
  std::vector<TaskRun> apply_runs(ag.tasks.size());
  const std::int32_t ax = log.open("runtime.execute", root, req);
  runtime::execute(ag, timed_body(apply_runs, [&](std::int32_t t) {
                     ref.run_apply_task(ag.tasks[size_t(t)], trans, c);
                   }),
                   workers);
  log.close(ax);
  log.add_tasks(ag, apply_runs, ax, req);
  for (const TaskRun& r : apply_runs) it.apply_busy += r.end - r.start;

  sp = log.open("matrix.copy_out", root, req);
  Matrix<double> x = c.to_dense();
  log.close(sp);
  it.copy_out_s = double(log[sp].end - log[sp].start) * 1e-9;
  if (!p.wide) {
    sp = log.open("solve.trsm", root, req);
    x = ref.finish_least_squares(c);
    log.close(sp);
  }
  log.close(root);
  it.solve_s = double(log[root].end - log[root].start) * 1e-9;

  out.check(bitwise_equal(tiles, ref.factors()), "traced replay factors bitwise equal");
  out.check(bitwise_equal(x, x_untraced), "traced solve bitwise equal");
  out.check(p.correct(x), "traced solve residual");
  return it;
}

template <typename F>
std::vector<double> collect(const std::vector<TracedIteration>& its, F&& f) {
  std::vector<double> v;
  for (const auto& it : its) v.push_back(f(it));
  return v;
}

void traced_run(const Args& args, const DenseProblem& p, const core::TiledQr<double>& first,
                Outcome& out) {
  const int nb = p.opt.nb, ib = p.opt.ib;
  const int workers = default_thread_count();
  Report& r = out.report;
  const core::Plan& plan = first.plan();
  const dag::TaskGraph& g = plan.graph;
  auto& pool = runtime::ThreadPool::default_pool();

  // Layers measured in isolation, on one thread, with the pool idle.
  const double gemm = gemm_gflops(nb, nb, nb);
  const double gemm_ib = gemm_gflops(nb, nb, ib);
  const auto isolated = isolated_kernel_gflops(nb, ib);
  const double gamma_seq = gamma_seq_gflops(nb, ib);
  std::vector<double> build_ms;
  for (int rep = 0; rep < 3; ++rep) {
    core::PlanCache fresh;
    const Ns t0 = now_ns();
    (void)fresh.get(g.p, g.q, *first.options().tree, g.factor);
    build_ms.push_back(double(now_ns() - t0) * 1e-6);
  }
  const double empty_us = empty_us_per_task(pool, plan, workers);

  // Alternate untraced and traced solves so both see the same machine state.
  SpanLog log;
  KindTotals kinds;
  std::vector<TracedIteration> its;
  std::vector<double> untraced_s;
  runtime::ThreadPool::Stats pool_sum{};
  const auto cache_before = core::PlanCache::default_cache().stats();
  const Ns stop = now_ns() + Ns(args.seconds * 1e9);
  while (its.size() < 2 || now_ns() < stop) {
    const Ns t0 = now_ns();
    auto ref = core::TiledQr<double>::factorize(p.a.view(), p.opt);
    Matrix<double> x = ref.solve_least_squares(p.b.view());
    untraced_s.push_back(double(now_ns() - t0) * 1e-9);
    out.check(p.correct(x), "untraced solve residual");

    const auto before = pool.stats();
    its.push_back(traced_solve(p, ref, x, std::int64_t(its.size()), workers, log, kinds, out));
    add_pool_delta(pool_sum, pool.stats(), before);
  }
  const auto cache_after = core::PlanCache::default_cache().stats();
  const double ops = double(its.size());

  r.add("blas.gemm_gflops", gemm, "GFLOP/s");
  r.add("blas.gemm_ib_gflops", gemm_ib, "GFLOP/s");
  report_kernel_kinds(r, kinds, ops, nb, gemm, isolated);
  double busy_ns = 0;
  for (const auto& it : its) busy_ns += double(it.sched.busy + it.apply_busy);
  r.add("kernels.busy_s", busy_ns * 1e-9, "s");
  r.add("kernels.us_per_request", busy_ns * 1e-3 / ops, "us");

  const double copy_in_s = median(collect(its, [](auto& it) { return it.copy_in_s; }));
  r.add("matrix.copy_in_s", copy_in_s, "s");
  r.add("matrix.copy_in_gbps", double(p.a.rows() * p.a.cols()) * 8.0 / copy_in_s * 1e-9, "GB/s");
  r.add("matrix.copy_out_s", median(collect(its, [](auto& it) { return it.copy_out_s; })), "s");

  r.add("plan.build_ms", median(build_ms), "ms");
  r.add("plan_cache.hit_rate", hit_rate(cache_after, cache_before), "ratio");
  r.add("plan.tasks", double(g.tasks.size()), "count");
  r.add("tuner.decide_ms", 0.0, "ms");  // the direct TiledQr path consults no tuner

  std::vector<ScheduleAnalysis> scheds;
  for (const auto& it : its) scheds.push_back(it.sched);
  report_schedule(r, scheds, workers);
  r.add("runtime.empty_us_per_task", empty_us, "us");
  report_pool(r, pool_sum, ops);

  // Fig. 1 row: realized (above) vs modelled critical path, achieved vs roofline.
  const double wall_s = median(collect(its, [](auto& it) { return double(it.sched.wall) * 1e-9; }));
  const double flops = core::factorization_flops(kLong, kShort, false);
  const double predicted = core::predicted_gflops(gamma_seq, g.p, g.q, plan.critical_path, workers);
  r.add("sim.model_cp_ms", sim::critical_path_weighted(g, kinds.mean_seconds()) * 1e3, "ms");
  r.add("dag.gamma_seq_gflops", gamma_seq, "GFLOP/s");
  r.add("dag.roofline_pct", 100.0 * flops / wall_s * 1e-9 / predicted, "%");

  // The session layer is bypassed on this workload.
  r.add("session.push_us_p50", 0.0, "us");
  r.add("session.push_us_p99", 0.0, "us");
  r.add("session.nonkernel_us_per_req", 0.0, "us");
  r.add("session.requests_per_graft", 0.0, "count");
  r.add("session.peak_unresolved", 0.0, "count");

  const double traced_s = median(collect(its, [](auto& it) { return it.solve_s; }));
  r.add("bench.trace_overhead", median(untraced_s) / traced_s, "ratio");

  if (!args.spans_path.empty()) {
    std::ofstream os(args.spans_path);
    log.write_jsonl(os);
  }
}

}  // namespace

void run_dense(const Args& args, DenseShape shape, Outcome& out) {
  const bool wide = shape == DenseShape::Wide;
  const DenseProblem p = make_problem(args.seed, wide);
  const int workers = default_thread_count();
  out.stamp.push_back({"shape", stringf("%lldx%lld", (long long)p.a.rows(), (long long)p.a.cols())});
  out.stamp.push_back({"tree", "Greedy/TT"});
  out.stamp.push_back({"nb", std::to_string(p.opt.nb)});
  out.stamp.push_back({"ib", std::to_string(p.opt.ib)});
  out.stamp.push_back({"pool", std::to_string(workers)});

  // Set-up: pool start, plan build and the first solve.
  const Ns s0 = now_ns();
  (void)runtime::ThreadPool::default_pool();
  auto first = core::TiledQr<double>::factorize(p.a.view(), p.opt);
  Matrix<double> x = first.solve_least_squares(p.b.view());
  out.setup_s = double(now_ns() - s0) * 1e-9;
  out.check(p.correct(x), "set-up solve residual");
  if (args.setup_only) return;
  if (args.trace) {
    traced_run(args, p, first, out);
    return;
  }

  std::vector<double> secs;
  const Ns stop = now_ns() + Ns(args.seconds * 1e9);
  while (secs.size() < 3 || now_ns() < stop) {
    const Ns t0 = now_ns();
    Matrix<double> xs = solve(p);
    secs.push_back(double(now_ns() - t0) * 1e-9);
    out.check(p.correct(xs), "timed solve residual");
  }
  double total = 0;
  for (double s : secs) total += s;
  const double flops = core::factorization_flops(kLong, kShort, false);
  std::string solve_ms;
  for (double s : secs) solve_ms += stringf("%s%.1f", solve_ms.empty() ? "" : ",", s * 1e3);
  out.stamp.push_back({"samples", std::to_string(secs.size())});
  out.stamp.push_back({"solve_ms", solve_ms});
  out.report.add("gflops", flops / median(secs) * 1e-9, "GFLOP/s");
  out.report.add("rps", double(secs.size()) / total, "1/s");
  out.report.add("latency_p50_ms", quantile(secs, 0.5) * 1e3, "ms");
  out.report.add("latency_p99_ms", quantile(secs, 0.99) * 1e3, "ms");
}

}  // namespace perfbench
