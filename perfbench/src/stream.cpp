// stream_ls: one client thread keeps a window of outstanding push_solve
// requests on one FactorStream (tuner-chosen tree per shape, nb = ib = 32,
// default QoS options) over a seeded mix of small tall and wide problems.
// The pool has nproc - 1 workers, so client plus workers equal nproc. Small
// tiles make per-request and per-task fixed costs a large share here.
#include <chrono>
#include <fstream>
#include <future>
#include <random>
#include <stdexcept>

#include "bench.hpp"
#include "common/env.hpp"
#include "common/stringf.hpp"
#include "core/qr_session.hpp"
#include "core/roofline.hpp"
#include "matrix/generate.hpp"
#include "sim/critical_path.hpp"

namespace perfbench {

using namespace tiledqr;

namespace {

constexpr int kNb = 32;
constexpr int kIb = 32;
constexpr int kWindow = 8;     ///< outstanding requests the client keeps
constexpr int kPerShape = 8;   ///< distinct problems per shape
constexpr int kReplays = 15;   ///< traced replays per shape (1 thread, then the pool)
constexpr size_t kLatencyWindow = 1000;  ///< completions per latency-percentile window
constexpr double kWarmupSeconds = 2.0;   ///< untimed closed loop before any measurement
constexpr std::int64_t kShapes[3][2] = {{256, 128}, {384, 128}, {128, 256}};
constexpr double kShapeShare = 1.0 / 3.0;  ///< the mix draws shapes uniformly

struct StreamProblem {
  Matrix<double> a, b;
  Matrix<double> x_ref;  ///< minimum-norm reference (wide shapes only)

  [[nodiscard]] bool wide() const { return a.rows() < a.cols(); }
  [[nodiscard]] bool correct(const Matrix<double>& x) const {
    const double bound = check_bound(a.rows(), a.cols());
    if (!wide()) return normal_residual(a.view(), x.view(), b.view()) <= bound;
    return relative_residual(a.view(), x.view(), b.view()) <= bound &&
           relative_difference(x.view(), x_ref.view()) <= bound;
  }
  [[nodiscard]] double flops() const {
    return core::factorization_flops(std::max(a.rows(), a.cols()), std::min(a.rows(), a.cols()),
                                     false);
  }
};

std::vector<StreamProblem> make_problems(std::uint64_t seed) {
  std::vector<StreamProblem> probs;
  for (int s = 0; s < 3; ++s)
    for (int k = 0; k < kPerShape; ++k) {
      const std::uint64_t base = (seed * 64 + std::uint64_t(s * kPerShape + k)) * 2;
      StreamProblem p;
      Matrix<double> a = random_matrix<double>(kShapes[s][0], kShapes[s][1], base + 1);
      if (kShapes[s][0] < kShapes[s][1]) {
        WideSystem w = make_wide_system(std::move(a), base + 2);
        p.a = std::move(w.a);
        p.b = std::move(w.b);
        p.x_ref = std::move(w.x_ref);
      } else {
        p.a = std::move(a);
        p.b = random_matrix<double>(kShapes[s][0], 1, base + 2);
      }
      probs.push_back(std::move(p));
    }
  return probs;
}

/// Verifies results cheaply on the client thread: the first result of each
/// problem gets the full residual checks; later ones must be bitwise equal
/// to it (the library's determinism contract) or pass the full checks too.
class ResultChecker {
 public:
  ResultChecker(const std::vector<StreamProblem>& probs, Outcome& out)
      : probs_(probs), out_(out), first_(probs.size()) {}

  void check(int prob, const Matrix<double>& x) {
    auto& first = first_[size_t(prob)];
    if (first.rows() > 0 && bitwise_equal(x, first)) {
      out_.check(true, "");
      return;
    }
    const bool ok = probs_[size_t(prob)].correct(x);
    out_.check(ok, stringf("stream solve residual (problem %d)", prob));
    if (ok && first.rows() == 0) first = x;
  }

 private:
  const std::vector<StreamProblem>& probs_;
  Outcome& out_;
  std::vector<Matrix<double>> first_;
};

struct LoopResult {
  std::vector<double> latency_s;
  std::vector<double> done_s;    ///< completion time since the loop started
  std::vector<double> flops_at;  ///< flops of each completed request
  std::vector<double> push_us;
  long completed = 0;
  double wall_s = 0;
};

/// Closed loop for `seconds`: keep kWindow requests outstanding, harvest each
/// future the moment it is seen ready (polled every 50 us while waiting on
/// the oldest), refill. With `log`, spans cover each request, each
/// push_solve call and each waiting episode.
LoopResult closed_loop(core::FactorStream<double>& stream, const std::vector<StreamProblem>& probs,
                       std::mt19937_64& mix, double seconds, ResultChecker& checker,
                       Outcome& out, SpanLog* log, std::int64_t& next_req) {
  struct Slot {
    std::future<Matrix<double>> fut;
    Ns t_push = 0;
    int prob = 0;
    std::int64_t req = 0;
    std::int32_t span = -1;
  };
  std::vector<Slot> window;
  LoopResult res;
  const Ns start = now_ns(), stop = start + Ns(seconds * 1e9);
  Ns last_done = start;
  std::int32_t wait_span = -1;
  for (;;) {
    while (int(window.size()) < kWindow && now_ns() < stop) {
      Slot s;
      s.prob = int(mix() % probs.size());
      s.req = next_req++;
      const StreamProblem& p = probs[size_t(s.prob)];
      std::int32_t push = -1;
      if (log) {
        s.span = log->open("request", -1, s.req);
        push = log->open("push_solve", s.span, s.req);
      }
      s.t_push = now_ns();
      s.fut = stream.push_solve(p.a.view(), p.b.view());
      res.push_us.push_back(double(now_ns() - s.t_push) * 1e-3);
      if (log) log->close(push);
      window.push_back(std::move(s));
    }
    if (window.empty()) break;
    bool harvested = false;
    for (size_t i = 0; i < window.size();) {
      if (window[i].fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++i;
        continue;
      }
      const Ns done = now_ns();
      if (log && wait_span >= 0) {
        log->close(wait_span);
        wait_span = -1;
      }
      Slot s = std::move(window[i]);
      window.erase(window.begin() + long(i));
      if (log) log->close(s.span);
      harvested = true;
      last_done = done;
      try {
        Matrix<double> x = s.fut.get();
        checker.check(s.prob, x);
        res.latency_s.push_back(double(done - s.t_push) * 1e-9);
        res.done_s.push_back(double(done - start) * 1e-9);
        res.flops_at.push_back(probs[size_t(s.prob)].flops());
        ++res.completed;
      } catch (const std::exception& e) {
        out.check(false, std::string("stream request failed: ") + e.what());
      }
    }
    if (!harvested) {
      if (log && wait_span < 0) wait_span = log->open("wait", window.front().span, window.front().req);
      (void)window.front().fut.wait_for(std::chrono::microseconds(50));
    }
  }
  res.wall_s = double(last_done - start) * 1e-9;
  return res;
}

core::FactorSession::StreamOptions stream_options() {
  core::FactorSession::StreamOptions o;
  o.nb = kNb;
  o.ib = kIb;
  return o;
}

/// Per-shape figures of the traced replays.
struct ShapeReplay {
  double busy_s = 0;        ///< kernel busy per request (factorization + apply), 1 thread
  double total_busy_s = 0;  ///< kernel busy summed over every replay
  double copy_in_s = 0;     ///< TileMatrix::from_dense of A
  double copy_out_s = 0;    ///< TileMatrix::to_dense of the solution tiles
  double tasks = 0;         ///< factorization plan tasks
  double bytes = 0;         ///< bytes of A
  double model_cp_s = 0;    ///< weighted critical path at the measured kernel means
  double roofline_pct = 0;  ///< achieved over predicted rate of the pool replays
  std::vector<ScheduleAnalysis> sched;  ///< factorization DAG on the session pool
};

/// Replays one request of `p` through the public steps — plan lookup in the
/// session cache, tiling, TStore, the factorization DAG, the apply DAG,
/// copies — kReplays times on the calling thread (runtime::execute with one
/// thread: kernel spans without contention), then kReplays times with the
/// factorization DAG on the session pool's workers (the schedule). Every
/// replay's factors must equal TiledQr::factorize's bitwise.
ShapeReplay replay_shape(core::FactorSession& session, const StreamProblem& p, int workers,
                         double gamma_seq, SpanLog& log, KindTotals& kinds,
                         std::int64_t& next_req, Outcome& out) {
  const bool wide = p.wide();
  const auto kind = wide ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
  const int rp = int((std::max(p.a.rows(), p.a.cols()) + kNb - 1) / kNb);
  const int rq = int((std::min(p.a.rows(), p.a.cols()) + kNb - 1) / kNb);
  core::Options opt;
  opt.nb = kNb;
  opt.ib = kIb;
  opt.threads = 1;
  opt.tree = session.choose_tree(rp, rq, 0, kind);
  const auto ref = core::TiledQr<double>::factorize(p.a.view(), opt);
  const Matrix<double> x_lib = ref.solve_least_squares(p.b.view());
  out.check(p.correct(x_lib), "replay reference residual");

  ShapeReplay sr;
  KindTotals shape_kinds;
  std::vector<double> busy, copy_in, copy_out, rates;
  for (int rep = 0; rep < 2 * kReplays; ++rep) {
    const bool pooled = rep >= kReplays;
    const std::int64_t req = next_req++;
    const std::int32_t root = log.open(pooled ? "replay.pool" : "replay", -1, req);
    std::int32_t sp = log.open("plan.get", root, req);
    auto plan = session.plan_cache().get(rp, rq, *opt.tree, kind);
    log.close(sp);
    sp = log.open("matrix.copy_in", root, req);
    TileMatrix<double> tiles = TileMatrix<double>::from_dense(p.a.view(), kNb);
    log.close(sp);
    core::TStore<double> ts(rp, rq, kIb, kNb), t2s(rp, rq, kIb, kNb);
    const dag::TaskGraph& g = plan->graph;
    std::vector<TaskRun> runs(g.tasks.size());
    auto body = timed_body(runs, [&](std::int32_t t) {
      core::run_task_kernels(g.tasks[size_t(t)], tiles, ts, t2s, kIb);
    });
    const std::int32_t ex = log.open("runtime.execute", root, req);
    if (pooled)
      session.pool().run(g, body, runtime::SchedulePriority::CriticalPath, workers, &plan->ranks);
    else
      runtime::execute(g, body, 1, runtime::SchedulePriority::CriticalPath, &plan->ranks);
    log.close(ex);
    log.add_tasks(g, runs, ex, req);
    out.check(bitwise_equal(tiles, ref.factors()), "replay factors bitwise equal");
    sr.tasks = double(g.tasks.size());
    if (pooled) {
      sr.sched.push_back(analyze_schedule(g, runs, log[ex].start, log[ex].end, workers));
      sr.sched.back().execute_self = self_time(log.spans(), ex);
      rates.push_back(p.flops() / double(log[ex].end - log[ex].start));
      log.close(root);
      continue;
    }
    copy_in.push_back(double(log[sp].end - log[sp].start) * 1e-9);
    kinds.add(g, runs, kShapeShare / kReplays);
    shape_kinds.add(g, runs);
    Ns b = 0;
    for (const TaskRun& r : runs) b += r.end - r.start;

    const auto trans = wide ? kernels::ApplyTrans::NoTrans : kernels::ApplyTrans::ConjTrans;
    TileMatrix<double> c =
        wide ? ref.start_minimum_norm(p.b.view()) : TileMatrix<double>::from_dense(p.b.view(), kNb);
    const dag::TaskGraph ag = ref.build_apply_graph(trans, c.nt());
    std::vector<TaskRun> apply_runs(ag.tasks.size());
    sp = log.open("runtime.execute", root, req);
    runtime::execute(ag, timed_body(apply_runs, [&](std::int32_t t) {
                       ref.run_apply_task(ag.tasks[size_t(t)], trans, c);
                     }),
                     1);
    log.close(sp);
    log.add_tasks(ag, apply_runs, sp, req);
    for (const TaskRun& r : apply_runs) b += r.end - r.start;
    sp = log.open("matrix.copy_out", root, req);
    Matrix<double> x = c.to_dense();
    log.close(sp);
    copy_out.push_back(double(log[sp].end - log[sp].start) * 1e-9);
    if (!wide) x = ref.finish_least_squares(c);
    log.close(root);
    busy.push_back(double(b) * 1e-9);
    sr.total_busy_s += double(b) * 1e-9;
    out.check(bitwise_equal(x, x_lib), "replay solve bitwise equal");
  }
  sr.busy_s = median(busy);
  sr.copy_in_s = median(copy_in);
  sr.copy_out_s = median(copy_out);
  sr.bytes = double(p.a.rows() * p.a.cols()) * 8.0;
  const core::Plan& plan = ref.plan();
  sr.model_cp_s = sim::critical_path_weighted(plan.graph, shape_kinds.mean_seconds());
  sr.roofline_pct = 100.0 * median(rates) /
                    core::predicted_gflops(gamma_seq, rp, rq, plan.critical_path, workers);
  return sr;
}

void traced_run(const Args& args, core::FactorSession& session,
                core::FactorStream<double>& stream, const std::vector<StreamProblem>& probs,
                std::mt19937_64& mix, ResultChecker& checker, int workers, Outcome& out) {
  Report& r = out.report;
  SpanLog log;
  std::int64_t next_req = 0;

  const double gemm = gemm_gflops(kNb, kNb, kNb);
  const double gemm_ib = gemm_gflops(kNb, kNb, kIb);
  const auto isolated = isolated_kernel_gflops(kNb, kIb);
  const double gamma_seq = gamma_seq_gflops(kNb, kIb);

  // Cold planning costs: a fresh session's tuner and a fresh plan cache.
  double decide_ms = 0, build_ms = 0, empty_us = 0;
  {
    core::FactorSession cold(core::FactorSession::Config{workers, {}});
    core::PlanCache fresh;
    for (const auto& shape : kShapes) {
      const bool wide = shape[0] < shape[1];
      const auto kind = wide ? kernels::FactorKind::LQ : kernels::FactorKind::QR;
      const int rp = int(std::max(shape[0], shape[1]) / kNb);
      const int rq = int(std::min(shape[0], shape[1]) / kNb);
      Ns t0 = now_ns();
      const auto tree = cold.choose_tree(rp, rq, 0, kind);
      decide_ms += double(now_ns() - t0) * 1e-6 * kShapeShare;
      t0 = now_ns();
      const auto plan = fresh.get(rp, rq, tree, kind);
      build_ms += double(now_ns() - t0) * 1e-6 * kShapeShare;
      empty_us += empty_us_per_task(session.pool(), *plan, workers) * kShapeShare;
    }
  }

  // Mix-weighted replay figures (the mix draws the three shapes uniformly).
  KindTotals kinds;
  double busy_s = 0, replay_busy_s = 0, copy_in_s = 0, copy_out_s = 0, tasks = 0, bytes = 0;
  double model_cp_s = 0, roofline_pct = 0;
  std::vector<ScheduleAnalysis> scheds;
  for (int s = 0; s < 3; ++s) {
    const ShapeReplay sr = replay_shape(session, probs[size_t(s * kPerShape)], workers, gamma_seq,
                                        log, kinds, next_req, out);
    busy_s += sr.busy_s * kShapeShare;
    replay_busy_s += sr.total_busy_s;
    copy_in_s += sr.copy_in_s * kShapeShare;
    copy_out_s += sr.copy_out_s * kShapeShare;
    tasks += sr.tasks * kShapeShare;
    bytes += sr.bytes * kShapeShare;
    model_cp_s += sr.model_cp_s * kShapeShare;
    roofline_pct += sr.roofline_pct * kShapeShare;
    scheds.insert(scheds.end(), sr.sched.begin(), sr.sched.end());
  }

  // Untraced then traced closed loops of half the run each.
  const LoopResult plain =
      closed_loop(stream, probs, mix, args.seconds / 2, checker, out, nullptr, next_req);
  runtime::ThreadPool::Stats pool_d{};
  const auto pool_before = session.pool_stats();
  const auto stream_before = stream.stats();
  const auto cache_before = session.plan_cache_stats();
  const LoopResult traced =
      closed_loop(stream, probs, mix, args.seconds / 2, checker, out, &log, next_req);
  add_pool_delta(pool_d, session.pool_stats(), pool_before);
  const auto stream_after = stream.stats();
  const auto cache_after = session.plan_cache_stats();
  const double n = double(traced.completed);

  r.add("blas.gemm_gflops", gemm, "GFLOP/s");
  r.add("blas.gemm_ib_gflops", gemm_ib, "GFLOP/s");
  report_kernel_kinds(r, kinds, 1.0, kNb, gemm, isolated);
  r.add("kernels.busy_s", replay_busy_s, "s");
  r.add("kernels.us_per_request", busy_s * 1e6, "us");

  r.add("matrix.copy_in_s", copy_in_s, "s");
  r.add("matrix.copy_in_gbps", bytes / copy_in_s * 1e-9, "GB/s");
  r.add("matrix.copy_out_s", copy_out_s, "s");

  r.add("plan.build_ms", build_ms, "ms");
  r.add("plan_cache.hit_rate", hit_rate(cache_after, cache_before), "ratio");
  r.add("plan.tasks", tasks, "count");
  r.add("tuner.decide_ms", decide_ms, "ms");

  // One request's factorization DAG alone on the session pool; inside the
  // stream, requests overlap and their per-task schedule is not visible from
  // the benchmark's spans.
  report_schedule(r, scheds, workers);
  r.add("runtime.empty_us_per_task", empty_us, "us");
  report_pool(r, pool_d, n);

  r.add("sim.model_cp_ms", model_cp_s * 1e3, "ms");
  r.add("dag.gamma_seq_gflops", gamma_seq, "GFLOP/s");
  r.add("dag.roofline_pct", roofline_pct, "%");

  r.add("session.push_us_p50", quantile(traced.push_us, 0.5), "us");
  r.add("session.push_us_p99", quantile(traced.push_us, 0.99), "us");
  r.add("session.nonkernel_us_per_req",
        double(workers + 1) * traced.wall_s / n * 1e6 - busy_s * 1e6, "us");
  const long grafts = stream_after.components - stream_before.components;
  r.add("session.requests_per_graft",
        grafts > 0 ? double(stream_after.pushed - stream_before.pushed) / double(grafts) : 0.0,
        "count");
  r.add("session.peak_unresolved", double(stream_after.peak_unresolved), "count");
  r.add("bench.trace_overhead",
        (n / traced.wall_s) / (double(plain.completed) / plain.wall_s), "ratio");

  if (!args.spans_path.empty()) {
    std::ofstream os(args.spans_path);
    log.write_jsonl(os);
  }
}

}  // namespace

void run_stream(const Args& args, Outcome& out) {
  const std::vector<StreamProblem> probs = make_problems(args.seed);
  std::mt19937_64 mix(args.seed);
  const int workers = std::max(1, default_thread_count() - 1);
  out.stamp.push_back({"shapes", "256x128,384x128,128x256"});
  out.stamp.push_back({"tree", "tuner"});
  out.stamp.push_back({"nb", std::to_string(kNb)});
  out.stamp.push_back({"ib", std::to_string(kIb)});
  out.stamp.push_back({"pool", std::to_string(workers)});
  out.stamp.push_back({"window", std::to_string(kWindow)});
  ResultChecker checker(probs, out);

  // Set-up: session (pool + tuner), stream, and the first solve of each shape.
  const Ns s0 = now_ns();
  core::FactorSession session(core::FactorSession::Config{workers, {}});
  core::FactorStream<double> stream = session.stream<double>(stream_options());
  std::vector<std::future<Matrix<double>>> first;
  for (int s = 0; s < 3; ++s) {
    const StreamProblem& p = probs[size_t(s * kPerShape)];
    first.push_back(stream.push_solve(p.a.view(), p.b.view()));
  }
  std::vector<Matrix<double>> xs;
  for (auto& f : first) xs.push_back(f.get());
  out.setup_s = double(now_ns() - s0) * 1e-9;
  for (int s = 0; s < 3; ++s) checker.check(s * kPerShape, xs[size_t(s)]);
  for (int s = 0; s < 3; ++s) {
    const StreamProblem& p = probs[size_t(s * kPerShape)];
    const int rp = int(std::max(p.a.rows(), p.a.cols()) / kNb);
    const int rq = int(std::min(p.a.rows(), p.a.cols()) / kNb);
    const auto tree = session.choose_tree(
        rp, rq, 0, p.wide() ? kernels::FactorKind::LQ : kernels::FactorKind::QR);
    out.stamp.push_back({stringf("tree_%lldx%lld", (long long)p.a.rows(), (long long)p.a.cols()),
                         tree.name()});
  }
  if (args.setup_only) return;

  // Warm-up: a host that sat idle runs the first second or two of a closed
  // loop several times slower (p99 up to 4x), so time only what follows.
  std::int64_t next_req = 0;
  (void)closed_loop(stream, probs, mix, kWarmupSeconds, checker, out, nullptr, next_req);
  if (args.trace) {
    traced_run(args, session, stream, probs, mix, checker, workers, out);
    return;
  }
  const LoopResult res =
      closed_loop(stream, probs, mix, args.seconds, checker, out, nullptr, next_req);
  // Every metric is taken per window of kLatencyWindow consecutive
  // completions (so each window has >= 10 samples beyond its p99). Host CPU
  // steal on a shared VM comes in episodes of seconds that cut a
  // window's throughput by up to a third and triple its p99, so each metric
  // reports the better quartile over the run's windows: the quieter quarter
  // of the run. A cost the program adds at sub-second periods lands in every
  // window and still moves it; the medians over windows are stamped too.
  std::vector<double> gflops, rps, p50, p99;
  double t_prev = 0;
  for (size_t w = 0; w + kLatencyWindow <= res.latency_s.size(); w += kLatencyWindow) {
    const auto first = long(w), last = long(w + kLatencyWindow);
    const std::vector<double> win(res.latency_s.begin() + first, res.latency_s.begin() + last);
    const double t_end = res.done_s[size_t(last - 1)];
    double flops = 0;
    for (long i = first; i < last; ++i) flops += res.flops_at[size_t(i)];
    gflops.push_back(flops / (t_end - t_prev) * 1e-9);
    rps.push_back(double(kLatencyWindow) / (t_end - t_prev));
    p50.push_back(quantile(win, 0.5));
    p99.push_back(quantile(win, 0.99));
    t_prev = t_end;
  }
  if (p50.empty()) throw std::runtime_error("stream_ls: fewer completions than one latency window");
  out.stamp.push_back({"samples", std::to_string(res.latency_s.size())});
  out.stamp.push_back({"windows", std::to_string(p50.size())});
  out.stamp.push_back({"window_medians", stringf("rps=%.1f,p50_ms=%.3f,p99_ms=%.3f", median(rps),
                                                 median(p50) * 1e3, median(p99) * 1e3)});
  out.report.add("gflops", quantile(gflops, 0.75), "GFLOP/s");
  out.report.add("rps", quantile(rps, 0.75), "1/s");
  out.report.add("latency_p50_ms", quantile(p50, 0.25) * 1e3, "ms");
  out.report.add("latency_p99_ms", quantile(p99, 0.25) * 1e3, "ms");
}

}  // namespace perfbench
