// FactorSession: the batched / asynchronous / streaming serving front end
// (QrSession remains as an alias from when the session was QR-only).
//
// A session owns a persistent worker pool and a plan cache and amortizes
// both across many factorizations — the "heavy traffic of repeated, often
// small, QRs" regime where per-call scheduling overhead dominates flops.
// Every entry path routes on shape: tall/square inputs factor by QR, wide
// inputs (m < n) by LQ on the transposed (reduction) grid; solves give the
// least-squares solution for tall inputs and the minimum-norm one for wide.
//
//   core::FactorSession session;                   // pool + plan cache
//   auto fut = session.submit<double>(a.view(), opt);
//   core::TiledQr<double> qr = fut.get();          // rethrows task errors
//   auto qrs = session.factorize_batch<double>(views, opt);  // 64 small QRs
//   auto x = session.solve_least_squares_async<double>(a.view(), b.view(), opt);
//   auto stream = session.stream<double>();        // streaming fusion
//   auto s2 = stream.push_solve(a2.view(), b2.view());
//
// One dispatch path. Every entry point — submit, submit_batch,
// factorize_batch, apply_q_async, both solve_least_squares_async flavors,
// push and push_solve — builds Requests and hands them to one primitive,
// graft(parts, target). A Request holds a factorization (owned, or borrowed
// from the caller), an optional right-hand side, and its stage: factor →
// apply → resolve (a wide solve runs its L⁻¹b trsm head between factor and
// apply). graft() runs same-stage requests as ONE pool component whose
// parts are the requests' own graphs, whatever the mix: a plan graph with
// the plan's cached ranks, or an apply graph. A batch on one plan is N parts
// pointing at that one cached graph, so nothing is concatenated or copied.
// The pool calls each part back once its last task has run and been
// traced: a finished part advances — resolves its future, or builds the
// next stage and passes it to the request's sink — while the rest of its
// component still runs, and a cancelled component fails exactly its
// unfinished parts.
//
// Two targets. A one-shot call is one pool submission under a per-call
// worker cap, dealt across the workers (one large factorization needs that
// spread); its next stage is grafted at once. A FactorStream appends to its
// live ThreadPool::Stream under one cap fixed at open, each component dealt
// whole to one home worker; its next stages queue on ready_applies and
// every flush point grafts them as one component.
//
// One tree rule: a disengaged `Options::tree` is resolved in one place,
// plan_request(), by the session's tree tuner (choose_tree_for) for the
// input's reduction grid at the request's worker cap — on submit, the
// batches, the solve pipeline and stream pushes alike. An engaged tree is
// used verbatim.
//
// Results are bitwise identical to TiledQr<T>::factorize on the same input
// and tree: the same plan, the same kernels, and tasks that write disjoint
// regions.
#pragma once

#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/stringf.hpp"
#include "common/timer.hpp"
#include "core/plan_cache.hpp"
#include "core/tiled_qr.hpp"
#include "obs/metrics.hpp"
#include "obs/schedule_report.hpp"
#include "runtime/thread_pool.hpp"
#include "tuner/tuner.hpp"

namespace tiledqr::core {

template <typename T>
class FactorStream;

class FactorSession {
 public:
  struct Config {
    /// Worker count of the session pool; 0 = TILEDQR_THREADS or hardware
    /// concurrency (the library-wide default rule).
    int threads = 0;
    /// Tree-tuner knobs (weight profile, table persistence path); see
    /// tuner::TunerConfig.
    tuner::TunerConfig tuner{};
  };

  /// What a push does when the stream already holds `max_queued` unresolved
  /// requests: Block parks the pushing thread on the stream's retirement
  /// condvar until a slot frees (bounded server memory, lossless); Reject
  /// resolves the returned future immediately with an Error (fast-fail, the
  /// caller sheds load).
  enum class StreamOverflow { Block, Reject };

  /// Per-stream options (see stream()). Pushes of any tile-grid shape are
  /// accepted; `tree` pins one algorithm for every push, disengaged routes
  /// each pushed shape through the autotuner. The QoS knobs below all
  /// default to the pre-QoS policy (unbounded admission, graft on idle, no
  /// deadline), so a default-constructed stream behaves — and schedules —
  /// exactly as before.
  struct StreamOptions {
    int nb = 128;          ///< tile size for dense pushes
    int ib = 32;           ///< inner blocking of the kernels
    int threads = 0;       ///< worker cap for the whole stream; 0 = whole pool
    int max_pending = 32;  ///< coalescing bound: a flush is forced at this depth
    std::optional<trees::TreeConfig> tree{};  ///< disengaged = autotune per shape
    /// Backpressure: bound on requests admitted but not yet resolved
    /// (pending + grafted + chained solve stages). 0 = unbounded. A request
    /// holds its slot from admission — before tiling, so a blocked or
    /// rejected push allocates nothing — until its future resolves.
    int max_queued = 0;
    StreamOverflow overflow = StreamOverflow::Block;  ///< policy at max_queued
    /// Watermark flush policy: graft the backlog whenever the number of
    /// in-flight grafts is <= this. 0 (default) grafts only when the stream
    /// runs dry; 1 keeps one graft queued behind the live one, so workers
    /// flow straight from the live graft's tail into the next one at the
    /// cost of shallower coalescing.
    int low_watermark = 0;
    /// > 0: cap on how long an uncorked request may sit in the coalescing
    /// backlog before it is grafted regardless of the watermark (a dedicated
    /// deadline thread is spawned for the stream's lifetime). 0 = no cap.
    /// Corked backlogs are exempt: cork() is an explicit promise.
    std::chrono::steady_clock::duration flush_deadline{0};
    /// Metrics name of the stream in the global registry: its counters and
    /// request-latency histogram export as "stream.<label>.*". Empty picks a
    /// unique "stream<N>" — set it when a process runs several streams whose
    /// stats a dashboard must tell apart (e.g. "bulk" vs "interactive").
    std::string label;
  };

  FactorSession();
  explicit FactorSession(Config config);

  FactorSession(const FactorSession&) = delete;
  FactorSession& operator=(const FactorSession&) = delete;

  /// Asynchronous factorization of a dense matrix (copied into tiled
  /// layout on the calling thread). The future resolves once every kernel
  /// has run; task exceptions surface through future::get().
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(ConstMatrixView<T> a, const Options& opt) {
    return submit(TileMatrix<T>::from_dense(a, opt.nb), opt);
  }

  /// Asynchronous factorization of a tiled matrix (consumed).
  /// `opt.threads > 0` caps how many pool workers this one factorization may
  /// occupy; 0 lets it spread over the whole pool. Caps above the pool size
  /// clamp to the pool, so 0, negative, and over-pool requests all mean
  /// "whole pool" — the invariant every session path shares. A disengaged
  /// `opt.tree` is tuned for the input's shape at that cap.
  template <typename T>
  [[nodiscard]] std::future<TiledQr<T>> submit(TileMatrix<T> a, Options opt) {
    const int cap = normalize_threads(opt);
    return std::move(launch<T, TiledQr<T>>(1, cap, [&](Request<T>& r, size_t) {
                       r.own(plan_request(std::move(a), opt, cap));
                     }).front());
  }

  /// Asynchronous batched factorization: fuses the batch into ONE pool
  /// submission (see the header comment) and returns one future per input,
  /// in input order. Futures resolve independently as their component of the
  /// fused DAG drains. Inputs that fail to tile or plan resolve their future
  /// with the exception without poisoning the rest; a kernel failure at run
  /// time cancels the remainder of the fused submission, so completed
  /// matrices keep their values and unfinished ones observe the error.
  /// `opt.threads > 0` keeps its per-matrix meaning: the fused submission is
  /// capped to opt.threads x batch-size workers (clamped to the pool), the
  /// aggregate concurrency the same batch got as per-matrix submissions.
  /// A disengaged `opt.tree` is routed through the autotuner per input shape.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::span<const ConstMatrixView<T>> mats, const Options& opt) {
    return submit_batch_impl<T>(
        mats.size(),
        [&mats, nb = opt.nb](size_t i) { return TileMatrix<T>::from_dense(mats[i], nb); }, opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return submit_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  /// Pre-tiled flavor of submit_batch (inputs consumed) — the zero-copy path
  /// for servers that keep request matrices in tiled layout.
  template <typename T>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch(
      std::vector<TileMatrix<T>> mats, const Options& opt) {
    return submit_batch_impl<T>(
        mats.size(), [&mats](size_t i) { return std::move(mats[i]); }, opt);
  }

  /// Blocking batched factorization (one fused DAG; see submit_batch).
  /// Results are in input order. After every component has drained the first
  /// exception is rethrown; when several inputs failed, the rethrown Error
  /// carries the first failure's message plus how many siblings also failed,
  /// so multi-failure batches are diagnosable from one what().
  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::span<const ConstMatrixView<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(mats, opt));
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(
      const std::vector<ConstMatrixView<T>>& mats, const Options& opt) {
    return factorize_batch(std::span<const ConstMatrixView<T>>(mats), opt);
  }

  template <typename T>
  [[nodiscard]] std::vector<TiledQr<T>> factorize_batch(std::vector<TileMatrix<T>> mats,
                                                        const Options& opt) {
    return collect_batch(submit_batch(std::move(mats), opt));
  }

  /// Opens a streaming submission on the session pool: a FactorStream whose
  /// push()/push_solve() return futures immediately and coalesce into the
  /// live fused submission (see the header comment). The stream must not
  /// outlive the session. `opt.threads` caps the pool workers the whole
  /// stream may occupy (same clamping rule as everywhere).
  template <typename T>
  [[nodiscard]] FactorStream<T> stream(StreamOptions opt = {});

  /// Applies op(Q) of a finished factorization to tiled C, asynchronously on
  /// the session pool (no blocking). `qr` is borrowed and must stay alive
  /// until the future resolves; C is consumed and handed back through the
  /// future. Results are bitwise identical to qr.apply_q(trans, c, ...) on
  /// the same input.
  template <typename T>
  [[nodiscard]] std::future<TileMatrix<T>> apply_q_async(const TiledQr<T>& qr, ApplyTrans trans,
                                                         TileMatrix<T> c) {
    return std::move(launch<T, TileMatrix<T>>(1, 0, [&](Request<T>& r, size_t) {
                       TILEDQR_CHECK(c.mt() == qr.reduction_p() && c.nb() == qr.a_.nb(),
                                     "apply_q_async: row tiling of C must match the factorization");
                       r.qr = &qr;
                       r.trans = trans;
                       r.c = std::move(c);
                     }).front());
  }

  /// The factorization is borrowed until the future resolves — a temporary
  /// would dangle under the in-flight tasks, so rvalues are rejected.
  template <typename T>
  std::future<TileMatrix<T>> apply_q_async(TiledQr<T>&&, ApplyTrans, TileMatrix<T>) = delete;

  /// Solve against a finished factorization. QR (m >= n): computes Qᵀb on
  /// the pool, then the triangular solve on the worker that retires the
  /// apply DAG. LQ (m < n): the stage order reverses — the L⁻¹b head runs
  /// here on the calling thread (it is a small triangular solve), then the
  /// apply-Q̃ DAG on the pool produces the minimum-norm solution directly.
  /// `qr` is borrowed and must stay alive until the future resolves.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(const TiledQr<T>& qr,
                                                                 ConstMatrixView<T> b) {
    return std::move(launch<T, Matrix<T>>(1, 0, [&](Request<T>& r, size_t) {
                       r.qr = &qr;
                       set_rhs(r, b, "solve_least_squares_async");
                     }).front());
  }

  template <typename T>
  std::future<Matrix<T>> solve_least_squares_async(TiledQr<T>&&, ConstMatrixView<T>) = delete;

  /// The full solve pipeline, end-to-end on the session pool. QR (m >= n):
  /// factorize A, apply Qᵀ to b, triangular-solve R x = (Qᵀb)[0:n]. LQ
  /// (m < n): factorize A, triangular-solve L y = b, apply Q̃ to [y; 0] —
  /// the minimum-norm solution; the stage order reverses, so the trsm runs
  /// on the worker that retires the factorization and the apply DAG is the
  /// final stage. Each stage is submitted by the worker that retires the
  /// previous one — no intermediate blocking. `opt.threads > 0` caps the
  /// pool workers the pipeline may occupy; a disengaged `opt.tree` is routed
  /// through the autotuner for A's reduction-grid shape.
  template <typename T>
  [[nodiscard]] std::future<Matrix<T>> solve_least_squares_async(ConstMatrixView<T> a,
                                                                 ConstMatrixView<T> b,
                                                                 Options opt) {
    const int cap = normalize_threads(opt);
    return std::move(launch<T, Matrix<T>>(1, cap, [&](Request<T>& r, size_t) {
                       r.own(plan_request(TileMatrix<T>::from_dense(a, opt.nb), opt, cap));
                       set_rhs(r, b, "solve_least_squares_async");
                     }).front());
  }

  /// The tree the session's tuner picks for a p x q reduction grid
  /// (TILEDQR_TREE override > tuning table > model ranking) — what a
  /// disengaged `Options::tree` resolves to. Wide inputs pass the transposed
  /// grid (see choose_tree_for). `worker_cap > 0` tunes for a request
  /// confined to that many workers; 0 tunes for the whole pool.
  [[nodiscard]] trees::TreeConfig choose_tree(int p, int q, int worker_cap = 0,
                                              kernels::FactorKind factor =
                                                  kernels::FactorKind::QR);

  /// Shape-routed choose_tree: wide inputs (m < n) tune on the transposed
  /// (reduction) grid under their LQ key, everything else on the grid as-is
  /// — the same routing prepare() applies, so the tuner always sees p >= q.
  template <typename T>
  [[nodiscard]] trees::TreeConfig choose_tree_for(const TileMatrix<T>& tiles,
                                                  int worker_cap = 0) {
    return tiles.m() < tiles.n()
               ? choose_tree(tiles.nt(), tiles.mt(), worker_cap, kernels::FactorKind::LQ)
               : choose_tree(tiles.mt(), tiles.nt(), worker_cap);
  }

  [[nodiscard]] tuner::TuningTable::Stats tuning_stats() const { return tuner_.stats(); }

  [[nodiscard]] runtime::ThreadPool& pool() noexcept { return pool_; }
  [[nodiscard]] PlanCache& plan_cache() noexcept { return cache_; }
  [[nodiscard]] PlanCache::Stats plan_cache_stats() const { return cache_.stats(); }
  [[nodiscard]] runtime::ThreadPool::Stats pool_stats() const noexcept { return pool_.stats(); }

  /// One-call live snapshot for servers (the HealthMonitor's report
  /// callback, also useful directly): the global registry metrics plus —
  /// when tracing is on — the schedule report over the current trace
  /// window, including the realized-critical-path breakdown joined against
  /// the DAG of the most recently planned factorization. Safe from any
  /// thread; reads only snapshots, never disturbs in-flight work.
  [[nodiscard]] std::string health_report() const;

 private:
  template <typename U>
  friend class FactorStream;
  friend class FactorStreamBase;

  // ------------------------------------------------------ dispatch path --

  /// The stage a request's next (or running) graft executes.
  enum class Stage : std::uint8_t { Factor, Apply };

  struct RequestBase;
  struct Graft;
  struct OneShot;
  using Parts = std::vector<std::shared_ptr<RequestBase>>;

  /// Where a request's work goes. As a graft *target* it hands components
  /// to the pool; as a request's *sink* it takes the request's next stage
  /// and hears when its future resolves. One-shot calls use a OneShot; a
  /// FactorStream's shared state is the sink of every request it admits.
  struct Sink {
    Sink() = default;
    Sink(const Sink&) = delete;
    Sink& operator=(const Sink&) = delete;
    virtual ~Sink() = default;
    /// Hands one graft's component — `parts` with their body and per-part
    /// callback — to the pool; the graft is the keepalive.
    virtual void dispatch(const std::shared_ptr<Graft>& g,
                          std::span<const runtime::ThreadPool::Part> parts,
                          runtime::ThreadPool::PartBody body,
                          runtime::ThreadPool::PartDone on_part,
                          std::function<void(std::exception_ptr)> done) = 0;
    /// `req` finished a stage and built its next one.
    virtual void next_stage(std::shared_ptr<RequestBase> req) = 0;
    /// `req`'s future just resolved (value or error).
    virtual void resolved(const RequestBase& /*req*/) noexcept {}
    /// A dispatched component retired, or a graft failed before dispatch.
    virtual void retired() {}
  };

  /// The scalar-independent face of a request: what graft() and the stream
  /// policy see. Request<T> supplies the kernels and the future.
  struct RequestBase {
    explicit RequestBase(std::shared_ptr<Sink> s) : sink(std::move(s)) {}
    RequestBase(const RequestBase&) = delete;
    RequestBase& operator=(const RequestBase&) = delete;
    virtual ~RequestBase() = default;
    /// Runs one task of the current stage.
    virtual void run(const dag::Task& task) = 0;
    /// The stage-advance function, run by the pool's part callback once the
    /// stage's last task has run (or on the calling thread for a borrowed
    /// factorization, whose factor stage is already done): resolves the
    /// future, or builds the next stage and passes `self` to the sink.
    virtual void advance(const std::shared_ptr<RequestBase>& self) = 0;
    /// Fails the future and tells the sink.
    virtual void fail(const std::exception_ptr& error) = 0;

    /// The graph of the current stage.
    [[nodiscard]] const dag::TaskGraph& graph() const noexcept {
      return stage == Stage::Factor ? plan->graph : apply_graph;
    }

    std::shared_ptr<Sink> sink;
    Stage stage = Stage::Factor;
    /// The factor stage's plan; null = a borrowed factorization with no
    /// factor stage to run.
    std::shared_ptr<const Plan> plan;
    dag::TaskGraph apply_graph;
    /// Stream admission stamp (obs::now_ns): the sink turns it into an
    /// end-to-end latency sample. 0 = not admitted by a stream.
    std::int64_t admit_ns = 0;
  };

  /// One unit of session work on scalar type T. The promise alternative
  /// says what resolves it: the factorization itself, an applied C
  /// (apply_q_async), or a solution (the solve pipelines).
  template <typename T>
  struct Request final : RequestBase {
    using RequestBase::RequestBase;

    void own(TiledQr<T> q) {
      owned = std::move(q);
      qr = &owned;
      plan = owned.plan_;
    }
    [[nodiscard]] bool lq() const noexcept { return qr->kind() == kernels::FactorKind::LQ; }

    template <typename R>
    [[nodiscard]] std::future<R> open() {
      return promise.template emplace<std::promise<R>>().get_future();
    }
    template <typename R>
    void resolve(R value) {
      std::get<std::promise<R>>(promise).set_value(std::move(value));
      sink->resolved(*this);
    }
    void fail(const std::exception_ptr& error) override {
      std::visit([&](auto& p) { p.set_exception(error); }, promise);
      sink->resolved(*this);
    }

    void run(const dag::Task& task) override {
      if (stage == Stage::Factor)
        run_task_kernels(task, owned.a_, owned.t_, owned.t2_, owned.opt_.ib);
      else
        qr->run_apply_task(task, trans, c);
    }

    void advance(const std::shared_ptr<RequestBase>& self) override {
      constexpr size_t kFactorization = 0, kApplied = 1, kSolution = 2;  // promise kinds
      try {
        if (stage == Stage::Apply) {
          if (promise.index() == kApplied)
            resolve(std::move(c));
          else
            resolve(lq() ? c.to_dense() : qr->finish_least_squares(c));
          return;
        }
        if (promise.index() == kFactorization) {
          resolve(std::move(owned));
          return;
        }
        if (promise.index() == kSolution) {
          if (lq() ? b.cols() == 0 : c.n() == 0) {  // zero-column rhs: the answer is n x 0
            resolve(Matrix<T>(qr->factors().n(), 0));
            return;
          }
          if (lq()) c = qr->start_minimum_norm(ConstMatrixView<T>(b.view()));
        }
        apply_graph = qr->build_apply_graph(trans, c.nt());
        stage = Stage::Apply;
        sink->next_stage(self);
      } catch (...) {
        fail(std::current_exception());
      }
    }

    TiledQr<T> owned;                ///< the factor stage's output, if this request runs it
    const TiledQr<T>* qr = nullptr;  ///< &owned, or a caller-borrowed factorization
    TileMatrix<T> c;  ///< apply operand: C, the tiled rhs (→ Qᵀb), or the padded L⁻¹b
    /// Wide solves only: the dense rhs. The apply operand cannot be tiled
    /// before the trsm head, which needs the finished L.
    Matrix<T> b;
    ApplyTrans trans = ApplyTrans::ConjTrans;  ///< Qᵀ for least squares, Q̃ for min norm
    std::variant<std::promise<TiledQr<T>>, std::promise<TileMatrix<T>>, std::promise<Matrix<T>>>
        promise;
  };

  /// Stages the right-hand side of a solve on `r` (whose factorization is
  /// already set): tiled now for QR, kept dense for the LQ trsm head.
  template <typename T>
  static void set_rhs(Request<T>& r, ConstMatrixView<T> b, const char* what) {
    TILEDQR_CHECK(b.rows() == r.qr->factors().m(), stringf("%s: rhs row mismatch", what));
    if (r.lq()) {
      r.trans = ApplyTrans::NoTrans;
      r.b = Matrix<T>(b.rows(), b.cols());
      copy(b, r.b.view());
    } else if (b.cols() > 0) {
      r.c = TileMatrix<T>::from_dense(b, r.qr->factors().nb());
    }
  }

  /// The dispatch primitive: runs same-stage `parts` as ONE component on
  /// `target` (their sink), each request its own graph as one pool part.
  /// Never throws: a graft that cannot be dispatched fails its parts and
  /// retires at once.
  void graft(Parts parts, Sink& target);

  /// The one-shot target: each graft is one pool submission capped at
  /// `cap` workers per part, dealt across the workers; next stages are
  /// grafted at once.
  [[nodiscard]] std::shared_ptr<Sink> one_shot(int cap);

  /// The front end every FactorSession entry point shares: makes `count`
  /// requests resolving to R on one one-shot target capped at `cap` and runs
  /// `setup(request, i)` on each — a throw fails only that request's future.
  /// Requests that own a factorization are grafted as one component;
  /// borrowed ones have finished their factor stage and advance at once.
  template <typename T, typename R, typename Setup>
  [[nodiscard]] std::vector<std::future<R>> launch(size_t count, int cap, Setup&& setup) {
    const std::shared_ptr<Sink> target = one_shot(cap);
    std::vector<std::future<R>> futures;
    futures.reserve(count);
    Parts parts;
    for (size_t i = 0; i < count; ++i) {
      auto req = std::make_shared<Request<T>>(target);
      futures.push_back(req->template open<R>());
      try {
        setup(*req, i);
      } catch (...) {
        req->fail(std::current_exception());
        continue;
      }
      if (req->plan)
        parts.push_back(std::move(req));
      else
        req->advance(req);
    }
    if (!parts.empty()) graft(std::move(parts), *target);
    return futures;
  }

  /// Shared body of the submit_batch flavors: `make_tiles(i)` yields the
  /// i-th input's TileMatrix (converting or moving), planned at the
  /// per-matrix worker cap — the concurrency each matrix actually gets.
  template <typename T, typename MakeTiles>
  [[nodiscard]] std::vector<std::future<TiledQr<T>>> submit_batch_impl(size_t count,
                                                                       MakeTiles&& make_tiles,
                                                                       Options opt) {
    const int cap = normalize_threads(opt);
    return launch<T, TiledQr<T>>(count, cap, [&](Request<T>& r, size_t i) {
      r.own(plan_request(make_tiles(i), opt, cap));
    });
  }

  /// Tile → plan for one request on the session cache (remembered for
  /// health_report()). The one place a disengaged tree is resolved: by the
  /// tuner, for this input's shape at worker cap `cap` (0 = whole pool).
  template <typename T>
  [[nodiscard]] TiledQr<T> plan_request(TileMatrix<T> tiles, Options opt, int cap) {
    if (!opt.tree) opt.tree = choose_tree_for(tiles, cap);
    TiledQr<T> qr = TiledQr<T>::prepare(std::move(tiles), opt, cache_);
    note_plan(qr.plan_);
    return qr;
  }

  /// Remembers the most recently prepared plan so health_report() can join
  /// the live trace against a real DAG. A shared_ptr copy: plans are
  /// immutable and cache-owned, so this pins at most one plan's memory.
  void note_plan(const std::shared_ptr<const Plan>& plan);

  /// The one cap rule: <= 0 (and anything above the pool) means "whole
  /// pool"; in-range caps pass through. Returned as a ThreadPool max_workers
  /// argument (0 = uncapped).
  [[nodiscard]] int clamp_cap(int requested) const noexcept;

  /// Applies the cap rule to `opt.threads` in place (so the stored
  /// per-factorization thread count never exceeds the pool — a 0 cap and an
  /// over-pool cap leave identical state everywhere) and returns the
  /// ThreadPool worker cap.
  [[nodiscard]] int normalize_threads(Options& opt) const noexcept;

  /// Drains a submit_batch future set, preserving order. A single failure is
  /// rethrown verbatim; multiple failures rethrow an Error carrying the
  /// first failure's message and the count of failed siblings.
  template <typename T>
  [[nodiscard]] static std::vector<TiledQr<T>> collect_batch(
      std::vector<std::future<TiledQr<T>>> futures) {
    std::vector<TiledQr<T>> out;
    out.reserve(futures.size());
    std::exception_ptr first_error;
    size_t failed = 0;
    for (auto& f : futures) {
      try {
        out.push_back(f.get());
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        ++failed;
      }
    }
    if (first_error) rethrow_batch_failure(first_error, failed, futures.size());
    return out;
  }

  [[noreturn]] static void rethrow_batch_failure(const std::exception_ptr& first, size_t failed,
                                                 size_t total);

  // Declaration order matters: the pool's destructor drains in-flight
  // submissions, which still reference cached plans — so the cache must
  // outlive the pool (destroyed after it).
  PlanCache cache_;
  tuner::Tuner tuner_;
  runtime::ThreadPool pool_;

  /// Most recently prepared plan (any entry path), for health_report()'s
  /// trace join; guarded by its own mutex so snapshots never contend with
  /// the scheduling paths beyond this one pointer copy.
  mutable std::mutex last_plan_mu_;
  std::shared_ptr<const Plan> last_plan_;
};

/// Historical name from when the session was QR-only; existing call sites
/// keep compiling unchanged.
using QrSession = FactorSession;

// ------------------------------------------------------------ FactorStream --

/// Streaming fusion handle (FactorSession::stream). push()/push_solve() return
/// futures immediately; requests accumulate while the stream's in-flight
/// work drains and every flush grafts them — coalesced into one fused
/// component per plan through the session's graft primitive — onto the
/// live pool submission. The amount of fusion adapts to the arrival rate:
/// an idle stream grafts a push immediately (latency), a busy stream
/// coalesces everything that arrived while it was busy (throughput).
///
///   auto stream = session.stream<double>();
///   auto f = stream.push(a.view());        // future resolves independently
///   auto x = stream.push_solve(a2.view(), b.view());  // factor → Qᵀb → trsm,
///                                          // chained into the same stream
///   stream.cork();                         // defer flushing…
///   for (auto& m : burst) futures.push_back(stream.push(m.view()));
///   stream.uncork();                       // …one fused graft for the burst
///   stream.close();                        // drain everything, then seal
///
/// Thread-safe: any number of client threads may push/cork/flush
/// concurrently. A request whose preparation fails resolves its own future
/// with the exception; a kernel failure cancels only the component (graft)
/// it rode in on — other grafts keep running. The stream must be closed (or
/// destroyed — the destructor closes) before its FactorSession dies, and close()
/// must not be called from a pool task body.
///
/// Serving QoS (StreamOptions): `max_queued` + `overflow` bound the
/// unresolved requests a stream may hold (Block parks the pusher on the
/// retirement condvar, Reject fails the future immediately);
/// `low_watermark` grafts the backlog before the stream runs dry (keep one
/// graft queued behind the live one); `flush_deadline` caps how long an
/// uncorked request may wait in the coalescing backlog. drain() respects a
/// concurrent cork: it never claims a corked backlog (that burst belongs to
/// the corking client's single fused graft) and parks on the condvar until
/// the corker uncorks — so a thread that corks, pushes, and drains without
/// uncorking first deadlocks itself, as does a corked Block-overflow pusher
/// with no uncorking peer. All QoS defaults reproduce the pre-QoS policy.
///
/// FactorStreamBase is the scalar-independent part of the handle: the QoS
/// policy and the stream's shared state (qr_session.cpp). FactorStream<T>
/// adds the typed pushes.
class FactorStreamBase {
 public:
  struct Stats {
    long pushed = 0;      ///< requests accepted (push + push_solve)
    long components = 0;  ///< grafts appended to the live submission
    long fused_requests = 0;  ///< requests that rode a multi-request graft
    long pending = 0;     ///< requests accumulated, not yet grafted
    long unresolved = 0;  ///< admitted requests whose future hasn't resolved
    long peak_unresolved = 0;  ///< high-water mark of `unresolved` — with a
                               ///< Block overflow this never exceeds max_queued
    long rejected = 0;         ///< pushes refused by the Reject overflow policy
    long deadline_flushes = 0;  ///< backlog grafts forced by flush_deadline
    long empty_flushes = 0;     ///< backlog claims that found nothing queued
                                ///< (a spinning drain would grow this; bounded)
  };

  FactorStreamBase() = default;  ///< empty handle
  FactorStreamBase(FactorStreamBase&&) noexcept = default;
  /// Move-assign closes the overwritten stream first (re-opening a stream
  /// in place is normal server code); a defaulted move would orphan its
  /// shared state with no handle left to ever close it — leaking the
  /// deadline thread, the pool submission, and the live-stream gauge slot.
  FactorStreamBase& operator=(FactorStreamBase&& other) noexcept;
  FactorStreamBase(const FactorStreamBase&) = delete;
  FactorStreamBase& operator=(const FactorStreamBase&) = delete;
  ~FactorStreamBase();

  /// Defers flushing: corked pushes accumulate (up to max_pending) so a
  /// known burst grafts as one fused component. Idempotent. While corked,
  /// the watermark, deadline, and drain() paths all leave the backlog alone
  /// — only uncork()/flush()/max_pending release it.
  void cork();

  /// Re-enables flushing and grafts everything pending now.
  void uncork();

  /// Grafts all pending requests — corked or not: an explicit flush is the
  /// caller's own uncorking — onto the live submission immediately.
  void flush();

  /// Grafts the uncorked backlog, then blocks until every request admitted
  /// so far has resolved (including chained solve stages). The stream stays
  /// open. Requests pushed concurrently with the drain may be waited on too.
  /// A peer's corked backlog is NOT claimed — the burst grafts as the one
  /// fused component cork() promised — so the drain parks on the retirement
  /// condvar until the corker uncorks (no flush/wait spinning).
  void drain();

  /// Drains, then seals the stream: further pushes throw Error. Idempotent.
  void close();

  [[nodiscard]] Stats stats() const;

  /// Ready-set generation of the underlying pool stream (components grafted).
  [[nodiscard]] long generation() const;

  /// The session-level live snapshot (FactorSession::health_report) from the
  /// stream handle a server actually holds.
  [[nodiscard]] std::string health_report() const;

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

 protected:
  /// Validates `opts`, opens the pool stream, registers the metrics source,
  /// and starts the deadline thread when flush_deadline > 0.
  FactorStreamBase(FactorSession& session, FactorSession::StreamOptions opts);

  /// Backpressure gate: every accepted request holds one `unresolved` slot
  /// from admission until its user-facing future resolves. Returns null on
  /// admission; with the Reject policy at the bound, returns the error the
  /// caller must fail its future with (no slot taken). With Block, parks on
  /// the retirement condvar until a slot frees. Throws on a closed stream
  /// (including a close that lands while a Block-ed push waits).
  [[nodiscard]] std::exception_ptr admit();

  /// Adds an admitted, prepared request to the backlog and grafts the
  /// backlog if the flush policy says so.
  void enqueue(std::shared_ptr<FactorSession::RequestBase> req);

  /// The sink of this stream's requests (its shared state).
  [[nodiscard]] std::shared_ptr<FactorSession::Sink> sink() const;
  [[nodiscard]] FactorSession& session() const;
  /// Options for one pushed request; a disengaged tree is resolved by
  /// FactorSession::plan_request at worker_cap().
  [[nodiscard]] Options request_options() const;
  [[nodiscard]] int worker_cap() const;

 private:
  struct State;
  /// close() for the destructor and move-assign, which must not throw.
  void close_quietly() noexcept;
  std::shared_ptr<State> state_;
};

template <typename T>
class FactorStream : public FactorStreamBase {
 public:
  FactorStream() = default;  ///< empty handle

  /// Factorize a dense matrix (copied into tiled layout here, on the
  /// calling thread). Returns a future that resolves when this request's
  /// component of the live submission drains. An input that fails to tile or
  /// plan resolves its future with the exception (pushing on a closed stream
  /// still throws — that is a caller bug, not a request failure). A stream
  /// at its max_queued bound blocks here or fails the future, per
  /// StreamOptions::overflow; admission happens before tiling, so a blocked
  /// or rejected push allocates nothing.
  [[nodiscard]] std::future<TiledQr<T>> push(ConstMatrixView<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return push_request<TiledQr<T>>([&](Req& r, const Options& opt) {
      r.own(prepare(TileMatrix<T>::from_dense(a, opt.nb), opt));
    });
  }

  /// Pre-tiled flavor (consumed); the input keeps its own tile size.
  [[nodiscard]] std::future<TiledQr<T>> push(TileMatrix<T> a) {
    TILEDQR_CHECK(valid(), "FactorStream::push: moved-from or empty stream handle");
    return push_request<TiledQr<T>>(
        [&](Req& r, const Options& opt) { r.own(prepare(std::move(a), opt)); });
  }

  /// Full solve pipeline for one request: factorize A, then chain the solve
  /// stages into the same stream — Qᵀb apply + trsm for tall A, trsm head +
  /// apply-Q̃ (minimum norm) for wide A. Apply stages of concurrent solves
  /// coalesce: each flush grafts every ready apply graph as one fused
  /// component. Results are bitwise identical to
  /// FactorSession::solve_least_squares_async(a, b, opt) with the same tree.
  /// Backpressure treats a solve as one request from admission until its
  /// solution future resolves (the chained stages keep the slot).
  [[nodiscard]] std::future<Matrix<T>> push_solve(ConstMatrixView<T> a, ConstMatrixView<T> b) {
    TILEDQR_CHECK(valid(), "FactorStream::push_solve: moved-from or empty stream handle");
    return push_request<Matrix<T>>([&](Req& r, const Options& opt) {
      r.own(prepare(TileMatrix<T>::from_dense(a, opt.nb), opt));
      FactorSession::set_rhs(r, b, "push_solve");
    });
  }

 private:
  friend class FactorSession;
  using Req = FactorSession::Request<T>;

  FactorStream(FactorSession& session, FactorSession::StreamOptions opts)
      : FactorStreamBase(session, std::move(opts)) {}

  /// Shared body of the pushes: admission, then `setup` prepares the
  /// request (a throw fails only its future), then it joins the backlog.
  template <typename R, typename Setup>
  [[nodiscard]] std::future<R> push_request(Setup&& setup) {
    auto req = std::make_shared<Req>(sink());
    std::future<R> future = req->template open<R>();
    if (std::exception_ptr rejected = admit()) {
      // Refused before admission: no slot to release, so no sink hook.
      std::get<std::promise<R>>(req->promise).set_exception(std::move(rejected));
      return future;
    }
    req->admit_ns = obs::now_ns();
    try {
      setup(*req, request_options());
    } catch (...) {
      req->fail(std::current_exception());
      return future;
    }
    enqueue(std::move(req));
    return future;
  }

  /// Tile → plan on the session, at the stream's worker cap.
  [[nodiscard]] TiledQr<T> prepare(TileMatrix<T> tiles, const Options& opt) {
    return session().plan_request(std::move(tiles), opt, worker_cap());
  }
};

template <typename T>
FactorStream<T> FactorSession::stream(StreamOptions opt) {
  return FactorStream<T>(*this, std::move(opt));
}

}  // namespace tiledqr::core
