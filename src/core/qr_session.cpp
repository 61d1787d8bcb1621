// The scalar-independent half of the serving front end: FactorSession's
// non-template members (construction, the cap rule, tuning decisions, the
// health snapshot, batch failure aggregation), the dispatch primitive
// graft() with its one-shot target, and the FactorStream QoS policy. The
// typed half — Request<T> and the entry points — lives in the header.
#include "core/qr_session.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>

namespace tiledqr::core {

FactorSession::FactorSession() : pool_(0) {}

FactorSession::FactorSession(Config config)
    : tuner_(std::move(config.tuner)), pool_(config.threads) {}

trees::TreeConfig FactorSession::choose_tree(int p, int q, int worker_cap,
                                             kernels::FactorKind factor) {
  const int workers = worker_cap > 0 ? std::min(worker_cap, pool_.size()) : pool_.size();
  return tuner_.choose(p, q, workers, cache_, factor);
}

std::string FactorSession::health_report() const {
  std::string out = obs::MetricsRegistry::global().snapshot().to_text();
  const auto& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    std::shared_ptr<const Plan> plan;
    {
      std::lock_guard<std::mutex> lock(last_plan_mu_);
      plan = last_plan_;
    }
    const obs::ScheduleReport report =
        plan ? obs::build_schedule_report(tracer, plan->graph, pool_.size())
             : obs::build_schedule_report(tracer);
    out += obs::format_schedule_report(report);
  }
  return out;
}

void FactorSession::note_plan(const std::shared_ptr<const Plan>& plan) {
  std::lock_guard<std::mutex> lock(last_plan_mu_);
  last_plan_ = plan;
}

int FactorSession::clamp_cap(int requested) const noexcept {
  return requested <= 0 ? 0 : std::min(requested, pool_.size());
}

int FactorSession::normalize_threads(Options& opt) const noexcept {
  const int cap = clamp_cap(opt.threads);
  opt.threads = cap == 0 ? pool_.size() : cap;
  return cap;
}

void FactorSession::rethrow_batch_failure(const std::exception_ptr& first, size_t failed,
                                          size_t total) {
  if (failed <= 1) std::rethrow_exception(first);
  std::string message = "unknown error";
  try {
    std::rethrow_exception(first);
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
    // Not a std::exception: no message to carry, keep "unknown error".
  }
  throw Error(stringf("%s [batch: %zu of %zu inputs failed; first error shown]", message.c_str(),
                      failed, total));
}

// ------------------------------------------------------------ dispatch path --

/// One grafted component: its requests, one pool part each, and their
/// target. The pool holds it as the keepalive until the component retires.
struct FactorSession::Graft {
  Graft(const Parts& p, Sink& t) : parts(p), target(&t) {}
  Parts parts;
  Sink* target;  ///< every part's sink; the parts keep it alive
};

struct FactorSession::OneShot final : Sink {
  OneShot(FactorSession& s, int c) : session(s), cap(c) {}

  void dispatch(const std::shared_ptr<Graft>& g, std::span<const runtime::ThreadPool::Part> parts,
                runtime::ThreadPool::PartBody body, runtime::ThreadPool::PartDone on_part,
                std::function<void(std::exception_ptr)> done) override {
    // The cap is per matrix; a multi-part submission gets cap x parts
    // workers (clamped to the pool), the aggregate concurrency of per-matrix
    // submissions. 0 stays "whole pool"; a clamped cap cannot overflow.
    const long n = long(parts.size());
    const int workers = cap > 0 ? int(std::min<long>(session.pool_.size(), cap * n)) : 0;
    session.pool_.submit(parts, std::move(body), std::move(on_part), std::move(done), workers, g);
  }

  void next_stage(std::shared_ptr<RequestBase> req) override {
    session.graft({std::move(req)}, *this);
  }

  FactorSession& session;
  const int cap;  ///< pre-clamped ThreadPool worker cap; 0 = whole pool
};

std::shared_ptr<FactorSession::Sink> FactorSession::one_shot(int cap) {
  return std::make_shared<OneShot>(*this, cap);
}

void FactorSession::graft(Parts parts, Sink& target) {
  try {
    auto g = std::make_shared<Graft>(parts, target);
    // Each request is one part: its plan graph with the plan's cached ranks,
    // or its apply graph, which the pool ranks.
    std::vector<runtime::ThreadPool::Part> dag_parts;
    dag_parts.reserve(parts.size());
    for (const auto& r : parts)
      dag_parts.push_back({&r->graph(), r->stage == Stage::Factor ? &r->plan->ranks : nullptr});
    target.dispatch(
        g, dag_parts,
        [raw = g.get()](std::int32_t part, std::int32_t task) {
          RequestBase& r = *raw->parts[size_t(part)];
          r.run(r.graph().tasks[size_t(task)]);
        },
        // A finished part advances: resolve its future, or build its next
        // stage. A part that a task failure cut short fails.
        [raw = g.get()](std::int32_t part, std::exception_ptr error) {
          const auto& r = raw->parts[size_t(part)];
          if (error)
            r->fail(error);
          else
            r->advance(r);
        },
        [raw = g.get()](std::exception_ptr) { raw->target->retired(); });
  } catch (...) {
    const auto error = std::current_exception();
    for (auto& r : parts) r->fail(error);
    target.retired();
  }
}

// ------------------------------------------------------------- FactorStream --

/// Shared stream state — and the sink of every request the stream admits:
/// worker callbacks outlive the handle's stack frames, so everything they
/// touch lives here.
struct FactorStreamBase::State final : FactorSession::Sink {
  using Parts = FactorSession::Parts;

  /// Appends to the live pool stream under the cap fixed at open.
  void dispatch(const std::shared_ptr<FactorSession::Graft>& g,
                std::span<const runtime::ThreadPool::Part> parts,
                runtime::ThreadPool::PartBody body, runtime::ThreadPool::PartDone on_part,
                std::function<void(std::exception_ptr)> done) override {
    stream.append(parts, std::move(body), std::move(on_part), std::move(done), g);
  }

  /// Instead of each grafting its own component, ready apply stages
  /// accumulate and every flush point grafts them as ONE component, so a
  /// burst of streamed solves pays one graft for all its apply stages.
  /// Progress needs no flush here: the component the request's factor stage
  /// rode in on has not retired yet, and its retirement claims the queue.
  void next_stage(std::shared_ptr<FactorSession::RequestBase> req) override {
    std::lock_guard<std::mutex> lock(mu);
    ready_applies.push_back(std::move(req));
  }

  /// Records the request's end-to-end latency, releases its backpressure
  /// slot, and wakes drain()ers / Block-ed pushers.
  void resolved(const FactorSession::RequestBase& req) noexcept override {
    if (req.admit_ns > 0) latency.record_ns(obs::now_ns() - req.admit_ns);
    {
      std::lock_guard<std::mutex> lock(mu);
      --unresolved;
    }
    retire_cv.notify_all();
  }

  /// A grafted component retired: if the in-flight window fell to the
  /// watermark with work pending (arrivals outpaced this drain), graft the
  /// backlog now — this is the hand-off that keeps workers flowing across
  /// what used to be batch boundaries.
  void retired() override {
    std::vector<Parts> groups;
    Parts applies;
    {
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
      // Ready apply stages flush unconditionally — they are latency-critical
      // solve tails whose requests already hold slots, so neither the cork
      // nor the watermark applies to them.
      applies = take_applies_locked();
      if (!corked && inflight <= long(opts.low_watermark) && !pending.empty())
        groups = take_groups_locked();
    }
    retire_cv.notify_all();
    graft(std::move(groups), std::move(applies));
  }

  [[nodiscard]] Stats snapshot() const {
    std::lock_guard<std::mutex> lock(mu);
    return {pushed, stream.generation(), fused_requests.load(std::memory_order_relaxed),
            long(pending.size()), unresolved, peak_unresolved, rejected, deadline_flushes,
            empty_flushes};
  }

  void set_corked(bool on) {
    {
      std::lock_guard<std::mutex> lock(mu);
      corked = on;
    }
    retire_cv.notify_all();
  }

  /// Claims the ready-apply queue for one fused graft, accounting it in
  /// flight (a single component regardless of how many solves it carries).
  /// Caller holds mu.
  [[nodiscard]] Parts take_applies_locked() {
    Parts applies;
    if (!ready_applies.empty()) {
      applies.swap(ready_applies);
      ++inflight;
    }
    return applies;
  }

  /// Groups the pending requests by plan — one graft per distinct plan, so
  /// a mixed-shape stream still fuses everything of each shape — and
  /// accounts them in flight. Caller holds mu; the grafts happen outside the
  /// lock. Linear scan: pending is bounded by max_pending and distinct plans
  /// are few.
  [[nodiscard]] std::vector<Parts> take_groups_locked() {
    std::vector<Parts> groups;
    for (auto& req : pending) {
      Parts* home = nullptr;
      for (auto& g : groups)
        if (g.front()->plan == req->plan) {
          home = &g;
          break;
        }
      if (!home) home = &groups.emplace_back();
      home->push_back(std::move(req));
    }
    pending.clear();
    inflight += long(groups.size());
    return groups;
  }

  /// Claims the backlog for an explicit flush (`respect_cork == false`) or
  /// a drain (a corked backlog stays put), plus the ready applies, and
  /// grafts them.
  void claim_and_graft(bool respect_cork) {
    std::vector<Parts> groups;
    Parts applies;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (!respect_cork || !corked) {
        groups = take_groups_locked();
        // Count only claims actually attempted: a corked skip is deference,
        // not an empty flush.
        if (groups.empty()) ++empty_flushes;
      }
      applies = take_applies_locked();
    }
    graft(std::move(groups), std::move(applies));
  }

  /// Grafts claimed work — the ready applies, then one component per plan
  /// group — through the session primitive, outside the stream mutex (a
  /// pool append must not block pushes). A graft that fails fails only its
  /// own requests and retires its inflight slot.
  void graft(std::vector<Parts> groups, Parts applies = {}) {
    if (!applies.empty()) session->graft(std::move(applies), *this);
    for (auto& parts : groups) {
      if (parts.size() > 1)
        fused_requests.fetch_add(long(parts.size()), std::memory_order_relaxed);
      session->graft(std::move(parts), *this);
    }
  }

  /// Body of the per-stream deadline thread (flush_deadline > 0): sleeps
  /// until there is an uncorked backlog to watch, then grafts it once it has
  /// aged past the deadline. Exits when the stream closes (close() joins it
  /// before sealing, so a final deadline graft cannot race the seal).
  static void deadline_main(std::shared_ptr<State> state) {
    std::unique_lock<std::mutex> lock(state->mu);
    while (!state->closed) {
      if (state->pending.empty() || state->corked) {
        state->retire_cv.wait(lock, [&] {
          return state->closed || (!state->pending.empty() && !state->corked);
        });
        continue;
      }
      const auto due = state->oldest_pending + state->opts.flush_deadline;
      if (std::chrono::steady_clock::now() < due) {
        state->retire_cv.wait_until(lock, due);
        continue;  // re-evaluate: the backlog may have been claimed meanwhile
      }
      auto groups = state->take_groups_locked();
      ++state->deadline_flushes;
      lock.unlock();
      state->graft(std::move(groups));
      lock.lock();
    }
  }

  FactorSession* session = nullptr;
  runtime::ThreadPool::Stream stream;
  FactorSession::StreamOptions opts;
  int worker_cap = 0;  ///< pre-clamped; the tuner keys on this concurrency

  mutable std::mutex mu;
  /// The retirement condvar: notified whenever a request resolves, a
  /// grafted component retires, or the cork/closed flags flip. Waiters:
  /// drain() (unresolved == 0), Block-overflow pushers (a slot freed), and
  /// the flush_deadline thread (a backlog to watch appeared).
  std::condition_variable retire_cv;
  bool corked = false;
  bool closed = false;
  Parts pending;
  Parts ready_applies;  ///< solves whose apply stage is built (next_stage)
  long inflight = 0;    ///< grafted components not yet retired
  long pushed = 0;
  long unresolved = 0;  ///< admitted requests whose future hasn't resolved
  long peak_unresolved = 0;
  long rejected = 0;
  long deadline_flushes = 0;
  long empty_flushes = 0;
  /// When the pending backlog last went empty -> non-empty; the deadline
  /// thread grafts at oldest_pending + flush_deadline.
  std::chrono::steady_clock::time_point oldest_pending{};
  /// Engaged only when flush_deadline > 0; joined by close().
  std::thread deadline_thread;
  std::atomic<long> fused_requests{0};  ///< bumped outside mu (graft)
  /// End-to-end request latency (admission -> future resolution), exported
  /// through the registry source below. Atomic; recorded outside mu.
  obs::Histogram latency;
  /// Registry source "stream.<label>" / "stream<N>". Declared last so it
  /// deregisters (freezing the stream's final samples as retired metrics)
  /// before any field its callback reads is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source;
};

FactorStreamBase::FactorStreamBase(FactorSession& session, FactorSession::StreamOptions opts)
    : state_(std::make_shared<State>()) {
  TILEDQR_CHECK(opts.nb >= 1, stringf("StreamOptions::nb must be >= 1 (got %d)", opts.nb));
  TILEDQR_CHECK(opts.ib >= 1, stringf("StreamOptions::ib must be >= 1 (got %d)", opts.ib));
  TILEDQR_CHECK(opts.max_pending >= 1, "StreamOptions::max_pending must be >= 1");
  TILEDQR_CHECK(opts.max_queued >= 0,
                stringf("StreamOptions::max_queued must be >= 0, 0 = unbounded (got %d)",
                        opts.max_queued));
  TILEDQR_CHECK(opts.low_watermark >= 0,
                stringf("StreamOptions::low_watermark must be >= 0 (got %d)", opts.low_watermark));
  TILEDQR_CHECK(opts.flush_deadline.count() >= 0,
                "StreamOptions::flush_deadline must be >= 0, 0 = no deadline");
  state_->session = &session;
  state_->worker_cap = session.clamp_cap(opts.threads);
  state_->opts = std::move(opts);
  state_->stream = session.pool_.open_stream(state_->worker_cap);
  auto& registry = obs::MetricsRegistry::global();
  // Raw State pointer, not the shared_ptr: the handle lives inside State, so
  // a shared capture would be a self-cycle. It deregisters first in State's
  // destruction (declared last), while every field here is alive.
  state_->metrics_source = registry.register_source(
      state_->opts.label.empty() ? registry.unique_label("stream")
                                 : "stream." + state_->opts.label,
      [s = state_.get()](std::vector<obs::Sample>& out) {
        const Stats st = s->snapshot();
        for (const auto& [name, value] :
             {std::pair<const char*, long>{"pushed", st.pushed}, {"components", st.components},
              {"fused_requests", st.fused_requests}, {"pending", st.pending},
              {"unresolved", st.unresolved}, {"peak_unresolved", st.peak_unresolved},
              {"rejected", st.rejected}, {"deadline_flushes", st.deadline_flushes},
              {"empty_flushes", st.empty_flushes}})
          out.push_back({name, double(value)});
        s->latency.append_samples("latency", out);
      });
  if (state_->opts.flush_deadline.count() > 0)
    state_->deadline_thread = std::thread(&State::deadline_main, state_);
}

FactorStreamBase& FactorStreamBase::operator=(FactorStreamBase&& other) noexcept {
  if (this != &other) {
    close_quietly();
    state_ = std::move(other.state_);
  }
  return *this;
}

FactorStreamBase::~FactorStreamBase() { close_quietly(); }

void FactorStreamBase::close_quietly() noexcept {
  if (!state_) return;
  try {
    close();
  } catch (...) {
    // The destructor and move-assign must not throw; close() errors are only
    // re-close races, never worth tearing down the process.
  }
}

void FactorStreamBase::cork() {
  TILEDQR_CHECK(valid(), "FactorStream::cork: moved-from or empty stream handle");
  state_->set_corked(true);
}

void FactorStreamBase::uncork() {
  TILEDQR_CHECK(valid(), "FactorStream::uncork: moved-from or empty stream handle");
  state_->set_corked(false);
  flush();
}

void FactorStreamBase::flush() {
  TILEDQR_CHECK(valid(), "FactorStream::flush: moved-from or empty stream handle");
  state_->claim_and_graft(/*respect_cork=*/false);
}

void FactorStreamBase::drain() {
  TILEDQR_CHECK(valid(), "FactorStream::drain: moved-from or empty stream handle");
  state_->claim_and_graft(/*respect_cork=*/true);
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->retire_cv.wait(lock, [&] { return state_->unresolved == 0; });
}

void FactorStreamBase::close() {
  TILEDQR_CHECK(valid(), "FactorStream::close: moved-from or empty stream handle");
  std::thread deadline_reaper;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->closed = true;
    state_->corked = false;
    deadline_reaper.swap(state_->deadline_thread);
  }
  // Wake Block-ed pushers (they observe closed and throw) and the deadline
  // thread (it observes closed and exits; joined before the drain so no
  // grafting races the seal).
  state_->retire_cv.notify_all();
  if (deadline_reaper.joinable()) deadline_reaper.join();
  drain();
  if (!state_->stream.closed()) state_->stream.close();
}

FactorStreamBase::Stats FactorStreamBase::stats() const {
  TILEDQR_CHECK(valid(), "FactorStream::stats: moved-from or empty stream handle");
  return state_->snapshot();
}

long FactorStreamBase::generation() const {
  TILEDQR_CHECK(valid(), "FactorStream::generation: moved-from or empty stream handle");
  return state_->stream.generation();
}

std::string FactorStreamBase::health_report() const {
  TILEDQR_CHECK(valid(), "FactorStream::health_report: moved-from or empty stream handle");
  return state_->session->health_report();
}

std::exception_ptr FactorStreamBase::admit() {
  State& s = *state_;
  std::unique_lock<std::mutex> lock(s.mu);
  TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
  if (s.opts.max_queued > 0 && s.unresolved >= long(s.opts.max_queued)) {
    if (s.opts.overflow == FactorSession::StreamOverflow::Reject) {
      ++s.rejected;
      return std::make_exception_ptr(
          Error(stringf("FactorStream: backpressure reject — stream already holds max_queued=%d "
                        "unresolved requests (StreamOptions::overflow = Reject)",
                        s.opts.max_queued)));
    }
    s.retire_cv.wait(lock, [&] { return s.closed || s.unresolved < long(s.opts.max_queued); });
    TILEDQR_CHECK(!s.closed, "FactorStream: push on a closed stream");
  }
  ++s.unresolved;
  s.peak_unresolved = std::max(s.peak_unresolved, s.unresolved);
  return nullptr;
}

void FactorStreamBase::enqueue(std::shared_ptr<FactorSession::RequestBase> req) {
  State& s = *state_;
  std::vector<State::Parts> groups;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    if (s.closed) {
      // Push-vs-close race: the close won. Give the admission slot back
      // before reporting the caller bug, so the closing drain terminates.
      --s.unresolved;
      s.retire_cv.notify_all();
      throw Error("FactorStream: push on a closed stream");
    }
    if (s.pending.empty()) s.oldest_pending = std::chrono::steady_clock::now();
    s.pending.push_back(std::move(req));
    ++s.pushed;
    // Flush when the in-flight window fell to the watermark (default 0: the
    // stream ran dry with nothing to hide behind) or the coalescing bound is
    // hit; a corked stream defers the former but still bounds its memory
    // with the latter.
    const bool full = long(s.pending.size()) >= long(s.opts.max_pending);
    if (full || (!s.corked && s.inflight <= long(s.opts.low_watermark)))
      groups = s.take_groups_locked();
  }
  // Only a request that actually stayed pending re-arms the deadline
  // thread's watch; a push that grafted immediately left nothing to age.
  if (groups.empty() && s.opts.flush_deadline.count() > 0) s.retire_cv.notify_all();
  s.graft(std::move(groups));
}

std::shared_ptr<FactorSession::Sink> FactorStreamBase::sink() const { return state_; }

FactorSession& FactorStreamBase::session() const { return *state_->session; }

Options FactorStreamBase::request_options() const {
  Options opt;
  opt.tree = state_->opts.tree;
  opt.nb = state_->opts.nb;
  opt.ib = state_->opts.ib;
  opt.threads = state_->worker_cap == 0 ? state_->session->pool_.size() : state_->worker_cap;
  return opt;
}

int FactorStreamBase::worker_cap() const { return state_->worker_cap; }

}  // namespace tiledqr::core
