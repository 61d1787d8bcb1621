// Persistent worker pool for the serving regime.
//
// Spawning threads per call pays a thread create/join round trip on every
// factorization — invisible for one big QR, dominant for the "many repeated
// small factorizations" workload the ROADMAP targets. ThreadPool keeps the
// workers alive across factorizations:
//
//   * each worker owns a fixed set of *lanes* — one Chase–Lev lock-free
//     deque per live submission it holds work for. The owner pushes and
//     pops LIFO at the bottom (locality, relaxed fast path); idle workers
//     steal FIFO from the top, paying one CAS — the steal path takes no
//     locks. A small per-worker mutexed *inbox* is the cross-thread
//     mailbox: dealers (submit/append from any thread) push there and the
//     owner drains it into its lanes, preserving the single-producer
//     invariant Chase–Lev requires;
//   * the initial ready set is dealt by one rule (below), in descending
//     critical-path priority (the paper's scheduling rule), so every worker
//     starts on the most urgent task it holds;
//   * several DAGs can be in flight at once (the batched serving API
//     interleaves them); each submission can be capped to a subset of
//     workers so `execute(g, body, threads)` keeps its exact-concurrency
//     semantics for the scaling ablations.
//
// Dealing: a *stream* component goes whole to one home worker, rotating
// across the worker set per component, so one request's tiles stay in one
// core's cache; siblings steal across components only when their own lanes
// run dry. A one-shot DAG spreads its sources round-robin from its
// submission's rotating anchor: a single DAG's parallelism *is* the spread.
// Every waiter — an idle worker, a re-entrant run(), Stream::wait(), the
// draining destructor — parks in one help-and-park loop. TILEDQR_PIN=1
// additionally pins worker w to the (w mod n)-th CPU of the process's
// affinity mask (pthread_setaffinity_np; a no-op off Linux).
//
// A submission is a set of DAG *components*. The one-shot submit() carries
// exactly one and closes immediately; a Stream (open_stream) stays open and
// grafts new components onto the live submission's ready set while workers
// are still draining earlier ones — no stop-the-world barrier. Components
// are generation-counted: each append bumps the submission's generation, the
// component records the generation it was born in, and the component list is
// append-only with stable addresses, so workers racing on items of an older
// generation never observe a ready set being rebuilt under them. A component
// is a list of *parts*, each a borrowed DAG with its own scheduling keys:
// a batch of N independent factorizations is one component of N parts, which
// may all point at one cached plan graph — nothing is concatenated or
// copied. Task ids are global within the component (part offset + local);
// the body receives (part, local). Completion is per part (a callback once
// the part's last task has run and been traced) and per component; the
// submission itself retires when it is closed and every generation has
// drained.
//
// Fairness (serving QoS): several live streams share the pool, and with one
// LIFO deque per worker a chatty client's continuous grafts would keep
// landing on top, starving a quieter stream's items at the bottom. Two
// mechanisms keep concurrent streams interleaved: (1) stream components are
// dealt from a pool-level round-robin anchor shared by all streams, so one
// client's burst shifts the next client's graft past the workers it just
// loaded; (2) each worker keeps one lane per live submission and rotates
// round-robin across lanes when popping, so every submission visible to a
// worker makes progress regardless of graft arrival order.
//
// Tasks only write their declared outputs, so results are bitwise identical
// to the sequential replay for any worker count, steal order or pinning.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "runtime/executor.hpp"

namespace tiledqr::runtime {

class ThreadPool {
  // Scheduling internals, declared up front so the public Stream handle can
  // name them (definitions live in the .cpp).
  struct Component;
  struct Submission;
  struct Worker;

 public:
  /// Counters since construction. stats() returns a *coherent* snapshot:
  /// every underlying counter is monotone and the reader re-reads until two
  /// consecutive passes agree, so the returned struct reflects one instant
  /// (e.g. tasks_stolen never exceeds tasks_executed by a torn read).
  /// Power-of-two steal-latency buckets: bucket b counts successful steals
  /// whose scan latency (entering the steal scan -> item acquired) fell in
  /// [2^b, 2^(b+1)) ns; the last bucket absorbs the tail (>= 8ms).
  static constexpr int kStealLatencyBuckets = 24;

  struct Stats {
    long graphs_completed = 0;  ///< DAG components fully retired
    long tasks_executed = 0;    ///< task bodies actually run
    long tasks_stolen = 0;      ///< tasks taken from another worker's lanes/inbox
    long streams_opened = 0;    ///< streaming submissions created
    long streams_live = 0;  ///< gauge: streams opened and neither closed nor
                            ///< abandoned (all handles dropped without close)
    // Steal-path contention and locality attribution (summed over workers).
    long steal_cas_retries = 0;   ///< lost top-CAS races while stealing
    long empty_steal_probes = 0;  ///< full victim sweeps that found nothing
    long tasks_home = 0;     ///< tasks run on their component's home worker
                             ///< (one-shot components: run un-stolen)
    long tasks_foreign = 0;  ///< tasks run off-home (lost locality)
    /// Latency distribution per successful steal, summed over workers.
    std::array<long, kStealLatencyBuckets> steal_latency_hist{};

    /// Bucket-resolution quantile of the steal-latency distribution: the
    /// upper bound (ns) of the bucket holding the q-quantile sample, 0 when
    /// no steal was recorded. q in [0, 1].
    [[nodiscard]] std::int64_t steal_latency_quantile_ns(double q) const noexcept;
  };

  /// `threads == 0` resolves to default_thread_count() (TILEDQR_THREADS or
  /// hardware concurrency), the same rule the rest of the library uses.
  /// TILEDQR_PIN (and the CPU mask it pins into) is read here, once.
  explicit ThreadPool(int threads = 0);

  /// Drains outstanding submissions, then stops and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  [[nodiscard]] int size() const noexcept { return int(workers_.size()); }

  /// One DAG of a component: `graph` and, when non-null, `keys` —
  /// precomputed scheduling keys, one per task of `graph`, higher runs first
  /// (cached plans pass their ranks to skip the per-submission rank sweep).
  /// Null keys are ranked by the pool. Both are borrowed until the
  /// component's on_complete has run.
  struct Part {
    const dag::TaskGraph* graph = nullptr;
    const std::vector<long>* keys = nullptr;
  };
  /// Runs task `task` (an index into the part's graph) of part `part`.
  using PartBody = std::function<void(std::int32_t part, std::int32_t task)>;
  /// Runs exactly once per part, on the worker that retires the part's last
  /// task: after that task has run and been traced, with `error` null when
  /// every task of the part ran; or, when a task failure cancelled the
  /// component before the part finished, with the component's first error.
  /// Runs before the component's on_complete. Must not throw.
  using PartDone = std::function<void(std::int32_t part, std::exception_ptr error)>;

  /// Asynchronous DAG submission. `on_complete` runs on the worker that
  /// retires the last task, with the first task exception (or nullptr on
  /// success). `g` and everything `body` touches must stay alive until then;
  /// `keepalive` is held by the submission for exactly that purpose and
  /// released after `on_complete` returns. `max_workers <= 0` means all
  /// workers; otherwise the submission is confined to that many workers.
  /// `keys` is the Part::keys contract for `g`; when null, `priority` ranks
  /// the tasks.
  void submit(const dag::TaskGraph& g, std::function<void(std::int32_t)> body,
              std::function<void(std::exception_ptr)> on_complete,
              SchedulePriority priority = SchedulePriority::CriticalPath, int max_workers = 0,
              std::shared_ptr<const void> keepalive = nullptr,
              const std::vector<long>* keys = nullptr);

  /// Future-returning flavor of submit().
  [[nodiscard]] std::future<void> submit(const dag::TaskGraph& g,
                                         std::function<void(std::int32_t)> body,
                                         SchedulePriority priority = SchedulePriority::CriticalPath,
                                         int max_workers = 0,
                                         std::shared_ptr<const void> keepalive = nullptr,
                                         const std::vector<long>* keys = nullptr);

  /// Submits `parts` (each non-empty) as ONE component: one deal of the
  /// initial ready set, one wake, one completion. Dependencies never cross
  /// parts; a task failure cancels the whole component, so `on_part` reports
  /// success for the parts that had finished and the error for the rest.
  /// Trace events carry global task ids (part offset + local). Same
  /// lifetime and worker-cap contract as the single-graph submit().
  void submit(std::span<const Part> parts, PartBody body, PartDone on_part,
              std::function<void(std::exception_ptr)> on_complete, int max_workers = 0,
              std::shared_ptr<const void> keepalive = nullptr);

  /// Blocking convenience: submit and wait; rethrows the first task
  /// exception. Safe to call from inside a task body running on this pool —
  /// the calling worker helps execute instead of deadlocking.
  void run(const dag::TaskGraph& g, const std::function<void(std::int32_t)>& body,
           SchedulePriority priority = SchedulePriority::CriticalPath, int max_workers = 0,
           const std::vector<long>* keys = nullptr);

  /// Handle to a live streaming submission (open_stream). append() grafts a
  /// new DAG component onto the in-flight ready set; each component has its
  /// own completion callback and error state (one component's failure does
  /// not cancel its siblings — they are independent requests). The handle is
  /// movable and shares state: copies of the underlying submission survive
  /// until the last worker retires it. append()/wait()/generation() are
  /// thread-safe; close() may race with append() — the append that loses
  /// throws, like any append after close.
  ///
  /// Lifetime: every graph/body/keys passed to append() must stay alive
  /// until that component's on_complete has run (use `keepalive`). The pool
  /// must outlive the stream's last append; an open, idle stream does not
  /// block the pool destructor.
  class Stream {
   public:
    Stream() = default;  ///< empty handle; only moved-into handles are valid

    /// Grafts `g` onto the live submission as a new component of the next
    /// generation and wakes workers; same argument contract as
    /// ThreadPool::submit. Throws Error if the stream is closed or empty.
    /// Appending from a task body or completion callback running on the
    /// pool is safe (the tail of a solve pipeline chains its next stage this
    /// way).
    void append(const dag::TaskGraph& g, std::function<void(std::int32_t)> body,
                std::function<void(std::exception_ptr)> on_complete = nullptr,
                std::shared_ptr<const void> keepalive = nullptr,
                const std::vector<long>* keys = nullptr);

    /// Grafts `parts` as one component (the multi-part submit() contract).
    void append(std::span<const Part> parts, PartBody body, PartDone on_part,
                std::function<void(std::exception_ptr)> on_complete = nullptr,
                std::shared_ptr<const void> keepalive = nullptr);

    /// No further appends; idempotent. Does not block — pair with wait().
    void close();

    /// Blocks until every component appended before this call has retired.
    /// Callable with the stream still open (drain-and-continue) or after
    /// close(). Safe from a pool worker: the caller helps execute.
    void wait();

    /// Components appended so far — the ready set's generation count.
    [[nodiscard]] long generation() const noexcept;
    /// Components fully retired so far.
    [[nodiscard]] long retired() const noexcept;
    [[nodiscard]] bool closed() const noexcept;

    [[nodiscard]] bool valid() const noexcept { return pool_ != nullptr; }
    explicit operator bool() const noexcept { return valid(); }

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;
    std::shared_ptr<Submission> sub_;
  };

  /// Opens a streaming submission confined to `max_workers` workers
  /// (<= 0 = all), anchored like any submission. Components appended later
  /// all share this worker set; each is dealt whole to a home worker that
  /// rotates across the set per component.
  [[nodiscard]] Stream open_stream(int max_workers = 0);

  [[nodiscard]] Stats stats() const noexcept;

  /// Point-in-time view of one worker, for the health layer's stall and
  /// overrun watchdogs. The running_* slots are stamped by the per-task hook
  /// only while a HealthMonitor is live (obs::kObsTaskHealth) — otherwise
  /// they read as idle — so probing costs the runtime nothing when nobody
  /// watches.
  struct WorkerProbe {
    int worker = 0;
    std::size_t ready = 0;  ///< items queued on this worker right now
    std::int64_t running_since_ns = 0;  ///< start of the in-flight task; 0 = idle
    std::int32_t running_task = -1;     ///< its task index (valid while running)
    std::uint8_t running_kind = 0xFF;   ///< its KernelKind, 0xFF = non-kernel
    std::int64_t last_finish_ns = 0;    ///< end of the last retired task; 0 = never
  };

  /// Probes every worker. Entirely lock-free: lane depths are racy atomic
  /// estimates and the running slots were already atomics — no worker mutex
  /// exists to take. Safe from any thread.
  [[nodiscard]] std::vector<WorkerProbe> probe_workers() const;

  /// Total ready items across all workers — "is there runnable work a
  /// stalled worker should be taking?". Lock-free like probe_workers().
  [[nodiscard]] long ready_depth() const;

  /// Process-wide shared pool, lazily created with default_thread_count()
  /// workers; what runtime::execute() submits to.
  static ThreadPool& default_pool();

 private:
  friend class Stream;

  /// POD queue entry: {component, global task id}. Component lifetime is
  /// guaranteed by its submission's self-reference (see Submission) while
  /// any of its tasks is queued or running, so no shared_ptr rides along.
  struct Item {
    Component* comp = nullptr;
    std::int32_t task = 0;
  };

  std::shared_ptr<Submission> make_submission(int max_workers, bool closed);
  /// Appends one component (generation = current + 1) and deals its sources.
  Component& append_component(const std::shared_ptr<Submission>& sub,
                              std::span<const Part> parts, PartBody body, PartDone on_part,
                              std::function<void(std::exception_ptr)> on_complete,
                              SchedulePriority priority,
                              std::shared_ptr<const void> keepalive, bool check_closed);
  void finalize_if_drained(Submission& sub);
  void wait_stream(const std::shared_ptr<Submission>& sub, long up_to_generation);
  /// The one park-and-help loop (worker `wid`; -1 = outside thread, parks only).
  template <class Done>
  void help_until(int wid, const Done& done);
  void worker_main(int wid);
  bool try_run_one(int wid);
  void run_item(int wid, Item item, bool stolen);
  void signal_work();

  // Lane/inbox plumbing (definitions in the .cpp, where Worker is complete).
  void drain_inbox(Worker& self);
  bool pop_rotating(Worker& self, Item& out);
  bool steal_lanes(Worker& victim, Worker& thief, int thief_wid, Item& out);
  bool steal_inbox(Worker& victim, int thief_wid, Item& out);
  void push_inbox(Worker& w, const Item* items, std::size_t n);
  void push_local(Worker& self, Item item);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep/wake machinery: epoch_ bumps on every push; idle workers sleep on
  // sleep_cv_ until the epoch moves past the value they last scanned at.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  /// Workers past their start-up prologue (pinning, trace-track naming);
  /// guarded by sleep_mu_. The constructor waits for all of them, so a
  /// trace exported after any job names every worker's track.
  int started_workers_ = 0;
  std::atomic<long> epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<bool> stop_{false};

  /// TILEDQR_PIN: the CPUs of the process's affinity mask; worker w pins to
  /// pin_cpus_[w mod n]. Empty = no pinning.
  std::vector<int> pin_cpus_;

  /// In-flight *components*: a stream counts one per appended component, so
  /// an open-but-idle stream does not block the draining destructor.
  std::atomic<long> active_submissions_{0};
  /// Rotates the worker-set anchor (unsigned: wraps harmlessly in
  /// long-lived serving processes).
  std::atomic<unsigned> next_start_{0};
  /// Home rotation shared by ALL stream grafts: advances by one per
  /// component, so concurrent streams interleave across the worker set
  /// instead of each independently rotating from its own anchor.
  std::atomic<unsigned> next_home_{0};
  /// Streams closed or abandoned, monotone (streams_live is derived as
  /// streams_opened_ − this, keeping every stats() input monotone so the
  /// coherent-snapshot re-read works). Shared with each stream Submission so
  /// a handle dropped without close() still counts from ~Submission — which
  /// can outlive the pool (an open idle stream does not block the pool
  /// destructor), so the counter cannot live in the pool object itself.
  std::shared_ptr<std::atomic<long>> streams_closed_{std::make_shared<std::atomic<long>>(0)};

  // Stats (relaxed counters; per-worker counters live on the Worker).
  std::atomic<long> graphs_completed_{0};
  std::atomic<long> tasks_executed_{0};
  std::atomic<long> tasks_stolen_{0};
  std::atomic<long> streams_opened_{0};

  /// Registry label ("pool0", ...); worker trace tracks are "<label>.w<i>".
  std::string label_;
  /// Declared last: deregistered (freezing final stats into the registry)
  /// before any counter it reads is destroyed.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tiledqr::runtime
