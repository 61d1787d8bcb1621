// Spans recorded by the benchmark's own code around its calls into each
// library layer, and the analyses the per-layer metrics are derived from.
//
// A span is {name, start, end, parent, request}. Client-side spans are opened
// and closed on the benchmark thread; kernel spans are stamped by the DAG
// body into a per-task TaskRun slot (no locking, no allocation on the worker)
// and appended to the log once the DAG has drained. Spans stay in memory and
// are written out as JSON lines when the run ends.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <ostream>
#include <tuple>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "dag/task_graph.hpp"

namespace perfbench {

using Ns = std::int64_t;

inline Ns now_ns() noexcept { return tiledqr::obs::now_ns(); }

struct Span {
  const char* name = "";
  Ns start = 0;
  Ns end = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span; -1 = root
  std::int64_t request = -1;  ///< operation (solve / request) the span belongs to
  std::int32_t worker = -1;   ///< executing worker for kernel spans; -1 = client thread
  std::int32_t kind = -1;     ///< KernelKind for kernel spans; -1 otherwise
};

/// One DAG task as it ran: filled in by the task body on the worker.
struct TaskRun {
  Ns start = 0;
  Ns end = 0;
  std::int32_t worker = -1;
};

/// Small dense id for the calling thread (stable for the thread's life), so
/// kernel spans can name the worker that ran them.
inline std::int32_t worker_slot() noexcept {
  static std::atomic<std::int32_t> next{0};
  thread_local const std::int32_t slot = next.fetch_add(1, std::memory_order_relaxed);
  return slot;
}

/// A DAG body that runs `run_task(t)` and stamps task t's slot in `runs`
/// (sized to the graph) with its worker, start and end.
template <typename F>
auto timed_body(std::vector<TaskRun>& runs, F run_task) {
  return [&runs, run_task](std::int32_t t) {
    TaskRun& r = runs[size_t(t)];
    r.worker = worker_slot();
    r.start = now_ns();
    run_task(t);
    r.end = now_ns();
  };
}

class SpanLog {
 public:
  std::int32_t open(const char* name, std::int32_t parent = -1, std::int64_t request = -1) {
    spans_.push_back(Span{name, now_ns(), 0, parent, request, -1, -1});
    return std::int32_t(spans_.size() - 1);
  }
  void close(std::int32_t id) { spans_[size_t(id)].end = now_ns(); }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  [[nodiscard]] const Span& operator[](std::int32_t id) const { return spans_[size_t(id)]; }

  /// Appends one kernel span per task of `g`, children of `parent`.
  void add_tasks(const tiledqr::dag::TaskGraph& g, const std::vector<TaskRun>& runs,
                 std::int32_t parent, std::int64_t request) {
    for (size_t t = 0; t < runs.size(); ++t)
      spans_.push_back(Span{"kernel", runs[t].start, runs[t].end, parent, request,
                            runs[t].worker, std::int32_t(g.tasks[t].kind)});
  }

  void write_jsonl(std::ostream& os) const {
    for (const Span& s : spans_)
      os << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end
         << ",\"parent\":" << s.parent << ",\"request\":" << s.request
         << ",\"worker\":" << s.worker << ",\"kind\":" << s.kind << "}\n";
  }

 private:
  std::vector<Span> spans_;
};

/// Total length of the union of [start, end) intervals.
inline Ns union_length(std::vector<std::pair<Ns, Ns>> iv) {
  std::sort(iv.begin(), iv.end());
  Ns total = 0, cur_s = 0, cur_e = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (e <= s) continue;
    if (!open || s > cur_e) {
      if (open) total += cur_e - cur_s;
      cur_s = s;
      cur_e = e;
      open = true;
    } else {
      cur_e = std::max(cur_e, e);
    }
  }
  if (open) total += cur_e - cur_s;
  return total;
}

/// A span's duration minus the part of its interval its direct children
/// cover (children are clipped to the parent).
inline Ns self_time(const std::vector<Span>& spans, std::int32_t id) {
  const Span& p = spans[size_t(id)];
  std::vector<std::pair<Ns, Ns>> covered;
  for (const Span& c : spans)
    if (c.parent == id) covered.emplace_back(std::max(c.start, p.start), std::min(c.end, p.end));
  return (p.end - p.start) - union_length(std::move(covered));
}

/// Schedule of one executed DAG over the window [t0, t1] on `workers`
/// workers. A task is ready when its last predecessor ended (roots at t0).
struct ScheduleAnalysis {
  Ns wall = 0;             ///< t1 - t0
  Ns busy = 0;             ///< sum of task durations
  Ns idle = 0;             ///< sum over workers of window time not covered by its tasks
  double utilization = 0;  ///< busy / (workers * wall)
  std::vector<Ns> ready_wait;  ///< per task: start - ready
  Ns ready_wait_total = 0;
  Ns idle_while_ready = 0;  ///< integral of idle workers over times >= 1 task was ready
  Ns realized_cp = 0;       ///< realized critical chain: chain end - chain start
  long cp_tasks = 0;        ///< tasks on that chain
  /// Self time of the span around the execute call (set by the caller from
  /// the span log): time inside it with no kernel span running.
  Ns execute_self = 0;
};

inline ScheduleAnalysis analyze_schedule(const tiledqr::dag::TaskGraph& g,
                                         const std::vector<TaskRun>& runs, Ns t0, Ns t1,
                                         int workers) {
  const size_t n = g.tasks.size();
  ScheduleAnalysis a;
  a.wall = t1 - t0;
  std::vector<std::vector<std::int32_t>> preds(n);
  for (size_t t = 0; t < n; ++t)
    for (std::int32_t s : g.tasks[t].succ) preds[size_t(s)].push_back(std::int32_t(t));

  std::vector<Ns> ready(n, t0);
  a.ready_wait.resize(n);
  // (time, delta busy, delta ready) events for the idle-while-ready sweep.
  std::vector<std::tuple<Ns, int, int>> events;
  events.reserve(4 * n);
  std::vector<std::pair<std::int32_t, std::pair<Ns, Ns>>> by_worker;
  by_worker.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    for (std::int32_t p : preds[t]) ready[t] = std::max(ready[t], runs[size_t(p)].end);
    a.busy += runs[t].end - runs[t].start;
    a.ready_wait[t] = runs[t].start - ready[t];
    a.ready_wait_total += a.ready_wait[t];
    events.emplace_back(runs[t].start, +1, -1);
    events.emplace_back(runs[t].end, -1, 0);
    events.emplace_back(ready[t], 0, +1);
    by_worker.push_back({runs[t].worker, {runs[t].start, runs[t].end}});
  }
  std::sort(events.begin(), events.end());
  int busy_now = 0, ready_now = 0;
  Ns prev = t0;
  for (const auto& [time, dbusy, dready] : events) {
    if (ready_now > 0 && time > prev)
      a.idle_while_ready += Ns(std::max(0, workers - busy_now)) * (time - prev);
    prev = time;
    busy_now += dbusy;
    ready_now += dready;
  }

  // Per-worker coverage: idle is what each worker's union leaves of the window.
  std::sort(by_worker.begin(), by_worker.end());
  Ns covered = 0;
  for (size_t i = 0; i < by_worker.size();) {
    size_t j = i;
    std::vector<std::pair<Ns, Ns>> iv;
    for (; j < by_worker.size() && by_worker[j].first == by_worker[i].first; ++j)
      iv.emplace_back(std::max(by_worker[j].second.first, t0),
                      std::min(by_worker[j].second.second, t1));
    covered += union_length(std::move(iv));
    i = j;
  }
  a.idle = Ns(workers) * a.wall - covered;
  a.utilization = a.wall > 0 ? double(a.busy) / (double(workers) * double(a.wall)) : 0.0;

  // Realized critical chain: from the last task to finish, repeatedly step to
  // the predecessor that finished last (the one that actually gated it).
  if (n > 0) {
    size_t cur = 0;
    for (size_t t = 1; t < n; ++t)
      if (runs[t].end > runs[cur].end) cur = t;
    const Ns chain_end = runs[cur].end;
    a.cp_tasks = 1;
    while (!preds[cur].empty()) {
      size_t best = size_t(preds[cur].front());
      for (std::int32_t p : preds[cur])
        if (runs[size_t(p)].end > runs[best].end) best = size_t(p);
      cur = best;
      ++a.cp_tasks;
    }
    a.realized_cp = chain_end - runs[cur].start;
  }
  return a;
}

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const size_t lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

}  // namespace perfbench
