// Post-run schedule report: what the trace says about how a run actually
// scheduled — per-worker busy time, task and steal counts, overall span,
// utilization (the runtime analogue of the paper's §5 critical-path
// analysis), and, when a task graph is supplied, the achieved makespan next
// to the bounded-processor list-scheduler model under the live kernel
// weights.
//
// Built entirely from Tracer data, so it costs nothing unless tracing was
// on; benches and the serving example print it at the end of a traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/trace.hpp"

namespace tiledqr::dag {
struct TaskGraph;
}

namespace tiledqr::obs {

struct WorkerLoad {
  std::string track;        ///< track name ("pool0.w3", ...)
  long tasks = 0;
  long stolen = 0;          ///< tasks that ran off a steal
  std::int64_t busy_ns = 0; ///< sum of task durations on this track
};

struct ScheduleReport {
  std::vector<WorkerLoad> workers;  ///< tracks that executed at least one task
  long tasks = 0;
  long stolen = 0;
  long dropped = 0;          ///< ring-overflow losses (report covers the rest)
  std::int64_t span_ns = 0;  ///< latest end − earliest start across all tracks
  std::int64_t busy_ns = 0;  ///< total task time across all tracks
  /// busy / (workers × span): 1.0 = no worker ever idle inside the span.
  /// This is the critical-path utilization when the span is one DAG's run.
  double utilization = 0.0;

  double achieved_seconds = 0.0;   ///< span in seconds
  /// Distinct traced graphs in the window: (submission, component) groups.
  long graphs = 0;
  double model_seconds = -1.0;     ///< bounded-sim makespan; < 0 = not computed
  /// Span of the one traced graph the breakdown joined against the model's
  /// graph (first start to last end of its group); 0 = none matched.
  double graph_seconds = 0.0;
  /// model / graph_seconds when both known (> 1 would mean beating the
  /// model, < 1 is scheduling + memory overhead the model doesn't see).
  /// One graph against one graph: a window holding many graphs does not
  /// dilute it. < 0 = no traced graph matched.
  double model_ratio = -1.0;

  /// Realized-critical-path decomposition (graph flavor only): which chain
  /// of tasks actually set the span, split into work vs scheduler gaps —
  /// the explanation behind model_ratio. Invalid when no graph was given or
  /// no trace group joined against it.
  CriticalPathBreakdown breakdown;
};

/// Aggregates the tracer's current events — honoring the tracer's
/// begin-mark: only events since mark() count, so a long-lived server can
/// scope each report to the run since the last mark. Empty report when
/// nothing was recorded.
[[nodiscard]] ScheduleReport build_schedule_report(const Tracer& tracer);

/// Same, plus the achieved-vs-model comparison: the bounded list-scheduler
/// makespan of `graph` on `workers` workers under the live kernel-profile
/// weights (KernelProfiler::global().live_profile()), against the span of
/// the traced graph that build_critical_path_breakdown selects.
[[nodiscard]] ScheduleReport build_schedule_report(const Tracer& tracer,
                                                   const dag::TaskGraph& graph, int workers);

/// Human-readable multi-line rendering ("" for an empty report).
[[nodiscard]] std::string format_schedule_report(const ScheduleReport& report);

}  // namespace tiledqr::obs
