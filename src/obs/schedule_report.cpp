#include "obs/schedule_report.hpp"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <set>
#include <utility>

#include "dag/task_graph.hpp"
#include "obs/kernel_profile.hpp"
#include "sim/bounded.hpp"

namespace tiledqr::obs {

namespace {

ScheduleReport report_from_tracks(const std::vector<TrackSnapshot>& tracks) {
  ScheduleReport r;
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  std::set<std::pair<std::uint32_t, std::int32_t>> groups;
  for (const auto& track : tracks) {
    r.dropped += track.dropped;
    if (track.events.empty()) continue;
    WorkerLoad w;
    w.track = track.name;
    for (const auto& e : track.events) {
      ++w.tasks;
      if (e.flags & TraceEvent::kFlagStolen) ++w.stolen;
      w.busy_ns += e.end_ns - e.start_ns;
      first = std::min(first, e.start_ns);
      last = std::max(last, e.end_ns);
      groups.emplace(e.submission, e.component);
    }
    r.tasks += w.tasks;
    r.stolen += w.stolen;
    r.busy_ns += w.busy_ns;
    r.workers.push_back(std::move(w));
  }
  if (r.workers.empty()) return r;
  r.graphs = long(groups.size());
  r.span_ns = last - first;
  r.achieved_seconds = double(r.span_ns) / 1e9;
  if (r.span_ns > 0) {
    r.utilization = double(r.busy_ns) / (double(r.span_ns) * double(r.workers.size()));
  }
  std::sort(r.workers.begin(), r.workers.end(),
            [](const WorkerLoad& a, const WorkerLoad& b) { return a.track < b.track; });
  return r;
}

}  // namespace

ScheduleReport build_schedule_report(const Tracer& tracer) {
  return report_from_tracks(tracer.collect_since(tracer.mark_ns()));
}

ScheduleReport build_schedule_report(const Tracer& tracer, const dag::TaskGraph& graph,
                                     int workers) {
  const auto tracks = tracer.collect_since(tracer.mark_ns());
  ScheduleReport r = report_from_tracks(tracks);
  if (workers < 1) workers = 1;
  auto profile = KernelProfiler::global().live_profile();
  auto sim = sim::simulate_bounded_weighted(graph, workers, profile.weight,
                                            sim::SimPriority::CriticalPath);
  r.model_seconds = sim.makespan;
  BreakdownOptions opt;
  opt.since_ns = tracer.mark_ns();
  r.breakdown = build_critical_path_breakdown(tracks, graph, opt);
  if (!r.breakdown.valid) return r;
  // The model is one graph's makespan: compare it with the span of the one
  // traced graph the breakdown joined, not with the whole window.
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = std::numeric_limits<std::int64_t>::min();
  for (const auto& track : tracks)
    for (const auto& e : track.events)
      if (e.submission == r.breakdown.submission && e.component == r.breakdown.component) {
        first = std::min(first, e.start_ns);
        last = std::max(last, e.end_ns);
      }
  r.graph_seconds = double(last - first) / 1e9;
  if (r.graph_seconds > 0.0) r.model_ratio = r.model_seconds / r.graph_seconds;
  return r;
}

std::string format_schedule_report(const ScheduleReport& r) {
  if (r.workers.empty()) return "";
  std::string out = "schedule report\n";
  char line[192];
  std::snprintf(line, sizeof(line), "  %-14s %8s %8s %12s %8s\n", "worker", "tasks",
                "stolen", "busy_ms", "busy%");
  out += line;
  for (const auto& w : r.workers) {
    double busy_pct =
        r.span_ns > 0 ? 100.0 * double(w.busy_ns) / double(r.span_ns) : 0.0;
    std::snprintf(line, sizeof(line), "  %-14s %8ld %8ld %12.3f %7.1f%%\n", w.track.c_str(),
                  w.tasks, w.stolen, double(w.busy_ns) / 1e6, busy_pct);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  total: %ld tasks (%ld stolen, %ld dropped), span %.3f ms, "
                "utilization %.1f%%\n",
                r.tasks, r.stolen, r.dropped, double(r.span_ns) / 1e6,
                100.0 * r.utilization);
  out += line;
  if (r.model_ratio >= 0.0) {
    std::snprintf(line, sizeof(line),
                  "  achieved %.3f ms for 1 of %ld traced graphs vs bounded-sim model %.3f ms "
                  "(model/achieved %.2f)\n",
                  r.graph_seconds * 1e3, r.graphs, r.model_seconds * 1e3, r.model_ratio);
    out += line;
  } else if (r.model_seconds >= 0.0) {
    std::snprintf(line, sizeof(line), "  bounded-sim model %.3f ms (no traced graph matched)\n",
                  r.model_seconds * 1e3);
    out += line;
  }
  out += format_critical_path_breakdown(r.breakdown);
  return out;
}

}  // namespace tiledqr::obs
