// Span analysis on synthetic span sets whose answers are worked out by hand.
#include <gtest/gtest.h>

#include "spans.hpp"

using namespace perfbench;
using tiledqr::dag::Task;
using tiledqr::dag::TaskGraph;
using tiledqr::kernels::KernelKind;

namespace {

TaskGraph make_graph(int tasks, const std::vector<std::pair<int, int>>& edges) {
  TaskGraph g;
  for (int i = 0; i < tasks; ++i)
    g.tasks.push_back(Task{KernelKind::GEQRT, i, -1, 0, -1, 0, {}});
  for (const auto& [from, to] : edges) {
    g.tasks[size_t(from)].succ.push_back(to);
    ++g.tasks[size_t(to)].npred;
  }
  return g;
}

/// a -> b, a -> c, b -> d, c -> d.
TaskGraph diamond() { return make_graph(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}); }

// Two workers over [0, 40]:
//   w0: a [0,10]   b [10,30]
//   w1:            c [15,20]          d [35,40]
// c is ready at 10 but starts at 15; d is ready at 30 (b ends) but starts at 35.
std::vector<TaskRun> diamond_runs() {
  return {{0, 10, 0}, {10, 30, 0}, {15, 20, 1}, {35, 40, 1}};
}

}  // namespace

TEST(Spans, SelfTimeSubtractsUnionOfClippedChildren) {
  std::vector<Span> s;
  s.push_back(Span{"parent", 0, 100, -1});
  s.push_back(Span{"c1", 10, 30, 0});
  s.push_back(Span{"c2", 20, 50, 0});   // overlaps c1: union [10, 50]
  s.push_back(Span{"c3", 90, 120, 0});  // clipped to [90, 100]
  s.push_back(Span{"grandchild", 0, 100, 1});  // not a direct child of 0
  EXPECT_EQ(self_time(s, 0), 100 - 40 - 10);
  EXPECT_EQ(self_time(s, 1), 0);  // fully covered by its own child (clipped)
  EXPECT_EQ(self_time(s, 2), 30);
}

TEST(Spans, UtilizationAndIdleReconcileWithWall) {
  const auto a = analyze_schedule(diamond(), diamond_runs(), 0, 40, 2);
  EXPECT_EQ(a.wall, 40);
  EXPECT_EQ(a.busy, 40);
  EXPECT_DOUBLE_EQ(a.utilization, 0.5);
  EXPECT_EQ(a.idle, 40);
  EXPECT_EQ(a.busy + a.idle, 2 * a.wall);
}

TEST(Spans, ReadyWaitStartsAtLastPredecessorEnd) {
  const auto a = analyze_schedule(diamond(), diamond_runs(), 0, 40, 2);
  ASSERT_EQ(a.ready_wait.size(), 4u);
  EXPECT_EQ(a.ready_wait[0], 0);  // root: ready at t0
  EXPECT_EQ(a.ready_wait[1], 0);
  EXPECT_EQ(a.ready_wait[2], 5);
  EXPECT_EQ(a.ready_wait[3], 5);  // ready at max(30, 20)
  EXPECT_EQ(a.ready_wait_total, 10);
}

TEST(Spans, IdleWhileReadyCountsIdleWorkersOnlyWhenWorkIsWaiting) {
  // [10,15]: c waits, b runs -> 1 idle worker x 5; [30,35]: d waits, nothing
  // runs -> 2 idle workers x 5. Idle time with nothing ready is not counted.
  const auto a = analyze_schedule(diamond(), diamond_runs(), 0, 40, 2);
  EXPECT_EQ(a.idle_while_ready, 5 + 10);
}

TEST(Spans, RealizedCriticalPathFollowsTheGatingPredecessor) {
  // a -> b -> d and a root c -> d. d waits on b (ends 30), not c (ends 20),
  // so the chain is a, b, d from a's start (0), not c, d from c's start (5).
  const TaskGraph g = make_graph(4, {{0, 1}, {1, 3}, {2, 3}});
  std::vector<TaskRun> runs{{0, 10, 0}, {10, 30, 0}, {5, 20, 1}, {35, 40, 1}};
  const auto a = analyze_schedule(g, runs, 0, 40, 2);
  EXPECT_EQ(a.cp_tasks, 3);
  EXPECT_EQ(a.realized_cp, 40);  // d's end - a's start
  // The realized path is chain end - chain start, not the window.
  for (auto& r : runs) {
    r.start += 100;
    r.end += 100;
  }
  EXPECT_EQ(analyze_schedule(g, runs, 0, 200, 2).realized_cp, 40);
}

TEST(Spans, OverlapOnOneWorkerBreaksReconciliation) {
  // Two tasks claimed by the same worker at once: covered time is their
  // union, so busy + idle exceeds workers * wall — the signal the benchmark
  // reports as runtime.reconcile_err.
  auto runs = diamond_runs();
  runs[2].worker = 0;  // c [15,20] now overlaps b [10,30] on w0
  const auto a = analyze_schedule(diamond(), runs, 0, 40, 2);
  EXPECT_EQ(a.busy + a.idle - 2 * a.wall, 5);
}

TEST(Spans, QuantileInterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(quantile({3.0}, 0.99), 3.0);
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.99), 9.9);
}
