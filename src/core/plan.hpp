// Planning: turn an algorithm selection (TreeConfig) into an elimination
// list + task DAG + critical path, handling both static algorithms
// (FlatTree, BinaryTree, Fibonacci, Greedy, PlasmaTree) and dynamic ones
// (Asap, Grasap), whose lists come from the simulator. A plan is immutable
// and shared: a batch of same-shape factorizations schedules N parts that
// all point at one cached plan's graph and ranks (runtime::ThreadPool::Part).
#pragma once

#include <vector>

#include "dag/task_graph.hpp"
#include "trees/elimination.hpp"

namespace tiledqr::core {

struct Plan {
  trees::EliminationList list;
  dag::TaskGraph graph;
  long critical_path = 0;  ///< Table 1 units (n_b^3/3 flops)
  /// Cached downward ranks (longest weighted path to a sink) of every task —
  /// the CriticalPath scheduling keys. Computed once at planning time so
  /// repeated submissions of a cached plan skip the rank sweep entirely.
  std::vector<long> ranks;

  /// Which factorization this plan describes. For LQ the graph lives on the
  /// reduction grid (the tile grid of A^H).
  [[nodiscard]] kernels::FactorKind factor() const noexcept { return graph.factor; }
};

/// Builds the full plan for a p x q tile grid. For FactorKind::LQ, (p, q)
/// is the *reduction* grid — the tile grid of A^H, with p >= q — so every
/// tree generator and simulator runs unchanged; only the emitted kernel
/// kinds differ (the LQ duals).
[[nodiscard]] Plan make_plan(int p, int q, const trees::TreeConfig& config,
                             kernels::FactorKind factor = kernels::FactorKind::QR);

/// Critical path only. Builds the full plan internally (it is not cheaper
/// than make_plan); provided for readability at call sites that sweep many
/// configurations and only need the critical-path length.
[[nodiscard]] long plan_critical_path(int p, int q, const trees::TreeConfig& config);

/// Searches PlasmaTree domain sizes 1..p and returns the best (BS, critical
/// path) pair — the paper's exhaustive-search composite.
struct BestBs {
  int bs = 1;
  long critical_path = 0;
};
[[nodiscard]] BestBs best_plasma_bs(int p, int q, trees::KernelFamily family);

}  // namespace tiledqr::core
