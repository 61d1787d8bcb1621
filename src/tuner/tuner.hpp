// Tree autotuner: model-driven algorithm selection.
//
// The paper's central result is that the best elimination tree depends on
// the tile-grid shape and the core count: Greedy is asymptotically optimal
// for tall grids, Fibonacci is within a small additive term, and
// FlatTree/PlasmaTree with the TS kernels win on squarish shapes because the
// TS kernels run at higher rates (§5). The Tuner turns that taxonomy into an
// automatic decision so serving traffic never hand-picks a TreeConfig: it
// enumerates the candidate trees — FlatTree (TT and TS), BinaryTree,
// Fibonacci, Greedy, and PlasmaTree in both families with the domain size
// from the paper's exhaustive BS sweep (best_plasma_bs) — and ranks them by
// the makespan of the bounded-processor list scheduler
// (sim::simulate_bounded_weighted) on the actual worker count, under a
// per-kernel weight profile (Table-1 units, the paper-calibrated sc11
// profile, or live kernel means from obs::KernelProfiler::live_profile).
//
// Decisions land in a TuningTable keyed on (p, q, workers, profile id) that
// serializes to JSON, so tuning survives process restarts. The environment
// override TILEDQR_TREE=auto|flat|binary|fibonacci|greedy|plasma bypasses
// the whole machinery for A/B runs.
//
// Candidate plans are fetched through the caller's PlanCache, so the plan of
// the winning config is already cached when the factorization itself runs.
#pragma once

#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/plan_cache.hpp"
#include "obs/metrics.hpp"
#include "perf/kernel_bench.hpp"
#include "tuner/tuning_table.hpp"

namespace tiledqr::tuner {

struct TunerConfig {
  /// Model weight profile; the paper-calibrated sc11 profile by default
  /// (Table-1 flops corrected by the §5 kernel efficiencies). Swap in
  /// perf::table1_profile() for pure flop counting or
  /// obs::KernelProfiler::live_profile() for kernel means measured here.
  perf::WeightProfile profile = perf::sc11_profile();

  /// JSON persistence: decisions load from this file at construction (when
  /// it exists) and save back on destruction / save(). "" = in-memory only.
  std::string table_path;
};

/// One ranked candidate.
struct Candidate {
  trees::TreeConfig config{};
  double model_makespan = 0.0;  ///< weighted bounded-sim makespan
};

/// The candidate enumeration for a p x q grid: FlatTree TT/TS, BinaryTree,
/// Fibonacci, Greedy, and PlasmaTree TT/TS with the domain size from the
/// paper's exhaustive BS sweep. Shared by Tuner::rank_candidates
/// and bench_autotune so the bench's fixed field cannot drift from what the
/// tuner actually considers.
[[nodiscard]] std::vector<trees::TreeConfig> candidate_configs(int p, int q);

/// Parses TILEDQR_TREE: "flat", "binary", "fibonacci", "greedy", "plasma"
/// force that algorithm for every shape ("flat"/"plasma" use the TS family —
/// PLASMA's convention — and "plasma" picks BS via best_plasma_bs; the
/// "-tt"/"-ts" suffix, e.g. "flat-tt", forces the family). "auto", unset,
/// or unrecognized values return nullopt (the tuner decides).
[[nodiscard]] std::optional<trees::TreeConfig> forced_tree_from_env(int p, int q);

class Tuner {
 public:
  explicit Tuner(TunerConfig config = {});

  /// Best-effort save to table_path (errors swallowed — destruction must not
  /// throw; call save() for a loud version).
  ~Tuner();

  Tuner(const Tuner&) = delete;
  Tuner& operator=(const Tuner&) = delete;

  /// The full decision for a p x q reduction grid on `workers` workers:
  /// TILEDQR_TREE override first, then the tuning table, then the model
  /// ranking. For LQ
  /// workloads callers pass the reduction grid (element grid transposed, so
  /// p >= q always holds here) and FactorKind::LQ; the decision is tabled
  /// under its own key and the candidate plans cached are LQ plans.
  /// Thread-safe; concurrent misses on the same key tune redundantly but
  /// all return the same decision — the table keeps the first recorded
  /// winner and record() hands it back to the losers.
  [[nodiscard]] TunedDecision decide(int p, int q, int workers, core::PlanCache& cache,
                                     kernels::FactorKind factor = kernels::FactorKind::QR);

  /// Convenience: just the chosen TreeConfig.
  [[nodiscard]] trees::TreeConfig choose(int p, int q, int workers, core::PlanCache& cache,
                                         kernels::FactorKind factor = kernels::FactorKind::QR) {
    return decide(p, q, workers, cache, factor).config;
  }

  /// The candidate set, ranked best (smallest model makespan) first.
  /// Exposed for benches and tests; plans go through `cache` (keyed on
  /// `factor`, so the winner's plan is already cached for the workload that
  /// asked). LQ graphs rank identically to their QR duals — every LQ kernel
  /// shares its dual's weight-profile slot — but fetching them under the LQ
  /// key keeps the pre-caching guarantee.
  [[nodiscard]] std::vector<Candidate> rank_candidates(
      int p, int q, int workers, core::PlanCache& cache,
      kernels::FactorKind factor = kernels::FactorKind::QR) const;

  [[nodiscard]] const TunerConfig& config() const noexcept { return config_; }
  [[nodiscard]] TuningTable& table() noexcept { return table_; }
  [[nodiscard]] const TuningTable& table() const noexcept { return table_; }
  [[nodiscard]] TuningTable::Stats stats() const { return table_.stats(); }

  /// Writes the table to config().table_path; throws tiledqr::Error on I/O
  /// failure or if no path is configured.
  void save() const;

 private:
  [[nodiscard]] std::optional<trees::TreeConfig> forced_tree_cached(int p, int q);

  TunerConfig config_;
  TuningTable table_;

  // Forced-path memo: TILEDQR_TREE=plasma runs the exhaustive BS sweep, and
  // forced decisions bypass the TuningTable — without this cache every
  // decide() of a serving process in A/B mode would pay the sweep again.
  // Invalidated when the raw env value changes (tests flip it mid-process).
  std::mutex forced_mu_;
  std::string forced_env_;
  std::unordered_map<long, std::optional<trees::TreeConfig>> forced_memo_;

  /// Registry source "tuner<N>" exporting the TuningTable stats; declared
  /// last so it deregisters before table_ dies.
  obs::MetricsRegistry::SourceHandle metrics_source_;
};

}  // namespace tiledqr::tuner
