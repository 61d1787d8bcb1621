// Autotuner benchmark: the tuner's auto-selected tree vs every fixed tree
// across a (p, q) tile-grid sweep, measured on the real pool.
//
// For each shape the tuner makes its model decision for the session's
// worker count, then every fixed candidate — FlatTree TT/TS,
// BinaryTree, Fibonacci, Greedy, PlasmaTree TS/TT (paper BS sweep) — is
// factorized best-of-reps on a persistent ThreadPool. The auto row reuses
// the measurement of whichever candidate the tuner chose, so the comparison
// is apples-to-apples.
//
// Invariants checked in-process (exit code 1 on violation):
//   * floor — the auto choice is never slower than the *worst* fixed tree
//     (5% slack). Vacuous when auto is one of the measured candidates, but
//     it is the check that bites in TILEDQR_TREE-forced mode, where the
//     "auto" row can be any tree.
//   * median — the auto choice beats the *median* fixed tree (10% slack).
//     This one can genuinely fail: a tuner that picks bad trees loses to
//     the middle of its own candidate field.
// Whether auto also matches the measured *best* per shape is recorded in
// the JSON (it should on the paper's headline shapes; on a noisy box
// near-ties can swap).
//
// Emits a table plus a JSON blob (TILEDQR_BENCH_JSON, default
// BENCH_autotune.json; set it to the empty string to disable) and, when
// TILEDQR_TUNER_TABLE is set, saves the tuning table produced by the run —
// CI uploads it as an artifact.
//
// Env knobs: TILEDQR_TUNE_NB (tile size, default 48), TILEDQR_TUNE_IB,
// TILEDQR_THREADS, TILEDQR_REPS, TILEDQR_QUICK (smaller grid),
// TILEDQR_TREE (forces the "auto" row — A/B escape hatch; the median check
// is skipped, a forced tree is allowed to be slow),
// TILEDQR_TUNE_ASSERT=0 (report violations but exit 0 — for smoke runs on
// noisy/instrumented hosts, e.g. the TSan CI job),
// TILEDQR_TUNER_TABLE (tuning-table JSON output path).
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <vector>

#include "bench_common.hpp"
#include "common/timer.hpp"
#include "core/tiled_qr.hpp"
#include "matrix/generate.hpp"
#include "runtime/thread_pool.hpp"
#include "tuner/tuner.hpp"

using namespace tiledqr;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

namespace {

struct ShapeResult {
  int p, q;
  TreeConfig auto_config;
  double auto_sec = 0.0;
  double best_sec = 0.0;
  double median_sec = 0.0;
  double worst_sec = 0.0;
  std::string best_name;
  bool auto_is_best = false;
};

/// The deterministic p x q-tile timing matrix (fixed seed, so every tree of
/// a shape factorizes identical data).
TileMatrix<double> timing_matrix(int p, int q, int nb) {
  auto dense = random_matrix<double>(std::int64_t(p) * nb, std::int64_t(q) * nb, 0x7A13);
  return TileMatrix<double>::from_dense(dense.view(), nb);
}

/// Wall seconds (best of `reps`) to factorize a copy of `base` with
/// `config` on the whole pool: plan through `cache`, CriticalPath keys from
/// the cached ranks. Every config of a shape times the same `base`, so the
/// O(p q nb^2) generation cost is paid once.
double measure_tree_seconds(const TreeConfig& config, const TileMatrix<double>& base, int ib,
                            core::PlanCache& cache, runtime::ThreadPool& pool, int reps) {
  const int p = base.mt();
  const int q = base.nt();
  const int nb = base.nb();
  auto plan = cache.get(p, q, config);
  ib = std::min(ib, nb);

  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, reps); ++r) {
    TileMatrix<double> a = base;
    core::TStore<double> t(p, q, ib, nb);
    core::TStore<double> t2(p, q, ib, nb);
    WallTimer timer;
    pool.run(
        plan->graph,
        [&](std::int32_t idx) {
          core::run_task_kernels(plan->graph.tasks[size_t(idx)], a, t, t2, ib);
        },
        runtime::SchedulePriority::CriticalPath, 0, &plan->ranks);
    best = std::min(best, timer.seconds());
  }
  return best;
}

}  // namespace

int main() {
  bench::Knobs knobs;
  bench::banner("Autotune: model-selected tree vs fixed trees, measured", knobs);
  const int nb = int(env_long("TILEDQR_TUNE_NB", 48));
  const int ib = std::min(int(env_long("TILEDQR_TUNE_IB", 16)), nb);
  const int reps = std::max(1, knobs.reps);

  std::vector<std::pair<int, int>> shapes{{4, 4}, {8, 8}, {16, 4}, {32, 4}, {8, 2}, {12, 12}};
  if (knobs.quick) shapes = {{4, 4}, {8, 8}, {16, 4}};

  runtime::ThreadPool pool(knobs.threads);
  core::PlanCache cache;
  tuner::Tuner tuner;  // sc11 profile

  std::printf("nb = %d, ib = %d, pool = %d workers, reps = %d, profile = %s\n\n", nb, ib,
              pool.size(), reps, tuner.config().profile.id.c_str());
  const bool forced_mode = tuner::forced_tree_from_env(4, 4).has_value();
  const bool assert_checks = env_flag("TILEDQR_TUNE_ASSERT", true);
  if (forced_mode)
    std::printf("NOTE: TILEDQR_TREE forces the auto row — median check skipped\n\n");

  TextTable t("auto-selected tree vs fixed trees (wall seconds, best of reps)");
  t.set_header({"p x q", "auto (tree)", "auto s", "best fixed (tree)", "best s", "median s",
                "worst s", "auto/best"});

  std::vector<ShapeResult> results;
  bool floor_ok = true;
  for (auto [p, q] : shapes) {
    // The same enumeration the tuner ranks — shared so the bench's fixed
    // field cannot drift from what the tuner actually considers.
    std::vector<TreeConfig> fixed = tuner::candidate_configs(p, q);
    TreeConfig auto_config = tuner.choose(p, q, pool.size(), cache);

    // One timing matrix per shape: every config times the same data.
    const TileMatrix<double> base = timing_matrix(p, q, nb);
    ShapeResult r{p, q, auto_config};
    r.best_sec = -1.0;
    double auto_sec = -1.0;
    std::vector<double> seconds;
    for (const TreeConfig& c : fixed) {
      double sec = measure_tree_seconds(c, base, ib, cache, pool, reps);
      seconds.push_back(sec);
      if (c == auto_config) auto_sec = sec;
      if (r.best_sec < 0.0 || sec < r.best_sec) {
        r.best_sec = sec;
        r.best_name = c.name();
      }
      r.worst_sec = std::max(r.worst_sec, sec);
    }
    std::nth_element(seconds.begin(), seconds.begin() + long(seconds.size()) / 2,
                     seconds.end());
    r.median_sec = seconds[seconds.size() / 2];
    // A forced (TILEDQR_TREE) config can fall outside the fixed set.
    if (auto_sec < 0.0)
      auto_sec = measure_tree_seconds(auto_config, base, ib, cache, pool, reps);
    r.auto_sec = auto_sec;
    r.auto_is_best = auto_config.name() == r.best_name;

    // Floor: auto must never lose to the worst fixed tree (bites in forced
    // mode). Median: auto must beat the middle of its own candidate field —
    // the check a broken tuner actually fails.
    if (r.auto_sec > r.worst_sec * 1.05) {
      std::printf("FLOOR VIOLATION: %dx%d auto %s %.6fs > worst fixed %.6fs\n", p, q,
                  auto_config.name().c_str(), r.auto_sec, r.worst_sec);
      floor_ok = false;
    }
    if (!forced_mode && r.auto_sec > r.median_sec * 1.10) {
      std::printf("MEDIAN VIOLATION: %dx%d auto %s %.6fs > median fixed %.6fs\n", p, q,
                  auto_config.name().c_str(), r.auto_sec, r.median_sec);
      floor_ok = false;
    }

    t.add_row({stringf("%d x %d", p, q), auto_config.name(), stringf("%.5f", r.auto_sec),
               r.best_name, stringf("%.5f", r.best_sec), stringf("%.5f", r.median_sec),
               stringf("%.5f", r.worst_sec), stringf("%.2f", r.auto_sec / r.best_sec)});
    results.push_back(std::move(r));
  }
  bench::emit(t, "bench_autotune", knobs);

  auto tuning_stats = tuner.stats();
  std::printf("tuner: %ld model decisions, %ld table hits\n", tuning_stats.misses,
              tuning_stats.hits);

  if (auto table_path = env_string("TILEDQR_TUNER_TABLE")) {
    tuner.table().save(*table_path);
    std::printf("(tuning table written to %s)\n", table_path->c_str());
  }

  // Raw getenv, not env_string: an explicitly empty TILEDQR_BENCH_JSON
  // means "no JSON output" (env_string would treat it as unset and fall
  // back to the default path — clobbering the checked-in baseline).
  const char* json_env = std::getenv("TILEDQR_BENCH_JSON");
  const std::string json_path = json_env ? std::string(json_env) : "BENCH_autotune.json";
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    json << "{\n";
    json << stringf("  \"bench\": \"autotune\",\n  \"nb\": %d,\n  \"ib\": %d,\n"
                    "  \"threads\": %d,\n  \"reps\": %d,\n  \"profile\": \"%s\",\n",
                    nb, ib, pool.size(), reps, tuner.config().profile.id.c_str());
    json << "  \"shapes\": [";
    for (size_t i = 0; i < results.size(); ++i) {
      const ShapeResult& r = results[i];
      json << (i == 0 ? "\n" : ",\n");
      json << stringf(
          "    {\"p\": %d, \"q\": %d, \"auto\": \"%s\", \"auto_sec\": %.6f, "
          "\"best\": \"%s\", \"best_sec\": %.6f, \"median_sec\": %.6f, \"worst_sec\": %.6f, "
          "\"auto_matches_best\": %s}",
          r.p, r.q, r.auto_config.name().c_str(), r.auto_sec, r.best_name.c_str(), r.best_sec,
          r.median_sec, r.worst_sec, r.auto_is_best ? "true" : "false");
    }
    json << stringf("\n  ],\n  \"checks_ok\": %s\n}\n", floor_ok ? "true" : "false");
    json.flush();
    if (!json.good()) {
      // An unwritable baseline path must fail loudly — a silent no-op here
      // leaves the operator believing a baseline was recorded.
      std::printf("ERROR: failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("(json written to %s)\n", json_path.c_str());
  }
  if (!floor_ok && !assert_checks)
    std::printf("violations reported but not enforced (TILEDQR_TUNE_ASSERT=0)\n");
  return floor_ok || !assert_checks ? 0 : 1;
}
