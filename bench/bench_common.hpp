// Shared plumbing for the bench harness: environment-tunable problem sizes,
// table emission (stdout + optional CSV next to the binary), the JSON host
// stamp, and the multicore scaling sweep.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "blas/simd/simd.hpp"
#include "common/env.hpp"
#include "common/stringf.hpp"
#include "common/table.hpp"
#include "runtime/thread_pool.hpp"

namespace tiledqr::bench {

/// Benchmark-wide knobs (paper values in comments). Defaults are scaled to
/// finish in seconds on a laptop-class container; export the env vars to run
/// at paper scale.
struct Knobs {
  int p = int(env_long("TILEDQR_P", 40));        // paper: 40
  int nb = int(env_long("TILEDQR_NB", 64));      // paper: 200
  int ib = int(env_long("TILEDQR_IB", 32));      // paper: 32
  int threads = int(env_long("TILEDQR_THREADS", 0));  // paper: 48 cores
  int reps = int(env_long("TILEDQR_REPS", 2));
  bool csv = env_flag("TILEDQR_CSV", false);
  bool quick = env_flag("TILEDQR_QUICK", false);
};

inline void emit(const TextTable& table, const std::string& csv_name, const Knobs& knobs) {
  table.print(std::cout);
  if (knobs.csv) {
    std::ofstream out(csv_name + ".csv");
    out << table.csv();
    std::printf("(csv written to %s.csv)\n\n", csv_name.c_str());
  }
}

inline void banner(const std::string& what, const Knobs& knobs) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("knobs: p=%d nb=%d ib=%d threads=%d reps=%d (override via TILEDQR_P/NB/IB/"
              "THREADS/REPS)\n\n",
              knobs.p, knobs.nb, knobs.ib,
              knobs.threads > 0 ? knobs.threads : default_thread_count(), knobs.reps);
}

/// The q sweep used by the paper's experimental section.
inline std::vector<int> experimental_q_values(int p, bool quick) {
  std::vector<int> qs{1, 2, 4, 5, 10, 20, 40};
  if (quick) qs = {1, 4, 10};
  std::vector<int> out;
  for (int q : qs)
    if (q <= p) out.push_back(q);
  return out;
}

/// The `"host"` member of a BENCH_*.json record: cores, active SIMD tier,
/// compiler, and the worker count the bench ran with.
inline std::string host_json(int bench_threads) {
  return stringf("  \"host\": {\"hardware_threads\": %u, \"bench_threads\": %d, "
                 "\"simd_tier\": \"%s\", \"compiler\": \"%s\"},\n",
                 std::thread::hardware_concurrency(), bench_threads,
                 blas::simd::tier_name(blas::simd::active_tier()), __VERSION__);
}

/// One point of a multicore scaling sweep: throughput on `threads` workers
/// plus the pool's steal-contention and locality counters for that run, so
/// every throughput point carries its scheduler evidence.
struct ScalingRow {
  int threads = 0;
  bool pinned = false;
  double per_sec = 0.0;
  double speedup_vs_1t = 0.0;  ///< against the sweep's first row
  runtime::ThreadPool::Stats pool;
};

/// Sweeps 1, 2, 4 and 8 workers — with TILEDQR_PIN off then on when
/// `pin_sweep`, else under the environment's TILEDQR_PIN — and prints one
/// table row per point. `run(threads)` builds a fresh session (TILEDQR_PIN
/// is read at pool construction) and returns {per_sec, pool stats}. Counts
/// above the host's cores are oversubscribed, recorded anyway so the curve
/// is honest about the host.
template <class Run>
std::vector<ScalingRow> scaling_sweep(const std::string& title, bool pin_sweep, Run run) {
  const std::optional<std::string> saved_pin = env_string("TILEDQR_PIN");
  std::vector<std::optional<bool>> pin_modes{std::nullopt};
  if (pin_sweep) pin_modes = {false, true};
  std::printf("multicore scaling (%s):\n", title.c_str());
  std::printf("  %7s %6s %10s %9s %8s %8s %8s %9s %9s %9s %9s\n", "threads", "pinned", "fact/s",
              "speedup", "stolen", "cas_ret", "empty", "home", "foreign", "st_p50us", "st_p95us");
  std::vector<ScalingRow> rows;
  for (int t : {1, 2, 4, 8}) {
    for (const auto& pin : pin_modes) {
      if (pin) setenv("TILEDQR_PIN", *pin ? "1" : "0", 1);
      auto [per_sec, pool] = run(t);
      ScalingRow row{t, env_flag("TILEDQR_PIN", false), per_sec, 0.0, pool};
      row.speedup_vs_1t = row.per_sec / (rows.empty() ? row.per_sec : rows.front().per_sec);
      const auto& s = row.pool;
      std::printf("  %7d %6s %10.1f %8.2fx %8ld %8ld %8ld %9ld %9ld %9.1f %9.1f\n", t,
                  row.pinned ? "yes" : "no", row.per_sec, row.speedup_vs_1t, s.tasks_stolen,
                  s.steal_cas_retries, s.empty_steal_probes, s.tasks_home, s.tasks_foreign,
                  double(s.steal_latency_quantile_ns(0.50)) / 1e3,
                  double(s.steal_latency_quantile_ns(0.95)) / 1e3);
      rows.push_back(row);
    }
  }
  saved_pin ? setenv("TILEDQR_PIN", saved_pin->c_str(), 1) : unsetenv("TILEDQR_PIN");
  std::printf("\n");
  return rows;
}

/// The `"multicore_scaling"` member of a BENCH_*.json record.
inline std::string scaling_json(const std::vector<ScalingRow>& rows) {
  std::string out = "  \"multicore_scaling\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    const auto& s = r.pool;
    out += stringf("%s\n    {\"threads\": %d, \"pinned\": %s, \"per_sec\": %.3f, "
                   "\"speedup_vs_1t\": %.3f, \"tasks_stolen\": %ld, "
                   "\"steal_cas_retries\": %ld, \"empty_steal_probes\": %ld, "
                   "\"tasks_home\": %ld, \"tasks_foreign\": %ld, "
                   "\"steal_latency_p50_ns\": %lld, \"steal_latency_p95_ns\": %lld}",
                   i ? "," : "", r.threads, r.pinned ? "true" : "false", r.per_sec,
                   r.speedup_vs_1t, s.tasks_stolen, s.steal_cas_retries, s.empty_steal_probes,
                   s.tasks_home, s.tasks_foreign, (long long)s.steal_latency_quantile_ns(0.50),
                   (long long)s.steal_latency_quantile_ns(0.95));
  }
  return out + "],\n";
}

}  // namespace tiledqr::bench
