// Ablation: thread scaling. Measured GFLOP/s vs worker count, against the
// roofline prediction gamma_seq * T / max(T/P, cp) and the bounded-processor
// list-scheduling simulation (which accounts for packing losses the roofline
// ignores). A second simulated column weights the DAG with this machine's
// measured kernel seconds (as the tuner's model can) instead of Table-1
// units.
#include "bench_common.hpp"
#include "core/experiment.hpp"
#include "perf/kernel_bench.hpp"
#include "sim/bounded.hpp"
#include "sim/critical_path.hpp"
#include "trees/generators.hpp"

using namespace tiledqr;

int main() {
  bench::Knobs knobs;
  bench::banner("Ablation: thread scaling vs roofline and bounded simulation", knobs);
  const int p = knobs.quick ? 16 : std::min(knobs.p, 24);
  const int q = knobs.quick ? 4 : 8;

  double gamma = core::measure_gamma_seq<double>(knobs.nb, std::min(knobs.ib, knobs.nb));
  auto plan = core::make_plan(p, q, trees::TreeConfig{});
  long total = plan.graph.total_weight();
  std::printf("grid %d x %d, nb = %d, gamma_seq = %.3f GFLOP/s, cp = %ld, T = %ld\n\n", p, q,
              knobs.nb, gamma, plan.critical_path, total);

  // Measured per-kernel seconds for the weighted simulation column.
  auto kernel_sec = perf::measure_kernel_seconds<double>(knobs.nb, std::min(knobs.ib, knobs.nb),
                                                         perf::CacheMode::InCache, 5);
  const double flops_per_unit = double(knobs.nb) * double(knobs.nb) * double(knobs.nb) / 3.0;

  TextTable t("scaling of the Greedy factorization (double)");
  t.set_header({"threads", "GFLOP/s", "roofline", "bounded-sim", "sim util", "weighted-sim",
                "wsim util"});
  int maxt = default_thread_count();
  for (int threads : {1, 2, 4, 8, 16, 32}) {
    if (threads > maxt && threads / 2 >= maxt) break;
    core::RunConfig cfg;
    cfg.p = p;
    cfg.q = q;
    cfg.nb = knobs.nb;
    cfg.ib = std::min(knobs.ib, knobs.nb);
    cfg.threads = threads;
    cfg.reps = knobs.reps;
    auto rec = core::run_factorization<double>(cfg);
    double roof = core::predicted_gflops(gamma, p, q, plan.critical_path, threads);
    auto bounded = sim::simulate_bounded(plan.graph, threads);
    double sim_gflops = gamma * double(total) / double(bounded.makespan);
    // Weighted simulation: makespan in real seconds, so the predicted rate is
    // total flops over the simulated schedule length.
    auto weighted = sim::simulate_bounded_weighted(plan.graph, threads, kernel_sec,
                                                   sim::SimPriority::CriticalPath);
    double wsim_gflops = double(total) * flops_per_unit / weighted.makespan * 1e-9;
    t.add_row({std::to_string(threads), stringf("%.3f", rec.gflops), stringf("%.3f", roof),
               stringf("%.3f", sim_gflops), stringf("%.3f", bounded.utilization),
               stringf("%.3f", wsim_gflops), stringf("%.3f", weighted.utilization)});
  }
  bench::emit(t, "ablation_scaling", knobs);
  return 0;
}
