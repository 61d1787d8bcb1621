#include "tuner/tuner.hpp"

#include <algorithm>
#include <cctype>

#include "common/env.hpp"
#include "common/error.hpp"
#include "core/plan.hpp"
#include "sim/bounded.hpp"

namespace tiledqr::tuner {

namespace {

using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

}  // namespace

std::optional<TreeConfig> forced_tree_from_env(int p, int q) {
  auto raw = env_string("TILEDQR_TREE");
  if (!raw) return std::nullopt;
  std::string v = *raw;
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });

  // Optional "-ts"/"-tt" family suffix; the bare names use PLASMA's
  // conventional family (TS for flat/plasma, TT elsewhere).
  std::optional<KernelFamily> family;
  if (v.size() > 3 && (v.ends_with("-ts") || v.ends_with("-tt"))) {
    family = v.ends_with("-ts") ? KernelFamily::TS : KernelFamily::TT;
    v.resize(v.size() - 3);
  }

  TreeConfig c;
  if (v == "flat") {
    c.kind = TreeKind::FlatTree;
    c.family = family.value_or(KernelFamily::TS);
  } else if (v == "binary") {
    c.kind = TreeKind::BinaryTree;
    c.family = family.value_or(KernelFamily::TT);
  } else if (v == "fibonacci") {
    c.kind = TreeKind::Fibonacci;
    c.family = family.value_or(KernelFamily::TT);
  } else if (v == "greedy") {
    c.kind = TreeKind::Greedy;
    c.family = family.value_or(KernelFamily::TT);
  } else if (v == "plasma") {
    c.kind = TreeKind::PlasmaTree;
    c.family = family.value_or(KernelFamily::TS);
    c.bs = core::best_plasma_bs(p, q, c.family).bs;
  } else {
    return std::nullopt;  // "auto" and anything unrecognized: tuner decides
  }
  return c;
}

Tuner::Tuner(TunerConfig config) : config_(std::move(config)) {
  if (!config_.table_path.empty()) table_ = TuningTable::load_or_empty(config_.table_path);
  metrics_source_ = obs::MetricsRegistry::global().register_source(
      obs::MetricsRegistry::global().unique_label("tuner"),
      [this](std::vector<obs::Sample>& out) {
        TuningTable::Stats s = table_.stats();
        out.push_back({"hits", double(s.hits)});
        out.push_back({"misses", double(s.misses)});
        out.push_back({"entries", double(s.entries)});
      });
}

Tuner::~Tuner() {
  if (config_.table_path.empty()) return;
  try {
    table_.save(config_.table_path);
  } catch (...) {
    // Destruction is best-effort; an unwritable path must not terminate.
  }
}

void Tuner::save() const {
  TILEDQR_CHECK(!config_.table_path.empty(), "Tuner::save: no table_path configured");
  table_.save(config_.table_path);
}

std::vector<TreeConfig> candidate_configs(int p, int q) {
  TILEDQR_CHECK(p >= 1 && q >= 1, "candidate_configs: bad tile-grid shape");
  std::vector<TreeConfig> configs;
  configs.push_back({TreeKind::Greedy, KernelFamily::TT, 1, 1});
  configs.push_back({TreeKind::Fibonacci, KernelFamily::TT, 1, 1});
  configs.push_back({TreeKind::BinaryTree, KernelFamily::TT, 1, 1});
  configs.push_back({TreeKind::FlatTree, KernelFamily::TT, 1, 1});
  configs.push_back({TreeKind::FlatTree, KernelFamily::TS, 1, 1});
  for (KernelFamily family : {KernelFamily::TT, KernelFamily::TS}) {
    int bs = core::best_plasma_bs(p, q, family).bs;
    // bs == 1 degenerates to BinaryTree and bs == p to FlatTree(family);
    // keep them anyway — the DAGs are distinct cache entries but the model
    // ranks them identically, and dropping them would special-case the sweep.
    configs.push_back({TreeKind::PlasmaTree, family, bs, 1});
  }
  return configs;
}

std::vector<Candidate> Tuner::rank_candidates(int p, int q, int workers,
                                              core::PlanCache& cache,
                                              kernels::FactorKind factor) const {
  TILEDQR_CHECK(workers >= 1, "Tuner: need at least one worker");
  std::vector<TreeConfig> configs = candidate_configs(p, q);

  std::vector<Candidate> ranked;
  ranked.reserve(configs.size());
  for (const TreeConfig& c : configs) {
    auto plan = cache.get(p, q, c, factor);
    auto sim = sim::simulate_bounded_weighted(plan->graph, workers, config_.profile.weight,
                                              sim::SimPriority::CriticalPath);
    ranked.push_back(Candidate{c, sim.makespan});
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const Candidate& a, const Candidate& b) {
    return a.model_makespan < b.model_makespan;
  });
  return ranked;
}

std::optional<TreeConfig> Tuner::forced_tree_cached(int p, int q) {
  auto raw = env_string("TILEDQR_TREE");
  if (!raw) return std::nullopt;
  std::lock_guard lock(forced_mu_);
  if (forced_env_ != *raw) {
    forced_memo_.clear();
    forced_env_ = *raw;
  }
  const long key = (long(p) << 24) ^ long(q);
  auto it = forced_memo_.find(key);
  if (it == forced_memo_.end())
    it = forced_memo_.emplace(key, forced_tree_from_env(p, q)).first;
  return it->second;
}

TunedDecision Tuner::decide(int p, int q, int workers, core::PlanCache& cache,
                            kernels::FactorKind factor) {
  // Env override: bypasses table and model entirely (A/B escape hatch). No
  // simulation and a memoized parse (forced_tree_cached), so the forced
  // path does no per-request work. The forced config depends only on the
  // reduction-grid shape, never on the factor kind.
  if (auto forced = forced_tree_cached(p, q)) {
    TunedDecision d;
    d.config = *forced;
    d.forced = true;
    return d;
  }

  if (auto hit = table_.lookup(p, q, workers, config_.profile.id, factor)) return *hit;

  const Candidate best = rank_candidates(p, q, workers, cache, factor).front();
  // The table arbitrates concurrent misses: whoever records first wins and
  // everyone returns the stored decision.
  return table_.record(p, q, workers, config_.profile.id,
                       TunedDecision{best.config, best.model_makespan}, factor);
}

}  // namespace tiledqr::tuner
