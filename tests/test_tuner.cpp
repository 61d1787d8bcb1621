// Tests for the tree autotuner: the TuningTable's JSON round-trip, the
// model's agreement with the paper's Section 5 findings (Greedy /
// Fibonacci on tall grids, TS-family flat/plasma trees on square ones), the
// TILEDQR_TREE override, and the session's one tree rule: submit with a
// disengaged tree is bitwise the same as submitting the tuner's pick.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <tuple>
#include <utility>

#include "core/qr_session.hpp"
#include "matrix/generate.hpp"
#include "obs/kernel_profile.hpp"
#include "tuner/tuner.hpp"

namespace tiledqr {
namespace {

using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;
using tuner::TunedDecision;
using tuner::Tuner;
using tuner::TunerConfig;
using tuner::TuningTable;

/// RAII environment-variable override (tests run single-threaded).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value())
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TunedDecision sample_decision(TreeKind kind, KernelFamily family, int bs, double makespan) {
  TunedDecision d;
  d.config = TreeConfig{kind, family, bs, 1};
  d.model_makespan = makespan;
  return d;
}

TEST(TuningTable, LookupCountsHitsAndMisses) {
  TuningTable table;
  EXPECT_FALSE(table.lookup(8, 4, 2, "sc11").has_value());
  auto d = sample_decision(TreeKind::Greedy, KernelFamily::TT, 1, 100.0);
  table.record(8, 4, 2, "sc11", d);
  auto hit = table.lookup(8, 4, 2, "sc11");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, d);
  // Same shape under a different profile or worker count is a distinct key.
  EXPECT_FALSE(table.lookup(8, 4, 2, "table1").has_value());
  EXPECT_FALSE(table.lookup(8, 4, 3, "sc11").has_value());
  auto stats = table.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 3);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TuningTable, JsonRoundTripWithStatsIntact) {
  TuningTable table;
  (void)table.lookup(8, 4, 2, "sc11");  // a miss, to have nonzero stats
  table.record(8, 4, 2, "sc11",
               sample_decision(TreeKind::Greedy, KernelFamily::TT, 1, 123.25));
  table.record(6, 6, 4, "sc11",
               sample_decision(TreeKind::FlatTree, KernelFamily::TS, 1, 88.5));
  table.record(20, 5, 8, "measured-f64(nb=64,ib=32,in)",
               sample_decision(TreeKind::PlasmaTree, KernelFamily::TS, 5, 41.0));
  (void)table.lookup(8, 4, 2, "sc11");  // a hit

  auto before = table.stats();
  EXPECT_EQ(before.hits, 1);
  EXPECT_EQ(before.misses, 1);
  EXPECT_EQ(before.entries, 3u);

  TuningTable loaded = TuningTable::from_json(table.to_json());
  auto after = loaded.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.entries, before.entries);

  for (auto [p, q, w, profile] :
       {std::tuple{8, 4, 2, "sc11"}, std::tuple{6, 6, 4, "sc11"},
        std::tuple{20, 5, 8, "measured-f64(nb=64,ib=32,in)"}}) {
    auto original = table.lookup(p, q, w, profile);
    auto restored = loaded.lookup(p, q, w, profile);
    ASSERT_TRUE(original.has_value() && restored.has_value()) << p << "x" << q;
    EXPECT_EQ(*original, *restored) << p << "x" << q;
  }
}

TEST(TuningTable, SaveLoadFile) {
  std::string path = testing::TempDir() + "tiledqr_tuning_table_test.json";
  TuningTable table;
  table.record(10, 2, 4, "table1",
               sample_decision(TreeKind::Fibonacci, KernelFamily::TT, 1, 64.0));
  table.save(path);
  TuningTable loaded = TuningTable::load(path);
  auto hit = loaded.lookup(10, 2, 4, "table1");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->config.kind, TreeKind::Fibonacci);
  std::remove(path.c_str());
  // Missing file: load_or_empty yields a fresh table, load throws.
  EXPECT_EQ(TuningTable::load_or_empty(path).stats().entries, 0u);
  EXPECT_THROW((void)TuningTable::load(path), Error);
}

TEST(TuningTable, EscapesRoundTripInProfileIds) {
  TuningTable table;
  std::string hostile = "quote\" slash\\ nl\n tab\t ctrl\x01 done";
  table.record(3, 2, 1, hostile,
               sample_decision(TreeKind::Greedy, KernelFamily::TT, 1, 10.0));
  std::string json = table.to_json();
  // Raw control characters are illegal in JSON strings — the writer must
  // \u-escape them so external tools accept the file.
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  TuningTable loaded = TuningTable::from_json(json);
  EXPECT_TRUE(loaded.lookup(3, 2, 1, hostile).has_value());
}

TEST(TuningTable, RecordKeepsFirstDecision) {
  TuningTable table;
  auto first = sample_decision(TreeKind::Greedy, KernelFamily::TT, 1, 10.0);
  auto second = sample_decision(TreeKind::FlatTree, KernelFamily::TS, 1, 20.0);
  EXPECT_EQ(table.record(4, 4, 2, "sc11", first), first);
  // Later records for the same key are ignored and get the stored entry back.
  EXPECT_EQ(table.record(4, 4, 2, "sc11", second), first);
  auto stats = table.stats();
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TuningTable, MalformedJsonThrows) {
  EXPECT_THROW((void)TuningTable::from_json("{"), Error);
  EXPECT_THROW((void)TuningTable::from_json("[]"), Error);
  // Deep nesting must throw, not overflow the parser's stack.
  EXPECT_THROW((void)TuningTable::from_json(std::string(100000, '[')), Error);
  EXPECT_THROW((void)TuningTable::from_json("{\"version\": 2, \"stats\": {\"hits\": 0, "
                                            "\"misses\": 0, \"refinements\": 0}, "
                                            "\"entries\": []}"),
               Error);
  EXPECT_THROW(
      (void)TuningTable::from_json(
          "{\"version\": 1, \"stats\": {\"hits\": 0, \"misses\": 0, \"refinements\": 0}, "
          "\"entries\": [{\"p\": 2, \"q\": 2, \"workers\": 1, \"profile\": \"x\", "
          "\"kind\": \"NoSuchTree\", \"family\": \"TT\", \"bs\": 1, \"grasap_k\": 1, "
          "\"model_makespan\": 0, \"measured_seconds\": -1, \"refined\": false}]}"),
      Error);
  // A malformed number must fail loudly, not load as a truncated value.
  EXPECT_THROW((void)TuningTable::from_json("{\"version\": 1.2.3, \"stats\": {\"hits\": 0, "
                                            "\"misses\": 0, \"refinements\": 0}, "
                                            "\"entries\": []}"),
               Error);
  // Out-of-range values fail at load, not at request time.
  EXPECT_THROW(
      (void)TuningTable::from_json(
          "{\"version\": 1, \"stats\": {\"hits\": 0, \"misses\": 0, \"refinements\": 0}, "
          "\"entries\": [{\"p\": 2, \"q\": 2, \"workers\": 1, \"profile\": \"x\", "
          "\"kind\": \"PlasmaTree\", \"family\": \"TS\", \"bs\": 0, \"grasap_k\": 1, "
          "\"model_makespan\": 0, \"measured_seconds\": -1, \"refined\": false}]}"),
      Error);
}

TEST(TuningTable, LoadsDocumentsWithRetiredTimingFields) {
  // Tables written when the tuner still timed candidates on the pool carry
  // "measured_seconds" and "refined" per entry and a "refinements" counter.
  // They load; new output omits those fields.
  const std::string old_doc =
      "{\"version\": 1, \"stats\": {\"hits\": 3, \"misses\": 2, \"refinements\": 1}, "
      "\"entries\": [{\"p\": 6, \"q\": 3, \"workers\": 2, \"profile\": \"sc11\", "
      "\"factor\": \"QR\", \"kind\": \"FlatTree\", \"family\": \"TS\", \"bs\": 1, "
      "\"grasap_k\": 1, \"model_makespan\": 88.5, \"measured_seconds\": 0.0125, "
      "\"refined\": true}]}";
  TuningTable loaded = TuningTable::from_json(old_doc);
  auto stats = loaded.stats();
  EXPECT_EQ(stats.hits, 3);
  EXPECT_EQ(stats.misses, 2);
  EXPECT_EQ(stats.entries, 1u);
  auto hit = loaded.lookup(6, 3, 2, "sc11");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, sample_decision(TreeKind::FlatTree, KernelFamily::TS, 1, 88.5));

  const std::string json = loaded.to_json();
  for (const char* field : {"measured_seconds", "refined", "refinements"})
    EXPECT_EQ(json.find(field), std::string::npos) << field;
}

TEST(Tuner, ModelPicksGreedyOrFibonacciForTallShapes) {
  Tuner tuner;  // sc11 profile, model-only
  core::PlanCache cache;
  for (auto [p, q, workers] : {std::tuple{16, 4, 16}, std::tuple{32, 4, 16},
                               std::tuple{32, 4, 48}, std::tuple{64, 4, 48}}) {
    ASSERT_GE(p, 4 * q);
    auto d = tuner.decide(p, q, workers, cache);
    EXPECT_TRUE(d.config.kind == TreeKind::Greedy || d.config.kind == TreeKind::Fibonacci)
        << p << "x" << q << " on " << workers << " -> " << d.config.name();
    EXPECT_GT(d.model_makespan, 0.0);
  }
}

TEST(Tuner, ModelPicksTsFlatOrPlasmaForSquareShapes) {
  Tuner tuner;
  core::PlanCache cache;
  for (auto [p, workers] : {std::pair{8, 8}, std::pair{16, 16}, std::pair{30, 48}}) {
    auto d = tuner.decide(p, p, workers, cache);
    EXPECT_TRUE(d.config.kind == TreeKind::FlatTree || d.config.kind == TreeKind::PlasmaTree)
        << p << "x" << p << " on " << workers << " -> " << d.config.name();
    EXPECT_EQ(d.config.family, KernelFamily::TS)
        << p << "x" << p << " on " << workers << " -> " << d.config.name();
  }
}

TEST(Tuner, RankingIsSortedAndCoversCandidateSet) {
  Tuner tuner;
  core::PlanCache cache;
  auto ranked = tuner.rank_candidates(12, 4, 8, cache);
  ASSERT_EQ(ranked.size(), 7u);  // Greedy, Fib, Binary, Flat x2, Plasma x2
  for (size_t i = 1; i < ranked.size(); ++i)
    EXPECT_LE(ranked[i - 1].model_makespan, ranked[i].model_makespan);
  // Candidate plans went through the shared cache.
  EXPECT_GE(cache.stats().entries, ranked.size() - 1);  // plasma may collide with flat/binary
}

TEST(Tuner, SecondDecisionIsATableHit) {
  Tuner tuner;
  core::PlanCache cache;
  auto first = tuner.decide(12, 3, 4, cache);
  auto second = tuner.decide(12, 3, 4, cache);
  EXPECT_EQ(first, second);
  auto stats = tuner.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(Tuner, EnvOverrideForcesTree) {
  core::PlanCache cache;
  {
    ScopedEnv env("TILEDQR_TREE", "binary");
    Tuner tuner;
    auto d = tuner.decide(16, 4, 8, cache);
    EXPECT_EQ(d.config.kind, TreeKind::BinaryTree);
    // Overrides bypass the table entirely.
    EXPECT_EQ(tuner.stats().entries, 0u);
  }
  {
    ScopedEnv env("TILEDQR_TREE", "plasma");
    Tuner tuner;
    auto d = tuner.decide(16, 4, 8, cache);
    EXPECT_EQ(d.config.kind, TreeKind::PlasmaTree);
    EXPECT_EQ(d.config.family, KernelFamily::TS);
    EXPECT_EQ(d.config.bs, core::best_plasma_bs(16, 4, KernelFamily::TS).bs);
  }
  {
    ScopedEnv env("TILEDQR_TREE", "flat-tt");
    Tuner tuner;
    auto d = tuner.decide(16, 4, 8, cache);
    EXPECT_EQ(d.config.kind, TreeKind::FlatTree);
    EXPECT_EQ(d.config.family, KernelFamily::TT);
  }
  {
    // "auto" (and unknown values) fall through to the model.
    ScopedEnv env("TILEDQR_TREE", "auto");
    Tuner tuner;
    auto d = tuner.decide(32, 4, 48, cache);
    EXPECT_TRUE(d.config.kind == TreeKind::Greedy || d.config.kind == TreeKind::Fibonacci);
    EXPECT_EQ(tuner.stats().misses, 1);
  }
}

TEST(Tuner, AcceptsLiveProfileAndRoundTripsThroughTable) {
  // A WeightProfile built from live trace histograms (the observability
  // layer's kernel profiler) drives the tuner like any synthetic profile,
  // and its decisions persist under the "live" id.
  obs::KernelProfiler prof;
  // Plausible per-QR-kernel timings: updates cost more than panels, TS
  // kernels run at higher rate than TT (the paper's §5 asymmetry). The
  // profiler tracks the LQ kinds in separate histograms, so feed each LQ
  // kind the same timing as its QR dual: the folded 6-wide profile must
  // come out at exactly those means.
  const std::int64_t ns[kernels::kNumQrKernelKinds] = {40000, 55000, 52000,
                                                       90000, 60000, 110000};
  for (int kind = 0; kind < obs::KernelProfiler::kKinds; ++kind) {
    const int slot = int(kernels::qr_dual(static_cast<kernels::KernelKind>(kind)));
    for (int s = 0; s < 32; ++s) prof.record(std::uint8_t(kind), ns[slot]);
  }

  perf::WeightProfile live = prof.live_profile();
  EXPECT_EQ(live.id, "live");
  for (int slot = 0; slot < kernels::kNumQrKernelKinds; ++slot)
    EXPECT_NEAR(live.weight[std::size_t(slot)], double(ns[slot]) / 1e9, 1e-12);

  TunerConfig config;
  config.profile = live;
  Tuner tuner(std::move(config));
  core::PlanCache cache;
  auto d = tuner.decide(12, 3, 4, cache);
  EXPECT_GT(d.model_makespan, 0.0);

  // The decision round-trips through the TuningTable JSON under the live id.
  TuningTable loaded = TuningTable::from_json(tuner.table().to_json());
  auto hit = loaded.lookup(12, 3, 4, "live");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, d);
  // ...and a tuner resuming from that table serves it as a hit.
  Tuner resumed(TunerConfig{.profile = live});
  resumed.table() = std::move(loaded);
  EXPECT_EQ(resumed.decide(12, 3, 4, cache), d);
  // Two hits: the direct lookup() above and the resumed decide().
  EXPECT_EQ(resumed.stats().hits, 2);
}

TEST(Tuner, TablePersistsAcrossTunerLifetimes) {
  std::string path = testing::TempDir() + "tiledqr_tuner_persist_test.json";
  std::remove(path.c_str());
  TunerConfig config;
  config.table_path = path;
  core::PlanCache cache;
  TunedDecision first;
  {
    Tuner tuner(config);
    first = tuner.decide(24, 4, 8, cache);
    EXPECT_EQ(tuner.stats().misses, 1);
  }  // destructor saves
  {
    Tuner tuner(config);  // constructor loads
    auto d = tuner.decide(24, 4, 8, cache);
    EXPECT_EQ(d, first);
    auto stats = tuner.stats();
    EXPECT_EQ(stats.hits, 1);   // served from the loaded table...
    EXPECT_EQ(stats.misses, 1);  // ...whose persisted miss counter survived
  }
  std::remove(path.c_str());
}

TEST(QrSessionTree, DisengagedTreeSubmitMatchesTheTunedPickBitwise) {
  // submit() resolves a disengaged tree like every other session path: the
  // tuner's pick for the input's reduction grid at the request's worker cap.
  core::QrSession session(core::QrSession::Config{.threads = 3});
  core::Options tuned;  // tree disengaged
  tuned.nb = 16;
  tuned.ib = 8;
  struct Input {
    std::int64_t m, n;
    int nb;
    bool pretiled;  // pre-tiled inputs keep their own nb, whatever tuned.nb says
  };
  for (const Input& in : {Input{128, 32, 16, false}, Input{48, 160, 16, false},
                          Input{60, 20, 10, true}}) {
    auto a = random_matrix<double>(in.m, in.n, 0xA0 + unsigned(in.m));
    auto tiles = TileMatrix<double>::from_dense(a.view(), in.nb);
    core::Options pinned = tuned;
    pinned.tree = session.choose_tree_for(tiles);

    auto got = in.pretiled ? session.submit(TileMatrix<double>(tiles), tuned).get()
                           : session.submit(ConstMatrixView<double>(a.view()), tuned).get();
    auto want = session.submit(std::move(tiles), pinned).get();
    EXPECT_EQ(got.kind(), in.m < in.n ? kernels::FactorKind::LQ : kernels::FactorKind::QR);
    EXPECT_EQ(got.factors().nb(), in.nb);
    EXPECT_EQ(got.options().tree, pinned.tree) << in.m << "x" << in.n;

    auto lhs = got.factors().to_dense();
    auto rhs = want.factors().to_dense();
    ASSERT_EQ(lhs.rows(), rhs.rows());
    ASSERT_EQ(lhs.cols(), rhs.cols());
    for (std::int64_t i = 0; i < lhs.rows(); ++i)
      for (std::int64_t j = 0; j < lhs.cols(); ++j)
        ASSERT_EQ(lhs(i, j), rhs(i, j)) << in.m << "x" << in.n << " @ " << i << "," << j;
  }
  // One decision per shape; choose_tree_for above made it, submit hit it.
  auto stats = session.tuning_stats();
  EXPECT_EQ(stats.misses, 3);
  EXPECT_GE(stats.hits, 3);
}

TEST(QrSessionTree, EnvOverrideGovernsDisengagedSubmit) {
  core::QrSession session(core::QrSession::Config{.threads = 4});
  core::Options tuned;  // tree disengaged
  tuned.nb = 16;
  tuned.ib = 8;
  auto a = random_matrix<double>(16 * 16, 2 * 16, 0xE7);
  const TreeConfig model_pick = session.choose_tree(16, 2);
  ASSERT_NE(model_pick.kind, TreeKind::FlatTree) << model_pick.name();

  ScopedEnv env("TILEDQR_TREE", "flat");
  auto qr = session.submit(ConstMatrixView<double>(a.view()), tuned).get();
  ASSERT_TRUE(qr.options().tree.has_value());
  EXPECT_EQ(qr.options().tree->kind, TreeKind::FlatTree);
  EXPECT_EQ(qr.options().tree->family, KernelFamily::TS);
}

}  // namespace
}  // namespace tiledqr
