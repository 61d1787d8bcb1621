// Tests for the memoizing plan cache: identity semantics (same shape ->
// same Plan object, different TreeConfig -> distinct), stats accounting,
// concurrency, and the wiring into TiledQr<T>::factorize.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/plan_cache.hpp"
#include "core/tiled_qr.hpp"
#include "matrix/generate.hpp"

namespace tiledqr {
namespace {

using core::PlanCache;
using trees::KernelFamily;
using trees::TreeConfig;
using trees::TreeKind;

TEST(PlanCache, RepeatedShapeReturnsSameObject) {
  PlanCache cache;
  TreeConfig greedy{};
  auto a = cache.get(10, 4, greedy);
  auto b = cache.get(10, 4, greedy);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->graph.p, 10);
  EXPECT_EQ(a->graph.q, 4);
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(PlanCache, DistinctShapesAndConfigsGetDistinctPlans) {
  PlanCache cache;
  TreeConfig greedy{TreeKind::Greedy, KernelFamily::TT, 1, 0};
  TreeConfig flat{TreeKind::FlatTree, KernelFamily::TT, 1, 0};
  TreeConfig greedy_ts{TreeKind::Greedy, KernelFamily::TS, 1, 0};
  TreeConfig plasma3{TreeKind::PlasmaTree, KernelFamily::TT, 3, 0};
  TreeConfig plasma5{TreeKind::PlasmaTree, KernelFamily::TT, 5, 0};

  auto base = cache.get(10, 4, greedy);
  EXPECT_NE(base.get(), cache.get(12, 4, greedy).get());  // different p
  EXPECT_NE(base.get(), cache.get(10, 5, greedy).get());  // different q
  EXPECT_NE(base.get(), cache.get(10, 4, flat).get());    // different kind
  EXPECT_NE(base.get(), cache.get(10, 4, greedy_ts).get());  // different family
  EXPECT_NE(cache.get(10, 4, plasma3).get(), cache.get(10, 4, plasma5).get());  // different BS
  EXPECT_EQ(cache.stats().entries, 7u);
  EXPECT_EQ(cache.stats().misses, 7);
}

TEST(PlanCache, DynamicTreesAreCacheableAndDeterministic) {
  PlanCache cache;
  TreeConfig asap{TreeKind::Asap, KernelFamily::TT, 1, 0};
  auto a = cache.get(9, 3, asap);
  auto b = cache.get(9, 3, asap);
  EXPECT_EQ(a.get(), b.get());
  // The cached plan matches a fresh one structurally (deterministic sim).
  auto fresh = core::make_plan(9, 3, asap);
  EXPECT_EQ(a->critical_path, fresh.critical_path);
  EXPECT_EQ(a->list, fresh.list);
  EXPECT_EQ(a->graph.tasks.size(), fresh.graph.tasks.size());
}

TEST(PlanCache, ClearResetsEntriesAndStats) {
  PlanCache cache;
  (void)cache.get(6, 3, TreeConfig{});
  (void)cache.get(6, 3, TreeConfig{});
  cache.clear();
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0);
  EXPECT_EQ(stats.misses, 0);
  (void)cache.get(6, 3, TreeConfig{});
  EXPECT_EQ(cache.stats().misses, 1);
}

TEST(PlanCache, ConcurrentGetsConvergeToOnePlanPerShape) {
  PlanCache cache;
  const TreeConfig shapes[] = {
      TreeConfig{TreeKind::Greedy, KernelFamily::TT, 1, 0},
      TreeConfig{TreeKind::FlatTree, KernelFamily::TS, 1, 0},
      TreeConfig{TreeKind::BinaryTree, KernelFamily::TT, 1, 0},
  };
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int c = 0; c < 4; ++c) {
    threads.emplace_back([&] {
      for (int round = 0; round < 50; ++round) {
        const auto& config = shapes[size_t(round) % 3];
        auto p1 = cache.get(8, 4, config);
        auto p2 = cache.get(8, 4, config);
        if (p1.get() != p2.get()) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Concurrent first misses may each plan, but exactly one entry per shape
  // survives and is handed out forever after.
  EXPECT_EQ(cache.stats().entries, 3u);
}

TEST(PlanCache, ByteBudgetEvictsLeastRecentlyUsed) {
  PlanCache cache;
  TreeConfig greedy{};
  TreeConfig flat{TreeKind::FlatTree, KernelFamily::TT, 1, 0};
  (void)cache.get(8, 4, greedy);   // A
  (void)cache.get(10, 4, flat);    // B
  auto both = cache.stats();
  ASSERT_EQ(both.entries, 2u);
  ASSERT_GT(both.bytes, 0u);
  (void)cache.get(8, 4, greedy);  // touch A: B becomes least recently used

  cache.set_byte_budget(both.bytes - 1);  // forces exactly one eviction
  auto after = cache.stats();
  EXPECT_EQ(after.entries, 1u);
  EXPECT_EQ(after.evictions, 1);
  EXPECT_LT(after.bytes, both.bytes);

  // A (recently touched) survived; B (LRU) was the victim.
  long hits_before = after.hits;
  (void)cache.get(8, 4, greedy);
  EXPECT_EQ(cache.stats().hits, hits_before + 1);
  long misses_before = cache.stats().misses;
  (void)cache.get(10, 4, flat);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

TEST(PlanCache, EvictionKeepsTheNewestEntryEvenWhenOverBudget) {
  PlanCache cache(/*byte_budget=*/1);  // absurdly small: everything oversized
  TreeConfig greedy{};
  auto a = cache.get(8, 4, greedy);
  EXPECT_EQ(cache.stats().entries, 1u);  // newest entry never self-evicts
  auto b = cache.get(8, 4, greedy);
  EXPECT_EQ(a.get(), b.get());  // and it still serves hits
  EXPECT_EQ(cache.stats().hits, 1);
  // A different shape replaces it (the old entry is now LRU and over budget).
  (void)cache.get(6, 3, greedy);
  auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.evictions, 1);
  // Evicted plans stay alive for existing holders (shared immutability).
  EXPECT_EQ(a->graph.p, 8);
}

TEST(PlanCache, UnboundedByDefault) {
  PlanCache cache;
  EXPECT_EQ(cache.byte_budget(), 0u);
  TreeConfig greedy{};
  for (int p = 2; p < 12; ++p) (void)cache.get(p, 2, greedy);
  EXPECT_EQ(cache.stats().entries, 10u);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(PlanCache, FactorizeUsesDefaultCache) {
  auto& cache = PlanCache::default_cache();
  cache.clear();
  core::Options opt;
  opt.nb = 32;
  opt.ib = 16;
  opt.threads = 1;
  auto a = random_matrix<double>(7 * 32, 3 * 32, 7);
  auto qr1 = core::TiledQr<double>::factorize(a.view(), opt);
  auto stats1 = cache.stats();
  EXPECT_EQ(stats1.misses, 1);
  auto qr2 = core::TiledQr<double>::factorize(a.view(), opt);
  auto stats2 = cache.stats();
  EXPECT_EQ(stats2.misses, 1);
  EXPECT_EQ(stats2.hits, stats1.hits + 1);
  // Both factorizations share the same immutable Plan object.
  EXPECT_EQ(&qr1.plan(), &qr2.plan());
}

}  // namespace
}  // namespace tiledqr
