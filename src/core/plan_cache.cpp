#include "core/plan_cache.hpp"

#include <vector>

#include "common/timer.hpp"

namespace tiledqr::core {

namespace {

size_t graph_bytes(const dag::TaskGraph& g) {
  size_t b = g.tasks.capacity() * sizeof(dag::Task);
  for (const auto& t : g.tasks) b += t.succ.capacity() * sizeof(std::int32_t);
  b += g.zero_task.capacity() * sizeof(std::int32_t);
  return b;
}

/// Estimated heap footprint of a cached plan; an accounting figure for the
/// byte budget, not an exact malloc tally.
size_t plan_bytes(const Plan& plan) {
  return sizeof(Plan) + plan.list.capacity() * sizeof(plan.list[0]) + graph_bytes(plan.graph) +
         plan.ranks.capacity() * sizeof(long);
}

}  // namespace

PlanCache::PlanCache(size_t byte_budget) : budget_(byte_budget) {
  metrics_source_ = obs::MetricsRegistry::global().register_source(
      obs::MetricsRegistry::global().unique_label("plan_cache"),
      [this](std::vector<obs::Sample>& out) {
        Stats s = stats();
        out.push_back({"hits", double(s.hits)});
        out.push_back({"misses", double(s.misses)});
        out.push_back({"entries", double(s.entries)});
        out.push_back({"evictions", double(s.evictions)});
        out.push_back({"bytes", double(s.bytes)});
        plan_time_.append_samples("plan_time", out);
      });
}

size_t PlanCache::KeyHash::operator()(const Key& k) const noexcept {
  // FNV-1a over the key fields; cheap and well-mixed for small int tuples.
  size_t h = 14695981039346656037ull;
  auto mix = [&h](size_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(size_t(k.p));
  mix(size_t(k.q));
  mix(size_t(k.config.kind));
  mix(size_t(k.config.family));
  mix(size_t(k.config.bs));
  mix(size_t(k.config.grasap_k));
  mix(size_t(k.factor));
  return h;
}

void PlanCache::touch_locked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

PlanCache::Map::iterator PlanCache::insert_locked(const Key& key, Entry entry) {
  auto [it, inserted] = map_.try_emplace(key, std::move(entry));
  if (inserted) {
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    bytes_ += it->second.bytes;
    evict_over_budget_locked(&key);
  }
  return it;
}

void PlanCache::evict_over_budget_locked(const Key* keep) {
  if (budget_ == 0) return;
  while (bytes_ > budget_ && !lru_.empty()) {
    const Key& victim = lru_.back();
    if (keep && victim == *keep) break;  // never evict the entry just added
    auto it = map_.find(victim);
    bytes_ -= it->second.bytes;
    map_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

std::shared_ptr<const Plan> PlanCache::get(int p, int q, const trees::TreeConfig& config,
                                           kernels::FactorKind factor) {
  const Key key{p, q, config, factor};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      touch_locked(it->second);
      return it->second.plan;
    }
  }
  // Plan outside the lock: planning a big grid must not block hits on other
  // shapes. Concurrent misses of the same key each plan; first insert wins.
  const std::int64_t t0 = obs::now_ns();
  auto plan = std::make_shared<const Plan>(make_plan(p, q, config, factor));
  plan_time_.record_ns(obs::now_ns() - t0);
  Entry entry;
  entry.bytes = plan_bytes(*plan);
  entry.plan = std::move(plan);
  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  return insert_locked(key, std::move(entry))->second.plan;
}

void PlanCache::set_byte_budget(size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  budget_ = bytes;
  evict_over_budget_locked(nullptr);
}

size_t PlanCache::byte_budget() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_;
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.bytes = bytes_;
  s.entries = map_.size();
  return s;
}

void PlanCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  bytes_ = 0;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

PlanCache& PlanCache::default_cache() {
  static PlanCache cache;
  return cache;
}

}  // namespace tiledqr::core
