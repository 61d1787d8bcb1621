// TuningTable: the persisted memory of the tree autotuner.
//
// Maps (p, q, workers, weight-profile id, factor kind) — the same
// shape-and-resources key the PlanCache uses, plus the profile so decisions
// made under one weight model are never served under another, plus the
// factor kind so a QR and an LQ workload on the same reduction grid keep
// independent entries — to the tuner's decision for that key: the chosen
// TreeConfig and its model makespan.
//
// The table is thread-safe and serializes to/from a small standalone JSON
// document, so a serving process can load yesterday's decisions at startup
// and a fleet can ship a pre-tuned table with the binary. Hit/miss stats
// round-trip with the entries: a re-loaded table reports the same counters
// it was saved with. Documents from before the tuner dropped its timing
// stage still load; their "measured_seconds", "refined" and "refinements"
// fields are ignored.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "kernels/kernels.hpp"
#include "trees/elimination.hpp"

namespace tiledqr::tuner {

/// One tuning decision.
struct TunedDecision {
  trees::TreeConfig config{};
  double model_makespan = 0.0;  ///< weighted bounded-sim makespan of `config`
  /// TILEDQR_TREE dictated the config (no model, no table). Forced decisions
  /// are never recorded, so this flag is not part of the JSON format.
  bool forced = false;

  friend bool operator==(const TunedDecision&, const TunedDecision&) = default;
};

/// Stable serialization names for TreeKind ("FlatTree", "Greedy", ...).
[[nodiscard]] const char* tree_kind_name(trees::TreeKind kind) noexcept;
[[nodiscard]] std::optional<trees::TreeKind> parse_tree_kind(std::string_view name) noexcept;

class TuningTable {
 public:
  struct Stats {
    long hits = 0;       ///< lookups served from the table
    long misses = 0;     ///< lookups that had to tune
    size_t entries = 0;  ///< live decisions

    [[nodiscard]] double hit_rate() const noexcept {
      long total = hits + misses;
      return total == 0 ? 0.0 : double(hits) / double(total);
    }
  };

  TuningTable() = default;
  TuningTable(TuningTable&& other) noexcept;
  TuningTable& operator=(TuningTable&& other) noexcept;

  /// Returns the recorded decision, counting a hit or miss.
  [[nodiscard]] std::optional<TunedDecision> lookup(
      int p, int q, int workers, const std::string& profile,
      kernels::FactorKind factor = kernels::FactorKind::QR);

  /// Records the decision for a key and returns the authoritative entry:
  /// the first record wins — later records for the same key are ignored (so
  /// concurrent tuners converge on one decision) and get the stored entry
  /// back. Use clear() to force re-tuning.
  TunedDecision record(int p, int q, int workers, const std::string& profile,
                       const TunedDecision& decision,
                       kernels::FactorKind factor = kernels::FactorKind::QR);

  [[nodiscard]] Stats stats() const;
  void clear();

  /// Serializes entries + stats to a standalone JSON document.
  [[nodiscard]] std::string to_json() const;

  /// Parses a document produced by to_json(); throws tiledqr::Error on
  /// malformed input. Stats are restored along with the entries.
  [[nodiscard]] static TuningTable from_json(std::string_view text);

  /// File flavors of to_json/from_json; save/load throw tiledqr::Error on
  /// I/O or parse failure, load_or_empty returns a fresh table when the file
  /// does not exist (but still throws on a file that exists and fails to
  /// parse — a corrupt table should be loud, not silently retuned).
  void save(const std::string& path) const;
  [[nodiscard]] static TuningTable load(const std::string& path);
  [[nodiscard]] static TuningTable load_or_empty(const std::string& path);

 private:
  struct Key {
    int p = 0;
    int q = 0;
    int workers = 0;
    std::string profile;
    kernels::FactorKind factor = kernels::FactorKind::QR;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const noexcept;
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, TunedDecision, KeyHash> map_;
  long hits_ = 0;
  long misses_ = 0;
};

}  // namespace tiledqr::tuner
