#ifndef UOT_EXEC_ADAPTIVE_UOT_POLICY_H_
#define UOT_EXEC_ADAPTIVE_UOT_POLICY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "scheduler/uot_policy.h"

namespace uot {

struct UotChoice;  // model/uot_chooser.h

/// Runtime-adaptive per-edge UoT (tentpole part 4): every edge starts from
/// a seed UoT — typically the CostModelUotChooser's static pick — and moves
/// along the spectrum in response to the engine feedback carried by
/// EdgeRuntimeState:
///
///  - *narrow* (halve, toward pipelining) under memory pressure: tracked
///    bytes above the narrow watermark of the shared budget, or producer
///    work orders already sitting in the budget-deferral queue. Smaller
///    transfer granules shrink the edge's live buffer and let consumers
///    drain intermediates sooner (the paper's Table II low-UoT advantage);
///  - *widen* (double, toward materializing) when memory has stayed calm
///    for a streak of consultations, reaching the streak faster when the
///    producer runs far ahead of the consumer (rate imbalance means
///    transfers are pure scheduling overhead — Section V's high-UoT
///    regime).
///
/// One instance may serve many concurrent sessions of one Engine: state is
/// keyed by (query_id, edge_index) under a mutex, and sessions only consult
/// the policy on coordinator events (never on the worker hot path).
class AdaptiveUotPolicy final : public EdgeUotPolicy {
 public:
  struct Options {
    /// Seed UoT for edges without a per-edge seed, blocks.
    uint64_t initial_blocks = 4;
    uint64_t min_blocks = 1;
    uint64_t max_blocks = 64;
    /// Fraction of the budget headroom (budget minus the tracked bytes
    /// already resident when the session started) above which edges
    /// narrow. Watermarks are applied to headroom, not the raw budget:
    /// resident base tables would otherwise pin usage near 1 and drown
    /// the signal from the query's own intermediates.
    double narrow_watermark = 0.85;
    /// Headroom fraction below which edges may widen.
    double widen_watermark = 0.55;
    /// Calm consultations (no pressure, usage under the widen watermark)
    /// before an edge widens one step.
    uint64_t widen_after_calm = 8;
    /// Producer-ahead ratio (completed producer / consumer work orders)
    /// that halves the required calm streak.
    double imbalance_ratio = 4.0;
    /// Ceiling for exchange/repartition edges (EdgeRuntimeState::
    /// is_exchange), applied on top of max_blocks. The partitioned build
    /// downstream buffers its whole input regardless, so widening an
    /// exchange edge buys no locality — it only delays the repartition
    /// work that should overlap the producer. Kept > min so the edge can
    /// still narrow under memory pressure.
    uint64_t exchange_max_blocks = 8;
  };

  AdaptiveUotPolicy() : AdaptiveUotPolicy(Options{}) {}
  explicit AdaptiveUotPolicy(Options options);
  /// Per-edge seeds (indexed by edge_index) from a CostModelUotChooser
  /// run; UotPolicy::kWholeTable seeds clamp to max_blocks so the edge
  /// stays adaptable in both directions.
  AdaptiveUotPolicy(Options options, std::vector<uint64_t> edge_seeds);

  /// The decision plus its cause: kSeed on an edge's first consultation,
  /// kDeferralDepth/kHeadroomWatermark for narrows, kCalmStreak/
  /// kRateImbalance for widens; `*cause` is left alone when the value is
  /// unchanged.
  uint64_t BlocksPerTransfer(const EdgeRuntimeState& edge,
                             UotAdaptCause* cause) override;

  std::string ToString() const override;

  /// Widen/narrow steps taken across all queries and edges so far.
  uint64_t adaptations() const {
    return adaptations_.load(std::memory_order_relaxed);
  }

  /// Seeds (one per edge) from chooser choices, for the seeded
  /// constructor.
  static std::vector<uint64_t> SeedsFromChoices(
      const std::vector<UotChoice>& choices, uint64_t max_blocks);

 private:
  struct EdgeControl {
    uint64_t blocks;
    uint64_t calm_streak = 0;
  };

  uint64_t SeedFor(int edge_index) const;

  const Options options_;
  const std::vector<uint64_t> edge_seeds_;
  std::atomic<uint64_t> adaptations_{0};
  std::mutex mutex_;
  // Keyed by (query_id, edge_index); entries are few (edges per query)
  // and live for the policy's lifetime.
  std::map<std::pair<uint64_t, int>, EdgeControl> edges_;
};

}  // namespace uot

#endif  // UOT_EXEC_ADAPTIVE_UOT_POLICY_H_
